"""Misuse sweeps: every argument and field an annotation types rejects a value of the wrong type.

Both sweeps read the functions, classes, parameters and fields from the
package's exports and annotations, so a new one is covered without editing
this file. A value is typed when its annotation names only ``abrep`` classes,
``Mapping``, ``float``, ``int``, ``bool``, ``str``, None, ``Literal`` sets of
names, unions of them, or ``tuple[X, ...]`` of those; a function's ``*counters: int`` is a tuple of
ints. Each site gets every value of ``BAD`` that its annotation does not
admit, and a list field or argument also gets a one-item list of each value
its items do not admit. A wrong-typed value is a DeclarationError that
names the parameter or field (``field[i]`` for an item); a raw value for a
state is OutOfDomain.
"""

import dataclasses
import functools
import inspect
import math
import types
import typing
from collections.abc import Mapping

import pytest

import abrep
from abrep import (
    BUILTIN_SCENARIOS,
    DISCRETE,
    AbstractState,
    DeclarationError,
    DiagramSpec,
    OutOfDomain,
    PhysicalState,
    TrialSeed,
    validate_theory,
)

STATES = (AbstractState, PhysicalState)


def _members(hint) -> tuple:
    """The classes and ``Literal`` sets a typed annotation names, or None if it is not typed."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        parts = [_members(a) for a in args]
        return None if None in parts else sum(parts, ())
    if typing.get_origin(hint) is tuple:
        return _members(args[0]) if args[1:] == (...,) else None
    return (hint if typing.get_origin(hint) is typing.Literal else typing.get_origin(hint) or hint,)


def _typed(hint) -> bool:
    classes = _members(hint)
    return classes is not None and all(
        c in (type(None), Mapping, float, int, bool, str)
        or typing.get_origin(c) is typing.Literal
        or getattr(c, "__module__", "").startswith("abrep.")
        for c in classes
    )


def _is_list(hint) -> bool:
    """Whether ``hint`` is ``tuple[X, ...]``, or a union with one."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_is_list(a) for a in typing.get_args(hint))
    return typing.get_origin(hint) is tuple


#: The wrong-type candidates, by id, each with the scalar annotations that admit it.
BAD = {
    "str": ("x", {str}), "int": (5, {int, float}), "bool": (True, {bool}), "nan": (math.nan, set()),
}


def _wrong(hint) -> list:
    """``(id, value, item)`` for each value of ``BAD``, or one-item list, that ``hint`` rejects.

    ``item`` is True when the value is a list whose one item is the wrong one.
    """
    members = set(_members(hint))
    wrong = [(i, v, False) for i, (v, fits) in BAD.items() if _is_list(hint) or not fits & members]
    if _is_list(hint):
        wrong += [(f"item-{i}", [v], True) for i, (v, fits) in BAD.items() if not fits & members]
    return wrong


def _valid_of(member):
    """A valid value of ``member``, a class or a ``Literal`` set: for a set, its first name."""
    return typing.get_args(member)[0] if typing.get_origin(member) is typing.Literal else _valid()[member]


@functools.cache
def _valid() -> dict:
    """A valid value of each type an exported function takes, on the built-in voltage adder."""
    bundle = BUILTIN_SCENARIOS["voltage-adder"]()
    theory = bundle.theory("adder")
    pred = theory.predictions[0]
    graded, _ = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, TrialSeed(0))
    stack = BUILTIN_SCENARIOS["refinement-stack"]().stacks[0]
    joint = BUILTIN_SCENARIOS["xor-joint"]().joints[0]
    return {
        abrep.Theory: graded,
        abrep.AbstractDynamics: pred.abstract,
        abrep.PhysicalDynamics: pred.physical,
        abrep.RepresentationRelation: theory.representation,
        abrep.DiagramSpec: DiagramSpec(theory, pred.abstract, pred.physical),
        TrialSeed: TrialSeed(0),
        abrep.SimulationRelation: stack.relations[0],
        abrep.RefinementStack: stack,
        abrep.ScenarioBundle: bundle,
        abrep.RunReport: abrep.run_checks(bundle),
        abrep.JointSystem: joint,
        abrep.Component: joint.left,
        abrep.PhysicalSpace: theory.representation.domain,
        abrep.AbstractSpace: theory.representation.codomain,
        AbstractState: AbstractState(theory.representation.codomain, ("01", "10", "000")),
        PhysicalState: theory.domain[0],
        str: "add",
        float: 1.0,
        int: 1,
        bool: False,
    }


def _argument_sites():
    for name, function in sorted(vars(abrep).items()):
        if not isinstance(function, types.FunctionType):
            continue
        hints = typing.get_type_hints(function)
        for param in inspect.signature(function).parameters.values():
            hint = hints.get(param.name)
            if _typed(hint):  # for *counters, the hint of each item
                for bad, value, item in _wrong(hint):
                    yield pytest.param(name, param.name, value, item, id=f"{name}-{param.name}-{bad}")


@pytest.mark.parametrize("name, param, bad, item", list(_argument_sites()))
def test_every_typed_argument_is_checked(name, param, bad, item):
    function = vars(abrep)[name]
    hints = typing.get_type_hints(function)
    params = inspect.signature(function).parameters
    args = {
        p.name: _valid_of(_members(hints[p.name])[0])
        for p in params.values()
        if p.default is p.empty and p.kind is not p.VAR_POSITIONAL
    }
    field = f"{param}[0]" if item else param
    if params[param].kind is params[param].VAR_POSITIONAL:  # the second item is the wrong one
        before = [args.pop(p) for p in list(params)[: list(params).index(param)]]
        call = functools.partial(function, *before, _valid()[hints[param]], bad)
        field = f"{param}[1]"
    else:
        call = functools.partial(function, **{**args, param: bad})
    if set(_members(hints[param])) <= set(STATES):
        if hints["return"] is bool:  # a predicate: a raw value is not a member
            assert call() is False
        else:
            with pytest.raises(OutOfDomain):
                call()
        return
    with pytest.raises(DeclarationError) as err:
        call()
    assert err.value.field == field
    assert str(err.value).startswith(f"{name}: ")


#: The exported dataclasses that are reports, results or plain values.
NOT_DECLARATIONS = {
    "CommutationReport", "ValidityReport", "LayerReport", "StackReport", "RunReport", "ComputeResult",
    "CompositionClass", "FactorizationWitness",
}


@functools.cache
def _declarations() -> dict:
    """One instance of each declaration class: from the built-ins, and those they lack.

    No built-in holds a diagram spec, an abstract state or a trial seed.
    """
    found: dict = {}
    seen: dict = {}  # by id, holding each object so that no id is reused

    def walk(obj):
        if id(obj) in seen:
            return
        seen[id(obj)] = obj
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            if type(obj).__name__ not in NOT_DECLARATIONS:
                found.setdefault(type(obj), obj)
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name))
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                walk(item)

    theory = BUILTIN_SCENARIOS["voltage-adder"]().theory("adder")
    pred = theory.predictions[0]
    for build in BUILTIN_SCENARIOS.values():
        walk(build())
    walk(DiagramSpec(theory, pred.abstract, pred.physical))
    walk(AbstractState(theory.representation.codomain, ("01", "10", "000")))
    walk(TrialSeed(0))
    return found


def test_the_sweep_has_an_instance_of_every_exported_declaration():
    exported = {  # by class name: an alias is its class
        cls.__name__ for cls in vars(abrep).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
    }
    covered = {cls.__name__ for cls in _declarations()}
    assert exported - NOT_DECLARATIONS <= covered


def _field_sites():
    """Each typed field of each declaration class, under its class name and each exported alias."""
    names = {cls.__name__: cls for cls in _declarations()}
    names |= {name: cls for name, cls in vars(abrep).items() if cls in names.values()}
    for name, cls in sorted(names.items()):
        hints = typing.get_type_hints(cls, localns=vars(abrep))
        for f in dataclasses.fields(cls):
            if f.init and _typed(hints[f.name]):
                for bad, value, item in _wrong(hints[f.name]):
                    yield pytest.param(cls, f.name, value, item, id=f"{name}-{f.name}-{bad}")


@pytest.mark.parametrize("cls, field, bad, item", list(_field_sites()))
def test_every_typed_field_is_checked(cls, field, bad, item):
    instance = _declarations()[cls]
    with pytest.raises(DeclarationError) as err:
        dataclasses.replace(instance, **{field: bad})
    assert err.value.field == (f"{field}[0]" if item else field)
