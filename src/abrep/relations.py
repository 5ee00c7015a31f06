"""Representation relations and device theories.

A representation relation is the one bridge between a simulated device and
the abstract values it carries: a total, deterministic map from physical
configurations to abstract states. Running it backwards, to *prepare* a
configuration that represents a wanted abstract state, is realized here as
an exhaustive search over declared seed configurations driven through an
engineering dynamics, which keeps preparation decidable and reproducible.

Each relation is compiled once, on first use, to a function from member
values to readings; every read goes through it, and only ``represent``
checks membership.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import field
from functools import cached_property
from itertools import accumulate
from operator import ge, itemgetter
from typing import Union

from .dynamics import (
    AbstractDynamics,
    PhysicalDynamics,
    ProductRule,
    TableRule,
    TrialSeed,
    _canonical_table,
    _each,
    _flag_codes,
    _flip,
)
from .errors import DeclarationError, NotInstantiable, OutOfDomain, _shown, resolve
from .spaces import (
    AbstractSpace,
    AbstractState,
    PhysicalSpace,
    PhysicalState,
    PhysicalTupleSpace,
    RealVectorSpace,
    TupleSpace,
    Value,
    _declaration,
    _register_widths,
    _trusted,
    contains,
)


@_declaration("threshold rule", name=None)
class ThresholdRule:
    """One bit per real coordinate: level >= threshold reads as 1.

    The bits fill the codomain in coordinate order, either a single
    bitstring register or a tuple of registers whose widths sum to the
    vector dimension.
    """

    thresholds: tuple[float, ...]


#: A lookup is a table rule, and a tuple-wise reading a product rule of relations.
RepresentationRule = Union[TableRule, ThresholdRule, ProductRule]
LookupRule, TupleWiseRule = TableRule, ProductRule  # earlier names, which perfbench/joints.py imports


@_declaration("relation")
class RepresentationRelation:
    """The directed map from device configurations to abstract states.

    Total on its domain and deterministic: equal configurations always
    represent as equal abstract states.
    """

    id: str
    domain: PhysicalSpace
    codomain: AbstractSpace
    rule: RepresentationRule

    def __post_init__(self, owner):
        rule = self.rule
        if isinstance(rule, TableRule):
            _canonical_table(self, owner, self.domain, self.codomain)
        elif isinstance(rule, ThresholdRule):
            if not isinstance(self.domain, RealVectorSpace):
                raise DeclarationError(f"{owner}: threshold rules need a real-vector domain")
            if len(rule.thresholds) != self.domain.dimension:
                raise DeclarationError(f"{owner}: one threshold per coordinate required")
            widths = _register_widths(self.codomain)
            if widths is None:
                raise DeclarationError(
                    f"{owner}: codomain must be a bitstring register"
                    " or a tuple of bitstring registers"
                )
            if sum(widths) != self.domain.dimension:
                raise DeclarationError(f"{owner}: register widths must sum to the dimension")
        else:
            ok = (
                isinstance(self.domain, PhysicalTupleSpace)
                and isinstance(self.codomain, TupleSpace)
                and len(rule.parts) == len(self.domain.components)
                and len(rule.parts) == len(self.codomain.components)
            )
            if not ok:
                raise DeclarationError(f"{owner}: tuple-wise rules need matching products")
            for part, dom, cod in zip(rule.parts, self.domain.components, self.codomain.components):
                if not (isinstance(part, RepresentationRelation) and (part.domain, part.codomain) == (dom, cod)):
                    raise DeclarationError(
                        f"{owner}: part {part.id!r} does not line up with the product components"
                    )

    @cached_property
    def _apply(self) -> Callable[[Value], Value]:
        """The relation as a function from member values to readings, compiled on first use.

        A threshold reading compares every line in one pass, as bytes 0 and
        1, and cuts the row of bits into its registers.
        """
        rule = self.rule
        if isinstance(rule, TableRule):
            return rule.entries.__getitem__
        if isinstance(rule, ProductRule):
            return _each(len(rule.parts))(*(part._apply for part in rule.parts))
        ends = tuple(accumulate(_register_widths(self.codomain)))
        split = itemgetter(*map(slice, (0,) + ends, ends))  # one register: its bits, untupled
        if isinstance(self.codomain, TupleSpace) and len(ends) == 1:
            split = lambda bits: (bits,)
        thresholds = rule.thresholds
        return lambda value: split(bytes(map(ge, value, thresholds)).translate(_BITS).decode())


_BITS = bytes.maketrans(b"\0\1", b"01")


def represent(relation: RepresentationRelation, p: PhysicalState) -> AbstractState:
    """The abstract state assigned to configuration ``p``."""
    if not contains(relation.domain, p):
        raise OutOfDomain(f"configuration is not in the domain of relation {relation.id!r}")
    return _trusted(AbstractState, relation.codomain, relation._apply(p.value))


@_declaration("instantiation", name=None)
class InstantiationProcedure:
    """Seeded preparation: candidate start states plus engineering dynamics.

    Preparation searches the seeds in declaration order, so equal targets
    always prepare the same configuration.
    """

    seeds: tuple[PhysicalState, ...]
    engineering: PhysicalDynamics


@_declaration("prediction", name="name")
class Prediction:
    """A named pairing of a program with the device update meant to run it."""

    name: str
    abstract: AbstractDynamics
    physical: PhysicalDynamics


@_declaration("theory")
class Theory:
    """A device theory: representation, asserted domain, and predictions.

    ``evidence`` is the report that grades the theory. Only theory
    validation sets it, on the new Theory value it returns; any other
    construction, ``dataclasses.replace`` included, starts untested.
    """

    id: str
    representation: RepresentationRelation
    domain: tuple[PhysicalState, ...]
    predictions: tuple[Prediction, ...]
    instantiation: InstantiationProcedure | None = None
    evidence: ValidityReport | None = field(init=False, default=None)

    def __post_init__(self, owner):
        relation = self.representation
        space = relation.domain
        if any(state.space != space for state in self.domain):
            raise DeclarationError(f"{owner}: domain state outside the represented space")
        names = [p.name for p in self.predictions]
        if len(set(names)) != len(names):
            raise DeclarationError(f"{owner}: duplicate prediction names")
        for pred in self.predictions:
            if pred.abstract.space != relation.codomain:
                raise DeclarationError(
                    f"{owner}: prediction {pred.name!r} does not act on the representation codomain"
                )
            if pred.physical.space != space:
                raise DeclarationError(
                    f"{owner}: prediction {pred.name!r} device dynamics act on the wrong space"
                )
        if self.instantiation is not None:
            if self.instantiation.engineering.space != space:
                raise DeclarationError(f"{owner}: engineering dynamics act on the wrong space")
            if any(seed.space != space for seed in self.instantiation.seeds):
                raise DeclarationError(f"{owner}: seed outside the represented space")

    @cached_property
    def _domain_set(self) -> frozenset:
        """The domain, hashed on first use, so that a square's domain check is one lookup."""
        return frozenset(self.domain)

    @property
    def is_valid(self) -> bool:
        return self.evidence is not None and self.evidence.all_passed

    @property
    def validity(self) -> str:
        """``"untested"``, ``"valid"`` or ``"invalid"``, read off the evidence."""
        if self.evidence is None:
            return "untested"
        return "valid" if self.evidence.all_passed else "invalid"

    def prediction(self, name: str) -> Prediction:
        return resolve({p.name: p for p in self.predictions}, name, f"theory {self.id!r}")


# Engineering dynamics run with a fixed seed so preparation is a pure
# function of (theory, target) even for noisy engineering declarations.
_ENGINEERING_SEED = TrialSeed(0)


def instantiate(theory: Theory, target: AbstractState) -> PhysicalState:
    """Prepare a configuration whose representation is exactly ``target``.

    Seeds are driven through the engineering dynamics in declaration order;
    the first prepared configuration that represents as ``target`` wins.
    """
    return next(_prepare(theory, (target,)))


def _prepare(theory: Theory, targets: Iterable[AbstractState]) -> Iterator[PhysicalState]:
    """Prepare each of ``targets`` in turn, as ``instantiate`` would, in one scan of the seeds.

    Each reading keeps its first prepared configuration, and each target
    resumes the scan where the last stopped. Lazy, so errors come in the
    order that per-target ``instantiate`` calls would raise them.
    """
    if theory.instantiation is None:
        raise NotInstantiable(f"theory {theory.id!r} declares no instantiation procedure")
    relation = theory.representation
    read = relation._apply  # prepared configurations are in its domain: checked at declaration
    engineering = theory.instantiation.engineering
    step, noise = engineering._apply, engineering.noise  # seeds are in its space: checked too
    code = None if noise is None else _flag_codes(noise, _ENGINEERING_SEED.value, 1)[0]
    seeds = iter(theory.instantiation.seeds)
    first: dict[Value, Value] = {}
    for target in targets:
        if not contains(relation.codomain, target):
            raise OutOfDomain(f"target is not in the codomain of relation {relation.id!r}")
        goal = target.value
        if goal not in first:
            for seed in seeds:
                value = step(seed.value)
                if noise is not None:
                    value = _flip(noise, value, code)
                reading = read(value)
                first.setdefault(reading, value)
                if reading == goal:
                    break
            else:
                raise NotInstantiable(f"theory {theory.id!r}: no seed prepares {_shown(goal)}")
        yield _trusted(PhysicalState, engineering.space, first[goal])
