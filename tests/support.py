"""Seeded random model generators, call counters and document walkers shared by tests."""

from __future__ import annotations

import dataclasses
import gc
import random
import sys

from abrep import document
from abrep import (
    AbstractDynamics,
    BinarySumUpdate,
    BitSpace,
    BuiltinRule,
    Component,
    CoordinateUpdateRule,
    InstantiationProcedure,
    JointSystem,
    LabelSpace,
    LookupRule,
    PhysicalDynamics,
    PhysicalLabelSpace,
    PhysicalState,
    PhysicalTupleSpace,
    Prediction,
    RealVectorSpace,
    RepresentationRelation,
    TableRule,
    Theory,
    ThresholdRule,
    TupleSpace,
    TupleWiseRule,
    build_xor_joint,
    enumerate_values,
    identity_dynamics,
)


def _patch_everywhere(monkeypatch, fn, wrapper) -> None:
    """Replace ``fn`` by ``wrapper`` in every ``abrep`` module that binds it."""
    modules = [m for n, m in list(sys.modules.items()) if n.partition(".")[0] == "abrep"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, wrapper)


def count_calls(monkeypatch, **targets) -> dict:
    """Count the calls of each ``abrep`` function in ``targets`` from here on, by keyword.

    Each function is patched in every ``abrep`` module that binds it, so each
    call is counted wherever it is made.
    """
    counts = dict.fromkeys(targets, 0)

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    for key, fn in targets.items():
        _patch_everywhere(monkeypatch, fn, counted(key, fn))
    return counts


def record_calls(monkeypatch, fn) -> list:
    """The positional arguments of each call of the ``abrep`` function ``fn`` from here on.

    ``fn`` is patched as ``count_calls`` patches it, so each call is recorded
    wherever it is made; an iterator argument is recorded as it is, unread.
    """
    calls = []

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    _patch_everywhere(monkeypatch, fn, wrapper)
    return calls


def count_compiled(monkeypatch, **classes) -> dict:
    """Count the calls of each class's compiled evaluator from here on, by keyword.

    The evaluator is the cached property ``_apply``, and its calls are
    counted wherever they are made. A property patched over it on the class
    hands out the compiled function, built or cached as usual, wrapped in a
    counter. A tuple-wise relation or a product program first compiled while counting
    keeps its parts' wrapped functions, so its later calls still add to this
    dict.
    """
    counts = dict.fromkeys(classes, 0)
    for key, cls in classes.items():
        _count_compiled(monkeypatch, counts, key, cls, "_apply")
    return counts


def _count_compiled(monkeypatch, counts: dict, key: str, cls: type, name: str) -> None:
    """Add each call of the function that ``cls``'s cached property ``name`` compiles to ``counts[key]``."""
    compiled = vars(cls)[name]

    def counting(decl):
        apply = compiled.__get__(decl, type(decl))

        def counted(value):
            counts[key] += 1
            return apply(value)

        return counted

    monkeypatch.setattr(cls, name, property(counting))


def count_device_work(monkeypatch) -> dict:
    """Count device-rule applications (``rule``) and reads (``read``) from here on.

    A read is a call of a relation's compiled reading, or of a threshold
    relation's seed-scan key, its row of bits uncut, so a scan's reads are
    counted whichever of the two it reads through.
    """
    counts = count_compiled(monkeypatch, rule=PhysicalDynamics, read=RepresentationRelation)
    _count_compiled(monkeypatch, counts, "read", RepresentationRelation, "_bits")
    return counts


def _alive(cls) -> int:
    """How many objects of ``cls`` are alive: the collector tracks every record, a tuple subclass."""
    gc.collect()
    return sum(type(obj) is cls for obj in gc.get_objects())


def count_builds(monkeypatch, *classes):
    """A function that counts the objects of each of ``classes`` built from here on, by class name.

    It counts every construction path, the class's ``__new__`` or not
    (``tuple.__new__``, ``_make``, ``copy``, ``pickle``, ``replace``): each
    object built since is dead now,
    and counted by a patched ``__del__``, or alive now and counted by the
    collector, over those alive here.
    """
    alive, died = {cls: _alive(cls) for cls in classes}, dict.fromkeys(classes, 0)
    for cls in classes:

        def dying(self, cls=cls):
            died[cls] += 1

        monkeypatch.setattr(cls, "__del__", dying, raising=False)
    return lambda: {cls.__name__: died[cls] + _alive(cls) - alive[cls] for cls in classes}


def adder_theory(width: int, seed_grid: bool = False) -> Theory:
    """A noise-free voltage adder of two ``width``-bit registers, every input pair in its domain.

    Its 3w+1 lines hold both addends and a (w+1)-bit sum, read at 2.5 V and
    written by one binary-sum update, as in the benchmark's adder family.
    With ``seed_grid`` it also declares an instantiation procedure that
    holds every high/low pattern of its lines, in the order the patterns
    count in binary, so the seed a target needs sits at the index its bits
    spell.
    """
    n = 3 * width + 1
    lines = RealVectorSpace(f"adder{width}.lines", ((0.0, 5.0),) * n)
    register = BitSpace(f"adder{width}.register", width)
    machine = TupleSpace(
        f"adder{width}.machine", (register, register, BitSpace(f"adder{width}.out", width + 1))
    )
    read = RepresentationRelation(f"adder{width}.read", lines, machine, ThresholdRule((2.5,) * n))
    add = AbstractDynamics(f"adder{width}.add", machine, BuiltinRule("ripple-add"))
    update = BinarySumUpdate(
        tuple(range(width)), tuple(range(width, 2 * width)), tuple(range(2 * width, n)), 2.5, 0.0, 5.0
    )
    volts = PhysicalDynamics(f"adder{width}.volts", lines, CoordinateUpdateRule((update,)))
    inputs = (format(i, f"0{2 * width}b") + "0" * (width + 1) for i in range(1 << (2 * width)))
    domain = tuple(PhysicalState(lines, _volts(bits)) for bits in inputs)
    instantiation = None
    if seed_grid:
        grid = tuple(PhysicalState(lines, _volts(format(i, f"0{n}b"))) for i in range(1 << n))
        instantiation = InstantiationProcedure(grid, identity_dynamics(f"adder{width}.hold", lines))
    return Theory(f"adder{width}", read, domain, (Prediction("add", add, volts),), instantiation)


def _volts(bits: str) -> tuple[float, ...]:
    """The levels that read as ``bits`` at 2.5 V: 5 V for a 1, 0 V for a 0."""
    return tuple(5.0 if c == "1" else 0.0 for c in bits)


def random_deterministic_theory(rng: random.Random, tag: str) -> Theory:
    """A random noise-free device theory over a bitstring codomain.

    Hamming distances between the two diagram paths range over 0..width,
    which exercises fractional tolerance thresholds.
    """
    width = rng.choice((2, 3))
    bits = BitSpace(f"{tag}.bits", width)
    n_states = rng.randrange(3, 7)
    labels = tuple(f"s{i}" for i in range(n_states))
    cells = PhysicalLabelSpace(f"{tag}.cells", labels)

    def random_word() -> str:
        return format(rng.randrange(2 ** width), f"0{width}b")

    read = RepresentationRelation(
        f"{tag}.read", cells, bits, LookupRule({l: random_word() for l in labels})
    )
    program = AbstractDynamics(
        f"{tag}.program",
        bits,
        TableRule({w: random_word() for w in enumerate_values(bits)}),
    )
    device = PhysicalDynamics(
        f"{tag}.device", cells, TableRule({l: rng.choice(labels) for l in labels})
    )
    states = tuple(PhysicalState(cells, l) for l in labels)
    return Theory(
        id=f"{tag}.theory",
        representation=read,
        domain=states,
        predictions=(Prediction("step", program, device),),
        instantiation=InstantiationProcedure(states, identity_dynamics(f"{tag}.hold", cells)),
    )


def _random_component(rng: random.Random, tag: str) -> Component:
    n_phys = rng.randrange(2, 5)
    n_abs = rng.randrange(2, 5)
    cells = PhysicalLabelSpace(f"{tag}.cells", tuple(f"c{i}" for i in range(n_phys)))
    values = LabelSpace(f"{tag}.values", tuple(f"v{i}" for i in range(n_abs)))
    read = RepresentationRelation(
        f"{tag}.read",
        cells,
        values,
        LookupRule({c: rng.choice(values.labels) for c in cells.labels}),
    )
    dynamics = AbstractDynamics(
        f"{tag}.step",
        values,
        TableRule({v: rng.choice(values.labels) for v in values.labels}),
    )
    states = tuple(PhysicalState(cells, c) for c in cells.labels)
    theory = Theory(
        id=f"{tag}.theory",
        representation=read,
        domain=states,
        predictions=(Prediction("step", dynamics, identity_dynamics(f"{tag}.settle", cells)),),
        instantiation=InstantiationProcedure(states, identity_dynamics(f"{tag}.hold", cells)),
    )
    return Component(theory, dynamics)


def random_joint_system(rng: random.Random, tag: str) -> JointSystem:
    """A random declared joint over small components.

    Representation and dynamics are drawn from a mix of factorable,
    mismatched-but-factorable, coupled, and non-product shapes so both
    classifier outcomes and the declared-representation anchor get
    exercised.
    """
    left = _random_component(rng, f"{tag}.left")
    right = _random_component(rng, f"{tag}.right")
    rep_l = left.theory.representation
    rep_r = right.theory.representation
    space = PhysicalTupleSpace(f"{tag}.floor", (rep_l.domain, rep_r.domain))

    rep_mode = rng.choice(("declared", "mismatched", "coupled", "non-product"))
    if rep_mode == "declared":
        codomain = TupleSpace(f"{tag}.pairs", (rep_l.codomain, rep_r.codomain))
        joint_rep = RepresentationRelation(
            f"{tag}.read", space, codomain, TupleWiseRule((rep_l, rep_r))
        )
    elif rep_mode == "mismatched":
        codomain = TupleSpace(f"{tag}.pairs", (rep_l.codomain, rep_r.codomain))
        fprime = {c: rng.choice(rep_l.codomain.labels) for c in rep_l.domain.labels}
        gprime = {c: rng.choice(rep_r.codomain.labels) for c in rep_r.domain.labels}
        joint_rep = RepresentationRelation(
            f"{tag}.read",
            space,
            codomain,
            LookupRule({(p, q): (fprime[p], gprime[q]) for (p, q) in enumerate_values(space)}),
        )
    elif rep_mode == "coupled":
        codomain = TupleSpace(f"{tag}.pairs", (rep_l.codomain, rep_r.codomain))
        joint_rep = RepresentationRelation(
            f"{tag}.read",
            space,
            codomain,
            LookupRule(
                {
                    (p, q): (
                        rng.choice(rep_l.codomain.labels),
                        rng.choice(rep_r.codomain.labels),
                    )
                    for (p, q) in enumerate_values(space)
                }
            ),
        )
    else:
        codomain = LabelSpace(f"{tag}.verdicts", tuple(f"k{i}" for i in range(rng.randrange(2, 5))))
        joint_rep = RepresentationRelation(
            f"{tag}.read",
            space,
            codomain,
            LookupRule(
                {(p, q): rng.choice(codomain.labels) for (p, q) in enumerate_values(space)}
            ),
        )

    if rep_mode == "non-product":
        joint_dyn = AbstractDynamics(
            f"{tag}.act",
            codomain,
            TableRule({v: rng.choice(codomain.labels) for v in codomain.labels}),
        )
    else:
        dyn_mode = rng.choice(("componentwise", "random"))
        if dyn_mode == "componentwise":
            f = {v: rng.choice(rep_l.codomain.labels) for v in rep_l.codomain.labels}
            g = {v: rng.choice(rep_r.codomain.labels) for v in rep_r.codomain.labels}
            entries = {(a, b): (f[a], g[b]) for (a, b) in enumerate_values(codomain)}
        else:
            entries = {
                (a, b): (
                    rng.choice(rep_l.codomain.labels),
                    rng.choice(rep_r.codomain.labels),
                )
                for (a, b) in enumerate_values(codomain)
            }
        joint_dyn = AbstractDynamics(f"{tag}.act", codomain, TableRule(entries))

    return JointSystem(
        id=f"{tag}.joint",
        left=left,
        right=right,
        joint_space=space,
        joint_representation=joint_rep,
        joint_dynamics=joint_dyn,
        provenance="declared",
    )


def xor_joint_variant(rule: str) -> JointSystem:
    """The built-in xor joint with its coupling replaced by a factorable rule.

    ``not-first`` flips the first bit and keeps the second; ``identity``
    keeps both. Each factors into per-cell actions, so classifies as hybrid.
    """
    joint = build_xor_joint().joint("xor.joint")
    pair = joint.joint_dynamics.space
    if rule == "not-first":
        flip = {"0": "1", "1": "0"}
        dynamics = AbstractDynamics(
            "xor.flip-first",
            pair,
            TableRule({(a, b): (flip[a], b) for (a, b) in enumerate_values(pair)}),
        )
    else:
        dynamics = AbstractDynamics("xor.keep-pair", pair, BuiltinRule("identity"))
    return dataclasses.replace(joint, joint_dynamics=dynamics)


def field_sites(data: dict):
    """Each declaration of the document ``data`` with each field of its kind.

    Walks the format table from ``document._SECTIONS`` and yields, in
    document order, (path of the declaration, the field), such as
    ``("checks[1]", oracle)``; a field is yielded whether or not the
    declaration writes it.
    """

    def walk(decl, obj, path):
        fields = list(decl.fields)
        for f in fields:
            if f.kind == "tag":
                fields += f.arg[1][obj[f.key]].fields
        for f in fields:
            yield path, f
            where, nested = f"{path}.{f.key}", obj.get(f.key)
            if f.kind == "one" and nested is not None:
                yield from walk(f.arg, nested, where)
            elif f.kind == "many":
                for i, item in enumerate(nested):
                    yield from walk(f.arg, item, f"{where}[{i}]")

    for _, path, decl in document._SECTIONS:
        section, _, part = path.partition(".")
        decls = data[section][part] if part else data[section]
        for i, obj in enumerate(decls):
            yield from walk(decl, obj, f"{path}[{i}]")


def at(data: dict, path: str) -> dict:
    """The object at a document path such as ``checks[1].rule``."""
    for part in path.replace("[", ".").replace("]", "").split("."):
        data = data[int(part)] if part.isdigit() else data[part]
    return data
