"""Abstract evolutions (programs) and physical evolutions (device updates).

Both kinds of dynamics are single discrete-time steps; multi-step programs
are modeled as chains. Physical dynamics may carry a noise model whose
randomness is counter-based: every random draw is a pure function of the
trial seed and a draw index, so trial k of a batch can be reproduced in
isolation and independent trials may run concurrently.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Union

from .errors import DeclarationError, OutOfDomain, SpaceMismatch
from .spaces import (
    AbstractSpace,
    AbstractState,
    BitSpace,
    PhysicalLabelSpace,
    PhysicalSpace,
    PhysicalState,
    RealVectorSpace,
    TupleSpace,
    Value,
    _field_error,
    _finite,
    _integer,
    _items,
    _trusted,
    _typed,
    check_total_table,
    contains,
    enumerate_values,
    require_family,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _blend(*words: int) -> int:
    h = _GOLDEN
    for w in words:
        h = _splitmix((h + (w & _MASK64)) & _MASK64)
    return h


@dataclass(frozen=True)
class TrialSeed:
    """A 64-bit seed identifying one reproducible trial."""

    value: int = 0

    def __post_init__(self):
        if not (0 <= _integer("trial seed", "value", self.value) <= _MASK64):
            raise DeclarationError("trial seed must fit in 64 bits")


def derive_seed(base: TrialSeed, *counters: int) -> TrialSeed:
    """A child seed for one cell of a batch, stable under rescheduling."""
    return TrialSeed(_blend(base.value, *counters))


def unit_draw(seed: TrialSeed, *counters: int) -> float:
    """A deterministic draw in [0, 1) for the given seed and counters."""
    return (_blend(seed.value, *counters) >> 11) / float(1 << 53)


BUILTIN_NAMES = ("identity", "bit-not", "and", "xor", "ripple-add", "swap-pair")


@dataclass(frozen=True)
class TableRule:
    """A total lookup from state value to state value.

    The dynamics that owns the rule stores it in canonical form.
    """

    entries: Mapping[Value, Value]

    def __post_init__(self):
        _typed("table rule entries", self.entries, Mapping)


@dataclass(frozen=True)
class BuiltinRule:
    """One of the named built-in evolutions.

    identity: any space. bit-not: flips every bit of a bitstring.
    and / xor: on a pair of equal-width bitstrings, (a, b) -> (a op b, b).
    ripple-add: on (x, y, out) registers of widths (w, w, w+1), writes the
    exact sum of x and y into out. swap-pair: (a, b) -> (b, a) on a pair of
    like spaces.
    """

    name: str

    def __post_init__(self):
        if self.name not in BUILTIN_NAMES:
            raise _field_error("builtin rule", "name", f"unknown builtin dynamics {self.name!r}")


def _check_parts(rule, kind: type) -> None:
    """Store ``rule``'s parts as a tuple; DeclarationError unless each is a ``kind``."""
    owner = type(rule).__name__
    parts = _items(owner, "parts", rule.parts)
    object.__setattr__(rule, "parts", tuple(_typed(f"{owner}: part", p, kind) for p in parts))


@dataclass(frozen=True)
class ChainRule:
    """Apply component dynamics left to right."""

    parts: tuple["AbstractDynamics", ...]

    def __post_init__(self):
        _check_parts(self, AbstractDynamics)


@dataclass(frozen=True)
class ProductRule:
    """Apply component dynamics to the components of a product state."""

    parts: tuple["AbstractDynamics", ...]

    def __post_init__(self):
        _check_parts(self, AbstractDynamics)


AbstractRule = Union[TableRule, BuiltinRule, ChainRule, ProductRule]


@dataclass(frozen=True)
class AbstractDynamics:
    """A total endomap on an abstract space."""

    id: str
    space: AbstractSpace
    rule: AbstractRule

    def __post_init__(self):
        require_family(f"dynamics {self.id!r}", self.space, AbstractSpace)
        rule = self.rule
        if isinstance(rule, TableRule):
            _canonical_table(self)
        elif isinstance(rule, BuiltinRule):
            _check_builtin_shape(self.id, self.space, rule.name)
        elif isinstance(rule, ChainRule):
            for part in rule.parts:
                if part.space != self.space:
                    raise SpaceMismatch(
                        f"dynamics {self.id!r}: chain part {part.id!r} acts on a"
                        " different space"
                    )
        elif isinstance(rule, ProductRule):
            spaces = tuple(part.space for part in rule.parts)
            if not (isinstance(self.space, TupleSpace) and self.space.components == spaces):
                raise DeclarationError(
                    f"dynamics {self.id!r}: product parts must act on the components"
                    " of its space, in order"
                )
        else:
            raise DeclarationError(f"dynamics {self.id!r}: unknown rule type")


def _canonical_table(dyn) -> None:
    """Check a dynamics' table rule for totality and store it in canonical form."""
    entries = check_total_table(f"dynamics {dyn.id!r}", dyn.rule.entries, dyn.space, dyn.space)
    if entries is not dyn.rule.entries:
        object.__setattr__(dyn, "rule", TableRule(entries))


def _check_builtin_shape(dyn_id: str, space: AbstractSpace, name: str) -> None:
    def fail(requirement: str):
        raise DeclarationError(f"dynamics {dyn_id!r}: builtin {name!r} needs {requirement}")

    if name == "identity":
        return
    if name == "bit-not":
        if not isinstance(space, BitSpace):
            fail("a bitstring space")
    elif name in ("and", "xor"):
        if not (
            isinstance(space, TupleSpace)
            and len(space.components) == 2
            and all(isinstance(c, BitSpace) for c in space.components)
            and space.components[0].width == space.components[1].width
        ):
            fail("a pair of equal-width bitstring registers")
    elif name == "ripple-add":
        ok = (
            isinstance(space, TupleSpace)
            and len(space.components) == 3
            and all(isinstance(c, BitSpace) for c in space.components)
        )
        if ok:
            x, y, out = space.components
            ok = x.width == y.width and out.width == x.width + 1
        if not ok:
            fail("registers of widths (w, w, w+1)")
    elif name == "swap-pair":
        if not (
            isinstance(space, TupleSpace)
            and len(space.components) == 2
            and space.components[0] == space.components[1]
        ):
            fail("a pair of like component spaces")


def evolve_abstract(c: AbstractDynamics, m: AbstractState) -> AbstractState:
    """Image of ``m`` under the program ``c``."""
    if not contains(c.space, m):
        raise OutOfDomain(f"state is not in the space of dynamics {c.id!r}")
    return _trusted(AbstractState, c.space, _apply_abstract(c.rule, c.space, m.value))


def _apply_abstract(rule: AbstractRule, space: AbstractSpace, value: Value) -> Value:
    if isinstance(rule, TableRule):
        return rule.entries[value]
    if isinstance(rule, ChainRule):
        for part in rule.parts:
            value = _apply_abstract(part.rule, part.space, value)
        return value
    if isinstance(rule, ProductRule):
        return tuple(
            _apply_abstract(part.rule, part.space, v) for part, v in zip(rule.parts, value)
        )
    name = rule.name
    if name == "identity":
        return value
    if name == "bit-not":
        return "".join("1" if c == "0" else "0" for c in value)
    if name in ("and", "xor"):
        a, b = value
        if name == "and":
            combined = "".join("1" if x == "1" and y == "1" else "0" for x, y in zip(a, b))
        else:
            combined = "".join("1" if x != y else "0" for x, y in zip(a, b))
        return (combined, b)
    if name == "ripple-add":
        x, y, _ = value
        out_width = space.components[2].width
        total = int(x, 2) + int(y, 2)
        return (x, y, format(total % (1 << out_width), f"0{out_width}b"))
    if name == "swap-pair":
        a, b = value
        return (b, a)
    raise DeclarationError(f"unknown builtin {name!r}")


def _store_floats(decl, owner: str, *names: str) -> None:
    """Check the named numeric fields of ``decl`` and store them as floats."""
    for name in names:
        object.__setattr__(decl, name, _finite(owner, name, getattr(decl, name)))


def _store_lines(decl, owner: str, *names: str) -> None:
    """Check that the named line fields of ``decl`` list integers, and store them as tuples."""
    for name in names:
        object.__setattr__(decl, name, _items(owner, name, getattr(decl, name), _integer))


def _check_probability(noise, owner: str) -> None:
    _store_floats(noise, owner, "probability")
    if not (0.0 <= noise.probability <= 1.0):
        raise DeclarationError("flip probability must lie in [0, 1]")


@dataclass(frozen=True)
class BinarySumUpdate:
    """Write the binary sum of two voltage registers into a target register.

    Source registers are digitized at ``threshold``; the sum's bits are
    written back as ``high`` / ``low`` levels, most significant bit first,
    wrapping modulo the target width. Assignments read the working state,
    so earlier assignments in the same update are visible.
    """

    a_lines: tuple[int, ...]
    b_lines: tuple[int, ...]
    out_lines: tuple[int, ...]
    threshold: float
    low: float
    high: float

    def __post_init__(self):
        _store_lines(self, "binary-sum update", "a_lines", "b_lines", "out_lines")
        _store_floats(self, "binary-sum update", "threshold", "low", "high")


@dataclass(frozen=True)
class ConstantUpdate:
    """Pin coordinates to fixed levels (the stuck-at fault primitive)."""

    lines: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        owner = "constant update"
        _store_lines(self, owner, "lines")
        object.__setattr__(self, "values", _items(owner, "values", self.values, _finite))
        if len(self.lines) != len(self.values):
            raise DeclarationError(f"{owner}: lines and values differ in length")


@dataclass(frozen=True)
class CoordinateUpdateRule:
    """Ordered coordinate assignments on a real-vector space.

    An empty assignment list is the identity update. Later assignments
    override earlier ones on overlapping lines.
    """

    assignments: tuple[Union[BinarySumUpdate, ConstantUpdate], ...] = ()

    def __post_init__(self):
        assignments = _items("coordinate-update rule", "assignments", self.assignments)
        if not all(isinstance(u, (BinarySumUpdate, ConstantUpdate)) for u in assignments):
            raise DeclarationError("coordinate-update rule: an assignment is not an update")
        object.__setattr__(self, "assignments", assignments)


PhysicalRule = Union[TableRule, CoordinateUpdateRule]


@dataclass(frozen=True)
class CoordinateFlipNoise:
    """Independent per-coordinate flips across a voltage threshold.

    Each listed coordinate flips with the given probability: a level at or
    above ``threshold`` drops to ``low``, anything below rises to ``high``.
    """

    probability: float
    coordinates: tuple[int, ...]
    threshold: float
    low: float
    high: float

    def __post_init__(self):
        _store_lines(self, "coordinate-flip noise", "coordinates")
        _store_floats(self, "coordinate-flip noise", "threshold", "low", "high")
        _check_probability(self, "coordinate-flip noise")


@dataclass(frozen=True)
class LabelFlipNoise:
    """Relabeling noise for finite devices; every label needs a partner."""

    probability: float
    partners: Mapping[str, str]

    def __post_init__(self):
        _typed("label-flip noise partners", self.partners, Mapping)
        _check_probability(self, "label-flip noise")


Noise = Union[CoordinateFlipNoise, LabelFlipNoise]


@dataclass(frozen=True)
class PhysicalDynamics:
    """A device update: a total endomap on a physical space, plus noise."""

    id: str
    space: PhysicalSpace
    rule: PhysicalRule
    noise: Noise | None = None

    def __post_init__(self):
        require_family(f"dynamics {self.id!r}", self.space, PhysicalSpace)
        rule = self.rule
        if isinstance(rule, TableRule):
            _canonical_table(self)
        elif isinstance(rule, CoordinateUpdateRule):
            if not isinstance(self.space, RealVectorSpace):
                raise DeclarationError(
                    f"dynamics {self.id!r}: coordinate updates need a real-vector space"
                )
            _check_update_levels(self.id, self.space, rule)
        else:
            raise DeclarationError(f"dynamics {self.id!r}: unknown rule type")
        _check_noise(self.id, self.space, self.noise)


def _check_lines(dyn_id: str, space: RealVectorSpace, lines, *levels: float) -> None:
    """Each line must index a coordinate, and each level must fit its bounds."""
    for line in lines:
        if not (0 <= line < space.dimension):
            raise DeclarationError(f"dynamics {dyn_id!r}: line {line} out of range")
        lo, hi = space.bounds[line]
        for level in levels:
            if not (lo <= level <= hi):
                raise DeclarationError(
                    f"dynamics {dyn_id!r}: level {level} leaves the bounds of line {line}"
                )


def _check_update_levels(dyn_id: str, space: RealVectorSpace, rule: CoordinateUpdateRule):
    for upd in rule.assignments:
        if isinstance(upd, BinarySumUpdate):
            _check_lines(dyn_id, space, upd.a_lines + upd.b_lines)
            _check_lines(dyn_id, space, upd.out_lines, upd.low, upd.high)
        else:
            for line, value in zip(upd.lines, upd.values):
                _check_lines(dyn_id, space, (line,), value)


def _check_noise(dyn_id: str, space: PhysicalSpace, noise: Noise | None) -> None:
    if noise is None:
        return
    if isinstance(noise, CoordinateFlipNoise):
        if not isinstance(space, RealVectorSpace):
            raise DeclarationError(
                f"dynamics {dyn_id!r}: coordinate-flip noise needs a real-vector space"
            )
        _check_lines(dyn_id, space, noise.coordinates, noise.low, noise.high)
    elif isinstance(noise, LabelFlipNoise):
        if not isinstance(space, PhysicalLabelSpace):
            raise DeclarationError(
                f"dynamics {dyn_id!r}: label-flip noise needs a labeled space"
            )
        missing = [l for l in space.labels if l not in noise.partners]
        if missing:
            raise DeclarationError(
                f"dynamics {dyn_id!r}: labels without noise partners: {missing}"
            )
        for label, partner in noise.partners.items():
            if label not in space.labels or partner not in space.labels:
                raise DeclarationError(
                    f"dynamics {dyn_id!r}: noise partner pair {label!r} -> {partner!r}"
                    " leaves the space"
                )
    else:
        raise DeclarationError(f"dynamics {dyn_id!r}: unknown noise type")


def evolve_physical(h: PhysicalDynamics, p: PhysicalState, t: TrialSeed) -> PhysicalState:
    """Image of configuration ``p`` under device update ``h`` for trial ``t``.

    The output is a pure function of (h, p, t); noise-free dynamics ignore
    the seed entirely.
    """
    value = _rule_image(h, p)
    if h.noise is not None:
        (value,) = _noisy(h.noise, value, (t.value,))
    return _trusted(PhysicalState, h.space, value)


def _trial_outcomes(h: PhysicalDynamics, p: PhysicalState, base: TrialSeed, trials: int) -> list:
    """The outcome values of ``trials`` runs of ``h`` from ``p``, in trial order.

    Trial k's value is that of ``evolve_physical(h, p, derive_seed(base, k))``.
    The rule ignores the seed, so it runs once and only the noise is drawn
    per trial, with ``base`` mixed into the seeds once; a noise-free device
    repeats its one outcome and derives no seed.
    """
    value = _rule_image(h, p)
    if h.noise is None:
        return [value] * trials
    head = _splitmix((_GOLDEN + base.value) & _MASK64)
    return _noisy(h.noise, value, (_splitmix((head + k) & _MASK64) for k in range(trials)))


def _rule_image(h: PhysicalDynamics, p: PhysicalState) -> Value:
    if not contains(h.space, p):
        raise OutOfDomain(f"configuration is not in the space of dynamics {h.id!r}")
    return _apply_physical(h.rule, p.value)


def _apply_physical(rule: PhysicalRule, value: Value) -> Value:
    if isinstance(rule, TableRule):
        return rule.entries[value]
    working = list(value)
    for upd in rule.assignments:
        if isinstance(upd, BinarySumUpdate):
            a = _register_int(working, upd.a_lines, upd.threshold)
            b = _register_int(working, upd.b_lines, upd.threshold)
            width = len(upd.out_lines)
            bits = format((a + b) % (1 << width), f"0{width}b")
            for line, bit in zip(upd.out_lines, bits):
                working[line] = upd.high if bit == "1" else upd.low
        else:
            for line, level in zip(upd.lines, upd.values):
                working[line] = level
    return tuple(working)


def _register_int(coords: list[float], lines: tuple[int, ...], threshold: float) -> int:
    n = 0
    for line in lines:
        n = (n << 1) | (1 if coords[line] >= threshold else 0)
    return n


def _noisy(noise: Noise, value: Value, seeds: Iterable[int]) -> list:
    """``value`` after ``noise`` in each trial whose seed value is in ``seeds``, in order.

    Line i flips in trial t when ``unit_draw(TrialSeed(t), i) < probability``.
    That draw's first mixing step depends on t alone, so it is done once per
    trial, and the draw is compared unscaled, as ``(x >> 11) < probability *
    2**53``: both sides are exact, so each decision is the same. A line listed
    twice flips twice, each time from the working value.
    """
    cut = noise.probability * (1 << 53)
    heads = (_splitmix((_GOLDEN + t) & _MASK64) for t in seeds)
    if isinstance(noise, LabelFlipNoise):
        return [noise.partners[value] if _splitmix(u) >> 11 < cut else value for u in heads]
    outcomes = []
    for u in heads:
        working = list(value)
        for line in noise.coordinates:
            if _splitmix((u + line) & _MASK64) >> 11 < cut:
                working[line] = noise.low if working[line] >= noise.threshold else noise.high
        outcomes.append(tuple(working))
    return outcomes


def identity_dynamics(dyn_id: str, space: PhysicalSpace) -> PhysicalDynamics:
    """The do-nothing device update, usable as engineering dynamics."""
    if isinstance(space, RealVectorSpace):
        return PhysicalDynamics(dyn_id, space, CoordinateUpdateRule(()))
    entries = {v: v for v in enumerate_values(space)}
    return PhysicalDynamics(dyn_id, space, TableRule(entries))
