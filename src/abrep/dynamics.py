"""Abstract evolutions (programs) and physical evolutions (device updates).

Both kinds of dynamics are single discrete-time steps, as the square
compares one step on each side; layered computation is what refinement
stacks model. Physical dynamics may carry a noise model whose
randomness is counter-based: every random draw is a pure function of the
trial seed and a draw index, so trial k of a batch can be reproduced in
isolation and independent trials may run concurrently.

Every rule kind is declared here, the threshold readings of relations
included, and ``_compiled`` turns a rule into a function on member values,
once per declaration, on first use. A column of cells also runs on lanes,
one int per bit (Biham, 1997): ``_sliced`` runs a threshold device's update,
and ``_laned`` the program ``ripple-add``, on all cells at once. So a sliced
validation of D states and P predictions steps and reads only the cells that
disagree, once each, and makes D steps of each program but ``ripple-add``.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable, Mapping
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from operator import ge, itemgetter
from typing import Literal, Union, get_args

from .errors import DeclarationError, OutOfDomain, _shown
from .spaces import (
    AbstractSpace,
    AbstractState,
    PhysicalSpace,
    PhysicalState,
    RealVectorSpace,
    TupleSpace,
    Value,
    _declaration,
    _field_error,
    _register_widths,
    _trusted,
    check_total_table,
    contains,
    enumerate_values,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
#: Trials per pass of the noise kernel. ``_ONES`` holds 1, and ``_RAMP`` k, in 128-bit slot k.
_BLOCK = 1024
_ONES = int.from_bytes(b"\1".ljust(16, b"\0") * _BLOCK, "little")
_RAMP = int.from_bytes(b"".join(k.to_bytes(16, "little") for k in range(_BLOCK)), "little")


@lru_cache(maxsize=8)  # a run meets few block sizes: its trial counts, each up to _BLOCK, and their tails
def _block(count: int) -> tuple[int, int, int, int, int]:
    """The ones, ramp, masks, carries and ``_GOLDEN`` of a pass of ``count`` slots, cut from a full pass's."""
    ones = _ONES >> 128 * (_BLOCK - count)
    return ones, _RAMP & (1 << 128 * count) - 1, _MASK64 * ones, ones << 64, _GOLDEN * ones


@lru_cache(maxsize=8)
def _bias(probability: float, count: int) -> int:
    """What each of ``count`` slots adds to a draw so that bit 64 is set when its line keeps its level."""
    return ((1 << 64) - (math.ceil(probability * (1 << 53)) << 11)) * _block(count)[0]


def _mix(z: int, mask: int) -> int:
    """SplitMix64's mix of each 64-bit word that ``mask`` keeps in ``z`` (see ``_flag_codes``)."""
    z &= mask
    z = ((z ^ z >> 30) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ z >> 27) & mask) * 0x94D049BB133111EB & mask
    return (z ^ z >> 31) & mask


def _blend(*words: int) -> int:
    h = _GOLDEN
    for w in words:
        h = _mix(h + w, _MASK64)
    return h


@_declaration("trial seed", name=None)
class TrialSeed:
    """A 64-bit seed identifying one reproducible trial."""

    value: int = 0

    def __post_init__(self, owner):
        if not 0 <= self.value <= _MASK64:
            raise _field_error(owner, "value", "must fit in 64 bits")


def derive_seed(base: TrialSeed, *counters: int) -> TrialSeed:
    """A child seed for one cell of a batch, stable under rescheduling."""
    return TrialSeed(_blend(base.value, *counters))


def unit_draw(seed: TrialSeed, *counters: int) -> float:
    """A deterministic draw in [0, 1) for the given seed and counters."""
    return (_blend(seed.value, *counters) >> 11) / float(1 << 53)


BuiltinName = Literal["identity", "xor", "ripple-add", "swap-pair"]
BUILTIN_NAMES = get_args(BuiltinName)


@_declaration("table rule", name=None)
class TableRule:
    """A total lookup: a dynamics' from value to value, or a relation's from configuration to reading.

    The dynamics or relation that owns the rule stores it in canonical form.
    """

    entries: Mapping[Value, Value]


@_declaration("builtin rule", name=None)
class BuiltinRule:
    """One of the named built-in evolutions.

    identity: any space. xor: on a pair of equal-width bitstrings,
    (a, b) -> (a xor b, b).
    ripple-add: on (x, y, out) registers of widths (w, w, w+1), writes the
    exact sum of x and y into out. swap-pair: (a, b) -> (b, a) on a pair of
    like spaces.
    """

    name: BuiltinName


@_declaration("product rule", name=None)
class ProductRule:
    """Apply component maps to the components of a product value, one each.

    A program's parts are programs, and a relation's (its tuple-wise
    reading) are relations; the owner checks their kind and line-up.
    """

    parts: tuple[AbstractDynamics | RepresentationRelation, ...]


@_declaration("threshold rule", name=None)
class ThresholdRule:
    """A relation's reading of one bit per real coordinate: level >= threshold reads as 1.

    The bits fill the codomain in coordinate order, either a single
    bitstring register or a tuple of registers whose widths sum to the
    vector dimension.
    """

    thresholds: tuple[float, ...]


AbstractRule = Union[TableRule, BuiltinRule, ProductRule]


@_declaration("dynamics")
class AbstractDynamics:
    """A total endomap on an abstract space."""

    id: str
    space: AbstractSpace
    rule: AbstractRule
    noise = None  # a program is noise-free; unannotated, so not a field

    def __post_init__(self, owner):
        rule = self.rule
        if isinstance(rule, TableRule):
            _canonical_table(self, owner, self.space, self.space)
        elif isinstance(rule, BuiltinRule):
            _check_builtin_shape(owner, self.space, rule.name)
        else:  # nests no deeper than its space, which _check_components bounds
            spaces = tuple(part.space if isinstance(part, AbstractDynamics) else None for part in rule.parts)
            if not (isinstance(self.space, TupleSpace) and self.space.components == spaces):
                raise DeclarationError(
                    f"{owner}: product parts must act on the components of its space, in order"
                )

    _apply = cached_property(lambda self: _compiled(self.rule, self.space))
    _lanes = cached_property(lambda self: _laned(self.rule, self.space))


def _compiled(rule, space, codomain=None) -> Callable[[Value], Value]:
    """``rule`` as a function on member values of ``space``, into ``codomain`` for a reading.

    Each owner's cached ``_apply`` is one call of this, so a declaration is
    compiled once, on first use, and no later call walks its rule's type; a
    product's parts are compiled through their own ``_apply``. A
    threshold reading cuts its ``_row`` of bits into its registers.
    """
    if isinstance(rule, TableRule):
        return rule.entries.__getitem__
    if isinstance(rule, BuiltinRule):
        return _builtin(rule.name, space)
    if isinstance(rule, ThresholdRule):
        split, row = _registers(codomain), _row(rule)
        return lambda value: split(row(value))
    if isinstance(rule, CoordinateUpdateRule):
        updates = tuple(map(_update, rule.assignments))
        if not updates:  # the identity, as every real-vector hold is: no copy
            return lambda value: value

        def step(value):  # every update reads the working levels before it writes any
            working = list(value)
            for reads, cut, writes in updates:
                total = 0
                for line, weight in reads:
                    if working[line] >= cut:
                        total += weight
                for line, k, levels in writes:
                    working[line] = levels[total >> k & 1]
            return tuple(working)

        return step
    return _each(len(rule.parts))(*(part._apply for part in rule.parts))


def _sliced(rule: PhysicalRule, reading) -> Callable[[list, int], list] | None:
    """``rule`` on lanes, to the lanes its image reads as under the threshold rule ``reading``; or None.

    Lane j packs every cell's bit on line j, cell i's in byte i (Biham, 1997),
    and ``ones`` is the lane of all ones: a constant pins a lane, a binary sum
    ripples its carry through its addends' lanes, and a written level sets the
    bit it reads as at line j's cut. None unless every sum cuts its lines there.
    """
    if not (isinstance(rule, CoordinateUpdateRule) and isinstance(reading, ThresholdRule)):
        return None
    cuts, updates = reading.thresholds, rule.assignments
    sums = [u for u in updates if isinstance(u, BinarySumUpdate)]
    if any(cuts[line] != u.threshold for u in sums for line in u.a_lines + u.b_lines):
        return None

    def step(lanes: list, ones: int) -> list:
        lanes = list(lanes)
        for upd in updates:
            if isinstance(upd, ConstantUpdate):
                for line, level in zip(upd.lines, upd.values):
                    lanes[line] = ones if level >= cuts[line] else 0
                continue
            a, b = ([lanes[i] for i in lines[::-1]] for lines in (upd.a_lines, upd.b_lines))
            for line, bit in zip(upd.out_lines, _ripple(a, b, len(upd.out_lines))[::-1]):
                high, low = upd.high >= cuts[line], upd.low >= cuts[line]
                lanes[line] = (bit if high else 0) | (bit ^ ones if low else 0)
        return lanes

    return step


def _ripple(a: list, b: list, width: int) -> list:
    """The lanes of addend lanes ``a`` plus ``b``, each least significant first, modulo ``2**width``."""
    pad, carry, bits = [0] * width, 0, []
    for x, y, _ in zip(a + pad, b + pad, pad):
        bits.append(x ^ y ^ carry)
        carry = x & y | carry & (x ^ y)
    return bits


def _lanes_of(row: bytes, n: int, ones: int) -> list:
    """The lanes of ``row``: ``n`` bits a cell, cell after cell, each the low bit of a byte."""
    return [int.from_bytes(row[j::n], "little") & ones for j in range(n)]


def _unpacked(lanes: list, cells: int, codomain) -> list:
    """Each of ``cells`` cells' value in the registers ``codomain``, out of its ``lanes``."""
    n, row = len(lanes), bytearray(cells * len(lanes))
    for j, lane in enumerate(lanes):
        row[j::n] = lane.to_bytes(cells, "little")
    text, split = row.translate(_BITS).decode(), _registers(codomain)
    return [split(text[i : i + n]) for i in range(0, cells * n, n)]


def _row(rule: ThresholdRule) -> Callable[[Value], str]:
    """The threshold reading ``rule`` as a row of bits, uncut: each line compared in one pass."""
    thresholds = rule.thresholds
    return lambda value: bytes(map(ge, value, thresholds)).translate(_BITS).decode()


def _registers(codomain) -> Callable[[str], Value]:
    """A row of bits, cut into the registers of ``codomain``: one register, its bits untupled."""
    ends = tuple(accumulate(_register_widths(codomain)))
    if isinstance(codomain, TupleSpace) and len(ends) == 1:
        return lambda bits: (bits,)
    return itemgetter(*map(slice, (0,) + ends, ends))


@lru_cache(maxsize=None)
def _each(arity: int) -> Callable[..., Callable[[tuple], tuple]]:
    """``_each(len(steps))(*steps)`` applies ``steps`` to a product value's components, one each.

    Generated from the arity alone (Feeley and Lapalme, 1987), so a call runs one frame and no
    declaration value reaches the source: ``_each(2)`` is ``lambda f0, f1: lambda v: (f0(v[0]), f1(v[1]), )``.
    """
    calls = "".join(f"f{i}(v[{i}]), " for i in range(arity))
    return eval(f"lambda {', '.join(f'f{i}' for i in range(arity))}: lambda v: ({calls})")


_BITS = bytes.maketrans(b"\0\1", b"01")


def _builtin(name: str, space: AbstractSpace) -> Callable[[Value], Value]:
    """The builtin ``name`` on ``space``, whose shape was checked where it was declared."""
    if name == "identity":
        return lambda value: value
    if name == "swap-pair":
        return lambda value: (value[1], value[0])
    width = space.components[-1].width
    mask, fmt = (1 << width) - 1, f"0{width}b"
    if name == "ripple-add":
        return lambda v: (v[0], v[1], format(int(v[0], 2) + int(v[1], 2) & mask, fmt))
    return lambda v: (format(int(v[0], 2) ^ int(v[1], 2), fmt), v[1])


def _laned(rule: AbstractRule, space: AbstractSpace) -> Callable[[list, int], list] | None:
    """``rule`` on the lanes of ``space``'s registers laid end to end, as ``_sliced`` takes lanes, or None.

    Each program's cached ``_lanes`` is one call of this. Only ``ripple-add``, the
    one program a workload validates on a threshold device, has a lane form.
    """
    if not (isinstance(rule, BuiltinRule) and rule.name == "ripple-add"):
        return None
    w = _register_widths(space)[0]
    x, y = slice(w - 1, None, -1), slice(2 * w - 1, w - 1, -1)  # the addends, low bit first
    return lambda lanes, ones: lanes[: 2 * w] + _ripple(lanes[x], lanes[y], w + 1)[::-1]


def _canonical_table(decl, owner: str, keys, values) -> None:
    """Check ``decl``'s table rule from ``keys`` into ``values``; store it in canonical form."""
    entries = check_total_table(owner, decl.rule.entries, keys, values)
    if entries is not decl.rule.entries:
        object.__setattr__(decl, "rule", type(decl.rule)(entries))


def _check_builtin_shape(owner: str, space: AbstractSpace, name: str) -> None:
    parts = space.components if isinstance(space, TupleSpace) else ()
    widths = _register_widths(space) or ()
    ok, requirement = {
        "identity": (True, ""),
        "xor": (len(widths) == 2 and widths[0] == widths[1], "a pair of equal-width bitstring registers"),
        "ripple-add": (
            len(widths) == 3 and widths[0] == widths[1] == widths[2] - 1,
            "registers of widths (w, w, w+1)",
        ),
        "swap-pair": (len(parts) == 2 and parts[0] == parts[1], "a pair of like component spaces"),
    }[name]
    if not ok:
        raise DeclarationError(f"{owner}: builtin {name!r} needs {requirement}")


def evolve_abstract(c: AbstractDynamics, m: AbstractState) -> AbstractState:
    """Image of ``m`` under the program ``c``."""
    if not contains(c.space, m):
        raise OutOfDomain(f"state is not in the space of dynamics {c.id!r}")
    return _trusted(AbstractState, c.space, c._apply(m.value))


@_declaration("binary-sum update", name=None)
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


@_declaration("constant update", name=None)
class ConstantUpdate:
    """Pin coordinates to fixed levels (the stuck-at fault primitive)."""

    lines: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self, owner):
        if len(self.lines) != len(self.values):
            raise DeclarationError(f"{owner}: lines and values differ in length")


@_declaration("coordinate-update rule", name=None)
class CoordinateUpdateRule:
    """Ordered coordinate assignments on a real-vector space.

    An empty assignment list is the identity update. Later assignments
    override earlier ones on overlapping lines.
    """

    assignments: tuple[Union[BinarySumUpdate, ConstantUpdate], ...] = ()


PhysicalRule = Union[TableRule, CoordinateUpdateRule]


@_declaration("coordinate-flip noise", name=None)
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

    def __post_init__(self, owner):
        if not (0.0 <= self.probability <= 1.0):
            raise _field_error(owner, "probability", "must lie in [0, 1]")


@_declaration("dynamics")
class PhysicalDynamics:
    """A device update: a total endomap on a physical space, plus noise."""

    id: str
    space: PhysicalSpace
    rule: PhysicalRule
    noise: CoordinateFlipNoise | None = None

    def __post_init__(self, owner):
        if isinstance(self.rule, TableRule):
            _canonical_table(self, owner, self.space, self.space)
        else:
            if not isinstance(self.space, RealVectorSpace):
                raise DeclarationError(f"{owner}: coordinate updates need a real-vector space")
            _check_update_levels(owner, self.space, self.rule)
        _check_noise(owner, self.space, self.noise)

    _apply = cached_property(lambda self: _compiled(self.rule, self.space))  # without the noise


def _update(upd: BinarySumUpdate | ConstantUpdate) -> tuple:
    """``upd`` as the (line, weight) pairs it reads, their threshold, and the (line, bit, levels) it writes.

    A step totals the weights read at or above the threshold, then writes each line in declared order at
    the level its bit of the total picks: a sum adds its addends as integers, most significant line first;
    a constant reads nothing and picks between two equal levels.
    """
    if isinstance(upd, ConstantUpdate):
        return (), 0.0, tuple((line, 0, (level, level)) for line, level in zip(upd.lines, upd.values))
    reads = tuple((line, 1 << k) for lines in (upd.a_lines, upd.b_lines) for k, line in enumerate(lines[::-1]))
    writes = zip(upd.out_lines, range(len(upd.out_lines) - 1, -1, -1))
    return reads, upd.threshold, tuple((line, k, (upd.low, upd.high)) for line, k in writes)


def _check_lines(owner: str, space: RealVectorSpace, lines, *levels: float) -> None:
    """Each line must index a coordinate, and each level must fit its bounds."""
    for line in lines:
        if not (0 <= line < space.dimension):
            raise DeclarationError(f"{owner}: line {_shown(line)} out of range")
        lo, hi = space.bounds[line]
        for level in levels:
            if not (lo <= level <= hi):
                raise DeclarationError(f"{owner}: level {level} leaves the bounds of line {line}")


def _check_update_levels(owner: str, space: RealVectorSpace, rule: CoordinateUpdateRule):
    for upd in rule.assignments:
        if isinstance(upd, BinarySumUpdate):
            _check_lines(owner, space, upd.a_lines + upd.b_lines)
            _check_lines(owner, space, upd.out_lines, upd.low, upd.high)
        else:
            for line, value in zip(upd.lines, upd.values):
                _check_lines(owner, space, (line,), value)


def _check_noise(owner: str, space: PhysicalSpace, noise: CoordinateFlipNoise | None) -> None:
    if noise is None:
        return
    if not isinstance(space, RealVectorSpace):
        raise DeclarationError(f"{owner}: coordinate-flip noise needs a real-vector space")
    _check_lines(owner, space, noise.coordinates, noise.low, noise.high)


def evolve_physical(h: PhysicalDynamics, p: PhysicalState, seed: TrialSeed) -> PhysicalState:
    """Image of configuration ``p`` under device update ``h`` for trial ``seed``.

    The output is a pure function of (h, p, seed); noise-free dynamics ignore
    the seed's value.
    """
    if not contains(h.space, p):
        raise OutOfDomain(f"configuration is not in the space of dynamics {h.id!r}")
    return _trusted(PhysicalState, h.space, _trial_step(h, seed)(p.value))


def _trial_step(h: PhysicalDynamics, seed: TrialSeed) -> Callable[[Value], Value]:
    """``h``'s update for trial ``seed`` on member values: noise-free, its compiled rule itself."""
    step, noise = h._apply, h.noise
    if noise is None:
        return step
    code = _flag_codes(noise, seed.value, 1)[0]
    return lambda value: _flip(noise, step(value), code)


def _trial_outcomes(h: PhysicalDynamics, value: Value, base: TrialSeed, trials: int) -> tuple:
    """The rule's image of member value ``value``, and the flag code of each of ``trials`` runs.

    Trial k's outcome, that of ``evolve_physical(h, p, derive_seed(base, k))``
    for the state p of ``value``, is ``_flip(h.noise, image, codes[k])``. The
    rule ignores the seed, so it runs once and only the noise is drawn,
    ``_BLOCK`` trials per kernel pass, with ``base`` mixed into the seeds
    once, and the passes' codes joined once, so trials cost linear time. A
    pass's constants are built once per block size, and its bias once per
    probability too. ``h`` must be noisy.
    """
    image = h._apply(value)
    head = _mix(_GOLDEN + base.value, _MASK64)
    blocks = []
    for start in range(0, trials, _BLOCK):
        count = min(_BLOCK, trials - start)
        ones, ramp, mask, *_ = _block(count)
        blocks.append(_flag_codes(h.noise, _mix((head + start) * ones + ramp, mask), count))
    return image, blocks[0] if len(blocks) == 1 else tuple(chain.from_iterable(blocks))


def _flag_codes(noise: CoordinateFlipNoise, seeds: int, count: int) -> tuple[int, ...]:
    """One flag code per trial of ``noise``, for the ``count`` seeds that ``seeds`` packs, in order.

    Trial k's seed is the 64-bit word in 128-bit slot k, and each SplitMix
    step runs on all slots at once: a word times a word stays in its slot,
    and the masks clear what a shift pulls in from the next. With p the
    flip probability, line i flips in trial t when ``unit_draw(TrialSeed(t),
    i) < p``, that is, when the draw's word x has ``x >> 11 < p * 2**53``:
    exactly ``x < cut``, with ``cut = ceil(p * 2**53) << 11 <= 2**64``. So
    each slot adds ``2**64 - cut``, and its bit 64 is set when the line
    keeps its level. Bit j of a trial's code is that flag for the j-th
    listed line, so a line listed twice has two equal bits. The flags of
    64 lines at a time are shifted into the top word of each slot, and the
    top words are unpacked, one per trial.
    """
    ones, _, mask, carries, golden = _block(count)
    bias, heads = _bias(noise.probability, count), _mix(seeds + golden, mask)
    lines, codes = noise.coordinates, (0,) * count
    for first in range(0, len(lines), 64):
        flags = 0
        for j, line in enumerate(lines[first : first + 64]):
            flags |= (_mix(heads + line * ones, mask) + bias & carries) << j
        tops = struct.unpack(f"<{2 * count}Q", flags.to_bytes(16 * count, "little"))[1::2]
        codes = tuple(map(lambda code, top: code | top << first, codes, tops)) if first else tops
    return codes


def _flip(noise: CoordinateFlipNoise, value: Value, code: int) -> Value:
    """``value`` after ``noise`` flips, in order, each listed line whose bit in ``code`` is 0."""
    working = list(value)
    for j, line in enumerate(noise.coordinates):
        if not code >> j & 1:
            working[line] = noise.low if working[line] >= noise.threshold else noise.high
    return tuple(working)


def identity_dynamics(dyn_id: str, space: PhysicalSpace) -> PhysicalDynamics:
    """The do-nothing device update, usable as engineering dynamics."""
    if isinstance(space, RealVectorSpace):
        return PhysicalDynamics(dyn_id, space, CoordinateUpdateRule(()))
    entries = {v: v for v in enumerate_values(space)}
    return PhysicalDynamics(dyn_id, space, TableRule(entries))
