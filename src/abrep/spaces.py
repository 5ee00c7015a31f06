"""State spaces, states, and the metrics used by commutation checks.

Abstract spaces hold the values programs compute over; physical spaces hold
simulated device configurations. The two families never mix, and the
constructors of states, tuple spaces, dynamics and relations reject a space of
the wrong family: verification code crosses between them only through
representation relations, so physical values stay opaque to program-level
code.

All types here are immutable and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, fields
from functools import cached_property, wraps
from inspect import signature
from types import NoneType, UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .errors import DeclarationError, MetricMismatch, NotEnumerable, OutOfDomain

#: Canonical state values: labels and bitstrings are str, integers int,
#: real vectors tuples of float, tuple-space values tuples of member values.
Value = Union[str, int, float, tuple]


class AbstractSpace:
    """Marker base for spaces of abstract (program-level) values."""


class PhysicalSpace:
    """Marker base for spaces of simulated device configurations."""


def _field_error(owner: str, field: str, reason: str) -> DeclarationError:
    """The error rejecting ``owner``'s ``field``: ``reason`` says what was expected."""
    return DeclarationError(f"{owner}: {field}: {reason}", field, reason)


def _declaration(kind: str, name: str | None = "id"):
    """A class decorator: the class as a frozen dataclass of declarations of ``kind``.

    Construction checks, in order: that the identifier field ``name`` (None
    for kinds without one) holds a string; that each field ``_rule`` covers
    holds what its annotation names, a list stored as a tuple; and the
    class's own ``__post_init__(self, owner)``, where ``owner`` names the
    declaration, as in ``space 'bits'``. Annotations are read on first use.
    Copies and pickles leave out cached properties, which are rebuilt on first use.

    A space hashes by its id alone: states hash their space at every lookup,
    and a string caches its own hash. Equal spaces have equal ids.
    """

    def declare(cls: type) -> type:
        own, checks = cls.__dict__.get("__post_init__"), None

        def __post_init__(self):
            nonlocal checks
            owner = kind
            if name is not None:
                ident = getattr(self, name)
                if not isinstance(ident, str):
                    raise _field_error(f"{kind} {ident!r}", name, "expected a string identifier")
                owner = f"{kind} {ident!r}"
            if checks is None:
                hints = get_type_hints(cls, localns=vars(sys.modules[__package__]))
                checks = _rules(hints, [f.name for f in fields(cls) if f.init])
            for field, kinds, each in checks:
                value = getattr(self, field)
                if each is None and isinstance(value, kinds):
                    continue
                checked = _check(owner, field, value, kinds, each)
                if checked is not value:
                    object.__setattr__(self, field, checked)
            if own is not None:
                own(self, owner)

        cls.__post_init__ = __post_init__
        cached = {n for n, v in vars(cls).items() if isinstance(v, cached_property)}  # _apply
        cls.__getstate__ = lambda self: {k: v for k, v in vars(self).items() if k not in cached}
        cls = dataclass(frozen=True)(cls)
        if issubclass(cls, (AbstractSpace, PhysicalSpace)):
            cls.__hash__ = lambda self: hash(self.id)
        return cls

    return declare


def _rule(hint, scalars: tuple = ()) -> tuple[tuple, tuple | None] | None:
    """What a value annotated ``hint`` must be, ``(kinds, each)``; None if the rule skips it.

    The rule covers ``abrep`` classes, ``Mapping``, ``scalars``, None, unions
    of them, and ``tuple[X, ...]`` of those: a tuple or a list, whose items
    are each one of ``each``.
    """
    kinds, each = [], None
    for member in get_args(hint) if get_origin(hint) in (Union, UnionType) else (hint,):
        origin, args = get_origin(member) or member, get_args(member)
        if origin is tuple:
            inner = _rule(args[0], scalars) if args[1:] == (...,) else None
            if inner is None or inner[1] is not None:
                return None
            kinds, each = kinds + [tuple, list], inner[0]
        elif origin in (NoneType, Mapping, *scalars) or (
            isinstance(origin, type) and origin.__module__.startswith(f"{__package__}.")
        ):
            kinds.append(origin)
        else:
            return None
    return tuple(kinds), each


def _rules(hints: dict, names: list, scalars: tuple = ()) -> list:
    """``(name, kinds, each)`` for each of ``names`` whose annotation ``_rule`` covers."""
    rules = ((n, _rule(hints.get(n), scalars)) for n in names)
    return [(n, *rule) for n, rule in rules if rule is not None]


def _check(owner: str, field: str, value, kinds: tuple, each: tuple | None):
    """``value``, a list as a tuple; DeclarationError naming ``field`` unless it fits ``_rule``."""
    if not isinstance(value, kinds):
        raise _mistyped(owner, field, value, kinds)
    if each is None or value is None:
        return value
    for i, item in enumerate(value):
        if not isinstance(item, each):
            raise _mistyped(owner, f"{field}[{i}]", item, each)
    return tuple(value)


def _mistyped(owner: str, field: str, value, kinds: tuple) -> DeclarationError:
    """The error rejecting ``value`` for ``owner``'s ``field``; it names a space's wrong family."""
    if kinds in ((AbstractSpace,), (PhysicalSpace,)):
        side = "an abstract" if kinds[0] is AbstractSpace else "a physical"
        reason = f"{_shown(getattr(value, 'id', value))} is not {side} space"
        return DeclarationError(f"{owner}: {reason}", field, reason)
    names = ["list"] if list in kinds else [k.__name__ for k in kinds if k is not NoneType]
    return _field_error(owner, field, f"expected a {' or '.join(names)}")


def _checked(function):
    """``function``, checking first each argument ``_rule`` covers, with ``str``; or itself if none.

    A state argument is left to the function, which raises OutOfDomain for a
    non-member. Only exports are wrapped, so calls inside the package pay nothing.
    """
    params = list(signature(function).parameters)
    rules = [
        (params.index(name), name, kinds, each)
        for name, kinds, each in _rules(get_type_hints(function), params, (str,))
        if not set(kinds) <= {AbstractState, PhysicalState}
    ]
    if not rules:
        return function
    owner = function.__name__

    @wraps(function)
    def checked(*args, **kwargs):
        for i, name, kinds, each in rules:
            if i < len(args):
                _check(owner, name, args[i], kinds, each)
            elif name in kwargs:
                _check(owner, name, kwargs[name], kinds, each)
        return function(*args, **kwargs)

    return checked


@_declaration("space")
class LabelSpace(AbstractSpace):
    """A finite set of named values, enumerated in declaration order."""

    id: str
    labels: tuple[str, ...]

    def __post_init__(self, owner):
        _check_labels(self, owner)


@_declaration("space")
class BitSpace(AbstractSpace):
    """Bitstrings of a fixed width, written most significant bit first."""

    id: str
    width: int

    def __post_init__(self, owner):
        if _integer(owner, "width", self.width) < 1:
            raise _field_error(owner, "width", "must be at least 1")


@_declaration("space")
class IntSpace(AbstractSpace):
    """Integers in the inclusive range [lo, hi]."""

    id: str
    lo: int
    hi: int

    def __post_init__(self, owner):
        if _integer(owner, "lo", self.lo) > _integer(owner, "hi", self.hi):
            raise DeclarationError(f"{owner}: lo must not exceed hi")


@_declaration("space")
class TupleSpace(AbstractSpace):
    """An ordered product of abstract component spaces."""

    id: str
    components: tuple[AbstractSpace, ...]

    def __post_init__(self, owner):
        if not self.components:
            raise DeclarationError(f"{owner}: tuple space needs components")


@_declaration("space")
class PhysicalLabelSpace(PhysicalSpace):
    """A finite set of named device configurations."""

    id: str
    labels: tuple[str, ...]

    def __post_init__(self, owner):
        _check_labels(self, owner)


@_declaration("space")
class RealVectorSpace(PhysicalSpace):
    """Real-valued device coordinates with inclusive per-coordinate bounds.

    Unbounded (and NaN) coordinates are rejected up front so that
    instantiation search stays decidable. Bounds are stored as float pairs.
    """

    id: str
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self, owner):
        if not _items(owner, "bounds", self.bounds):
            raise DeclarationError(f"{owner}: vector space needs a dimension")
        bounds = []
        for i, pair in enumerate(self.bounds):
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise _field_error(owner, f"bounds[{i}]", "expected a [lo, hi] pair")
            lo, hi = (_finite(owner, f"bounds[{i}][{j}]", v) for j, v in enumerate(pair))
            if lo > hi:
                raise DeclarationError(f"{owner}: coordinate {i} bounds must have lo <= hi")
            bounds.append((lo, hi))
        object.__setattr__(self, "bounds", tuple(bounds))

    @property
    def dimension(self) -> int:
        return len(self.bounds)


@_declaration("space")
class PhysicalTupleSpace(PhysicalSpace):
    """An ordered product of physical component spaces."""

    id: str
    components: tuple[PhysicalSpace, ...]

    def __post_init__(self, owner):
        if not self.components:
            raise DeclarationError(f"{owner}: tuple space needs components")


Space = Union[AbstractSpace, PhysicalSpace]


def _finite(owner: str, field: str, value) -> float:
    """``value`` as a float; DeclarationError unless it is a finite int or float.

    Every numeric field of a declaration goes through here, so a bool, a
    string or a NaN never reaches a comparison or a state, and ``1`` and
    ``1.0`` declare the same thing.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            pass
        else:
            if math.isfinite(value):
                return value
    raise _field_error(owner, field, "expected a finite number")


def _integer(owner: str, field: str, value) -> int:
    """``value`` itself; DeclarationError unless it is an int (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _field_error(owner, field, "expected an integer")
    return value


def _items(owner: str, field: str, value, each=None) -> tuple:
    """``value`` as a tuple; DeclarationError unless it is a list or a tuple.

    ``each``, when given, checks element i as ``each(owner, "field[i]",
    element)``, and the tuple holds what it returns.
    """
    if not isinstance(value, (tuple, list)):
        raise _field_error(owner, field, "expected a list")
    if each is None:
        return tuple(value)
    return tuple(each(owner, f"{field}[{i}]", v) for i, v in enumerate(value))


def _check_labels(space, owner: str) -> None:
    labels = _items(owner, "labels", space.labels)
    if not labels:
        raise DeclarationError(f"{owner}: label set must be non-empty")
    for i, label in enumerate(labels):
        if not isinstance(label, str):
            raise _field_error(owner, f"labels[{i}]", "expected a string label")
    if len(set(labels)) != len(labels):
        raise DeclarationError(f"{owner}: duplicate labels")
    object.__setattr__(space, "labels", labels)


def normalize_value(space: Space, value) -> Value:
    """Coerce ``value`` into canonical form for ``space`` or raise OutOfDomain.

    A tuple-space value already in canonical form is returned as it is, not
    copied.
    """
    if isinstance(space, (LabelSpace, PhysicalLabelSpace)):
        if isinstance(value, str) and value in space.labels:
            return value
    elif isinstance(space, BitSpace):
        if (
            isinstance(value, str)
            and len(value) == space.width
            and all(c in "01" for c in value)
        ):
            return value
    elif isinstance(space, IntSpace):
        if isinstance(value, int) and not isinstance(value, bool):
            if space.lo <= value <= space.hi:
                return value
    elif isinstance(space, RealVectorSpace):
        if isinstance(value, (tuple, list)) and len(value) == space.dimension:
            coords = []
            for v, (lo, hi) in zip(value, space.bounds):
                # Compared before float(v), which overflows on a huge int; bounds are floats.
                if isinstance(v, bool) or not isinstance(v, (int, float)) or not lo <= v <= hi:
                    break
                coords.append(float(v))
            else:
                return tuple(coords)
    elif isinstance(space, (TupleSpace, PhysicalTupleSpace)):
        if isinstance(value, (tuple, list)) and len(value) == len(space.components):
            return _reuse(
                value,
                tuple(normalize_value(comp, v) for comp, v in zip(space.components, value)),
            )
    else:
        raise DeclarationError(f"unknown space type {type(space).__name__}")
    raise OutOfDomain(f"value {_shown(value)} is not a member of space {space.id!r}")


def _shown(value) -> str:
    """``repr(value)``, or a stand-in when an int in it has too many digits to print."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too large to show>"


def _reuse(value, canonical: tuple) -> tuple:
    """``value`` itself when it already is ``canonical`` element for element.

    So a table whose images are canonical is kept as declared, not copied.
    """
    if type(value) is tuple and all(map(operator.is_, value, canonical)):
        return value
    return canonical


@dataclass(frozen=True)
class AbstractState:
    """A value tagged with the abstract space it belongs to."""

    space: AbstractSpace
    value: Value

    def __post_init__(self):
        _check("abstract state", "space", self.space, (AbstractSpace,), None)
        object.__setattr__(self, "value", normalize_value(self.space, self.value))


@dataclass(frozen=True)
class PhysicalState:
    """A simulated device configuration tagged with its space."""

    space: PhysicalSpace
    value: Value

    def __post_init__(self):
        _check("physical state", "space", self.space, (PhysicalSpace,), None)
        object.__setattr__(self, "value", normalize_value(self.space, self.value))


State = Union[AbstractState, PhysicalState]


def _trusted(cls: type, space: Space, value: Value) -> State:
    """A ``cls`` state of ``value``, built without normalizing it.

    Only for values already canonical in ``space``: the values
    ``enumerate_values`` yields, and the images of declarations whose tables,
    simulation maps and levels were normalized when declared. The public
    constructors, the API boundary, always normalize.
    """
    state = object.__new__(cls)
    object.__setattr__(state, "space", space)
    object.__setattr__(state, "value", value)
    return state


def contains(space: Space, state: State) -> bool:
    """True iff ``state`` is a state of ``space``.

    A state is a member exactly when its space is ``space``: its constructor
    already normalized the value against that space. Anything else, a raw
    value included, is not; ``normalize_value`` tests raw values.
    """
    return isinstance(state, (AbstractState, PhysicalState)) and state.space == space


def is_finite(space: Space) -> bool:
    if isinstance(space, RealVectorSpace):
        return False
    if isinstance(space, (TupleSpace, PhysicalTupleSpace)):
        return all(is_finite(c) for c in space.components)
    return True


def cardinality(space: Space) -> int:
    """Analytic size of a finite space."""
    if isinstance(space, (LabelSpace, PhysicalLabelSpace)):
        return len(space.labels)
    if isinstance(space, BitSpace):
        return 2 ** space.width
    if isinstance(space, IntSpace):
        return space.hi - space.lo + 1
    if isinstance(space, (TupleSpace, PhysicalTupleSpace)):
        n = 1
        for comp in space.components:
            n *= cardinality(comp)
        return n
    raise NotEnumerable(f"space {space.id!r} is continuous")


def enumerate_values(space: Space) -> Iterator[Value]:
    """Yield every value of a finite space once, in canonical order.

    Labels follow declaration order, bitstrings are lexicographic, integers
    ascend, and tuple spaces run in row-major order. The order is a pure
    function of the declaration, so repeated calls are identical.
    """
    if isinstance(space, (LabelSpace, PhysicalLabelSpace)):
        yield from space.labels
    elif isinstance(space, BitSpace):
        for i in range(2 ** space.width):
            yield format(i, f"0{space.width}b")
    elif isinstance(space, IntSpace):
        yield from range(space.lo, space.hi + 1)
    elif isinstance(space, (TupleSpace, PhysicalTupleSpace)):
        pools = [list(enumerate_values(c)) for c in space.components]
        for combo in itertools.product(*pools):
            yield combo
    else:
        raise NotEnumerable(f"space {space.id!r} is continuous")


def check_total_table(owner: str, entries, keys: Space, values: Space) -> Mapping:
    """Require ``entries`` to map each value of finite ``keys`` into ``values``.

    Returns the table with every image in canonical form: ``entries`` itself
    when its images already are, else a copy with the others normalized.
    ``owner`` labels the declaration in the DeclarationError raised otherwise.
    """
    if not is_finite(keys):
        raise DeclarationError(f"{owner}: a table needs a finite key space")
    seen = 0
    changed = {}
    for value in enumerate_values(keys):
        if value not in entries:
            raise DeclarationError(f"{owner}: no image for {value!r}")
        image = entries[value]
        try:
            canonical = normalize_value(values, image)
        except OutOfDomain:
            raise DeclarationError(
                f"{owner}: image of {value!r} leaves {values.id!r}"
            ) from None
        if canonical is not image:
            changed[value] = canonical
        seen += 1
    if len(entries) != seen:
        raise DeclarationError(f"{owner}: extraneous table keys")
    return {**entries, **changed} if changed else entries


def _register_widths(space: AbstractSpace) -> tuple[int, ...] | None:
    """The register widths of a bit space, or of a tuple of them; None for any other space."""
    if isinstance(space, BitSpace):
        return (space.width,)
    if isinstance(space, TupleSpace) and all(isinstance(c, BitSpace) for c in space.components):
        return tuple(c.width for c in space.components)
    return None


def enumerate_states(space: Space) -> list[State]:
    """All states of a finite space, in the canonical enumeration order."""
    make = AbstractState if isinstance(space, AbstractSpace) else PhysicalState
    return [_trusted(make, space, v) for v in enumerate_values(space)]


@dataclass(frozen=True)
class Metric:
    """A distance on states, named by kind.

    ``discrete`` is 0 on equal states and 1 otherwise and applies anywhere;
    ``hamming`` counts differing bits of equal-width bitstrings;
    ``absolute-difference`` is |a - b| on integers; ``max-coordinate`` takes
    the maximum over coordinates of a vector or tuple, recursing with the
    natural leaf metric (hamming on bits, absolute difference on integers,
    discrete on labels).
    """

    kind: str

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise DeclarationError(f"unknown metric kind {self.kind!r}")


METRIC_KINDS = ("discrete", "hamming", "absolute-difference", "max-coordinate")
METRICS = {kind: Metric(kind) for kind in METRIC_KINDS}
DISCRETE, HAMMING, ABSOLUTE_DIFFERENCE, MAX_COORDINATE = METRICS.values()


def distance(metric: Metric, a: State, b: State) -> float:
    """Metric distance between two states of the same space.

    Comparing states from different spaces is forbidden rather than guessed
    at; it raises MetricMismatch, as does applying a metric to a space kind
    it does not measure. A raw value is not a state, and raises OutOfDomain.
    """
    if not all(isinstance(s, (AbstractState, PhysicalState)) for s in (a, b)):
        raise OutOfDomain("distance compares states, not raw values")
    if a.space != b.space:
        raise MetricMismatch(
            f"cannot compare states from spaces {a.space.id!r} and {b.space.id!r}"
        )
    return _distance_value(metric.kind, a.space, a.value, b.value)


def _distance_value(kind: str, space: Space, a: Value, b: Value) -> float:
    if kind == "discrete":
        return 0.0 if a == b else 1.0
    if kind == "hamming":
        if not isinstance(space, BitSpace):
            raise MetricMismatch(f"hamming does not apply to space {space.id!r}")
        return float(sum(1 for x, y in zip(a, b) if x != y))
    if kind == "absolute-difference":
        if not isinstance(space, IntSpace):
            raise MetricMismatch(
                f"absolute-difference does not apply to space {space.id!r}"
            )
        return float(abs(a - b))
    # Every kind is checked where it is declared, so the last one is max-coordinate.
    if isinstance(space, RealVectorSpace):
        return max(abs(x - y) for x, y in zip(a, b))
    if isinstance(space, (TupleSpace, PhysicalTupleSpace)):
        return max(
            _distance_value(_leaf_kind(comp), comp, x, y)
            for comp, x, y in zip(space.components, a, b)
        )
    raise MetricMismatch(f"max-coordinate does not apply to space {space.id!r}")


def _leaf_kind(space: Space) -> str:
    if isinstance(space, BitSpace):
        return "hamming"
    if isinstance(space, IntSpace):
        return "absolute-difference"
    if isinstance(space, (TupleSpace, PhysicalTupleSpace, RealVectorSpace)):
        return "max-coordinate"
    return "discrete"
