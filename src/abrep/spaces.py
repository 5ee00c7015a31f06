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
import operator
import sys
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, fields
from functools import cached_property, wraps
from inspect import signature
from types import NoneType, UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

from .errors import DeclarationError, MetricMismatch, NotEnumerable, OutOfDomain, _SHOWN_DEPTH, _shown

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
    holds what its annotation names, stored as ``_check`` stores it; and the
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
                    raise _field_error(f"{kind} {_shown(ident)}", name, "expected a string identifier")
                owner = f"{kind} {ident!r}"
            if checks is None:
                hints = get_type_hints(cls, localns=vars(sys.modules[__package__]))
                checks = _rules(hints, [f.name for f in fields(cls) if f.init])
            for field, kinds, each, plain in checks:
                value = getattr(self, field)
                if not isinstance(value, plain):
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


#: The scalar annotations the rule covers, and the reason that rejects a value for each.
_SCALARS = {
    float: "expected a finite number", int: "expected an integer", bool: "expected true or false",
}


def _rule(hint, scalars: tuple = ()) -> tuple[tuple, tuple | None, tuple] | None:
    """What a value annotated ``hint`` must be, ``(kinds, each, plain)``; None if the rule skips it.

    The rule covers ``abrep`` classes, ``Mapping``, ``float``, ``int``,
    ``bool``, ``scalars``, None, ``Literal`` sets of names, unions of them, and
    ``tuple[X, ...]`` of those: a tuple or a list, whose items are each one of
    ``each``. ``plain`` is ``kinds`` when an instance of one is stored as it is, else ``()``.
    """
    kinds, each = [], None
    for member in get_args(hint) if get_origin(hint) in (Union, UnionType) else (hint,):
        origin, args = get_origin(member) or member, get_args(member)
        if origin is tuple:
            inner = _rule(args[0], scalars) if args[1:] == (...,) else None
            if inner is None or inner[1] is not None:
                return None
            kinds, each = kinds + [tuple, list], inner[0]
        elif origin is Literal:
            kinds.append(_OneOf("one of", (), {"names": args}))
        elif origin in (NoneType, Mapping, *_SCALARS, *scalars) or (
            isinstance(origin, type) and origin.__module__.startswith(f"{__package__}.")
        ):
            kinds.append(origin)
        else:
            return None
    kinds = tuple(kinds)
    return kinds, each, () if each or not _SCALARS.keys().isdisjoint(kinds) else kinds


class _OneOf(type):
    """A ``Literal`` set of names as a class: its instances are its ``names``."""

    def __instancecheck__(cls, value) -> bool:
        return value in cls.names


def _rules(hints: dict, names: list, scalars: tuple = ()) -> list:
    """``(name, kinds, each, plain)`` for each of ``names`` whose annotation ``_rule`` covers."""
    rules = ((n, _rule(hints.get(n), scalars)) for n in names)
    return [(n, *rule) for n, rule in rules if rule is not None]


def _check(owner: str, field: str, value, kinds: tuple, each: tuple | None):
    """``value`` as stored, a list as a tuple and an int under ``float`` as a float.

    DeclarationError names ``field``, or ``field[i]`` for an item, unless it fits ``_rule``.
    """
    if isinstance(value, (int, float)):
        if not _fits(value, kinds):
            raise _mistyped(owner, field, value, kinds)
        return float(value) if float in kinds else value
    if not isinstance(value, kinds):
        raise _mistyped(owner, field, value, kinds)
    if each is None or value is None:
        return value
    for item in value:  # items that are all class instances are stored as they are
        if isinstance(item, (int, float)) or not isinstance(item, each):
            return tuple(_check(owner, f"{field}[{i}]", v, each, None) for i, v in enumerate(value))
    return tuple(value)


def _fits(number, kinds: tuple) -> bool:
    """Whether an int, float or bool fits ``kinds``: the one place that decides it for a scalar.

    A bool is not a number, and ``float`` takes a number only when a float holds it finite.
    """
    if isinstance(number, bool):
        return bool in kinds
    if float in kinds:
        return abs(number) <= sys.float_info.max  # False for NaN, infinities and huge ints
    return isinstance(number, kinds)


def _mistyped(owner: str, field: str, value, kinds: tuple) -> DeclarationError:
    """The error rejecting ``value`` for ``owner``'s ``field``; it names a space's wrong family."""
    if kinds in ((AbstractSpace,), (PhysicalSpace,)):
        side = "an abstract" if kinds[0] is AbstractSpace else "a physical"
        reason = f"{_shown(getattr(value, 'id', value))} is not {side} space"
        return DeclarationError(f"{owner}: {reason}", field, reason)
    if isinstance(kinds[0], _OneOf):
        return _field_error(owner, field, f"expected one of {', '.join(map(repr, kinds[0].names))}")
    names = ["list"] if list in kinds else [k.__name__ for k in kinds if k is not NoneType]
    return _field_error(owner, field, _SCALARS.get(kinds[0]) or f"expected a {' or '.join(names)}")


def _checked(function):
    """``function``, checking first each argument ``_rule`` covers, with ``str``; or itself if none.

    ``*counters: int`` is checked as a tuple of ints. A state argument is left
    to the function, which raises OutOfDomain for a non-member. Only exports
    are wrapped, so calls inside the package pay nothing.
    """
    params, hints = signature(function).parameters, get_type_hints(function)
    rest = next((p.name for p in params.values() if p.kind is p.VAR_POSITIONAL), None)
    if rest in hints:
        hints[rest] = tuple[hints[rest], ...]
    rules = [
        (list(params).index(name), name, kinds, each)
        for name, kinds, each, _ in _rules(hints, list(params), (str,))
        if not set(kinds) <= {AbstractState, PhysicalState}
    ]
    if not rules:
        return function
    owner = function.__name__

    @wraps(function)
    def checked(*args, **kwargs):
        for i, name, kinds, each in rules:
            if i < len(args) or name == rest:
                _check(owner, name, args[i:] if name == rest else args[i], kinds, each)
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
        if self.width < 1:
            raise _field_error(owner, "width", "must be at least 1")


@_declaration("space")
class IntSpace(AbstractSpace):
    """Integers in the inclusive range [lo, hi]."""

    id: str
    lo: int
    hi: int

    def __post_init__(self, owner):
        if self.lo > self.hi:
            raise DeclarationError(f"{owner}: lo must not exceed hi")


@_declaration("space")
class TupleSpace(AbstractSpace):
    """An ordered product of abstract component spaces."""

    id: str
    components: tuple[AbstractSpace, ...]

    def __post_init__(self, owner):
        _check_components(self, owner)


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
        if not _check(owner, "bounds", self.bounds, (tuple, list), None):
            raise DeclarationError(f"{owner}: vector space needs a dimension")
        bounds = []
        for i, pair in enumerate(self.bounds):
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise _field_error(owner, f"bounds[{i}]", "expected a [lo, hi] pair")
            lo, hi = _check(owner, f"bounds[{i}]", pair, (tuple, list), (float,))
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
        _check_components(self, owner)


Space = Union[AbstractSpace, PhysicalSpace]


def _check_components(space, owner: str) -> None:
    if not space.components:
        raise DeclarationError(f"{owner}: tuple space needs components")
    _check_depth(space, owner, "components", space.components, "tuple spaces")


def _check_depth(decl, owner: str, field: str, parts, noun: str) -> None:
    """Store ``decl``'s depth, 1 plus its deepest part's, where it nests at most ``_SHOWN_DEPTH`` ``noun``."""
    object.__setattr__(decl, "_depth", 1 + max((getattr(p, "_depth", 0) for p in parts), default=0))
    if decl._depth > _SHOWN_DEPTH:
        raise _field_error(owner, field, f"nests more than {_SHOWN_DEPTH} {noun}")


def _check_labels(space, owner: str) -> None:
    labels = tuple(_check(owner, "labels", space.labels, (tuple, list), None))
    if not labels:
        raise DeclarationError(f"{owner}: label set must be non-empty")
    for i, label in enumerate(labels):
        if not isinstance(label, str):
            raise _field_error(owner, f"labels[{i}]", "expected a string label")
    object.__setattr__(space, "labels", labels)
    object.__setattr__(space, "_members", frozenset(labels))  # _labels' membership test
    if len(space._members) != len(labels):
        raise DeclarationError(f"{owner}: duplicate labels")


def _labels(space, value):
    if isinstance(value, str) and value in space._members:
        return value


def _bits(space, value):
    if isinstance(value, str) and len(value) == space.width and not value.strip("01"):
        return value


def _ints(space, value):
    if isinstance(value, int) and not isinstance(value, bool) and space.lo <= value <= space.hi:
        return value


def _vector(space, value):
    if isinstance(value, (tuple, list)) and len(value) == len(space.bounds):
        for v, (lo, hi) in zip(value, space.bounds):
            # Compared before float(v), which overflows on a huge int; bounds are floats.
            number = type(v) is float or isinstance(v, (int, float)) and not isinstance(v, bool)
            if not (number and lo <= v <= hi):
                return None
        return tuple(map(float, value))


def _product(space, value):
    """``value`` itself when it already is canonical element for element, so tables are not copied."""
    if isinstance(value, (tuple, list)) and len(value) == len(space.components):
        parts = [(_SHAPES.get(type(c)) or _canonical(c))(c, v) for c, v in zip(space.components, value)]
        if None not in parts:
            return value if type(value) is tuple and all(map(operator.is_, value, parts)) else tuple(parts)


#: Each space class's membership rule, the one place it is stated: ``(space, value)``
#: to the canonical value, or None for a non-member. An array reads as a tuple.
_SHAPES = {
    LabelSpace: _labels, PhysicalLabelSpace: _labels, BitSpace: _bits, IntSpace: _ints,
    RealVectorSpace: _vector, TupleSpace: _product, PhysicalTupleSpace: _product,
}


def _canonical(space: Space) -> Callable[[Space, object], Value | None]:
    """``space``'s membership rule, to be looked up once per table; a subclass's is its base's."""
    for cls in type(space).__mro__:
        if cls in _SHAPES:
            return _SHAPES[cls]
    raise DeclarationError(f"unknown space type {type(space).__name__}")


def normalize_value(space: Space, value) -> Value:
    """Coerce ``value`` into canonical form for ``space`` or raise OutOfDomain.

    A tuple-space value already in canonical form is returned as it is, not
    copied. A product's error names the first component value that is not a member.
    """
    shape = _SHAPES.get(type(space)) or _canonical(space)
    if (canonical := shape(space, value)) is not None:
        return canonical
    if shape is _product and isinstance(value, (tuple, list)) and len(value) == len(space.components):
        tuple(map(normalize_value, space.components, value))
    raise OutOfDomain(f"value {_shown(value)} is not a member of space {space.id!r}")


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
    ``enumerate_values`` yields, the images of declarations whose tables,
    simulation maps and levels were normalized when declared, and the values
    the document reader has just checked. The public
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
        yield from itertools.product(*map(enumerate_values, space.components))
    else:
        raise NotEnumerable(f"space {space.id!r} is continuous")


def check_total_table(owner: str, entries, keys: Space, values: Space) -> Mapping:
    """Require ``entries`` to map each value of finite ``keys`` into ``values``.

    Returns the table with every image in canonical form: ``entries`` itself
    when its images already are, else a copy with the others normalized.
    ``owner`` labels the declaration in the DeclarationError raised otherwise.
    """
    try:
        size = cardinality(keys)
    except NotEnumerable:
        raise DeclarationError(f"{owner}: a table needs a finite key space") from None
    if len(entries) != size:  # counted before any key is enumerated
        raise DeclarationError(f"{owner}: {len(entries)} images for the {_shown(size)} keys of {keys.id!r}")
    changed, member = {}, _canonical(values)
    for value in enumerate_values(keys):
        if value not in entries:
            raise DeclarationError(f"{owner}: no image for {_shown(value)}")
        image = entries[value]
        if (canonical := member(values, image)) is None:
            raise DeclarationError(f"{owner}: image of {_shown(value)} leaves {values.id!r}")
        if canonical is not image:
            changed[value] = canonical
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


#: A distance on states, named by kind. ``discrete`` is 0 on equal states and 1
#: otherwise and applies anywhere; ``hamming`` counts differing bits of
#: equal-width bitstrings; ``absolute-difference`` is |a - b| on integers;
#: ``max-coordinate`` takes the maximum over coordinates of a vector or tuple,
#: recursing with the natural leaf metric (hamming on bits, absolute difference
#: on integers, discrete on labels).
Metric = Literal["discrete", "hamming", "absolute-difference", "max-coordinate"]
METRICS = {kind: kind for kind in get_args(Metric)}
DISCRETE, MAX_COORDINATE = "discrete", "max-coordinate"  # earlier constants, which perfbench imports


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
    return _metric(metric, a.space)(a.value, b.value)


def _metric(kind: str | None, space: Space) -> Callable[[Value, Value], float]:
    """The distance ``kind`` measures on ``space``'s values, decided once; None: the leaf metric."""
    if kind == "discrete" or kind is None and isinstance(space, (LabelSpace, PhysicalLabelSpace)):
        return lambda a, b: 0.0 if a == b else 1.0
    if kind in ("hamming", None) and isinstance(space, BitSpace):
        return lambda a, b: float(sum(map(operator.ne, a, b)))
    if kind in ("absolute-difference", None) and isinstance(space, IntSpace):
        return lambda a, b: float(abs(a - b))
    if kind in ("max-coordinate", None) and isinstance(space, RealVectorSpace):
        return lambda a, b: max(abs(x - y) for x, y in zip(a, b))
    if kind in ("max-coordinate", None) and isinstance(space, (TupleSpace, PhysicalTupleSpace)):
        measures = [_metric(None, c) for c in space.components]
        return lambda a, b: max(m(x, y) for m, x, y in zip(measures, a, b))
    raise MetricMismatch(f"{kind} does not apply to space {space.id!r}")
