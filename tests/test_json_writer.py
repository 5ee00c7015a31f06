"""The JSON writer both document emission and reports use: ``document._json_text``.

It must write exactly what ``json.dumps(value, indent=2, sort_keys=...)``
writes, plus a final newline, while handing each container of scalars to
CPython's C encoder in one call. ``json.dumps`` is the reference here.
"""

import json
import math
import sys
from collections import OrderedDict, namedtuple
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from abrep import DeclarationError, build_refinement_stack, document, emit_scenario

_json_text = document._json_text
_DIGITS = sys.get_int_max_str_digits()


class Level(IntEnum):
    LOW = 0
    HIGH = 1


class Name(str):
    pass


Pair = namedtuple("Pair", "left right")

_TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", "a\x00\x1f\x7fb", "é", "\U0001f600", '\\"\n\t'])
_INTS = st.integers() | st.sampled_from([-1, 10**_DIGITS - 1, 1 - 10**_DIGITS])  # the longest ints it writes
_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e308, math.nan, math.inf, -math.inf])
# Scalars whose type is a subclass: their container takes the Python walk.
_SUBCLASSED = st.sampled_from(list(Level)) | st.builds(Name, _TEXT)
_SCALARS = st.none() | st.booleans() | _INTS | _FLOATS | _TEXT | _SUBCLASSED


def _container(kind, scalars: list, containers: list, keys: list):
    """A ``kind`` container of ``scalars`` with ``containers`` among them; a dict pairs its items with ``keys``."""
    items = scalars[:1] + containers + scalars[1:]
    if kind is Pair:
        return Pair(*(items + [None, None])[:2])
    return kind(zip(keys, items)) if kind in (dict, OrderedDict) else kind(items)


def _values(keys, depth: int = 3):
    """A scalar, or containers nested up to ``depth`` levels whose dicts have keys drawn from ``keys``."""
    kinds, inner = st.sampled_from([list, tuple, dict, OrderedDict, Pair]), st.just([])
    for _ in range(depth):
        containers = st.builds(_container, kinds, st.lists(_SCALARS, max_size=3), inner, st.lists(keys, max_size=5))
        inner = st.lists(containers, max_size=1)
    return _SCALARS | containers


# Sorting compares keys, so only string keys are sorted; unsorted keys may be any scalar json accepts.
_SORTED = st.tuples(_values(_TEXT), st.just(True))
_UNSORTED = st.tuples(_values(_TEXT | _INTS | _FLOATS | st.booleans() | st.none() | _SUBCLASSED), st.just(False))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_SORTED | _UNSORTED)
def test_the_writer_writes_what_json_dumps_writes(case):
    value, sort_keys = case
    assert _json_text(value, sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys) + "\n"


@pytest.mark.parametrize("value", [[1, 10**_DIGITS], [[], 10**_DIGITS], {10**_DIGITS: 1}, {10**_DIGITS: []}])
def test_an_int_past_the_digit_limit_is_a_declaration_error(value):
    """As an item or a key, in a container of scalars (the C encoder's) or of containers (the Python walk's)."""
    with pytest.raises(DeclarationError, match="^an integer is too large to write: Exceeds the limit"):
        _json_text(value)


@pytest.mark.parametrize("value", [{(1, 2): 1}, {(1, 2): []}, [object()], [[], object()]])
def test_a_value_json_cannot_write_raises_what_json_dumps_raises(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as written:
        _json_text(value)
    assert str(written.value) == str(expected.value)


def _is_container(value) -> bool:
    return isinstance(value, (dict, list, tuple))


def _items(container) -> list:
    return list(container.values() if isinstance(container, dict) else container)


def _containers(value):
    """Every container in ``value``, ``value`` included."""
    if _is_container(value):
        yield value
        for item in _items(value):
            yield from _containers(item)


def test_the_c_encoder_writes_each_container_of_scalars_and_python_walks_none(monkeypatch):
    """A count gate: the Python walk iterates only containers of containers."""
    encoded, walked = [], []
    make_encoder, walk = document.c_make_encoder, document._walk

    def counted_encoder(*args):
        encode = make_encoder(*args)

        def counted(value, level):
            encoded.append(value)
            return encode(value, level)

        return counted

    def counted_walk(value, *args):
        walked.append(value)
        return walk(value, *args)

    monkeypatch.setattr(document, "c_make_encoder", counted_encoder)
    monkeypatch.setattr(document, "_walk", counted_walk)
    document._level.cache_clear()  # so that each level makes its encoder again, counted
    try:
        text = emit_scenario(build_refinement_stack())
    finally:
        document._level.cache_clear()
    assert len(text) > 100_000

    def of_scalars(container) -> bool:
        return not any(map(_is_container, _items(container)))

    written = list(_containers(json.loads(text)))
    containers = [value for value in encoded if _is_container(value)]
    assert all(map(of_scalars, containers))
    assert len(containers) == sum(map(of_scalars, written)) > 900
    assert not any(map(of_scalars, walked))
    assert len(walked) == len(written) - len(containers)
