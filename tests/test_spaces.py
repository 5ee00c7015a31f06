import dataclasses
import itertools
import math
import re
import sys
from functools import partial

import pytest
from hypothesis import given, strategies as st

import abrep
from abrep import (
    AbstractState,
    BitSpace,
    DISCRETE,
    IntSpace,
    LabelSpace,
    MAX_COORDINATE,
    MetricMismatch,
    NotEnumerable,
    OutOfDomain,
    PhysicalLabelSpace,
    PhysicalState,
    PhysicalTupleSpace,
    RealVectorSpace,
    TrialSeed,
    TupleSpace,
    build_voltage_adder,
    cardinality,
    contains,
    distance,
    enumerate_states,
    enumerate_values,
    evolve_abstract,
    evolve_physical,
    instantiate,
    represent,
)
from abrep.spaces import normalize_value
from abrep.errors import DeclarationError

BITS2 = BitSpace("b2", 2)
UPDOWN = LabelSpace("switch", ("up", "down"))
SMALL_INT = IntSpace("n", 0, 5)
PAIR = TupleSpace("pair", (BITS2, SMALL_INT))
VOLTS = RealVectorSpace("v3", ((0.0, 5.0),) * 3)


def test_contains_bitstring_membership():
    assert contains(BITS2, AbstractState(BITS2, "01"))
    for raw in ("01", "011", "0x"):  # raw values are not states
        assert not contains(BITS2, raw)
    assert normalize_value(BITS2, "01") == "01"
    with pytest.raises(OutOfDomain):
        normalize_value(BITS2, "011")


def test_contains_label_lookup():
    assert contains(UPDOWN, AbstractState(UPDOWN, "up"))
    assert not contains(UPDOWN, "up")
    with pytest.raises(OutOfDomain):
        AbstractState(UPDOWN, "sideways")


_ADDER = build_voltage_adder().theory("adder")
_ADD = _ADDER.predictions[0]


@pytest.mark.parametrize(
    "call",
    [
        lambda: represent(_ADDER.representation, (5.0,) * 7),
        lambda: instantiate(_ADDER, ("01", "10", "000")),
        lambda: evolve_abstract(_ADD.abstract, ("01", "10", "000")),
        lambda: evolve_physical(_ADD.physical, (0.0,) * 7, TrialSeed(0)),
    ],
    ids=["represent", "instantiate", "evolve_abstract", "evolve_physical"],
)
def test_primitives_reject_raw_values(call):
    with pytest.raises(OutOfDomain):
        call()


@pytest.mark.parametrize(
    "build",
    [
        lambda: BitSpace("x", "2"),
        lambda: BitSpace("x", True),
        lambda: IntSpace("n", 0, "5"),
        lambda: IntSpace("n", 0.0, 5),
        lambda: LabelSpace("l", [["a"]]),
        lambda: LabelSpace("l", "ab"),
        lambda: PhysicalLabelSpace("l", ("a", 1)),
        lambda: TupleSpace("t", BITS2),
        lambda: RealVectorSpace("v", 3),
        lambda: TrialSeed("1"),
    ],
    ids=[
        "str-width", "bool-width", "str-hi", "float-lo", "list-label", "str-labels",
        "int-label", "bare-component", "int-bounds", "str-seed",
    ],
)
def test_constructors_type_check_their_fields(build):
    with pytest.raises(DeclarationError):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RealVectorSpace("v", ()), "space 'v': vector space needs a dimension"),
        (lambda: TupleSpace("t", ()), "space 't': tuple space needs components"),
        (lambda: PhysicalTupleSpace("t", []), "space 't': tuple space needs components"),
    ],
    ids=["vector", "tuple", "physical-tuple"],
)
def test_empty_spaces_name_the_space(build, message):
    with pytest.raises(DeclarationError, match=re.escape(message)):
        build()


def test_contains_checks_space_reference():
    other = BitSpace("b3", 3)
    state = AbstractState(other, "011")
    assert not contains(BITS2, state)
    assert contains(other, state)


def test_state_construction_rejects_non_members():
    with pytest.raises(OutOfDomain):
        AbstractState(BITS2, "011")
    with pytest.raises(OutOfDomain):
        PhysicalState(VOLTS, (6.0, 0.0, 0.0))
    with pytest.raises(OutOfDomain):
        AbstractState(SMALL_INT, True)


def test_huge_integers_are_out_of_domain_and_ordinary_messages_keep_their_bytes():
    """An int too large for a float, or past the digit limit of ``repr``, is just a non-member."""
    line = RealVectorSpace("v", ((0.0, 5.0),))
    with pytest.raises(OutOfDomain, match=r"^value \(1000000000000000000000\d*,\) is not a member"):
        PhysicalState(line, (10**400,))
    with pytest.raises(OutOfDomain, match=r"^value <tuple too large to show> is not a member of space 'v'$"):
        PhysicalState(line, (10**5000,))
    with pytest.raises(OutOfDomain, match=r"^value <int too large to show> is not a member of space 'i'$"):
        AbstractState(IntSpace("i", 0, 10), 10**5000)
    with pytest.raises(OutOfDomain) as ordinary:
        PhysicalState(line, (6,))
    assert str(ordinary.value) == "value (6,) is not a member of space 'v'"
    assert PhysicalState(line, (5,)).value == (5.0,)


def _one_seed_theory(n):
    """A theory reading its one configuration as 0 in ``IntSpace("n", 0, n)``, and preparing only it."""
    device = PhysicalLabelSpace("p", ("lo",))
    read = abrep.RepresentationRelation("r", device, IntSpace("n", 0, n), abrep.LookupRule({"lo": 0}))
    seeds = (PhysicalState(device, "lo"),)
    procedure = abrep.InstantiationProcedure(seeds, abrep.identity_dynamics("e", device))
    return abrep.Theory("t", read, (), (), procedure)


def _shows_a_user_int():
    """Calls whose error message shows an int ``n`` the caller gave, and that message for n = 7."""
    adder = build_voltage_adder()
    theory = adder.theory("adder")
    lines = RealVectorSpace("v", ((0.0, 5.0), (0.0, 5.0)))

    def device(*updates, noise=None):
        return abrep.PhysicalDynamics("d", lines, abrep.CoordinateUpdateRule(updates), noise)

    return {
        "prediction": (theory.prediction, "theory 'adder': unknown identifier '7'"),
        "bundle-theory": (adder.theory, "bundle theories: unknown identifier '7'"),
        "flip-line": (
            lambda n: device(noise=abrep.CoordinateFlipNoise(0.5, (n,), 2.5, 0.0, 5.0)),
            "dynamics 'd': line 7 out of range",
        ),
        "constant-line": (
            lambda n: device(abrep.ConstantUpdate((n,), (1.0,))), "dynamics 'd': line 7 out of range"
        ),
        "sum-line": (
            lambda n: device(abrep.BinarySumUpdate((n,), (0,), (1,), 2.5, 0.0, 5.0)),
            "dynamics 'd': line 7 out of range",
        ),
        "table-size": (
            lambda n: abrep.AbstractDynamics("d", IntSpace("s", 1, n), abrep.TableRule({})),
            "dynamics 'd': 0 images for the 7 keys of 's'",
        ),
        "table-key": (
            lambda n: abrep.AbstractDynamics("d", IntSpace("one", n, n), abrep.TableRule({0: n})),
            "dynamics 'd': no image for 7",
        ),
        "table-image": (
            lambda n: abrep.AbstractDynamics("d", IntSpace("one", n, n), abrep.TableRule({n: 0})),
            "dynamics 'd': image of 7 leaves 'one'",
        ),
        "unprepared": (
            lambda n: instantiate(_one_seed_theory(n), AbstractState(IntSpace("n", 0, n), n)),
            "theory 't': no seed prepares 7",
        ),
        "identifier": (lambda n: LabelSpace(n, ("a",)), "space 7: id: expected a string identifier"),
    }


@pytest.mark.parametrize("call", list(_shows_a_user_int()))
def test_a_message_shows_an_int_past_the_digit_limit_by_a_stand_in(call):
    """No int a caller gives ends in the digit limit's ValueError; ordinary messages keep their bytes."""
    function, ordinary = _shows_a_user_int()[call]
    with pytest.raises(abrep.ModelError) as err:
        function(7)
    assert str(err.value) == ordinary
    with pytest.raises(abrep.ModelError) as err:
        function(10**5000)
    assert str(err.value) == ordinary.replace("7", "<int too large to show>", 1)


def test_a_message_shows_a_value_nested_past_the_recursion_limit_by_a_stand_in():
    deep = ()
    for _ in range(3 * sys.getrecursionlimit()):
        deep = (deep,)
    with pytest.raises(OutOfDomain, match="^value <tuple too large to show> is not a member"):
        AbstractState(BitSpace("b", 2), deep)
    with pytest.raises(DeclarationError, match="^space <tuple too large to show>: id: expected"):
        BitSpace(deep, 2)


def test_a_deep_compute_input_gives_the_same_message_on_every_python():
    """The nesting bound is decided by a walk of the value, not by where the stack runs out."""
    adder, deep = abrep.build_voltage_adder(), "x"
    for _ in range(abrep.errors._SHOWN_DEPTH):
        deep = (deep,)
    check = abrep.CheckSpec("deep", "compute", theory="adder", input=deep)
    report = abrep.run_checks(dataclasses.replace(adder, checks=(adder.checks[0], check)))
    error = report.results[1].error
    assert error == {
        "type": "OutOfDomain",
        "message": "value <tuple too large to show> is not a member of space 'adder.machine'",
    }
    for _ in range(3 * sys.getrecursionlimit()):
        deep = (deep,)
    with pytest.raises(DeclarationError) as err:
        abrep.CheckSpec("deep", "compute", theory="adder", input=deep)
    assert str(err.value) == "check 'deep': input: nests more than 100 containers"


def _chain(depth: int, leaf, product=TupleSpace):
    """``depth`` product spaces, each the one component of the next, over ``leaf``."""
    for i in range(depth):
        leaf = product(f"t{i + 1}", (leaf,))
    return leaf


@pytest.mark.parametrize(
    "state, product, leaf",
    [
        (AbstractState, TupleSpace, UPDOWN),
        (PhysicalState, PhysicalTupleSpace, PhysicalLabelSpace("c", ("a", "b"))),
    ],
)
def test_a_tuple_space_chain_nests_at_most_the_bound(state, product, leaf):
    """A chain 100 deep works everywhere; a 101st level is refused where it is declared."""
    chain, labels = _chain(100, leaf, product), list(enumerate_values(leaf))
    values = list(enumerate_values(chain))
    assert len(values) == cardinality(chain) == len(labels) and chain._depth == 100
    for label, value in zip(labels, values):
        assert value == _chain(100, label, lambda _, v: v)
        assert state(chain, value).value == normalize_value(chain, list(value)) == value
    with pytest.raises(DeclarationError) as err:
        product("t101", (chain,))
    assert str(err.value) == "space 't101': components: nests more than 100 tuple spaces"
    assert err.value.field == "components"


def test_a_product_space_stores_its_depth_from_its_components():
    """1 plus the deepest component's, read from each component and not walked again."""
    deep, shallow = _chain(99, UPDOWN), _chain(3, BITS2)
    assert TupleSpace("w", (shallow, deep, UPDOWN))._depth == 100
    assert PAIR._depth == 1 and PhysicalTupleSpace("p", (VOLTS,))._depth == 1
    with pytest.raises(DeclarationError, match="nests more than 100 tuple spaces"):
        TupleSpace("w", (UPDOWN, TupleSpace("x", (deep,))))


def test_a_message_shows_a_value_in_full_up_to_the_depth_bound():
    """Containers nested ``_SHOWN_DEPTH - 1`` deep show in full; one level more, or a cycle, does not."""
    shown, depth = abrep.errors._shown, abrep.errors._SHOWN_DEPTH
    value = "x"
    for _ in range(depth - 1):
        value = (value,)
    assert shown(value) == repr(value)
    assert shown([value]) == "<list too large to show>"
    assert shown({"key": value}) == "<dict too large to show>"  # a dict's items are pairs
    assert shown(frozenset({value})) == "<frozenset too large to show>"
    cycle = []
    cycle += [cycle, cycle]
    assert shown(cycle) == "<list too large to show>"
    assert shown(10**5000) == "<int too large to show>" and shown({"a": 1}) == "{'a': 1}"


def test_space_declaration_invariants():
    with pytest.raises(DeclarationError):
        LabelSpace("empty", ())
    with pytest.raises(DeclarationError):
        LabelSpace("dup", ("a", "a"))
    with pytest.raises(DeclarationError):
        BitSpace("w0", 0)
    with pytest.raises(DeclarationError):
        IntSpace("bad", 3, 1)
    with pytest.raises(DeclarationError):
        RealVectorSpace("bad", ((1.0, 0.0),))


@pytest.mark.parametrize(
    "bounds",
    [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)],
    ids=["inf-hi", "inf-lo", "nan-hi"],
)
def test_vector_bounds_must_be_finite(bounds):
    with pytest.raises(DeclarationError, match="finite"):
        RealVectorSpace("v", ((0.0, 5.0), bounds))


@pytest.mark.parametrize(
    "bounds",
    [(("a", "b"),), ((0.0, True),), ((0.0,),), ((0, 10**400),), ((0, 2**1024 - 1),)],
    ids=["str-bounds", "bool-bound", "one-bound", "huge-int-bound", "overflow-bound"],
)
def test_vector_bounds_must_be_number_pairs(bounds):
    with pytest.raises(DeclarationError):
        RealVectorSpace("v", bounds)


@pytest.mark.parametrize(
    "declare, field",
    [
        (lambda n: RealVectorSpace("v", ((0, n),)), "bounds[0][1]"),
        (lambda n: abrep.ThresholdRule((n,)), "thresholds[0]"),
        (lambda n: abrep.CheckSpec("c", "compute", epsilon=n), "epsilon"),
        (build_voltage_adder, "flip_probability"),
    ],
    ids=["bound", "threshold", "check-epsilon", "build_voltage_adder"],
)
def test_an_int_past_the_float_range_is_not_a_finite_number(declare, field):
    """``float(2**1024 - 1)`` overflows: the rule rejects the int, and raises no OverflowError."""
    with pytest.raises(DeclarationError) as err:
        declare(2**1024 - 1)
    assert (err.value.field, err.value.reason) == (field, "expected a finite number")


def test_declarations_given_as_lists_are_stored_as_hashable_tuples():
    vector = RealVectorSpace("v", [[0, 5]])
    assert vector.bounds == ((0.0, 5.0),)
    assert all(type(b) is float for b in vector.bounds[0])
    assert hash(PhysicalState(vector, (1,))) == hash(
        PhysicalState(RealVectorSpace("v", ((0.0, 5.0),)), (1.0,))
    )
    cells = PhysicalLabelSpace("cells", ["lo", "hi"])
    assert cells.labels == ("lo", "hi")
    assert hash(PhysicalState(cells, "lo")) == hash(
        PhysicalState(PhysicalLabelSpace("cells", ("lo", "hi")), "lo")
    )
    pair = TupleSpace("pair", [BITS2, SMALL_INT])
    assert pair.components == (BITS2, SMALL_INT)
    assert hash(AbstractState(pair, ("01", 3))) == hash(AbstractState(PAIR, ("01", 3)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: LabelSpace("switch", ("up", "down")),
        lambda: BitSpace("b2", 2),
        lambda: IntSpace("n", 0, 5),
        lambda: TupleSpace("pair", (BitSpace("b2", 2), IntSpace("n", 0, 5))),
        lambda: PhysicalLabelSpace("cells", ("lo", "hi")),
        lambda: RealVectorSpace("v3", ((0.0, 5.0),) * 3),
        lambda: PhysicalTupleSpace("pair", (RealVectorSpace("v1", ((0.0, 5.0),)),) * 2),
    ],
    ids=["labels", "bits", "ints", "tuple", "physical-labels", "vector", "physical-tuple"],
)
def test_equal_spaces_declared_apart_hash_equal(build):
    space, twin = build(), build()
    assert space is not twin and space == twin and hash(space) == hash(twin)
    assert hash(space) == hash(space.id)  # a string caches its hash: no field walk
    renamed = dataclasses.replace(space, id="renamed")
    assert renamed != space and renamed.id == "renamed"
    assert dataclasses.replace(renamed, id=space.id) == space
    assert hash(dataclasses.replace(renamed, id=space.id)) == hash(space)


@pytest.mark.parametrize(
    "build",
    [
        lambda: AbstractState(VOLTS, (0.0, 0.0, 0.0)),
        lambda: PhysicalState(BITS2, "01"),
        lambda: TupleSpace("mixed", (BITS2, VOLTS)),
        lambda: PhysicalTupleSpace("mixed", (VOLTS, BITS2)),
    ],
    ids=["abstract-state-on-vector", "physical-state-on-bits", "abstract-tuple", "physical-tuple"],
)
def test_abstract_and_physical_spaces_never_mix(build):
    with pytest.raises(DeclarationError):
        build()


def test_distance_examples():
    a = AbstractState(BITS2, "01")
    assert distance("hamming", a, AbstractState(BITS2, "01")) == 0
    assert distance("hamming", a, AbstractState(BITS2, "11")) == 1
    three = AbstractState(SMALL_INT, 3)
    one = AbstractState(SMALL_INT, 1)
    assert distance("absolute-difference", three, one) == 2


def test_distance_rejects_cross_space_comparison():
    with pytest.raises(MetricMismatch):
        distance(DISCRETE, AbstractState(BITS2, "01"), AbstractState(SMALL_INT, 1))


def test_distance_rejects_inapplicable_metric():
    with pytest.raises(MetricMismatch):
        distance("hamming", AbstractState(SMALL_INT, 1), AbstractState(SMALL_INT, 2))
    with pytest.raises(MetricMismatch):
        distance(MAX_COORDINATE, AbstractState(BITS2, "01"), AbstractState(BITS2, "10"))


def test_max_coordinate_on_vectors_and_tuples():
    a = PhysicalState(VOLTS, (5.0, 0.0, 2.5))
    b = PhysicalState(VOLTS, (0.0, 0.0, 3.0))
    assert distance(MAX_COORDINATE, a, b) == 5.0
    pair_a = AbstractState(PAIR, ("01", 2))
    pair_b = AbstractState(PAIR, ("10", 5))
    assert distance(MAX_COORDINATE, pair_a, pair_b) == 3.0


def test_max_coordinate_reads_label_components_discretely_and_nested_tuples_by_coordinate():
    nested = TupleSpace("nested", (UPDOWN, PAIR))
    a = AbstractState(nested, ("up", ("01", 2)))
    assert distance(MAX_COORDINATE, a, AbstractState(nested, ("down", ("01", 2)))) == 1.0
    assert distance(MAX_COORDINATE, a, AbstractState(nested, ("up", ("10", 5)))) == 3.0
    assert distance(MAX_COORDINATE, a, a) == 0.0


_LABELS = LabelSpace("table.labels", ("x", "y", "z"))
_BITS = BitSpace("table.bits", 3)
_INTS = IntSpace("table.ints", -3, 4)
_VECTOR = RealVectorSpace("table.vector", ((0.0, 5.0), (0.0, 5.0)))
_PHYSICAL_LABELS = PhysicalLabelSpace("table.physical-labels", ("lo", "hi"))

#: Each space shape, two of its values, and each kind's distance between them (None: MetricMismatch).
METRIC_TABLE = {
    "labels": (_LABELS, "x", "z", (1.0, None, None, None)),
    "physical-labels": (_PHYSICAL_LABELS, "lo", "hi", (1.0, None, None, None)),
    "bits": (_BITS, "011", "110", (1.0, 2.0, None, None)),
    "ints": (_INTS, -2, 3, (1.0, None, 5.0, None)),
    "vector": (_VECTOR, (1.0, 4.0), (3.5, 3.0), (1.0, None, None, 2.5)),
    "tuple": (TupleSpace("table.tuple", (_BITS, _INTS)), ("011", -2), ("110", 3), (1.0, None, None, 5.0)),
    "physical-tuple": (
        PhysicalTupleSpace("table.physical-tuple", (_PHYSICAL_LABELS, _VECTOR)),
        ("lo", (1.0, 4.0)), ("hi", (3.5, 3.0)), (1.0, None, None, 2.5),
    ),
    "nested-tuple": (  # hamming on the bits: a discrete leaf would read 1
        TupleSpace("table.nested", (TupleSpace("table.inner", (_LABELS, _BITS)), _INTS)),
        (("x", "011"), -2), (("z", "100"), -2), (1.0, None, None, 3.0),
    ),
}


def _via_layer(space, a, b, metric):
    """``check_layer``'s distance: the map sends the upper value to ``a``, the lower step ``a`` to ``b``."""
    top = LabelSpace("top", ("u",))
    still = abrep.AbstractDynamics("top.still", top, abrep.BuiltinRule("identity"))
    step = abrep.TableRule({v: v for v in enumerate_values(space)} | {a: b})
    lower = abrep.RefinementLayer("low", space, abrep.AbstractDynamics("low.step", space, step))
    relation = abrep.SimulationRelation("down", abrep.RefinementLayer("top", top, still), lower, {"u": a})
    (entry,) = abrep.check_layer(relation, 0.0, metric).entries
    return entry.distance


def _via_validation(space, a, b, metric):
    """``validate_theory``'s distance: the program keeps the reading ``a``, the device moves to read ``b``."""
    device = PhysicalLabelSpace("device", ("p", "q"))
    read = abrep.RepresentationRelation("read", device, space, abrep.LookupRule({"p": a, "q": b}))
    program = abrep.AbstractDynamics("still", space, abrep.BuiltinRule("identity"))
    move = abrep.PhysicalDynamics("move", device, abrep.TableRule({"p": "q", "q": "q"}))
    predictions = (abrep.Prediction("run", program, move),)
    theory = abrep.Theory("t", read, (PhysicalState(device, "p"),), predictions)
    (cell,) = abrep.validate_theory(theory, 0.0, metric, 1, 1.0, TrialSeed(0))[1].cells
    return cell.report.distances[0]


@pytest.mark.parametrize("kind", list(abrep.METRICS))
@pytest.mark.parametrize("shape", list(METRIC_TABLE))
def test_every_metric_on_every_space_shape(shape, kind):
    """Each kind's distance or exact MetricMismatch, through every entry point the shape allows."""
    space, a, b, expected = METRIC_TABLE[shape]
    metric, want = abrep.METRICS[kind], expected[list(abrep.METRICS).index(kind)]
    make = AbstractState if isinstance(space, abrep.AbstractSpace) else PhysicalState
    measures = [lambda metric: distance(metric, make(space, a), make(space, b))]
    if make is AbstractState:
        measures += [partial(_via_layer, space, a, b), partial(_via_validation, space, a, b)]
    for measure in measures:
        if want is None:
            with pytest.raises(MetricMismatch) as err:
                measure(metric)
            assert str(err.value) == f"{kind} does not apply to space {space.id!r}"
        else:
            assert measure(metric) == want
    if want is not None:
        assert distance(metric, make(space, a), make(space, a)) == 0.0


def test_a_vector_space_has_no_cardinality():
    with pytest.raises(NotEnumerable, match="^space 'v3' is continuous$"):
        cardinality(VOLTS)


def test_a_space_of_an_unknown_kind_is_a_declaration_error():
    """``AbstractSpace`` is a marker: a subclass the package does not define holds no values."""

    class Odd(abrep.AbstractSpace):
        id = "odd"

    with pytest.raises(DeclarationError, match="^unknown space type Odd$"):
        normalize_value(Odd(), "x")
    with pytest.raises(DeclarationError, match="^unknown space type Odd$"):
        AbstractState(Odd(), "x")


def test_a_subclass_of_a_space_class_normalizes_as_its_base():
    """The membership rules are keyed by space class, and a subclass takes its base's rule."""

    class Dial(IntSpace):
        pass

    class Panel(TupleSpace):
        pass

    dial = Dial("dial", 0, 3)
    panel = Panel("panel", (dial, UPDOWN))
    assert normalize_value(dial, 2) == 2 and AbstractState(dial, 3).value == 3
    assert normalize_value(panel, [1, "up"]) == (1, "up")
    with pytest.raises(OutOfDomain, match="^value 4 is not a member of space 'dial'$"):
        normalize_value(panel, (4, "up"))
    with pytest.raises(OutOfDomain, match=r"^value \[1\] is not a member of space 'panel'$"):
        normalize_value(panel, [1])


def test_enumerate_examples():
    assert list(enumerate_values(BITS2)) == ["00", "01", "10", "11"]
    assert list(enumerate_values(UPDOWN)) == ["up", "down"]
    assert list(enumerate_values(SMALL_INT)) == [0, 1, 2, 3, 4, 5]
    with pytest.raises(NotEnumerable):
        list(enumerate_values(VOLTS))


def test_enumerate_tuple_row_major():
    small = TupleSpace("t", (LabelSpace("ab", ("a", "b")), BitSpace("b1", 1)))
    assert list(enumerate_values(small)) == [
        ("a", "0"),
        ("a", "1"),
        ("b", "0"),
        ("b", "1"),
    ]


FINITE_SPACES = [BITS2, UPDOWN, SMALL_INT, PAIR, PhysicalLabelSpace("p", ("x", "y", "z"))]


@pytest.mark.parametrize("space", FINITE_SPACES, ids=lambda s: s.id)
def test_enumeration_matches_cardinality_and_membership(space):
    states = enumerate_states(space)
    assert len(states) == cardinality(space)
    assert len({s.value for s in states}) == len(states)
    for s in states:
        assert contains(space, s)


@pytest.mark.parametrize("space", FINITE_SPACES, ids=lambda s: s.id)
def test_enumeration_is_stable(space):
    assert list(enumerate_values(space)) == list(enumerate_values(space))


def _applicable_metrics(space):
    metrics = [DISCRETE]
    if isinstance(space, BitSpace):
        metrics.append("hamming")
    if isinstance(space, IntSpace):
        metrics.append("absolute-difference")
    if isinstance(space, TupleSpace):
        metrics.append(MAX_COORDINATE)
    return metrics


@pytest.mark.parametrize("space", [BITS2, SMALL_INT, PAIR], ids=lambda s: s.id)
def test_metric_axioms_on_all_pairs(space):
    states = enumerate_states(space)
    for metric in _applicable_metrics(space):
        for a, b in itertools.product(states, states):
            d = distance(metric, a, b)
            assert d >= 0
            assert d == distance(metric, b, a)
            if a == b:
                assert d == 0
        if metric in (DISCRETE, "hamming"):
            for a, b in itertools.product(states, states):
                if distance(metric, a, b) == 0:
                    assert a == b


@given(
    width=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_hamming_identity_of_indiscernibles(width, data):
    space = BitSpace("b", width)
    values = list(enumerate_values(space))
    a = data.draw(st.sampled_from(values))
    b = data.draw(st.sampled_from(values))
    d = distance("hamming", AbstractState(space, a), AbstractState(space, b))
    assert (d == 0) == (a == b)
    assert d <= width
