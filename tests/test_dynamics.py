import math
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import abrep.spaces
from abrep import (
    AbstractDynamics,
    AbstractState,
    BinarySumUpdate,
    BitSpace,
    BuiltinRule,
    ConstantUpdate,
    CoordinateFlipNoise,
    CoordinateUpdateRule,
    IntSpace,
    LabelSpace,
    LookupRule,
    OutOfDomain,
    PhysicalDynamics,
    PhysicalLabelSpace,
    PhysicalState,
    PhysicalTupleSpace,
    RealVectorSpace,
    RepresentationRelation,
    TableRule,
    TrialSeed,
    TupleSpace,
    TupleWiseRule,
    derive_seed,
    enumerate_states,
    enumerate_values,
    evolve_abstract,
    evolve_physical,
    identity_dynamics,
    represent,
)
from abrep.dynamics import _BLOCK, ProductRule, _bias, _block, _each, _flip, _trial_outcomes, unit_draw
from abrep.errors import DeclarationError
from support import adder_theory, count_calls


def machine_space(width: int) -> TupleSpace:
    reg = BitSpace(f"reg{width}", width)
    out = BitSpace(f"out{width + 1}", width + 1)
    return TupleSpace(f"m{width}", (reg, reg, out))


def test_ripple_add_worked_example():
    add = AbstractDynamics("add", machine_space(2), BuiltinRule("ripple-add"))
    state = AbstractState(add.space, ("01", "10", "000"))
    assert evolve_abstract(add, state).value == ("01", "10", "011")


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_ripple_add_agrees_with_integer_addition(width):
    add = AbstractDynamics("add", machine_space(width), BuiltinRule("ripple-add"))
    for state in enumerate_states(add.space):
        x, y, _ = state.value
        out = evolve_abstract(add, state).value
        # independent oracle: plain integer arithmetic
        assert int(out[2], 2) == int(x, 2) + int(y, 2)
        assert out[:2] == (x, y)


def test_identity_and_swap_builtins():
    bits = BitSpace("b2", 2)
    ident = AbstractDynamics("i", bits, BuiltinRule("identity"))
    m = AbstractState(bits, "10")
    assert evolve_abstract(ident, m) == m

    pair = TupleSpace("pp", (IntSpace("d", 0, 9), IntSpace("d", 0, 9)))
    swap = AbstractDynamics("s", pair, BuiltinRule("swap-pair"))
    assert evolve_abstract(swap, AbstractState(pair, (7, 9))).value == (9, 7)
    assert evolve_abstract(swap, AbstractState(pair, (4, 4))).value == (4, 4)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_the_xor_builtin_follows_its_definition(width):
    bits = BitSpace(f"b{width}", width)
    pair = TupleSpace(f"bp{width}", (bits, bits))
    parity = AbstractDynamics("parity", pair, BuiltinRule("xor"))
    for state in enumerate_states(pair):
        a, b = state.value
        combined = "".join(str(int(x) ^ int(y)) for x, y in zip(a, b))
        assert evolve_abstract(parity, state).value == (combined, b)


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("name", ["xor", "swap-pair"])
def test_the_self_inverse_builtins_undo_themselves(name, width):
    """Two steps of ``xor`` or ``swap-pair`` give back every state of a register pair; one step moves some."""
    bits = BitSpace(f"b{width}", width)
    pair = TupleSpace(f"bp{width}", (bits, bits))
    program = AbstractDynamics(name, pair, BuiltinRule(name))
    moved = 0
    for state in enumerate_states(pair):
        once = evolve_abstract(program, state)
        assert evolve_abstract(program, once) == state
        moved += once != state
    assert moved == 4**width - 2**width  # xor fixes a zero second register, swap-pair equal registers


def _complement(dyn_id: str, bits: BitSpace) -> AbstractDynamics:
    """The program that flips every bit of ``bits``, as a table."""
    flipped = str.maketrans("01", "10")
    return AbstractDynamics(dyn_id, bits, TableRule({v: v.translate(flipped) for v in enumerate_values(bits)}))


def test_product_programs_nest_at_most_100_deep_through_their_spaces():
    """A product program acts on the tuple of its parts' spaces, so the space's bound is the program's.

    A program 100 products deep builds and runs; one more level is refused at
    its space's ``components``, before any program is declared on it.
    """
    bit = BitSpace("b1", 1)
    program = _complement("p0", bit)
    for i in range(1, 101):
        program = AbstractDynamics(f"p{i}", TupleSpace(f"s{i}", (program.space,)), ProductRule((program,)))
    value = "0"
    for _ in range(100):
        value = (value,)
    flipped = evolve_abstract(program, AbstractState(program.space, value)).value
    for _ in range(100):
        flipped = flipped[0]
    assert flipped == "1"
    with pytest.raises(DeclarationError) as err:
        TupleSpace("s101", (program.space,))
    assert str(err.value) == "space 's101': components: nests more than 100 tuple spaces"
    assert err.value.field == "components"


def test_product_rule_maps_each_part_over_its_component():
    bit = BitSpace("b1", 1)
    pair = BitSpace("b2", 2)
    flip = _complement("flip", bit)
    spin = _complement("spin", pair)
    both = AbstractDynamics("both", TupleSpace("pair", (bit, pair)), ProductRule((flip, spin)))
    for state in enumerate_states(both.space):
        a, b = state.value
        image = evolve_abstract(both, state).value
        assert image == (
            evolve_abstract(flip, AbstractState(bit, a)).value,
            evolve_abstract(spin, AbstractState(pair, b)).value,
        )


def test_product_parts_must_act_on_the_components_in_order():
    flip = _complement("flip", BitSpace("b1", 1))
    spin = _complement("spin", BitSpace("b2", 2))
    for space, parts in (
        (TupleSpace("pair", (flip.space, spin.space)), (spin, flip)),
        (TupleSpace("pair", (flip.space, spin.space)), (flip,)),
        (TupleSpace("triple", (flip.space,) * 3), (flip, flip)),
        (flip.space, (flip,)),
    ):
        with pytest.raises(DeclarationError):
            AbstractDynamics("bad", space, ProductRule(parts))



def _looped(parts):
    """A product map as a loop over its parts: the reference for the generated one."""
    steps = [part._apply for part in parts]
    return lambda value: tuple([step(v) for step, v in zip(steps, value)])


def _products(parts, relations, tag):
    """The product of abstract ``parts`` and the tuple-wise reading of ``relations``."""
    space = TupleSpace(f"{tag}.values", tuple(part.space for part in parts))
    cells = PhysicalTupleSpace(f"{tag}.cells", tuple(r.domain for r in relations))
    dynamics = AbstractDynamics(f"{tag}.step", space, ProductRule(tuple(parts)))
    return dynamics, RepresentationRelation(f"{tag}.read", cells, space, TupleWiseRule(tuple(relations)))


def _cyclic(labels, tag):
    """A program that moves each label to the next, and a reading of like-named cells with it."""
    abstract, physical = LabelSpace(f"{tag}.labels", labels), PhysicalLabelSpace(f"{tag}.cells", labels)
    after = dict(zip(labels, labels[1:] + labels[:1]))
    return (
        AbstractDynamics(f"{tag}.next", abstract, TableRule(after)),
        RepresentationRelation(f"{tag}.read", physical, abstract, LookupRule(after)),
    )


def _assert_looped(dynamics, relation):
    """Every step and read of the generated maps is the loop's, through the public calls too."""
    step, read = _looped(dynamics.rule.parts), _looped(relation.rule.parts)
    for value in enumerate_values(relation.domain):
        assert dynamics._apply(read(value)) == step(read(value))
        image = represent(relation, PhysicalState(relation.domain, value))
        assert image.value == read(value) == relation._apply(value)
        assert evolve_abstract(dynamics, image).value == step(read(value))


@pytest.mark.parametrize("arity", range(1, 7))
def test_generated_product_maps_are_the_loop_over_their_parts(arity):
    """At arities 1 to 6, and nested once more in a pair with a 3-cycle."""
    parts = [_cyclic(("a", "b") if i % 2 else ("x", "y", "z"), f"c{i}") for i in range(arity)]
    dynamics, relation = _products(*zip(*parts), f"p{arity}")
    _assert_looped(dynamics, relation)
    _assert_looped(*_products((dynamics, parts[0][0]), (relation, parts[0][1]), f"q{arity}"))


def test_labels_that_look_like_code_read_and_step_as_data():
    """Only the arity reaches the generated source: labels and ids that are code stay strings."""
    labels = ("f0(v[0])", "'", '"', "__import__('os')", "v[1])), (", "lambda v: v")
    part = _cyclic(labels, "__import__('os')")
    dynamics, relation = _products((part[0],) * 3, (part[1],) * 3, "f1(v[1])")
    _assert_looped(dynamics, relation)
    assert dynamics._apply(("'", '"', "f0(v[0])")) == ('"', "__import__('os')", "'")


def test_the_product_maker_is_generated_once_per_arity():
    bit = BitSpace("b1", 1)
    flip = _complement("flip", bit)
    _each.cache_clear()
    for n in (2, 3, 2, 3, 2):
        both = AbstractDynamics(f"flip{n}", TupleSpace(f"bits{n}", (bit,) * n), ProductRule((flip,) * n))
        assert both._apply(("0",) * n) == ("1",) * n
    assert (_each.cache_info().misses, _each.cache_info().hits) == (2, 3)

@pytest.mark.parametrize(
    "declare",
    [
        lambda: ProductRule(("a",)),
        lambda: ProductRule(5),
        lambda: ProductRule(None),
        lambda: TupleWiseRule(("z",)),
        lambda: TupleWiseRule((identity_dynamics("hold", PhysicalLabelSpace("c", ("a",))),)),
    ],
    ids=["product-of-str", "product-of-int", "product-of-none", "tuple-wise-of-str", "tuple-wise-of-dynamics"],
)
def test_rule_parts_are_type_checked(declare):
    with pytest.raises(DeclarationError):
        declare()


def test_builtin_shape_validation():
    with pytest.raises(DeclarationError):
        AbstractDynamics("bad", BitSpace("b2", 2), BuiltinRule("swap-pair"))
    with pytest.raises(DeclarationError):
        AbstractDynamics("bad", machine_space(2), BuiltinRule("xor"))
    uneven = TupleSpace("u", (BitSpace("x", 2), BitSpace("y", 2), BitSpace("z", 2)))
    with pytest.raises(DeclarationError):
        AbstractDynamics("bad", uneven, BuiltinRule("ripple-add"))


@pytest.mark.parametrize("entries", [5, [("0", "1"), ("1", "0")]], ids=["int", "pairs"])
def test_table_entries_must_be_a_mapping(entries):
    with pytest.raises(DeclarationError, match="table rule: entries: expected a Mapping"):
        TableRule(entries)


def test_table_rule_must_be_total_without_extras():
    bits = BitSpace("b1", 1)
    with pytest.raises(DeclarationError, match=re.escape("1 images for the 2 keys of 'b1'")):
        AbstractDynamics("partial", bits, TableRule({"0": "1"}))
    with pytest.raises(DeclarationError, match=re.escape("3 images for the 2 keys of 'b1'")):
        AbstractDynamics("extra", bits, TableRule({"0": "1", "1": "0", "x": "0"}))


def test_a_table_of_the_wrong_size_is_refused_before_any_key_is_enumerated(monkeypatch):
    pair = TupleSpace("p", (BitSpace("a", 1), BitSpace("b", 2)))
    full = {k: k for k in enumerate_values(pair)}
    short = dict(list(full.items())[:-1])
    long = {**full, ("x", "00"): ("0", "00")}
    calls = count_calls(monkeypatch, enumerate=abrep.spaces.enumerate_values)
    for entries in (short, long):
        message = f"dynamics 'd': {len(entries)} images for the 8 keys of 'p'"
        with pytest.raises(DeclarationError, match=re.escape(message)):
            AbstractDynamics("d", pair, TableRule(entries))
    assert calls == {"enumerate": 0}


def test_a_table_over_forty_bits_is_refused_by_its_size():
    wide = TupleSpace("t", (BitSpace("w", 40),))
    message = "dynamics 'd': 0 images for the 1099511627776 keys of 't'"
    with pytest.raises(DeclarationError, match=f"^{re.escape(message)}$"):
        AbstractDynamics("d", wide, TableRule({}))


def test_a_table_of_the_right_size_names_its_first_missing_key():
    pair = TupleSpace("p", (BitSpace("a", 1), BitSpace("b", 1)))
    entries = {k: k for k in enumerate_values(pair)}
    del entries[("1", "0")]
    entries[("1", "x")] = ("1", "0")
    with pytest.raises(DeclarationError, match=re.escape("dynamics 'd': no image for ('1', '0')")):
        AbstractDynamics("d", pair, TableRule(entries))


VOLTS = RealVectorSpace("v7", ((0.0, 5.0),) * 7)
ADDER_RULE = CoordinateUpdateRule((BinarySumUpdate((0, 1), (2, 3), (4, 5, 6), 2.5, 0.0, 5.0),))


def encode(bits: str) -> tuple[float, ...]:
    return tuple(5.0 if c == "1" else 0.0 for c in bits)


def test_binary_sum_update_writes_voltage_sum():
    device = PhysicalDynamics("adder", VOLTS, ADDER_RULE)
    start = PhysicalState(VOLTS, encode("01" + "10" + "000"))
    out = evolve_physical(device, start, TrialSeed(0))
    assert out.value == encode("01" + "10" + "011")


def test_constant_update_overrides_in_order():
    device = PhysicalDynamics(
        "stuck",
        VOLTS,
        CoordinateUpdateRule(
            (
                BinarySumUpdate((0, 1), (2, 3), (4, 5, 6), 2.5, 0.0, 5.0),
                ConstantUpdate((6,), (0.0,)),
            )
        ),
    )
    start = PhysicalState(VOLTS, encode("01" + "10" + "000"))
    out = evolve_physical(device, start, TrialSeed(0))
    assert out.value == encode("01" + "10" + "010")


def updated_by_definition(rule: CoordinateUpdateRule, levels: tuple) -> tuple:
    """The levels after ``rule``'s assignments, in order, one line at a time, as documented."""
    working = list(levels)
    for upd in rule.assignments:
        if isinstance(upd, ConstantUpdate):
            for line, level in zip(upd.lines, upd.values):
                working[line] = level
            continue
        a, b = (
            sum(2**k for k, line in enumerate(reversed(lines)) if working[line] >= upd.threshold)
            for lines in (upd.a_lines, upd.b_lines)
        )
        width = len(upd.out_lines)
        total = (a + b) % 2**width
        for k, line in enumerate(upd.out_lines):
            working[line] = upd.high if total >> (width - 1 - k) & 1 else upd.low
    return tuple(working)


_LEVELS = st.sampled_from([0.0, 1.0, 2.5, 4.0, 5.0])
_LINES = st.lists(st.integers(0, 5), max_size=4).map(tuple)
_UPDATES = st.one_of(
    st.builds(BinarySumUpdate, _LINES, _LINES, _LINES, _LEVELS, _LEVELS, _LEVELS),
    st.lists(st.tuples(st.integers(0, 5), _LEVELS), max_size=3).map(
        lambda pins: ConstantUpdate(tuple(p[0] for p in pins), tuple(p[1] for p in pins))
    ),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_UPDATES, max_size=3), st.tuples(*[_LEVELS] * 6))
def test_coordinate_updates_follow_their_definition(assignments, levels):
    """Overlapping lines included: later assignments read and override earlier ones."""
    lines = RealVectorSpace("v6", ((0.0, 5.0),) * 6)
    rule = CoordinateUpdateRule(tuple(assignments))
    device = PhysicalDynamics("update", lines, rule)
    out = evolve_physical(device, PhysicalState(lines, levels), TrialSeed(0))
    assert out.value == updated_by_definition(rule, levels)


@pytest.mark.parametrize("width", range(1, 7))
def test_the_adder_family_steps_by_the_integer_definition(width):
    """The w-bit adder's device writes the integer sum of its addends on all w + 1 target lines.

    The drawn updates above have targets of at most 4 lines; these reach 7.
    Every domain state up to 3 bits, a fixed sample of 256 beyond. Kills a
    row-wise sum that drops its last carry, which never writes the top target
    line high.
    """
    theory = adder_theory(width)
    (pred,) = theory.predictions
    states = theory.domain if width <= 3 else random.Random(width).sample(theory.domain, 256)
    for state in states:
        out = evolve_physical(pred.physical, state, TrialSeed(0))
        assert out.value == updated_by_definition(pred.physical.rule, state.value)


@pytest.mark.parametrize(
    "update",
    [
        ConstantUpdate((0,), (5,)),
        BinarySumUpdate((0, 1), (2, 3), (4, 5, 6), 2.5, 0, 5),
    ],
    ids=["constant", "binary-sum"],
)
def test_int_levels_evolve_to_float_coordinates(update):
    device = PhysicalDynamics("pin", VOLTS, CoordinateUpdateRule((update,)))
    out = evolve_physical(device, PhysicalState(VOLTS, encode("11" + "11" + "000")), TrialSeed(0))
    assert all(type(c) is float for c in out.value)
    assert out == PhysicalState(VOLTS, out.value)


def test_int_noise_levels_evolve_to_float_coordinates():
    noise = CoordinateFlipNoise(1, (4, 5, 6), 2, 0, 5)
    device = PhysicalDynamics("flip", VOLTS, CoordinateUpdateRule(()), noise)
    out = evolve_physical(device, PhysicalState(VOLTS, encode("0" * 7)), TrialSeed(0))
    assert out.value == encode("0000111")
    assert all(type(c) is float for c in out.value)


def test_table_images_given_as_lists_evolve_to_tuples():
    bit = BitSpace("b1", 1)
    pair = TupleSpace("pair", (bit, bit))
    swap = TableRule({(a, b): [b, a] for a, b in enumerate_values(pair)})
    out = evolve_abstract(AbstractDynamics("swap", pair, swap), AbstractState(pair, ("0", "1")))
    assert out.value == ("1", "0")
    assert hash(out) == hash(AbstractState(pair, ("1", "0")))
    cells = PhysicalTupleSpace("cells", (PhysicalLabelSpace("c", ("lo", "hi")),) * 2)
    flip = TableRule({(a, b): [b, a] for a, b in enumerate_values(cells)})
    moved = evolve_physical(PhysicalDynamics("swap", cells, flip), PhysicalState(cells, ("lo", "hi")), TrialSeed(0))
    assert moved.value == ("hi", "lo")
    assert hash(moved) == hash(PhysicalState(cells, ("hi", "lo")))


@pytest.mark.parametrize(
    "build",
    [
        lambda: BinarySumUpdate((0, 1), (2, 3), (4, 5, 6), 2.5, "0", 5.0),
        lambda: BinarySumUpdate((0, 1), (2, 3), (4, 5, 6), math.nan, 0.0, 5.0),
        lambda: BinarySumUpdate((0, 1), (2, 3), (4, 5, 6), 2.5, 0.0, True),
    ],
    ids=["str-low", "nan-threshold", "bool-high"],
)
def test_binary_sum_levels_must_be_finite_numbers(build):
    with pytest.raises(DeclarationError):
        build()


@pytest.mark.parametrize("level", ["5", math.inf, None], ids=["str", "inf", "none"])
def test_constant_levels_must_be_finite_numbers(level):
    with pytest.raises(DeclarationError):
        ConstantUpdate((0,), (level,))


@pytest.mark.parametrize(
    "build",
    [
        lambda: CoordinateFlipNoise(0.1, (4,), 2.5, "0", 5.0),
        lambda: CoordinateFlipNoise(0.1, (4,), 2.5, 0.0, math.nan),
        lambda: CoordinateFlipNoise("0.1", (4,), 2.5, 0.0, 5.0),
    ],
    ids=["str-low", "nan-high", "str-probability"],
)
def test_flip_noise_levels_must_be_finite_numbers(build):
    with pytest.raises(DeclarationError):
        build()


def test_identity_rule_with_no_noise_returns_input():
    device = identity_dynamics("hold", VOLTS)
    p = PhysicalState(VOLTS, (1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 2.5))
    assert evolve_physical(device, p, TrialSeed(9)) == p


def test_full_flip_probability_always_flips():
    noisy = PhysicalDynamics(
        "noisy",
        VOLTS,
        CoordinateUpdateRule(()),
        CoordinateFlipNoise(1.0, (0,), 2.5, 0.0, 5.0),
    )
    low = PhysicalState(VOLTS, (0.0,) * 7)
    high = PhysicalState(VOLTS, (5.0,) + (0.0,) * 6)
    for seed in range(20):
        assert evolve_physical(noisy, low, TrialSeed(seed)).value[0] == 5.0
        assert evolve_physical(noisy, high, TrialSeed(seed)).value[0] == 0.0


def test_zero_flip_probability_never_flips():
    noisy = PhysicalDynamics(
        "quiet",
        VOLTS,
        CoordinateUpdateRule(()),
        CoordinateFlipNoise(0.0, (0, 1, 2), 2.5, 0.0, 5.0),
    )
    p = PhysicalState(VOLTS, (5.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0))
    for seed in range(20):
        assert evolve_physical(noisy, p, TrialSeed(seed)) == p


def test_evolution_is_deterministic_per_seed_and_varies_across_trials():
    noisy = PhysicalDynamics(
        "noisy",
        VOLTS,
        CoordinateUpdateRule(()),
        CoordinateFlipNoise(0.5, tuple(range(7)), 2.5, 0.0, 5.0),
    )
    p = PhysicalState(VOLTS, (0.0,) * 7)
    base = TrialSeed(42)
    outputs = [evolve_physical(noisy, p, derive_seed(base, k)) for k in range(32)]
    again = [evolve_physical(noisy, p, derive_seed(base, k)) for k in range(32)]
    assert outputs == again
    assert len({o.value for o in outputs}) > 1


@settings(max_examples=40)
@given(seed_a=st.integers(0, 2**32), seed_b=st.integers(0, 2**32))
def test_noise_free_dynamics_ignore_the_seed(seed_a, seed_b):
    device = PhysicalDynamics("adder", VOLTS, ADDER_RULE)
    p = PhysicalState(VOLTS, encode("1101000"))
    assert evolve_physical(device, p, TrialSeed(seed_a)) == evolve_physical(
        device, p, TrialSeed(seed_b)
    )


def noise_by_definition(noise, value, seed: TrialSeed):
    """One trial of ``noise`` on ``value``, drawn line by line through ``unit_draw``."""
    working = list(value)
    for line in noise.coordinates:
        if unit_draw(seed, line) < noise.probability:
            working[line] = noise.low if working[line] >= noise.threshold else noise.high
    return tuple(working)


def trial_values(device, start, base: TrialSeed, trials: int) -> list:
    """The outcome value of each trial, from the noise kernel's image and per-trial flag codes."""
    image, codes = _trial_outcomes(device, start.value, base, trials)
    assert len(codes) == trials
    return [_flip(device.noise, image, code) for code in codes]


CELLS = PhysicalLabelSpace("cells", ("a", "b", "c"))


@pytest.mark.parametrize(
    "space, lines, low, message",
    [
        (CELLS, (0,), 0.0, "coordinate-flip noise needs a real-vector space"),
        (VOLTS, (7,), 0.0, "line 7 out of range"),
        (VOLTS, (0,), -1.0, "level -1.0 leaves the bounds of line 0"),
    ],
    ids=["labeled-space", "line-outside", "level-outside"],
)
def test_noise_errors_name_the_dynamics(space, lines, low, message):
    rule = CoordinateUpdateRule(()) if space is VOLTS else TableRule({l: l for l in CELLS.labels})
    with pytest.raises(DeclarationError, match=re.escape(f"dynamics 'noisy': {message}")):
        PhysicalDynamics("noisy", space, rule, CoordinateFlipNoise(0.5, lines, 2.5, low, 5.0))


def noisy_hold(probability: float, lines: tuple[int, ...]):
    """A device that holds its state under noise on ``lines``, and a start state it can flip."""
    noise = CoordinateFlipNoise(probability, lines, 2.5, 0.0, 5.0)
    device = PhysicalDynamics("noisy", VOLTS, CoordinateUpdateRule(()), noise)
    return device, PhysicalState(VOLTS, (0.0,) * 7)


#: Noisy devices by kind: one holds its lines, the other adds 3 and 1 into lines 4 to 6 before the flips.
DEVICE_KINDS = ["hold", "adder"]


def noisy_device(kind: str, probability: float, lines: tuple[int, ...]):
    """A device of ``kind`` under noise on ``lines``, a start state, and the rule's noise-free image of it.

    The adder's image differs from its start, so a kernel that flipped the
    start in place of the rule's image would not pass.
    """
    device, start = noisy_hold(probability, lines)
    if kind == "hold":
        return device, start, start.value
    start = PhysicalState(VOLTS, encode("11" + "01" + "000"))
    image = evolve_physical(PhysicalDynamics("adder", VOLTS, ADDER_RULE), start, TrialSeed(0)).value
    assert image == encode("11" + "01" + "100")
    return PhysicalDynamics("noisy", VOLTS, ADDER_RULE, device.noise), start, image


probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def noisy_starts(draw):
    """A noisy hold device and a start state on it."""
    probability = draw(probabilities)
    lines = draw(st.lists(st.integers(0, 6), max_size=10))  # repeats allowed
    noise = CoordinateFlipNoise(probability, tuple(lines), 2.5, 0.0, 5.0)
    levels = draw(st.lists(st.sampled_from([0.0, 2.5, 5.0]), min_size=7, max_size=7))
    device = PhysicalDynamics("noisy", VOLTS, CoordinateUpdateRule(()), noise)
    return device, PhysicalState(VOLTS, tuple(levels))


@settings(max_examples=150, deadline=None)
@given(case=noisy_starts(), base=st.integers(0, 2**64 - 1), trials=st.integers(1, 30))
def test_trial_outcomes_follow_the_draws_by_definition(case, base, trials):
    device, start = case
    seeds = [derive_seed(TrialSeed(base), k) for k in range(trials)]
    expected = [noise_by_definition(device.noise, start.value, seed) for seed in seeds]
    assert trial_values(device, start, TrialSeed(base), trials) == expected
    assert [evolve_physical(device, start, seed).value for seed in seeds] == expected


@pytest.mark.parametrize("kind", DEVICE_KINDS)
def test_a_line_does_not_flip_at_a_probability_equal_to_its_draw(kind):
    base, line = TrialSeed(7), 3
    draw = unit_draw(derive_seed(base, 0), line)

    def flips_at(probability) -> bool:
        device, start, image = noisy_device(kind, probability, (line,))
        return trial_values(device, start, base, 1) != [image]

    assert not flips_at(draw)  # the comparison is strict
    assert flips_at(math.nextafter(draw, 1.0))


#: Trial counts: one and two lanes, 127 to 129 lanes, and each side of a full kernel pass.
LANE_COUNTS = sorted({1, 2, 127, 128, 129, _BLOCK - 1, _BLOCK, _BLOCK + 1})


@pytest.mark.parametrize("trials", LANE_COUNTS)
@pytest.mark.parametrize("probability", [0.0, 1.0, 0.3])
@pytest.mark.parametrize("kind", DEVICE_KINDS)
def test_every_lane_of_every_pass_follows_the_draws_by_definition(kind, probability, trials):
    device, start, image = noisy_device(kind, probability, (2, 5, 2))  # line 2 flips twice or not at all
    base = TrialSeed(0x5EED)
    seeds = [derive_seed(base, k) for k in range(trials)]
    expected = [noise_by_definition(device.noise, image, seed) for seed in seeds]
    assert trial_values(device, start, base, trials) == expected
    if 0.0 < probability < 1.0 and trials > 2:
        assert len(set(expected)) > 1


def test_trials_cost_linear_time():
    """Cost law: a square's trials cost time linear in their number, not in its square.

    Best of 3, the time per trial at 2**20 trials is at most 3 times that at
    2**14. Each 1,024-trial pass's codes are kept and joined once; appended
    to one growing tuple, 2**20 trials copied about 2**29 codes, and took
    about 8 times as long per trial as 2**14 did.
    """
    device, start = noisy_hold(0.5, (0,))
    per_trial = []
    for trials in (2**14, 2**20):
        best = math.inf
        for _ in range(3):
            began = time.perf_counter()
            _, codes = _trial_outcomes(device, start.value, TrialSeed(trials), trials)
            best = min(best, time.perf_counter() - began)
        assert len(codes) == trials and set(codes) == {0, 1}
        per_trial.append(best / trials)
    assert per_trial[1] <= 3 * per_trial[0]


@pytest.mark.parametrize("probabilities", [(0.3, 0.7), (0.7, 0.3)], ids=["0.3-first", "0.7-first"])
def test_the_kernel_constants_are_cached_per_block_size_and_the_bias_per_probability_too(probabilities):
    """Each block's constants are built once per block size, and a noise's bias once per probability and size.

    Two probabilities meet each of 1, 400 and 1,025 trials (a full pass and a
    pass of one) in turn, from empty caches, and every trial is the one drawn
    by definition. Catches a bias cached by block size alone, which hands the
    second probability the first one's bias.
    """
    _block.cache_clear()
    _bias.cache_clear()
    base = TrialSeed(0x5EED)
    for trials in (1, 400, _BLOCK + 1):
        seeds = [derive_seed(base, k) for k in range(trials)]
        for probability in probabilities:
            device, start = noisy_hold(probability, (2, 5, 2))
            expected = [noise_by_definition(device.noise, start.value, seed) for seed in seeds]
            assert trial_values(device, start, base, trials) == expected
    assert _bias.cache_info()[:2] == (2, 2 * 3)  # block sizes 1, 400 and 1024; 1,025's tail of one hits


def test_the_kernel_caches_stay_within_their_bound():
    """The caches are bounded: 50 trial counts, at two probabilities, keep at most ``maxsize`` entries each."""
    base = TrialSeed(3)
    for trials in range(1, 51):
        for probability in (0.3, 0.7):
            device, start = noisy_hold(probability, (0,))
            trial_values(device, start, base, trials)
    for cache in (_block, _bias):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize < 50


@pytest.mark.parametrize("lane", [1, 129, _BLOCK + 1])
@pytest.mark.parametrize("kind", DEVICE_KINDS)
def test_a_lane_does_not_flip_at_a_probability_equal_to_its_draw(kind, lane):
    base, line = TrialSeed(7), 3
    draw = unit_draw(derive_seed(base, lane), line)

    def flips_at(probability) -> bool:
        device, start, image = noisy_device(kind, probability, (line,))
        return trial_values(device, start, base, lane + 1)[lane] != image

    assert not flips_at(draw)  # the comparison is strict
    assert flips_at(math.nextafter(draw, 1.0))


#: 9 listed lines, past one byte of flags, and 70, past one 64-bit word, each with repeats.
WIDE = RealVectorSpace("v66", ((0.0, 5.0),) * 66)
WIDE_LINES = {
    9: (0, 3, 7, 3, 11, 2, 9, 0, 8),
    70: tuple(range(64)) + (5, 64, 63, 65, 0, 64),
}


@pytest.mark.parametrize("trials", LANE_COUNTS)
@pytest.mark.parametrize("probability", [0.0, 1.0, 0.3])
@pytest.mark.parametrize("listed", sorted(WIDE_LINES))
def test_wide_noise_follows_the_draws_by_definition(listed, probability, trials):
    """Every flag of every lane, past 8 and 64 listed lines, is the draw's, and so is every run.

    At probability 0 every flag of a code is set, across both of the 70
    lines' words, and at 1 none is.
    """
    lines = WIDE_LINES[listed]
    assert len(lines) == listed and len(set(lines)) < listed
    noise = CoordinateFlipNoise(probability, lines, 2.5, 0.0, 5.0)
    device = PhysicalDynamics("noisy", WIDE, CoordinateUpdateRule(()), noise)
    start = PhysicalState(WIDE, tuple((0.0, 2.5, 5.0)[i % 3] for i in range(66)))
    base = TrialSeed(0xC0DE + listed)
    seeds = [derive_seed(base, k) for k in range(trials)]
    expected = [noise_by_definition(noise, start.value, seed) for seed in seeds]
    assert trial_values(device, start, base, trials) == expected
    assert [evolve_physical(device, start, seed).value for seed in seeds] == expected
    if probability in (0.0, 1.0):
        every = 0 if probability else (1 << listed) - 1
        assert set(_trial_outcomes(device, start.value, base, trials)[1]) == {every}
    elif trials > 2:
        assert len(set(expected)) > 1


def test_a_repeated_line_flips_twice():
    noise = CoordinateFlipNoise(1.0, (2, 2, 4), 2.5, 0.0, 5.0)
    device = PhysicalDynamics("noisy", VOLTS, CoordinateUpdateRule(()), noise)
    start = PhysicalState(VOLTS, (0.0,) * 7)
    outcomes = trial_values(device, start, TrialSeed(1), 2)
    assert outcomes == [(0.0,) * 4 + (5.0, 0.0, 0.0)] * 2


def test_noise_on_tuple_space_is_rejected():
    cells = PhysicalLabelSpace("c", ("a", "b"))
    from abrep import PhysicalTupleSpace

    pair = PhysicalTupleSpace("cc", (cells, cells))
    with pytest.raises(DeclarationError):
        PhysicalDynamics(
            "noisy",
            pair,
            TableRule({v: v for v in enumerate_values(pair)}),
            CoordinateFlipNoise(0.5, (0,), 0.5, 0.0, 1.0),
        )


def test_evolve_rejects_foreign_states():
    device = PhysicalDynamics("adder", VOLTS, ADDER_RULE)
    other = RealVectorSpace("v2", ((0.0, 5.0),) * 2)
    with pytest.raises(OutOfDomain):
        evolve_physical(device, PhysicalState(other, (0.0, 0.0)), TrialSeed(0))
    add = AbstractDynamics("add", machine_space(2), BuiltinRule("ripple-add"))
    with pytest.raises(OutOfDomain):
        evolve_abstract(add, AbstractState(BitSpace("b", 2), "01"))


def test_dynamics_act_on_their_own_family_of_spaces():
    cells = PhysicalLabelSpace("c", ("a", "b"))
    with pytest.raises(DeclarationError):
        AbstractDynamics("keep", cells, BuiltinRule("identity"))
    bits = BitSpace("b", 1)
    with pytest.raises(DeclarationError):
        PhysicalDynamics("hold", bits, TableRule({"0": "0", "1": "1"}))


def test_update_levels_validated_against_bounds():
    with pytest.raises(DeclarationError):
        PhysicalDynamics(
            "bad",
            VOLTS,
            CoordinateUpdateRule((ConstantUpdate((0,), (9.0,)),)),
        )
    with pytest.raises(DeclarationError):
        PhysicalDynamics(
            "bad",
            VOLTS,
            CoordinateUpdateRule((BinarySumUpdate((0, 9), (2, 3), (4, 5, 6), 2.5, 0.0, 5.0),)),
        )


@pytest.mark.parametrize(
    "declare, message",
    [
        (
            lambda: ConstantUpdate((6,), (0.0, 5.0)),
            "constant update: lines and values differ in length",
        ),
        (
            lambda: PhysicalDynamics(
                "d", PhysicalLabelSpace("cells", ("a",)), CoordinateUpdateRule(())
            ),
            "dynamics 'd': coordinate updates need a real-vector space",
        ),
        (
            lambda: PhysicalDynamics("d", RealVectorSpace("v", ((0.0, 5.0),)), TableRule({})),
            "dynamics 'd': a table needs a finite key space",
        ),
    ],
    ids=["constant-lengths", "update-space", "table-keys"],
)
def test_update_shape_errors_name_their_owner(declare, message):
    with pytest.raises(DeclarationError, match=re.escape(message)):
        declare()
