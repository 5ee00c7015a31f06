import json
import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from abrep import (
    AbstractDynamics,
    AbstractState,
    BitSpace,
    BuiltinRule,
    ConstantUpdate,
    CoordinateFlipNoise,
    CoordinateUpdateRule,
    InstantiationProcedure,
    IntSpace,
    LabelSpace,
    LookupRule,
    NotInstantiable,
    OutOfDomain,
    PhysicalDynamics,
    PhysicalLabelSpace,
    PhysicalState,
    PhysicalTupleSpace,
    Prediction,
    RealVectorSpace,
    RepresentationRelation,
    ScenarioBundle,
    TableRule,
    Theory,
    ThresholdRule,
    TupleSpace,
    TupleWiseRule,
    build_swap_device,
    build_voltage_adder,
    emit_scenario,
    enumerate_states,
    enumerate_values,
    identity_dynamics,
    instantiate,
    parse_scenario,
    represent,
)
from abrep.dynamics import ProductRule
from abrep.errors import DeclarationError
from abrep.relations import _prepare
import reference
from support import adder_theory, count_device_work


def test_threshold_reads_high_voltage_as_one():
    lines = RealVectorSpace("v2", ((0.0, 5.0),) * 2)
    bits = BitSpace("b2", 2)
    read = RepresentationRelation("read", lines, bits, ThresholdRule((2.5, 2.5)))
    assert represent(read, PhysicalState(lines, (5.0, 0.0))).value == "10"


def test_threshold_groups_into_registers():
    lines = RealVectorSpace("v4", ((0.0, 5.0),) * 4)
    bits = BitSpace("b2", 2)
    pair = TupleSpace("bb", (bits, bits))
    read = RepresentationRelation("read", lines, pair, ThresholdRule((2.5,) * 4))
    state = PhysicalState(lines, (5.0, 0.0, 0.0, 5.0))
    assert represent(read, state).value == ("10", "01")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_threshold_reads_follow_the_definition(data):
    """Levels equal to their threshold read as 1; the row of bits fills the registers in order."""
    widths = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    registers = tuple(BitSpace(f"r{w}", w) for w in widths)
    single = len(widths) == 1 and data.draw(st.booleans())
    codomain = registers[0] if single else TupleSpace("registers", registers)
    n = sum(widths)
    cuts = st.sampled_from([0.0, 1.0, 2.5, 5.0])
    thresholds = data.draw(st.lists(cuts, min_size=n, max_size=n))
    levels = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 4.9, 5.0]), min_size=n, max_size=n))
    lines = RealVectorSpace(f"v{n}", ((0.0, 5.0),) * n)
    read = RepresentationRelation("read", lines, codomain, ThresholdRule(tuple(thresholds)))
    bits = "".join("1" if v >= t else "0" for v, t in zip(levels, thresholds))
    starts = [sum(widths[:i]) for i in range(len(widths))]
    expected = bits if single else tuple(bits[s : s + w] for s, w in zip(starts, widths))
    assert represent(read, PhysicalState(lines, tuple(levels))).value == expected


def test_switch_lookup_reads_binary_digit():
    switch = PhysicalLabelSpace("switch", ("switch-up", "switch-down"))
    bit = IntSpace("bit", 0, 1)
    read = RepresentationRelation(
        "read", switch, bit, LookupRule({"switch-up": 1, "switch-down": 0})
    )
    assert represent(read, PhysicalState(switch, "switch-up")).value == 1


def test_single_entry_lookup():
    cells = PhysicalLabelSpace("cells", ("s0",))
    modes = LabelSpace("modes", ("idle",))
    read = RepresentationRelation("read", cells, modes, LookupRule({"s0": "idle"}))
    assert represent(read, PhysicalState(cells, "s0")).value == "idle"


def test_lookup_images_given_as_lists_read_as_tuples():
    cells = PhysicalLabelSpace("cells", ("off", "on"))
    bit = BitSpace("bit", 1)
    pair = TupleSpace("pair", (bit, bit))
    read = RepresentationRelation(
        "read", cells, pair, LookupRule({"off": ["0", "0"], "on": ["1", "1"]})
    )
    out = represent(read, PhysicalState(cells, "on"))
    assert out.value == ("1", "1")
    assert hash(out) == hash(AbstractState(pair, ("1", "1")))


def test_represent_rejects_foreign_configurations():
    cells = PhysicalLabelSpace("cells", ("s0",))
    other = PhysicalLabelSpace("other", ("s0",))
    modes = LabelSpace("modes", ("idle",))
    read = RepresentationRelation("read", cells, modes, LookupRule({"s0": "idle"}))
    with pytest.raises(OutOfDomain):
        represent(read, PhysicalState(other, "s0"))


def test_lookup_rule_must_be_total():
    cells = PhysicalLabelSpace("cells", ("a", "b"))
    modes = LabelSpace("modes", ("x",))
    with pytest.raises(DeclarationError):
        RepresentationRelation("read", cells, modes, LookupRule({"a": "x"}))
    with pytest.raises(DeclarationError):
        RepresentationRelation(
            "read", cells, modes, LookupRule({"a": "x", "b": "x", "c": "x"})
        )


def test_threshold_widths_must_cover_dimension():
    lines = RealVectorSpace("v3", ((0.0, 5.0),) * 3)
    bits = BitSpace("b2", 2)
    with pytest.raises(DeclarationError):
        RepresentationRelation("read", lines, bits, ThresholdRule((2.5,) * 3))


@pytest.mark.parametrize("threshold", ["2.5", math.nan, False], ids=["str", "nan", "bool"])
def test_thresholds_must_be_finite_numbers(threshold):
    lines = RealVectorSpace("v2", ((0.0, 5.0),) * 2)
    with pytest.raises(DeclarationError):
        RepresentationRelation("read", lines, BitSpace("b2", 2), ThresholdRule((2.5, threshold)))


def test_relations_read_physical_configurations_into_abstract_values():
    cells = PhysicalLabelSpace("cells", ("a", "b"))
    other = PhysicalLabelSpace("other", ("x", "y"))
    modes = LabelSpace("modes", ("x", "y"))
    with pytest.raises(DeclarationError):
        RepresentationRelation("into-physical", cells, other, LookupRule({"a": "x", "b": "y"}))
    with pytest.raises(DeclarationError):
        RepresentationRelation("from-abstract", modes, modes, LookupRule({"x": "x", "y": "y"}))


def test_tuple_wise_parts_must_line_up():
    cells = PhysicalLabelSpace("cells", ("a", "b"))
    modes = LabelSpace("modes", ("x", "y"))
    part = RepresentationRelation(
        "part", cells, modes, LookupRule({"a": "x", "b": "y"})
    )
    from abrep import PhysicalTupleSpace

    product = PhysicalTupleSpace("prod", (cells, cells))
    wrong_codomain = TupleSpace("wrong", (modes, LabelSpace("z", ("z",))))
    with pytest.raises(DeclarationError):
        RepresentationRelation("pairread", product, wrong_codomain, TupleWiseRule((part, part)))


def _pair_reading(lookup, tuple_wise):
    """A cell's reading and the tuple-wise reading of a pair of cells, through the given rules."""
    cell, bit = PhysicalLabelSpace("cell", ("off", "on")), BitSpace("bit", 1)
    cells, bits = PhysicalTupleSpace("cells", (cell, cell)), TupleSpace("bits", (bit, bit))
    read = RepresentationRelation("read", cell, bit, lookup({"off": "0", "on": "1"}))
    return read, RepresentationRelation("read-pair", cells, bits, tuple_wise((read, read)))


def test_a_lookup_is_a_table_rule_and_a_tuple_wise_reading_a_product_rule():
    """Both pairs of names declare equal relations, emitted under the same tags and parsed back equal."""
    assert LookupRule is TableRule and TupleWiseRule is ProductRule
    old, new = _pair_reading(LookupRule, TupleWiseRule), _pair_reading(TableRule, ProductRule)
    assert old == new
    assert represent(new[1], PhysicalState(new[1].domain, ("on", "off"))).value == ("1", "0")
    spaces = (new[0].codomain, new[1].codomain), (new[0].domain, new[1].domain)
    bundles = [ScenarioBundle("1", *spaces, rels, (), (), (), (), (), ()) for rels in (old, new)]
    text = emit_scenario(bundles[0])
    assert emit_scenario(bundles[1]) == text
    assert [r["rule"]["kind"] for r in json.loads(text)["relations"]] == ["lookup", "tuple-wise"]
    assert parse_scenario(text) == bundles[0] == bundles[1]


@pytest.mark.parametrize("parts", ["programs", "mixed"])
def test_a_product_rule_of_the_wrong_kind_of_parts_is_a_declaration_error(parts):
    """A relation's product reads through relations and a program's runs programs, not the other."""
    read, read_pair = _pair_reading(TableRule, ProductRule)
    flip = AbstractDynamics("flip", read.codomain, BuiltinRule("bit-not"))
    relation_parts, program_parts = {
        "programs": ((flip, flip), (read, read)), "mixed": ((read, flip), (flip, read)),
    }[parts]
    message = "relation 'read-pair': part 'flip' does not line up with the product components"
    with pytest.raises(DeclarationError, match=re.escape(message)):
        replace(read_pair, rule=ProductRule(relation_parts))
    message = "dynamics 'both': product parts must act on the components of its space, in order"
    with pytest.raises(DeclarationError, match=re.escape(message)):
        AbstractDynamics("both", read_pair.codomain, ProductRule(program_parts))


def test_representation_is_total_and_deterministic_on_builtins():
    from abrep import build_swap_device

    swap = build_swap_device().theory("swap")
    for state in enumerate_states(swap.representation.domain):
        first = represent(swap.representation, state)
        second = represent(swap.representation, state)
        assert first == second
    adder = build_voltage_adder().theory("adder")
    for state in adder.domain:
        assert represent(adder.representation, state) == represent(
            adder.representation, state
        )


def _tiny_theory(seed_labels=("a", "b"), with_instantiation=True):
    cells = PhysicalLabelSpace("cells", ("a", "b"))
    modes = LabelSpace("modes", ("x", "y"))
    read = RepresentationRelation("read", cells, modes, LookupRule({"a": "x", "b": "y"}))
    hold = identity_dynamics("hold", cells)
    keep = PhysicalDynamics("keep", cells, TableRule({"a": "a", "b": "b"}))
    ident = AbstractDynamics("ident", modes, BuiltinRule("identity"))
    states = tuple(PhysicalState(cells, l) for l in ("a", "b"))
    inst = None
    if with_instantiation:
        seeds = tuple(PhysicalState(cells, l) for l in seed_labels)
        inst = InstantiationProcedure(seeds, hold)
    return Theory(
        id="tiny",
        representation=read,
        domain=states,
        predictions=(Prediction("hold", ident, keep),),
        instantiation=inst,
    )


def test_instantiate_identity_engineering_returns_matching_seed():
    theory = _tiny_theory()
    target = AbstractState(theory.representation.codomain, "y")
    assert instantiate(theory, target).value == "b"


def test_instantiate_with_empty_seed_set_is_not_instantiable():
    theory = _tiny_theory(seed_labels=())
    with pytest.raises(NotInstantiable):
        instantiate(theory, AbstractState(theory.representation.codomain, "x"))


def test_instantiate_without_procedure_raises():
    theory = _tiny_theory(with_instantiation=False)
    with pytest.raises(NotInstantiable, match="declares no instantiation procedure"):
        instantiate(theory, AbstractState(theory.representation.codomain, "x"))


def test_instantiate_rejects_targets_outside_codomain():
    theory = _tiny_theory()
    foreign = AbstractState(LabelSpace("other", ("x",)), "x")
    with pytest.raises(OutOfDomain):
        instantiate(theory, foreign)


def test_preparation_resumes_one_scan_and_fails_at_the_target_without_a_seed(monkeypatch):
    cells = PhysicalLabelSpace("cells", ("a", "b1", "b2", "c", "d"))
    modes = LabelSpace("modes", ("x", "y", "z", "w"))
    read = RepresentationRelation(
        "read", cells, modes, LookupRule({"a": "x", "b1": "y", "b2": "y", "c": "z", "d": "w"})
    )
    seeds = tuple(PhysicalState(cells, l) for l in ("b2", "a", "b1", "c"))
    ident = AbstractDynamics("ident", modes, BuiltinRule("identity"))
    hold = identity_dynamics("hold", cells)
    theory = Theory(
        "prep", read, seeds, (Prediction("hold", ident, hold),), InstantiationProcedure(seeds, hold)
    )
    x, y, z, w = (AbstractState(modes, m) for m in ("x", "y", "z", "w"))
    counts = count_device_work(monkeypatch)
    prepared = [p.value for p in _prepare(theory, (y, z, x, y))]
    assert prepared == ["b2", "c", "a", "b2"]  # the first seed that reads y wins
    assert prepared == [instantiate(theory, t).value for t in (y, z, x, y)]
    assert counts["rule"] == 4 + (1 + 4 + 2 + 1)  # one scan, then each target alone
    preparation = _prepare(theory, (x, w, y))
    assert next(preparation).value == "a"
    with pytest.raises(NotInstantiable, match="no seed prepares 'w'"):
        next(preparation)


def _prepared_in_turn(prepare, targets) -> list:
    """Each target's prepared state, in turn, up to the first NotInstantiable, and then its message."""
    results = []
    try:
        for target in targets:
            results.append(prepare(target))
    except NotInstantiable as error:
        results.append(str(error))
    return results


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_the_seed_scan_prepares_what_the_reference_search_prepares(data):
    """One scan and each ``instantiate`` give the reference's first seed per target, or its error.

    Threshold readings into one bit space, a one-register tuple and several
    registers; few levels, so that seeds often read alike; targets drawn from
    the seeds' readings and the whole codomain, with repeats, so that some
    have no seed; noise-free and noisy engineering, with an empty update or
    one pinned line.
    """
    shape = data.draw(st.sampled_from(("bits", "one-register", "registers")))
    many = shape == "registers"
    widths = data.draw(st.lists(st.integers(1, 2 if many else 3), min_size=1 + many, max_size=1 + 2 * many))
    registers = tuple(BitSpace(f"r{w}", w) for w in widths)
    codomain = registers[0] if shape == "bits" else TupleSpace("registers", registers)
    n = sum(widths)
    lines = RealVectorSpace(f"v{n}", ((0.0, 5.0),) * n)
    thresholds = data.draw(st.lists(st.sampled_from([1.0, 2.5, 5.0]), min_size=n, max_size=n))
    read = RepresentationRelation("read", lines, codomain, ThresholdRule(tuple(thresholds)))
    levels = st.lists(st.sampled_from([0.0, 1.0, 2.5, 5.0]), min_size=n, max_size=n)
    seeds = tuple(PhysicalState(lines, tuple(v)) for v in data.draw(st.lists(levels, max_size=8)))
    noise = data.draw(st.none() | st.builds(
        CoordinateFlipNoise, st.sampled_from([0.3, 0.7, 1.0]),
        st.lists(st.integers(0, n - 1), max_size=3).map(tuple), st.just(2.5), st.just(0.0), st.just(5.0),
    ))
    pins = data.draw(st.sampled_from([(), (ConstantUpdate((0,), (5.0,)),)]))
    engineering = PhysicalDynamics("settle", lines, CoordinateUpdateRule(pins), noise)
    theory = Theory("scan", read, (), (), InstantiationProcedure(seeds, engineering))
    readings = [represent(read, seed) for seed in seeds]
    everything = [AbstractState(codomain, v) for v in enumerate_values(codomain)]
    targets = data.draw(st.lists(st.sampled_from(readings + everything), min_size=1, max_size=6))
    expected = _prepared_in_turn(lambda target: reference.instantiate(theory, target), targets)
    scan = _prepare(theory, targets)
    assert _prepared_in_turn(lambda target: next(scan), targets) == expected
    assert _prepared_in_turn(lambda target: instantiate(theory, target), targets) == expected


def test_instantiate_steps_and_reads_the_seeds_up_to_its_target_once_each(monkeypatch):
    """Cost law: on the 3-bit adder's seed grid, (a, b, 0000) sits at seed 128a + 16b, and no earlier.

    So ``instantiate`` steps and reads exactly 128a + 16b + 1 seeds, and
    stops at the first seed that reads as its target.
    """
    theory = adder_theory(3, seed_grid=True)
    seeds = theory.instantiation.seeds
    assert len(seeds) == 1024
    counts = count_device_work(monkeypatch)
    for a, b in ((0, 0), (0, 5), (3, 1), (7, 7)):
        counts.update(rule=0, read=0)
        target = AbstractState(theory.representation.codomain, (format(a, "03b"), format(b, "03b"), "0000"))
        assert instantiate(theory, target) == seeds[128 * a + 16 * b]
        assert counts == {"rule": 128 * a + 16 * b + 1, "read": 128 * a + 16 * b + 1}


def test_instantiate_matches_exhaustive_seed_search_on_adder():
    bundle = build_voltage_adder()
    theory = bundle.theory("adder")
    relation = theory.representation
    target = AbstractState(relation.codomain, ("01", "10", "000"))
    # independent oracle: scan the declared seeds directly
    expected = None
    for seed in theory.instantiation.seeds:
        if represent(relation, seed) == target:
            expected = seed
            break
    assert expected is not None
    assert instantiate(theory, target) == expected


def test_instantiate_round_trip_and_determinism_on_adder():
    bundle = build_voltage_adder()
    theory = bundle.theory("adder")
    relation = theory.representation
    targets = {represent(relation, seed) for seed in theory.instantiation.seeds}
    assert len(targets) == 128
    for target in targets:
        prepared = instantiate(theory, target)
        assert represent(relation, prepared) == target
        assert instantiate(theory, target) == prepared


def test_theory_declaration_validation():
    cells = PhysicalLabelSpace("cells", ("a", "b"))
    modes = LabelSpace("modes", ("x", "y"))
    read = RepresentationRelation("read", cells, modes, LookupRule({"a": "x", "b": "y"}))
    keep = PhysicalDynamics("keep", cells, TableRule({"a": "a", "b": "b"}))
    from abrep import AbstractDynamics, BuiltinRule

    wrong_space = AbstractDynamics("w", LabelSpace("zz", ("z",)), BuiltinRule("identity"))
    with pytest.raises(DeclarationError):
        Theory(
            id="bad",
            representation=read,
            domain=(PhysicalState(cells, "a"),),
            predictions=(Prediction("p", wrong_space, keep),),
        )


@pytest.mark.parametrize("entries", [5, [("a", "x"), ("b", "y")]], ids=["int", "pairs"])
def test_lookup_entries_must_be_a_mapping(entries):
    with pytest.raises(DeclarationError, match="table rule: entries: expected a Mapping"):
        LookupRule(entries)


@pytest.mark.parametrize("field", ["abstract", "physical"])
def test_prediction_references_are_type_checked(field):
    pred = _tiny_theory().predictions[0]
    with pytest.raises(DeclarationError, match=f"prediction 'hold'"):
        replace(pred, **{field: "dyn"})
    with pytest.raises(DeclarationError):  # each slot takes its own family of dynamics
        Prediction("swapped", pred.physical, pred.abstract)


@pytest.mark.parametrize(
    "seeds, engineering",
    [(5, None), (("a",), "hold"), ((5,), "hold"), ("seed", "hold"), ("good", None)],
)
def test_instantiation_references_are_type_checked(seeds, engineering):
    procedure = _tiny_theory().instantiation
    seeds = procedure.seeds if seeds == "good" else seeds
    engineering = procedure.engineering if engineering == "hold" else engineering
    with pytest.raises(DeclarationError):
        InstantiationProcedure(seeds, engineering)


@pytest.mark.parametrize(
    "field, value",
    [
        ("representation", "read"),
        ("domain", 5),
        ("domain", ("a",)),
        ("predictions", "hold"),
        ("predictions", ("hold",)),
        ("instantiation", 5),
    ],
)
def test_theory_references_are_type_checked(field, value):
    with pytest.raises(DeclarationError, match="theory 'tiny'"):
        replace(_tiny_theory(), **{field: value})


def test_validity_starts_untested_and_cannot_be_declared():
    theory = _tiny_theory()
    assert theory.validity == "untested"
    assert theory.evidence is None and not theory.is_valid
    fields = dict(
        id=theory.id,
        representation=theory.representation,
        domain=theory.domain,
        predictions=theory.predictions,
    )
    for declared in ("validity", "evidence"):
        with pytest.raises(TypeError):
            Theory(**fields, **{declared: None})


def _adder_shapes():
    """Shape errors of the built-in adder's relation and theory: fields to replace, message."""
    theory = build_voltage_adder().theory("adder")
    read, pred, inst = theory.representation, theory.predictions[0], theory.instantiation
    cells = PhysicalLabelSpace("cells", ("a", "b"))
    stray = (PhysicalState(cells, "a"),)
    return {
        "threshold-domain": (read, {"domain": cells}, "threshold rules need a real-vector domain"),
        "threshold-count": (
            read, {"rule": ThresholdRule((2.5,) * 6)}, "one threshold per coordinate required"
        ),
        "threshold-codomain": (
            read,
            {"codomain": LabelSpace("modes", ("x", "y"))},
            "codomain must be a bitstring register or a tuple of bitstring registers",
        ),
        "domain": (theory, {"domain": stray}, "domain state outside the represented space"),
        "duplicate-predictions": (
            theory, {"predictions": (pred, pred)}, "duplicate prediction names"
        ),
        "prediction-device": (
            theory,
            {"predictions": (Prediction("add", pred.abstract, identity_dynamics("hold", cells)),)},
            "prediction 'add' device dynamics act on the wrong space",
        ),
        "engineering": (
            theory,
            {"instantiation": InstantiationProcedure(inst.seeds, identity_dynamics("h", cells))},
            "engineering dynamics act on the wrong space",
        ),
        "seed": (
            theory,
            {"instantiation": InstantiationProcedure(stray, inst.engineering)},
            "seed outside the represented space",
        ),
    }


@pytest.mark.parametrize("case", list(_adder_shapes()))
def test_relation_and_theory_shape_errors_name_their_owner(case):
    decl, fields, message = _adder_shapes()[case]
    owner = "theory 'adder'" if isinstance(decl, Theory) else "relation 'adder.read'"
    with pytest.raises(DeclarationError, match=re.escape(f"{owner}: {message}")):
        replace(decl, **fields)


def test_a_tuple_wise_rule_needs_matching_products():
    read = build_swap_device().theory("swap").representation
    with pytest.raises(
        DeclarationError, match="relation 'swap.read': tuple-wise rules need matching products"
    ):
        replace(read, rule=TupleWiseRule(read.rule.parts[:1]))


def test_a_table_image_outside_the_codomain_names_the_relation():
    cells = PhysicalLabelSpace("cells", ("a", "b"))
    modes = LabelSpace("modes", ("x", "y"))
    with pytest.raises(DeclarationError, match="relation 'r': image of 'a' leaves 'modes'"):
        RepresentationRelation("r", cells, modes, LookupRule({"a": "z", "b": "x"}))
