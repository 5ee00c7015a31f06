import copy
import itertools
import pickle
import random
import re
from dataclasses import replace

import pytest

import abrep.composition
import abrep.dynamics
import abrep.spaces
from abrep import (
    AbstractDynamics,
    AbstractState,
    BitSpace,
    BuiltinRule,
    CheckSpec,
    Component,
    DISCRETE,
    DeclarationError,
    HETEROTIC,
    HYBRID,
    IntSpace,
    JointSystem,
    LabelSpace,
    LookupRule,
    NotEnumerable,
    PhysicalLabelSpace,
    PhysicalState,
    PhysicalTupleSpace,
    Prediction,
    ProductRule,
    RealVectorSpace,
    RepresentationRelation,
    TableRule,
    Theory,
    TheoryNotValidated,
    ThresholdRule,
    TooLarge,
    TrialSeed,
    TupleSpace,
    brute_force_classify,
    build_social_machine,
    build_swap_device,
    build_voltage_adder,
    build_xor_joint,
    classify,
    componentwise_joint,
    compose_parallel,
    enumerate_states,
    enumerate_values,
    emit_scenario,
    evolve_abstract,
    identity_dynamics,
    parse_scenario,
    represent,
    validate_theory,
)
from abrep.runner import run_checks
from abrep.scenarios import _bundle
import reference
from support import count_calls, random_joint_system, xor_joint_variant

SEED = TrialSeed(0)


def validated(theory):
    graded, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    assert evidence.all_passed, theory.id
    return graded


def xor_components():
    bundle = build_xor_joint()
    joint = bundle.joint("xor.joint")
    left = Component(validated(joint.left.theory), joint.left.dynamics)
    right = Component(validated(joint.right.theory), joint.right.dynamics)
    return left, right, joint


def test_compose_parallel_acts_componentwise():
    left, right, _ = xor_components()
    joint = compose_parallel(left, right, "both")
    for p in enumerate_states(joint.joint_space):
        reading = represent(joint.joint_representation, p)
        expected = (
            represent(left.theory.representation, PhysicalState(left.theory.representation.domain, p.value[0])).value,
            represent(right.theory.representation, PhysicalState(right.theory.representation.domain, p.value[1])).value,
        )
        assert reading.value == expected
    for m in enumerate_states(joint.joint_dynamics.space):
        image = evolve_abstract(joint.joint_dynamics, m)
        assert image.value == (
            evolve_abstract(left.dynamics, AbstractState(left.dynamics.space, m.value[0])).value,
            evolve_abstract(right.dynamics, AbstractState(right.dynamics.space, m.value[1])).value,
        )


def test_compose_two_validated_not_devices():
    # the construction is definitional: paired reading, coordinate-wise action
    bundle = build_xor_joint()
    bit_not = AbstractDynamics(
        "invert", bundle.theory("xor.left").representation.codomain, TableRule({"0": "1", "1": "0"})
    )
    left = Component(validated(bundle.theory("xor.left")), bit_not)
    right = Component(validated(bundle.theory("xor.right")), bit_not)
    joint = compose_parallel(left, right, "two-inverters")
    for m in enumerate_states(joint.joint_dynamics.space):
        a, b = m.value
        flipped = {"0": "1", "1": "0"}
        assert evolve_abstract(joint.joint_dynamics, m).value == (flipped[a], flipped[b])
    assert classify(joint).value == HYBRID


def test_component_dynamics_must_act_on_represented_values():
    from abrep.errors import DeclarationError

    bundle = build_xor_joint()
    theory = bundle.theory("xor.left")
    swap_dyn = build_swap_device().theory("swap").predictions[0].abstract
    with pytest.raises(DeclarationError):
        Component(theory, swap_dyn)


def test_compose_requires_validated_components():
    bundle = build_xor_joint()
    joint = bundle.joint("xor.joint")
    with pytest.raises(TheoryNotValidated):
        compose_parallel(joint.left, joint.right)


def test_compose_adder_with_swap_acts_componentwise_but_is_not_enumerable():
    adder = build_voltage_adder().theory("adder")
    swap = build_swap_device().theory("swap")
    left = Component(validated(adder), adder.predictions[0].abstract)
    right = Component(validated(swap), swap.predictions[0].abstract)
    joint = compose_parallel(left, right, "adder-and-swap")
    for m in itertools.islice(enumerate_states(joint.joint_dynamics.space), 0, 12800, 97):
        image = evolve_abstract(joint.joint_dynamics, m)
        assert image.value == (
            evolve_abstract(left.dynamics, AbstractState(left.dynamics.space, m.value[0])).value,
            evolve_abstract(right.dynamics, AbstractState(right.dynamics.space, m.value[1])).value,
        )
    with pytest.raises(NotEnumerable):
        classify(joint)


def test_the_witness_splits_the_reading_of_a_componentwise_joint():
    left, right, _ = xor_components()
    joint = compose_parallel(left, right, "both")
    factors = classify(joint).witness.representation_factors
    assert factors is not None
    fmap, gmap = factors
    for p in enumerate_states(left.theory.representation.domain):
        assert fmap[p.value] == represent(left.theory.representation, p).value
    for q in enumerate_states(right.theory.representation.domain):
        assert gmap[q.value] == represent(right.theory.representation, q).value


def test_xor_coupled_representation_does_not_factor():
    left, right, base = xor_components()
    space = base.joint_space
    bit = base.joint_representation.codomain.components[0]
    pair = base.joint_representation.codomain
    to_bit = {"off": "0", "on": "1"}

    def xored(p, q):
        return str(int(to_bit[p]) ^ int(to_bit[q]))

    coupled = RepresentationRelation(
        "coupled",
        space,
        pair,
        LookupRule({(p, q): (xored(p, q), to_bit[q]) for (p, q) in enumerate_values(space)}),
    )
    joint = JointSystem(
        "coupled-joint", base.left, base.right, space, coupled, base.joint_dynamics, "declared"
    )
    decision = classify(joint)
    assert decision.witness.representation_factors is None
    assert decision.value == HETEROTIC


def test_social_machine_representation_returns_none():
    bundle = build_social_machine()
    joint = bundle.joint("social.galaxy-zoo")
    assert classify(joint).witness.representation_factors is None


def test_the_witness_splits_factorable_dynamics_and_refuses_the_rest():
    """``classify``'s witness is the one factorization API: its dynamics tables, or None."""
    identity = {"0": "0", "1": "1"}
    f, g = classify(xor_joint_variant("not-first")).witness.dynamics_factors
    assert f == {"0": "1", "1": "0"} and g == identity
    f, g = classify(xor_joint_variant("identity")).witness.dynamics_factors
    assert f == identity and g == identity

    # xor couples the halves; galaxy-zoo's joint codomain is not a pair
    assert classify(build_xor_joint().joint("xor.joint")).witness.dynamics_factors is None
    galaxy_zoo = build_social_machine().joint("social.galaxy-zoo")
    assert not isinstance(galaxy_zoo.joint_dynamics.space, TupleSpace)
    assert classify(galaxy_zoo).witness.dynamics_factors is None


def test_classify_evaluates_each_joint_map_once_per_pair_until_a_row_couples(monkeypatch):
    """Gate: the splitter's evaluation law, as the (reading, dynamics) evaluations of one classification.

    Each map is evaluated once per pair of its two halves' values, row by
    row. The split stops after the first row whose first coordinate depends
    on the second half, and a codomain that is not a pair evaluates nothing.
    """
    split, counts = abrep.composition._split_coordinates, []

    def counted_split(space, codomain, joint):
        counts.append(0)

        def counted(pair):
            counts[-1] += 1
            return joint(pair)

        return split(space, codomain, counted)

    monkeypatch.setattr(abrep.composition, "_split_coordinates", counted_split)
    social, xor = build_social_machine(), build_xor_joint()
    cases = [
        (social.joint("social.side-by-side"), (6 * 4, 3 * 3)),  # every pair of each map
        (social.joint("social.galaxy-zoo"), (0, 0)),  # reads into labels, not a pair
        (xor.joint("xor.joint"), (2 * 2, 2)),  # xor's first row already depends on b
    ]
    for joint, evaluations in cases:
        counts.clear()
        classify(joint)
        assert tuple(counts) == evaluations, joint.id


def test_classify_composed_outputs_are_hybrid():
    left, right, _ = xor_components()
    joints = (
        compose_parallel(left, right, "par"),
        componentwise_joint("side-by-side", left, right),
    )
    for joint in joints:
        decision = classify(joint)
        assert decision.value == HYBRID
        assert decision.witness.representation_factors is not None
        assert decision.witness.dynamics_factors is not None


def swap_component():
    swap = build_swap_device().theory("swap")
    return Component(validated(swap), swap.predictions[0].abstract)


def test_componentwise_joint_pairs_the_halves_without_evaluating_them(monkeypatch):
    comp = swap_component()
    counts = count_calls(
        monkeypatch,
        evolve=abrep.dynamics.evolve_abstract,
        normalize=abrep.spaces.normalize_value,
    )
    joint = componentwise_joint("swap-x-swap", comp, comp)
    assert counts == {"evolve": 0, "normalize": 0}  # 200 and 70,600 with a product table
    space = joint.joint_dynamics.space
    for a, b in enumerate_values(space):
        image = evolve_abstract(joint.joint_dynamics, AbstractState(space, (a, b)))
        assert image.value == (
            evolve_abstract(comp.dynamics, AbstractState(comp.dynamics.space, a)).value,
            evolve_abstract(comp.dynamics, AbstractState(comp.dynamics.space, b)).value,
        )


def test_classify_reads_enumerated_values_straight_through_the_rules(monkeypatch):
    """Gate: on swap x swap, classify normalizes no value: each is enumerated or read."""
    comp = swap_component()
    joint = compose_parallel(comp, comp, "swap-x-swap")
    counts = count_calls(monkeypatch, normalize=abrep.spaces.normalize_value)
    assert classify(joint).value == HYBRID
    assert counts["normalize"] == 0  # 1,800 with a state per enumerated value, 141,800 per pair


def test_a_joint_copies_and_pickles_after_it_is_classified():
    """The generated product maps are cached evaluators, so copies leave them out and build their own."""
    comp = swap_component()
    joint = compose_parallel(comp, comp, "swap-x-swap")
    verdict = classify(joint)
    assert {"_apply"} <= vars(joint.joint_dynamics).keys() & vars(joint.joint_representation).keys()
    for again in (copy.copy(joint), copy.deepcopy(joint), pickle.loads(pickle.dumps(joint))):
        assert again == joint and classify(again) == verdict


def validated_components() -> list[Component]:
    """The five components of the built-in joints, each over its validated theory."""
    xor = build_xor_joint().joint("xor.joint")
    social = build_social_machine()
    galaxy = social.joint("social.galaxy-zoo")
    return [
        Component(validated(xor.left.theory), xor.left.dynamics),
        Component(validated(xor.right.theory), xor.right.dynamics),
        swap_component(),
        Component(validated(social.theory("social.human")), galaxy.left.dynamics),
        Component(validated(social.theory("social.machine")), galaxy.right.dynamics),
    ]


def test_classify_composed_joint_as_its_materialized_table():
    """The product rule classifies exactly as the product table it replaces: verdict and witness."""
    parts = validated_components()
    for left, right in itertools.product(parts, repeat=2):
        joint = compose_parallel(left, right, f"{left.theory.id}*{right.theory.id}")
        space = joint.joint_dynamics.space
        table = {
            v: evolve_abstract(joint.joint_dynamics, AbstractState(space, v)).value
            for v in enumerate_values(space)
        }
        tabled = replace(
            joint, joint_dynamics=AbstractDynamics("tabled", space, TableRule(table))
        )
        decision, reference = classify(joint), classify(tabled)
        assert decision == reference, joint.id
        for ours, theirs in (
            (decision.witness.representation_factors, reference.witness.representation_factors),
            (decision.witness.dynamics_factors, reference.witness.dynamics_factors),
        ):
            assert [list(m) for m in ours] == [list(m) for m in theirs], joint.id


def test_component_references_are_type_checked():
    theory = build_xor_joint().theory("xor.left")
    with pytest.raises(DeclarationError, match="component: theory: expected a Theory"):
        Component("t", "d")
    with pytest.raises(DeclarationError, match="component: dynamics: expected an AbstractDynamics"):
        Component(theory, "d")


@pytest.mark.parametrize(
    "field", ["left", "right", "joint_space", "joint_representation", "joint_dynamics"]
)
def test_joint_references_are_type_checked(field):
    joint = build_xor_joint().joint("xor.joint")
    wrong = joint.left.theory.representation.domain  # a physical space, but no product
    with pytest.raises(DeclarationError, match="joint 'xor.joint'"):
        replace(joint, **{field: wrong})


@pytest.mark.parametrize(
    "field, message",
    [
        ("joint_representation", "joint representation does not read the product"),
        ("joint_dynamics", "joint dynamics do not act on the joint codomain"),
    ],
)
def test_joint_shape_errors_name_the_joint(field, message):
    joint = build_xor_joint().joint("xor.joint")
    half = {"joint_representation": joint.left.theory.representation}
    half["joint_dynamics"] = joint.left.dynamics
    with pytest.raises(DeclarationError, match=re.escape(f"joint 'xor.joint': {message}")):
        replace(joint, **{field: half[field]})


def test_unknown_provenance_is_a_declaration_error():
    joint = build_xor_joint().joint("xor.joint")
    with pytest.raises(DeclarationError, match="provenance"):
        replace(joint, provenance="composed-sequential")


def _swapped(joint: JointSystem) -> JointSystem:
    """``joint`` rebuilt with its halves swapped: it reads and steps each pair the other way round."""
    rep, dyn, space = joint.joint_representation, joint.joint_dynamics, joint.joint_space
    floor = PhysicalTupleSpace(f"{space.id}.swapped", space.components[::-1])
    values = TupleSpace(f"{dyn.space.id}.swapped", dyn.space.components[::-1])
    read = RepresentationRelation(f"{rep.id}.swapped", floor, values, TableRule({
        (b, a): represent(rep, PhysicalState(space, (a, b))).value[::-1] for a, b in enumerate_values(space)
    }))
    step = AbstractDynamics(f"{dyn.id}.swapped", values, TableRule({
        (y, x): evolve_abstract(dyn, AbstractState(dyn.space, (x, y))).value[::-1]
        for x, y in enumerate_values(dyn.space)
    }))
    return JointSystem(f"{joint.id}.swapped", joint.right, joint.left, floor, read, step, "declared")


@pytest.mark.parametrize("build, verdict", [
    (lambda: build_social_machine().joint("social.side-by-side"), HYBRID),
    (lambda: build_xor_joint().joint("xor.joint"), HETEROTIC),
], ids=["side-by-side", "xor"])
def test_a_joint_keeps_its_class_with_its_halves_swapped(build, verdict):
    """Metamorphic: which half is the left one is a naming choice, and no classifier may depend on it.

    The class holds, and the witness swaps: the swapped joint's left factor
    tables are the original's right ones, and the other way round, each keyed
    by its own half. Catches a ``_split_coordinates`` that checks that each
    row of the table has one first coordinate but not that each column has
    one second: the swapped xor writes its parity into the second cell, and
    would classify Hybrid. Catches a classifier that returns its dynamics
    factors in the wrong order, which no verdict shows: side-by-side's left
    factor acts on tags, and its right one on tallies.
    """
    joint = build()
    halves = {
        "representation_factors": joint.joint_space.components,
        "dynamics_factors": joint.joint_dynamics.space.components,
    }
    for decide in (classify, brute_force_classify):
        original, swapped = decide(joint), decide(_swapped(joint))
        assert original.value == swapped.value == verdict
        for name, spaces in halves.items():
            factors = getattr(original.witness, name)
            assert getattr(swapped.witness, name) == (None if factors is None else factors[::-1])
            assert factors is None or [set(t) for t in factors] == [set(enumerate_values(h)) for h in spaces]
        assert (original.witness.dynamics_factors is None) == (verdict == HETEROTIC)


def test_classify_xor_joint_is_heterotic():
    _, _, joint = xor_components()
    decision = classify(joint)
    assert decision.value == HETEROTIC
    assert decision.witness.dynamics_factors is None
    # whatever partial witness is returned still reproduces the joint map
    fmap, gmap = decision.witness.representation_factors
    for p in enumerate_states(joint.joint_space):
        reading = represent(joint.joint_representation, p)
        assert reading.value == (fmap[p.value[0]], gmap[p.value[1]])


def test_classify_social_machine_is_heterotic():
    bundle = build_social_machine()
    decision = classify(bundle.joint("social.galaxy-zoo"))
    assert decision.value == HETEROTIC
    assert classify(bundle.joint("social.side-by-side")).value == HYBRID


def test_witness_reproduces_joint_maps_exactly():
    left, right, _ = xor_components()
    joint = compose_parallel(left, right, "both")
    decision = classify(joint)
    fmap, gmap = decision.witness.representation_factors
    for p in enumerate_states(joint.joint_space):
        reading = represent(joint.joint_representation, p)
        assert reading.value == (fmap[p.value[0]], gmap[p.value[1]])
    fdyn, gdyn = decision.witness.dynamics_factors
    for m in enumerate_states(joint.joint_dynamics.space):
        image = evolve_abstract(joint.joint_dynamics, m)
        assert image.value == (fdyn[m.value[0]], gdyn[m.value[1]])


def test_mismatched_factors_classify_heterotic_in_both_classifiers():
    # the joint representation factors structurally, but not through the
    # declared component readings
    left, right, base = xor_components()
    space = base.joint_space
    pair = base.joint_representation.codomain
    inverted = {"off": "1", "on": "0"}
    straight = {"off": "0", "on": "1"}
    mismatched = RepresentationRelation(
        "mismatched",
        space,
        pair,
        LookupRule({(p, q): (inverted[p], straight[q]) for (p, q) in enumerate_values(space)}),
    )
    from abrep import BuiltinRule

    joint = JointSystem(
        "mismatched-joint",
        base.left,
        base.right,
        space,
        mismatched,
        AbstractDynamics("ident", pair, BuiltinRule("identity")),
        "declared",
    )
    decision = classify(joint)
    assert decision.witness.representation_factors is not None
    assert decision.value == HETEROTIC
    assert brute_force_classify(joint).value == HETEROTIC


def _look_alike_bundle():
    """The xor components under a declared joint whose reading splits into look-alikes of theirs.

    The joint reads each cell as its component does, value for value, but into
    width-1 bit spaces with other ids than the components' ``xor.bit``; the
    joint dynamics are the identity. A classify check expects Heterotic, with the oracle.
    """
    xor = build_xor_joint()
    base = xor.joint("xor.joint")
    left, right = base.joint_space.components
    look_left, look_right = BitSpace("look.left.bit", 1), BitSpace("look.right.bit", 1)
    pair = TupleSpace("look.pair", (look_left, look_right))
    reads = [
        RepresentationRelation(f"look.{side}.read", cell, bit, TableRule({"off": "0", "on": "1"}))
        for side, cell, bit in (("left", left, look_left), ("right", right, look_right))
    ]
    reading = RepresentationRelation("look.read-pair", base.joint_space, pair, ProductRule(tuple(reads)))
    keep = AbstractDynamics("look.keep-pair", pair, BuiltinRule("identity"))
    joint = replace(base, id="look.joint", joint_representation=reading, joint_dynamics=keep)
    check = CheckSpec(
        "classify-look-alike", "classify", joint="look.joint", expect_class="Heterotic", oracle=True
    )
    return _bundle(
        (check,), *xor.abstract_spaces, look_left, look_right, pair, *xor.physical_spaces,
        *xor.relations, *reads, reading, *xor.abstract_dynamics, keep, *xor.physical_dynamics,
        *xor.theories, joint,
    )


def test_a_reading_into_look_alike_spaces_is_not_the_declared_reading():
    """Gate: factors that agree with the declared readings value for value, in other spaces, are not them.

    Each reading factor equals its component's reading on every cell, yet
    reads into a space that is not the component's codomain, so neither
    classifier may call the joint Hybrid.
    """
    joint = _look_alike_bundle().joint("look.joint")
    decision = classify(joint)
    declared = (joint.left.theory.representation, joint.right.theory.representation)
    for factors, relation in zip(decision.witness.representation_factors, declared):
        assert factors == relation.rule.entries
    assert decision.witness.dynamics_factors is not None
    assert decision.value == brute_force_classify(joint).value == HETEROTIC


def test_a_document_of_the_look_alike_joint_runs_heterotic():
    bundle = parse_scenario(emit_scenario(_look_alike_bundle()))
    report = run_checks(bundle)
    assert report.exit_code == 0
    (result,) = [r for r in report.results if r.kind == "classify"]
    assert (result.detail["class"], result.detail["oracle_class"]) == ("Heterotic", "Heterotic")


def test_brute_force_finds_witness_for_factorable_dynamics():
    joint = xor_joint_variant("not-first")
    decision = brute_force_classify(joint)
    assert decision.value == HYBRID
    f, g = decision.witness.dynamics_factors
    assert f == {"0": "1", "1": "0"}
    assert g == {"0": "0", "1": "1"}


def test_brute_force_rejects_large_component_spaces():
    cells = PhysicalLabelSpace("c", tuple(f"c{i}" for i in range(7)))
    values = LabelSpace("v", tuple(f"v{i}" for i in range(7)))
    read = RepresentationRelation(
        "read", cells, values, LookupRule({f"c{i}": f"v{i}" for i in range(7)})
    )
    from abrep import BuiltinRule, InstantiationProcedure, Prediction, Theory, identity_dynamics

    hold = identity_dynamics("hold", cells)
    keep = AbstractDynamics("keep", values, BuiltinRule("identity"))
    theory = Theory(
        id="wide",
        representation=read,
        domain=tuple(PhysicalState(cells, l) for l in cells.labels),
        predictions=(Prediction("keep", keep, hold),),
    )
    comp = Component(theory, keep)
    joint = componentwise_joint("wide-joint", comp, comp)
    with pytest.raises(TooLarge):
        brute_force_classify(joint)


def test_brute_force_rejects_unenumerable_candidate_counts():
    # tiny abstract spaces over a wide physical space: the per-factor
    # candidate count 2**30 exceeds the oracle's work cap
    cells = PhysicalLabelSpace("widecells", tuple(f"c{i}" for i in range(30)))
    bit = BitSpace("narrowbit", 1)
    read = RepresentationRelation(
        "read", cells, bit, LookupRule({c: "0" for c in cells.labels})
    )
    from abrep import BuiltinRule, InstantiationProcedure, Prediction, Theory, identity_dynamics

    keep = AbstractDynamics("keep", bit, BuiltinRule("identity"))
    theory = Theory(
        id="wide-physical",
        representation=read,
        domain=tuple(PhysicalState(cells, l) for l in cells.labels),
        predictions=(Prediction("keep", keep, identity_dynamics("hold", cells)),),
    )
    comp = Component(theory, keep)
    joint = componentwise_joint("wide-physical-joint", comp, comp)
    assert classify(joint).value == "Hybrid"
    with pytest.raises(TooLarge):
        brute_force_classify(joint)


def test_brute_force_rejects_a_declared_joint_codomain_half_past_its_bound():
    joint = build_xor_joint().joint("xor.joint")
    wide = TupleSpace("wide", (IntSpace("seven", 0, 6), BitSpace("bit", 1)))
    read = RepresentationRelation(
        "wide.read", joint.joint_space, wide,
        LookupRule({p: (0, "0") for p in enumerate_values(joint.joint_space)}),
    )
    keep = AbstractDynamics("wide.keep", wide, BuiltinRule("identity"))
    declared = replace(
        joint, joint_representation=read, joint_dynamics=keep, provenance="declared"
    )
    with pytest.raises(TooLarge, match="joint codomain halves exceed the oracle bound"):
        brute_force_classify(declared)


def test_degenerate_joint_space_is_rejected():
    left, right, base = xor_components()
    with pytest.raises(DeclarationError, match="not the ordered product"):
        JointSystem(
            "bad",
            base.left,
            base.right,
            PhysicalTupleSpace("solo", (base.left.theory.representation.domain,) * 2),
            base.joint_representation,
            base.joint_dynamics,
            "declared",
        )


def decision(result):
    """A classification's verdict and witness, each factor as its item list so that order counts."""
    items = lambda factors: None if factors is None else [list(f.items()) for f in factors]
    witness = result.witness
    return result.value, items(witness.representation_factors), items(witness.dynamics_factors)


def test_oracle_agrees_on_random_joint_systems():
    """The classifier, its oracle and the reference classify agree, on joints of both classes."""
    rng = random.Random(2024)
    verdicts = set()
    for i in range(60):
        joint = random_joint_system(rng, f"rnd{i}")
        decided = classify(joint)
        assert decision(decided) == decision(brute_force_classify(joint))
        assert decided.value == reference.classify(joint)
        verdicts.add(decided.value)
    assert verdicts == {HYBRID, HETEROTIC}


@pytest.mark.parametrize(
    "build, verdict",
    [
        (lambda: build_xor_joint().joint("xor.joint"), HETEROTIC),
        (lambda: build_social_machine().joint("social.galaxy-zoo"), HETEROTIC),
        (lambda: _look_alike_bundle().joint("look.joint"), HETEROTIC),
        (lambda: xor_joint_variant("not-first"), HYBRID),
    ],
    ids=["xor", "social-machine", "look-alike", "xor-not-first"],
)
def test_oracle_and_reference_agree_with_the_classifier_on_fixed_joints(build, verdict):
    """Gate: the oracle finds the classifier's witness, and the reference its verdict.

    The reference decides pair by pair and shares no code with the two
    classifiers, so a fault in their common ``_verdict`` or
    ``_factors_match_declared`` shows here.
    """
    joint = build()
    assert decision(classify(joint)) == decision(brute_force_classify(joint))
    assert reference.classify(joint) == classify(joint).value == verdict


def test_both_classifiers_refuse_continuous_halves():
    line = RealVectorSpace("line", ((0.0, 5.0),))
    bit = BitSpace("bit", 1)
    read = RepresentationRelation("read", line, bit, ThresholdRule((2.5,)))
    keep = AbstractDynamics("keep", bit, BuiltinRule("identity"))
    states = (PhysicalState(line, (0.0,)), PhysicalState(line, (5.0,)))
    theory = Theory("line", read, states, (Prediction("keep", keep, identity_dynamics("hold", line)),))
    joint = componentwise_joint("lines", Component(theory, keep), Component(theory, keep))
    for decide in (classify, brute_force_classify):
        with pytest.raises(NotEnumerable, match="space 'line' is continuous"):
            decide(joint)


def test_classification_is_invariant_under_physical_relabeling():
    rng = random.Random(5)
    for i in range(15):
        joint = random_joint_system(rng, f"rel{i}")
        baseline = classify(joint).value

        left_space = joint.left.theory.representation.domain
        labels = list(left_space.labels)
        shuffled = labels[1:] + labels[:1]
        renamed = PhysicalLabelSpace(left_space.id + ".renamed", tuple(shuffled))
        bijection = dict(zip(shuffled, labels))

        def remap_rep(rel, new_domain, mapping):
            return RepresentationRelation(
                rel.id + ".renamed",
                new_domain,
                rel.codomain,
                LookupRule({l: rel.rule.entries[mapping[l]] for l in new_domain.labels}),
            )

        new_left_read = remap_rep(joint.left.theory.representation, renamed, bijection)
        from abrep import InstantiationProcedure, Prediction, Theory, identity_dynamics

        old = joint.left.theory
        new_states = tuple(PhysicalState(renamed, l) for l in renamed.labels)
        new_left_theory = Theory(
            id=old.id + ".renamed",
            representation=new_left_read,
            domain=new_states,
            predictions=(
                Prediction(
                    old.predictions[0].name,
                    old.predictions[0].abstract,
                    identity_dynamics("settle.renamed", renamed),
                ),
            ),
            instantiation=InstantiationProcedure(new_states, identity_dynamics("hold.renamed", renamed)),
        )
        new_space = PhysicalTupleSpace(
            joint.joint_space.id + ".renamed", (renamed, joint.joint_space.components[1])
        )
        old_rep = joint.joint_representation
        new_joint_read = RepresentationRelation(
            old_rep.id + ".renamed",
            new_space,
            old_rep.codomain,
            LookupRule(
                {
                    (p, q): (
                        old_rep.rule.entries[(bijection[p], q)]
                        if isinstance(old_rep.rule, LookupRule)
                        else represent(
                            old_rep, PhysicalState(joint.joint_space, (bijection[p], q))
                        ).value
                    )
                    for (p, q) in enumerate_values(new_space)
                }
            ),
        )
        renamed_joint = JointSystem(
            joint.id + ".renamed",
            Component(new_left_theory, joint.left.dynamics),
            joint.right,
            new_space,
            new_joint_read,
            joint.joint_dynamics,
            "declared",
        )
        assert classify(renamed_joint).value == baseline
