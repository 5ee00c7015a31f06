import math
import os
import re
import resource
import subprocess
import sys
from dataclasses import replace

import pytest

import abrep.dynamics
import abrep.refinement
import abrep.relations
import abrep.spaces
import abrep.verification

from abrep import (
    BUILTIN_SCENARIOS,
    AbstractState,
    BitSpace,
    CoordinateFlipNoise,
    DISCRETE,
    LabelSpace,
    METRICS,
    NotInstantiable,
    OutOfDomain,
    RealVectorSpace,
    RefinementLayer,
    RefinementStack,
    SimulationRelation,
    TrialSeed,
    build_refinement_stack,
    check_layer,
    check_stack_to_device,
    derive_seed,
    enumerate_states,
    enumerate_values,
    evolve_abstract,
    evolve_physical,
    identity_dynamics,
    instantiate,
    run_checks,
    run_compute_cycle,
    validate_theory,
)
from abrep.dynamics import AbstractDynamics, BuiltinRule
from abrep.errors import DeclarationError
from abrep.refinement import StackReport, reachable_bottom_states
import reference
from support import count_calls, count_device_work, record_calls

SEED = TrialSeed(0)


def stack_pieces(mis_declared=False):
    bundle = build_refinement_stack(mis_declared)
    return bundle, bundle.stack("stack.adder")


def test_decimal_over_binary_layer_commutes():
    _, stack = stack_pieces()
    report = check_layer(stack.relations[0], 0.0, DISCRETE)
    assert report.passed
    assert len(report.entries) == 4 * 4 * 7


@pytest.mark.parametrize("epsilon", [math.nan, -1.0, "0"], ids=["nan", "negative", "str"])
def test_layer_tolerance_must_be_a_non_negative_number(epsilon):
    _, stack = stack_pieces()
    with pytest.raises(DeclarationError):
        check_layer(stack.relations[0], epsilon, DISCRETE)


def test_binary_over_machine_word_layer_commutes():
    _, stack = stack_pieces()
    report = check_layer(stack.relations[1], 0.0, DISCRETE)
    assert report.passed


def test_identity_layers_with_identity_map_commute():
    _, stack = stack_pieces()
    word = stack.layers[-1].space
    ident = AbstractDynamics("ident", word, BuiltinRule("identity"))
    layer = RefinementLayer("only", word, ident)
    relation = SimulationRelation(
        "self", layer, layer, {v: v for v in enumerate_values(word)}
    )
    assert check_layer(relation, 0.0, DISCRETE).passed


def test_swapped_encoding_breaks_exactly_the_states_it_touches():
    _, stack = stack_pieces(mis_declared=True)
    report = check_layer(stack.relations[0], 0.0, DISCRETE)
    assert not report.passed
    failing = {e.state.value for e in report.entries if not e.passed}
    # hand evaluation: only states whose first digit encodes differently
    # under the swapped map can disagree after addition
    assert failing == {v for v in enumerate_values(stack.layers[0].space) if v[0] in (1, 2)}
    # the lower layer map is untouched
    assert check_layer(stack.relations[1], 0.0, DISCRETE).passed


def test_full_stack_passes_end_to_end():
    _, stack = stack_pieces()
    report = check_stack_to_device(stack, 0.0, DISCRETE, SEED)
    assert report.passed
    assert all(r.passed for r in report.layer_reports)
    assert len(report.device_entries) == len(reachable_bottom_states(stack))
    assert all(e.report.passed for e in report.device_entries)


def test_top_level_sum_prediction_reaches_the_device():
    _, stack = stack_pieces()
    top = AbstractState(stack.layers[0].space, (1, 2, 0))
    predicted = evolve_abstract(stack.layers[0].dynamics, top)
    assert predicted.value == (1, 2, 3)

    zero = AbstractState(stack.layers[0].space, (0, 0, 0))
    assert evolve_abstract(stack.layers[0].dynamics, zero).value == (0, 0, 0)

    mapped_input = top
    mapped_prediction = predicted
    for rel in stack.relations:
        mapped_input = rel.map_state(mapped_input)
        mapped_prediction = rel.map_state(mapped_prediction)

    graded, _ = validate_theory(stack.theory, 0.0, DISCRETE, 1, 1.0, SEED)
    result = run_compute_cycle(graded, mapped_input, "asm-add", stack.device, SEED)
    assert result.output == mapped_prediction
    assert result.output.value == "0110011"


def test_single_layer_stack_equals_validation_on_reachable_set():
    _, stack = stack_pieces()
    word_layer = stack.layers[-1]
    degenerate = RefinementStack(
        "degenerate", (word_layer,), (), stack.theory, stack.device
    )
    report = check_stack_to_device(degenerate, 0.0, DISCRETE, SEED)
    assert [e.state.value for e in report.device_entries] == list(
        enumerate_values(word_layer.space)
    )
    _, evidence = validate_theory(stack.theory, 0.0, DISCRETE, 1, 1.0, SEED)
    by_value = {cell.state: cell.report.passed for cell in evidence.cells}
    for entry in report.device_entries:
        prepared = instantiate(stack.theory, entry.state)
        assert entry.report.passed == by_value[prepared]
    assert report.passed == evidence.all_passed


def test_faulted_device_is_localized_to_the_boundary():
    from abrep import (
        BinarySumUpdate,
        ConstantUpdate,
        CoordinateUpdateRule,
        PhysicalDynamics,
    )

    _, stack = stack_pieces()
    faulted_volts = PhysicalDynamics(
        "stack.volts-faulted",
        stack.device.space,
        CoordinateUpdateRule(
            (
                BinarySumUpdate((0, 1), (2, 3), (4, 5, 6), 2.5, 0.0, 5.0),
                ConstantUpdate((6,), (0.0,)),
            )
        ),
    )
    wired = RefinementStack(
        "faulted", stack.layers, stack.relations, stack.theory, faulted_volts
    )
    report = check_stack_to_device(wired, 0.0, DISCRETE, SEED)
    assert not report.passed
    assert all(r.passed for r in report.layer_reports)
    failing = {e.state.value for e in report.device_entries if not e.report.passed}
    # exactly the reachable words whose true sum has an odd low bit
    expected = {
        v
        for v in (s.value for s in reachable_bottom_states(wired))
        if (int(v[0:2], 2) + int(v[2:4], 2)) % 2 == 1
    }
    assert failing == expected


def test_compositionality_from_top_input_to_device_output():
    _, stack = stack_pieces()
    graded, _ = validate_theory(stack.theory, 0.0, DISCRETE, 1, 1.0, SEED)
    for top in enumerate_states(stack.layers[0].space):
        mapped = top
        image = evolve_abstract(stack.layers[0].dynamics, top)
        for rel in stack.relations:
            mapped = rel.map_state(mapped)
            image = rel.map_state(image)
        result = run_compute_cycle(graded, mapped, "asm-add", stack.device, SEED)
        assert result.output == image


def test_stack_declaration_invariants():
    _, stack = stack_pieces()
    with pytest.raises(DeclarationError):
        RefinementStack("bad", stack.layers, (), stack.theory, stack.device)
    with pytest.raises(DeclarationError):
        RefinementStack(
            "bad", (stack.layers[0],), (), stack.theory, stack.device
        )


@pytest.mark.parametrize(
    "fields, message",
    [
        (lambda s: {"layers": (), "relations": ()}, "at least one layer required"),
        (
            lambda s: {"relations": s.relations[::-1]},
            "relation 'stack.bin-to-asm' does not connect layers 'stack.dec-layer' and 'stack.bin-layer'",
        ),
        (
            lambda s: {"device": identity_dynamics("hold", RealVectorSpace("v2", ((0.0, 5.0),) * 2))},
            "device dynamics act on the wrong space",
        ),
    ],
    ids=["no-layers", "miswired-relations", "device-space"],
)
def test_stack_shape_errors_name_the_stack(fields, message):
    _, stack = stack_pieces()
    with pytest.raises(DeclarationError, match=re.escape(f"stack 'stack.adder': {message}")):
        replace(stack, **fields(stack))


def test_layer_references_are_type_checked():
    _, stack = stack_pieces()
    with pytest.raises(DeclarationError):
        RefinementLayer("l", BitSpace("b", 1), "dyn")
    with pytest.raises(DeclarationError):
        RefinementLayer("l", stack.device.space, stack.layers[0].dynamics)


def test_a_layer_whose_dynamics_act_elsewhere_names_the_layer():
    _, stack = stack_pieces()
    top, middle = stack.layers[:2]
    message = f"layer {top.id!r}: dynamics act on a different space"
    with pytest.raises(DeclarationError, match=re.escape(message)):
        replace(top, dynamics=middle.dynamics)


def test_simulation_references_are_type_checked():
    _, stack = stack_pieces()
    with pytest.raises(DeclarationError):
        SimulationRelation("s", "up", "low", {})
    with pytest.raises(DeclarationError):
        SimulationRelation("s", stack.layers[0], "low", {})


@pytest.mark.parametrize(
    "fields",
    [
        lambda s: {"layers": 5},
        lambda s: {"layers": (s.layers[0], "x")},
        lambda s: {"relations": ("r",)},
        lambda s: {"theory": "t"},
        lambda s: {"device": s.layers[0].dynamics},
    ],
    ids=["layers-int", "layer-str", "relation-str", "theory-str", "abstract-device"],
)
def test_stack_references_are_type_checked(fields):
    _, stack = stack_pieces()
    with pytest.raises(DeclarationError):
        replace(stack, **fields(stack))


def test_map_state_rejects_a_state_of_another_space():
    _, stack = stack_pieces()
    relation = stack.relations[0]
    with pytest.raises(OutOfDomain):
        relation.map_state(AbstractState(LabelSpace("z", ("q",)), "q"))
    with pytest.raises(OutOfDomain):
        relation.map_state(next(iter(relation.entries)))  # a raw value is not a state
    # A value the table maps, in a space that is not the upper layer's.
    twin = replace(relation.upper.space, id="twin")
    with pytest.raises(OutOfDomain):
        relation.map_state(AbstractState(twin, next(iter(relation.entries))))


@pytest.mark.parametrize("mis_declared", [False, True], ids=["stack", "miswired"])
def test_layer_and_stack_verdicts_agree_with_their_entries(mis_declared):
    _, stack = stack_pieces(mis_declared)
    report = check_stack_to_device(stack, 0.0, DISCRETE, SEED)
    for layer in report.layer_reports:
        assert layer.passed == all(e.passed for e in layer.entries)
    assert report.passed == (
        all(r.passed for r in report.layer_reports)
        and all(e.report.passed for e in report.device_entries)
    )
    assert report.passed != mis_declared and report.layer_reports[0].passed != mis_declared


def test_a_stack_report_reads_its_verdict_off_its_parts():
    _, stack = stack_pieces(mis_declared=True)
    report = check_stack_to_device(stack, 0.0, DISCRETE, SEED)
    fixed = check_layer(stack_pieces()[1].relations[0], 0.0, DISCRETE)
    assert not report.passed and fixed.passed
    assert replace(report, layer_reports=(fixed, *report.layer_reports[1:])).passed
    with pytest.raises(TypeError):
        StackReport("s", layer_reports=(), device_entries=(), passed=True)


def test_simulation_relation_must_be_total_with_images_in_lower_space():
    _, stack = stack_pieces()
    dec, binl = stack.layers[0], stack.layers[1]
    entries = dict(stack.relations[0].entries)
    entries.pop((0, 0, 0))
    with pytest.raises(DeclarationError):
        SimulationRelation("partial", dec, binl, entries)


def test_stack_check_scans_the_seeds_once(monkeypatch):
    """Gate and cost law: one scan steps and reads seeds in order, each once, up to the last it needs.

    The 112 reachable bottom words sit at seeds 0 to 126 of 128, the indices
    their bits spell, so the scan stops at seed 126. Each noise-free square
    then steps and reads the device once.
    """
    bundle = BUILTIN_SCENARIOS["refinement-stack"]()
    assert len(bundle.stack("stack.adder").theory.instantiation.seeds) == 128
    counts = count_device_work(monkeypatch)
    report = run_checks(bundle)
    assert report.exit_code == 0
    assert report.results[-1].detail["device_states"] == 112
    assert counts == {"rule": 127 + 112, "read": 127 + 112}  # 7,280 steps when each bottom state rescanned


def test_stack_check_normalizes_no_value(monkeypatch):
    """Gate: enumerated and layer-mapped states are canonical already, so none is re-checked."""
    bundle = BUILTIN_SCENARIOS["refinement-stack"]()
    counts = count_calls(monkeypatch, normalize=abrep.spaces.normalize_value)
    assert run_checks(bundle).exit_code == 0
    assert counts["normalize"] == 0  # 5,232 when each was built through its constructor


def test_a_stack_run_evaluates_each_layer_once(monkeypatch):
    """Gate: the stack check reuses the layer checks' reports, within one run only."""
    bundle = BUILTIN_SCENARIOS["refinement-stack"]()
    counts = count_calls(monkeypatch, layer=abrep.refinement.check_layer)
    assert run_checks(bundle).exit_code == 0
    assert counts["layer"] == 2  # 4 when the stack check evaluated its layers again
    assert run_checks(bundle).exit_code == 0
    assert counts["layer"] == 4


def test_a_stack_run_grades_every_square_in_the_one_grader(monkeypatch):
    """Gate and cost law: one column per layer pair, one per device boundary, all through ``_grade``.

    A layer column holds one square per upper value, and the device column one
    per distinct reachable bottom value; each column compiles its metric once.
    """
    bundle = BUILTIN_SCENARIOS["refinement-stack"]()
    stack = bundle.stack("stack.adder")
    columns = record_calls(monkeypatch, abrep.verification._grade)
    counts = count_calls(monkeypatch, metric=abrep.spaces._metric)
    assert run_checks(bundle).exit_code == 0
    assert len(columns) == 3 and counts["metric"] == 3  # 1 column when layers graded on their own
    for relation, (_, device, starts, *_, read) in zip(stack.relations, columns[:2]):
        assert device is relation.upper.dynamics and read is relation
        assert starts == list(enumerate_values(relation.upper.space))
    _, device, starts, *_, read = columns[2]
    assert device is stack.device and read is stack.theory.representation
    bottoms = {state.value for state in reachable_bottom_states(stack)}
    assert [len(column[2]) for column in columns] == [112, 128, len(bottoms)] == [112, 128, 112]


def test_layer_and_stack_checks_run_on_values(monkeypatch):
    """Gate: the layer and stack checks step, read and grade values, not states."""
    bundle = BUILTIN_SCENARIOS["refinement-stack"]()
    assert {check.kind for check in bundle.checks} == {"layer", "stack"}
    counts = count_calls(
        monkeypatch,
        evolve_abstract=abrep.dynamics.evolve_abstract,
        represent=abrep.relations.represent,
        evolve_physical=abrep.dynamics.evolve_physical,
        check_commutation=abrep.verification.check_commutation,
    )
    assert run_checks(bundle).exit_code == 0
    assert counts == dict.fromkeys(counts, 0)  # 1,072, 112, 127 and 112 through the public squares


def test_a_noise_free_device_boundary_derives_no_seed(monkeypatch):
    """Gate: a noise-free device reads no trial seed, so its stack check derives none."""
    _, stack = stack_pieces()
    assert stack.device.noise is None
    counts = count_calls(monkeypatch, derive=abrep.dynamics.derive_seed)
    assert check_stack_to_device(stack, 0.0, DISCRETE, SEED).passed
    assert counts["derive"] == 0  # 112 with one per reachable bottom state


def _stack_variants():
    """Both built-in stacks, and the first with flips on its device's sum lines."""
    stack = stack_pieces()[1]
    device = replace(stack.device, noise=CoordinateFlipNoise(0.2, (4, 5, 6), 2.5, 0.0, 5.0))
    return {
        "stack": stack,
        "miswired": stack_pieces(mis_declared=True)[1],
        "noisy-device": replace(stack, device=device),
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("variant", ["stack", "miswired", "noisy-device"])
def test_layer_and_stack_reports_are_the_reference_reports(variant, seed):
    """Differential: layers and squares on values report what the state-level definition does."""
    stack = _stack_variants()[variant]
    trials, required = (20, 0.5) if stack.device.noise is not None else (1, 1.0)
    for relation in stack.relations:
        layer = check_layer(relation, 0.0, DISCRETE)
        reference.assert_same(layer, reference.check_layer(relation, 0.0, DISCRETE))
    assert reachable_bottom_states(stack) == reference.reachable_bottom_states(stack)
    report = check_stack_to_device(stack, 0.0, DISCRETE, TrialSeed(seed), trials, required)
    expected = reference.check_stack_to_device(stack, 0.0, DISCRETE, TrialSeed(seed), trials, required)
    reference.assert_same(report, expected)


def test_noisy_engineering_prepares_what_the_reference_prepares():
    """Differential: preparation on values keeps the first seed that reads as each target.

    Half the grid seeds the device, and flips on the addend lines move what
    they reach, so some words have no seed.
    """
    stack = stack_pieces()[1]
    procedure = stack.theory.instantiation
    flips = CoordinateFlipNoise(0.5, (0, 1, 2, 3), 2.5, 0.0, 5.0)
    engineering = replace(procedure.engineering, noise=flips)
    seeds = procedure.seeds[::2]
    assert evolve_physical(engineering, seeds[1], TrialSeed(0)) != seeds[1]
    theory = replace(stack.theory, instantiation=replace(procedure, seeds=seeds, engineering=engineering))

    def outcome(prepare, target):
        try:
            return prepare(theory, target)
        except NotInstantiable as err:
            return str(err)

    words = enumerate_states(stack.layers[-1].space)
    outcomes = [outcome(instantiate, word) for word in words]
    assert outcomes == [outcome(reference.instantiate, word) for word in words]
    assert 0 < sum(isinstance(o, str) for o in outcomes) < len(words)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["refinement-stack", "refinement-stack-miswired"])
def test_the_runner_reports_the_public_stack_check(name, seed):
    """The runner's stack detail, from the layer checks' reports, is that of the public check."""
    bundle = BUILTIN_SCENARIOS[name]()
    report = run_checks(bundle, TrialSeed(seed))
    for index, (check, result) in enumerate(zip(bundle.checks, report.results)):
        if check.kind == "stack":
            public = check_stack_to_device(
                bundle.stack(check.stack), check.epsilon, METRICS[check.metric],
                derive_seed(TrialSeed(seed), index), check.trials, check.required_success,
            )
            assert result.detail == reference.stack_detail(public)


TALL_STACK = """
from abrep import (
    AbstractDynamics, BuiltinRule, LabelSpace, LookupRule, PhysicalLabelSpace, RefinementLayer,
    RefinementStack, RepresentationRelation, SimulationRelation, Theory, identity_dynamics,
)
from abrep.refinement import reachable_bottom_states
word, cell = LabelSpace("word", ("a",)), PhysicalLabelSpace("cell", ("on",))
keep = AbstractDynamics("keep", word, BuiltinRule("identity"))
layers = tuple(RefinementLayer(f"l{i}", word, keep) for i in range(20000))
relations = tuple(SimulationRelation(f"r{i}", a, b, {"a": "a"}) for i, (a, b) in enumerate(zip(layers, layers[1:])))
theory = Theory("t", RepresentationRelation("read", cell, word, LookupRule({"on": "a"})), (), ())
stack = RefinementStack("tall", layers, relations, theory, identity_dynamics("hold", cell))
print(len(reachable_bottom_states(stack)))
"""


def test_a_tall_stack_is_walked_one_layer_at_a_time():
    """20,000 layers on a 1 MB stack: no layer's map waits inside the next one's."""

    def small_stack():  # in the child only, before it starts Python
        resource.setrlimit(resource.RLIMIT_STACK, (1 << 20, resource.getrlimit(resource.RLIMIT_STACK)[1]))

    src = os.path.dirname(os.path.dirname(abrep.refinement.__file__))
    child = subprocess.run(
        [sys.executable, "-c", TALL_STACK], preexec_fn=small_stack, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "1\n", "")
