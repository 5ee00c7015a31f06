import pickle
from dataclasses import replace

import pytest

from abrep import (
    BUILTIN_SCENARIOS,
    DISCRETE,
    CheckSpec,
    DeclarationError,
    DuplicateIdentifier,
    TrialSeed,
    UnknownReference,
    build_refinement_stack,
    build_swap_device,
    build_voltage_adder,
    build_xor_joint,
    classify,
    validate_theory,
)
from abrep.runner import report_to_json, run_checks
from support import xor_joint_variant

SEED = TrialSeed(0)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builders_are_reproducible(name):
    assert BUILTIN_SCENARIOS[name]() == BUILTIN_SCENARIOS[name]()


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_a_bundle_pickles_after_its_checks_ran(name):
    """Compiled evaluators stay out of the pickle, and the copy compiles its own on first use."""
    bundle = BUILTIN_SCENARIOS[name]()
    expected = report_to_json(run_checks(bundle, SEED))
    copy = pickle.loads(pickle.dumps(bundle))
    assert copy == bundle and report_to_json(run_checks(copy, SEED)) == expected
    graded, _ = validate_theory(bundle.theories[0], 0.0, DISCRETE, 1, 1.0, SEED)
    again = pickle.loads(pickle.dumps(graded))
    assert again == graded and again.validity == graded.validity


@pytest.mark.parametrize(
    "name",
    [
        "voltage-adder",
        "voltage-adder-noisy",
        "refinement-stack",
        "swap-device",
        "social-machine",
        "xor-joint",
    ],
)
def test_sound_bundles_pass_their_declared_checks(name):
    report = run_checks(BUILTIN_SCENARIOS[name]())
    assert report.overall == "pass", [
        (r.name, r.status, r.error) for r in report.results if r.status != "pass"
    ]


def test_faulted_adder_fails_exactly_its_documented_checks():
    report = run_checks(BUILTIN_SCENARIOS["voltage-adder-faulted"]())
    statuses = {r.name: r.status for r in report.results}
    assert statuses == {
        "validate": "fail",
        "add-01-10": "fail",
        "add-00-00": "pass",
    }
    assert report.overall == "fail"


def test_miswired_stack_fails_exactly_the_first_layer_check():
    report = run_checks(BUILTIN_SCENARIOS["refinement-stack-miswired"]())
    statuses = {r.name: r.status for r in report.results}
    assert statuses["layer-dec-bin"] == "fail"
    assert statuses["layer-bin-asm"] == "pass"
    assert statuses["end-to-end"] == "fail"
    end_to_end = next(r for r in report.results if r.name == "end-to-end")
    assert end_to_end.detail["layers"] == {
        "stack.dec-to-bin": False,
        "stack.bin-to-asm": True,
    }
    assert end_to_end.detail["device_failures"] == []


def test_fully_noisy_adder_fails_every_diagram():
    theory = build_voltage_adder(1.0).theory("adder")
    _, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    assert all(not cell.report.passed for cell in evidence.cells)


def test_swap_scenario_fixed_point_and_exhaustive_validity():
    theory = build_swap_device().theory("swap")
    graded, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    assert evidence.all_passed
    assert evidence.coverage == 100
    from abrep import AbstractState, run_compute_cycle

    pred = theory.predictions[0]
    result = run_compute_cycle(
        graded, AbstractState(theory.representation.codomain, (4, 4)), "swap", pred.physical, SEED
    )
    assert result.output.value == (4, 4)


def test_xor_variants_classify_as_documented():
    assert classify(build_xor_joint().joint("xor.joint")).value == "Heterotic"
    assert classify(xor_joint_variant("not-first")).value == "Hybrid"
    assert classify(xor_joint_variant("identity")).value == "Hybrid"


def test_bundles_built_through_the_api_reject_duplicate_identifiers():
    bundle = build_xor_joint()
    keep_bit, couple = bundle.abstract_dynamics
    with pytest.raises(DuplicateIdentifier) as err:
        replace(bundle, abstract_dynamics=(replace(keep_bit, id="xor.left.hold"), couple))
    assert err.value.identifier == "xor.left.hold"
    with pytest.raises(DuplicateIdentifier) as err:
        replace(bundle, checks=bundle.checks + bundle.checks[:1])
    assert err.value.identifier == "validate-left"


@pytest.mark.parametrize("ident", ["nope", 5], ids=["missing", "not-a-string"])
@pytest.mark.parametrize(
    "path, lookup",
    [
        ("bundle theories", lambda bundle: bundle.theory),
        ("bundle stacks", lambda bundle: bundle.stack),
        ("bundle joints", lambda bundle: bundle.joint),
        ("theory 'xor.left'", lambda bundle: bundle.theory("xor.left").prediction),
    ],
    ids=["theory", "stack", "joint", "prediction"],
)
def test_unknown_identifiers_in_api_lookups_are_model_errors(path, lookup, ident):
    """Every lookup by identifier raises UnknownReference in the one form the reader uses."""
    with pytest.raises(UnknownReference) as err:
        lookup(build_xor_joint())(ident)
    assert str(err.value) == f"{path}: unknown identifier {str(ident)!r}"
    assert (err.value.path, err.value.identifier) == (path, str(ident))


def test_stack_relations_connect_declared_layers():
    stack = build_refinement_stack().stack("stack.adder")
    assert [l.id for l in stack.layers] == [
        "stack.dec-layer",
        "stack.bin-layer",
        "stack.asm-layer",
    ]
    assert stack.relations[0].upper is stack.layers[0]
    assert stack.relations[1].lower is stack.layers[2]
    assert stack.layers[-1].space == stack.theory.representation.codomain


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "probe"},
        {"kind": "history"},
        {"kind": "history", "physical_metric": "bogus"},
        {"kind": "commutation", "metric": "bogus"},
        {"kind": "commutation", "metric": ["hamming"]},
    ],
    ids=["unknown-kind", "history-without-metric", "bad-physical-metric", "bad-metric", "list-metric"],
)
def test_check_spec_checks_its_own_rules(fields):
    """A check built in Python is rejected where it is declared, not with a KeyError when it runs."""
    with pytest.raises(DeclarationError):
        CheckSpec("h", theory="adder", prediction="add", input=("01", "10", "000"), **fields)
