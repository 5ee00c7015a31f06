import json
import math
import re
import sys
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from abrep import (
    BUILTIN_SCENARIOS,
    DISCRETE,
    HETEROTIC,
    AbstractDynamics,
    BitSpace,
    BuiltinRule,
    CheckSpec,
    Component,
    CoordinateFlipNoise,
    CoordinateUpdateRule,
    DeclarationError,
    DiagramSpec,
    DuplicateIdentifier,
    ScenarioBundle,
    ScenarioError,
    IntSpace,
    LabelSpace,
    LookupRule,
    NotEnumerable,
    PhysicalLabelSpace,
    PhysicalState,
    PhysicalTupleSpace,
    Prediction,
    RealVectorSpace,
    RepresentationRelation,
    ScenarioSyntaxError,
    TableRule,
    Theory,
    ThresholdRule,
    TrialSeed,
    TupleSpace,
    UnknownReference,
    VersionUnsupported,
    build_refinement_stack,
    build_social_machine,
    build_swap_device,
    build_voltage_adder,
    check_layer,
    classify,
    check_stack_to_device,
    compose_parallel,
    emit_scenario,
    enumerate_values,
    identity_dynamics,
    parse_scenario,
    validate_theory,
)
from abrep import scenarios, spaces
from abrep.cli import main
from abrep.dynamics import BUILTIN_NAMES
from abrep.runner import report_to_json, run_checks
from abrep.scenarios import _bundle
from abrep.spaces import normalize_value
from support import adder_theory, at, field_sites

MINIMAL = {
    "format_version": "1",
    "spaces": {
        "abstract": [{"id": "bit", "kind": "bits", "width": 1}],
        "physical": [{"id": "cell", "kind": "labels", "labels": ["off", "on"]}],
    },
    "relations": [
        {
            "id": "read",
            "domain": "cell",
            "codomain": "bit",
            "rule": {"kind": "lookup", "entries": [["off", "0"], ["on", "1"]]},
        }
    ],
    "dynamics": {
        "abstract": [{"id": "keep", "space": "bit", "rule": {"kind": "builtin", "name": "identity"}}],
        "physical": [
            {
                "id": "hold",
                "space": "cell",
                "rule": {"kind": "table", "entries": [["off", "off"], ["on", "on"]]},
            }
        ],
    },
    "theories": [
        {
            "id": "cell-theory",
            "representation": "read",
            "domain": ["off", "on"],
            "predictions": [{"name": "keep", "abstract": "keep", "physical": "hold"}],
            "instantiation": {"seeds": ["off", "on"], "engineering": "hold"},
        }
    ],
    "checks": [
        {"name": "validate", "kind": "validate-theory", "theory": "cell-theory"},
    ],
}


def doc(**overrides) -> str:
    merged = json.loads(json.dumps(MINIMAL))
    merged.update(overrides)
    return json.dumps(merged)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_emit_parse_round_trip_is_structural_identity(name):
    bundle = BUILTIN_SCENARIOS[name]()
    text = emit_scenario(bundle)
    parsed = parse_scenario(text)
    assert parsed == bundle
    # and the emitted text itself is a fixed point
    assert emit_scenario(parsed) == text


def test_minimal_document_parses_and_passes():
    bundle = parse_scenario(doc())
    report = run_checks(bundle)
    assert report.overall == "pass"


def test_defaults_are_injected_at_parse_time():
    bundle = parse_scenario(doc())
    check = bundle.checks[0]
    assert check.epsilon == 0.0
    assert check.metric == "discrete"
    assert check.trials == 1
    assert check.required_success == 1.0
    assert check.oracle is False


def test_syntax_error_carries_line_and_column():
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario('{"format_version": "1", }')
    assert err.value.line == 1
    assert err.value.column is not None


def test_version_gate():
    with pytest.raises(VersionUnsupported) as err:
        parse_scenario(doc(format_version="2"))
    assert str(err.value) == "unsupported format version '2'"
    with pytest.raises(VersionUnsupported):
        parse_scenario(json.dumps({"spaces": {}}))


def _huge_int_bundle(*checks: CheckSpec):
    """A valid bundle whose abstract space holds only ints past the digit limit of ``repr``."""
    huge = 10**5000
    n = IntSpace("n", huge, huge + 1)
    cell = PhysicalLabelSpace("cell", ("low", "high"))
    read = RepresentationRelation("read", cell, n, TableRule({"low": huge, "high": huge + 1}))
    keep, hold = AbstractDynamics("keep", n, BuiltinRule("identity")), identity_dynamics("hold", cell)
    theory = Theory("t", read, (PhysicalState(cell, "low"),), (Prediction("hold", keep, hold),))
    return _bundle(checks, n, cell, read, keep, hold, theory)


def test_emitting_an_int_too_long_to_write_is_a_declaration_error():
    """The reader refuses such an int in ``_loads``; the writer refuses it as a model error, not a traceback."""
    with pytest.raises(DeclarationError, match="^an integer is too large to write: Exceeds the limit"):
        emit_scenario(_huge_int_bundle())
    small = parse_scenario(doc())
    huge_input = replace(small, checks=(CheckSpec("c", "compute", theory="cell-theory", input=10**5000),))
    with pytest.raises(DeclarationError, match="^an integer is too large to write"):
        emit_scenario(huge_input)


def test_a_report_holding_an_int_too_long_to_write_is_a_declaration_error():
    report = run_checks(_huge_int_bundle(CheckSpec("square", "commutation", theory="t", state="low")))
    assert report.overall == "pass" and report.results[0].detail["expected"]["value"] == 10**5000
    with pytest.raises(DeclarationError, match="^an integer is too large to write: Exceeds the limit"):
        report_to_json(report)


def test_unknown_reference_reports_path_and_identifier():
    bad = json.loads(doc())
    bad["theories"][0]["predictions"][0]["abstract"] = "missing-dynamics"
    with pytest.raises(UnknownReference) as err:
        parse_scenario(json.dumps(bad))
    assert err.value.identifier == "missing-dynamics"
    assert "theories[0].predictions[0].abstract" in err.value.path


def test_duplicate_identifier_rejected_within_a_section():
    bad = json.loads(doc())
    bad["spaces"]["physical"].append({"id": "cell", "kind": "labels", "labels": ["x"]})
    with pytest.raises(DuplicateIdentifier):
        parse_scenario(json.dumps(bad))


def test_duplicate_across_abstract_and_physical_spaces_rejected():
    bad = json.loads(doc())
    bad["spaces"]["physical"].append({"id": "bit", "kind": "labels", "labels": ["x"]})
    with pytest.raises(DuplicateIdentifier):
        parse_scenario(json.dumps(bad))


def test_duplicate_across_abstract_and_physical_dynamics_rejected():
    bad = json.loads(emit_scenario(BUILTIN_SCENARIOS["xor-joint"]()))
    text = json.dumps(bad).replace('"xor.keep-bit"', '"xor.left.hold"')
    with pytest.raises(DuplicateIdentifier) as err:
        parse_scenario(text)
    assert err.value.path == "dynamics.physical[0]"
    assert err.value.identifier == "xor.left.hold"


def test_check_naming_missing_theory_parses_but_errors_at_run():
    bad = json.loads(doc())
    bad["checks"].append({"name": "ghost", "kind": "validate-theory", "theory": "nope"})
    bundle = parse_scenario(json.dumps(bad))
    report = run_checks(bundle)
    statuses = {r.name: r.status for r in report.results}
    assert statuses["validate"] == "pass"
    assert statuses["ghost"] == "error"
    assert report.overall == "error"


def test_history_checks_must_declare_a_physical_metric():
    bad = json.loads(doc())
    bad["checks"].append(
        {"name": "h", "kind": "history", "theory": "cell-theory", "input": "0"}
    )
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(bad))
    at = len(bad["checks"]) - 1
    assert str(err.value) == f"checks[{at}].physical_metric: history checks must declare a physical metric"


def test_partial_lookup_table_is_a_parse_diagnostic():
    bad = json.loads(doc())
    bad["relations"][0]["rule"]["entries"] = [["off", "0"]]
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(bad))
    assert "relations[0]" in str(err.value)


def test_a_table_over_forty_bits_is_refused_at_its_path(tmp_path, capsys):
    bad = json.loads(doc())
    bad["spaces"]["abstract"] += [
        {"id": "w", "kind": "bits", "width": 40},
        {"id": "t", "kind": "tuple", "components": ["w"]},
    ]
    bad["dynamics"]["abstract"].insert(
        0, {"id": "d", "space": "t", "rule": {"kind": "table", "entries": []}}
    )
    message = "dynamics.abstract[0]: dynamics 'd': 0 images for the 1099511627776 keys of 't'"
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(bad))
    assert str(err.value) == message
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_unknown_section_rejected():
    bad = json.loads(doc())
    bad["extras"] = []
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(json.dumps(bad))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["spaces"]["abstract"].append("not-an-object"),
        lambda d: d["spaces"]["physical"][0].__setitem__("labels", "oops"),
        lambda d: d["spaces"].__setitem__("abstract", {"id": "x"}),
        lambda d: d.__setitem__("relations", [{"id": 3, "domain": [], "codomain": 0, "rule": 0}]),
        lambda d: d["dynamics"]["physical"][0]["rule"].__setitem__("entries", [["off"]]),
        lambda d: d["checks"][0].__setitem__("trials", "many"),
        lambda d: d["theories"][0].__setitem__("predictions", {"name": "x"}),
        lambda d: d["dynamics"]["physical"][0].__setitem__("rule", {"kind": "chain", "parts": []}),
    ],
    ids=[
        "str-space", "bad-labels", "dict-section", "typed-wrong", "short-pair", "bad-trials",
        "dict-preds", "physical-chain",
    ],
)
def test_malformed_shapes_become_diagnostics(mutate):
    from abrep import ScenarioError

    bad = json.loads(doc())
    mutate(bad)
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps(bad))


def test_unknown_check_kind_and_metric_rejected():
    bad = json.loads(doc())
    bad["checks"][0]["kind"] = "probe"
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(json.dumps(bad))
    bad = json.loads(doc())
    bad["checks"][0]["metric"] = "euclidean"
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(json.dumps(bad))


def test_composed_joint_round_trips_through_mode():
    text = emit_scenario(BUILTIN_SCENARIOS["social-machine"]())
    data = json.loads(text)
    modes = {c["id"]: c["mode"] for c in data["compositions"]}
    assert modes == {
        "social.galaxy-zoo": "declared",
        "social.side-by-side": "parallel",
    }
    parsed = parse_scenario(text)
    assert parsed.joint("social.side-by-side").provenance == "composed-parallel"
    data["compositions"][1]["mode"] = "sequential"  # the parallel joint under another name
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(data))
    assert str(err.value) == "compositions[1].mode: unknown composition mode 'sequential'"


def test_a_joint_is_written_in_the_mode_its_maps_have_not_the_one_its_label_names():
    """Gate: the xor joint relabelled composed-parallel is written declared, and reads back Heterotic.

    Written by its label, it read back as the componentwise joint of its
    halves, which classifies Hybrid.
    """
    bundle = BUILTIN_SCENARIOS["xor-joint"]()
    relabelled = replace(bundle.joint("xor.joint"), id="xor.relabelled", provenance="composed-parallel")
    check = CheckSpec("classify-relabelled", "classify", joint="xor.relabelled", oracle=True)
    bundle = replace(bundle, joints=(*bundle.joints, relabelled), checks=(*bundle.checks, check))
    text = emit_scenario(bundle)
    assert [c["mode"] for c in json.loads(text)["compositions"]] == ["declared", "declared"]
    parsed = parse_scenario(text)
    assert classify(parsed.joint("xor.relabelled")) == classify(relabelled)
    assert classify(relabelled).value == HETEROTIC
    report = report_to_json(run_checks(bundle))
    assert report_to_json(run_checks(parsed)) == report and '"Hybrid"' not in report


def _adder_doc() -> dict:
    return json.loads(emit_scenario(BUILTIN_SCENARIOS["voltage-adder"]()))


@pytest.mark.parametrize(
    "field", ["theory", "prediction", "stack", "relation", "joint", "expect_class"]
)
def test_check_references_must_be_strings(field):
    bad = _adder_doc()
    bad["checks"][1][field] = ["adder"]
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(bad))
    assert f"checks[1].{field}" in str(err.value)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["dynamics"]["physical"][0]["rule"]["assignments"][0].__setitem__("a", [0.0, 1]),
        lambda d: d["dynamics"]["physical"][0]["rule"]["assignments"][0].__setitem__("out", [4, True, 6]),
        lambda d: d["dynamics"]["physical"][0]["rule"]["assignments"].append(
            {"op": "constant", "lines": [6.0], "values": [0.0]}
        ),
        lambda d: d["dynamics"]["physical"][0].__setitem__(
            "noise",
            {"kind": "coordinate-flip", "probability": 0.1, "coordinates": [4, "5"],
             "threshold": 2.5, "low": 0.0, "high": 5.0},
        ),
    ],
    ids=["float-addend", "bool-output", "float-constant", "str-noise-line"],
)
def test_line_indices_must_be_integers(mutate):
    bad = _adder_doc()
    mutate(bad)
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(bad))
    assert "dynamics.physical[0]" in str(err.value)


_BINARY_SUM = "dynamics.physical[0].rule.assignments[0]"


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda d: d["checks"][1].__setitem__("oracle", "false"), "checks[1].oracle"),
        (lambda d: d["checks"][1].__setitem__("oracle", 0), "checks[1].oracle"),
        (lambda d: d["checks"][1].__setitem__("trials", 2.9), "checks[1].trials"),
        (lambda d: d["checks"][1].__setitem__("trials", True), "checks[1].trials"),
        (lambda d: d["checks"][1].__setitem__("epsilon", "0.5"), "checks[1].epsilon"),
        (lambda d: d["checks"][1].__setitem__("required_success", False), "checks[1].required_success"),
        (lambda d: d["dynamics"]["physical"][0]["rule"]["assignments"][0].__setitem__("threshold", "2.5"),
         f"{_BINARY_SUM}.threshold"),
        (lambda d: d["spaces"]["physical"][0]["bounds"][2].__setitem__(1, "5"), "spaces.physical[0].bounds[2][1]"),
        (lambda d: d["spaces"]["abstract"][0].__setitem__("width", 2.0), "spaces.abstract[0].width"),
        (lambda d: d["checks"][1].__setitem__("epsilon", math.nan), "checks[1].epsilon"),
        (lambda d: d["checks"][1].__setitem__("required_success", math.inf), "checks[1].required_success"),
        (lambda d: d["dynamics"]["physical"][0]["rule"]["assignments"][0].__setitem__("low", -math.inf),
         f"{_BINARY_SUM}.low"),
    ],
    ids=[
        "str-oracle", "int-oracle", "float-trials", "bool-trials", "str-epsilon", "bool-success",
        "str-threshold", "str-bound", "float-width", "nan-epsilon", "inf-success", "neg-inf-level",
    ],
)
def test_numbers_and_flags_are_checked_not_coerced(mutate, path):
    bad = _adder_doc()
    mutate(bad)
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(bad))
    assert str(err.value).startswith(f"{path}: expected")


@pytest.mark.parametrize("side", ["abstract", "physical"])
@pytest.mark.parametrize(
    "labels, at", [([["a"], "b"], 0), ([1, 2], 0), (["a", True], 1)], ids=["list", "int", "bool"]
)
def test_labels_are_checked_at_their_own_path(side, labels, at):
    bad = json.loads(emit_scenario(BUILTIN_SCENARIOS["social-machine"]()))
    bad["spaces"][side][1]["labels"] = labels
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(bad))
    assert str(err.value) == f"spaces.{side}[1].labels[{at}]: expected a string"


def test_infinite_vector_bounds_are_rejected():
    bad = _adder_doc()
    bad["spaces"]["physical"][0]["bounds"][0][1] = float("inf")
    text = json.dumps(bad)
    assert "Infinity" in text
    with pytest.raises(ScenarioSyntaxError, match="finite"):
        parse_scenario(text)


def test_abstract_dynamics_over_a_physical_space_are_rejected():
    bad = json.loads(emit_scenario(BUILTIN_SCENARIOS["xor-joint"]()))
    bad["dynamics"]["abstract"].append(
        {"id": "xor.misplaced", "space": "xor.cells", "rule": {"kind": "builtin", "name": "identity"}}
    )
    with pytest.raises(ScenarioSyntaxError, match="is not an abstract space"):
        parse_scenario(json.dumps(bad))


def _values(space) -> list:
    """Every value of ``space``, or none when it is continuous."""
    try:
        return list(enumerate_values(space))
    except NotEnumerable:
        return []


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_every_value_round_trips_through_json(name):
    """The encoder writes a canonical tuple as an array, which reads back as the same member."""
    bundle = BUILTIN_SCENARIOS[name]()
    joint_spaces = [s for j in bundle.joints for s in (j.joint_space, j.joint_dynamics.space)]
    spaces = [*bundle.abstract_spaces, *bundle.physical_spaces, *joint_spaces]
    cases = [(s, v) for s in spaces for v in _values(s)]
    cases += [(t.representation.domain, p.value) for t in bundle.theories for p in t.domain]
    assert cases
    for space, value in cases:
        decoded = json.loads(json.dumps(value))
        assert normalize_value(space, decoded) == value


def test_compute_expect_outside_the_codomain_is_a_check_error():
    bad = _adder_doc()
    bad["checks"][2]["expect"] = 5
    report = run_checks(parse_scenario(json.dumps(bad)))
    result = report.results[2]
    assert result.status == "error"
    assert result.error["type"] == "OutOfDomain"
    assert report.overall == "error"


def test_emitting_a_rule_the_format_cannot_write_names_its_declaration():
    """A composed joint's product dynamics have no document kind; its mode says how it was made."""
    bundle = build_social_machine()
    product = bundle.joint("social.side-by-side").joint_dynamics
    listed = replace(bundle, abstract_spaces=(*bundle.abstract_spaces, product.space),
                     abstract_dynamics=(*bundle.abstract_dynamics, product))
    refusal = r"^dynamics\.abstract\[3\]\.rule: no rule kind writes a ProductRule$"
    with pytest.raises(DeclarationError, match=refusal):
        emit_scenario(listed)


def _look_alike_digits(bundle: ScenarioBundle) -> ScenarioBundle:
    """The swap device with its listed digit reading replaced by another table of the same id."""
    read_digit = bundle.relations[0]
    backwards = replace(read_digit, rule=TableRule({str(d): 9 - d for d in range(10)}))
    return replace(bundle, relations=(backwards, *bundle.relations[1:]))


def _twin_layers(bundle: ScenarioBundle) -> ScenarioBundle:
    """The refinement stack with its middle layer renamed to its top layer's id."""
    stack = bundle.stack("stack.adder")
    top, middle, bottom = stack.layers
    twin = replace(middle, id=top.id)
    down, up = stack.relations
    twinned = replace(stack, layers=(top, twin, bottom),
                      relations=(replace(down, lower=twin), replace(up, upper=twin)))
    return replace(bundle, stacks=(twinned,))


@pytest.mark.parametrize("build, change, message", [
    (build_swap_device, lambda b: replace(b, relations=b.relations[1:]),
     "relations[0].rule.parts[0]: unknown identifier 'swap.read-digit'"),
    (build_swap_device, _look_alike_digits,
     "relations[1].rule.parts[0]: 'swap.read-digit' is declared before it as another object"),
    (build_swap_device, lambda b: replace(b, relations=b.relations[::-1]),
     "relations[0].rule.parts[0]: unknown identifier 'swap.read-digit'"),
    (build_swap_device, lambda b: replace(b, abstract_spaces=b.abstract_spaces[::-1]),
     "spaces.abstract[0].components[0]: unknown identifier 'swap.number'"),
    (build_refinement_stack, _twin_layers,
     "stacks[0].layers[1]: duplicate identifier 'stack.dec-layer'"),
], ids=["missing", "look-alike", "whole-before-part", "space-before-parts", "twin-layers"])
def test_emission_refuses_a_document_that_would_not_parse_back_to_its_bundle(build, change, message):
    """Gate: each bundle runs its checks, but its document would read as another bundle, or not at all."""
    bundle = change(build())
    assert run_checks(bundle).exit_code == 0
    with pytest.raises(DeclarationError) as refused:
        emit_scenario(bundle)
    assert str(refused.value) == message


def test_emission_compares_a_referenced_theory_in_the_fields_it_writes():
    """A validated theory is written as its declared one: a theory's evidence is not in the document."""
    bundle = BUILTIN_SCENARIOS["xor-joint"]()
    joint = bundle.joint("xor.joint")
    left, right = (
        Component(validate_theory(part.theory, 0.0, DISCRETE, 1, 1.0, TrialSeed(0))[0], part.dynamics)
        for part in (joint.left, joint.right)
    )
    assert left.theory != joint.left.theory and left.theory.is_valid
    side_by_side = compose_parallel(left, right, "xor.side-by-side")
    check = CheckSpec("classify-side-by-side", "classify", joint="xor.side-by-side", oracle=True)
    bundle = replace(bundle, joints=(*bundle.joints, side_by_side), checks=(*bundle.checks, check))
    parsed = parse_scenario(emit_scenario(bundle))
    assert parsed.joint("xor.side-by-side").left.theory.evidence is None
    report = report_to_json(run_checks(bundle))
    assert report_to_json(run_checks(parsed)) == report and '"Hybrid"' in report


def test_embeddings_section_is_no_longer_accepted():
    bad = json.loads(doc())
    bad["embeddings"] = []
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(bad))
    assert "unknown section 'embeddings'" in str(err.value)


def test_default_prediction_of_a_theory_without_predictions_is_a_check_error():
    bad = json.loads(emit_scenario(BUILTIN_SCENARIOS["swap-device"]()))
    bad["theories"][0]["predictions"] = []
    del bad["checks"][2]["prediction"]
    report = run_checks(parse_scenario(json.dumps(bad)))
    assert report.results[2].status == "error"
    assert report.results[2].error == {
        "type": "EmptyDomain", "message": "theory 'swap' declares no predictions"
    }
    assert "None" not in report.results[2].error["message"]


#: A value of the wrong JSON type for each field kind of the format table.
_WRONG = {
    "name": 0, "ref": 0, "number": "0", "integer": "0", "flag": 0, "enum": 0, "tag": 0,
    "one": [], **dict.fromkeys(
        ("refs", "list", "numbers", "states", "entries", "bounds", "many"), ""
    ),
}


def _field_sites():
    """Each field of the format table at its first use in a built-in document.

    Yields (scenario, path of the declaration, the field), one per field
    path with its indices dropped; ``raw`` fields take any value.
    """
    seen = set()
    for name in sorted(BUILTIN_SCENARIOS):
        data = json.loads(emit_scenario(BUILTIN_SCENARIOS[name]()))
        for path, field in field_sites(data):
            template = "".join(c for c in f"{path}.{field.key}" if not c.isdigit())
            if field.kind != "raw" and template not in seen:
                seen.add(template)
                yield pytest.param(name, path, field, id=f"{name}:{path}.{field.key}")


#: The kinds the reader passes on as read: their constructors check them.
_CONSTRUCTOR_CHECKED = {"number", "integer", "flag", "enum", "list", "numbers", "bounds"}


@pytest.mark.parametrize("name, path, field", list(_field_sites()))
def test_every_field_is_checked_at_its_path(name, path, field):
    bad = json.loads(emit_scenario(BUILTIN_SCENARIOS[name]()))
    at(bad, path)[field.key] = _WRONG[field.kind]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(bad))
    assert str(err.value).startswith(f"{path}.{field.key}: ")
    if field.kind in _CONSTRUCTOR_CHECKED:
        cause = err.value.__cause__
        assert isinstance(cause, DeclarationError)
        assert cause.field.partition("[")[0] == (field.attr or field.key)


@pytest.mark.parametrize(
    "declare, field",
    [
        (lambda: CoordinateFlipNoise(0.5, 5, 2.5, 0.0, 5.0), "coordinates"),
        (lambda: CoordinateUpdateRule(5), "assignments"),
        (lambda: ThresholdRule((1, "a")), "thresholds[1]"),
        (lambda: CheckSpec("c", "commutation", trials=2.9), "trials"),
    ],
    ids=["flip-lines", "assignments", "threshold", "trials"],
)
def test_constructors_check_the_fields_the_reader_passes_on(declare, field):
    with pytest.raises(DeclarationError) as err:
        declare()
    assert err.value.field == field


def test_a_rejected_field_is_named_in_the_api_message_too():
    with pytest.raises(DeclarationError) as err:
        BitSpace("x", "2")
    assert str(err.value) == "space 'x': width: expected an integer"
    assert (err.value.field, err.value.reason) == ("width", "expected an integer")


def _diagram(**fields) -> DiagramSpec:
    theory = BUILTIN_SCENARIOS["voltage-adder"]().theories[0]
    pred = theory.predictions[0]
    return DiagramSpec(theory, pred.abstract, pred.physical, **fields)


@pytest.mark.parametrize(
    "declare, message",
    [
        (lambda: CoordinateFlipNoise(1.5, (0,), 2.5, 0.0, 5.0),
         "coordinate-flip noise: probability: must lie in [0, 1]"),
        (lambda: TrialSeed(2**64), "trial seed: value: must fit in 64 bits"),
        (lambda: TrialSeed(-1), "trial seed: value: must fit in 64 bits"),
        (lambda: _diagram(epsilon=-0.1), "diagram: epsilon: must be non-negative"),
        (lambda: _diagram(trials=0), "diagram: trials: must be at least 1"),
        (lambda: _diagram(required_success=0.0), "diagram: required_success: must lie in (0, 1]"),
        (lambda: _diagram(required_success=1.5), "diagram: required_success: must lie in (0, 1]"),
        (lambda: BitSpace("x", 0), "space 'x': width: must be at least 1"),
        (lambda: check_layer(BUILTIN_SCENARIOS["refinement-stack"]().stacks[0].relations[0], -1, DISCRETE),
         "check_layer: epsilon: must be non-negative"),
        (lambda: validate_theory(adder_theory(1), -1.0, DISCRETE, 1, 1.0, TrialSeed(0)),
         "validate_theory: epsilon: must be non-negative"),
        (lambda: validate_theory(adder_theory(1), 0.0, DISCRETE, 0, 1.0, TrialSeed(0)),
         "validate_theory: trials: must be at least 1"),
        (lambda: check_stack_to_device(build_refinement_stack().stacks[0], -1, DISCRETE, TrialSeed(0)),
         "check_stack_to_device: epsilon: must be non-negative"),
        (lambda: check_stack_to_device(build_refinement_stack().stacks[0], 0, DISCRETE, TrialSeed(0), 1, 0),
         "check_stack_to_device: required_success: must lie in (0, 1]"),
        (lambda: CheckSpec("c", "compute", trials=0), "check 'c': trials: must be at least 1"),
        (lambda: CheckSpec("c", "stack", epsilon=-1), "check 'c': epsilon: must be non-negative"),
        (lambda: CheckSpec("c", "experiment", required_success=0),
         "check 'c': required_success: must lie in (0, 1]"),
        (lambda: CheckSpec("c", "experiment", required_success=1.01),
         "check 'c': required_success: must lie in (0, 1]"),
    ],
    ids=[
        "flip-probability", "seed-too-large", "seed-negative", "epsilon",
        "trials", "success-zero", "success-above-one", "width", "layer-epsilon",
        "validate-epsilon", "validate-trials", "stack-epsilon", "stack-success", "check-trials",
        "check-epsilon", "check-success-zero", "check-success-above-one",
    ],
)
def test_range_errors_name_their_field(declare, message):
    with pytest.raises(DeclarationError) as err:
        declare()
    assert str(err.value) == message
    assert (err.value.field, err.value.reason) == tuple(message.split(": ")[1:])


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["dynamics"]["physical"][0]["noise"].__setitem__("probability", 1.5),
         "dynamics.physical[0].noise.probability: must lie in [0, 1]"),
        (lambda d: d["spaces"]["abstract"][0].__setitem__("width", 0),
         "spaces.abstract[0].width: must be at least 1"),
        (lambda d: d["checks"][1].__setitem__("trials", 0), "checks[1].trials: must be at least 1"),
        (lambda d: d["checks"][0].__setitem__("required_success", 0),
         "checks[0].required_success: must lie in (0, 1]"),
    ],
    ids=["probability", "width", "check-trials", "check-success"],
)
def test_a_document_reports_a_range_error_at_its_field(mutate, message):
    bad = json.loads(emit_scenario(BUILTIN_SCENARIOS["voltage-adder-noisy"]()))
    mutate(bad)
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(bad))
    assert str(err.value) == message


def _identified():
    """One declaration of each kind that has an identifier, and that identifier's field."""
    adder = BUILTIN_SCENARIOS["voltage-adder"]()
    theory, stack = adder.theories[0], BUILTIN_SCENARIOS["refinement-stack"]().stacks[0]
    bit, cell = BitSpace("b", 1), PhysicalLabelSpace("c", ("a",))
    declarations = [
        (LabelSpace("s", ("a",)), "id"), (bit, "id"), (IntSpace("s", 0, 1), "id"),
        (TupleSpace("s", (bit,)), "id"), (cell, "id"), (RealVectorSpace("s", ((0, 1),)), "id"),
        (PhysicalTupleSpace("s", (cell,)), "id"), (adder.relations[0], "id"),
        (adder.abstract_dynamics[0], "id"), (adder.physical_dynamics[0], "id"), (theory, "id"),
        (theory.predictions[0], "name"), (adder.checks[0], "name"), (stack, "id"),
        (stack.layers[0], "id"), (stack.relations[0], "id"),
        (BUILTIN_SCENARIOS["xor-joint"]().joints[0], "id"),
    ]
    for decl, field in declarations:
        yield pytest.param(decl, field, id=type(decl).__name__)


@pytest.mark.parametrize("decl, field", list(_identified()))
def test_every_constructor_checks_its_identifier(decl, field):
    with pytest.raises(DeclarationError) as err:
        replace(decl, **{field: 5})
    assert (err.value.field, err.value.reason) == (field, "expected a string identifier")


def test_numbers_are_not_identifiers():
    """A number as a space id or a check name fails where it is declared, as a ModelError."""
    with pytest.raises(DeclarationError) as err:
        BitSpace(5, 2)
    assert str(err.value) == "space 5: id: expected a string identifier"
    bundle = BUILTIN_SCENARIOS["voltage-adder"]()
    with pytest.raises(DeclarationError) as err:  # it used to fail in fnmatch, at name_filter
        replace(bundle.checks[0], name=5)
    assert str(err.value) == "check 5: name: expected a string identifier"


def test_numbers_read_as_integers_are_stored_and_emitted_as_floats():
    data = json.loads(emit_scenario(BUILTIN_SCENARIOS["voltage-adder-noisy"]()))
    data["dynamics"]["physical"][0]["noise"].update(probability=1, low=0)
    data["relations"][0]["rule"]["thresholds"][0] = 2
    data["checks"][1]["epsilon"] = 0
    bundle = parse_scenario(json.dumps(data))
    noise = bundle.physical_dynamics[0].noise
    numbers = (noise.probability, noise.low, bundle.relations[0].rule.thresholds[0])
    assert all(type(n) is float for n in (*numbers, bundle.checks[1].epsilon))
    emitted = emit_scenario(bundle)
    assert '"probability": 1.0' in emitted and '"epsilon": 0.0' in emitted


def test_a_commutation_check_runs_from_a_declared_state_or_reports_it_missing():
    """A commutation check starts from ``state`` when it has no ``input``, and errors with neither."""
    bad = json.loads(doc())
    bad["checks"] += [
        {"name": "from-state", "kind": "commutation", "theory": "cell-theory", "state": "on"},
        {"name": "from-nothing", "kind": "commutation", "theory": "cell-theory"},
    ]
    report = run_checks(parse_scenario(json.dumps(bad)))
    state, nothing = report.results[1:]
    assert state.status == "pass" and state.detail["initial"] == {"space": "cell", "value": "on"}
    assert nothing.status == "error" and nothing.error == {
        "type": "UnknownReference",
        "message": "check 'from-nothing': unknown identifier '<state or input>'",
    }


@pytest.mark.parametrize(
    "scenario, index, change, field",
    [
        ("swap-device", 1, {"kind": "stack"}, "stack"),
        ("swap-device", 1, {"kind": "classify"}, "joint"),
        ("swap-device", 1, {"theory": None}, "theory"),
        ("refinement-stack", 0, {"relation": None}, "relation"),
    ],
    ids=["stack", "joint", "theory", "relation"],
)
def test_a_check_that_names_no_object_reports_the_field_it_leaves_unset(scenario, index, change, field):
    """Through a document and through ``run_checks``, the error names the unset field, not ``None``."""
    bundle = BUILTIN_SCENARIOS[scenario]()
    data = json.loads(emit_scenario(bundle))
    written = data["checks"][index]
    written.update(change)
    for key in [k for k, v in change.items() if v is None]:  # the writer leaves an unset field out
        del written[key]
    check = replace(bundle.checks[index], **change)
    message = f"check {check.name!r}: unknown identifier '<{field}>'"
    for report in run_checks(parse_scenario(json.dumps(data))), run_checks(bundle, checks=(check,)):
        result = next(r for r in report.results if r.name == check.name)
        assert result.error == {"type": "UnknownReference", "message": message}


def test_an_unset_field_matches_no_declared_id_spelt_like_it():
    bundle = BUILTIN_SCENARIOS["refinement-stack"]()
    renamed = replace(bundle, stacks=(replace(bundle.stacks[0], id="<stack>"),))
    check = replace(bundle.checks[2], stack=None)
    unset, named = run_checks(renamed, checks=(check, replace(check, stack="<stack>"))).results
    assert unset.error["message"] == "check 'end-to-end': unknown identifier '<stack>'"
    assert named.status == "pass"


def _device_doc(entries) -> dict:
    """The minimal document, its device's table given as ``entries``."""
    data = json.loads(doc())
    data["dynamics"]["physical"][0]["rule"]["entries"] = entries
    return data


def test_a_device_table_round_trips_in_the_order_its_labels_are_declared():
    """A table over labels reads back equal, and is written in the order the labels are declared, not sorted."""
    data = _device_doc([["off", "on"], ["on", "off"]])
    data["spaces"]["physical"][0]["labels"] = ["on", "off"]
    bundle = parse_scenario(json.dumps(data))
    assert bundle.physical_dynamics[0].rule == TableRule({"off": "on", "on": "off"})
    text = emit_scenario(bundle)
    assert json.loads(text)["dynamics"]["physical"][0]["rule"]["entries"] == [["on", "off"], ["off", "on"]]
    assert parse_scenario(text) == bundle


@pytest.mark.parametrize(
    "entries, message",
    [
        ([["off", "zz"], ["on", "on"]], "entries[0][1]: value 'zz' is not a member of space 'cell'"),
        ([[["off"], "on"]], "entries[0][0]: value ['off'] is not a member of space 'cell'"),
    ],
    ids=["image", "unhashable-key"],
)
def test_a_table_value_outside_the_device_labels_is_refused_at_its_path(entries, message):
    """A device's table is read over its labels: a non-member is named where it is written."""
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(_device_doc(entries)))
    assert str(err.value) == f"dynamics.physical[0].rule.{message}"


def test_a_missing_table_key_is_refused_at_the_dynamics():
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(_device_doc([["off", "on"]])))
    assert str(err.value) == "dynamics.physical[0]: dynamics 'hold': 1 images for the 2 keys of 'cell'"


def test_a_missing_required_key_is_named_at_its_declaration():
    data = json.loads(doc())
    del data["checks"][0]["kind"]
    with pytest.raises(ScenarioSyntaxError, match=r"^checks\[0\]: missing key 'kind'$"):
        parse_scenario(json.dumps(data))


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("depth", [4 * sys.getrecursionlimit(), 100 * sys.getrecursionlimit()])
def test_a_document_nested_past_the_recursion_limit_is_a_syntax_error(depth):
    with pytest.raises(ScenarioSyntaxError, match="maximum recursion depth exceeded"):
        parse_scenario(_nested(depth))


def test_a_value_nested_past_the_recursion_limit_is_reported_at_its_declaration():
    """A value deeper than a recursive walk could go is refused by the nesting bound, at its field."""
    for depth in (sys.getrecursionlimit() // 2 + 10, 600):
        text = doc().replace('"kind": "validate-theory"', f'"input": {_nested(depth)}, "kind": "compute"')
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario(text)
        assert str(err.value) == "checks[0].input: nests more than 100 containers"


def _deep_check(depth: int, bundle=None, field: str = "input"):
    """``bundle``, the voltage adder by default, with a compute check whose ``field`` nests ``depth`` deep."""
    value = "0"
    for _ in range(depth):
        value = (value,)
    check = CheckSpec("deep", "compute", theory="adder", **{field: value})
    return replace(bundle or build_voltage_adder(), checks=(check,))


CHECK_VALUES = ("state", "input", "expect")


@pytest.mark.parametrize("depth", [101, 3 * sys.getrecursionlimit()])
def test_a_check_value_nested_past_the_bound_is_refused_at_its_field(depth):
    for field in CHECK_VALUES:
        with pytest.raises(DeclarationError) as err:
            _deep_check(depth, field=field)
        assert str(err.value) == f"check 'deep': {field}: nests more than 100 containers"
        assert err.value.field == field


def test_a_check_value_at_the_bound_is_written_and_read_back():
    bare = ScenarioBundle((), (), (), (), (), (), (), (), ())
    for field in CHECK_VALUES:
        bundle = _deep_check(100, bare, field)
        assert parse_scenario(emit_scenario(bundle)) == bundle


def test_a_document_check_value_past_the_bound_is_a_diagnostic_at_its_path(tmp_path, capsys):
    """At the bound the check runs and its input is no member; one level deeper, the reader names it."""
    text = emit_scenario(_deep_check(100))
    assert run_checks(parse_scenario(text), TrialSeed(0)).results[0].error["type"] == "OutOfDomain"
    data = json.loads(text)
    deep = [data["checks"][0].pop("input")]
    for field in CHECK_VALUES:
        text = json.dumps({**data, "checks": [{**data["checks"][0], field: deep}]})
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario(text)
        assert str(err.value) == f"checks[0].{field}: nests more than 100 containers"
    (tmp_path / "deep.json").write_text(text, encoding="utf-8")
    assert main(["check", str(tmp_path / "deep.json")]) == 2
    err = capsys.readouterr().err
    assert err == "error: ScenarioSyntaxError: checks[0].expect: nests more than 100 containers\n"


@pytest.mark.parametrize("flag", ["--input", "--expect"])
def test_a_compute_value_past_the_bound_exits_2_naming_its_field(tmp_path, capsys, flag):
    path = tmp_path / "adder.json"
    path.write_text(emit_scenario(build_voltage_adder()), encoding="utf-8")
    values = {"--input": '["01","10","000"]', flag: "[" * 101 + '"0"' + "]" * 101}
    assert main(["compute", str(path), "--theory", "adder", *sum(values.items(), ())]) == 2
    reason = f"{flag.removeprefix('--')}: nests more than 100 containers"
    assert capsys.readouterr().err == f"error: DeclarationError: check 'compute:adder': {reason}\n"


def test_a_check_value_600_deep_is_refused_on_every_route(tmp_path, capsys):
    """The API, a document and ``abrep compute`` give the bound's message, however deep the value."""
    text = "[" * 600 + '"0"' + "]" * 600
    with pytest.raises(DeclarationError, match="^check 'deep': input: nests more than 100 containers$"):
        CheckSpec("deep", "compute", theory="adder", input=json.loads(text))
    with pytest.raises(ScenarioSyntaxError, match=r"^checks\[0\]\.input: nests more than 100 containers$"):
        parse_scenario(doc().replace('"kind": "validate-theory"', f'"input": {text}, "kind": "compute"'))
    path = tmp_path / "adder.json"
    path.write_text(emit_scenario(build_voltage_adder()), encoding="utf-8")
    assert main(["compute", str(path), "--theory", "adder", "--input", text]) == 2
    reason = "check 'compute:adder': input: nests more than 100 containers"
    assert capsys.readouterr().err == f"error: DeclarationError: {reason}\n"


def test_a_check_value_holds_tuples_at_every_level():
    """Arrays become tuples down to the bound; dicts and scalars stay as given."""
    value = "0"
    for _ in range(100):
        value = (value,)
    check = CheckSpec("deep", "compute", input=json.loads(json.dumps(value)), expect=[{"a": [1]}, 2.5])
    assert check.input == value and repr(check.input) == repr(value)
    assert repr(check.expect) == "({'a': [1]}, 2.5)"


#: The kept builtins, in declared order, as a refusal of another name lists them.
KEPT_BUILTINS = ("identity", "xor", "ripple-add", "swap-pair")
_NOT_A_BUILTIN = "expected one of " + ", ".join(map(repr, KEPT_BUILTINS))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda d: d["dynamics"]["abstract"].append(
                {"id": "twice", "space": "bit", "rule": {"kind": "chain", "parts": ["keep", "keep"]}}
            ),
            "dynamics.abstract[1].rule.kind: unknown rule kind 'chain'",
        ),
        (
            lambda d: d["dynamics"]["physical"][0].__setitem__(
                "noise", {"kind": "label-flip", "probability": 0.5, "partners": [["off", "on"], ["on", "off"]]}
            ),
            "dynamics.physical[0].noise.kind: unknown noise kind 'label-flip'",
        ),
        (
            lambda d: d["dynamics"]["abstract"][0]["rule"].__setitem__("name", "bit-not"),
            f"dynamics.abstract[0].rule.name: {_NOT_A_BUILTIN}",
        ),
        (
            lambda d: d["dynamics"]["abstract"][0]["rule"].__setitem__("name", "and"),
            f"dynamics.abstract[0].rule.name: {_NOT_A_BUILTIN}",
        ),
    ],
    ids=["chain", "label-flip", "bit-not", "and"],
)
def test_a_deleted_modelling_entry_is_refused_at_its_path(tmp_path, capsys, mutate, message):
    """The format keeps only the vocabulary an example uses: the rest is a diagnostic, and ``abrep check`` exits 2."""
    data = json.loads(doc())
    mutate(data)
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(data))
    assert str(err.value) == message
    path = tmp_path / "deleted.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: ScenarioSyntaxError: {message}\n"


_FLIP = {"kind": "coordinate-flip", "probability": 0.5, "coordinates": [0], "threshold": 2.5, "low": 0.0, "high": 5.0}


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["checks"][0].__setitem__("trails", 7), "checks[0]: unknown key 'trails'"),
        (lambda d: d["checks"][0].__setitem__("epsilonn", 0.5), "checks[0]: unknown key 'epsilonn'"),
        (lambda d: d["relations"][0]["rule"].__setitem__("entires", []), "relations[0].rule: unknown key 'entires'"),
        (
            lambda d: d["dynamics"]["physical"][0].__setitem__("noise", {**_FLIP, "probabilty": 1.0}),
            "dynamics.physical[0].noise: unknown key 'probabilty'",
        ),
        (lambda d: d["theories"][0].__setitem__("instantiaton", {}), "theories[0]: unknown key 'instantiaton'"),
        (lambda d: d["spaces"]["abstract"][0].__setitem__("widht", 3), "spaces.abstract[0]: unknown key 'widht'"),
        (lambda d: d["spaces"].__setitem__("abstrct", []), "spaces: unknown key 'abstrct'"),
        (lambda d: d["dynamics"].__setitem__("physicl", []), "dynamics: unknown key 'physicl'"),
        (
            lambda d: d["checks"].__setitem__(0, {"zeta": 1, **d["checks"][0], "alpha": 2}),
            "checks[0]: unknown key 'zeta'",
        ),
    ],
    ids=["check", "check-tolerance", "rule", "noise", "theory", "space", "spaces", "dynamics", "first-in-order"],
)
def test_a_key_that_no_field_declares_is_refused_at_its_path(tmp_path, capsys, mutate, message):
    """A misspelt key would be dropped and its field read at its default: it is a diagnostic, and exits 2."""
    data = json.loads(doc())
    mutate(data)
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(data))
    assert str(err.value) == message
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: ScenarioSyntaxError: {message}\n"


def test_a_key_repeated_in_one_object_is_refused(tmp_path, capsys):
    """JSON keeps a repeated key's last copy, so the first ``trials``, 0, would go unread and unchecked."""
    text = doc().replace('"kind": "validate-theory",', '"kind": "validate-theory", "trials": 0, "trials": 1,')
    assert text != doc()
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(text)
    assert str(err.value) == "duplicate key 'trials'"
    path = tmp_path / "repeated.json"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: ScenarioSyntaxError: duplicate key 'trials'\n"
    path.write_text(doc(), encoding="utf-8")
    repeated = '{"a": 1, "a": 2}'
    for values in (["--input", repeated], ["--input", '"1"', "--expect", repeated]):  # read as the document is
        assert main(["compute", str(path), "--theory", "cell-theory", *values]) == 2
        assert capsys.readouterr().err == "error: ScenarioSyntaxError: state value: duplicate key 'a'\n"


def test_the_reserved_dynamics_ids_are_exactly_the_kept_builtin_names():
    """A dynamics id may not be a kept builtin's name; the deleted builtins' names are ordinary ids."""
    assert BUILTIN_NAMES == KEPT_BUILTINS
    for name in KEPT_BUILTINS + ("bit-not", "and"):
        data = json.loads(doc())
        data["dynamics"]["abstract"][0]["id"] = name
        data["theories"][0]["predictions"][0]["abstract"] = name
        if name in KEPT_BUILTINS:
            with pytest.raises(ScenarioSyntaxError) as err:
                parse_scenario(json.dumps(data))
            assert str(err.value) == f"dynamics.abstract[0].id: {name!r} is a reserved builtin name"
        else:
            assert parse_scenario(json.dumps(data)).abstract_dynamics[0].id == name


def _chain_doc(depth: int) -> dict:
    """A document of ``depth`` tuple spaces, each the one component of the next, and a table over the last."""
    spaces = [{"id": "t0", "kind": "labels", "labels": ["a", "b"]}]
    spaces += [{"id": f"t{i}", "kind": "tuple", "components": [f"t{i - 1}"]} for i in range(1, depth + 1)]
    values = [json.loads("[" * depth + json.dumps(label) + "]" * depth) for label in "ab"]
    table = {"kind": "table", "entries": [[values[0], values[1]], [values[1], values[0]]]}
    dynamics = {"id": "flip", "space": f"t{depth}", "rule": table}
    return {"format_version": "1", "spaces": {"abstract": spaces}, "dynamics": {"abstract": [dynamics]}}


def test_a_tuple_space_chain_past_the_bound_is_a_diagnostic_at_its_path(tmp_path, capsys):
    """A chain 100 deep reads, steps and writes back; a 101st level is refused at its path, and exits 2."""
    bundle = parse_scenario(json.dumps(_chain_doc(100)))
    (flip,) = bundle.abstract_dynamics
    assert [flip._apply(v) for v in enumerate_values(flip.space)] == list(enumerate_values(flip.space))[::-1]
    assert parse_scenario(emit_scenario(bundle)) == bundle
    text = json.dumps(_chain_doc(101))
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(text)
    assert str(err.value) == "spaces.abstract[101].components: nests more than 100 tuple spaces"
    (tmp_path / "chain.json").write_text(text, encoding="utf-8")
    assert main(["check", str(tmp_path / "chain.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ScenarioSyntaxError: spaces.abstract[101].components:")


def _swap_doc() -> dict:
    return json.loads(emit_scenario(BUILTIN_SCENARIOS["swap-device"]()))


def _replaced(data: dict, path: str, value) -> str:
    """``data`` as text, its item at a document path such as ``theories[0].domain[0]`` replaced."""
    holder, _, index = path.rpartition("[")
    at(data, holder)[int(index[:-1])] = value
    return json.dumps(data)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (
            "dynamics.physical[0].rule.entries[1][0]",
            ["0", "1", "2"],
            "value ['0', '1', '2'] is not a member of space 'swap.registers'",
        ),
        (
            "dynamics.physical[0].rule.entries[1][1]",
            ["0", "x"],
            "value 'x' is not a member of space 'swap.digits'",
        ),
        ("theories[0].domain[0]", [7, "0"], "value 7 is not a member of space 'swap.digits'"),
    ],
    ids=["table-key", "table-image", "state"],
)
def test_a_value_outside_its_space_is_named_at_its_path(path, value, message):
    """An array shows as a list, and a product's value names its first part that is not a member."""
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(_replaced(_swap_doc(), path, value))
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "table, pair, message",
    [
        ("relations[0].rule.entries", ["3", 7], "relations[0].rule.entries[10][0]: duplicate key '3'"),
        (
            "dynamics.physical[0].rule.entries",
            [["0", "1"], ["0", "1"]],
            "dynamics.physical[0].rule.entries[100][0]: duplicate key ('0', '1')",
        ),
    ],
    ids=["lookup", "table"],
)
def test_a_repeated_table_key_is_refused_at_its_path(tmp_path, capsys, table, pair, message):
    """The second pair with a key is refused, not kept over the first, and ``abrep check`` exits 2."""
    data = _swap_doc()
    at(data, table).append(pair)
    with pytest.raises(ScenarioSyntaxError, match=f"^{re.escape(message)}$"):
        parse_scenario(json.dumps(data))
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_table_keys_are_compared_as_members_of_their_space():
    """``[0, 5]`` and ``[0.0, 5.0]`` are one vector: the second is refused before the table is checked."""
    data = json.loads(doc())
    data["spaces"]["physical"].append({"id": "v2", "kind": "vector", "bounds": [[0, 5], [0, 5]]})
    entries = [[[0, 5], "0"], [[0.0, 5.0], "1"]]
    rule = {"kind": "lookup", "entries": entries}
    data["relations"].append({"id": "dial", "domain": "v2", "codomain": "bit", "rule": rule})
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(data))
    assert str(err.value) == "relations[1].rule.entries[1][0]: duplicate key (0.0, 5.0)"


@pytest.mark.parametrize(
    "entries, message",
    [
        ([["off", "on"], ["on", "off"], ["off", "off"]], r"entries\[2\]\[0\]: duplicate key 'off'"),
        ([[0, "on"], ["on", "off"], [0.0, "off"]], r"entries\[0\]\[0\]: value 0 is not a member of space 'cell'"),
    ],
    ids=["label", "equal-numbers"],
)
def test_a_repeated_device_table_key_is_refused_at_its_path(entries, message):
    with pytest.raises(ScenarioSyntaxError, match=rf"^dynamics\.physical\[0\]\.rule\.{message}$"):
        parse_scenario(json.dumps(_device_doc(entries)))


def _reading_family(width: int) -> tuple[str, SimpleNamespace]:
    """A document around the ``width``-bit adder, and what its reading cost grows with.

    Its theory lists 4**width line states; a lookup table maps 2**width cell
    labels onto the register's values; and ``width`` compute checks each
    write an ``input`` and an ``expect``.
    """
    theory = adder_theory(width)
    read, pred = theory.representation, theory.predictions[0]
    register, _, out = read.codomain.components
    words = tuple(enumerate_values(register))
    cells = PhysicalLabelSpace(f"adder{width}.cells", tuple(f"c{w}" for w in words))
    label = RepresentationRelation(
        f"adder{width}.label", cells, register, LookupRule({f"c{w}": w for w in words})
    )
    checks = tuple(
        CheckSpec(f"add-{w}", "compute", theory=theory.id, input=(w, w, "0" + w), expect=(w, w, w + "0"))
        for w in words[:width]
    )
    declared_spaces = (register, out, read.codomain, read.domain, cells)
    text = emit_scenario(_bundle(checks, *declared_spaces, read, label, pred.abstract, pred.physical, theory))
    return text, SimpleNamespace(
        lines=read.domain.id, cells=cells.id, register=register.id,
        states=len(theory.domain), keys=len(words), raw=2 * len(checks),
    )


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_reading_cost_law(monkeypatch, width):
    """One membership check per state literal and table key, at most two per table image.

    The reader checks each value once, and a table's declaration checks its
    images again. ``CheckSpec`` turns the arrays of each check value it is
    given into tuples once, and the reader converts no state or table.
    """
    text, size = _reading_family(width)
    checks, raws, depth = Counter(), [0], [0]
    for cls, rule in list(spaces._SHAPES.items()):

        def counted(space, value, rule=rule):
            checks[space.id] += 1
            return rule(space, value)

        monkeypatch.setitem(spaces._SHAPES, cls, counted)
    walk = scenarios._tuples

    def outermost(value):
        raws[0] += depth[0] == 0 and value is not None
        depth[0] += 1
        try:
            return walk(value)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(scenarios, "_tuples", outermost)
    bundle = parse_scenario(text)
    assert len(bundle.theories[0].domain) == size.states == 4**width
    assert raws[0] == size.raw == 2 * width
    assert checks[size.lines] == size.states
    assert checks[size.cells] == size.keys == 2**width
    assert size.keys <= checks[size.register] <= 2 * size.keys
    assert set(checks) == {size.lines, size.cells, size.register}
