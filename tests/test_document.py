import json
import math
import sys
from dataclasses import replace

import pytest

from abrep import (
    BUILTIN_SCENARIOS,
    DISCRETE,
    BitSpace,
    CheckSpec,
    CoordinateFlipNoise,
    CoordinateUpdateRule,
    DeclarationError,
    DiagramSpec,
    DuplicateIdentifier,
    ScenarioError,
    IntSpace,
    LabelFlipNoise,
    LabelSpace,
    PhysicalLabelSpace,
    PhysicalTupleSpace,
    RealVectorSpace,
    ScenarioSyntaxError,
    ThresholdRule,
    TrialSeed,
    TupleSpace,
    UnknownReference,
    VersionUnsupported,
    build_social_machine,
    check_layer,
    emit_scenario,
    enumerate_values,
    parse_scenario,
)
from abrep.document import raw_value, value_to_json
from abrep.runner import run_checks
from abrep.spaces import is_finite, normalize_value
from support import at, field_sites

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
    with pytest.raises(VersionUnsupported):
        parse_scenario(doc(format_version="2"))
    with pytest.raises(VersionUnsupported):
        parse_scenario(json.dumps({"spaces": {}}))


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


def test_reserved_builtin_names_rejected_as_dynamics_ids():
    bad = json.loads(doc())
    bad["dynamics"]["abstract"].append(
        {"id": "xor", "space": "bit", "rule": {"kind": "builtin", "name": "identity"}}
    )
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(json.dumps(bad))


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
    assert str(err.value) == f"checks[{at}]: history checks must declare a physical metric"


def test_partial_lookup_table_is_a_parse_diagnostic():
    bad = json.loads(doc())
    bad["relations"][0]["rule"]["entries"] = [["off", "0"]]
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(bad))
    assert "relations[0]" in str(err.value)


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
    assert str(err.value) == f"spaces.{side}[1].labels[{at}]: expected a string label"


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


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_value_to_json_round_trips_every_value(name):
    bundle = BUILTIN_SCENARIOS[name]()
    joint_spaces = [s for j in bundle.joints for s in (j.joint_space, j.joint_dynamics.space)]
    spaces = [*bundle.abstract_spaces, *bundle.physical_spaces, *joint_spaces]
    cases = [(s, v) for s in spaces if is_finite(s) for v in enumerate_values(s)]
    cases += [(t.representation.domain, p.value) for t in bundle.theories for p in t.domain]
    assert cases
    for space, value in cases:
        decoded = raw_value(json.loads(json.dumps(value_to_json(value))))
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
    listed = replace(bundle, abstract_dynamics=(*bundle.abstract_dynamics, product))
    with pytest.raises(DeclarationError, match="'social.side-by-side.dynamics'"):
        emit_scenario(listed)


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
        ("refs", "list", "numbers", "states", "entries", "pairs", "bounds", "many"), ""
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
        (lambda: LabelFlipNoise(0.5, 5), "partners"),
        (lambda: CoordinateUpdateRule(5), "assignments"),
        (lambda: ThresholdRule((1, "a")), "thresholds[1]"),
        (lambda: CheckSpec("c", "commutation", trials=2.9), "trials"),
    ],
    ids=["flip-lines", "label-partners", "assignments", "threshold", "trials"],
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
        (lambda: LabelFlipNoise(-0.5, {"a": "a"}), "label-flip noise: probability: must lie in [0, 1]"),
        (lambda: TrialSeed(2**64), "trial seed: value: must fit in 64 bits"),
        (lambda: TrialSeed(-1), "trial seed: value: must fit in 64 bits"),
        (lambda: _diagram(epsilon=-0.1), "diagram: epsilon: must be non-negative"),
        (lambda: _diagram(trials=0), "diagram: trials: must be at least 1"),
        (lambda: _diagram(required_success=0.0), "diagram: required_success: must lie in (0, 1]"),
        (lambda: _diagram(required_success=1.5), "diagram: required_success: must lie in (0, 1]"),
        (lambda: BitSpace("x", 0), "space 'x': width: must be at least 1"),
        (lambda: check_layer(BUILTIN_SCENARIOS["refinement-stack"]().stacks[0].relations[0], -1, DISCRETE),
         "layer check: epsilon: must be non-negative"),
        (lambda: CheckSpec("c", "compute", trials=0), "check 'c': trials: must be at least 1"),
        (lambda: CheckSpec("c", "stack", epsilon=-1), "check 'c': epsilon: must be non-negative"),
        (lambda: CheckSpec("c", "experiment", required_success=0),
         "check 'c': required_success: must lie in (0, 1]"),
        (lambda: CheckSpec("c", "experiment", required_success=1.01),
         "check 'c': required_success: must lie in (0, 1]"),
    ],
    ids=[
        "flip-probability", "label-probability", "seed-too-large", "seed-negative", "epsilon",
        "trials", "success-zero", "success-above-one", "width", "layer-epsilon", "check-trials",
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


def test_label_flip_partners_round_trip_through_a_document():
    data = json.loads(doc())
    noise = {"kind": "label-flip", "probability": 0.25, "partners": [["off", "on"], ["on", "off"]]}
    data["dynamics"]["physical"][0]["noise"] = noise
    bundle = parse_scenario(json.dumps(data))
    assert bundle.physical_dynamics[0].noise == LabelFlipNoise(0.25, {"off": "on", "on": "off"})
    assert json.loads(emit_scenario(bundle))["dynamics"]["physical"][0]["noise"] == noise
    assert parse_scenario(emit_scenario(bundle)) == bundle


def test_an_unhashable_partner_is_a_malformed_declaration_at_the_noise():
    data = json.loads(doc())
    partners = [[["off"], "on"]]
    noise = {"kind": "label-flip", "probability": 0.5, "partners": partners}
    data["dynamics"]["physical"][0]["noise"] = noise
    with pytest.raises(
        ScenarioSyntaxError,
        match=r"^dynamics\.physical\[0\]\.noise: malformed declaration \(unhashable type: 'list'\)$",
    ):
        parse_scenario(json.dumps(data))


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
    """Each nested array costs the reader more than one frame, so half the limit is too deep."""
    text = doc().replace('"kind": "validate-theory"', '"input": %s, "kind": "compute"' % _nested(
        sys.getrecursionlimit() // 2 + 10
    ))
    with pytest.raises(
        ScenarioSyntaxError,
        match=r"^checks\[0\]: malformed declaration \(maximum recursion depth exceeded",
    ):
        parse_scenario(text)
