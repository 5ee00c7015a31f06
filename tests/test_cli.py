import json
import math
import re
import sys
from dataclasses import replace

import pytest

from abrep import DISCRETE, DeclarationError, validate_theory
from abrep.cli import main
from abrep.document import emit_scenario
from abrep.dynamics import TrialSeed
from abrep.runner import report_to_json, run_checks
from abrep.scenarios import BUILTIN_SCENARIOS, CheckSpec


def write_scenario(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(emit_scenario(BUILTIN_SCENARIOS[name]()), encoding="utf-8")
    return str(path)


def test_parse_state_literal_forms(tmp_path, capsys):
    """A state value is JSON, and its check holds it with every array as a tuple."""
    forms = {
        '["01","10","000"]': ("01", "10", "000"),
        "[7, 9]": (7, 9),
        '"01"': "01",
        '"up"': "up",
        "42": 42,
        '[["01","10"], 3]': (("01", "10"), 3),
    }
    for text, value in forms.items():
        check = CheckSpec("c", "compute", input=json.loads(text))
        assert check.input == value and repr(check.input) == repr(value)
    path = write_scenario(tmp_path, "voltage-adder")
    for text in ('["01"', "up"):
        assert main(["compute", path, "--theory", "adder", "--input", text]) == 2
        assert capsys.readouterr().err.startswith("error: ScenarioSyntaxError: state value: ")


def test_check_command_passes_on_sound_bundle(tmp_path, capsys):
    path = write_scenario(tmp_path, "voltage-adder")
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "add-01-10" in out


def test_check_command_fails_on_faulted_bundle(tmp_path, capsys):
    path = write_scenario(tmp_path, "voltage-adder-faulted")
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_check_command_errors_on_missing_object(tmp_path, capsys):
    data = json.loads(emit_scenario(BUILTIN_SCENARIOS["voltage-adder"]()))
    data["checks"].append({"name": "ghost", "kind": "compute", "theory": "nope", "input": "0"})
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr().out
    assert "ERROR" in out


def test_check_command_rejects_invalid_input_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "ScenarioSyntaxError" in err


def test_an_integer_past_the_digit_limit_is_a_syntax_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"format_version": 1, "spaces": ' + "7" * 5000 + "}", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ScenarioSyntaxError: Exceeds the limit (4300 digits)")
    path = write_scenario(tmp_path, "voltage-adder")
    assert main(["compute", path, "--theory", "adder", "--input", "7" * 5000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ScenarioSyntaxError: state value: Exceeds the limit (4300 digits)")


def test_a_table_over_keys_too_many_to_show_exits_2(tmp_path, capsys):
    """A key count past the digit limit is shown by a stand-in, and the document is refused."""
    document = {
        "format_version": "1",
        "spaces": {"abstract": [{"id": "b", "kind": "bits", "width": 20000}], "physical": []},
        "relations": [],
        "dynamics": {"abstract": [{"id": "d", "space": "b", "rule": {"kind": "table", "entries": []}}]},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: ScenarioSyntaxError: dynamics.abstract[0]:"
        " dynamics 'd': 0 images for the <int too large to show> keys of 'b'\n"
    )


def test_a_misspelled_class_is_refused_where_it_is_declared(tmp_path, capsys):
    """A check cannot expect a class that no joint has: it exits 2 and does not report FAIL."""
    data = json.loads(emit_scenario(BUILTIN_SCENARIOS["xor-joint"]()))
    assert data["checks"][2]["expect_class"] == "Heterotic"
    data["checks"][2]["expect_class"] = "heterotic"
    path = tmp_path / "misspelled.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: ScenarioSyntaxError: checks[2].expect_class: expected one of 'Hybrid', 'Heterotic'\n"
    )


@pytest.mark.parametrize(
    "parts, message",
    [
        (
            ["xor.right.read", "xor.left.read"],
            "ScenarioSyntaxError: relations[2]: relation 'xor.read-pair':"
            " part 'xor.right.read' does not line up with the product components",
        ),
        (
            ["xor.left.read", "xor.keep-bit"],
            "UnknownReference: relations[2].rule.parts[1]: unknown identifier 'xor.keep-bit'",
        ),
    ],
    ids=["swapped", "a-program"],
)
def test_a_tuple_wise_reading_of_the_wrong_parts_exits_2(tmp_path, capsys, parts, message):
    """A document's tuple-wise parts name relations only, each reading its own component."""
    data = json.loads(emit_scenario(BUILTIN_SCENARIOS["xor-joint"]()))
    rule = data["relations"][2]["rule"]
    assert rule == {"kind": "tuple-wise", "parts": ["xor.left.read", "xor.right.read"]}
    rule["parts"] = parts
    path = tmp_path / "misread.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_filter_selects_matching_checks_in_order(tmp_path, capsys):
    path = write_scenario(tmp_path, "voltage-adder")
    assert main(["check", path, "--filter", "add-*", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in data["checks"]] == ["add-01-10"]

    # filtering out the validate step leaves compute checks without a
    # validated theory: they error, and the gate stays visible
    assert main(["check", path, "--filter", "cycle-*", "--format", "json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in data["checks"]] == ["cycle-01-10", "cycle-11-11"]
    assert {c["error"]["type"] for c in data["checks"]} == {"TheoryNotValidated"}


def test_json_reports_are_byte_identical_for_fixed_seed(tmp_path, capsys):
    path = write_scenario(tmp_path, "voltage-adder-noisy")
    assert main(["check", path, "--seed", "7", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["check", path, "--seed", "7", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert main(["check", path, "--seed", "8", "--format", "json"]) == 0
    other_seed = capsys.readouterr().out
    assert other_seed != first


def test_validate_theory_command(tmp_path, capsys):
    path = write_scenario(tmp_path, "swap-device")
    assert main(["validate-theory", path, "--theory", "swap"]) == 0
    assert "validate:swap" in capsys.readouterr().out


def test_compute_command_runs_a_cycle(tmp_path, capsys):
    path = write_scenario(tmp_path, "voltage-adder")
    code = main(
        ["compute", path, "--theory", "adder", "--input", '["01","10","000"]', "--format", "json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    compute = data["checks"][1]
    assert compute["detail"]["output"]["value"] == ["01", "10", "011"]


def test_compute_command_flags_wrong_expectation(tmp_path, capsys):
    path = write_scenario(tmp_path, "voltage-adder")
    code = main(
        [
            "compute",
            path,
            "--theory",
            "adder",
            "--input",
            '["01","10","000"]',
            "--expect",
            '["01","10","111"]',
        ]
    )
    assert code == 1


def test_compute_command_errors_on_an_input_prepared_outside_the_domain(tmp_path, capsys):
    """The first seed for this input prepares a configuration that validation never checked."""
    path = write_scenario(tmp_path, "voltage-adder")
    code = main(
        ["compute", path, "--theory", "adder", "--input", '["01","10","111"]', "--format", "json"]
    )
    assert code == 2
    compute = json.loads(capsys.readouterr().out)["checks"][1]
    assert compute["status"] == "error" and compute["detail"] == {}
    message = "configuration is outside the declared domain of theory 'adder'"
    assert compute["error"] == {"type": "OutOfDomain", "message": message}


@pytest.mark.parametrize(
    "values",
    [
        ["--input", '("01","10","000")'],
        ["--input", '["01","10","000"]', "--expect", '("01","10","011")'],
    ],
    ids=["input", "expect"],
)
def test_compute_command_rejects_values_that_are_not_json(tmp_path, capsys, values):
    path = write_scenario(tmp_path, "voltage-adder")
    assert main(["compute", path, "--theory", "adder", *values]) == 2
    err = capsys.readouterr().err
    assert "ScenarioSyntaxError" in err
    assert "Traceback" not in err


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


#: Past the nesting bound by more than the interpreter's stack allows a recursive walk, and
#: deeper than the JSON decoder can read.
NESTINGS = [sys.getrecursionlimit() // 2 + 10, 100 * sys.getrecursionlimit()]


@pytest.mark.parametrize("depth", NESTINGS, ids=["reader", "decoder"])
@pytest.mark.parametrize("flag", ["--input", "--expect"])
def test_compute_command_rejects_values_nested_too_deeply(tmp_path, capsys, flag, depth):
    """The bound names the field of a value the decoder reads; the decoder refuses a deeper one."""
    path = write_scenario(tmp_path, "voltage-adder")
    values = {"--input": '["01","10","000"]', flag: _nested(depth)}  # a deep input replaces the first
    assert main(["compute", path, "--theory", "adder", *sum(values.items(), ())]) == 2
    err = capsys.readouterr().err
    if depth == NESTINGS[0]:
        reason = f"{flag.removeprefix('--')}: nests more than 100 containers"
        assert err == f"error: DeclarationError: check 'compute:adder': {reason}\n"
    else:
        assert err.startswith("error: ScenarioSyntaxError: state value: maximum recursion depth exceeded")


@pytest.mark.parametrize("depth", NESTINGS, ids=["reader", "decoder"])
def test_check_command_rejects_documents_nested_too_deeply(tmp_path, capsys, depth):
    text = emit_scenario(BUILTIN_SCENARIOS["voltage-adder"]())
    path = tmp_path / "deep.json"
    path.write_text(text.replace('"input": [', f'"input": [{_nested(depth)}, ', 1), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    if depth == NESTINGS[0]:
        reason = r"checks\[\d+\]\.input: nests more than 100 containers"
        assert re.fullmatch(f"error: ScenarioSyntaxError: {reason}\n", err)
    else:
        assert err.startswith("error: ScenarioSyntaxError: ") and "maximum recursion depth" in err


def test_check_command_on_a_missing_file_exits_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory") and "absent.json" in err


def test_check_stack_command(tmp_path, capsys):
    path = write_scenario(tmp_path, "refinement-stack")
    assert main(["check-stack", path, "--stack", "stack.adder"]) == 0
    path = write_scenario(tmp_path, "refinement-stack-miswired")
    assert main(["check-stack", path, "--stack", "stack.adder"]) == 1


def test_classify_command_with_oracle(tmp_path, capsys):
    path = write_scenario(tmp_path, "xor-joint")
    assert main(["classify", path, "--joint", "xor.joint", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "Heterotic" in out
    assert main(["classify", path, "--joint", "missing"]) == 2


def test_scenarios_emit_prints_parseable_documents(capsys):
    assert main(["scenarios", "emit", "social-machine"]) == 0
    text = capsys.readouterr().out
    from abrep import parse_scenario

    bundle = parse_scenario(text)
    assert bundle.joint("social.galaxy-zoo")
    with pytest.raises(SystemExit) as exit_info:  # argparse refuses it as a usage error
        main(["scenarios", "emit", "not-a-scenario"])
    assert exit_info.value.code == 2


def test_epsilon_and_trials_overrides_apply(tmp_path, capsys):
    path = write_scenario(tmp_path, "voltage-adder-faulted")
    # a generous tolerance lets the faulted commutation checks pass, while
    # validation still reports invalid cells at distance 1
    assert main(["check", path, "--epsilon", "1.0", "--filter", "add-*"]) == 0


def test_a_check_with_no_trials_is_refused_before_any_check_runs(tmp_path, capsys):
    data = json.loads(emit_scenario(BUILTIN_SCENARIOS["voltage-adder-noisy"]()))
    data["checks"][1]["trials"] = 0
    path = tmp_path / "no-trials.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ScenarioSyntaxError: checks[1].trials: must be at least 1\n"
    assert main(["check", write_scenario(tmp_path, "voltage-adder"), "--trials", "0"]) == 2
    assert "trials: must be at least 1" in capsys.readouterr().err


def test_a_trial_count_past_the_index_range_is_refused(tmp_path, capsys):
    too_many = sys.maxsize + 1  # ``(0,) * trials`` would raise OverflowError
    data = json.loads(emit_scenario(BUILTIN_SCENARIOS["voltage-adder"]()))
    data["checks"][0]["trials"] = too_many
    path = tmp_path / "too-many-trials.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: ScenarioSyntaxError: checks[0].trials: must be at most {sys.maxsize}\n"
    )
    path = write_scenario(tmp_path, "voltage-adder")
    assert main(["check", path, "--trials", str(too_many)]) == 2
    assert f"trials: must be at most {sys.maxsize}\n" in capsys.readouterr().err
    theory = BUILTIN_SCENARIOS["voltage-adder"]().theories[0]
    with pytest.raises(DeclarationError, match=f"trials: must be at most {sys.maxsize}$"):
        validate_theory(theory, 0.0, DISCRETE, too_many, 1.0, TrialSeed(0))


@pytest.mark.parametrize(
    "name, flags, checks, name_filter",
    [
        (
            "voltage-adder-noisy",
            ["validate-theory", "--theory", "adder", "--trials", "3", "--epsilon", "0.5",
             "--metric", "hamming", "--required-success", "0.5"],
            lambda bundle: (
                CheckSpec("validate:adder", "validate-theory", theory="adder", epsilon=0.5,
                          metric="hamming", trials=3, required_success=0.5),
            ),
            None,
        ),
        (
            "voltage-adder",
            ["compute", "--theory", "adder", "--input", '["01","10","000"]', "--prediction", "add",
             "--expect", '["01","10","011"]'],
            lambda bundle: (
                CheckSpec("validate:adder", "validate-theory", theory="adder"),
                CheckSpec("compute:adder", "compute", theory="adder", prediction="add",
                          input=("01", "10", "000"), expect=("01", "10", "011")),
            ),
            None,
        ),
        (
            "refinement-stack",
            ["check-stack", "--stack", "stack.adder", "--trials", "2", "--epsilon", "1",
             "--metric", "discrete"],
            lambda bundle: (
                CheckSpec("stack:stack.adder", "stack", stack="stack.adder", epsilon=1.0,
                          metric="discrete", trials=2),
            ),
            None,
        ),
        (
            "xor-joint",
            ["classify", "--joint", "xor.joint", "--oracle"],
            lambda bundle: (CheckSpec("classify:xor.joint", "classify", joint="xor.joint", oracle=True),),
            None,
        ),
        (
            "voltage-adder-faulted",
            ["check", "--epsilon", "1", "--trials", "2", "--filter", "add-*"],
            lambda bundle: tuple(replace(c, epsilon=1.0, trials=2) for c in bundle.checks),
            "add-*",
        ),
    ],
    ids=["validate-theory", "compute", "check-stack", "classify", "check"],
)
def test_single_check_commands_run_the_equivalent_check(
    tmp_path, capsys, name, flags, checks, name_filter
):
    path = write_scenario(tmp_path, name)
    code = main([flags[0], path, *flags[1:], "--seed", "5", "--format", "json"])
    bundle = BUILTIN_SCENARIOS[name]()
    report = run_checks(bundle, TrialSeed(5), name_filter, checks(bundle))
    assert capsys.readouterr().out == report_to_json(report)
    assert code == report.exit_code


@pytest.mark.parametrize(
    "flags, field",
    [
        (["check", "--epsilon", "nan"], "epsilon"),
        (["check", "--epsilon=-inf"], "epsilon"),
        (["validate-theory", "--theory", "adder", "--required-success", "nan"], "required_success"),
    ],
    ids=["nan-epsilon", "inf-epsilon", "nan-success"],
)
def test_non_finite_flag_values_are_usage_errors(tmp_path, capsys, flags, field):
    path = write_scenario(tmp_path, "voltage-adder")
    assert main([flags[0], path, *flags[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DeclarationError: check '")
    assert f": {field}: expected a finite number" in err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["checks"][1].__setitem__("theory", ["adder"]),
        lambda d: d["dynamics"]["physical"][0]["rule"]["assignments"][0].__setitem__("a", [0.0, 1]),
        lambda d: d["checks"][2].__setitem__("expect", 5),
        lambda d: d["checks"][1].__setitem__("oracle", "false"),
        lambda d: d["checks"][1].__setitem__("trials", 2.9),
        lambda d: d["checks"][1].__setitem__("epsilon", "0.5"),
        lambda d: d["dynamics"]["physical"][0]["rule"]["assignments"][0].__setitem__("threshold", "2.5"),
        lambda d: d["checks"][1].__setitem__("epsilon", math.nan),
        lambda d: d["dynamics"]["physical"][0]["rule"]["assignments"][0].__setitem__("threshold", math.inf),
    ],
    ids=[
        "list-theory-id", "float-line-index", "expect-shape",
        "str-oracle", "float-trials", "str-epsilon", "str-threshold",
        "nan-epsilon", "inf-threshold",
    ],
)
def test_malformed_documents_exit_2_without_a_traceback(tmp_path, capsys, mutate):
    data = json.loads(emit_scenario(BUILTIN_SCENARIOS["voltage-adder"]()))
    mutate(data)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
