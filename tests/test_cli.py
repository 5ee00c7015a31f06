import json
import math
import sys

import pytest

from abrep.cli import main, parse_state_literal
from abrep.document import emit_scenario
from abrep.errors import ScenarioSyntaxError
from abrep.dynamics import TrialSeed
from abrep.runner import report_to_json, run_checks
from abrep.scenarios import BUILTIN_SCENARIOS, CheckSpec


def write_scenario(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(emit_scenario(BUILTIN_SCENARIOS[name]()), encoding="utf-8")
    return str(path)


def test_parse_state_literal_forms():
    assert parse_state_literal('["01","10","000"]') == ("01", "10", "000")
    assert parse_state_literal("[7, 9]") == (7, 9)
    assert parse_state_literal('"01"') == "01"
    assert parse_state_literal('"up"') == "up"
    assert parse_state_literal("42") == 42
    assert parse_state_literal('[["01","10"], 3]') == (("01", "10"), 3)
    with pytest.raises(ScenarioSyntaxError):
        parse_state_literal('["01"')
    with pytest.raises(ScenarioSyntaxError):
        parse_state_literal("up")


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
    with pytest.raises(ScenarioSyntaxError, match="^state value: Exceeds the limit"):
        parse_state_literal("7" * 5000)


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


#: Deeper than a value's reader can recurse, and deeper than the JSON decoder can.
NESTINGS = [sys.getrecursionlimit() // 2 + 10, 100 * sys.getrecursionlimit()]


@pytest.mark.parametrize("depth", NESTINGS, ids=["reader", "decoder"])
@pytest.mark.parametrize("flag", ["--input", "--expect"])
def test_compute_command_rejects_values_nested_too_deeply(tmp_path, capsys, flag, depth):
    path = write_scenario(tmp_path, "voltage-adder")
    values = {"--input": '["01","10","000"]', flag: _nested(depth)}  # a deep input replaces the first
    assert main(["compute", path, "--theory", "adder", *sum(values.items(), ())]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ScenarioSyntaxError: state value: maximum recursion depth exceeded")
    with pytest.raises(ScenarioSyntaxError, match="^state value: maximum recursion depth exceeded"):
        parse_state_literal(_nested(depth))


@pytest.mark.parametrize("depth", NESTINGS, ids=["reader", "decoder"])
def test_check_command_rejects_documents_nested_too_deeply(tmp_path, capsys, depth):
    text = emit_scenario(BUILTIN_SCENARIOS["voltage-adder"]())
    path = tmp_path / "deep.json"
    path.write_text(text.replace('"input": [', f'"input": [{_nested(depth)}, ', 1), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
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
    assert main(["scenarios", "emit", "not-a-scenario"]) == 2


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


@pytest.mark.parametrize(
    "name, flags, check",
    [
        (
            "voltage-adder-noisy",
            ["validate-theory", "--theory", "adder", "--trials", "3", "--epsilon", "0.5",
             "--metric", "hamming", "--required-success", "0.5"],
            CheckSpec("validate:adder", "validate-theory", theory="adder", epsilon=0.5,
                      metric="hamming", trials=3, required_success=0.5),
        ),
        (
            "refinement-stack",
            ["check-stack", "--stack", "stack.adder", "--trials", "2", "--epsilon", "1",
             "--metric", "discrete"],
            CheckSpec("stack:stack.adder", "stack", stack="stack.adder", epsilon=1.0,
                      metric="discrete", trials=2),
        ),
    ],
    ids=["validate-theory", "check-stack"],
)
def test_single_check_commands_run_the_equivalent_check(tmp_path, capsys, name, flags, check):
    path = write_scenario(tmp_path, name)
    code = main([flags[0], path, *flags[1:], "--seed", "5", "--format", "json"])
    report = run_checks(BUILTIN_SCENARIOS[name](), TrialSeed(5), checks=(check,))
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
