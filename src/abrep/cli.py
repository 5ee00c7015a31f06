"""Command-line verification driver.

Batch-only by design: load a scenario file, run checks, print a report, and
exit 0 when everything passed, 1 when at least one check failed, and 2 when
a check errored or the input was invalid.

Commands:
  check FILE                 run every declared check (optionally filtered)
  validate-theory FILE       validate one theory exhaustively
  compute FILE               run one compute cycle on a validated theory
  check-stack FILE           verify a refinement stack down to its device
  classify FILE              classify a joint system (optionally vs oracle)
  scenarios emit NAME        print a built-in scenario document

State values on the command line are JSON, as in scenario documents: the
input triple of machine registers reads as '["01","10","000"]'.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .document import _loads, emit_scenario, parse_scenario
from .dynamics import TrialSeed
from .errors import ModelError
from .runner import render_report, report_to_dict, run_checks
from .scenarios import BUILTIN_SCENARIOS, CheckSpec
from .spaces import METRICS


def _load_bundle(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return parse_scenario(f.read())


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="trial seed (default 0)")
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _tolerance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--epsilon", type=float, default=None, help="tolerance override")
    sub.add_argument("--trials", type=int, default=None, help="trial-count override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="abrep", description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="run every declared check")
    check.add_argument("file")
    check.add_argument("--filter", default=None, help="glob pattern on check names")
    _tolerance_flags(check)
    _common_flags(check)

    validate = commands.add_parser("validate-theory", help="validate one theory")
    validate.add_argument("file")
    validate.add_argument("--theory", required=True)
    validate.add_argument("--metric", choices=sorted(METRICS), default="discrete")
    validate.add_argument("--required-success", type=float, default=1.0)
    _tolerance_flags(validate)
    _common_flags(validate)

    compute = commands.add_parser("compute", help="run one compute cycle")
    compute.add_argument("file")
    compute.add_argument("--theory", required=True)
    compute.add_argument("--input", required=True, help="abstract state value, as JSON")
    compute.add_argument("--prediction", default=None, help="program name (default: first)")
    compute.add_argument("--expect", default=None, help="expected output value, as JSON")
    _common_flags(compute)

    stack = commands.add_parser("check-stack", help="verify a stack down to the device")
    stack.add_argument("file")
    stack.add_argument("--stack", required=True)
    stack.add_argument("--metric", choices=sorted(METRICS), default="discrete")
    _tolerance_flags(stack)
    _common_flags(stack)

    classify = commands.add_parser("classify", help="classify a joint system")
    classify.add_argument("file")
    classify.add_argument("--joint", required=True)
    classify.add_argument("--oracle", action="store_true", help="compare with the brute-force oracle")
    _common_flags(classify)

    scen = commands.add_parser("scenarios", help="built-in scenarios")
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)
    emit = scen_sub.add_parser("emit", help="print a built-in scenario document")
    emit.add_argument("name", help=f"one of: {', '.join(sorted(BUILTIN_SCENARIOS))}")

    return parser


#: Each one-check command: its check's name prefix, the check's kind, and the flag naming its object.
_ONE_CHECK_COMMANDS = {
    "validate-theory": ("validate", "validate-theory", "theory"),
    "compute": ("compute", "compute", "theory"),
    "check-stack": ("stack", "stack", "stack"),
    "classify": ("classify", "classify", "joint"),
}

#: The ``CheckSpec`` fields that a given flag with the same dest fills.
_CHECK_FIELDS = {f.name for f in fields(CheckSpec)} - {"name", "kind"}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ModelError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.command == "scenarios":
        builder = BUILTIN_SCENARIOS.get(args.name)
        if builder is None:
            print(
                f"error: unknown scenario {args.name!r};"
                f" available: {', '.join(sorted(BUILTIN_SCENARIOS))}",
                file=sys.stderr,
            )
            return 2
        sys.stdout.write(emit_scenario(builder()))
        return 0

    bundle = _load_bundle(args.file)
    given = {name: v for name, v in vars(args).items() if name in _CHECK_FIELDS and v is not None}
    for name in ("input", "expect"):  # compute's state values, read in this order
        if name in given:
            given[name] = _loads(given[name], "state value: ")  # CheckSpec bounds and converts it
    if args.command == "check":
        checks = tuple(replace(check, **given) for check in bundle.checks)
    else:
        prefix, kind, target = _ONE_CHECK_COMMANDS[args.command]
        checks = (CheckSpec(f"{prefix}:{given[target]}", kind, **given),)
    if args.command == "compute":
        checks = (CheckSpec(f"validate:{args.theory}", "validate-theory", theory=args.theory), *checks)
    report = run_checks(bundle, TrialSeed(args.seed), name_filter=vars(args).get("filter"), checks=checks)
    sys.stdout.write(render_report(report_to_dict(report), args.format))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
