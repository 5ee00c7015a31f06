"""Declared-check execution and run reports.

Checks run in declaration order; each check's randomness is derived from the
run seed and the check's declaration index, so filtering does not perturb
the checks that do run, and identical (bundle, seed) pairs produce
byte-identical machine-readable reports. A failing check marks the run
failed; a check that cannot run at all (bad reference, precondition error)
marks it errored, without stopping the remaining checks.

Theories validated by a ``validate-theory`` check stay validated for the
checks that follow it, which is how a scenario earns the right to run
compute cycles.
"""

from __future__ import annotations

import fnmatch
from collections import Counter
from dataclasses import dataclass
from typing import Any, get_args

from .composition import FactorizationWitness, JointSystem, brute_force_classify, classify
from .document import _json_text
from .dynamics import TrialSeed, derive_seed
from .errors import EmptyDomain, ModelError, UnknownReference, resolve
from .refinement import LayerReport, RefinementStack, SimulationRelation, _ground, check_layer
from .relations import Prediction, Theory, instantiate
from .scenarios import CheckSpec, FormatVersion, ScenarioBundle
from .spaces import AbstractState, PhysicalState, normalize_value
from .verification import (
    CommutationReport,
    DiagramSpec,
    check_commutation,
    check_history,
    run_compute_cycle,
    validate_theory,
)

PASS = "pass"
FAIL = "fail"
ERROR = "error"

EXIT_CODES = {PASS: 0, FAIL: 1, ERROR: 2}


@dataclass(frozen=True)
class CheckResult:
    name: str
    kind: str
    status: str
    detail: dict
    error: dict | None = None


@dataclass(frozen=True)
class RunReport:
    seed: int
    results: tuple[CheckResult, ...]
    coverage: dict
    overall: str

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.overall]


def _state_json(state: AbstractState | PhysicalState) -> dict:
    return {"space": state.space.id, "value": state.value}  # the encoder writes tuples as arrays


def _commutation_detail(report: CommutationReport) -> dict:
    return {
        "initial": _state_json(report.initial_physical),
        "expected": _state_json(report.upper_path_result),
        "distances": list(report.distances),
        "success_fraction": report.success_fraction,
        "epsilon": report.epsilon,
        "required_success": report.required_success,
        "passed": report.passed,
    }


class _Run:
    def __init__(self, bundle: ScenarioBundle):
        self.declared = {  # the theories, stacks and joints by id, under the check field that names one
            "theory": {t.id: t for t in bundle.theories},
            "stack": {s.id: s for s in bundle.stacks},
            "joint": {j.id: j for j in bundle.joints},
        }
        self.coverage: Counter[str] = Counter()
        self.layers: dict[tuple[int, float, str], LayerReport] = {}  # by id(relation)

    def _prediction(self, theory: Theory, check: CheckSpec) -> Prediction:
        if check.prediction:
            return theory.prediction(check.prediction)
        if not theory.predictions:
            raise EmptyDomain(f"theory {theory.id!r} declares no predictions")
        return theory.predictions[0]

    def _diagram_spec(self, theory: Theory, check: CheckSpec) -> DiagramSpec:
        prediction = self._prediction(theory, check)
        return DiagramSpec(
            theory, prediction.abstract, prediction.physical,
            check.epsilon, check.metric, check.trials, check.required_success,
        )

    def _layer(self, relation: SimulationRelation, check: CheckSpec) -> LayerReport:
        key = (id(relation), check.epsilon, check.metric)
        if key not in self.layers:
            self.layers[key] = check_layer(relation, check.epsilon, check.metric)
        return self.layers[key]

    def _initial_state(self, theory: Theory, check: CheckSpec) -> PhysicalState:
        relation = theory.representation
        if check.input is not None:
            return instantiate(theory, AbstractState(relation.codomain, check.input))
        if check.state is not None:
            return PhysicalState(relation.domain, check.state)
        raise UnknownReference(f"check {check.name!r}", "<state or input>")

    def execute(self, check: CheckSpec, seed: TrialSeed) -> CheckResult:
        """Run ``check`` on the theory, stack or joint it names; its handler's verdict is pass or fail."""
        try:
            handler, field = _HANDLERS[check.kind]
            target = _named(self.declared[field], check, field)
            passed, detail = handler(self, check, target, seed)
            return CheckResult(check.name, check.kind, PASS if passed else FAIL, detail)
        except ModelError as err:
            return CheckResult(
                check.name,
                check.kind,
                ERROR,
                {},
                {"type": type(err).__name__, "message": str(err)},
            )

    def _run_commutation(self, check: CheckSpec, theory: Theory, seed: TrialSeed) -> tuple[bool, dict]:
        spec = self._diagram_spec(theory, check)
        report = check_commutation(spec, self._initial_state(theory, check), seed)
        self.coverage[theory.id] += 1
        return report.passed, _commutation_detail(report)

    def _run_history(self, check: CheckSpec, theory: Theory, seed: TrialSeed) -> tuple[bool, dict]:
        spec = self._diagram_spec(theory, check)
        state = AbstractState(theory.representation.codomain, check.input)
        report = check_history(spec, state, check.physical_metric, seed)
        return report.passed, _commutation_detail(report)

    def _run_validate(self, check: CheckSpec, theory: Theory, seed: TrialSeed) -> tuple[bool, dict]:
        graded, evidence = validate_theory(
            theory, check.epsilon, check.metric, check.trials, check.required_success, seed
        )
        self.declared["theory"][theory.id] = graded
        self.coverage[theory.id] += evidence.coverage
        failing = [] if evidence.all_passed else [
            {"state": _state_json(cell.state), "prediction": cell.prediction}
            for cell in evidence._cells(failing=True)
        ]
        detail = {
            "validity": graded.validity,
            "coverage": evidence.coverage,
            "failing_cells": failing,
        }
        return evidence.all_passed, detail

    def _run_compute(self, check: CheckSpec, theory: Theory, seed: TrialSeed) -> tuple[bool, dict]:
        prediction = self._prediction(theory, check)
        codomain = theory.representation.codomain
        state = AbstractState(codomain, check.input)
        expect = None if check.expect is None else normalize_value(codomain, check.expect)
        result = run_compute_cycle(theory, state, prediction.name, prediction.physical, seed)
        detail = {
            "input": _state_json(result.input),
            "output": _state_json(result.output),
            "program": result.program,
        }
        if expect is None:
            return True, detail
        detail["expected"] = expect
        return result.output.value == expect, detail

    def _run_layer(self, check: CheckSpec, stack: RefinementStack, seed: TrialSeed) -> tuple[bool, dict]:
        relation = _named({r.id: r for r in stack.relations}, check, "relation")
        report = self._layer(relation, check)
        failing = [] if report.passed else [
            {
                "state": _state_json(e.state),
                "via_upper": _state_json(e.mapped_after_upper),
                "via_lower": _state_json(e.lower_after_mapped),
                "distance": e.distance,
            }
            for e in report._entries(failing=True)
        ]
        detail = {"states": len(relation.entries), "failing": failing}  # the table is total
        return report.passed, detail

    def _run_stack(self, check: CheckSpec, stack: RefinementStack, seed: TrialSeed) -> tuple[bool, dict]:
        layers = tuple(self._layer(rel, check) for rel in stack.relations)
        tolerances = check.epsilon, check.trials, check.required_success  # checked by CheckSpec
        report = _ground(stack, layers, tolerances, check.metric, seed)
        bottoms, _, (verdicts, *_) = report._column  # the entries' states and verdicts, none built
        self.coverage[stack.theory.id] += len(bottoms)
        detail = {
            "layers": {r.relation_id: r.passed for r in report.layer_reports},
            "device_states": len(bottoms),
            "device_failures": [_state_json(b) for b, ok in zip(bottoms, verdicts) if not ok],
        }
        return report.passed, detail

    def _run_classify(self, check: CheckSpec, joint: JointSystem, seed: TrialSeed) -> tuple[bool, dict]:
        decision = classify(joint)
        detail: dict[str, Any] = {
            "class": decision.value,
            "witness": _witness_json(decision.witness),
        }
        ok = check.expect_class is None or decision.value == check.expect_class
        if check.oracle:
            oracle_decision = brute_force_classify(joint)
            detail["oracle_class"] = oracle_decision.value
            detail["oracle_agrees"] = oracle_decision.value == decision.value
            ok = ok and detail["oracle_agrees"]
        return ok, detail


#: Each check kind's handler, and the check field that names the object it runs on. An
#: ``experiment`` is read as a commutation check; its report keeps the declared kind.
_HANDLERS = {
    "commutation": (_Run._run_commutation, "theory"),
    "experiment": (_Run._run_commutation, "theory"),
    "history": (_Run._run_history, "theory"),
    "validate-theory": (_Run._run_validate, "theory"),
    "compute": (_Run._run_compute, "theory"),
    "layer": (_Run._run_layer, "stack"),
    "stack": (_Run._run_stack, "stack"),
    "classify": (_Run._run_classify, "joint"),
}


def _named(table: dict, check: CheckSpec, field: str):
    """The object that ``check``'s ``field`` names in ``table``; UnknownReference names an unset field."""
    if (ident := getattr(check, field)) is None:  # not looked up, so no declared id can match
        raise UnknownReference(f"check {check.name!r}", f"<{field}>")
    return resolve(table, ident, f"check {check.name!r}")


def _witness_json(witness: FactorizationWitness) -> dict:
    return {
        name: None if factors is None else dict(zip(("left", "right"), (list(t.items()) for t in factors)))
        for name, factors in vars(witness).items()
    }


def run_checks(
    bundle: ScenarioBundle,
    seed: TrialSeed = TrialSeed(0),
    name_filter: str | None = None,
    checks: tuple[CheckSpec, ...] | None = None,
) -> RunReport:
    """Execute declared checks (or an explicit list) and assemble the report.

    ``name_filter`` is a glob pattern on check names; filtered runs report
    exactly the matching subset, in declaration order.
    """
    run = _Run(bundle)
    selected = []
    for index, check in enumerate(bundle.checks if checks is None else checks):
        if name_filter is not None and not fnmatch.fnmatch(check.name, name_filter):
            continue
        selected.append(run.execute(check, derive_seed(seed, index)))
    statuses = {r.status for r in selected}
    overall = next((status for status in (ERROR, FAIL) if status in statuses), PASS)
    return RunReport(
        seed=seed.value,
        results=tuple(selected),
        coverage=dict(sorted(run.coverage.items())),
        overall=overall,
    )


def report_to_dict(report: RunReport) -> dict:
    counts = {
        "total": len(report.results),
        "passed": sum(1 for r in report.results if r.status == PASS),
        "failed": sum(1 for r in report.results if r.status == FAIL),
        "errors": sum(1 for r in report.results if r.status == ERROR),
    }
    return {
        "format_version": get_args(FormatVersion)[0],
        "seed": report.seed,
        "overall": report.overall,
        "summary": counts,
        "coverage": report.coverage,
        "checks": [dict(vars(r)) for r in report.results],  # CheckResult's field names are the keys
    }


def report_to_json(report: RunReport) -> str:
    """Canonical machine-readable serialization; byte-stable per (bundle, seed)."""
    return render_report(report_to_dict(report), "json")


def render_report(data: dict, fmt: str) -> str:
    """Render a report dictionary as canonical JSON (``fmt`` "json") or as text."""
    if fmt == "json":
        return _json_text(data, sort_keys=True)
    lines = []
    for check in data["checks"]:
        line = f"{check['status'].upper():5s} {check['name']} ({check['kind']})"
        if check["status"] == ERROR and check.get("error"):
            line += f": {check['error']['type']}: {check['error']['message']}"
        elif check["kind"] == "classify" and check["status"] != ERROR:
            line += f": {check['detail'].get('class')}"
        lines.append(line)
    summary = data["summary"]
    lines.append(
        f"overall: {data['overall'].upper()}"
        f" ({summary['passed']}/{summary['total']} passed,"
        f" {summary['failed']} failed, {summary['errors']} errors;"
        f" seed {data['seed']})"
    )
    return "\n".join(lines) + "\n"
