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
from dataclasses import dataclass
from typing import Any

from .composition import FactorizationWitness, brute_force_classify, classify
from .document import _json_text
from .dynamics import TrialSeed, derive_seed
from .errors import EmptyDomain, ModelError, UnknownReference, resolve
from .refinement import LayerReport, SimulationRelation, _ground, check_layer
from .relations import Prediction, Theory, instantiate
from .scenarios import CheckSpec, ScenarioBundle
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
    format_version: str
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
        self.theories: dict[str, Theory] = {t.id: t for t in bundle.theories}
        self.stacks = {s.id: s for s in bundle.stacks}
        self.joints = {j.id: j for j in bundle.joints}
        self.coverage: dict[str, int] = {}
        self.layers: dict[tuple[int, float, str], LayerReport] = {}  # by id(relation)

    def _count_coverage(self, theory_id: str, cells: int) -> None:
        self.coverage[theory_id] = self.coverage.get(theory_id, 0) + cells

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
        try:
            status, detail = _HANDLERS[check.kind](self, check, seed)
            return CheckResult(check.name, check.kind, status, detail)
        except ModelError as err:
            return CheckResult(
                check.name,
                check.kind,
                ERROR,
                {},
                {"type": type(err).__name__, "message": str(err)},
            )

    def _run_commutation(self, check: CheckSpec, seed: TrialSeed) -> tuple[str, dict]:
        theory = resolve(self.theories, check.theory, f"check {check.name!r}")
        spec = self._diagram_spec(theory, check)
        report = check_commutation(spec, self._initial_state(theory, check), seed)
        self._count_coverage(theory.id, 1)
        return (PASS if report.passed else FAIL), _commutation_detail(report)

    def _run_history(self, check: CheckSpec, seed: TrialSeed) -> tuple[str, dict]:
        theory = resolve(self.theories, check.theory, f"check {check.name!r}")
        spec = self._diagram_spec(theory, check)
        state = AbstractState(theory.representation.codomain, check.input)
        report = check_history(spec, state, check.physical_metric, seed)
        return (PASS if report.passed else FAIL), _commutation_detail(report)

    def _run_validate(self, check: CheckSpec, seed: TrialSeed) -> tuple[str, dict]:
        theory = resolve(self.theories, check.theory, f"check {check.name!r}")
        graded, evidence = validate_theory(
            theory, check.epsilon, check.metric, check.trials, check.required_success, seed
        )
        self.theories[theory.id] = graded
        self._count_coverage(theory.id, evidence.coverage)
        failing = [] if evidence.all_passed else [
            {"state": _state_json(cell.state), "prediction": cell.prediction}
            for cell in evidence.cells
            if not cell.report.passed
        ]
        detail = {
            "validity": graded.validity,
            "coverage": evidence.coverage,
            "failing_cells": failing,
        }
        return (PASS if evidence.all_passed else FAIL), detail

    def _run_compute(self, check: CheckSpec, seed: TrialSeed) -> tuple[str, dict]:
        theory = resolve(self.theories, check.theory, f"check {check.name!r}")
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
            return PASS, detail
        detail["expected"] = expect
        return (PASS if result.output.value == expect else FAIL), detail

    def _run_layer(self, check: CheckSpec, seed: TrialSeed) -> tuple[str, dict]:
        stack = resolve(self.stacks, check.stack, f"check {check.name!r}")
        relations = {r.id: r for r in stack.relations}
        relation = resolve(relations, check.relation, f"check {check.name!r}")
        report = self._layer(relation, check)
        failing = [] if report.passed else [
            {
                "state": _state_json(e.state),
                "via_upper": _state_json(e.mapped_after_upper),
                "via_lower": _state_json(e.lower_after_mapped),
                "distance": e.distance,
            }
            for e in report.entries
            if not e.passed
        ]
        detail = {"states": len(relation.entries), "failing": failing}  # the table is total
        return (PASS if report.passed else FAIL), detail

    def _run_stack(self, check: CheckSpec, seed: TrialSeed) -> tuple[str, dict]:
        stack = resolve(self.stacks, check.stack, f"check {check.name!r}")
        layers = tuple(self._layer(rel, check) for rel in stack.relations)
        tolerances = check.epsilon, check.trials, check.required_success  # checked by CheckSpec
        report = _ground(stack, layers, tolerances, check.metric, seed)
        self._count_coverage(stack.theory.id, len(report.device_entries))
        detail = {
            "layers": {r.relation_id: r.passed for r in report.layer_reports},
            "device_states": len(report.device_entries),
            "device_failures": [
                _state_json(e.state) for e in report.device_entries if not e.report.passed
            ],
        }
        return (PASS if report.passed else FAIL), detail

    def _run_classify(self, check: CheckSpec, seed: TrialSeed) -> tuple[str, dict]:
        joint = resolve(self.joints, check.joint, f"check {check.name!r}")
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
        return (PASS if ok else FAIL), detail


#: One handler per check kind. An ``experiment`` is read as a commutation
#: check; its report keeps the declared kind.
_HANDLERS = {
    "commutation": _Run._run_commutation,
    "experiment": _Run._run_commutation,
    "history": _Run._run_history,
    "validate-theory": _Run._run_validate,
    "compute": _Run._run_compute,
    "layer": _Run._run_layer,
    "stack": _Run._run_stack,
    "classify": _Run._run_classify,
}


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
        format_version=bundle.format_version,
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
        "format_version": report.format_version,
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
