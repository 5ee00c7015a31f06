"""One-layer-down replays of traced calls, through public functions only.

Each replay repeats a call's work with the next layer's public functions,
records those calls as children of the call's span, and raises ``Mismatch``
unless it reproduces the call's result exactly. Replays run only in the
traced run.
"""

from __future__ import annotations

from abrep import (
    METRICS,
    AbstractState,
    DiagramSpec,
    brute_force_classify,
    check_commutation,
    check_history,
    check_layer,
    check_stack_to_device,
    classify,
    derive_seed,
    distance,
    enumerate_states,
    evolve_abstract,
    evolve_physical,
    instantiate,
    represent,
    run_compute_cycle,
    validate_theory,
)
from abrep.refinement import reachable_bottom_states
from abrep.spaces import normalize_value


class Mismatch(Exception):
    """A replay or an output check disagreed with the expected result."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _member(tr, parent, space, state) -> None:
    _, value = tr.call("spaces.normalize_value", parent, normalize_value, space, state.value)
    expect(value == state.value, f"{state.value!r} is not canonical in {space.id!r}")


# Each primitive checks its input's membership and builds its output state,
# one normalize_value call each.


def traced_represent(tr, parent, relation, p):
    span, m = tr.call("relations.represent", parent, represent, relation, p)
    _member(tr, span, relation.domain, p)
    _member(tr, span, relation.codomain, m)
    return m


def traced_evolve_abstract(tr, parent, dynamics, m):
    span, out = tr.call("dynamics.evolve_abstract", parent, evolve_abstract, dynamics, m)
    _member(tr, span, dynamics.space, m)
    _member(tr, span, dynamics.space, out)
    return out


def traced_evolve_physical(tr, parent, dynamics, p, seed):
    span, out = tr.call("dynamics.evolve_physical", parent, evolve_physical, dynamics, p, seed)
    _member(tr, span, dynamics.space, p)
    _member(tr, span, dynamics.space, out)
    return out


def square(tr, parent, spec, p, seed, report) -> None:
    """check_commutation: read then run the program, against run then read per trial."""
    tr.add("verification.check_commutation.trials", spec.trials)
    relation = spec.theory.representation
    upper = traced_evolve_abstract(
        tr, parent, spec.abstract_dynamics, traced_represent(tr, parent, relation, p)
    )
    distances = []
    for k in range(spec.trials):
        evolved = traced_evolve_physical(tr, parent, spec.physical_dynamics, p, derive_seed(seed, k))
        outcome = traced_represent(tr, parent, relation, evolved)
        _, d = tr.call("spaces.distance", parent, distance, spec.metric, outcome, upper)
        distances.append(d)
    expect(upper == report.upper_path_result, "square replay: upper path differs")
    expect(tuple(distances) == report.distances, "square replay: trial distances differ")


def history(tr, parent, spec, m, metric, seed, report) -> None:
    """check_history: prepare then evolve, against evolve then prepare."""
    theory = spec.theory
    _, start = tr.call("relations.instantiate", parent, instantiate, theory, m)
    moved = traced_evolve_abstract(tr, parent, spec.abstract_dynamics, m)
    _, target = tr.call("relations.instantiate", parent, instantiate, theory, moved)
    distances = []
    for k in range(spec.trials):
        evolved = traced_evolve_physical(
            tr, parent, spec.physical_dynamics, start, derive_seed(seed, k)
        )
        _, d = tr.call("spaces.distance", parent, distance, metric, evolved, target)
        distances.append(d)
    expect(target == report.upper_path_result, "history replay: target differs")
    expect(tuple(distances) == report.distances, "history replay: trial distances differ")


def compute(tr, parent, theory, m, device, seed, result) -> None:
    """run_compute_cycle: instantiate, evolve the device, read the output."""
    _, prepared = tr.call("relations.instantiate", parent, instantiate, theory, m)
    final = traced_evolve_physical(tr, parent, device, prepared, seed)
    output = traced_represent(tr, parent, theory.representation, final)
    expect(
        (prepared, final, output) == (result.prepared, result.final_physical, result.output),
        "compute replay: cycle differs",
    )


def validation(tr, parent, theory, epsilon, metric, trials, required, seed, evidence) -> None:
    """validate_theory: one check_commutation per (domain state, prediction) cell."""
    cells = iter(evidence.cells)
    for si, state in enumerate(theory.domain):
        for pi, pred in enumerate(theory.predictions):
            spec = DiagramSpec(theory, pred.abstract, pred.physical, epsilon, metric, trials, required)
            cell_seed = derive_seed(seed, si, pi)
            span, report = tr.call(
                "verification.check_commutation", parent, check_commutation, spec, state, cell_seed
            )
            expect(report == next(cells).report, "validation replay: a cell differs")
            square(tr, span, spec, state, cell_seed, report)
    expect(next(cells, None) is None, "validation replay: cell count differs")


def layer(tr, parent, relation, epsilon, metric, report) -> None:
    """check_layer: map after the upper step, against the lower step after mapping."""
    states = enumerate_states(relation.upper.space)
    expect(len(states) == len(report.entries), "layer replay: state count differs")
    for state, entry in zip(states, report.entries):
        via_upper = relation.map_state(
            traced_evolve_abstract(tr, parent, relation.upper.dynamics, state)
        )
        via_lower = traced_evolve_abstract(
            tr, parent, relation.lower.dynamics, relation.map_state(state)
        )
        _, d = tr.call("spaces.distance", parent, distance, metric, via_upper, via_lower)
        expect(
            (state, via_upper, via_lower, d, d <= epsilon)
            == (entry.state, entry.mapped_after_upper, entry.lower_after_mapped,
                entry.distance, entry.passed),
            "layer replay: an entry differs",
        )


def stack(tr, parent, stack_, epsilon, metric, seed, trials, required, report) -> None:
    """check_stack_to_device: every layer, then the device square per reachable state."""
    for relation, layer_report in zip(stack_.relations, report.layer_reports):
        span, again = tr.call("refinement.check_layer", parent, check_layer, relation, epsilon, metric)
        expect(again == layer_report, "stack replay: a layer report differs")
        layer(tr, span, relation, epsilon, metric, again)
    spec = DiagramSpec(
        stack_.theory, stack_.layers[-1].dynamics, stack_.device, epsilon, metric, trials, required
    )
    bottoms = reachable_bottom_states(stack_)
    expect(len(bottoms) == len(report.device_entries), "stack replay: reachable set differs")
    for i, (bottom, entry) in enumerate(zip(bottoms, report.device_entries)):
        _, prepared = tr.call("relations.instantiate", parent, instantiate, stack_.theory, bottom)
        cell_seed = derive_seed(seed, i)
        span, square_report = tr.call(
            "verification.check_commutation", parent, check_commutation, spec, prepared, cell_seed
        )
        expect(square_report == entry.report, "stack replay: a device square differs")
        square(tr, span, spec, prepared, cell_seed, square_report)


def run_checks(tr, parent, bundle, seed, report) -> None:
    """run_checks: each declared check through the function for its kind.

    A theory validated by an earlier check stays validated for later ones,
    as in the runner.
    """
    theories = {t.id: t for t in bundle.theories}
    expect(len(bundle.checks) == len(report.results), "run replay: check count differs")
    for index, (check, result) in enumerate(zip(bundle.checks, report.results)):
        ok = _check(tr, parent, bundle, theories, check, derive_seed(seed, index))
        expect(
            result.status == ("pass" if ok else "fail"),
            f"run replay: check {check.name!r} reads {result.status}",
        )


def _check(tr, parent, bundle, theories, check, seed) -> bool:
    kind = check.kind
    metric = METRICS[check.metric]
    eps, trials, required = check.epsilon, check.trials, check.required_success
    if kind == "validate-theory":
        theory = theories[check.theory]
        span, (graded, evidence) = tr.call(
            "verification.validate_theory", parent, validate_theory,
            theory, eps, metric, trials, required, seed,
        )
        theories[theory.id] = graded
        validation(tr, span, theory, eps, metric, trials, required, seed, evidence)
        return evidence.all_passed
    if kind in ("commutation", "experiment", "history", "compute"):
        theory = theories[check.theory]
        pred = theory.prediction(check.prediction or theory.predictions[0].name)
        codomain = theory.representation.codomain
        spec = DiagramSpec(theory, pred.abstract, pred.physical, eps, metric, trials, required)
        if kind == "history":
            m = AbstractState(codomain, check.input)
            physical_metric = METRICS[check.physical_metric]
            span, report = tr.call(
                "verification.check_history", parent, check_history, spec, m, physical_metric, seed
            )
            history(tr, span, spec, m, physical_metric, seed, report)
            return report.passed
        if kind == "compute":
            m = AbstractState(codomain, check.input)
            span, result = tr.call(
                "verification.run_compute_cycle", parent, run_compute_cycle,
                theory, m, pred.name, pred.physical, seed,
            )
            compute(tr, span, theory, m, pred.physical, seed, result)
            return check.expect is None or result.output.value == check.expect
        # An experiment is a commutation check under another name. Every
        # built-in commutation check names its input as an abstract state.
        _, p = tr.call(
            "relations.instantiate", parent, instantiate, theory,
            AbstractState(codomain, check.input),
        )
        span, report = tr.call("verification.check_commutation", parent, check_commutation, spec, p, seed)
        square(tr, span, spec, p, seed, report)
        return report.passed
    if kind == "layer":
        relation = next(r for r in bundle.stack(check.stack).relations if r.id == check.relation)
        span, report = tr.call("refinement.check_layer", parent, check_layer, relation, eps, metric)
        layer(tr, span, relation, eps, metric, report)
        return report.passed
    if kind == "stack":
        stack_ = bundle.stack(check.stack)
        span, report = tr.call(
            "refinement.check_stack_to_device", parent, check_stack_to_device,
            stack_, eps, metric, seed, trials, required,
        )
        stack(tr, span, stack_, eps, metric, seed, trials, required, report)
        return report.passed
    if kind == "classify":
        joint = bundle.joint(check.joint)
        _, decision = tr.call("composition.classify", parent, classify, joint)
        ok = check.expect_class is None or decision.value == check.expect_class
        if check.oracle:
            _, oracle = tr.call("composition.brute_force_classify", parent, brute_force_classify, joint)
            ok = ok and oracle.value == decision.value
        return ok
    raise Mismatch(f"run replay: no replay for check kind {kind!r}")
