"""The paper's checks written the slow way, through public constructors and functions only.

Each function here follows a definition step by step, state by state, with
no compiled evaluator, memo or shared scan. The library's fast paths must
give exactly the reports these give; the tests compare the two.
"""

from __future__ import annotations

from abrep import (
    AbstractState,
    CommutationReport,
    DiagramSpec,
    EmptyDomain,
    LayerReport,
    NotInstantiable,
    OutOfDomain,
    StackReport,
    TrialSeed,
    ValidityReport,
    derive_seed,
    distance,
    enumerate_values,
    evolve_abstract,
    evolve_physical,
    represent,
)
from abrep.document import value_to_json
from abrep.refinement import DeviceCheckEntry, LayerCheckEntry
from abrep.verification import ValidityCell


def instantiate(theory, target):
    """The first seed, driven through the engineering dynamics at seed 0, that reads as ``target``."""
    procedure = theory.instantiation
    for seed in procedure.seeds:
        prepared = evolve_physical(procedure.engineering, seed, TrialSeed(0))
        if represent(theory.representation, prepared) == target:
            return prepared
    raise NotInstantiable(f"theory {theory.id!r}: no seed prepares {target.value!r}")


def _square(spec, start, upper, metric, base_seed, read) -> CommutationReport:
    """Trial k runs the device from ``start`` at ``derive_seed(base_seed, k)``, reads, and measures."""
    lowers = tuple(
        read(evolve_physical(spec.physical_dynamics, start, derive_seed(base_seed, k)))
        for k in range(spec.trials)
    )
    distances = tuple(distance(metric, lower, upper) for lower in lowers)
    fraction = sum(d <= spec.epsilon for d in distances) / spec.trials
    return CommutationReport(
        start, upper, lowers, distances, fraction, fraction >= spec.required_success,
        spec.epsilon, spec.required_success,
    )


def check_commutation(spec, p, base_seed) -> CommutationReport:
    """Read then run the program, against run the device then read, trial by trial."""
    if p not in spec.theory.domain:
        raise OutOfDomain(f"configuration is outside the declared domain of theory {spec.theory.id!r}")
    relation = spec.theory.representation
    upper = evolve_abstract(spec.abstract_dynamics, represent(relation, p))
    return _square(spec, p, upper, spec.metric, base_seed, lambda q: represent(relation, q))


def check_history(spec, m, physical_metric, base_seed) -> CommutationReport:
    """Prepare then run the device, against run the program then prepare, trial by trial."""
    evolved = evolve_abstract(spec.abstract_dynamics, m)
    start, target = instantiate(spec.theory, m), instantiate(spec.theory, evolved)
    return _square(spec, start, target, physical_metric, base_seed, lambda q: q)


def validate_theory(theory, epsilon, metric, trials, required_success, base_seed) -> ValidityReport:
    """One public square per (domain state, prediction) cell, at ``derive_seed(base_seed, si, pi)``."""
    if not theory.domain or not theory.predictions:
        raise EmptyDomain(f"theory {theory.id!r} declares no domain states or no predictions")
    cells = []
    for si, state in enumerate(theory.domain):
        for pi, pred in enumerate(theory.predictions):
            spec = DiagramSpec(
                theory, pred.abstract, pred.physical, epsilon, metric, trials, required_success
            )
            report = check_commutation(spec, state, derive_seed(base_seed, si, pi))
            cells.append(ValidityCell(state, pred.name, report))
    return ValidityReport(theory.id, tuple(cells))


def check_layer(relation, epsilon, metric) -> LayerReport:
    """Per upper state: map after the upper step, against the lower step after mapping."""
    entries = []
    for value in enumerate_values(relation.upper.space):
        state = AbstractState(relation.upper.space, value)
        via_upper = relation.map_state(evolve_abstract(relation.upper.dynamics, state))
        via_lower = evolve_abstract(relation.lower.dynamics, relation.map_state(state))
        d = distance(metric, via_upper, via_lower)
        entries.append(LayerCheckEntry(state, via_upper, via_lower, d, d <= epsilon))
    return LayerReport(relation.id, tuple(entries), epsilon)


def reachable_bottom_states(stack) -> list:
    """The bottom images of every top state, mapped layer by layer, in first occurrence order."""
    top = stack.layers[0].space
    states = [AbstractState(top, value) for value in enumerate_values(top)]
    for relation in stack.relations:
        states = [relation.map_state(state) for state in states]
    return list(dict.fromkeys(states))


def check_stack_to_device(
    stack, epsilon, metric, base_seed, trials=1, required_success=1.0
) -> StackReport:
    """Every layer, then per reachable bottom state one preparation and one public square.

    The square of the i-th bottom state runs at ``derive_seed(base_seed, i)``.
    """
    layers = tuple(check_layer(relation, epsilon, metric) for relation in stack.relations)
    spec = DiagramSpec(
        stack.theory, stack.layers[-1].dynamics, stack.device,
        epsilon, metric, trials, required_success,
    )
    entries = tuple(
        DeviceCheckEntry(
            bottom,
            check_commutation(spec, instantiate(stack.theory, bottom), derive_seed(base_seed, i)),
        )
        for i, bottom in enumerate(reachable_bottom_states(stack))
    )
    return StackReport(stack.id, layers, entries)


def state_json(state) -> dict:
    return {"space": state.space.id, "value": value_to_json(state.value)}


def commutation_detail(report: CommutationReport) -> dict:
    """A commutation, experiment or history check's ``detail`` in a run report."""
    return {
        "initial": state_json(report.initial_physical),
        "expected": state_json(report.upper_path_result),
        "distances": list(report.distances),
        "success_fraction": report.success_fraction,
        "epsilon": report.epsilon,
        "required_success": report.required_success,
        "passed": report.passed,
    }


def validation_detail(report: ValidityReport) -> dict:
    """A validate-theory check's ``detail`` in a run report."""
    failing = [cell for cell in report.cells if not cell.report.passed]
    return {
        "validity": "invalid" if failing else "valid",
        "coverage": len(report.cells),
        "failing_cells": [
            {"state": state_json(cell.state), "prediction": cell.prediction} for cell in failing
        ],
    }


def layer_detail(report: LayerReport) -> dict:
    """A layer check's ``detail`` in a run report."""
    return {
        "states": len(report.entries),
        "failing": [
            {
                "state": state_json(e.state),
                "via_upper": state_json(e.mapped_after_upper),
                "via_lower": state_json(e.lower_after_mapped),
                "distance": e.distance,
            }
            for e in report.entries
            if not e.passed
        ],
    }


def stack_detail(report: StackReport) -> dict:
    """A stack check's ``detail`` in a run report, read off its StackReport."""
    return {
        "layers": {layer.relation_id: layer.passed for layer in report.layer_reports},
        "device_states": len(report.device_entries),
        "device_failures": [
            state_json(e.state) for e in report.device_entries if not e.report.passed
        ],
    }
