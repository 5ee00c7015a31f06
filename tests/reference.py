"""The paper's checks written the slow way, through public constructors and functions only.

Each function here follows a definition step by step, state by state, with
no compiled evaluator, memo or shared scan. The library's fast paths must
give exactly the reports these give; the tests compare the two.
"""

from __future__ import annotations

from abrep import (
    AbstractState,
    DiagramSpec,
    LayerReport,
    NotInstantiable,
    StackReport,
    TrialSeed,
    check_commutation,
    derive_seed,
    distance,
    enumerate_values,
    evolve_abstract,
    evolve_physical,
    represent,
)
from abrep.document import value_to_json
from abrep.refinement import DeviceCheckEntry, LayerCheckEntry


def instantiate(theory, target):
    """The first seed, driven through the engineering dynamics at seed 0, that reads as ``target``."""
    procedure = theory.instantiation
    for seed in procedure.seeds:
        prepared = evolve_physical(procedure.engineering, seed, TrialSeed(0))
        if represent(theory.representation, prepared) == target:
            return prepared
    raise NotInstantiable(f"theory {theory.id!r}: no seed prepares {target.value!r}")


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


def stack_detail(report: StackReport) -> dict:
    """A stack check's ``detail`` in a run report, read off its StackReport."""
    return {
        "layers": {layer.relation_id: layer.passed for layer in report.layer_reports},
        "device_states": len(report.device_entries),
        "device_failures": [
            {"space": e.state.space.id, "value": value_to_json(e.state.value)}
            for e in report.device_entries
            if not e.report.passed
        ],
    }
