"""The paper's checks written the slow way, through public constructors and functions only.

Each function here follows a definition step by step, state by state, with
no compiled evaluator, memo or shared scan. Only the library's checks build
reports, so each check here returns what it computed as a namespace with the
report's field names, its verdicts read off its cells or entries. The
library's fast paths must give exactly these values; ``assert_same`` compares
the two field by field.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property
from types import SimpleNamespace as Report

from abrep import (
    HETEROTIC,
    HYBRID,
    AbstractState,
    DiagramSpec,
    EmptyDomain,
    NotInstantiable,
    OutOfDomain,
    PhysicalState,
    TrialSeed,
    TupleSpace,
    derive_seed,
    distance,
    enumerate_values,
    evolve_abstract,
    evolve_physical,
    represent,
)
from abrep.refinement import LayerCheckEntry


def instantiate(theory, target):
    """The first seed, driven through the engineering dynamics at seed 0, that reads as ``target``."""
    procedure = theory.instantiation
    for seed in procedure.seeds:
        prepared = evolve_physical(procedure.engineering, seed, TrialSeed(0))
        if represent(theory.representation, prepared) == target:
            return prepared
    raise NotInstantiable(f"theory {theory.id!r}: no seed prepares {target.value!r}")


def _square(spec, start, upper, metric, base_seed, read) -> Report:
    """Trial k runs the device from ``start`` at ``derive_seed(base_seed, k)``, reads, and measures."""
    lowers = tuple(
        read(evolve_physical(spec.physical_dynamics, start, derive_seed(base_seed, k)))
        for k in range(spec.trials)
    )
    distances = tuple(distance(metric, lower, upper) for lower in lowers)
    fraction = sum(d <= spec.epsilon for d in distances) / spec.trials
    return Report(
        initial_physical=start, upper_path_result=upper, lower_path_results=lowers,
        distances=distances, success_fraction=fraction,
        passed=fraction >= spec.required_success, epsilon=spec.epsilon,
        required_success=spec.required_success,
    )


def check_commutation(spec, p, base_seed) -> Report:
    """Read then run the program, against run the device then read, trial by trial."""
    if p not in spec.theory.domain:
        raise OutOfDomain(f"configuration is outside the declared domain of theory {spec.theory.id!r}")
    relation = spec.theory.representation
    upper = evolve_abstract(spec.abstract_dynamics, represent(relation, p))
    return _square(spec, p, upper, spec.metric, base_seed, lambda q: represent(relation, q))


def check_history(spec, m, physical_metric, base_seed) -> Report:
    """Prepare then run the device, against run the program then prepare, trial by trial."""
    evolved = evolve_abstract(spec.abstract_dynamics, m)
    start, target = instantiate(spec.theory, m), instantiate(spec.theory, evolved)
    return _square(spec, start, target, physical_metric, base_seed, lambda q: q)


def validate_theory(theory, epsilon, metric, trials, required_success, base_seed) -> Report:
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
            cells.append(Report(state=state, prediction=pred.name, report=report))
    return Report(
        theory_id=theory.id, cells=tuple(cells),
        all_passed=all(cell.report.passed for cell in cells), coverage=len(cells),
    )


def check_layer(relation, epsilon, metric) -> Report:
    """Per upper state: map after the upper step, against the lower step after mapping."""
    entries = []
    for value in enumerate_values(relation.upper.space):
        state = AbstractState(relation.upper.space, value)
        via_upper = relation.map_state(evolve_abstract(relation.upper.dynamics, state))
        via_lower = evolve_abstract(relation.lower.dynamics, relation.map_state(state))
        d = distance(metric, via_upper, via_lower)
        entries.append(LayerCheckEntry(state, via_upper, via_lower, d, d <= epsilon))
    return Report(
        relation_id=relation.id, entries=tuple(entries), epsilon=epsilon,
        passed=all(e.passed for e in entries),
    )


def reachable_bottom_states(stack) -> list:
    """The bottom images of every top state, mapped layer by layer, in first occurrence order."""
    top = stack.layers[0].space
    states = [AbstractState(top, value) for value in enumerate_values(top)]
    for relation in stack.relations:
        states = [relation.map_state(state) for state in states]
    return list(dict.fromkeys(states))


def check_stack_to_device(
    stack, epsilon, metric, base_seed, trials=1, required_success=1.0
) -> Report:
    """Every layer, then per reachable bottom state one preparation and one public square.

    The square of the i-th bottom state runs at ``derive_seed(base_seed, i)``.
    """
    layers = tuple(check_layer(relation, epsilon, metric) for relation in stack.relations)
    spec = DiagramSpec(
        stack.theory, stack.layers[-1].dynamics, stack.device,
        epsilon, metric, trials, required_success,
    )
    entries = tuple(
        Report(
            state=bottom,
            report=check_commutation(
                spec, instantiate(stack.theory, bottom), derive_seed(base_seed, i)
            ),
        )
        for i, bottom in enumerate(reachable_bottom_states(stack))
    )
    return Report(
        stack_id=stack.id, layer_reports=layers, device_entries=entries,
        passed=all(r.passed for r in layers) and all(e.report.passed for e in entries),
    )


def classify(joint) -> str:
    """``"Hybrid"`` iff the joint is its two components run side by side, else ``"Heterotic"``.

    Decided pair by pair, without factor tables: the joint reading must read
    into the pair of the declared codomains, and read every pair (a, b) of
    cells as the left reading of a and the right reading of b; each
    coordinate of the joint dynamics must depend on its own half only.
    """
    left, right = joint.left.theory.representation, joint.right.theory.representation
    codomain = joint.joint_representation.codomain
    if not (isinstance(codomain, TupleSpace) and codomain.components == (left.codomain, right.codomain)):
        return HETEROTIC

    def read(relation, value):
        return represent(relation, PhysicalState(relation.domain, value)).value

    cells = [(a, b) for a in enumerate_values(left.domain) for b in enumerate_values(right.domain)]
    if any(read(joint.joint_representation, (a, b)) != (read(left, a), read(right, b)) for a, b in cells):
        return HETEROTIC
    firsts, seconds = (list(enumerate_values(half)) for half in codomain.components)
    image = {
        (a, b): evolve_abstract(joint.joint_dynamics, AbstractState(codomain, (a, b))).value
        for a in firsts
        for b in seconds
    }
    own_half = all(
        v[0] == image[a, seconds[0]][0] and v[1] == image[firsts[0], b][1] for (a, b), v in image.items()
    )
    return HYBRID if own_half else HETEROTIC


def state_json(state) -> dict:
    return {"space": state.space.id, "value": state.value}


def commutation_detail(report) -> dict:
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


def validation_detail(report) -> dict:
    """A validate-theory check's ``detail`` in a run report."""
    failing = [cell for cell in report.cells if not cell.report.passed]
    return {
        "validity": "invalid" if failing else "valid",
        "coverage": len(report.cells),
        "failing_cells": [
            {"state": state_json(cell.state), "prediction": cell.prediction} for cell in failing
        ],
    }


def layer_detail(report) -> dict:
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


def stack_detail(report) -> dict:
    """A stack check's ``detail`` in a run report."""
    return {
        "layers": {layer.relation_id: layer.passed for layer in report.layer_reports},
        "device_states": len(report.device_entries),
        "device_failures": [
            state_json(e.state) for e in report.device_entries if not e.report.passed
        ],
    }


def _names(obj) -> set:
    """The public fields of dataclass ``obj``, with the views its class builds on first read."""
    views = (n for n, v in vars(type(obj)).items() if isinstance(v, cached_property))
    return {f.name for f in dataclasses.fields(obj) if not f.name.startswith("_")} | set(views)


def assert_same(public, expected, path: str = "report") -> None:
    """Each field and view of ``public`` equals that of ``expected``, one by one.

    ``expected`` is what a check here returns: a namespace must name exactly
    the fields and views of ``public``'s class, and tuples are compared item
    by item, so that a difference is reported at its path.
    """
    if isinstance(expected, Report):
        assert _names(public) == set(vars(expected)), path
        for name, value in vars(expected).items():
            assert_same(getattr(public, name), value, f"{path}.{name}")
    elif isinstance(expected, tuple):
        assert isinstance(public, tuple) and len(public) == len(expected), path
        for i, (mine, theirs) in enumerate(zip(public, expected)):
            assert_same(mine, theirs, f"{path}[{i}]")
    else:
        assert public == expected, path
