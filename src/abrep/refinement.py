"""Refinement stacks above a device, and per-layer simulation checks.

A stack is a sequence of abstract layers, each with its own dynamics, wired
together by total downward maps. Adjacent layers commute when mapping after
the upper dynamics equals the lower dynamics after mapping, state by state.
The lowest layer is bound to a device by a theory, so a full stack check
closes the loop from the topmost description down to simulated hardware.

Layers are deterministic, so only the downward direction is checked at layer
level; the prediction direction is exercised at the device boundary by the
commutation check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .dynamics import AbstractDynamics, PhysicalDynamics, TrialSeed, derive_seed, evolve_abstract
from .errors import DeclarationError
from .relations import Theory, _prepare
from .spaces import (
    AbstractSpace,
    AbstractState,
    Metric,
    Value,
    _finite,
    _trusted,
    check_total_table,
    distance,
    enumerate_states,
)
from .verification import CommutationReport, DiagramSpec, check_commutation


@dataclass(frozen=True)
class RefinementLayer:
    """One level of abstraction: a space and the dynamics acting on it."""

    id: str
    space: AbstractSpace
    dynamics: AbstractDynamics

    def __post_init__(self):
        if self.dynamics.space != self.space:
            raise DeclarationError(
                f"layer {self.id!r}: dynamics act on a different space"
            )


@dataclass(frozen=True)
class SimulationRelation:
    """A total downward map from an upper layer's states to a lower layer's."""

    id: str
    upper: RefinementLayer
    lower: RefinementLayer
    entries: Mapping[Value, Value]

    def __post_init__(self):
        entries = check_total_table(
            f"simulation {self.id!r}", self.entries, self.upper.space, self.lower.space
        )
        object.__setattr__(self, "entries", entries)

    def map_state(self, state: AbstractState) -> AbstractState:
        return _trusted(AbstractState, self.lower.space, self.entries[state.value])


@dataclass(frozen=True)
class LayerCheckEntry:
    """One upper state with both paths into the lower layer."""

    state: AbstractState
    mapped_after_upper: AbstractState
    lower_after_mapped: AbstractState
    distance: float
    passed: bool


@dataclass(frozen=True)
class LayerReport:
    relation_id: str
    entries: tuple[LayerCheckEntry, ...]
    passed: bool
    epsilon: float


def check_layer(s: SimulationRelation, epsilon: float, metric: Metric) -> LayerReport:
    """Check one adjacent layer pair over every upper state."""
    if _finite("epsilon", epsilon) < 0:
        raise DeclarationError("epsilon must be non-negative")
    entries: list[LayerCheckEntry] = []
    for state in enumerate_states(s.upper.space):
        via_upper = s.map_state(evolve_abstract(s.upper.dynamics, state))
        via_lower = evolve_abstract(s.lower.dynamics, s.map_state(state))
        d = distance(metric, via_upper, via_lower)
        entries.append(LayerCheckEntry(state, via_upper, via_lower, d, d <= epsilon))
    return LayerReport(
        relation_id=s.id,
        entries=tuple(entries),
        passed=all(e.passed for e in entries),
        epsilon=epsilon,
    )


@dataclass(frozen=True)
class RefinementStack:
    """Ordered layers, top to bottom, grounded in a device theory.

    The bottom layer's space must be exactly what the theory's
    representation reads off the device.
    """

    id: str
    layers: tuple[RefinementLayer, ...]
    relations: tuple[SimulationRelation, ...]
    theory: Theory
    device: PhysicalDynamics

    def __post_init__(self):
        if not self.layers:
            raise DeclarationError(f"stack {self.id!r}: at least one layer required")
        if len(self.relations) != len(self.layers) - 1:
            raise DeclarationError(
                f"stack {self.id!r}: need one simulation relation per adjacent pair"
            )
        for i, rel in enumerate(self.relations):
            if rel.upper != self.layers[i] or rel.lower != self.layers[i + 1]:
                raise DeclarationError(
                    f"stack {self.id!r}: relation {rel.id!r} does not connect"
                    f" layers {self.layers[i].id!r} and {self.layers[i + 1].id!r}"
                )
        if self.layers[-1].space != self.theory.representation.codomain:
            raise DeclarationError(
                f"stack {self.id!r}: bottom layer space must equal the theory's"
                " representation codomain"
            )
        if self.device.space != self.theory.representation.domain:
            raise DeclarationError(
                f"stack {self.id!r}: device dynamics act on the wrong space"
            )


@dataclass(frozen=True)
class DeviceCheckEntry:
    """The device-boundary square for one reachable bottom-layer state."""

    state: AbstractState
    report: CommutationReport


@dataclass(frozen=True)
class StackReport:
    stack_id: str
    layer_reports: tuple[LayerReport, ...]
    device_entries: tuple[DeviceCheckEntry, ...]
    passed: bool


def reachable_bottom_states(stack: RefinementStack) -> list[AbstractState]:
    """Bottom-layer images of every top-layer state, first occurrence order."""
    states = enumerate_states(stack.layers[0].space)
    for rel in stack.relations:
        states = [rel.map_state(s) for s in states]
    seen: set = set()
    out: list[AbstractState] = []
    for s in states:
        if s.value not in seen:
            seen.add(s.value)
            out.append(s)
    return out


def check_stack_to_device(
    stack: RefinementStack,
    epsilon: float,
    metric: Metric,
    base_seed: TrialSeed,
    trials: int = 1,
    required_success: float = 1.0,
) -> StackReport:
    """Check every layer pair, then the device boundary, end to end.

    Each bottom-layer state reachable from the top is prepared on the device,
    in one scan of the theory's seeds for all of them, and its commutation
    square checked against the bottom dynamics. The theory need not have been
    validated: the boundary checks themselves stand in for validation on the
    reachable set.
    """
    layer_reports = tuple(check_layer(rel, epsilon, metric) for rel in stack.relations)
    device_entries: list[DeviceCheckEntry] = []
    spec = DiagramSpec(
        theory=stack.theory,
        abstract_dynamics=stack.layers[-1].dynamics,
        physical_dynamics=stack.device,
        epsilon=epsilon,
        metric=metric,
        trials=trials,
        required_success=required_success,
    )
    bottoms = reachable_bottom_states(stack)
    for i, (bottom, prepared) in enumerate(zip(bottoms, _prepare(stack.theory, bottoms))):
        report = check_commutation(spec, prepared, derive_seed(base_seed, i))
        device_entries.append(DeviceCheckEntry(bottom, report))
    passed = all(r.passed for r in layer_reports) and all(
        e.report.passed for e in device_entries
    )
    return StackReport(
        stack_id=stack.id,
        layer_reports=layer_reports,
        device_entries=tuple(device_entries),
        passed=passed,
    )
