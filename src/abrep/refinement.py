"""Refinement stacks above a device, and per-layer simulation checks.

A stack is a sequence of abstract layers, each with its own dynamics, wired
together by total downward maps. Adjacent layers commute when mapping after
the upper dynamics equals the lower dynamics after mapping, state by state.
The lowest layer is bound to a device by a theory, so a full stack check
closes the loop from the topmost description down to simulated hardware.

Layers are deterministic, so only the downward direction is checked at layer
level, in squares whose device is the upper program and whose reading is the
map down. The device boundary checks the prediction direction. Both grade values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import count
from typing import Iterator, Mapping

from .dynamics import AbstractDynamics, PhysicalDynamics, TrialSeed, derive_seed
from .errors import DeclarationError, OutOfDomain
from .relations import Theory, _prepare
from .spaces import (
    AbstractSpace,
    AbstractState,
    Metric,
    Value,
    _declaration,
    _trusted,
    check_total_table,
    contains,
    enumerate_values,
)
from .verification import CommutationReport, _check_tolerances, _grade, _in_domain, _picked, _record, _reports


@_declaration("layer")
class RefinementLayer:
    """One level of abstraction: a space and the dynamics acting on it."""

    id: str
    space: AbstractSpace
    dynamics: AbstractDynamics

    def __post_init__(self, owner):
        if self.dynamics.space != self.space:
            raise DeclarationError(f"{owner}: dynamics act on a different space")


@_declaration("simulation")
class SimulationRelation:
    """A total downward map from an upper layer's states to a lower layer's."""

    id: str
    upper: RefinementLayer
    lower: RefinementLayer
    entries: Mapping[Value, Value]
    codomain = property(lambda self: self.lower.space)
    _apply = property(lambda self: self.entries.__getitem__)

    def __post_init__(self, owner):
        entries = check_total_table(owner, self.entries, self.upper.space, self.lower.space)
        object.__setattr__(self, "entries", entries)

    def map_state(self, state: AbstractState) -> AbstractState:
        if not contains(self.upper.space, state):
            raise OutOfDomain(f"state is not in the upper layer of simulation {self.id!r}")
        return _trusted(AbstractState, self.lower.space, self.entries[state.value])


@_record
class LayerCheckEntry:
    """One upper state with both paths into the lower layer."""

    state: AbstractState
    mapped_after_upper: AbstractState
    lower_after_mapped: AbstractState
    distance: float
    passed: bool


@dataclass(frozen=True)
class LayerReport:
    """One layer pair's verdict; ``entries`` is built on first read from its graded ``_column``."""

    relation_id: str
    epsilon: float
    passed: bool
    _column: tuple = field(repr=False, hash=False)

    def _entries(self, failing: bool = False) -> Iterator[LayerCheckEntry]:
        """Each upper value's entry, or only each failing one: both paths' images and their distance."""
        upper, values, (passed, *_, (_, lower, expected, _, graded)) = self._column
        mapped = [b if g is None else g[0][0] for b, g in zip(expected, graded)]  # g is None where both paths agree
        columns = values, mapped, expected, [0.0 if g is None else g[0][1] for g in graded], passed
        values, mapped, expected, distances, passed = _picked(columns, passed, failing)
        up, down = (partial(_trusted, AbstractState, space) for space in (upper, lower))
        return LayerCheckEntry._make(map(up, values), map(down, mapped), map(down, expected), distances, passed)

    entries = cached_property(lambda self: tuple(self._entries()))


def check_layer(relation: SimulationRelation, epsilon: float, metric: Metric) -> LayerReport:
    """Check one adjacent layer pair over every upper state, as one column of squares."""
    tolerances = _check_tolerances("check_layer", epsilon)
    upper, values = relation.upper, list(enumerate_values(relation.upper.space))
    column = _grade(tolerances, upper.dynamics, values, relation.lower.dynamics, metric, (), relation)
    return LayerReport(relation.id, tolerances[0], all(column[0]), (upper.space, values, column))


@_declaration("stack")
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

    def __post_init__(self, owner):
        if not self.layers:
            raise DeclarationError(f"{owner}: at least one layer required")
        if len(self.relations) != len(self.layers) - 1:
            raise DeclarationError(f"{owner}: need one simulation relation per adjacent pair")
        for i, rel in enumerate(self.relations):
            if rel.upper != self.layers[i] or rel.lower != self.layers[i + 1]:
                raise DeclarationError(
                    f"{owner}: relation {rel.id!r} does not connect"
                    f" layers {self.layers[i].id!r} and {self.layers[i + 1].id!r}"
                )
        if self.layers[-1].space != self.theory.representation.codomain:
            raise DeclarationError(
                f"{owner}: bottom layer space must equal the theory's representation codomain"
            )
        if self.device.space != self.theory.representation.domain:
            raise DeclarationError(f"{owner}: device dynamics act on the wrong space")


@_record
class DeviceCheckEntry:
    """The device-boundary square for one reachable bottom-layer state."""

    state: AbstractState
    report: CommutationReport


@dataclass(frozen=True)
class StackReport:
    """Each layer's report and the device squares' ``_column``; ``device_entries`` is built from it on first read."""

    stack_id: str
    layer_reports: tuple[LayerReport, ...]
    _column: tuple = field(repr=False, hash=False)

    @cached_property
    def passed(self) -> bool:
        return all(r.passed for r in self.layer_reports) and all(self._column[2][0])

    @cached_property
    def device_entries(self) -> tuple[DeviceCheckEntry, ...]:
        bottoms, starts, column = self._column
        return tuple(DeviceCheckEntry._make(bottoms, _reports(starts, column)))


def reachable_bottom_states(stack: RefinementStack) -> list[AbstractState]:
    """Bottom-layer images of every top-layer state, first occurrence order."""
    values = dict.fromkeys(enumerate_values(stack.layers[0].space))
    for rel in stack.relations:  # a layer at a time, so a tall stack nests no iterators
        values = dict.fromkeys(map(rel.entries.__getitem__, values))
    return [_trusted(AbstractState, stack.layers[-1].space, v) for v in values]


def check_stack_to_device(
    stack: RefinementStack,
    epsilon: float,
    metric: Metric,
    seed: TrialSeed,
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
    tolerances = _check_tolerances("check_stack_to_device", epsilon, trials, required_success)
    layer_reports = tuple(check_layer(rel, epsilon, metric) for rel in stack.relations)
    return _ground(stack, layer_reports, tolerances, metric, seed)


def _ground(
    stack: RefinementStack, layer_reports: tuple[LayerReport, ...],
    tolerances: tuple[float, int, float], metric: Metric, base_seed: TrialSeed,
) -> StackReport:
    """The stack's report: ``layer_reports``, and the reachable bottom states, prepared, in one column of squares."""
    theory, program = stack.theory, stack.layers[-1].dynamics
    bottoms = reachable_bottom_states(stack)
    # Each prepared state reads as its bottom state: _prepare chose it so.
    starts = [_in_domain(theory, prepared) for prepared in _prepare(theory, bottoms)]
    uppers = [program._apply(bottom.value) for bottom in bottoms]
    seeds = (derive_seed(base_seed, i) for i in count())
    values = [p.value for p in starts]
    column = _grade(tolerances, stack.device, values, uppers, metric, seeds, theory.representation)
    return StackReport(stack.id, layer_reports, (bottoms, starts, column))
