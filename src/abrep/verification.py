"""Commutation checks, theory validation, and the compute cycle.

The central object is the square built from one representation relation, a
program, and a device update. Its upper path represents first and then runs
the program; its lower path runs the device and represents the outcome. The
square commutes when the two abstract endpoints agree to within a tolerance
under a chosen metric. For stochastic devices the lower path is sampled over
seeded trials and the square passes when enough trials land inside the
tolerance.

Everything here is pure given the seeds: batch validation visits its cells
in a canonical order, so reports are deterministic however the work is
scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .dynamics import (
    AbstractDynamics,
    PhysicalDynamics,
    TrialSeed,
    _trial_outcomes,
    derive_seed,
    evolve_abstract,
    evolve_physical,
)
from .errors import EmptyDomain, OutOfDomain, TheoryNotValidated
from .relations import (
    RepresentationRelation,
    Theory,
    _prepare,
    instantiate,
    represent,
)
from .spaces import (
    AbstractState,
    Metric,
    PhysicalState,
    _field_error,
    _finite,
    _integer,
    _trusted,
    distance,
)


@dataclass(frozen=True)
class DiagramSpec:
    """Everything needed to test one commuting square.

    ``epsilon`` is the tolerance on the abstract endpoint distance,
    ``trials`` the number of seeded device runs, and ``required_success``
    the fraction of trials that must land within tolerance.
    """

    theory: Theory
    abstract_dynamics: AbstractDynamics
    physical_dynamics: PhysicalDynamics
    epsilon: float = 0.0
    metric: Metric = Metric("discrete")
    trials: int = 1
    required_success: float = 1.0

    def __post_init__(self):
        if _finite("diagram", "epsilon", self.epsilon) < 0:
            raise _field_error("diagram", "epsilon", "must be non-negative")
        if _integer("diagram", "trials", self.trials) < 1:
            raise _field_error("diagram", "trials", "must be at least 1")
        if not (0.0 < _finite("diagram", "required_success", self.required_success) <= 1.0):
            raise _field_error("diagram", "required_success", "must lie in (0, 1]")


@dataclass(frozen=True)
class CommutationReport:
    """Both paths of one square, per-trial distances, and the verdict.

    A trial succeeds when its distance is at most epsilon; the square passes
    when the success fraction reaches the required fraction. For history
    checks the endpoints are physical rather than abstract states.
    """

    initial_physical: PhysicalState
    upper_path_result: AbstractState | PhysicalState
    lower_path_results: tuple[AbstractState | PhysicalState, ...]
    distances: tuple[float, ...]
    success_fraction: float
    passed: bool
    epsilon: float
    required_success: float


def _square(
    spec: DiagramSpec,
    start: PhysicalState,
    upper: AbstractState | PhysicalState,
    metric: Metric,
    base_seed: TrialSeed,
    relation: RepresentationRelation | None = None,
) -> CommutationReport:
    """Run the seeded trials of one square's lower path and grade them.

    Each trial evolves ``start`` on the device, reads the outcome through
    ``relation`` when one is given, and measures it against ``upper``. Both
    are pure functions of the outcome, so each distinct outcome is read and
    measured once.
    """
    device = spec.physical_dynamics
    graded: dict = {}
    trials = []
    for value in _trial_outcomes(device, start, base_seed, spec.trials):
        if value not in graded:
            lower = _trusted(PhysicalState, device.space, value)
            if relation is not None:
                lower = represent(relation, lower)
            graded[value] = (lower, distance(metric, lower, upper))
        trials.append(graded[value])
    lowers, distances = zip(*trials)
    fraction = sum(1 for d in distances if d <= spec.epsilon) / len(distances)
    return CommutationReport(
        initial_physical=start,
        upper_path_result=upper,
        lower_path_results=lowers,
        distances=distances,
        success_fraction=fraction,
        passed=fraction >= spec.required_success,
        epsilon=spec.epsilon,
        required_success=spec.required_success,
    )


def check_commutation(
    spec: DiagramSpec, p: PhysicalState, base_seed: TrialSeed
) -> CommutationReport:
    """Test the square at configuration ``p`` in the prediction direction.

    Representing both ends and comparing abstractly is the scientific use of
    the theory: the program's answer is the prediction the device must hit.
    """
    if not isinstance(p, PhysicalState) or p not in spec.theory._domain_set:
        raise OutOfDomain(
            f"configuration is outside the declared domain of theory {spec.theory.id!r}"
        )
    relation = spec.theory.representation
    upper = evolve_abstract(spec.abstract_dynamics, represent(relation, p))
    return _square(spec, p, upper, spec.metric, base_seed, relation)


def check_history(
    spec: DiagramSpec,
    m: AbstractState,
    physical_metric: Metric,
    base_seed: TrialSeed,
) -> CommutationReport:
    """Test the square at abstract state ``m`` in the engineering direction.

    Both paths end in the physical domain: prepare-then-evolve must land on
    the same configuration as evolve-then-prepare, measured by a metric on
    physical states. This is the technology use of the theory. Both ends
    are prepared in one scan of the seeds.
    """
    evolved = evolve_abstract(spec.abstract_dynamics, m)
    start, target = _prepare(spec.theory, (m, evolved))
    return _square(spec, start, target, physical_metric, base_seed)


@dataclass(frozen=True)
class ValidityCell:
    """One (domain state, prediction) square inside a validation run."""

    state: PhysicalState
    prediction: str
    report: CommutationReport


@dataclass(frozen=True)
class ValidityReport:
    """Evidence from exhaustively checking the declared validation grid.

    The verdict and the coverage are read off the cells, once each.
    """

    theory_id: str
    cells: tuple[ValidityCell, ...]

    @cached_property
    def all_passed(self) -> bool:
        return all(cell.report.passed for cell in self.cells)

    @cached_property
    def coverage(self) -> int:
        return len(self.cells)


def validate_theory(
    theory: Theory,
    epsilon: float,
    metric: Metric,
    trials: int,
    required_success: float,
    base_seed: TrialSeed,
) -> tuple[Theory, ValidityReport]:
    """Check every (domain state, prediction) square and grade the theory.

    Returns a new Theory that carries the evidence; the input value is
    left untouched. Validity is relative to exactly this grid:
    coverage is reported, extrapolation is never assumed.
    """
    if not theory.domain:
        raise EmptyDomain(f"theory {theory.id!r} declares no domain states")
    if not theory.predictions:
        raise EmptyDomain(f"theory {theory.id!r} declares no predictions")
    specs = [
        DiagramSpec(
            theory=theory,
            abstract_dynamics=pred.abstract,
            physical_dynamics=pred.physical,
            epsilon=epsilon,
            metric=metric,
            trials=trials,
            required_success=required_success,
        )
        for pred in theory.predictions
    ]
    cells: list[ValidityCell] = []
    for si, state in enumerate(theory.domain):
        for pi, (pred, spec) in enumerate(zip(theory.predictions, specs)):
            report = check_commutation(spec, state, derive_seed(base_seed, si, pi))
            cells.append(ValidityCell(state, pred.name, report))
    evidence = ValidityReport(theory.id, tuple(cells))
    graded = replace(theory)
    object.__setattr__(graded, "evidence", evidence)
    return graded, evidence


@dataclass(frozen=True)
class ComputeResult:
    """Record of one compute cycle: encode, evolve, decode."""

    input: AbstractState
    prepared: PhysicalState
    final_physical: PhysicalState
    output: AbstractState
    program: str


def run_compute_cycle(
    theory: Theory,
    input_state: AbstractState,
    program: str,
    h: PhysicalDynamics,
    seed: TrialSeed,
) -> ComputeResult:
    """Use the device to predict the named program's outcome on ``input_state``.

    The program itself is never executed: the input is encoded into the
    device, the device evolves, and the result is decoded. A theory that has
    not been validated cannot be used this way, and ``h`` must be the device
    update that validation checked for ``program``.
    """
    if not theory.is_valid:
        raise TheoryNotValidated(
            f"theory {theory.id!r} has validity {theory.validity!r};"
            " validate it before computing"
        )
    if h != theory.prediction(program).physical:
        raise TheoryNotValidated(
            f"theory {theory.id!r}: the device update given is not the one"
            f" validated for program {program!r}"
        )
    prepared = instantiate(theory, input_state)
    final = evolve_physical(h, prepared, seed)
    output = represent(theory.representation, final)
    return ComputeResult(
        input=input_state,
        prepared=prepared,
        final_physical=final,
        output=output,
        program=program,
    )
