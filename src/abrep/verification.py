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

from collections import Counter
from copy import copy
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .dynamics import (
    AbstractDynamics,
    PhysicalDynamics,
    TrialSeed,
    _flip,
    _trial_outcomes,
    derive_seed,
    evolve_abstract,
    evolve_physical,
)
from .errors import DeclarationError, EmptyDomain, OutOfDomain, TheoryNotValidated
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
    _declaration,
    _distance_value,
    _field_error,
    _finite,
    _integer,
    _trusted,
)


@_declaration("diagram", name=None)
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

    def __post_init__(self, owner):
        relation = self.theory.representation
        if (
            self.abstract_dynamics.space != relation.codomain
            or self.physical_dynamics.space != relation.domain
        ):
            raise DeclarationError(f"{owner}: its dynamics do not act on the theory's spaces")
        _check_tolerances(self, owner)


def _check_tolerances(decl, owner: str) -> None:
    """Range-check ``decl``'s epsilon, trials and required_success; store both tolerances as floats.

    ``owner`` names ``decl`` in the DeclarationError, whose field is the one out of range.
    """
    if _finite(owner, "epsilon", decl.epsilon) < 0:
        raise _field_error(owner, "epsilon", "must be non-negative")
    if _integer(owner, "trials", decl.trials) < 1:
        raise _field_error(owner, "trials", "must be at least 1")
    if not (0.0 < _finite(owner, "required_success", decl.required_success) <= 1.0):
        raise _field_error(owner, "required_success", "must lie in (0, 1]")
    for name in ("epsilon", "required_success"):
        object.__setattr__(decl, name, float(getattr(decl, name)))


class _Deferred:
    """A report built by a check: the fields it leaves out come from ``_view``, on first read.

    ``_assemble`` stores every other field, and the ``_source`` that
    ``_view`` builds the missing ones from. Public construction sets every
    field, so such a report never calls ``_view``.
    """

    def __getattr__(self, name: str):
        source = vars(self).get("_source")
        if source is None or name not in self.__dataclass_fields__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = vars(self)[name] = self._view(name, *source)
        return value


def _assemble(cls: type, source: tuple, **fields):
    """A ``cls`` of trusted ``fields``, whose other fields ``cls._view`` builds from ``source``."""
    report = object.__new__(cls)
    vars(report).update(fields, _source=source)
    return report


@dataclass(frozen=True)
class CommutationReport(_Deferred):
    """Both paths of one square, per-trial distances, and the verdict.

    A trial succeeds when its distance is at most epsilon; the square passes
    when the success fraction reaches the required fraction. For history
    checks the endpoints are physical rather than abstract states. A check
    builds ``lower_path_results`` and ``distances`` on their first read.
    """

    initial_physical: PhysicalState
    upper_path_result: AbstractState | PhysicalState
    lower_path_results: tuple[AbstractState | PhysicalState, ...]
    distances: tuple[float, ...]
    success_fraction: float
    passed: bool
    epsilon: float
    required_success: float

    def _view(self, name: str, kind: type, space, codes: tuple, graded: dict) -> tuple:
        """Trial by trial, from each trial's code: its lower state, or its distance."""
        if name == "distances":
            return tuple([graded[code][1] for code in codes])
        states = {code: _trusted(kind, space, lower) for code, (lower, _) in graded.items()}
        return tuple(map(states.__getitem__, codes))


def _square(
    spec: DiagramSpec,
    start: PhysicalState,
    upper: AbstractState | PhysicalState,
    metric: Metric,
    base_seed: TrialSeed | None,
    relation: RepresentationRelation | None = None,
) -> CommutationReport:
    """Run the seeded trials of one square's lower path and grade them.

    Each trial evolves ``start`` on the device, reads the outcome through
    ``relation`` when one is given, and measures it against ``upper``. Both
    are pure functions of the trial's flag code, so each distinct code is
    flipped, read, measured and graded once, with its count of trials. The
    report keeps the codes, and builds its per-trial fields from them on
    first read. A noise-free device reads no ``base_seed``.
    """
    device, trials = spec.physical_dynamics, spec.trials
    noise = device.noise
    image, codes = _trial_outcomes(device, start.value, base_seed, trials)
    space = device.space if relation is None else relation.codomain
    graded, successes = {}, 0
    for code, count in (Counter(codes) if noise is not None else {0: trials}).items():
        lower = image if noise is None else _flip(noise, image, code)
        if relation is not None:
            lower = relation._apply(lower)
        d = _distance_value(metric.kind, space, lower, upper.value)
        graded[code] = lower, d
        successes += count if d <= spec.epsilon else 0
    kind = PhysicalState if relation is None else AbstractState
    fraction = successes / trials
    return _assemble(
        CommutationReport, (kind, space, codes, graded), initial_physical=start,
        upper_path_result=upper, success_fraction=fraction,
        passed=fraction >= spec.required_success,
        epsilon=spec.epsilon, required_success=spec.required_success,
    )


def _in_domain(theory: Theory, p: PhysicalState) -> None:
    if not isinstance(p, PhysicalState) or p not in theory._domain_set:
        raise OutOfDomain(f"configuration is outside the declared domain of theory {theory.id!r}")


def check_commutation(spec: DiagramSpec, p: PhysicalState, seed: TrialSeed) -> CommutationReport:
    """Test the square at configuration ``p`` in the prediction direction.

    Representing both ends and comparing abstractly is the scientific use of
    the theory: the program's answer is the prediction the device must hit.
    """
    _in_domain(spec.theory, p)
    relation = spec.theory.representation
    upper = evolve_abstract(spec.abstract_dynamics, represent(relation, p))
    return _square(spec, p, upper, spec.metric, seed, relation)


def check_history(
    spec: DiagramSpec,
    m: AbstractState,
    physical_metric: Metric,
    seed: TrialSeed,
) -> CommutationReport:
    """Test the square at abstract state ``m`` in the engineering direction.

    Both paths end in the physical domain: prepare-then-evolve must land on
    the same configuration as evolve-then-prepare, measured by a metric on
    physical states. This is the technology use of the theory. Both ends
    are prepared in one scan of the seeds.
    """
    evolved = evolve_abstract(spec.abstract_dynamics, m)
    start, target = _prepare(spec.theory, (m, evolved))
    return _square(spec, start, target, physical_metric, seed)


@dataclass(frozen=True)
class ValidityCell:
    """One (domain state, prediction) square inside a validation run."""

    state: PhysicalState
    prediction: str
    report: CommutationReport


@dataclass(frozen=True)
class ValidityReport(_Deferred):
    """Evidence from exhaustively checking the declared validation grid.

    The verdict and the coverage are read off the cells, once each;
    ``validate_theory`` reads them off its squares, and builds ``cells`` on first read.
    """

    theory_id: str
    cells: tuple[ValidityCell, ...]

    @cached_property
    def all_passed(self) -> bool:
        return all(cell.report.passed for cell in self.cells)

    @cached_property
    def coverage(self) -> int:
        return len(self.cells)

    def _view(self, name: str, domain: tuple, predictions: list, reports: list) -> tuple:
        """The cells of ``domain`` by the prediction names, in order, with their ``reports``."""
        grid = product(domain, predictions)
        return tuple(ValidityCell(state, pred, r) for (state, pred), r in zip(grid, reports))


def validate_theory(
    theory: Theory,
    epsilon: float,
    metric: Metric,
    trials: int,
    required_success: float,
    seed: TrialSeed,
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
        DiagramSpec(theory, pred.abstract, pred.physical, epsilon, metric, trials, required_success)
        for pred in theory.predictions
    ]
    relation = theory.representation
    read, codomain = relation._apply, relation.codomain
    reports = []
    for si, state in enumerate(theory.domain):
        reading = read(state.value)  # domain states are the relation's: checked at declaration
        for pi, (pred, spec) in enumerate(zip(theory.predictions, specs)):
            upper = _trusted(AbstractState, codomain, pred.abstract._apply(reading))
            cell_seed = None if pred.physical.noise is None else derive_seed(seed, si, pi)
            reports.append(_square(spec, state, upper, metric, cell_seed, relation))
    names = [pred.name for pred in theory.predictions]
    evidence = _assemble(
        ValidityReport, (theory.domain, names, reports), theory_id=theory.id,
        all_passed=all(r.passed for r in reports), coverage=len(reports),
    )
    graded = copy(theory)
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
    return ComputeResult(input_state, prepared, final, output, program)
