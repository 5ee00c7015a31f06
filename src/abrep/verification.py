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

import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from copy import copy
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, repeat

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
    _field_error,
    _metric,
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
    metric: Metric = "discrete"
    trials: int = 1
    required_success: float = 1.0

    def __post_init__(self, owner):
        relation = self.theory.representation
        if (
            self.abstract_dynamics.space != relation.codomain
            or self.physical_dynamics.space != relation.domain
        ):
            raise DeclarationError(f"{owner}: its dynamics do not act on the theory's spaces")
        _check_tolerances(owner, self.epsilon, self.trials, self.required_success)

    _tolerances = property(lambda self: (self.epsilon, self.trials, self.required_success))


def _check_tolerances(owner: str, epsilon: float, trials: int = 1, required: float = 1.0) -> tuple:
    """A square's tolerances, range-checked, as ``_grade`` takes them; ``owner`` names their holder.

    Their types are checked where they are declared or passed. Numbers come back as floats.
    """
    if epsilon < 0:
        raise _field_error(owner, "epsilon", "must be non-negative")
    if trials < 1:
        raise _field_error(owner, "trials", "must be at least 1")
    if trials > sys.maxsize:  # past it, a column of trials cannot be indexed
        raise _field_error(owner, "trials", f"must be at most {sys.maxsize}")
    if not (0.0 < required <= 1.0):
        raise _field_error(owner, "required_success", "must lie in (0, 1]")
    return float(epsilon), trials, float(required)


@dataclass(frozen=True)
class CommutationReport:
    """Both paths of one square, per-trial distances, and the verdict.

    A trial succeeds when its distance is at most epsilon; the square passes
    when the success fraction reaches the required fraction. For history
    checks the endpoints are physical rather than abstract states. Only a
    check builds one: it keeps each trial's flag code and each distinct
    code's graded outcome in ``_trials``, and both paths' results and
    ``distances`` are built from them on first read.
    """

    initial_physical: PhysicalState
    success_fraction: float
    passed: bool
    epsilon: float
    required_success: float
    _trials: tuple = field(repr=False, hash=False)

    @cached_property
    def upper_path_result(self) -> AbstractState | PhysicalState:
        kind, space, upper, _, _ = self._trials
        return _trusted(kind, space, upper)

    @cached_property
    def lower_path_results(self) -> tuple[AbstractState | PhysicalState, ...]:
        kind, space, _, codes, graded = self._trials
        states = {code: _trusted(kind, space, lower) for code, (lower, _) in graded.items()}
        return tuple(map(states.__getitem__, codes))

    @cached_property
    def distances(self) -> tuple[float, ...]:
        *_, codes, graded = self._trials
        return tuple([graded[code][1] for code in codes])


def _grade(
    tolerances: tuple[float, int, float], device: PhysicalDynamics | AbstractDynamics,
    starts: list, uppers: list, metric: Metric, seeds: Iterable,
    relation: RepresentationRelation | None = None,
) -> tuple:
    """Grade a column of squares on values: the one place a square passes or fails.

    Square i runs ``device``, a device update or a layer's upper program, from
    member value ``starts[i]``, reads the outcome through ``relation`` if given,
    and measures it against ``uppers[i]`` within ``tolerances``, the triple of
    ``_check_tolerances``. Noise-free, as a program is, each compiled map runs
    once over the column and ``seeds`` is not read. Noisy, each distinct flag
    code that square i draws from its seed is flipped, read and measured once,
    with its count of trials. The column is returned as ``_reports`` reads it,
    verdicts first.
    """
    epsilon, trials, required = tolerances
    kind, space, read = PhysicalState, device.space, lambda value: value
    if relation is not None:
        kind, space, read = AbstractState, relation.codomain, relation._apply
    measure = _metric(metric, space)
    if device.noise is None:
        lowers = list(map(read, map(device._apply, starts)))
        distances = list(map(measure, lowers, uppers))
        codes = [(0,) * trials] * len(lowers)
        graded = [{0: pair} for pair in zip(lowers, distances)]
        fractions = [1.0 if d <= epsilon else 0.0 for d in distances]
    else:
        codes, graded, fractions = [], [], []
        for value, upper, seed in zip(starts, uppers, seeds):
            image, drawn = _trial_outcomes(device, value, seed, trials)
            outcomes, successes = {}, 0
            for code, count in Counter(drawn).items():
                lower = read(_flip(device.noise, image, code))
                d = measure(lower, upper)
                outcomes[code] = lower, d
                successes += count if d <= epsilon else 0
            codes.append(drawn)
            graded.append(outcomes)
            fractions.append(successes / trials)
    passed = [fraction >= required for fraction in fractions]
    return passed, fractions, epsilon, required, kind, space, uppers, codes, graded


def _reports(starts, column: tuple) -> Iterator[CommutationReport]:
    """The report of each square in a ``column`` that ``_grade`` graded, run from ``starts``."""
    passed, fractions, epsilon, required, kind, space, *per_square = column
    trials = zip(repeat(kind), repeat(space), *per_square)
    tolerances = repeat(epsilon), repeat(required)
    return map(CommutationReport, starts, fractions, passed, *tolerances, trials)


def _in_domain(theory: Theory, p: PhysicalState) -> PhysicalState:
    if not isinstance(p, PhysicalState) or p not in theory._domain_set:
        raise OutOfDomain(f"configuration is outside the declared domain of theory {theory.id!r}")
    return p


def check_commutation(spec: DiagramSpec, p: PhysicalState, seed: TrialSeed) -> CommutationReport:
    """Test the square at configuration ``p`` in the prediction direction.

    Representing both ends and comparing abstractly is the scientific use of
    the theory: the program's answer is the prediction the device must hit.
    """
    _in_domain(spec.theory, p)
    relation = spec.theory.representation
    upper = spec.abstract_dynamics._apply(relation._apply(p.value))
    column = _grade(
        spec._tolerances, spec.physical_dynamics, [p.value], [upper], spec.metric, [seed], relation
    )
    return next(_reports([p], column))


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
    p, q = _prepare(spec.theory, (m, evolved))
    column = _grade(spec._tolerances, spec.physical_dynamics, [p.value], [q.value], physical_metric, [seed])
    return next(_reports([p], column))


@dataclass(frozen=True)
class ValidityCell:
    """One (domain state, prediction) square inside a validation run."""

    state: PhysicalState
    prediction: str
    report: CommutationReport


@dataclass(frozen=True)
class ValidityReport:
    """Evidence from exhaustively checking the declared validation grid.

    ``validate_theory`` grades each prediction's squares as one column and
    keeps the columns in ``_columns``; ``cells`` is built from them on first read.
    """

    theory_id: str
    all_passed: bool
    coverage: int
    _columns: tuple = field(repr=False, hash=False)

    @cached_property
    def cells(self) -> tuple[ValidityCell, ...]:
        """The domain's cells by the prediction names, in order, each from its graded column."""
        domain, names, columns = self._columns
        per_prediction = [
            map(ValidityCell, domain, repeat(name), _reports(domain, column))
            for name, column in zip(names, columns)
        ]
        return tuple(chain.from_iterable(zip(*per_prediction)))


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
    coverage is reported, extrapolation is never assumed. Each
    prediction's squares are graded as one column.
    """
    tolerances = _check_tolerances("validate_theory", epsilon, trials, required_success)
    if not theory.domain:
        raise EmptyDomain(f"theory {theory.id!r} declares no domain states")
    if not theory.predictions:
        raise EmptyDomain(f"theory {theory.id!r} declares no predictions")
    relation = theory.representation
    values = [state.value for state in theory.domain]  # the relation's: checked at declaration
    readings = list(map(relation._apply, values))
    columns = []
    for pi, pred in enumerate(theory.predictions):
        seeds = (derive_seed(seed, si, pi) for si in count())
        uppers = list(map(pred.abstract._apply, readings))
        columns.append(_grade(tolerances, pred.physical, values, uppers, metric, seeds, relation))
    names = [pred.name for pred in theory.predictions]
    all_passed = all(all(column[0]) for column in columns)
    evidence = ValidityReport(
        theory.id, all_passed, len(values) * len(names), (theory.domain, names, columns)
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
    not been validated cannot be used this way, ``h`` must be the device
    update that validation checked for ``program``, and the configuration
    prepared for ``input_state`` (its first seed) must be a domain state.
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
    prepared = _in_domain(theory, instantiate(theory, input_state))
    final = evolve_physical(h, prepared, seed)
    output = represent(theory.representation, final)
    return ComputeResult(input_state, prepared, final, output, program)
