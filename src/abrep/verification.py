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
from functools import cached_property, partial, reduce
from itertools import chain, compress, count, cycle, repeat
from operator import attrgetter, ge, itemgetter, not_, or_, xor

from .dynamics import (
    AbstractDynamics,
    PhysicalDynamics,
    TrialSeed,
    _flip,
    _lanes_of,
    _sliced,
    _trial_outcomes,
    _unpacked,
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
    AbstractSpace,
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


def _record(cls: type, hidden: tuple = ()) -> type:
    """``cls`` as a frozen dataclass kept in a tuple: its fields without a default, then ``hidden``, are its items.

    Each item is read by an item getter, and a field whose default is a property through it. ``__new__``,
    generated once, takes the fields, then the items past them as None unless given; ``_make(*columns)``
    builds a record per row in C. A record equals only a record of its class with equal fields, and is not
    ordered. ``__reduce__`` rebuilds a record from its fields, its ``cached_property`` views unread.
    """
    body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    names = list(cls.__annotations__)  # each annotation is a field
    items = [name for name in names if name not in body] + list(hidden)
    args, key, scope = names + items[len(names):], attrgetter(*names), {"_new": tuple.__new__}
    defaults = [f"{arg}=None" for arg in args[len(names):]]  # a field read through a property is a hidden item
    exec(f"def __new__(cls, {', '.join(names + defaults)}): return _new(cls, ({', '.join(args)},))", scope)
    same = lambda self, other: type(other) is type(self) and key(self) == key(other)
    body.update(dict.fromkeys(("__lt__", "__le__", "__gt__", "__ge__"), _unordered), __new__=scope["__new__"])
    body.update(__eq__=same, __ne__=lambda *pair: not same(*pair), __reduce__=lambda self: (type(self), key(self)))
    body.update(_make=classmethod(lambda cls, *columns: map(tuple.__new__, repeat(cls), zip(*columns))))
    cls = dataclass(frozen=True, init=False)(type(cls.__name__, (tuple,), body))
    for k, name in enumerate(items):
        setattr(cls, name, property(itemgetter(k)))
    return cls


def _unordered(self, other):
    raise TypeError(f"{type(self).__name__} records are not ordered")


def _picked(columns: tuple, passed: list, failing: bool) -> Iterable:
    """``columns``, or if ``failing`` of each only the rows whose square failed, by the verdicts ``passed``."""
    return map(compress, columns, repeat(list(map(not_, passed)))) if failing else columns


@partial(_record, hidden=("_column", "_at"))
class CommutationReport:
    """Both paths of one square, per-trial distances, and the verdict.

    A trial succeeds when its distance is at most epsilon; the square passes
    when the success fraction reaches the required fraction. For history
    checks the endpoints are physical rather than abstract states. Only a
    check builds one, and it keeps the column its square was graded in and
    its index there. ``_trials``, the square's upper value, each trial's flag
    code and each distinct code's graded outcome, is read off them, and both
    paths' results and ``distances`` are built from it on first read; a
    lane-graded column unpacks all its upper values then, once. A noise-free
    square whose lower equals its upper keeps None, read as the upper at 0.0.
    """

    initial_physical: PhysicalState
    success_fraction: float
    passed: bool
    epsilon: float
    required_success: float
    _trials: tuple = field(default=property(lambda self: _square(self._column, self._at)), repr=False, hash=False)

    @cached_property
    def upper_path_result(self) -> AbstractState | PhysicalState:
        kind, space, upper, _, _ = self._trials
        return _trusted(kind, space, upper)

    @cached_property
    def lower_path_results(self) -> tuple[AbstractState | PhysicalState, ...]:
        kind, space, _, codes, graded = self._trials
        if graded is None:
            return (self.upper_path_result,) * len(codes)
        states = {code: _trusted(kind, space, lower) for code, (lower, _) in graded.items()}
        return tuple(map(states.__getitem__, codes))

    @cached_property
    def distances(self) -> tuple[float, ...]:
        *_, codes, graded = self._trials
        return (0.0,) * len(codes) if graded is None else tuple([graded[code][1] for code in codes])


def _grade(
    tolerances: tuple[float, int, float], device: PhysicalDynamics | AbstractDynamics,
    starts: list, uppers: list | AbstractDynamics, metric: Metric, seeds: Iterable,
    relation: RepresentationRelation | None = None,
) -> tuple:
    """Grade a column of squares on values: the one place a square passes or fails.

    Square i runs ``device``, a device update or a layer's upper program, from
    member value ``starts[i]``, reads the outcome through ``relation`` if given,
    and measures it against ``uppers[i]`` within ``tolerances``, the triple of
    ``_check_tolerances``, or against the program ``uppers``' image of its
    reading. Noise-free, ``seeds`` is not read and each compiled map runs once
    per square; but a discrete column of two or more squares on a device that
    ``_sliced`` runs reads its levels, and runs ``ripple-add``, on all squares at
    once (any other program per square), and only those that differ step, read and measure. Noisy,
    each distinct flag code that square i draws from its seed is flipped, read
    and measured once, with its count of trials. An agreeing noise-free square
    keeps None (``_settled``). The column is returned verdicts first, so a caller
    reads verdicts off it and ``_reports`` builds records, a column at a time.
    """
    epsilon, trials, required = tolerances
    kind, space, read = PhysicalState, device.space, lambda value: value
    if relation is not None:
        kind, space, read = AbstractState, relation.codomain, relation._apply
    measure = _metric(metric, space)
    program = uppers if isinstance(uppers, AbstractDynamics) else None
    step = device.noise is None and metric == "discrete" and len(starts) > 1
    step = step and _sliced(device.rule, getattr(relation, "rule", None))
    if program and not step:
        uppers = list(map(program._apply, map(read, starts)))
    codes = [(0,) * trials] * len(starts)  # noise-free, every trial draws flag code 0
    if step:
        cells, cuts = len(starts), relation.rule.thresholds
        ones, n, laned = int.from_bytes(b"\1" * cells, "little"), len(cuts), program and program._lanes
        lanes = _lanes_of(bytes(map(ge, chain.from_iterable(starts), cycle(cuts))), n, ones)
        if program and not laned:
            uppers = list(map(program._apply, _unpacked(lanes, cells, space)))
        above = laned(lanes, ones) if laned else _lanes_of("".join(map("".join, uppers)).encode(), n, ones)
        differ = reduce(or_, map(xor, step(lanes, ones), above), 0)
        uppers = _Unpacked(above, cells, space) if laned else uppers
        graded, fractions = [None] * cells, [1.0] * cells
        for i in compress(count(), differ.to_bytes(cells, "little")):  # each differs, so keeps its outcome
            graded[i] = _settled(read(device._apply(starts[i])), uppers[i], measure)
            fractions[i] = 1.0 if graded[i][0][1] <= epsilon else 0.0
    elif device.noise is None:
        graded = list(map(_settled, map(read, map(device._apply, starts)), uppers, repeat(measure)))
        fractions = [1.0 if g is None or g[0][1] <= epsilon else 0.0 for g in graded]
    else:
        codes, graded, fractions = [], [], []
        for value, upper, seed in zip(starts, uppers, seeds):
            image, drawn = _trial_outcomes(device, value, seed, trials)
            outcomes, successes = {}, 0
            for code, times in Counter(drawn).items():
                lower = read(_flip(device.noise, image, code))
                d = measure(lower, upper)
                outcomes[code] = lower, d
                successes += times if d <= epsilon else 0
            codes.append(drawn)
            graded.append(outcomes)
            fractions.append(successes / trials)
    passed = [fraction >= required for fraction in fractions]
    return passed, fractions, epsilon, required, (kind, space, uppers, codes, graded)


def _settled(lower, upper, measure) -> dict | None:
    """A noise-free square's graded outcome; None, read as the upper at 0.0, when ``lower`` equals ``upper``.

    Every metric measures equal values as exactly 0.0. Both fills of a column apply this one rule.
    """
    return None if lower == upper else {0: (lower, measure(lower, upper))}


@dataclass(frozen=True)
class _Unpacked:
    """A lane-graded column's upper values: ``cells`` values in ``codomain``, unpacked from ``lanes`` when read."""

    lanes: list
    cells: int
    codomain: AbstractSpace
    values = cached_property(lambda self: _unpacked(self.lanes, self.cells, self.codomain))
    __getitem__ = lambda self, i: self.values[i]


def _square(squares: tuple, at: int | None) -> tuple:
    """A report's ``_trials``: kind, space, upper, flag codes and outcome of square ``at``, or ``squares`` itself."""
    if at is None:
        return squares
    kind, space, uppers, codes, graded = squares
    return kind, space, uppers[at], codes[at], graded[at]


def _reports(starts, column: tuple, failing: bool = False) -> Iterator[CommutationReport]:
    """Each square's report, or each failing square's, in a ``column`` graded from ``starts``: one ``_make``."""
    passed, fractions, epsilon, required, squares = column
    columns = starts, fractions, passed, repeat(epsilon), repeat(required), repeat(squares), count()
    return CommutationReport._make(*_picked(columns, passed, failing))


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
    relation, program = spec.theory.representation, spec.abstract_dynamics
    column = _grade(spec._tolerances, spec.physical_dynamics, [p.value], program, spec.metric, [seed], relation)
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


@_record
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

    def _cells(self, failing: bool = False) -> Iterator[ValidityCell]:
        """The domain's cells by the prediction names, in order, or only the failing ones; no other is built."""
        domain, names, columns = self._columns
        per_prediction = [
            ValidityCell._make(*_picked((domain, repeat(name)), c[0], failing), _reports(domain, c, failing))
            for name, c in zip(names, columns)
        ]
        flags = map(not_, chain(*zip(*(c[0] for c in columns)))) if failing else repeat(True, len(domain) * len(names))
        return map(next, compress(cycle(per_prediction), flags))  # state by state, each prediction's next cell

    cells = cached_property(lambda self: tuple(self._cells()))


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
    columns = []
    for pi, pred in enumerate(theory.predictions):
        seeds = (derive_seed(seed, si, pi) for si in count())
        columns.append(_grade(tolerances, pred.physical, values, pred.abstract, metric, seeds, relation))
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
