import bisect
import copy
import itertools
import math
import pickle
import random
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

import abrep.dynamics
import abrep.spaces
import abrep.verification
from abrep import (
    BUILTIN_SCENARIOS,
    AbstractDynamics,
    AbstractState,
    BinarySumUpdate,
    BitSpace,
    BuiltinRule,
    ConstantUpdate,
    CoordinateFlipNoise,
    CoordinateUpdateRule,
    DISCRETE,
    DeclarationError,
    DiagramSpec,
    EmptyDomain,
    InstantiationProcedure,
    LabelSpace,
    MAX_COORDINATE,
    METRICS,
    MetricMismatch,
    NotInstantiable,
    OutOfDomain,
    PhysicalDynamics,
    PhysicalLabelSpace,
    PhysicalState,
    PhysicalTupleSpace,
    Prediction,
    ProductRule,
    RealVectorSpace,
    RefinementLayer,
    RepresentationRelation,
    SimulationRelation,
    TableRule,
    Theory,
    TheoryNotValidated,
    ThresholdRule,
    TrialSeed,
    TupleSpace,
    build_swap_device,
    build_voltage_adder,
    check_commutation,
    check_history,
    check_layer,
    check_stack_to_device,
    derive_seed,
    emit_scenario,
    enumerate_states,
    enumerate_values,
    evolve_abstract,
    evolve_physical,
    identity_dynamics,
    instantiate,
    parse_scenario,
    report_to_json,
    represent,
    run_checks,
    run_compute_cycle,
    validate_theory,
)
from abrep.dynamics import BUILTIN_NAMES, _lanes_of, _unpacked
from abrep.spaces import _register_widths
from abrep.verification import _reports
from support import (
    adder_theory,
    count_calls,
    count_compiled,
    count_device_work,
    random_deterministic_theory,
    record_calls,
)

SEED = TrialSeed(0)


def adder_pieces(flip=0.0, faulted=False):
    bundle = build_voltage_adder(flip, faulted=faulted)
    theory = bundle.theory("adder")
    pred = theory.predictions[0]
    return bundle, theory, pred


def machine_state(theory, value):
    return AbstractState(theory.representation.codomain, value)


def encoded(theory, value):
    return instantiate(theory, machine_state(theory, value))


def test_adder_diagram_commutes_with_zero_distance():
    _, theory, pred = adder_pieces()
    spec = DiagramSpec(theory, pred.abstract, pred.physical, metric=MAX_COORDINATE)
    report = check_commutation(spec, encoded(theory, ("01", "10", "000")), SEED)
    assert report.passed
    assert report.distances == (0.0,)
    assert report.upper_path_result.value == ("01", "10", "011")
    assert report.lower_path_results[0] == report.upper_path_result


def test_identity_diagram_commutes_for_every_domain_state():
    _, theory, _ = adder_pieces()
    ident_abstract = AbstractDynamics(
        "ident", theory.representation.codomain, BuiltinRule("identity")
    )
    ident_physical = identity_dynamics("still", theory.representation.domain)
    spec = DiagramSpec(theory, ident_abstract, ident_physical)
    for state in theory.domain:
        report = check_commutation(spec, state, SEED)
        assert report.passed
        assert report.upper_path_result == represent(theory.representation, state)


def test_stuck_output_line_breaks_the_diagram():
    _, theory, pred = adder_pieces(faulted=True)
    spec = DiagramSpec(theory, pred.abstract, pred.physical, metric=MAX_COORDINATE)
    report = check_commutation(spec, encoded(theory, ("01", "10", "000")), SEED)
    assert not report.passed
    assert report.distances == (1.0,)
    # hand evaluation: the device writes 011 then the low line sticks at 0
    assert report.lower_path_results[0].value == ("01", "10", "010")
    assert report.upper_path_result.value == ("01", "10", "011")


def test_commutation_requires_domain_membership():
    _, theory, pred = adder_pieces()
    spec = DiagramSpec(theory, pred.abstract, pred.physical)
    outside = PhysicalState(theory.representation.domain, (5.0,) * 7)
    with pytest.raises(OutOfDomain):
        check_commutation(spec, outside, SEED)


def test_history_check_passes_on_the_adder():
    _, theory, pred = adder_pieces()
    spec = DiagramSpec(theory, pred.abstract, pred.physical)
    report = check_history(spec, machine_state(theory, ("01", "10", "000")), MAX_COORDINATE, SEED)
    assert report.passed
    assert report.distances == (0.0,)
    assert represent(theory.representation, report.upper_path_result).value == ("01", "10", "011")


def test_history_identity_paths_coincide():
    _, theory, _ = adder_pieces()
    ident_abstract = AbstractDynamics(
        "ident", theory.representation.codomain, BuiltinRule("identity")
    )
    ident_physical = identity_dynamics("still", theory.representation.domain)
    spec = DiagramSpec(theory, ident_abstract, ident_physical)
    report = check_history(spec, machine_state(theory, ("11", "01", "000")), MAX_COORDINATE, SEED)
    assert report.passed


def test_history_unreachable_target_raises():
    from abrep import NotInstantiable, InstantiationProcedure, Theory
    from dataclasses import replace

    _, theory, pred = adder_pieces()
    # keep only seeds whose output register is zero: the evolved target
    # ("01","10","011") is then unreachable
    seeds = tuple(
        s
        for s in theory.instantiation.seeds
        if represent(theory.representation, s).value[2] == "000"
    )
    trimmed = replace(
        theory, instantiation=InstantiationProcedure(seeds, theory.instantiation.engineering)
    )
    spec = DiagramSpec(trimmed, pred.abstract, pred.physical)
    with pytest.raises(NotInstantiable):
        check_history(spec, machine_state(trimmed, ("01", "10", "000")), MAX_COORDINATE, SEED)


def test_validate_theory_passes_all_sixteen_cells():
    _, theory, _ = adder_pieces()
    graded, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    assert evidence.all_passed
    assert evidence.coverage == 16
    assert graded.is_valid
    assert graded.evidence is evidence and graded.validity == "valid"
    # the input theory is untouched
    assert not theory.is_valid


@pytest.mark.parametrize("name", ["discrete", "max-coordinate"])
def test_a_metric_given_by_name_runs(name):
    """A metric is its name: the name itself grades a theory, as its constant does."""
    _, theory, _ = adder_pieces()
    graded, evidence = validate_theory(theory, 0.0, name, 1, 1.0, SEED)
    assert graded.is_valid and evidence.coverage == 16
    assert METRICS[name] == name


@pytest.mark.parametrize("flip", [0.0, 0.05])
def test_validity_verdict_and_coverage_agree_with_its_cells(flip):
    _, evidence = validate_theory(adder_pieces(flip=flip)[1], 0.0, DISCRETE, 5, 1.0, SEED)
    assert evidence.all_passed == all(cell.report.passed for cell in evidence.cells)
    assert evidence.coverage == len(evidence.cells) == 16
    passed = [cell for cell in evidence.cells if cell.report.passed]
    assert len(passed) == (16 if flip == 0.0 else 7)  # 5 trials at flip probability 0.05


def test_validate_theory_requires_nonempty_grid():
    from dataclasses import replace

    _, theory, _ = adder_pieces()
    with pytest.raises(EmptyDomain):
        validate_theory(replace(theory, domain=()), 0.0, DISCRETE, 1, 1.0, SEED)
    with pytest.raises(EmptyDomain):
        validate_theory(replace(theory, predictions=()), 0.0, DISCRETE, 1, 1.0, SEED)


def test_noisy_adder_fails_validation_at_high_confidence():
    _, theory, _ = adder_pieces(flip=0.1)
    graded, evidence = validate_theory(theory, 0.0, DISCRETE, 300, 0.99, SEED)
    assert not evidence.all_passed
    assert graded.validity == "invalid"
    # per-cell success hovers near the analytic 0.9**3
    fractions = [cell.report.success_fraction for cell in evidence.cells]
    assert all(f < 0.99 for f in fractions)
    assert abs(sum(fractions) / len(fractions) - 0.729) < 0.05


def binomial_interval(n: int, p: float, mass: float = 0.999) -> tuple[int, int]:
    """The central ``mass`` interval of Binomial(n, p): its two tail quantiles."""
    pmf = (math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1))
    cdf = list(itertools.accumulate(pmf))
    tail = (1 - mass) / 2
    return bisect.bisect_left(cdf, tail), bisect.bisect_left(cdf, 1 - tail)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_noisy_adder_success_counts_are_calibrated(seed):
    """Gate: the sampler's success counts sit in the 99.9% interval around the exact value.

    A trial succeeds when none of the adder's 3 output lines flips, so its
    exact success probability is 0.9**3 = 0.729 on every cell.
    """
    bundle = BUILTIN_SCENARIOS["voltage-adder-noisy"]()
    validate, estimate = bundle.checks
    noise = bundle.theory(validate.theory).prediction(estimate.prediction).physical.noise
    assert noise.probability == 0.1 and len(set(noise.coordinates)) == len(noise.coordinates) == 3
    exact = (1 - noise.probability) ** 3

    assert binomial_interval(validate.trials, exact) == (262, 320)
    lo, hi = binomial_interval(validate.trials, exact)
    _, evidence = validate_theory(
        bundle.theory(validate.theory),
        validate.epsilon,
        METRICS[validate.metric],
        validate.trials,
        validate.required_success,
        derive_seed(TrialSeed(seed), 0),  # what run_checks gives its first check
    )
    for cell in evidence.cells:
        assert lo <= sum(d <= validate.epsilon for d in cell.report.distances) <= hi

    assert binomial_interval(estimate.trials, exact) == (682, 774)
    lo, hi = binomial_interval(estimate.trials, exact)
    distances = run_checks(bundle, TrialSeed(seed)).results[1].detail["distances"]
    assert len(distances) == estimate.trials
    assert lo <= sum(d <= estimate.epsilon for d in distances) <= hi


def test_compute_cycle_requires_validated_theory():
    _, theory, pred = adder_pieces()
    with pytest.raises(TheoryNotValidated):
        run_compute_cycle(
            theory, machine_state(theory, ("01", "10", "000")), "add", pred.physical, SEED
        )


def test_compute_cycle_predicts_addition_without_running_it():
    _, theory, pred = adder_pieces()
    graded, _ = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    result = run_compute_cycle(
        graded, machine_state(graded, ("01", "10", "000")), "add", pred.physical, SEED
    )
    assert result.output.value == ("01", "10", "011")
    assert result.output == represent(graded.representation, result.final_physical)


def _stuck_line_6(pred: Prediction) -> PhysicalDynamics:
    """The adder's device update with its least significant output line stuck at 0 V."""
    return PhysicalDynamics(
        "stuck-line-6",
        pred.physical.space,
        CoordinateUpdateRule(pred.physical.rule.assignments + (ConstantUpdate((6,), (0.0,)),)),
    )


def test_compute_cycle_runs_only_the_validated_device_update():
    _, theory, pred = adder_pieces()
    graded, _ = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    stuck = _stuck_line_6(pred)
    with pytest.raises(TheoryNotValidated):
        run_compute_cycle(graded, machine_state(graded, ("01", "10", "000")), "add", stuck, SEED)


def test_only_validation_makes_a_theory_valid():
    """Validity is the evidence: a theory built any other way is untested and cannot compute.

    Replacing the prediction of a validated adder by a faulted device would
    otherwise compute 1 + 2 as 2 under the validated status.
    """
    _, theory, pred = adder_pieces()
    graded, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    faulted = replace(graded, predictions=(Prediction("add", pred.abstract, _stuck_line_6(pred)),))
    rebuilt = Theory(graded.id, graded.representation, graded.domain, graded.predictions)
    for other in (faulted, rebuilt, replace(graded)):
        assert other.validity == "untested" and other.evidence is None and not other.is_valid
        state = machine_state(other, ("01", "10", "000"))
        with pytest.raises(TheoryNotValidated):
            run_compute_cycle(other, state, "add", other.prediction("add").physical, SEED)
    assert graded.is_valid and graded.evidence is evidence
    with pytest.raises(ValueError):
        replace(graded, evidence=evidence)


def test_compute_cycle_refuses_an_input_prepared_outside_the_validated_domain():
    """Validation looked at 16 configurations; the first seed for this input is none of them."""
    _, theory, pred = adder_pieces()
    graded, _ = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    m = machine_state(graded, ("01", "10", "111"))
    prepared = instantiate(graded, m)
    assert prepared.value == (0.0, 5.0, 5.0, 0.0, 5.0, 5.0, 5.0)
    assert prepared not in graded.domain
    message = "^configuration is outside the declared domain of theory 'adder'$"
    with pytest.raises(OutOfDomain, match=message):
        run_compute_cycle(graded, m, "add", pred.physical, SEED)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_every_compute_cycle_runs_from_a_validated_configuration(name):
    """Sweep: each instantiable input either computes from a domain state or raises OutOfDomain."""
    ran = refused = 0
    for theory in BUILTIN_SCENARIOS[name]().theories:
        graded, _ = validate_theory(theory, 1.0, DISCRETE, 1, 1.0, SEED)  # every square passes
        assert graded.is_valid
        for pred, m in itertools.product(graded.predictions, enumerate_states(graded.representation.codomain)):
            try:
                prepared = instantiate(graded, m)
            except NotInstantiable:
                continue
            if prepared in graded.domain:
                result = run_compute_cycle(graded, m, pred.name, pred.physical, SEED)
                assert result.prepared == prepared
                ran += 1
            else:
                with pytest.raises(OutOfDomain):
                    run_compute_cycle(graded, m, pred.name, pred.physical, SEED)
                refused += 1
    assert ran > 0
    if name.startswith("voltage-adder"):
        assert (ran, refused) == (16, 112)


def test_compute_cycle_on_swap_device():
    bundle = build_swap_device()
    theory = bundle.theory("swap")
    pred = theory.predictions[0]
    graded, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    assert evidence.all_passed and evidence.coverage == 100
    result = run_compute_cycle(
        graded, AbstractState(graded.representation.codomain, (7, 9)), "swap", pred.physical, SEED
    )
    assert result.output.value == (9, 7)


def test_commutation_zero_case_and_fault_sensitivity():
    _, theory, pred = adder_pieces()
    spec = DiagramSpec(theory, pred.abstract, pred.physical)
    report = check_commutation(spec, encoded(theory, ("00", "00", "000")), SEED)
    assert report.passed
    assert report.upper_path_result.value == ("00", "00", "000")

    _, faulted, fpred = adder_pieces(faulted=True)
    fspec = DiagramSpec(faulted, fpred.abstract, fpred.physical)
    report = check_commutation(fspec, encoded(faulted, ("01", "10", "000")), SEED)
    assert not report.passed


def test_deterministic_success_fraction_is_zero_or_one():
    rng = random.Random(7)
    for i in range(20):
        theory = random_deterministic_theory(rng, f"det{i}")
        pred = theory.predictions[0]
        for trials in (1, 5):
            spec = DiagramSpec(
                theory, pred.abstract, pred.physical, trials=trials, required_success=1.0
            )
            for state in theory.domain:
                a = check_commutation(spec, state, TrialSeed(3))
                b = check_commutation(spec, state, TrialSeed(99))
                assert a.success_fraction in (0.0, 1.0)
                assert a.success_fraction == b.success_fraction


def test_validate_theory_matches_its_own_exhaustive_path():
    # self-oracle: the verdict must equal direct square-by-square evaluation
    # over the declared grid with the same derived seeds
    from abrep import derive_seed

    rng = random.Random(23)
    subjects = [build_voltage_adder().theory("adder"),
                build_voltage_adder(faulted=True).theory("adder")]
    subjects += [random_deterministic_theory(rng, f"self{i}") for i in range(10)]
    for theory in subjects:
        graded, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
        verdicts = []
        for si, state in enumerate(theory.domain):
            for pi, pred in enumerate(theory.predictions):
                spec = DiagramSpec(theory, pred.abstract, pred.physical)
                verdicts.append(
                    check_commutation(spec, state, derive_seed(SEED, si, pi)).passed
                )
        assert evidence.all_passed == all(verdicts)
        assert [cell.report.passed for cell in evidence.cells] == verdicts
        assert graded.is_valid == all(verdicts)


def test_epsilon_monotonicity_on_random_deterministic_theories():
    rng = random.Random(11)
    grid = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
    for i in range(25):
        theory = random_deterministic_theory(rng, f"mono{i}")
        verdicts = []
        for eps in grid:
            _, evidence = validate_theory(theory, eps, "hamming", 1, 1.0, SEED)
            verdicts.append(evidence.all_passed)
        for lo, hi in zip(verdicts, verdicts[1:]):
            assert not (lo and not hi)


@pytest.mark.parametrize(
    "field, value",
    [
        ("epsilon", "0.5"),
        ("epsilon", math.nan),
        ("epsilon", True),
        ("required_success", math.nan),
        ("required_success", "1"),
        ("trials", 2.5),
    ],
    ids=["str-epsilon", "nan-epsilon", "bool-epsilon", "nan-success", "str-success", "float-trials"],
)
def test_diagram_spec_numbers_are_checked(field, value):
    _, theory, pred = adder_pieces()
    with pytest.raises(DeclarationError):
        DiagramSpec(theory, pred.abstract, pred.physical, **{field: value})


def test_history_square_prepares_both_ends_in_one_seed_scan(monkeypatch):
    """Gate and cost law: the square at (a, b) reads one seed more than the index its sum's bits spell.

    On the 3-bit adder's seed grid the start (a, b, 0000) sits at seed
    128a + 16b, and its sum (a, b, a + b) at 128a + 16b + a + b, no earlier:
    one scan reads every seed up to the sum once. The device then steps
    the start once, and the physical metric reads nothing.
    """
    theory = adder_theory(3, seed_grid=True)
    pred = theory.predictions[0]
    spec = DiagramSpec(theory, pred.abstract, pred.physical)
    counts = count_device_work(monkeypatch)
    for a, b in itertools.product(range(8), repeat=2):
        counts.update(rule=0, read=0)
        m = machine_state(theory, (format(a, "03b"), format(b, "03b"), "0000"))
        assert check_history(spec, m, MAX_COORDINATE, SEED).passed
        index = 128 * a + 16 * b + a + b  # 2,033 steps at (7, 7) when each end scanned from the first seed
        assert counts == {"rule": index + 2, "read": index + 1}


def test_noisy_squares_draw_their_trials_without_a_seed_object_each(monkeypatch):
    """Gate: the noisy adder's 7,400 trials derive their seeds inside the noise kernel."""
    bundle = BUILTIN_SCENARIOS["voltage-adder-noisy"]()
    made = []
    post_init = TrialSeed.__post_init__
    monkeypatch.setattr(TrialSeed, "__post_init__", lambda seed: made.append(post_init(seed)))
    assert run_checks(bundle).exit_code == 0
    assert len(made) <= 100  # 7,418 with one TrialSeed per trial


@pytest.mark.parametrize(
    "build",
    [lambda: adder_pieces()[1], lambda: adder_theory(3)],
    ids=["voltage-adder", "3-bit-adder"],
)
def test_validation_cost_per_cell_does_not_grow_with_the_domain(monkeypatch, build):
    """Membership is checked at the boundary: no cell re-normalizes, and none scans the domain."""
    theory = build()
    counts = {"normalize_value": 0, "__eq__": 0}
    normalize, eq = abrep.spaces.normalize_value, PhysicalState.__eq__

    def counted_normalize(*args):
        counts["normalize_value"] += 1
        return normalize(*args)

    def counted_eq(self, other):
        counts["__eq__"] += 1
        return eq(self, other)

    monkeypatch.setattr(abrep.spaces, "normalize_value", counted_normalize)
    monkeypatch.setattr(PhysicalState, "__eq__", counted_eq)
    _, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    assert evidence.all_passed and evidence.coverage == len(theory.domain)
    assert counts["normalize_value"] == 0
    assert counts["__eq__"] <= evidence.coverage


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_noise_free_validation_cost_law(monkeypatch, width):
    """Gate and cost law: a sliceable column reads, runs a lane program and steps only the cells that differ.

    The adder's device is a threshold device whose sum reads its lines where
    the relation cuts them, and its program a builtin with a lane form, so
    its column is graded on lanes from the domain's levels, and a sound adder
    disagrees nowhere: no cell steps the device, reads or runs the program.
    """
    theory = adder_theory(width)
    counts = count_compiled(
        monkeypatch, rule=PhysicalDynamics, read=RepresentationRelation, program=AbstractDynamics
    )
    _, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    assert evidence.all_passed and evidence.coverage == 4**width
    assert counts == {"rule": 0, "read": 0, "program": 0}  # row-wise: rule and program cells, read 2 * cells


def test_a_faulted_adder_steps_its_device_once_per_failing_cell(monkeypatch):
    """Gate: the stuck sum line fails the 8 odd sums of 16, and only those cells run the device rule.

    Each failing cell's lower reading and distance come from the device's own
    step and read, as the public square computes them; its upper comes off
    the program's lanes, and no cell runs the compiled program.
    """
    _, theory, _ = adder_pieces(faulted=True)
    counts = count_compiled(
        monkeypatch, rule=PhysicalDynamics, read=RepresentationRelation, program=AbstractDynamics
    )
    _, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    failing = [cell for cell in evidence.cells if not cell.report.passed]
    assert len(failing) == 8 and evidence.coverage == 16
    assert counts == {"rule": 8, "read": 8, "program": 0}
    for cell in failing:
        assert cell.report.distances == (1.0,)
        assert cell.report.lower_path_results == (represent(theory.representation, evolve_physical(
            theory.predictions[0].physical, cell.state, SEED)),)


def _both_columns(device, relation, starts, uppers, epsilon=0.0):
    """The reports of ``_grade``'s column, those of its squares graded one at a time, and the first's steps.

    ``uppers`` is a list of upper values or a program. A column of one square
    is graded row by row, so the second list holds the row-wise reports.
    """
    steps, apply = [], device._apply
    vars(device)["_apply"] = lambda value: steps.append(value) or apply(value)  # its cached function, counted
    grade = partial(abrep.verification._grade, (float(epsilon), 1, 1.0), device)
    column = grade(starts, uppers, DISCRETE, (), relation)
    vars(device)["_apply"] = apply
    each = [uppers] * len(starts) if isinstance(uppers, AbstractDynamics) else [[upper] for upper in uppers]
    rows = [_reports([start], grade([start], upper, DISCRETE, (), relation)) for start, upper in zip(starts, each)]
    return list(_reports(starts, column)), [next(row) for row in rows], len(steps)


@pytest.mark.parametrize(
    "build, failing",
    [*((partial(adder_theory, w), 0) for w in range(1, 7)), (lambda: adder_pieces(faulted=True)[1], 8)],
    ids=[*(f"{w}-bit" for w in range(1, 7)), "faulted"],
)
def test_an_adder_column_on_lanes_is_its_row_wise_column(build, failing):
    """Differential: each cell of the lane-graded column is the row-wise cell; only failing cells step."""
    theory = build()
    relation, (pred,) = theory.representation, theory.predictions
    starts = [state.value for state in theory.domain]
    lanes, rows, steps = _both_columns(pred.physical, relation, starts, pred.abstract)
    assert lanes == rows and steps == sum(not row.passed for row in rows) == failing


@pytest.mark.parametrize(
    "build", [partial(adder_theory, 5), lambda: adder_pieces(faulted=True)[1]], ids=["5-bit", "faulted"]
)
def test_an_agreeing_square_keeps_no_outcome_however_its_column_was_filled(build):
    """Each lane-graded cell's report is its square checked alone, and keeps None exactly where it agrees.

    A noise-free square whose lower equals its upper keeps None for its
    graded outcome, in the lane fill and the row-wise fill alike; a failing
    square keeps its outcome. Catches a lane fill that keeps None for a
    flagged cell, or one that keeps ``{0: (upper, 0.0)}`` where the row-wise fill keeps None.
    """
    theory = build()
    (pred,) = theory.predictions
    spec = DiagramSpec(theory, pred.abstract, pred.physical)
    _, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    for si, cell in enumerate(evidence.cells):
        alone = check_commutation(spec, cell.state, derive_seed(SEED, si, 0))
        assert alone == cell.report
        for report in (alone, cell.report):
            assert (report._trials[4] is None) is report.passed is (report.distances == (0.0,))
    failing = sum(not cell.report.passed for cell in evidence.cells)
    assert failing == (0 if len(evidence.cells) == 1024 else 8)


#: The register shapes a kind of program fits, where not every shape.
_SHAPES = {"xor": ["pair"], "swap-pair": ["pair"], "ripple-add": ["adder"], "product": ["pair", "adder", "split"]}
_KINDS = [*BUILTIN_NAMES, "table", "product"]


@st.composite
def _register_programs(draw, space, depth=2, kind=None):
    """A program of ``kind`` on the register space ``space``: a builtin, a table or a product.

    Unless given, the kind is drawn from those that fit. Only ``ripple-add``
    has a lane form.
    """
    if kind is None:
        kinds = [*BUILTIN_NAMES, "table"] + ["product"] * (depth > 0)
        kind = draw(st.sampled_from([k for k in kinds if _fits(k, space)]))
    if kind in BUILTIN_NAMES:
        return AbstractDynamics("lanes.builtin", space, BuiltinRule(kind))
    if kind == "table":
        values, rng = list(enumerate_values(space)), random.Random(draw(st.integers(0, 2**32)))
        return AbstractDynamics("lanes.table", space, TableRule({v: rng.choice(values) for v in values}))
    parts = tuple(draw(_register_programs(part, depth - 1)) for part in space.components)
    return AbstractDynamics("lanes.product", space, ProductRule(parts))


def _fits(kind: str, space) -> bool:
    if kind == "product":
        return isinstance(space, TupleSpace)
    if kind not in BUILTIN_NAMES:
        return True
    try:
        AbstractDynamics("lanes.fit", space, BuiltinRule(kind))
    except DeclarationError:
        return False
    return True


@st.composite
def _register_spaces(draw, shapes=("one", "pair", "adder", "split")):
    """Registers of at most 7 bits in all: one register, one register twice, an adder's, or any split."""
    shape = draw(st.sampled_from(shapes))
    if shape == "pair":
        register = BitSpace("lanes.r", draw(st.integers(1, 3)))
        return TupleSpace("lanes.pair", (register, register))
    if shape == "adder":
        w = draw(st.integers(1, 2))
        x, total = BitSpace("lanes.x", w), BitSpace("lanes.sum", w + 1)
        return TupleSpace("lanes.adder", (x, x, total))
    n = draw(st.integers(1, 7))
    if shape == "one":
        return BitSpace("lanes.r", n)
    splits = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    ends = [end for end, split in enumerate(splits, 1) if split]
    widths = [end - start for start, end in zip([0, *ends], [*ends, n])]
    return TupleSpace("lanes.word", tuple(BitSpace(f"lanes.r{i}", w) for i, w in enumerate(widths)))


@st.composite
def _programs(draw):
    """A program of a kind drawn first, each builtin's, a table's or a product's, on registers it fits."""
    kind = draw(st.sampled_from(_KINDS))
    space = draw(_register_spaces(_SHAPES.get(kind, ("one", "pair", "adder", "split"))))
    return draw(_register_programs(space, kind=kind))


@st.composite
def _programs_and_values(draw):
    program = draw(_programs())
    values = draw(st.lists(st.sampled_from(list(enumerate_values(program.space))), min_size=1, max_size=20))
    return program, values


def _every_adder(test):
    """``test`` with one example per adder width 1 to 4: ``ripple-add`` and every value of its space."""
    for w in range(1, 5):
        x = BitSpace("lanes.x", w)
        space = TupleSpace("lanes.adder", (x, x, BitSpace("lanes.sum", w + 1)))
        adder = AbstractDynamics("lanes.builtin", space, BuiltinRule("ripple-add"))
        test = example((adder, list(enumerate_values(space))))(test)
    return test


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_programs_and_values())
@_every_adder
def test_a_program_on_lanes_is_its_compiled_rule_cell_by_cell(subject):
    """Differential: ``ripple-add`` runs on lanes as its compiled rule does on each value; nothing else has lanes.

    Values go into lanes and back unchanged on every drawn space, and
    ``ripple-add`` leaves the lanes it is given as they were. Every other
    program is graded once per cell, on values unpacked from the lanes.
    """
    program, values = subject
    width, ones = sum(_register_widths(program.space)), int.from_bytes(b"\1" * len(values), "little")
    lanes = _lanes_of("".join(map("".join, values)).encode(), width, ones)
    assert _unpacked(lanes, len(values), program.space) == values
    laned = program._lanes
    assert (laned is None) == (program.rule != BuiltinRule("ripple-add"))
    if laned is not None:
        given_lanes = list(lanes)
        images = _unpacked(laned(lanes, ones), len(values), program.space)
        assert images == list(map(program._apply, values)) and lanes == given_lanes


@pytest.mark.parametrize("width", [1, 2, 3])
def test_a_program_with_no_lane_form_runs_once_per_cell(monkeypatch, width):
    """Cost law: off lanes, the sound adder's program runs once per cell, and its device never steps or reads.

    The program is ``ripple-add``'s images as a table, which has no lane
    form, so ``_grade`` unpacks the readings from the lanes and runs it on
    each. The evidence is the builtin program's.
    """
    theory = adder_theory(width)
    (pred,) = theory.predictions
    add = pred.abstract
    program = replace(add, rule=TableRule({v: add._apply(v) for v in enumerate_values(add.space)}))
    _, builtin = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    counts = count_compiled(
        monkeypatch, rule=PhysicalDynamics, read=RepresentationRelation, program=AbstractDynamics
    )
    theory = replace(theory, predictions=(replace(pred, abstract=program),))
    _, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    assert program._lanes is None
    assert counts == {"rule": 0, "read": 0, "program": 4**width}
    assert evidence.all_passed and evidence.coverage == builtin.coverage == 4**width
    assert evidence.cells == builtin.cells


@st.composite
def _threshold_columns(draw):
    """A noise-free threshold device, a threshold reading of its lines, a program and a column of starts.

    Lines repeat and run out of order, sums write over the lines they read,
    registers differ in width, levels fall on either side of each cut, and
    constants stack. Unless the example is ``matched``, a sum may read a
    line at another cut than the reading's. The uppers are the program, or
    the device's own images with some replaced by other words.
    """
    program = draw(_programs())
    codomain = program.space
    n = sum(_register_widths(codomain))
    line, level = st.integers(0, n - 1), st.sampled_from((0.0, 1.0, 2.5, 4.0, 5.0))
    cut = st.sampled_from((1.0, 2.5, 4.5))
    lines = st.lists(line, max_size=4).map(tuple)
    cuts, matched, shared = draw(st.lists(cut, min_size=n, max_size=n)), draw(st.booleans()), draw(cut)
    updates = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            pins = draw(st.lists(st.tuples(line, level), max_size=3))
            updates.append(ConstantUpdate(tuple(p[0] for p in pins), tuple(p[1] for p in pins)))
            continue
        a, b, out = draw(lines), draw(lines), draw(lines)
        updates.append(BinarySumUpdate(a, b, out, shared if matched else draw(cut), draw(level), draw(level)))
        for i in (a + b) * matched:
            cuts[i] = shared
    space = RealVectorSpace("slice.lines", ((0.0, 5.0),) * n)
    relation = RepresentationRelation("slice.read", space, codomain, ThresholdRule(tuple(cuts)))
    device = PhysicalDynamics("slice.device", space, CoordinateUpdateRule(tuple(updates)))
    starts = draw(st.lists(st.tuples(*[level] * n), min_size=1, max_size=12))
    uppers = program
    if draw(st.booleans()):  # the device's own images, which lanes must find agree
        uppers = [relation._apply(device._apply(start)) for start in starts]
        others = st.tuples(st.integers(0, len(starts) - 1), st.tuples(*[level] * n))
        for i, other in draw(st.lists(others, max_size=4)):
            uppers[i] = relation._apply(other)  # some other word, or by chance the same
    sums = [u for u in updates if isinstance(u, BinarySumUpdate)]
    sliceable = all(cuts[i] == u.threshold for u in sums for i in u.a_lines + u.b_lines) and len(starts) > 1
    return device, relation, starts, uppers, sliceable


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_threshold_columns(), st.sampled_from((0.0, 0.5, 1.0, 2.0)))
def test_a_threshold_column_on_lanes_is_its_row_wise_column(column, epsilon):
    """Differential: random threshold devices and programs grade each cell on lanes as row by row.

    A sum read at another cut than the reading's, or a column of one square,
    is graded row by row and steps every cell; a sliced column steps only
    the cells it fails.
    """
    device, relation, starts, uppers, sliceable = column
    lanes, rows, steps = _both_columns(device, relation, starts, uppers, epsilon)
    assert lanes == rows
    disagreeing = sum(row.distances[0] > 0 for row in rows)
    assert steps == (disagreeing if sliceable else len(starts))


def test_validation_compiles_the_metric_once_per_prediction_column(monkeypatch):
    """Gate: the 5-bit adder's 2 x 1,024 cells compile max-coordinate once per column.

    Each compile also compiles the leaf metric of the machine's 3 registers.
    """
    theory = adder_theory(5)
    pred = theory.predictions[0]
    theory = Theory(theory.id, theory.representation, theory.domain, (pred, replace(pred, name="again")))
    counts = count_calls(monkeypatch, metric=abrep.spaces._metric)
    _, evidence = validate_theory(theory, 0.0, MAX_COORDINATE, 1, 1.0, SEED)
    assert evidence.all_passed and evidence.coverage == 2 * 4**5
    assert counts == {"metric": 2 * (1 + 3)}


def test_each_trial_outcome_is_the_device_run_at_its_seed():
    """Applying the rule once per square leaves every trial's outcome as it was."""
    _, theory, pred = adder_pieces(flip=0.2)
    spec = DiagramSpec(theory, pred.abstract, pred.physical, trials=40, required_success=0.1)
    m = machine_state(theory, ("01", "11", "000"))
    start = instantiate(theory, m)
    runs = [evolve_physical(pred.physical, start, derive_seed(SEED, k)) for k in range(40)]
    assert len(set(runs)) > 1
    report = check_commutation(spec, start, SEED)
    assert report.lower_path_results == tuple(represent(theory.representation, p) for p in runs)
    history = check_history(spec, m, MAX_COORDINATE, SEED)
    assert history.lower_path_results == tuple(runs)


def test_noise_free_square_applies_the_rule_once(monkeypatch):
    _, theory, pred = adder_pieces()
    spec = DiagramSpec(theory, pred.abstract, pred.physical, trials=50)
    counts = count_device_work(monkeypatch)
    monkeypatch.setattr(abrep.dynamics, "derive_seed", None)  # a call would fail
    report = check_commutation(spec, theory.domain[0], SEED)
    assert report.passed and len(report.distances) == 50
    assert counts == {"rule": 1, "read": 2}  # one read per path


def test_noisy_adder_reads_each_distinct_outcome_once(monkeypatch):
    """Gate: the noisy adder's 8 flip patterns per cell bound its device work, not its trials."""
    counts = count_device_work(monkeypatch)
    report = run_checks(BUILTIN_SCENARIOS["voltage-adder-noisy"]())
    assert report.exit_code == 0
    assert counts["rule"] <= 66  # 7,449 when every trial applied the rule
    assert counts["read"] <= 192  # 7,466 when every trial was read


def _validation_subjects():
    """Every built-in theory, a random noise-free one, the 3-bit adder, and two predictions."""
    for name, build in sorted(BUILTIN_SCENARIOS.items()):
        for theory in build().theories:
            yield pytest.param(theory, id=f"{name}:{theory.id}")
    yield pytest.param(random_deterministic_theory(random.Random(5), "rand"), id="random")
    yield pytest.param(adder_theory(3), id="3-bit-adder")
    noisy = build_voltage_adder(0.2).theory("adder")
    keep = AbstractDynamics("keep", noisy.representation.codomain, BuiltinRule("identity"))
    hold = Prediction("hold", keep, identity_dynamics("still", noisy.representation.domain))
    yield pytest.param(replace(noisy, predictions=(hold, *noisy.predictions)), id="two-predictions")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("theory", list(_validation_subjects()))
def test_validation_cells_are_the_public_squares(theory, seed):
    """Differential: validation on values gives each cell the report of the public square."""
    base = TrialSeed(seed)
    noisy = any(pred.physical.noise is not None for pred in theory.predictions)
    trials, required = (40, 0.5) if noisy else (1, 1.0)
    _, evidence = validate_theory(theory, 0.0, DISCRETE, trials, required, base)
    squares = []
    for si, state in enumerate(theory.domain):
        for pi, pred in enumerate(theory.predictions):
            spec = DiagramSpec(theory, pred.abstract, pred.physical, 0.0, DISCRETE, trials)
            spec = replace(spec, required_success=required)
            report = check_commutation(spec, state, derive_seed(base, si, pi))
            squares.append((state, pred.name, report))
    assert [(cell.state, cell.prediction, cell.report) for cell in evidence.cells] == squares


def test_noise_free_validation_derives_no_seed(monkeypatch):
    """Gate: a noise-free device reads no seed, so validating its theory derives none."""
    for module in (abrep.dynamics, abrep.verification):
        monkeypatch.setattr(module, "derive_seed", None)  # a call would fail
    _, evidence = validate_theory(adder_theory(3), 0.0, DISCRETE, 1, 1.0, SEED)
    assert evidence.all_passed and evidence.coverage == 64


def test_two_validations_compile_each_evaluator_once(monkeypatch):
    """Gate: each evaluator is compiled on first use only, the program's lane form included.

    The sound adder's column is read off its levels and run on lanes, and no
    cell disagrees, so its device rule and compiled program are never built,
    and its reading, fetched by the grader, is never called; the faulted
    adder's failing cells also compile its device rule, once.
    """
    compiled = record_calls(monkeypatch, abrep.dynamics._compiled)
    laned = record_calls(monkeypatch, abrep.dynamics._laned)
    for theory, valid in ((adder_theory(3), True), (adder_pieces(faulted=True)[1], False)):  # none compiled yet
        compiled.clear()
        laned.clear()
        for seed in (TrialSeed(1), TrialSeed(2)):
            assert validate_theory(theory, 0.0, DISCRETE, 1, 1.0, seed)[1].all_passed == valid
        (pred,) = theory.predictions
        device = [] if valid else [pred.physical.rule]
        assert [call[0] for call in compiled] == [theory.representation.rule, *device]
        assert [call[0] for call in laned] == [pred.abstract.rule]


_BIT = BitSpace("gate.bit", 1)
_PAIR = TupleSpace("gate.pair", (_BIT, _BIT))
_ADDER = TupleSpace("gate.adder", (_BIT, _BIT, BitSpace("gate.sum", 2)))
_CELLS = PhysicalLabelSpace("gate.cells", ("off", "on"))
_CELL_PAIR = PhysicalTupleSpace("gate.cell-pair", (_CELLS, _CELLS))
_LINES = RealVectorSpace("gate.lines", ((0.0, 5.0),) * 2)
_FLIP, _READ = {"0": "1", "1": "0"}, {"off": "0", "on": "1"}


def _program(rule, space=_BIT) -> AbstractDynamics:
    return AbstractDynamics("gate.program", space, rule)


def _reading(rule, domain=_CELLS, codomain=_BIT) -> RepresentationRelation:
    return RepresentationRelation("gate.read", domain, codomain, rule)


#: For each owner and rule kind, a new declaration, none compiled yet, and a state to apply it to.
_OWNERS = {
    "program-table": lambda: (_program(TableRule(_FLIP)), AbstractState(_BIT, "0")),
    "program-builtin": lambda: (_program(BuiltinRule("xor"), _PAIR), AbstractState(_PAIR, ("1", "1"))),
    "program-identity": lambda: (_program(BuiltinRule("identity")), AbstractState(_BIT, "1")),
    "program-swap-pair": lambda: (_program(BuiltinRule("swap-pair"), _PAIR), AbstractState(_PAIR, ("0", "1"))),
    "program-ripple-add": lambda: (
        _program(BuiltinRule("ripple-add"), _ADDER),
        AbstractState(_ADDER, ("1", "1", "00")),
    ),
    "program-product": lambda: (
        _program(ProductRule((_program(TableRule(_FLIP)), _program(BuiltinRule("identity")))), _PAIR),
        AbstractState(_PAIR, ("0", "1")),
    ),
    "device-table": lambda: (
        PhysicalDynamics("gate.device", _CELLS, TableRule({"off": "on", "on": "off"})),
        PhysicalState(_CELLS, "off"),
    ),
    "device-coordinate-update": lambda: (
        PhysicalDynamics("gate.device", _LINES, CoordinateUpdateRule((ConstantUpdate((1,), (5.0,)),))),
        PhysicalState(_LINES, (0.0, 0.0)),
    ),
    "device-noisy": lambda: (
        PhysicalDynamics(
            "gate.device",
            _LINES,
            CoordinateUpdateRule((ConstantUpdate((1,), (5.0,)),)),
            CoordinateFlipNoise(0.5, (0, 1), 2.5, 0.0, 5.0),
        ),
        PhysicalState(_LINES, (0.0, 0.0)),
    ),
    "relation-table": lambda: (_reading(TableRule(_READ)), PhysicalState(_CELLS, "on")),
    "relation-threshold": lambda: (
        _reading(ThresholdRule((2.5, 2.5)), _LINES, BitSpace("gate.word", 2)),
        PhysicalState(_LINES, (0.0, 5.0)),
    ),
    "relation-product": lambda: (
        _reading(ProductRule((_reading(TableRule(_READ)), _reading(TableRule(_READ)))), _CELL_PAIR, _PAIR),
        PhysicalState(_CELL_PAIR, ("on", "off")),
    ),
}


def _run(decl, state):
    """``decl`` applied to ``state`` through its public function."""
    if isinstance(decl, AbstractDynamics):
        return evolve_abstract(decl, state)
    if isinstance(decl, PhysicalDynamics):
        return evolve_physical(decl, state, SEED)
    return represent(decl, state)


@pytest.mark.parametrize("owner", _OWNERS)
def test_each_rule_compiles_once_per_declaration(monkeypatch, owner):
    """Gate: each pair of owner and rule kind compiles on first use only, and each part once.

    A copy or a pickle drops the compiled function, so it compiles again,
    once: a copy shares its rule's parts, compiled already, and a pickle's
    parts are new and compile once each.
    """
    decl, state = _OWNERS[owner]()
    compiled = record_calls(monkeypatch, abrep.dynamics._compiled)
    rules = [decl.rule, *(part.rule for part in getattr(decl.rule, "parts", ()))]
    image = _run(decl, state)
    assert [_run(decl, state) for _ in range(3)] == [image] * 3
    assert [call[0] for call in compiled] == rules
    for again, expected in ((copy.copy(decl), rules[:1]), (pickle.loads(pickle.dumps(decl)), rules)):
        compiled.clear()
        assert [_run(again, state) for _ in range(3)] == [image] * 3
        assert [call[0] for call in compiled] == expected


def _seeded_calls() -> dict:
    """Each API function that takes a seed, on the built-in voltage adder or stack, by name."""
    bundle, theory, pred = adder_pieces()
    spec = DiagramSpec(theory, pred.abstract, pred.physical)
    graded, _ = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    stack = BUILTIN_SCENARIOS["refinement-stack"]().stacks[0]
    m = machine_state(theory, ("01", "10", "000"))
    return {
        "run_checks": lambda seed: run_checks(bundle, seed),
        "validate_theory": lambda seed: validate_theory(theory, 0.0, DISCRETE, 1, 1.0, seed),
        "check_commutation": lambda seed: check_commutation(spec, theory.domain[0], seed),
        "check_history": lambda seed: check_history(spec, m, MAX_COORDINATE, seed),
        "check_stack_to_device": lambda seed: check_stack_to_device(stack, 0.0, DISCRETE, seed),
        "run_compute_cycle": lambda seed: run_compute_cycle(graded, m, "add", pred.physical, seed),
        "evolve_physical": lambda seed: evolve_physical(pred.physical, theory.domain[0], seed),
    }


@pytest.mark.parametrize("seed", [0, 7, None, "0"], ids=["zero", "int", "none", "str"])
@pytest.mark.parametrize(
    "call",
    [
        "run_checks", "validate_theory", "check_commutation", "check_history",
        "check_stack_to_device", "run_compute_cycle", "evolve_physical",
    ],
)
def test_seeds_are_type_checked_at_the_api(call, seed):
    """A seed that is not a TrialSeed is a DeclarationError naming the field, even noise-free."""
    with pytest.raises(DeclarationError) as err:
        _seeded_calls()[call](seed)
    assert str(err.value) == f"{call}: seed: expected a TrialSeed"
    assert (err.value.field, err.value.reason) == ("seed", "expected a TrialSeed")


#: The reason that refuses a name that is not a metric.
ONE_OF_METRICS = "one of 'discrete', 'hamming', 'absolute-difference', 'max-coordinate'"


def _mistyped_calls() -> dict:
    """API calls with an argument of the wrong type, by the owner, field and type they name.

    A metric is one of a closed set of names, and the reason names the set.
    """
    bundle, theory, pred = adder_pieces()
    spec = DiagramSpec(theory, pred.abstract, pred.physical)
    stack = BUILTIN_SCENARIOS["refinement-stack"]().stacks[0]
    m = machine_state(theory, ("01", "10", "000"))
    return {
        "validate_theory-theory": (
            "validate_theory", "theory", "Theory",
            lambda: validate_theory("adder", 0.0, DISCRETE, 1, 1.0, SEED),
        ),
        "validate_theory-metric": (
            "validate_theory", "metric", ONE_OF_METRICS,
            lambda: validate_theory(theory, 0.0, "euclid", 1, 1.0, SEED),
        ),
        "diagram-metric": (
            "diagram", "metric", ONE_OF_METRICS,
            lambda: DiagramSpec(theory, pred.abstract, pred.physical, metric="euclid"),
        ),
        "check_history-physical_metric": (
            "check_history", "physical_metric", ONE_OF_METRICS,
            lambda: check_history(spec, m, "euclid", SEED),
        ),
        "check_layer-relation": (
            "check_layer", "relation", "SimulationRelation",
            lambda: check_layer("stack.dec-to-bin", 0.0, DISCRETE),
        ),
        "check_layer-metric": (
            "check_layer", "metric", ONE_OF_METRICS,
            lambda: check_layer(stack.relations[0], 0.0, "euclid"),
        ),
        "check_stack_to_device-stack": (
            "check_stack_to_device", "stack", "RefinementStack",
            lambda: check_stack_to_device("stack.adder", 0.0, DISCRETE, SEED),
        ),
        "check_stack_to_device-metric": (
            "check_stack_to_device", "metric", ONE_OF_METRICS,
            lambda: check_stack_to_device(stack, 0.0, "euclid", SEED),
        ),
        "run_checks-bundle": ("run_checks", "bundle", "ScenarioBundle", lambda: run_checks("b")),
        "run_checks-checks": (
            "run_checks", "checks", "list", lambda: run_checks(bundle, checks="abc"),
        ),
        "run_checks-check": (
            "run_checks", "checks[0]", "CheckSpec", lambda: run_checks(bundle, checks=("abc",)),
        ),
        "run_checks-name_filter": (
            "run_checks", "name_filter", "string", lambda: run_checks(bundle, SEED, 5),
        ),
        "parse_scenario-text": ("parse_scenario", "text", "string", lambda: parse_scenario(5)),
        "emit_scenario-bundle": (
            "emit_scenario", "bundle", "ScenarioBundle", lambda: emit_scenario("b"),
        ),
        "report_to_json-report": (
            "report_to_json", "report", "RunReport", lambda: report_to_json("r"),
        ),
    }


@pytest.mark.parametrize(
    "case",
    [
        "validate_theory-theory", "validate_theory-metric", "diagram-metric",
        "check_history-physical_metric", "check_layer-relation", "check_layer-metric",
        "check_stack_to_device-stack", "check_stack_to_device-metric",
        "run_checks-bundle", "run_checks-checks", "run_checks-check", "run_checks-name_filter",
        "parse_scenario-text", "emit_scenario-bundle", "report_to_json-report",
    ],
)
def test_arguments_are_type_checked_at_the_api(case):
    """An argument of the wrong type is a DeclarationError naming the field."""
    owner, field, kind, call = _mistyped_calls()[case]
    reason = f"expected {kind}" if kind == ONE_OF_METRICS else f"expected a {kind}"
    with pytest.raises(DeclarationError) as err:
        call()
    assert str(err.value) == f"{owner}: {field}: {reason}"
    assert (err.value.field, err.value.reason) == (field, reason)


def test_a_diagram_rejects_dynamics_on_other_spaces():
    """A square's program and device are checked against the theory once, where it is built."""
    _, theory, pred = adder_pieces()
    swap = build_swap_device().theory("swap").predictions[0]
    for program, device in ((swap.abstract, pred.physical), (pred.abstract, swap.physical)):
        with pytest.raises(DeclarationError, match="dynamics do not act on the theory's spaces"):
            DiagramSpec(theory, program, device)
    message = "diagram: abstract_dynamics: expected an AbstractDynamics"
    with pytest.raises(DeclarationError, match=message):
        DiagramSpec(theory, pred.physical, pred.physical)


@pytest.mark.parametrize("flip", [0.0, 0.2], ids=["noise-free", "noisy"])
@pytest.mark.parametrize("metric", ["hamming", "absolute-difference"])
def test_a_metric_that_does_not_apply_fails_validation_as_the_square_does(metric, flip):
    _, theory, pred = adder_pieces(flip)
    spec = DiagramSpec(theory, pred.abstract, pred.physical, metric=METRICS[metric], trials=5)
    with pytest.raises(MetricMismatch) as square:
        check_commutation(spec, theory.domain[0], derive_seed(SEED, 0, 0))
    with pytest.raises(MetricMismatch) as validation:
        validate_theory(theory, 0.0, METRICS[metric], 5, 1.0, SEED)
    message = f"{metric} does not apply to space 'adder.machine'"
    assert str(validation.value) == str(square.value) == message


@st.composite
def _relabelled(draw):
    """A label device theory and two layer maps, one into and one out of its abstract space, built twice.

    The second build renames the space's values by a drawn bijection,
    declares them in a drawn order, and carries the renaming through every
    table that reads or writes them: the reading, the program, and both
    maps. Returns both builds and the renaming.
    """

    def table(keys, images):
        return {key: draw(st.sampled_from(images)) for key in keys}

    cells, values, tops, bottoms = (
        tuple(f"{kind}{i}" for i in range(draw(st.integers(1 + (kind != "t"), 4)))) for kind in "cvtb"
    )
    rename = dict(zip(values, draw(st.permutations([f"w{i}" for i in range(len(values))]))))
    order = tuple(draw(st.permutations(list(rename.values()))))
    read, program, device = table(cells, values), table(values, values), table(cells, cells)
    above, below = table(tops, values), table(values, bottoms)

    def layer(name, labels):
        space = LabelSpace(f"rl.{name}", labels)
        step = AbstractDynamics(f"rl.{name}-step", space, TableRule(table(labels, labels)))
        return RefinementLayer(f"rl.{name}", space, step)

    upper, lower = layer("top", tops), layer("bottom", bottoms)

    def build(labels, name):
        physical, space = PhysicalLabelSpace("rl.cells", cells), LabelSpace("rl.values", labels)
        reading = TableRule({c: name[v] for c, v in read.items()})
        step = AbstractDynamics("rl.program", space, TableRule({name[v]: name[w] for v, w in program.items()}))
        states = tuple(PhysicalState(physical, c) for c in cells)
        prediction = Prediction("step", step, PhysicalDynamics("rl.device", physical, TableRule(device)))
        hold = InstantiationProcedure(states, identity_dynamics("rl.hold", physical))
        relation = RepresentationRelation("rl.read", physical, space, reading)
        theory = Theory("rl", relation, states, (prediction,), hold)
        middle = RefinementLayer("rl.middle", space, step)
        maps = (
            SimulationRelation("rl.down", upper, middle, {t: name[v] for t, v in above.items()}),
            SimulationRelation("rl.further", middle, lower, {name[v]: b for v, b in below.items()}),
        )
        return theory, maps

    return build(values, dict(zip(values, values))), build(order, rename), rename


def _verdict(report) -> tuple:
    return report.passed, report.success_fraction, report.distances


def _history(spec, value, seed) -> tuple | None:
    """The verdict of the history square at abstract ``value``; None where no seed prepares it or its image."""
    state = AbstractState(spec.theory.representation.codomain, value)
    try:
        return _verdict(check_history(spec, state, DISCRETE, seed))
    except NotInstantiable:
        return None


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_relabelled(), st.sampled_from((0.0, 0.5, 1.0)), st.sampled_from(((1, 1.0), (8, 0.5), (8, 1.0))))
def test_a_relabelled_abstract_space_keeps_every_verdict_and_distance(built, epsilon, tolerances):
    """Metamorphic: renaming an abstract space's values, through every table that touches them, keeps every verdict.

    The renaming is a drawn bijection, and the renamed space declares its
    values in a drawn order. Under ``discrete``, the one metric of a label
    space, every distance is kept too, and every image is the renamed image:
    in each validation cell, each history square and each entry of a layer
    map into or out of the space. Catches ``_settled`` counting a lower value
    that sorts before its upper as agreeing (``<=`` for ``==``), and a
    ``discrete`` metric that measures how far apart two labels are declared.
    """
    (theory, maps), (renamed, renamed_maps), rename = built
    trials, required = tolerances

    def value(state):  # a renamed value, or a top or bottom label as it was
        return rename.get(state.value, state.value)

    for seed in map(TrialSeed, (0, 1)):
        (_, before), (_, after) = (
            validate_theory(t, epsilon, DISCRETE, trials, required, seed) for t in (theory, renamed)
        )
        assert after.all_passed == before.all_passed
        for cell, twin in zip(before.cells, after.cells, strict=True):
            assert _verdict(twin.report) == _verdict(cell.report)
            assert twin.report.upper_path_result.value == value(cell.report.upper_path_result)
            lowers = [s.value for s in twin.report.lower_path_results]
            assert lowers == list(map(value, cell.report.lower_path_results))
        specs = [
            DiagramSpec(t, pred.abstract, pred.physical, epsilon, DISCRETE, trials, required)
            for t in (theory, renamed)
            for pred in t.predictions
        ]
        for v, w in rename.items():
            assert _history(specs[0], v, seed) == _history(specs[1], w, seed)
    for relation, twin in zip(maps, renamed_maps):
        report, other = check_layer(relation, epsilon, DISCRETE), check_layer(twin, epsilon, DISCRETE)
        entries = [
            (value(e.state), value(e.mapped_after_upper), value(e.lower_after_mapped), e.distance, e.passed)
            for e in report.entries
        ]
        twins = [
            (e.state.value, e.mapped_after_upper.value, e.lower_after_mapped.value, e.distance, e.passed)
            for e in other.entries
        ]
        assert other.passed == report.passed and sorted(twins) == sorted(entries)
