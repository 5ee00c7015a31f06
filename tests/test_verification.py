import bisect
import itertools
import math
import random
from dataclasses import replace

import pytest

import abrep.dynamics
import abrep.spaces
import abrep.verification
from abrep import (
    BUILTIN_SCENARIOS,
    AbstractDynamics,
    AbstractState,
    BuiltinRule,
    ConstantUpdate,
    CoordinateUpdateRule,
    DISCRETE,
    DeclarationError,
    DiagramSpec,
    EmptyDomain,
    InstantiationProcedure,
    MAX_COORDINATE,
    METRICS,
    MetricMismatch,
    OutOfDomain,
    PhysicalDynamics,
    PhysicalState,
    Prediction,
    RepresentationRelation,
    Theory,
    TheoryNotValidated,
    TrialSeed,
    build_swap_device,
    build_voltage_adder,
    check_commutation,
    check_history,
    check_layer,
    check_stack_to_device,
    derive_seed,
    emit_scenario,
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
from support import adder_theory, count_compiled, count_device_work, random_deterministic_theory

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
    from abrep import HAMMING

    for i in range(25):
        theory = random_deterministic_theory(rng, f"mono{i}")
        verdicts = []
        for eps in grid:
            _, evidence = validate_theory(theory, eps, HAMMING, 1, 1.0, SEED)
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
    """Gate: the start and the target share one scan of the 3-bit adder's 1,024-seed grid."""
    theory = adder_theory(3)
    lines = theory.representation.domain
    grid = tuple(
        PhysicalState(lines, tuple(5.0 if c == "1" else 0.0 for c in format(i, "010b")))
        for i in range(1024)
    )
    seeded = replace(theory, instantiation=InstantiationProcedure(grid, identity_dynamics("hold", lines)))
    pred = seeded.predictions[0]
    counts = count_device_work(monkeypatch)
    report = check_history(
        DiagramSpec(seeded, pred.abstract, pred.physical),
        machine_state(seeded, ("111", "111", "0000")),
        MAX_COORDINATE,
        SEED,
    )
    assert report.passed
    assert counts["rule"] <= len(grid) + 1  # 2,033 when each end scanned from the first seed


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


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_noise_free_validation_cost_law(monkeypatch, width):
    """Gate: per cell, one device step, one program step, and two reads: its state and its image."""
    theory = adder_theory(width)
    counts = count_compiled(
        monkeypatch, rule=PhysicalDynamics, read=RepresentationRelation, program=AbstractDynamics
    )
    _, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
    cells = evidence.coverage
    assert evidence.all_passed and cells == 4**width
    assert counts == {"rule": cells, "read": 2 * cells, "program": cells}


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
    """Gate: the relation, the program and the device rule are each compiled on first use only."""
    builds = dict.fromkeys(("RepresentationRelation", "AbstractDynamics", "PhysicalDynamics"), 0)
    for cls in (RepresentationRelation, AbstractDynamics, PhysicalDynamics):
        compiled = vars(cls)["_apply"]

        def counting(decl, build=compiled.func, name=cls.__name__):
            builds[name] += 1
            return build(decl)

        monkeypatch.setattr(compiled, "func", counting)
    theory = adder_theory(3)  # new declarations, none compiled yet
    for seed in (TrialSeed(1), TrialSeed(2)):
        assert validate_theory(theory, 0.0, DISCRETE, 1, 1.0, seed)[1].all_passed
    assert builds == dict.fromkeys(builds, 1)


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


def _mistyped_calls() -> dict:
    """API calls with an argument of the wrong type, by the owner, field and type they name."""
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
            "validate_theory", "metric", "Metric",
            lambda: validate_theory(theory, 0.0, "discrete", 1, 1.0, SEED),
        ),
        "diagram-metric": (
            "diagram", "metric", "Metric",
            lambda: DiagramSpec(theory, pred.abstract, pred.physical, metric="hamming"),
        ),
        "check_history-physical_metric": (
            "check_history", "physical_metric", "Metric",
            lambda: check_history(spec, m, "max-coordinate", SEED),
        ),
        "check_layer-relation": (
            "check_layer", "relation", "SimulationRelation",
            lambda: check_layer("stack.dec-to-bin", 0.0, DISCRETE),
        ),
        "check_layer-metric": (
            "check_layer", "metric", "Metric",
            lambda: check_layer(stack.relations[0], 0.0, "discrete"),
        ),
        "check_stack_to_device-stack": (
            "check_stack_to_device", "stack", "RefinementStack",
            lambda: check_stack_to_device("stack.adder", 0.0, DISCRETE, SEED),
        ),
        "check_stack_to_device-metric": (
            "check_stack_to_device", "metric", "Metric",
            lambda: check_stack_to_device(stack, 0.0, "discrete", SEED),
        ),
        "run_checks-bundle": ("run_checks", "bundle", "ScenarioBundle", lambda: run_checks("b")),
        "run_checks-checks": (
            "run_checks", "checks", "list", lambda: run_checks(bundle, checks="abc"),
        ),
        "run_checks-check": (
            "run_checks", "checks[0]", "CheckSpec", lambda: run_checks(bundle, checks=("abc",)),
        ),
        "run_checks-name_filter": (
            "run_checks", "name_filter", "str", lambda: run_checks(bundle, SEED, 5),
        ),
        "parse_scenario-text": ("parse_scenario", "text", "str", lambda: parse_scenario(5)),
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
    with pytest.raises(DeclarationError) as err:
        call()
    assert str(err.value) == f"{owner}: {field}: expected a {kind}"
    assert (err.value.field, err.value.reason) == (field, f"expected a {kind}")


def test_a_diagram_rejects_dynamics_on_other_spaces():
    """A square's program and device are checked against the theory once, where it is built."""
    _, theory, pred = adder_pieces()
    swap = build_swap_device().theory("swap").predictions[0]
    for program, device in ((swap.abstract, pred.physical), (pred.abstract, swap.physical)):
        with pytest.raises(DeclarationError, match="dynamics do not act on the theory's spaces"):
            DiagramSpec(theory, program, device)
    message = "diagram: abstract_dynamics: expected a AbstractDynamics"
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
