"""Reports built on first read: every view against the reference, and what is built before it.

Squares, validation and layer checks grade on values and keep only what
rebuilds their per-trial, per-cell and per-entry views. These tests compare
each view and verdict with the state-by-state reference in ``reference.py``,
and count the objects and flips the fast paths make.
"""

import copy
import pickle
from dataclasses import replace

import pytest

import abrep.dynamics
import reference
from abrep import (
    BUILTIN_SCENARIOS,
    DISCRETE,
    METRICS,
    AbstractDynamics,
    AbstractState,
    CommutationReport,
    DiagramSpec,
    LabelFlipNoise,
    LabelSpace,
    LayerReport,
    LookupRule,
    MetricMismatch,
    PhysicalDynamics,
    PhysicalLabelSpace,
    PhysicalState,
    Prediction,
    RepresentationRelation,
    StackReport,
    TableRule,
    Theory,
    TrialSeed,
    ValidityReport,
    check_commutation,
    check_history,
    check_layer,
    check_stack_to_device,
    derive_seed,
    instantiate,
    run_checks,
    validate_theory,
)
from abrep.refinement import LayerCheckEntry
from abrep.verification import ValidityCell
from support import count_calls

#: The views each report builds on first read, and the reports it holds.
VIEWS = {
    CommutationReport: ("distances", "lower_path_results", "upper_path_result"),
    ValidityReport: ("cells",),
    LayerReport: ("entries",),
    StackReport: ("device_entries",),
}


def _spec(theory, check) -> DiagramSpec:
    pred = theory.prediction(check.prediction) if check.prediction else theory.predictions[0]
    return DiagramSpec(
        theory, pred.abstract, pred.physical, check.epsilon, METRICS[check.metric],
        check.trials, check.required_success,
    )


def _start(theory, check, prepare):
    relation = theory.representation
    if check.input is not None:
        return prepare(theory, AbstractState(relation.codomain, check.input))
    return PhysicalState(relation.domain, check.state)


def _reports(bundle, check, base):
    """The public report of ``check`` at seed ``base``, the reference's, and its run-report detail."""
    metric = METRICS[check.metric]
    if check.kind in ("commutation", "experiment"):
        theory = bundle.theory(check.theory)
        spec = _spec(theory, check)
        return (
            check_commutation(spec, _start(theory, check, instantiate), base),
            reference.check_commutation(spec, _start(theory, check, reference.instantiate), base),
            reference.commutation_detail,
        )
    if check.kind == "history":
        theory = bundle.theory(check.theory)
        spec, physical = _spec(theory, check), METRICS[check.physical_metric]
        state = AbstractState(theory.representation.codomain, check.input)
        return (
            check_history(spec, state, physical, base),
            reference.check_history(spec, state, physical, base),
            reference.commutation_detail,
        )
    tolerances = check.trials, check.required_success
    if check.kind == "validate-theory":
        args = (bundle.theory(check.theory), check.epsilon, metric, *tolerances, base)
        return validate_theory(*args)[1], reference.validate_theory(*args), reference.validation_detail
    if check.kind == "layer":
        relation = {r.id: r for r in bundle.stack(check.stack).relations}[check.relation]
        args = (relation, check.epsilon, metric)
        return check_layer(*args), reference.check_layer(*args), reference.layer_detail
    if check.kind == "stack":
        args = (bundle.stack(check.stack), check.epsilon, metric, base, *tolerances)
        return check_stack_to_device(*args), reference.check_stack_to_device(*args), reference.stack_detail
    return None  # compute and classify checks build no report on read


def _read_views(report) -> list:
    """Each view of ``report``, then those of the reports inside it, read in that order."""
    views = [getattr(report, name) for name in VIEWS[type(report)]]
    if isinstance(report, ValidityReport):
        views += [_read_views(cell.report) for cell in report.cells]
    elif isinstance(report, StackReport):
        inner = (*report.layer_reports, *(e.report for e in report.device_entries))
        views += [_read_views(r) for r in inner]
    return views


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_every_view_is_the_reference_view(name, seed):
    """Differential: each check's views, its report and its run-report detail are the reference's."""
    bundle = BUILTIN_SCENARIOS[name]()
    results = run_checks(bundle, TrialSeed(seed)).results
    compared = 0
    for index, (check, result) in enumerate(zip(bundle.checks, results)):
        made = _reports(bundle, check, derive_seed(TrialSeed(seed), index))
        if made is None:
            continue
        public, expected, detail = made
        reference.assert_same(public, expected)
        assert result.detail == detail(expected)
        compared += 1
    assert compared == sum(c.kind not in ("compute", "classify") for c in bundle.checks) > 0


def count_builds(monkeypatch, *classes) -> dict:
    """Count the objects of each of ``classes`` built from here on, by class name."""
    counts = dict.fromkeys((cls.__name__ for cls in classes), 0)
    for cls in classes:
        init = cls.__init__

        def counting(self, *args, init=init, name=cls.__name__, **kwargs):
            counts[name] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_passing_checks_build_no_entry_or_cell_until_read(monkeypatch):
    """Gate: verdicts come from values; entries and cells are built only when read."""
    made = count_builds(monkeypatch, LayerCheckEntry, ValidityCell)
    for name in ("refinement-stack", "voltage-adder"):
        assert run_checks(BUILTIN_SCENARIOS[name]()).exit_code == 0
    assert made == {"LayerCheckEntry": 0, "ValidityCell": 0}  # 240 and 16 when built eagerly

    stack = BUILTIN_SCENARIOS["refinement-stack"]().stack("stack.adder")
    report = check_stack_to_device(stack, 0.0, DISCRETE, TrialSeed(0))
    assert report.passed and made["LayerCheckEntry"] == 0
    entries = sum(len(layer.entries) for layer in report.layer_reports)
    assert made["LayerCheckEntry"] == entries > 0

    theory = BUILTIN_SCENARIOS["voltage-adder"]().theory("adder")
    _, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, TrialSeed(0))
    assert evidence.all_passed and evidence.coverage == 16 and made["ValidityCell"] == 0
    assert len(evidence.cells) == made["ValidityCell"] == 16


def test_a_report_equals_the_same_square_checked_alone():
    """Equality compares the verdicts and what the check kept, however the square was batched."""
    base = TrialSeed(4)
    theory = BUILTIN_SCENARIOS["voltage-adder-noisy"]().theory("adder")
    pred = theory.predictions[0]
    spec = DiagramSpec(theory, pred.abstract, pred.physical, 0.0, DISCRETE, 20, 0.5)
    _, evidence = validate_theory(theory, 0.0, DISCRETE, 20, 0.5, base)
    for si, cell in enumerate(evidence.cells):
        alone = check_commutation(spec, cell.state, derive_seed(base, si, 0))
        assert alone == cell.report and hash(alone) == hash(cell.report)
    assert alone != check_commutation(spec, cell.state, derive_seed(base, si, 1))

    stack = BUILTIN_SCENARIOS["refinement-stack"]().stack("stack.adder")
    report = check_stack_to_device(stack, 0.0, DISCRETE, base)
    spec = DiagramSpec(stack.theory, stack.layers[-1].dynamics, stack.device)
    for i, entry in enumerate(report.device_entries):
        prepared = instantiate(stack.theory, entry.state)
        assert check_commutation(spec, prepared, derive_seed(base, i)) == entry.report
    assert report.layer_reports == tuple(check_layer(r, 0.0, DISCRETE) for r in stack.relations)


def test_reports_whose_trials_drew_other_flag_codes_differ_though_their_views_agree():
    """Equality compares the flag codes each trial drew, not only what the views show.

    The device's noise swaps two labels that the relation reads alike, so every
    trial reads the same and only the drawn codes tell two seeds apart.
    """
    cells = PhysicalLabelSpace("eq.cells", ("a", "b"))
    reading = LabelSpace("eq.reading", ("x",))
    read = RepresentationRelation("eq.read", cells, reading, LookupRule({"a": "x", "b": "x"}))
    program = AbstractDynamics("eq.program", reading, TableRule({"x": "x"}))
    noise = LabelFlipNoise(0.5, {"a": "b", "b": "a"})
    device = PhysicalDynamics("eq.device", cells, TableRule({"a": "a", "b": "b"}), noise)
    start = PhysicalState(cells, "a")
    theory = Theory("eq", read, (start,), (Prediction("p", program, device),))
    spec = DiagramSpec(theory, program, device, trials=8)
    first, *others = [check_commutation(spec, start, TrialSeed(s)) for s in range(4)]
    for other in others:
        for name in ("passed", "success_fraction", *VIEWS[CommutationReport]):
            assert getattr(other, name) == getattr(first, name)
        assert (other == first) is (other._trials == first._trials)
    assert any(other != first for other in others)
    seeded = [validate_theory(theory, 0.0, DISCRETE, 8, 1.0, TrialSeed(s))[1] for s in range(4)]
    assert len({(e.all_passed, e.coverage, hash(e)) for e in seeded}) == 1
    assert any(e != seeded[0] for e in seeded[1:])


@pytest.mark.parametrize("listed", [1, 2, 3, 4])
@pytest.mark.parametrize("many", [False, True], ids=["fewer-trials-than-codes", "400-trials"])
def test_a_noisy_square_flips_each_distinct_flag_code_once(monkeypatch, listed, many):
    """Law: a square whose noise lists k lines flips at most min(trials, 2**k) codes, not one per trial.

    The noisy adder's device lists its 3 output lines. Here it lists the
    first k of (4, 5, 6, 0), output lines and then an input line, each
    flipped with probability 0.5, so 400 trials draw every one of the 2**k
    codes.
    """
    theory = BUILTIN_SCENARIOS["voltage-adder-noisy"]().theory("adder")
    pred = theory.predictions[0]
    noise = replace(pred.physical.noise, probability=0.5, coordinates=(4, 5, 6, 0)[:listed])
    device = replace(pred.physical, noise=noise)
    theory = replace(theory, predictions=(replace(pred, physical=device),))
    trials = 400 if many else 2**listed - 1
    spec = DiagramSpec(theory, pred.abstract, device, 0.0, DISCRETE, trials, 0.5)
    counts = count_calls(monkeypatch, flip=abrep.dynamics._flip)
    report = check_commutation(spec, theory.domain[5], TrialSeed(trials))
    assert 1 <= counts["flip"] <= min(trials, 2**listed)
    assert counts["flip"] == 2**listed or not many
    assert len(report.distances) == trials and counts["flip"] <= 2**listed  # reading views flips none


def test_a_metric_that_does_not_apply_fails_the_layer_check_not_its_view():
    """Errors come from grading, in the call: a layer check never defers its metric to ``entries``."""
    stack = BUILTIN_SCENARIOS["refinement-stack"]().stack("stack.adder")
    relation = stack.relations[0]
    with pytest.raises(MetricMismatch, match=f"does not apply to space {relation.lower.space.id!r}"):
        check_layer(relation, 0.0, METRICS["absolute-difference"])


def test_deferred_reports_copy_and_pickle_before_their_views_are_read():
    """A check's report carries only values until read, so copies and pickles build the same views."""
    bundle = BUILTIN_SCENARIOS["voltage-adder-noisy"]()
    theory = bundle.theory("adder")
    _, evidence = validate_theory(theory, 0.0, DISCRETE, 20, 0.5, TrialSeed(4))
    relation = BUILTIN_SCENARIOS["refinement-stack"]().stack("stack.adder").relations[1]
    layer = check_layer(relation, 0.0, DISCRETE)
    for report in (evidence, layer):
        copies = [copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))]
        views = [_read_views(c) for c in copies]
        assert views == [_read_views(report)] * 3 and copies == [report] * 3
