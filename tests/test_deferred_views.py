"""Reports built on first read: every view against the reference, and what is built before it.

Squares, validation and layer checks grade on values and keep only what
rebuilds their per-trial, per-cell and per-entry views. These tests compare
each view and verdict with the state-by-state reference in ``reference.py``,
and count the objects and flips the fast paths make.
"""

import copy
import gc
import pickle
import random
import sys
from dataclasses import FrozenInstanceError, fields, replace
from operator import ge, gt, le, lt

import pytest

import abrep.dynamics
import reference
from abrep import (
    BUILTIN_SCENARIOS,
    DISCRETE,
    METRICS,
    AbstractDynamics,
    AbstractState,
    BitSpace,
    CommutationReport,
    CoordinateFlipNoise,
    CoordinateUpdateRule,
    DiagramSpec,
    LayerReport,
    MetricMismatch,
    PhysicalDynamics,
    PhysicalState,
    Prediction,
    RealVectorSpace,
    RepresentationRelation,
    StackReport,
    TableRule,
    Theory,
    ThresholdRule,
    TrialSeed,
    ValidityReport,
    check_commutation,
    check_history,
    check_layer,
    check_stack_to_device,
    derive_seed,
    enumerate_values,
    instantiate,
    run_checks,
    validate_theory,
)
from abrep.refinement import DeviceCheckEntry, LayerCheckEntry
from abrep.verification import ValidityCell
from support import adder_theory, count_builds, count_calls, random_deterministic_theory

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


def test_passing_checks_build_no_entry_or_cell_until_read(monkeypatch):
    """Gate: verdicts come from values; entries and cells are built only when read."""
    made = count_builds(monkeypatch, LayerCheckEntry, ValidityCell, DeviceCheckEntry)
    for name in ("refinement-stack", "voltage-adder"):
        assert run_checks(BUILTIN_SCENARIOS[name]()).exit_code == 0
    assert made() == {"LayerCheckEntry": 0, "ValidityCell": 0, "DeviceCheckEntry": 0}  # 240, 16, 112 if eager

    stack = BUILTIN_SCENARIOS["refinement-stack"]().stack("stack.adder")
    report = check_stack_to_device(stack, 0.0, DISCRETE, TrialSeed(0))
    assert report.passed and made() == {"LayerCheckEntry": 0, "ValidityCell": 0, "DeviceCheckEntry": 0}
    entries = sum(len(layer.entries) for layer in report.layer_reports)
    assert made()["LayerCheckEntry"] == entries > 0 and made()["DeviceCheckEntry"] == 0
    assert len(report.device_entries) == made()["DeviceCheckEntry"] == 112

    theory = BUILTIN_SCENARIOS["voltage-adder"]().theory("adder")
    _, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, TrialSeed(0))
    assert evidence.all_passed and evidence.coverage == 16 and made()["ValidityCell"] == 0
    assert len(evidence.cells) == made()["ValidityCell"] == 16


def test_count_builds_counts_records_built_around_init(monkeypatch):
    """The gate's counter sees a record however it is built, kept or dropped, not only through ``__new__``."""
    made = count_builds(monkeypatch, ValidityCell)
    kept = [tuple.__new__(ValidityCell)]  # one kept and one dropped, neither through __new__
    tuple.__new__(ValidityCell, ("s", "p", None))
    cell = ValidityCell(None, "p", None)
    kept += [copy.copy(cell), copy.deepcopy(cell), pickle.loads(pickle.dumps(cell)), replace(cell)]
    assert made() == {"ValidityCell": 7} and len(kept) == 5


def test_reading_cells_costs_two_objects_a_cell():
    """Cost law: each of a 5-bit adder validation's 1,024 cells leaves two collector-tracked objects.

    They are its ``ValidityCell`` and its ``CommutationReport``, each one
    tuple of its items; the report keeps its column and index, not a
    ``_trials`` tuple of its own or an unpacked upper value. It was 6 a cell
    when each record made a dict and a trials tuple.
    """
    _, evidence = validate_theory(adder_theory(5), 0.0, DISCRETE, 1, 1.0, TrialSeed(0))
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        cells = evidence.cells
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(cells) == 1024 and grown <= 2 * len(cells) + 2  # and the cells' tuple


def _python_calls(read) -> int:
    """The Python-level calls, of Python functions and of C functions, that ``read()`` makes."""
    calls = []
    sys.setprofile(lambda frame, event, arg: event in ("call", "c_call") and calls.append(event))
    try:
        read()
    finally:
        sys.setprofile(None)
    return len(calls)


def test_reading_cells_makes_as_many_python_calls_at_any_width():
    """Cost law: reading ``cells`` builds every record in C, so its Python calls do not grow with the cells.

    The 4-bit adder's validation has 256 cells and the 5-bit adder's 1,024;
    both reads make the same calls. Built by a Python ``__init__`` per
    record, the 5-bit read made 1,536 calls more.
    """
    evidence = [validate_theory(adder_theory(w), 0.0, DISCRETE, 1, 1.0, TrialSeed(0))[1] for w in (4, 5)]
    calls = [_python_calls(lambda: e.cells) for e in evidence]
    assert [len(e.cells) for e in evidence] == [256, 1024]
    assert calls[0] == calls[1] < 40


def test_failing_checks_build_only_their_failing_records(monkeypatch):
    """Gate: a failing layer or validation check builds one record per failing entry or cell, and no other.

    The run reads the verdicts off the graded column, as a stack check does,
    and lists each failure from its record; the reports' bytes are the
    golden ones. Built from every entry and cell, it made 112 and 16.
    """
    bundles = {name: BUILTIN_SCENARIOS[name]() for name in ("refinement-stack-miswired", "voltage-adder-faulted")}
    made = count_builds(monkeypatch, LayerCheckEntry, ValidityCell, DeviceCheckEntry)
    results = [r for bundle in bundles.values() for r in run_checks(bundle).results]
    entries = sum(len(r.detail["failing"]) for r in results if r.kind == "layer")
    cells = sum(len(r.detail["failing_cells"]) for r in results if r.kind == "validate-theory")
    assert made() == {"LayerCheckEntry": entries, "ValidityCell": cells, "DeviceCheckEntry": 0}
    assert (entries, cells) == (56, 8)


def _predicted_thrice(rng, tag):
    """A random noise-free theory with three predictions, each a random program and device on its spaces."""
    theory = random_deterministic_theory(rng, tag)
    words, cells = theory.representation.codomain, theory.representation.domain
    values, labels, predictions = list(enumerate_values(words)), cells.labels, list(theory.predictions)
    for k in (1, 2):
        program = AbstractDynamics(f"{tag}.p{k}", words, TableRule({w: rng.choice(values) for w in values}))
        device = PhysicalDynamics(f"{tag}.d{k}", cells, TableRule({c: rng.choice(labels) for c in labels}))
        predictions.append(Prediction(f"step{k}", program, device))
    return replace(theory, predictions=tuple(predictions))


@pytest.mark.parametrize("seed", range(8))
def test_the_failing_records_are_those_the_full_views_hold(seed):
    """Differential: the failing cells and entries a run lists are, in order, those ``cells`` and ``entries`` hold.

    Each theory has three predictions, so the failing cells of a state come
    from several columns and are listed by prediction.
    """
    rng = random.Random(seed)
    evidence = validate_theory(_predicted_thrice(rng, f"fail{seed}"), 0.0, DISCRETE, 1, 1.0, TrialSeed(seed))[1]
    failing = list(evidence._cells(failing=True))
    assert failing == [cell for cell in evidence.cells if not cell.report.passed]
    states = [cell.state for cell in failing]
    assert len(set(states)) < len(states)  # some state fails in two or three columns
    stack = BUILTIN_SCENARIOS["refinement-stack-miswired"]().stack("stack.adder")
    for relation in stack.relations:
        layer = check_layer(relation, 0.0, DISCRETE)
        assert list(layer._entries(failing=True)) == [e for e in layer.entries if not e.passed]


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

    The device's noise moves its line between two levels, 3 V and 5 V, that
    the relation reads alike, so every trial reads the same and only the drawn
    codes tell two seeds apart.
    """
    line = RealVectorSpace("eq.line", ((0.0, 5.0),))
    reading = BitSpace("eq.reading", 1)
    read = RepresentationRelation("eq.read", line, reading, ThresholdRule((2.5,)))
    program = AbstractDynamics("eq.program", reading, TableRule({"0": "0", "1": "1"}))
    noise = CoordinateFlipNoise(0.5, (0,), 4.0, 3.0, 5.0)
    device = PhysicalDynamics("eq.device", line, CoordinateUpdateRule(()), noise)
    start = PhysicalState(line, (5.0,))
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
    """A check's report carries only values until read, so copies and pickles build the same views.

    The sound and the faulted adder's evidence is graded on lanes, and keeps
    lanes, or the uppers and the failing squares, for its cells to be built from.
    """
    bundle = BUILTIN_SCENARIOS["voltage-adder-noisy"]()
    theory = bundle.theory("adder")
    _, evidence = validate_theory(theory, 0.0, DISCRETE, 20, 0.5, TrialSeed(4))
    relation = BUILTIN_SCENARIOS["refinement-stack"]().stack("stack.adder").relations[1]
    layer = check_layer(relation, 0.0, DISCRETE)
    lanes = [
        validate_theory(BUILTIN_SCENARIOS[name]().theory("adder"), 0.0, DISCRETE, 1, 1.0, TrialSeed(4))[1]
        for name in ("voltage-adder", "voltage-adder-faulted")
    ]
    for report in (evidence, layer, *lanes):
        copies = [copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))]
        views = [_read_views(c) for c in copies]
        assert views == [_read_views(report)] * 3 and copies == [report] * 3


def _graded_alone(case):
    """Each record of ``case``'s report, paired with the same square graded alone and built by its constructor.

    The 5-bit adder's validation column is graded on lanes and passes (every
    41st cell is taken), the faulted adder's on lanes with 8 failing cells,
    and the noisy adder's row by row at 20 trials, some failing; a stack's device column
    and its layers' columns are graded on values.
    """
    base = TrialSeed(4)
    if case in ("5-bit", "voltage-adder-faulted", "voltage-adder-noisy"):
        theory = adder_theory(5) if case == "5-bit" else BUILTIN_SCENARIOS[case]().theory("adder")
        trials, required = (20, 0.9) if case == "voltage-adder-noisy" else (1, 1.0)
        (pred,) = theory.predictions
        spec = DiagramSpec(theory, pred.abstract, pred.physical, 0.0, DISCRETE, trials, required)
        _, evidence = validate_theory(theory, 0.0, DISCRETE, trials, required, base)
        for si, cell in list(enumerate(evidence.cells))[:: 41 if case == "5-bit" else 1]:
            alone = check_commutation(spec, cell.state, derive_seed(base, si, 0))
            yield cell.report, alone
            yield cell, ValidityCell(cell.state, pred.name, alone)
        return
    stack = BUILTIN_SCENARIOS[case]().stack("stack.adder")
    report = check_stack_to_device(stack, 0.0, DISCRETE, base)
    spec = DiagramSpec(stack.theory, stack.layers[-1].dynamics, stack.device)
    for i, entry in enumerate(report.device_entries):
        alone = check_commutation(spec, instantiate(stack.theory, entry.state), derive_seed(base, i))
        yield entry.report, alone
        yield entry, DeviceCheckEntry(entry.state, alone)
    for relation, layer in zip(stack.relations, report.layer_reports):
        yield from zip(layer.entries, reference.check_layer(relation, 0.0, DISCRETE).entries, strict=True)


#: The per-square record classes: each a frozen dataclass kept in a tuple.
RECORDS = {CommutationReport, ValidityCell, LayerCheckEntry, DeviceCheckEntry}


def _views_of(record) -> list:
    report = getattr(record, "report", record)
    return [getattr(report, name) for name in VIEWS.get(type(report), ())]


@pytest.mark.parametrize(
    "case",
    ["5-bit", "voltage-adder-faulted", "voltage-adder-noisy", "refinement-stack", "refinement-stack-miswired"],
)
def test_every_record_keeps_the_record_contract(case):
    """Contract: a record a column serves is the record of its square graded alone, and a frozen dataclass.

    Before any view is read, and again after each is read in turn, it equals,
    hashes and prints as the square graded alone; ``copy``, ``deepcopy``,
    ``pickle`` and ``replace`` give an equal record of its class, whose views
    are the lone square's; ``replace`` with another field differs; and
    assigning any field raises ``FrozenInstanceError``. A record is kept in a
    tuple, yet it equals neither a plain tuple of its items, either way round,
    nor a record of another class with the same items, and it is not ordered
    against a record or a tuple.
    """
    classes, failing = set(), 0
    for record, alone in _graded_alone(case):
        report = getattr(record, "report", record)
        for read in (None, *VIEWS.get(type(report), ())):
            if read is not None:
                getattr(report, read)
            assert record == alone and hash(record) == hash(alone) and repr(record) == repr(alone)
            made = copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)), replace(record)
            for twin in made:
                assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)
                assert _views_of(twin) == _views_of(alone)
        first = fields(record)[0].name
        assert replace(record, **{first: None}) != record
        for name in (f.name for f in fields(record)):
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, getattr(record, name))
        items = tuple(record)
        assert record != items and items != record and not record == items and not items == record
        for other in RECORDS - {type(record)}:
            assert record != tuple.__new__(other, items) and tuple.__new__(other, items) != record
        for compare in (lt, le, gt, ge):
            for left, right in ((record, alone), (record, items), (items, record), (record, ())):
                with pytest.raises(TypeError, match="records are not ordered"):
                    compare(left, right)
        classes.add(type(record))
        failing += isinstance(record, CommutationReport) and not record.passed
    entries = {DeviceCheckEntry, LayerCheckEntry} if case.startswith("refinement") else {ValidityCell}
    assert classes == {CommutationReport, *entries}
    assert (failing > 0) == (case in ("voltage-adder-faulted", "voltage-adder-noisy"))
