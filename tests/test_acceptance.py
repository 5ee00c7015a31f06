"""Acceptance suite: each test enforces one release criterion at its stated
tolerance and prints one pass/fail line."""

import itertools
import random
import time
from contextlib import contextmanager

from abrep import (
    AbstractDynamics,
    AbstractState,
    BUILTIN_SCENARIOS,
    Component,
    DISCRETE,
    DiagramSpec,
    TableRule,
    TrialSeed,
    brute_force_classify,
    build_refinement_stack,
    build_social_machine,
    build_swap_device,
    build_voltage_adder,
    build_xor_joint,
    check_commutation,
    check_stack_to_device,
    classify,
    compose_parallel,
    emit_scenario,
    enumerate_values,
    evolve_abstract,
    instantiate,
    parse_scenario,
    represent,
    run_compute_cycle,
    validate_theory,
)
from abrep.runner import report_to_json, run_checks
from support import random_deterministic_theory, random_joint_system

SEED = TrialSeed(0)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    print(f"[criterion {number}] {label}: PASS")


def machine_input(theory, value):
    return AbstractState(theory.representation.codomain, value)


def test_criterion_1_adder_reproduction():
    with criterion(1, "adder reproduction: 01+10 -> 11, 16/16 diagrams, < 1 s"):
        started = time.perf_counter()
        bundle = build_voltage_adder()
        theory = bundle.theory("adder")
        pred = theory.predictions[0]

        graded, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
        assert evidence.all_passed
        assert evidence.coverage == 16
        assert graded.is_valid

        result = run_compute_cycle(
            graded, machine_input(graded, ("01", "10", "000")), "add", pred.physical, SEED
        )
        out_register = result.output.value[2]
        assert out_register == "011"
        assert int(out_register, 2) == int("11", 2) == 3
        assert out_register.lstrip("0") == "11"

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_refinement_stack():
    with criterion(2, "refinement stack: end-to-end at eps=0, (1,2) -> 3, miswire localized"):
        stack = build_refinement_stack().stack("stack.adder")
        report = check_stack_to_device(stack, 0.0, DISCRETE, SEED)
        assert report.passed

        top = AbstractState(stack.layers[0].space, (1, 2, 0))
        predicted = evolve_abstract(stack.layers[0].dynamics, top)
        assert predicted.value[2] == 3

        mapped_in, mapped_out = top, predicted
        for rel in stack.relations:
            mapped_in = rel.map_state(mapped_in)
            mapped_out = rel.map_state(mapped_out)
        graded, _ = validate_theory(stack.theory, 0.0, DISCRETE, 1, 1.0, SEED)
        device_run = run_compute_cycle(graded, mapped_in, "asm-add", stack.device, SEED)
        assert device_run.output == mapped_out

        miswired = build_refinement_stack(mis_declared=True).stack("stack.adder")
        bad = check_stack_to_device(miswired, 0.0, DISCRETE, SEED)
        assert not bad.passed
        layer_verdicts = {r.relation_id: r.passed for r in bad.layer_reports}
        assert layer_verdicts == {"stack.dec-to-bin": False, "stack.bin-to-asm": True}
        assert all(e.report.passed for e in bad.device_entries)


def test_criterion_3_fault_sensitivity():
    with criterion(3, "stuck-at-zero fault: fails exactly the odd-sum inputs"):
        faulted = build_voltage_adder(faulted=True).theory("adder")
        sound = build_voltage_adder().theory("adder")

        def failing_inputs(theory):
            pred = theory.predictions[0]
            spec = DiagramSpec(theory, pred.abstract, pred.physical)
            failures = set()
            for state in theory.domain:
                reading = represent(theory.representation, state)
                if not check_commutation(spec, state, SEED).passed:
                    failures.add(reading.value[:2])
            return failures

        odd_pairs = {
            (format(a, "02b"), format(b, "02b"))
            for a in range(4)
            for b in range(4)
            if (a + b) % 2 == 1
        }
        assert failing_inputs(faulted) == odd_pairs
        assert len(odd_pairs) == 8
        assert failing_inputs(sound) == set()

        graded, evidence = validate_theory(faulted, 0.0, DISCRETE, 1, 1.0, SEED)
        assert graded.validity == "invalid"
        assert not evidence.all_passed


def test_criterion_4_stochastic_calibration():
    with criterion(4, "noisy adder: 10k-trial success within 0.03 of 0.729, seed-stable"):
        theory = build_voltage_adder(0.1).theory("adder")
        pred = theory.predictions[0]
        spec = DiagramSpec(
            theory,
            pred.abstract,
            pred.physical,
            epsilon=0.0,
            metric=DISCRETE,
            trials=10_000,
            required_success=0.5,
        )
        state = instantiate(theory, machine_input(theory, ("01", "10", "000")))
        first = check_commutation(spec, state, SEED)
        assert abs(first.success_fraction - 0.9**3) <= 0.03, first.success_fraction
        second = check_commutation(spec, state, SEED)
        assert second.success_fraction == first.success_fraction
        assert second.distances == first.distances


def test_criterion_5_epsilon_monotonicity():
    with criterion(5, "100 random deterministic scenarios: pass/fail monotone in eps"):
        rng = random.Random(501)
        grid = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
        for i in range(100):
            theory = random_deterministic_theory(rng, f"m{i}")
            verdicts = []
            for eps in grid:
                _, evidence = validate_theory(theory, eps, "hamming", 1, 1.0, SEED)
                verdicts.append(evidence.all_passed)
            for lo, hi in zip(verdicts, verdicts[1:]):
                assert not (lo and not hi), (i, verdicts)


def test_criterion_6_classifier_matches_oracle():
    with criterion(6, "classifier vs brute force: 256 one-bit maps + 200 random joints"):
        base = build_xor_joint().joint("xor.joint")
        pair_space = base.joint_representation.codomain
        values = list(enumerate_values(pair_space))
        assert len(values) == 4

        hybrids = 0
        total = 0
        for images in itertools.product(values, repeat=len(values)):
            table = dict(zip(values, images))
            candidate = AbstractDynamics("sweep", pair_space, TableRule(table))
            joint = type(base)(
                base.id,
                base.left,
                base.right,
                base.joint_space,
                base.joint_representation,
                candidate,
                "declared",
            )
            fast = classify(joint).value
            slow = brute_force_classify(joint).value
            assert fast == slow, table
            hybrids += fast == "Hybrid"
            total += 1
        assert total == 256
        assert hybrids == 16  # 4 choices of f times 4 choices of g

        rng = random.Random(601)
        agreements = 0
        for i in range(200):
            joint = random_joint_system(rng, f"j{i}")
            if classify(joint).value == brute_force_classify(joint).value:
                agreements += 1
        assert agreements == 200


def test_criterion_7_canonical_classifications():
    with criterion(7, "xor joint heterotic, compositions hybrid, social machine heterotic"):
        assert classify(build_xor_joint().joint("xor.joint")).value == "Heterotic"

        social = build_social_machine()
        galaxy = social.joint("social.galaxy-zoo")
        decision = classify(galaxy)
        assert decision.value == "Heterotic"
        assert decision.witness.representation_factors is None
        assert brute_force_classify(galaxy).value == "Heterotic"

        def component(theory, dynamics):
            graded, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
            assert evidence.all_passed
            return Component(graded, dynamics)

        xor = build_xor_joint()
        swap_theory = build_swap_device().theory("swap")
        parts = [
            component(xor.joint("xor.joint").left.theory, xor.joint("xor.joint").left.dynamics),
            component(xor.joint("xor.joint").right.theory, xor.joint("xor.joint").right.dynamics),
            component(swap_theory, swap_theory.predictions[0].abstract),
            component(social.theory("social.human"), galaxy.left.dynamics),
            component(social.theory("social.machine"), galaxy.right.dynamics),
        ]
        for a, b in itertools.product(parts, repeat=2):
            assert classify(compose_parallel(a, b, "p")).value == "Hybrid"


def deterministic_builtin_theories():
    out = []
    out.append(("adder", build_voltage_adder().theory("adder")))
    out.append(("swap", build_swap_device().theory("swap")))
    out.append(("stack-device", build_refinement_stack().stack("stack.adder").theory))
    xor = build_xor_joint()
    out.append(("xor-left", xor.theory("xor.left")))
    out.append(("xor-right", xor.theory("xor.right")))
    social = build_social_machine()
    out.append(("human", social.theory("social.human")))
    out.append(("machine", social.theory("social.machine")))
    return out


def test_criterion_8_compute_cycle_soundness():
    with criterion(8, "compute cycles equal abstract evolution on every domain input"):
        for name, theory in deterministic_builtin_theories():
            graded, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, SEED)
            assert evidence.all_passed, name
            for pred in graded.predictions:
                seen = set()
                for state in graded.domain:
                    reading = represent(graded.representation, state)
                    if reading.value in seen:
                        continue
                    seen.add(reading.value)
                    result = run_compute_cycle(
                        graded, reading, pred.name, pred.physical, SEED
                    )
                    assert result.output == evolve_abstract(pred.abstract, reading), (
                        name,
                        reading.value,
                    )


def test_criterion_9_round_trips():
    with criterion(9, "encode/decode identity, document round trip, report determinism"):
        # preparation then reading is the identity on every reachable target
        for name, theory in deterministic_builtin_theories():
            targets = {
                represent(theory.representation, seed)
                for seed in theory.instantiation.seeds
            }
            for target in targets:
                assert represent(theory.representation, instantiate(theory, target)) == target

        for name, builder in BUILTIN_SCENARIOS.items():
            bundle = builder()
            assert parse_scenario(emit_scenario(bundle)) == bundle, name

        for name in ("voltage-adder", "voltage-adder-noisy"):
            bundle = BUILTIN_SCENARIOS[name]()
            first = report_to_json(run_checks(bundle, TrialSeed(13)))
            second = report_to_json(run_checks(bundle, TrialSeed(13)))
            assert first == second, name
