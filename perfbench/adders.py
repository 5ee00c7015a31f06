"""The w-bit voltage adder family, built from the public API.

A w-bit adder has 3w+1 voltage lines: two w-bit addend registers and a
(w+1)-bit sum register, read by a 2.5 V threshold and updated by one
``BinarySumUpdate``. Its domain is every pair of addends with a cleared sum
register. With ``seed_grid`` the theory also declares an instantiation
procedure whose seeds are every bit pattern on the lines, in declaration
order, so the seed a target needs sits at the index its bits spell.

``self_check`` confirms that w=2 is the built-in ``voltage-adder`` and not a
look-alike: same validation verdicts, same compute outputs.
"""

from __future__ import annotations

from abrep import (
    DISCRETE,
    AbstractDynamics,
    AbstractState,
    BinarySumUpdate,
    BitSpace,
    BuiltinRule,
    CoordinateUpdateRule,
    InstantiationProcedure,
    PhysicalDynamics,
    PhysicalState,
    Prediction,
    RealVectorSpace,
    Theory,
    ThresholdRule,
    TrialSeed,
    TupleSpace,
    RepresentationRelation,
    build_voltage_adder,
    identity_dynamics,
    run_compute_cycle,
    validate_theory,
)

LOW, HIGH, THRESHOLD = 0.0, 5.0, 2.5


def bits(n: int, width: int) -> str:
    return format(n, f"0{width}b")


def volts(pattern: str) -> tuple[float, ...]:
    return tuple(HIGH if c == "1" else LOW for c in pattern)


def build_adder(width: int, seed_grid: bool = False) -> Theory:
    """The ``width``-bit voltage adder theory, optionally with its seed grid."""
    n_lines = 3 * width + 1
    tag = f"adder{width}"
    lines = RealVectorSpace(f"{tag}.lines", ((LOW, HIGH),) * n_lines)
    register = BitSpace(f"{tag}.register", width)
    out_register = BitSpace(f"{tag}.out-register", width + 1)
    machine = TupleSpace(f"{tag}.machine", (register, register, out_register))
    read = RepresentationRelation(
        f"{tag}.read", lines, machine, ThresholdRule((THRESHOLD,) * n_lines)
    )
    add = AbstractDynamics(f"{tag}.add", machine, BuiltinRule("ripple-add"))
    a_lines = tuple(range(width))
    b_lines = tuple(range(width, 2 * width))
    out_lines = tuple(range(2 * width, n_lines))
    device = PhysicalDynamics(
        f"{tag}.volts",
        lines,
        CoordinateUpdateRule(
            (BinarySumUpdate(a_lines, b_lines, out_lines, THRESHOLD, LOW, HIGH),)
        ),
    )
    cleared = "0" * (width + 1)
    domain = tuple(
        PhysicalState(lines, volts(bits(a, width) + bits(b, width) + cleared))
        for a in range(1 << width)
        for b in range(1 << width)
    )
    instantiation = None
    if seed_grid:
        seeds = tuple(
            PhysicalState(lines, volts(bits(i, n_lines))) for i in range(1 << n_lines)
        )
        instantiation = InstantiationProcedure(seeds, identity_dynamics(f"{tag}.hold", lines))
    return Theory(
        id=tag,
        representation=read,
        domain=domain,
        predictions=(Prediction("add", add, device),),
        instantiation=instantiation,
    )


def adder_inputs(width: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1 << width) for b in range(1 << width)]


def machine_input(theory: Theory, width: int, a: int, b: int) -> AbstractState:
    value = (bits(a, width), bits(b, width), "0" * (width + 1))
    return AbstractState(theory.representation.codomain, value)


def expected_sum(width: int, a: int, b: int) -> tuple[str, str, str]:
    return (bits(a, width), bits(b, width), bits(a + b, width + 1))


def self_check() -> None:
    """Raise AssertionError unless w=2 behaves exactly as ``build_voltage_adder()``."""
    seed = TrialSeed(0)
    family, builtin = build_adder(2, seed_grid=True), build_voltage_adder().theory("adder")
    graded = []
    for theory in (family, builtin):
        g, evidence = validate_theory(theory, 0.0, DISCRETE, 1, 1.0, seed)
        verdicts = [(c.report.passed, c.report.distances) for c in evidence.cells]
        graded.append((g, verdicts))
    (fam, fam_verdicts), (ref, ref_verdicts) = graded
    if fam_verdicts != ref_verdicts:
        raise AssertionError("2-bit family adder validates differently from the built-in")
    for a, b in adder_inputs(2):
        outputs = []
        for theory in (fam, ref):
            program = theory.predictions[0]
            m = machine_input(theory, 2, a, b)
            result = run_compute_cycle(theory, m, program.name, program.physical, seed)
            outputs.append(result.output.value)
        if outputs[0] != outputs[1] or outputs[0] != expected_sum(2, a, b):
            raise AssertionError(f"2-bit family adder computes {outputs} on {a}+{b}")
