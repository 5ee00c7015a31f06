"""Built-in, fully specified example systems.

Each builder returns a self-contained bundle: spaces, relations, dynamics,
theories, and the checks the bundle is expected to satisfy. The builders are
pure, so building twice yields structurally identical bundles, and every
bundle can be emitted as a scenario document, which makes these systems
double as format documentation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Literal, get_type_hints

from .composition import Component, JointSystem, Verdict, componentwise_joint
from .dynamics import (
    AbstractDynamics,
    BinarySumUpdate,
    BuiltinRule,
    ConstantUpdate,
    CoordinateFlipNoise,
    CoordinateUpdateRule,
    PhysicalDynamics,
    ProductRule,
    TableRule,
    ThresholdRule,
    identity_dynamics,
)
from .errors import DuplicateIdentifier, _SHOWN_DEPTH, _too_deep, resolve
from .refinement import RefinementLayer, RefinementStack, SimulationRelation
from .relations import InstantiationProcedure, Prediction, RepresentationRelation, Theory
from .spaces import (
    AbstractSpace,
    BitSpace,
    IntSpace,
    LabelSpace,
    Metric,
    PhysicalLabelSpace,
    PhysicalSpace,
    PhysicalState,
    PhysicalTupleSpace,
    RealVectorSpace,
    TupleSpace,
    Value,
    _declaration,
    _field_error,
    _rules,
    enumerate_values,
)
from .verification import _check_tolerances

#: The document format versions: one, written and read.
FormatVersion = Literal["1"]


CheckKind = Literal[
    "commutation", "experiment", "history", "validate-theory", "compute", "layer", "stack", "classify"
]


@_declaration("check", name="name")
class CheckSpec:
    """One declared check; unset tolerances fall back to the strict defaults.

    Its own fields are checked here, as a diagram checks them, and the
    objects it names when it runs. Tolerances are stored as floats, and the
    check values with their arrays as tuples.
    """

    name: str
    kind: CheckKind
    theory: str | None = None
    prediction: str | None = None
    state: Value | None = None
    input: Value | None = None
    expect: Value | None = None
    physical_metric: Metric | None = None
    stack: str | None = None
    relation: str | None = None
    joint: str | None = None
    expect_class: Verdict | None = None
    oracle: bool = False
    epsilon: float = 0.0
    metric: Metric = "discrete"
    trials: int = 1
    required_success: float = 1.0

    def __post_init__(self, owner):
        _check_tolerances(owner, self.epsilon, self.trials, self.required_success)
        for name in ("state", "input", "expect"):
            if _too_deep(getattr(self, name)):
                raise _field_error(owner, name, f"nests more than {_SHOWN_DEPTH} containers")
            object.__setattr__(self, name, _tuples(getattr(self, name)))  # bounded by the test above
        if self.kind == "history" and self.physical_metric is None:
            raise _field_error(owner, "physical_metric", "history checks must declare a physical metric")


def _tuples(value):
    """``value`` with its arrays, at every level, as tuples; dicts and scalars as given."""
    return tuple(map(_tuples, value)) if isinstance(value, (list, tuple)) else value


@_declaration("bundle", name=None)
class ScenarioBundle:
    """Everything needed to run verification with no further input."""

    abstract_spaces: tuple[AbstractSpace, ...]
    physical_spaces: tuple[PhysicalSpace, ...]
    relations: tuple[RepresentationRelation, ...]
    abstract_dynamics: tuple[AbstractDynamics, ...]
    physical_dynamics: tuple[PhysicalDynamics, ...]
    theories: tuple[Theory, ...]
    stacks: tuple[RefinementStack, ...]
    joints: tuple[JointSystem, ...]
    checks: tuple[CheckSpec, ...]

    def __post_init__(self, owner):
        for section, ids in (
            ("spaces", [o.id for o in (*self.abstract_spaces, *self.physical_spaces)]),
            ("relations", [o.id for o in self.relations]),
            ("dynamics", [o.id for o in (*self.abstract_dynamics, *self.physical_dynamics)]),
            ("theories", [o.id for o in self.theories]),
            ("stacks", [o.id for o in self.stacks]),
            ("compositions", [o.id for o in self.joints]),
            ("checks", [c.name for c in self.checks]),
        ):
            seen: set = set()
            for ident in ids:
                if ident in seen:
                    raise DuplicateIdentifier(f"bundle {section}", ident)
                seen.add(ident)

    def _find(self, section: str, wanted: str):
        return resolve({obj.id: obj for obj in getattr(self, section)}, wanted, f"bundle {section}")

    def theory(self, theory_id: str) -> Theory:
        return self._find("theories", theory_id)

    def stack(self, stack_id: str) -> RefinementStack:
        return self._find("stacks", stack_id)

    def joint(self, joint_id: str) -> JointSystem:
        return self._find("joints", joint_id)


def _bundle(checks: tuple, *declared) -> ScenarioBundle:
    """A bundle of ``checks`` and ``declared``, each in the section its type is annotated on."""
    hints = get_type_hints(ScenarioBundle)
    sections = {
        field: tuple(obj for obj in (*declared, *checks) if isinstance(obj, each))
        for field, _, each, _ in _rules(hints, list(hints))
    }
    return ScenarioBundle(**sections)


def _bits(n: int, width: int) -> str:
    return format(n, f"0{width}b")


def _volts(bits: str) -> tuple[float, ...]:
    return tuple(5.0 if c == "1" else 0.0 for c in bits)


def _voltage_lines(prefix: str, extra: tuple = (), noise=None):
    """Seven 0-5 V lines that add lines 0-1 to 2-3 into 4-6, read at 2.5 V.

    Returns the lines, the update (the binary sum, then the ``extra``
    assignments, under ``noise``), a hold, and all 128 high/low patterns.
    """
    lines = RealVectorSpace(f"{prefix}.lines", ((0.0, 5.0),) * 7)
    assignments = (BinarySumUpdate((0, 1), (2, 3), (4, 5, 6), 2.5, 0.0, 5.0),) + extra
    volts = PhysicalDynamics(f"{prefix}.volts", lines, CoordinateUpdateRule(assignments), noise)
    hold = identity_dynamics(f"{prefix}.hold", lines)
    grid = tuple(PhysicalState(lines, _volts(_bits(i, 7))) for i in range(128))
    return lines, volts, hold, grid


def _label_cell_theory(
    ident: str,
    read: RepresentationRelation,
    name: str,
    program: AbstractDynamics,
    hold: PhysicalDynamics,
) -> Theory:
    """A theory over a label space whose every label is a domain state and a seed.

    Its one prediction, ``name``, pairs ``program`` with ``hold``, which
    also prepares the seeds.
    """
    states = tuple(PhysicalState(read.domain, label) for label in read.domain.labels)
    return Theory(
        id=ident,
        representation=read,
        domain=states,
        predictions=(Prediction(name, program, hold),),
        instantiation=InstantiationProcedure(states, hold),
    )


def build_voltage_adder(flip_probability: float = 0.0, faulted: bool = False) -> ScenarioBundle:
    """A seven-line voltage device that adds two 2-bit registers.

    Lines 0-1 and 2-3 carry the addends, lines 4-6 the sum; a high line reads
    as 1 at the 2.5 V threshold. The third register is one bit wider than the
    inputs so no sum is truncated. With ``flip_probability`` in (0, 1] each output
    line flips across the threshold independently after the update. With
    ``faulted`` the least significant output line is stuck at 0 V, so the
    declared checks fail on every input pair whose sum is odd; the zero-sum
    check still passes.
    """
    stuck = (ConstantUpdate((6,), (0.0,)),) if faulted else ()
    noise = None
    if flip_probability != 0:  # the noise checks the probability's range
        noise = CoordinateFlipNoise(flip_probability, (4, 5, 6), 2.5, 0.0, 5.0)
    lines, volts, hold, seeds = _voltage_lines("adder", stuck, noise)
    register = BitSpace("adder.register", 2)
    out_register = BitSpace("adder.out-register", 3)
    machine = TupleSpace("adder.machine", (register, register, out_register))

    read = RepresentationRelation(
        "adder.read", lines, machine, ThresholdRule((2.5,) * 7)
    )
    add = AbstractDynamics("adder.add", machine, BuiltinRule("ripple-add"))

    domain = tuple(
        PhysicalState(lines, _volts(_bits(a, 2) + _bits(b, 2) + "000"))
        for a in range(4)
        for b in range(4)
    )
    theory = Theory(
        id="adder",
        representation=read,
        domain=domain,
        predictions=(Prediction("add", add, volts),),
        instantiation=InstantiationProcedure(seeds, hold),
    )

    validate = CheckSpec(name="validate", kind="validate-theory", theory="adder")

    def square(name: str, kind: str, input=("01", "10", "000"), **fields) -> CheckSpec:
        return CheckSpec(name, kind, theory="adder", prediction="add", input=input, **fields)

    if noise is not None:
        checks = (
            replace(validate, trials=400, required_success=0.6),
            square("estimate-success", "experiment", trials=1000, required_success=0.5),
        )
    elif faulted:
        checks = (
            validate,
            square("add-01-10", "commutation"),
            square("add-00-00", "commutation", ("00", "00", "000")),
        )
    else:
        checks = (
            validate,
            square("add-01-10", "commutation"),
            square("cycle-01-10", "compute", expect=("01", "10", "011")),
            square("cycle-11-11", "compute", ("11", "11", "000"), expect=("11", "11", "110")),
            square("history-01-10", "history", physical_metric="max-coordinate"),
        )

    return _bundle(checks, register, out_register, machine, lines, read, add, volts, hold, theory)


def build_refinement_stack(mis_declared: bool = False) -> ScenarioBundle:
    """Decimal addition refined to binary, to a flat machine word, to volts.

    The top layer adds small decimals in a (digit, digit, sum) register file;
    the middle layer is the binary register machine; the bottom layer is the
    same machine state flattened into one 7-bit word, which is what the
    device theory reads directly off the voltage lines. With ``mis_declared``
    the decimal-to-binary map encodes 1 and 2 swapped in the first register,
    which breaks exactly that layer check.
    """
    digit = IntSpace("stack.digit", 0, 3)
    total = IntSpace("stack.sum", 0, 6)
    dec_space = TupleSpace("stack.dec", (digit, digit, total))
    register = BitSpace("stack.register", 2)
    out_register = BitSpace("stack.out-register", 3)
    bin_space = TupleSpace("stack.bin", (register, register, out_register))
    word = BitSpace("stack.word", 7)
    lines, volts, hold, grid = _voltage_lines("stack")

    dec_add = AbstractDynamics(
        "stack.dec-add",
        dec_space,
        TableRule({(a, b, s): (a, b, a + b) for (a, b, s) in enumerate_values(dec_space)}),
    )
    bin_add = AbstractDynamics("stack.bin-add", bin_space, BuiltinRule("ripple-add"))
    asm_add = AbstractDynamics(
        "stack.asm-add",
        word,
        TableRule(
            {
                w: w[:4] + _bits(int(w[0:2], 2) + int(w[2:4], 2), 3)
                for w in enumerate_values(word)
            }
        ),
    )

    read_word = RepresentationRelation(
        "stack.read-word", lines, word, ThresholdRule((2.5,) * 7)
    )
    device_theory = Theory(
        id="stack.device-theory",
        representation=read_word,
        domain=grid,
        predictions=(Prediction("asm-add", asm_add, volts),),
        instantiation=InstantiationProcedure(grid, hold),
    )

    dec_layer = RefinementLayer("stack.dec-layer", dec_space, dec_add)
    bin_layer = RefinementLayer("stack.bin-layer", bin_space, bin_add)
    asm_layer = RefinementLayer("stack.asm-layer", word, asm_add)

    def encode_first(a: int) -> str:
        if mis_declared and a in (1, 2):
            return _bits(3 - a, 2)
        return _bits(a, 2)

    dec_to_bin = SimulationRelation(
        "stack.dec-to-bin",
        dec_layer,
        bin_layer,
        {
            (a, b, s): (encode_first(a), _bits(b, 2), _bits(s, 3))
            for (a, b, s) in enumerate_values(dec_space)
        },
    )
    bin_to_asm = SimulationRelation(
        "stack.bin-to-asm",
        bin_layer,
        asm_layer,
        {(x, y, z): x + y + z for (x, y, z) in enumerate_values(bin_space)},
    )
    stack = RefinementStack(
        "stack.adder",
        (dec_layer, bin_layer, asm_layer),
        (dec_to_bin, bin_to_asm),
        device_theory,
        volts,
    )

    checks = (
        CheckSpec(name="layer-dec-bin", kind="layer", stack="stack.adder", relation="stack.dec-to-bin"),
        CheckSpec(name="layer-bin-asm", kind="layer", stack="stack.adder", relation="stack.bin-to-asm"),
        CheckSpec(name="end-to-end", kind="stack", stack="stack.adder"),
    )

    return _bundle(
        checks, digit, total, dec_space, register, out_register, bin_space, word, lines,
        read_word, dec_add, bin_add, asm_add, volts, hold, device_theory, stack,
    )


def build_swap_device() -> ScenarioBundle:
    """Two labeled registers whose contents are exchanged in one step."""
    digits = PhysicalLabelSpace("swap.digits", tuple(str(d) for d in range(10)))
    registers = PhysicalTupleSpace("swap.registers", (digits, digits))
    number = IntSpace("swap.number", 0, 9)
    pair = TupleSpace("swap.pair", (number, number))

    read_digit = RepresentationRelation(
        "swap.read-digit",
        digits,
        number,
        TableRule({str(d): d for d in range(10)}),
    )
    read = RepresentationRelation(
        "swap.read", registers, pair, ProductRule((read_digit, read_digit))
    )
    exchange = PhysicalDynamics(
        "swap.exchange",
        registers,
        TableRule({(a, b): (b, a) for (a, b) in enumerate_values(registers)}),
    )
    hold = identity_dynamics("swap.hold", registers)
    swap = AbstractDynamics("swap.swap", pair, BuiltinRule("swap-pair"))

    states = tuple(PhysicalState(registers, v) for v in enumerate_values(registers))
    theory = Theory(
        id="swap",
        representation=read,
        domain=states,
        predictions=(Prediction("swap", swap, exchange),),
        instantiation=InstantiationProcedure(states, hold),
    )

    checks = (
        CheckSpec(name="validate", kind="validate-theory", theory="swap"),
        CheckSpec(
            name="cycle-7-9",
            kind="compute",
            theory="swap",
            prediction="swap",
            input=(7, 9),
            expect=(9, 7),
        ),
        CheckSpec(
            name="swap-3-3",
            kind="commutation",
            theory="swap",
            prediction="swap",
            input=(3, 3),
        ),
    )

    return _bundle(
        checks, number, pair, digits, registers, read_digit, read, swap, exchange, hold, theory
    )


def build_social_machine() -> ScenarioBundle:
    """A crowd classifier: a human tagger and an aggregating machine.

    Individually, the human reads pictures as shape tags and the machine
    reads its memory as tally levels, and both satisfy their own theories.
    The catalogue the pair produces is read off the *joint* state by a
    relation into a plain label space that is not a product of the component
    codomains, so the joint system declines to factor: neither part alone
    maps pictures to galaxy classes.
    """
    pictures = PhysicalLabelSpace(
        "social.pictures",
        ("whirl-1", "whirl-2", "whirl-3", "haze-1", "haze-2", "haze-3"),
    )
    memory = PhysicalLabelSpace("social.memory", ("mem0", "mem1", "mem2", "mem3"))
    floor = PhysicalTupleSpace("social.floor", (pictures, memory))
    tags = LabelSpace("social.tags", ("round", "square", "fuzzy"))
    tallies = LabelSpace("social.tallies", ("none", "few", "many"))
    classes = LabelSpace("social.classes", ("spiral", "elliptical"))

    human_read = RepresentationRelation(
        "social.human-read",
        pictures,
        tags,
        TableRule(
            {
                "whirl-1": "round",
                "whirl-2": "round",
                "whirl-3": "fuzzy",
                "haze-1": "square",
                "haze-2": "square",
                "haze-3": "fuzzy",
            }
        ),
    )
    machine_read = RepresentationRelation(
        "social.machine-read",
        memory,
        tallies,
        TableRule({"mem0": "none", "mem1": "few", "mem2": "few", "mem3": "many"}),
    )

    def catalogue(pic: str, mem: str) -> str:
        crowd_agrees = mem in ("mem2", "mem3")
        if pic.startswith("whirl") and crowd_agrees:
            return "spiral"
        if pic == "haze-3" and mem == "mem3":
            return "spiral"
        return "elliptical"

    catalogue_read = RepresentationRelation(
        "social.catalogue-read",
        floor,
        classes,
        TableRule({(p, m): catalogue(p, m) for (p, m) in enumerate_values(floor)}),
    )

    human_settle = identity_dynamics("social.human-settle", pictures)
    machine_settle = identity_dynamics("social.machine-settle", memory)
    hold_tags = AbstractDynamics("social.hold-tags", tags, BuiltinRule("identity"))
    hold_tallies = AbstractDynamics("social.hold-tallies", tallies, BuiltinRule("identity"))
    publish = AbstractDynamics("social.publish", classes, BuiltinRule("identity"))

    human = _label_cell_theory("social.human", human_read, "tag", hold_tags, human_settle)
    machine = _label_cell_theory(
        "social.machine", machine_read, "tally", hold_tallies, machine_settle
    )

    galaxy_zoo = JointSystem(
        id="social.galaxy-zoo",
        left=Component(human, hold_tags),
        right=Component(machine, hold_tallies),
        joint_space=floor,
        joint_representation=catalogue_read,
        joint_dynamics=publish,
        provenance="declared",
    )
    side_by_side = componentwise_joint(
        "social.side-by-side",
        Component(human, hold_tags),
        Component(machine, hold_tallies),
    )

    checks = (
        CheckSpec(name="validate-human", kind="validate-theory", theory="social.human"),
        CheckSpec(name="validate-machine", kind="validate-theory", theory="social.machine"),
        CheckSpec(
            name="classify-galaxy-zoo",
            kind="classify",
            joint="social.galaxy-zoo",
            expect_class="Heterotic",
            oracle=True,
        ),
        CheckSpec(
            name="classify-side-by-side",
            kind="classify",
            joint="social.side-by-side",
            expect_class="Hybrid",
            oracle=True,
        ),
    )

    return _bundle(
        checks, tags, tallies, classes, pictures, memory, floor, human_read, machine_read,
        catalogue_read, hold_tags, hold_tallies, publish, human_settle, machine_settle,
        human, machine, galaxy_zoo, side_by_side,
    )


def build_xor_joint() -> ScenarioBundle:
    """Two one-bit cells whose joint dynamics couple the halves.

    The joint representation reads the cells independently, so the class is
    decided entirely by the dynamics: ``xor`` writes the parity of both bits
    into the first cell and cannot be split into per-cell actions.
    """
    left_cell = PhysicalLabelSpace("xor.left.cell", ("off", "on"))
    right_cell = PhysicalLabelSpace("xor.right.cell", ("off", "on"))
    cells = PhysicalTupleSpace("xor.cells", (left_cell, right_cell))
    bit = BitSpace("xor.bit", 1)
    pair = TupleSpace("xor.pair", (bit, bit))

    left_read = RepresentationRelation(
        "xor.left.read", left_cell, bit, TableRule({"off": "0", "on": "1"})
    )
    right_read = RepresentationRelation(
        "xor.right.read", right_cell, bit, TableRule({"off": "0", "on": "1"})
    )
    read_pair = RepresentationRelation(
        "xor.read-pair", cells, pair, ProductRule((left_read, right_read))
    )

    left_hold = identity_dynamics("xor.left.hold", left_cell)
    right_hold = identity_dynamics("xor.right.hold", right_cell)
    keep_bit = AbstractDynamics("xor.keep-bit", bit, BuiltinRule("identity"))
    joint_dyn = AbstractDynamics("xor.couple", pair, BuiltinRule("xor"))

    left_theory = _label_cell_theory("xor.left", left_read, "hold", keep_bit, left_hold)
    right_theory = _label_cell_theory("xor.right", right_read, "hold", keep_bit, right_hold)

    joint = JointSystem(
        id="xor.joint",
        left=Component(left_theory, keep_bit),
        right=Component(right_theory, keep_bit),
        joint_space=cells,
        joint_representation=read_pair,
        joint_dynamics=joint_dyn,
        provenance="declared",
    )

    checks = (
        CheckSpec(name="validate-left", kind="validate-theory", theory="xor.left"),
        CheckSpec(name="validate-right", kind="validate-theory", theory="xor.right"),
        CheckSpec(
            name="classify-joint",
            kind="classify",
            joint="xor.joint",
            expect_class="Heterotic",
            oracle=True,
        ),
    )

    return _bundle(
        checks, bit, pair, left_cell, right_cell, cells, left_read, right_read, read_pair,
        keep_bit, joint_dyn, left_hold, right_hold, left_theory, right_theory, joint,
    )


BUILTIN_SCENARIOS = {
    "voltage-adder": build_voltage_adder,
    "voltage-adder-noisy": lambda: build_voltage_adder(0.1),
    "voltage-adder-faulted": lambda: build_voltage_adder(faulted=True),
    "refinement-stack": build_refinement_stack,
    "refinement-stack-miswired": lambda: build_refinement_stack(mis_declared=True),
    "swap-device": build_swap_device,
    "social-machine": build_social_machine,
    "xor-joint": build_xor_joint,
}
