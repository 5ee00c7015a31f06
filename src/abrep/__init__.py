"""Declarative modeling and verification of simulated physical computers.

Declare device substrates, abstract programs, and the representation
relations that connect them; then check commuting diagrams within a
tolerance, validate device theories, run compute cycles, verify refinement
stacks down to the device, and classify composed systems as hybrid or
heterotic.
"""

from .composition import (
    Component,
    CompositionClass,
    FactorizationWitness,
    HETEROTIC,
    HYBRID,
    JointSystem,
    brute_force_classify,
    classify,
    componentwise_joint,
    compose_parallel,
)
from .document import emit_scenario, parse_scenario
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
    TrialSeed,
    derive_seed,
    evolve_abstract,
    evolve_physical,
    identity_dynamics,
)
from .errors import (
    DeclarationError,
    DuplicateIdentifier,
    EmptyDomain,
    MetricMismatch,
    ModelError,
    NotEnumerable,
    NotInstantiable,
    OutOfDomain,
    ScenarioError,
    ScenarioSyntaxError,
    TheoryNotValidated,
    TooLarge,
    UnknownReference,
    VersionUnsupported,
)
from .refinement import (
    LayerReport,
    RefinementLayer,
    RefinementStack,
    SimulationRelation,
    StackReport,
    check_layer,
    check_stack_to_device,
)
from .relations import (
    InstantiationProcedure,
    LookupRule,
    Prediction,
    RepresentationRelation,
    Theory,
    TupleWiseRule,
    instantiate,
    represent,
)
from .runner import RunReport, report_to_json, run_checks
from .scenarios import (
    BUILTIN_SCENARIOS,
    CheckSpec,
    ScenarioBundle,
    build_refinement_stack,
    build_social_machine,
    build_swap_device,
    build_voltage_adder,
    build_xor_joint,
)
from .spaces import (
    AbstractSpace,
    AbstractState,
    BitSpace,
    DISCRETE,
    IntSpace,
    LabelSpace,
    MAX_COORDINATE,
    METRICS,
    Metric,
    PhysicalLabelSpace,
    PhysicalSpace,
    PhysicalState,
    PhysicalTupleSpace,
    RealVectorSpace,
    TupleSpace,
    cardinality,
    contains,
    distance,
    enumerate_states,
    enumerate_values,
)
from .verification import (
    CommutationReport,
    ComputeResult,
    DiagramSpec,
    ValidityReport,
    check_commutation,
    check_history,
    run_compute_cycle,
    validate_theory,
)

from types import FunctionType as _FunctionType

from .spaces import _checked

# Each exported function checks its arguments; the modules call each other's unwrapped ones.
globals().update({n: _checked(f) for n, f in tuple(globals().items()) if type(f) is _FunctionType})

__version__ = "0.1.0"
