"""The names the ``abrep`` package exports, pinned so that any addition or removal shows."""

import ast
import importlib
import pathlib
import re
import types

import abrep

EXPORTS = """
    AbstractDynamics AbstractSpace AbstractState BUILTIN_SCENARIOS BinarySumUpdate BitSpace
    BuiltinRule CheckSpec CommutationReport Component CompositionClass ComputeResult
    ConstantUpdate CoordinateFlipNoise CoordinateUpdateRule DISCRETE DeclarationError
    DiagramSpec DuplicateIdentifier EmptyDomain FactorizationWitness HETEROTIC HYBRID
    InstantiationProcedure IntSpace JointSystem LabelSpace LayerReport
    LookupRule MAX_COORDINATE METRICS Metric MetricMismatch ModelError NotEnumerable
    NotInstantiable OutOfDomain PhysicalDynamics PhysicalLabelSpace PhysicalSpace
    PhysicalState PhysicalTupleSpace Prediction ProductRule RealVectorSpace RefinementLayer
    RefinementStack RepresentationRelation RunReport ScenarioBundle ScenarioError
    ScenarioSyntaxError SimulationRelation StackReport TableRule Theory TheoryNotValidated
    ThresholdRule TooLarge TrialSeed TupleSpace TupleWiseRule UnknownReference ValidityReport
    VersionUnsupported brute_force_classify build_refinement_stack build_social_machine
    build_swap_device build_voltage_adder build_xor_joint cardinality check_commutation
    check_history check_layer check_stack_to_device classify componentwise_joint
    compose_parallel contains derive_seed distance emit_scenario enumerate_states
    enumerate_values evolve_abstract evolve_physical identity_dynamics
    instantiate parse_scenario report_to_json represent run_checks run_compute_cycle
    validate_theory
""".split()


def test_the_package_exports_exactly_the_pinned_names():
    exported = sorted(
        name
        for name, value in vars(abrep).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == EXPORTS
    assert abrep.ProductRule is abrep.TupleWiseRule and abrep.TableRule is abrep.LookupRule


def test_every_name_the_benchmark_imports_resolves():
    """Gate: deleting a name that ``perfbench/`` imports from ``abrep`` fails here, not only there.

    Each ``from abrep... import ...`` in ``perfbench/*.py`` is read with ``ast``; no benchmark file runs.
    """
    perfbench = pathlib.Path(__file__).parents[1] / "perfbench"
    imported = [
        (node.module, alias.name)
        for path in sorted(perfbench.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "abrep"
        for alias in node.names
    ]
    assert len(imported) > 20  # the benchmark's imports were found
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


#: The lines ``src/abrep/*.py`` hold, counted as ``wc -l`` counts them, pinned exactly so that no
#: slack builds up. A change that grows ``src/`` raises this number and says why in CHANGES.md;
#: one that shrinks it lowers it.
MAX_SOURCE_LINES = 4134


def test_the_source_does_not_grow_past_its_line_count():
    package = pathlib.Path(abrep.__file__).parent
    lines = sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))
    assert lines == MAX_SOURCE_LINES


def test_the_readme_python_blocks_run():
    """Each ```python block of README.md runs as written, its asserts included."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
