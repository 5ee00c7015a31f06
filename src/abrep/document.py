"""Scenario documents: parsing, resolution, and emission.

A scenario file is a UTF-8 JSON document with a fixed section order
(spaces, relations, dynamics, theories, stacks, compositions, checks). Identifiers must be declared before they are referenced and are
unique per section. Parsing yields a fully resolved bundle; emission writes
a document that parses back to a structurally equal bundle. Check
declarations keep their object references as identifiers so that a check
naming a missing object degrades to a per-check error at run time instead
of poisoning the whole document.
"""

from __future__ import annotations

import json
from typing import Any

from .composition import Component, JointSystem, componentwise_joint
from .dynamics import (
    AbstractDynamics,
    BUILTIN_NAMES,
    BinarySumUpdate,
    BuiltinRule,
    ChainRule,
    ConstantUpdate,
    CoordinateFlipNoise,
    CoordinateUpdateRule,
    LabelFlipNoise,
    PhysicalDynamics,
    TableRule,
)
from .errors import (
    DeclarationError,
    DuplicateIdentifier,
    ModelError,
    OutOfDomain,
    ScenarioError,
    ScenarioSyntaxError,
    UnknownReference,
    VersionUnsupported,
)
from .refinement import RefinementLayer, RefinementStack, SimulationRelation
from .relations import (
    InstantiationProcedure,
    LookupRule,
    Prediction,
    RepresentationRelation,
    Theory,
    ThresholdRule,
    TupleWiseRule,
)
from .scenarios import CHECK_KINDS, CheckSpec, ScenarioBundle
from .spaces import (
    AbstractSpace,
    BitSpace,
    IntSpace,
    LabelSpace,
    METRICS,
    PhysicalLabelSpace,
    PhysicalSpace,
    PhysicalState,
    PhysicalTupleSpace,
    RealVectorSpace,
    TupleSpace,
    Value,
    _finite,
    enumerate_values,
    normalize_value,
)

SUPPORTED_VERSIONS = ("1",)

_SECTIONS = (
    "format_version",
    "spaces",
    "relations",
    "dynamics",
    "theories",
    "stacks",
    "compositions",
    "checks",
)


def value_to_json(value: Value) -> Any:
    """Encode a canonical state value as a JSON value (tuples become arrays)."""
    if isinstance(value, tuple):
        return [value_to_json(v) for v in value]
    return value


def raw_value(v: Any) -> Any:
    """Normalize a JSON value structurally (arrays become tuples)."""
    if isinstance(v, list):
        return tuple(raw_value(x) for x in v)
    return v


def _expect(obj: Any, path: str, kind: type, what: str) -> Any:
    if not isinstance(obj, kind):
        raise ScenarioSyntaxError(f"{path}: expected {what}")
    return obj


#: JSON scalar kinds other than numbers: the Python type a field of that kind
#: accepts, and how a diagnostic names it. Flags are never integers.
_SCALARS = {
    "integer": (int, "an integer"),
    "flag": (bool, "true or false"),
}


def _scalar(value: Any, path: str, kind: str = "number") -> Any:
    """``value`` checked, never coerced, as a JSON number, integer or flag.

    Numbers must be finite, and come back as float, so ``1`` and ``1.0``
    declare the same thing; ``NaN`` and ``Infinity`` are rejected.
    """
    if kind == "number":
        try:
            return _finite(path, value)
        except DeclarationError:
            raise ScenarioSyntaxError(f"{path}: expected a finite number") from None
    types, what = _SCALARS[kind]
    if isinstance(value, bool) != (kind == "flag") or not isinstance(value, types):
        raise ScenarioSyntaxError(f"{path}: expected {what}")
    return value


def _get(obj: dict, key: str, path: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise ScenarioSyntaxError(f"{path}: missing key {key!r}")
    return obj[key]


def resolve(table: dict, ident: Any, path: str) -> Any:
    """The object ``table`` declares as ``ident``, or UnknownReference at ``path``."""
    if not isinstance(ident, str) or ident not in table:
        raise UnknownReference(path, str(ident))
    return table[ident]


def _ref(table: dict, decl: dict, key: str, path: str) -> Any:
    """The object ``table`` declares under the identifier at ``decl[key]``."""
    return resolve(table, _get(decl, key, path), f"{path}.{key}")


def _refs(table: dict, decl: dict, key: str, path: str) -> tuple:
    """The objects ``table`` declares under the identifiers listed at ``decl[key]``."""
    return tuple(
        resolve(table, ref, f"{path}.{key}[{i}]") for i, ref in enumerate(_get(decl, key, path))
    )


def _checked(parser, decl, path: str, *args):
    """Run one declaration parser, folding model and shape errors into diagnostics."""
    try:
        return parser(decl, path, *args)
    except ScenarioError:
        raise
    except ModelError as err:
        raise ScenarioSyntaxError(f"{path}: {err}") from err
    except (TypeError, ValueError, AttributeError, KeyError, OverflowError) as err:
        raise ScenarioSyntaxError(f"{path}: malformed declaration ({err})") from err


class _Registry:
    """Scoped identifier table with declare-before-use resolution."""

    def __init__(self):
        self.spaces: dict[str, AbstractSpace | PhysicalSpace] = {}
        self.relations: dict[str, RepresentationRelation] = {}
        self.abstract_dynamics: dict[str, AbstractDynamics] = {}
        self.physical_dynamics: dict[str, PhysicalDynamics] = {}
        self.theories: dict[str, Theory] = {}
        self.stacks: dict[str, RefinementStack] = {}
        self.joints: dict[str, JointSystem] = {}

    def declare(self, table: dict, ident: str, obj: Any, path: str) -> None:
        if ident in table:
            raise DuplicateIdentifier(path, ident)
        table[ident] = obj


def _parse_space(decl: dict, path: str, physical: bool, reg: _Registry):
    ident = _expect(_get(decl, "id", path), f"{path}.id", str, "a string identifier")
    kind = _get(decl, "kind", path)
    if kind == "labels":
        labels = tuple(_expect(_get(decl, "labels", path), f"{path}.labels", list, "a list"))
        space = PhysicalLabelSpace(ident, labels) if physical else LabelSpace(ident, labels)
    elif kind == "bits" and not physical:
        space = BitSpace(ident, _scalar(_get(decl, "width", path), f"{path}.width", "integer"))
    elif kind == "ints" and not physical:
        lo, hi = (_scalar(_get(decl, k, path), f"{path}.{k}", "integer") for k in ("lo", "hi"))
        space = IntSpace(ident, lo, hi)
    elif kind == "vector" and physical:
        bounds = tuple(
            (_scalar(lo, f"{path}.bounds[{i}][0]"), _scalar(hi, f"{path}.bounds[{i}][1]"))
            for i, (lo, hi) in enumerate(_get(decl, "bounds", path))
        )
        space = RealVectorSpace(ident, bounds)
    elif kind == "tuple":
        comps = _refs(reg.spaces, decl, "components", path)
        space = (PhysicalTupleSpace if physical else TupleSpace)(ident, comps)
    else:
        raise ScenarioSyntaxError(f"{path}.kind: unknown space kind {kind!r}")
    reg.declare(reg.spaces, ident, space, path)
    return space


def _state_value(space, encoded: Any, path: str) -> Value:
    try:
        return normalize_value(space, raw_value(encoded))
    except OutOfDomain as err:
        raise ScenarioSyntaxError(f"{path}: {err}") from err


def _parse_entries(entries: Any, key_space, value_space, path: str) -> dict:
    table = {}
    for i, pair in enumerate(_expect(entries, path, list, "a list of pairs")):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ScenarioSyntaxError(f"{path}[{i}]: expected a [key, value] pair")
        k = _state_value(key_space, pair[0], f"{path}[{i}][0]")
        v = _state_value(value_space, pair[1], f"{path}[{i}][1]")
        table[k] = v
    return table


def _parse_relation(decl: dict, path: str, reg: _Registry) -> RepresentationRelation:
    ident = _get(decl, "id", path)
    domain = _ref(reg.spaces, decl, "domain", path)
    codomain = _ref(reg.spaces, decl, "codomain", path)
    rule_decl = _get(decl, "rule", path)
    kind = _get(rule_decl, "kind", f"{path}.rule")
    if kind == "lookup":
        rule = LookupRule(
            _parse_entries(_get(rule_decl, "entries", f"{path}.rule"), domain, codomain, f"{path}.rule.entries")
        )
    elif kind == "threshold":
        thresholds = _get(rule_decl, "thresholds", f"{path}.rule")
        rule = ThresholdRule(
            tuple(_scalar(t, f"{path}.rule.thresholds[{i}]") for i, t in enumerate(thresholds))
        )
    elif kind == "tuple-wise":
        rule = TupleWiseRule(_refs(reg.relations, rule_decl, "parts", f"{path}.rule"))
    else:
        raise ScenarioSyntaxError(f"{path}.rule.kind: unknown rule kind {kind!r}")
    relation = RepresentationRelation(ident, domain, codomain, rule)
    reg.declare(reg.relations, ident, relation, path)
    return relation


def _parse_dynamics(decl: dict, path: str, reg: _Registry, other_rule) -> tuple:
    """The id, space and rule every dynamics declares.

    Table rules are parsed here; ``other_rule(kind, rule_decl, rule_path,
    reg)`` parses the kinds particular to one side.
    """
    ident = _get(decl, "id", path)
    if ident in BUILTIN_NAMES:
        raise ScenarioSyntaxError(f"{path}.id: {ident!r} is a reserved builtin name")
    space = _ref(reg.spaces, decl, "space", path)
    rule_decl = _get(decl, "rule", path)
    rpath = f"{path}.rule"
    kind = _get(rule_decl, "kind", rpath)
    if kind == "table":
        entries = _parse_entries(_get(rule_decl, "entries", rpath), space, space, f"{rpath}.entries")
        return ident, space, TableRule(entries)
    return ident, space, other_rule(kind, rule_decl, rpath, reg)


def _abstract_rule(kind: str, rule_decl: dict, rpath: str, reg: _Registry):
    if kind == "builtin":
        return BuiltinRule(_get(rule_decl, "name", rpath))
    if kind == "chain":
        return ChainRule(_refs(reg.abstract_dynamics, rule_decl, "parts", rpath))
    raise ScenarioSyntaxError(f"{rpath}.kind: unknown rule kind {kind!r}")


def _physical_rule(kind: str, rule_decl: dict, rpath: str, reg: _Registry):
    if kind != "coordinate-update":
        raise ScenarioSyntaxError(f"{rpath}.kind: unknown rule kind {kind!r}")
    assignments = []
    for i, a in enumerate(_get(rule_decl, "assignments", rpath)):
        apath = f"{rpath}.assignments[{i}]"
        op = _get(a, "op", apath)
        if op == "binary-sum":
            lines = (tuple(_get(a, k, apath)) for k in ("a", "b", "out"))
            levels = (_scalar(_get(a, k, apath), f"{apath}.{k}") for k in ("threshold", "low", "high"))
            assignments.append(BinarySumUpdate(*lines, *levels))
        elif op == "constant":
            values = _get(a, "values", apath)
            assignments.append(
                ConstantUpdate(
                    tuple(_get(a, "lines", apath)),
                    tuple(_scalar(v, f"{apath}.values[{i}]") for i, v in enumerate(values)),
                )
            )
        else:
            raise ScenarioSyntaxError(f"{apath}.op: unknown assignment op {op!r}")
    return CoordinateUpdateRule(tuple(assignments))


def _parse_abstract_dynamics(decl: dict, path: str, reg: _Registry) -> AbstractDynamics:
    dyn = AbstractDynamics(*_parse_dynamics(decl, path, reg, _abstract_rule))
    reg.declare(reg.abstract_dynamics, dyn.id, dyn, path)
    return dyn


def _parse_physical_dynamics(decl: dict, path: str, reg: _Registry) -> PhysicalDynamics:
    ident, space, rule = _parse_dynamics(decl, path, reg, _physical_rule)
    # Abstract and physical dynamics share one namespace, as the spaces do.
    if ident in reg.abstract_dynamics:
        raise DuplicateIdentifier(path, ident)
    noise_decl = decl.get("noise")
    noise = None
    if noise_decl is not None:
        npath = f"{path}.noise"
        nkind = _get(noise_decl, "kind", npath)
        probability = _scalar(_get(noise_decl, "probability", npath), f"{npath}.probability")
        if nkind == "coordinate-flip":
            levels = ("threshold", "low", "high")
            noise = CoordinateFlipNoise(
                probability,
                tuple(_get(noise_decl, "coordinates", npath)),
                *(_scalar(_get(noise_decl, k, npath), f"{npath}.{k}") for k in levels),
            )
        elif nkind == "label-flip":
            noise = LabelFlipNoise(
                probability, {k: v for k, v in _get(noise_decl, "partners", npath)}
            )
        else:
            raise ScenarioSyntaxError(f"{npath}.kind: unknown noise kind {nkind!r}")
    dyn = PhysicalDynamics(ident, space, rule, noise)
    reg.declare(reg.physical_dynamics, ident, dyn, path)
    return dyn


def _parse_theory(decl: dict, path: str, reg: _Registry) -> Theory:
    ident = _get(decl, "id", path)
    relation = _ref(reg.relations, decl, "representation", path)
    domain = tuple(
        PhysicalState(relation.domain, _state_value(relation.domain, v, f"{path}.domain[{i}]"))
        for i, v in enumerate(_get(decl, "domain", path))
    )
    predictions = []
    for i, pd in enumerate(_get(decl, "predictions", path)):
        ppath = f"{path}.predictions[{i}]"
        predictions.append(
            Prediction(
                _get(pd, "name", ppath),
                _ref(reg.abstract_dynamics, pd, "abstract", ppath),
                _ref(reg.physical_dynamics, pd, "physical", ppath),
            )
        )
    inst_decl = decl.get("instantiation")
    instantiation = None
    if inst_decl is not None:
        ipath = f"{path}.instantiation"
        seeds = tuple(
            PhysicalState(relation.domain, _state_value(relation.domain, v, f"{ipath}.seeds[{i}]"))
            for i, v in enumerate(_get(inst_decl, "seeds", ipath))
        )
        engineering = _ref(reg.physical_dynamics, inst_decl, "engineering", ipath)
        instantiation = InstantiationProcedure(seeds, engineering)
    theory = Theory(ident, relation, domain, tuple(predictions), instantiation)
    reg.declare(reg.theories, ident, theory, path)
    return theory


def _parse_stack(decl: dict, path: str, reg: _Registry) -> RefinementStack:
    ident = _get(decl, "id", path)
    layers = []
    layer_table: dict[str, RefinementLayer] = {}
    for i, ld in enumerate(_get(decl, "layers", path)):
        lpath = f"{path}.layers[{i}]"
        layer = RefinementLayer(
            _get(ld, "id", lpath),
            _ref(reg.spaces, ld, "space", lpath),
            _ref(reg.abstract_dynamics, ld, "dynamics", lpath),
        )
        if layer.id in layer_table:
            raise DuplicateIdentifier(lpath, layer.id)
        layer_table[layer.id] = layer
        layers.append(layer)
    relations = tuple(
        _checked(_parse_simulation, rd, f"{path}.relations[{i}]", layer_table)
        for i, rd in enumerate(_get(decl, "relations", path))
    )
    theory = _ref(reg.theories, decl, "theory", path)
    device = _ref(reg.physical_dynamics, decl, "device", path)
    stack = RefinementStack(ident, tuple(layers), relations, theory, device)
    reg.declare(reg.stacks, ident, stack, path)
    return stack


def _parse_simulation(decl: dict, path: str, layers: dict) -> SimulationRelation:
    upper = _ref(layers, decl, "upper", path)
    lower = _ref(layers, decl, "lower", path)
    entries = _parse_entries(_get(decl, "entries", path), upper.space, lower.space, f"{path}.entries")
    return SimulationRelation(_get(decl, "id", path), upper, lower, entries)


def _parse_component(decl: dict, path: str, reg: _Registry) -> Component:
    return Component(
        _ref(reg.theories, decl, "theory", path),
        _ref(reg.abstract_dynamics, decl, "dynamics", path),
    )


def _parse_composition(decl: dict, path: str, reg: _Registry) -> JointSystem:
    ident = _get(decl, "id", path)
    mode = _get(decl, "mode", path)
    left = _parse_component(_get(decl, "left", path), f"{path}.left", reg)
    right = _parse_component(_get(decl, "right", path), f"{path}.right", reg)
    if mode in ("parallel", "sequential"):
        joint = componentwise_joint(ident, left, right, f"composed-{mode}")
    elif mode == "declared":
        joint = JointSystem(
            ident,
            left,
            right,
            _ref(reg.spaces, decl, "joint_space", path),
            _ref(reg.relations, decl, "joint_representation", path),
            _ref(reg.abstract_dynamics, decl, "joint_dynamics", path),
            "declared",
        )
    else:
        raise ScenarioSyntaxError(f"{path}.mode: unknown composition mode {mode!r}")
    reg.declare(reg.joints, ident, joint, path)
    return joint


#: Check fields that name a declared object (or, for expect_class, a class).
_CHECK_REFERENCES = ("theory", "prediction", "stack", "relation", "joint", "expect_class")


def _parse_check(decl: dict, path: str, seen: set) -> CheckSpec:
    name = _get(decl, "name", path)
    if name in seen:
        raise DuplicateIdentifier(path, name)
    seen.add(name)
    kind = _get(decl, "kind", path)
    if kind not in CHECK_KINDS:
        raise ScenarioSyntaxError(f"{path}.kind: unknown check kind {kind!r}")
    metric = decl.get("metric", "discrete")
    if metric not in METRICS:
        raise ScenarioSyntaxError(f"{path}.metric: unknown metric {metric!r}")
    physical_metric = decl.get("physical_metric")
    if kind == "history" and physical_metric is None:
        raise ScenarioSyntaxError(f"{path}: history checks must declare a physical metric")
    if physical_metric is not None and physical_metric not in METRICS:
        raise ScenarioSyntaxError(f"{path}.physical_metric: unknown metric {physical_metric!r}")
    refs = {key: decl.get(key) for key in _CHECK_REFERENCES}
    for key, ref in refs.items():
        if ref is not None and not isinstance(ref, str):
            raise ScenarioSyntaxError(f"{path}.{key}: expected a string identifier")
    return CheckSpec(
        name=name,
        kind=kind,
        state=raw_value(decl.get("state")),
        input=raw_value(decl.get("input")),
        expect=raw_value(decl.get("expect")),
        physical_metric=physical_metric,
        **refs,
        oracle=_scalar(decl.get("oracle", False), f"{path}.oracle", "flag"),
        epsilon=_scalar(decl.get("epsilon", 0.0), f"{path}.epsilon"),
        metric=metric,
        trials=_scalar(decl.get("trials", 1), f"{path}.trials", "integer"),
        required_success=_scalar(decl.get("required_success", 1.0), f"{path}.required_success"),
    )


def parse_scenario(text: str) -> ScenarioBundle:
    """Parse document text into a fully resolved bundle.

    Raises a diagnostic carrying the position (line and column for syntax
    problems, the document path otherwise) and the offending identifier.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioSyntaxError(err.msg, err.lineno, err.colno) from err
    _expect(doc, "document", dict, "a JSON object")
    for key in doc:
        if key not in _SECTIONS:
            raise ScenarioSyntaxError(f"document: unknown section {key!r}")
    version = doc.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise VersionUnsupported(f"unsupported format version {version!r}")

    reg = _Registry()
    seen_names: set = set()
    parsed = {}
    for field, path, parser, *args in (
        ("abstract_spaces", "spaces.abstract", _parse_space, False, reg),
        ("physical_spaces", "spaces.physical", _parse_space, True, reg),
        ("relations", "relations", _parse_relation, reg),
        ("abstract_dynamics", "dynamics.abstract", _parse_abstract_dynamics, reg),
        ("physical_dynamics", "dynamics.physical", _parse_physical_dynamics, reg),
        ("theories", "theories", _parse_theory, reg),
        ("stacks", "stacks", _parse_stack, reg),
        ("joints", "compositions", _parse_composition, reg),
        ("checks", "checks", _parse_check, seen_names),
    ):
        section, _, part = path.partition(".")
        decls = doc.get(section, {} if part else [])
        if part:
            decls = _expect(decls, section, dict, "an object").get(part, [])
        parsed[field] = tuple(
            _checked(parser, d, f"{path}[{i}]", *args)
            for i, d in enumerate(_expect(decls, path, list, "a list"))
        )
    return ScenarioBundle(format_version=version, **parsed)


def _emit_space(space) -> dict:
    if isinstance(space, (LabelSpace, PhysicalLabelSpace)):
        return {"id": space.id, "kind": "labels", "labels": list(space.labels)}
    if isinstance(space, BitSpace):
        return {"id": space.id, "kind": "bits", "width": space.width}
    if isinstance(space, IntSpace):
        return {"id": space.id, "kind": "ints", "lo": space.lo, "hi": space.hi}
    if isinstance(space, RealVectorSpace):
        return {"id": space.id, "kind": "vector", "bounds": [list(b) for b in space.bounds]}
    return {"id": space.id, "kind": "tuple", "components": [c.id for c in space.components]}


def _emit_entries(entries: dict, key_space) -> list:
    return [[value_to_json(k), value_to_json(entries[k])] for k in enumerate_values(key_space)]


def _emit_relation(relation: RepresentationRelation) -> dict:
    rule = relation.rule
    if isinstance(rule, LookupRule):
        encoded = {
            "kind": "lookup",
            "entries": _emit_entries(rule.entries, relation.domain),
        }
    elif isinstance(rule, ThresholdRule):
        encoded = {"kind": "threshold", "thresholds": list(rule.thresholds)}
    else:
        encoded = {"kind": "tuple-wise", "parts": [p.id for p in rule.parts]}
    return {
        "id": relation.id,
        "domain": relation.domain.id,
        "codomain": relation.codomain.id,
        "rule": encoded,
    }


def _emit_abstract_dynamics(dyn: AbstractDynamics) -> dict:
    rule = dyn.rule
    if isinstance(rule, TableRule):
        encoded = {"kind": "table", "entries": _emit_entries(rule.entries, dyn.space)}
    elif isinstance(rule, BuiltinRule):
        encoded = {"kind": "builtin", "name": rule.name}
    else:
        encoded = {"kind": "chain", "parts": [p.id for p in rule.parts]}
    return {"id": dyn.id, "space": dyn.space.id, "rule": encoded}


def _emit_physical_dynamics(dyn: PhysicalDynamics) -> dict:
    rule = dyn.rule
    if isinstance(rule, TableRule):
        encoded = {"kind": "table", "entries": _emit_entries(rule.entries, dyn.space)}
    else:
        assignments = []
        for a in rule.assignments:
            if isinstance(a, BinarySumUpdate):
                assignments.append(
                    {
                        "op": "binary-sum",
                        "a": list(a.a_lines),
                        "b": list(a.b_lines),
                        "out": list(a.out_lines),
                        "threshold": a.threshold,
                        "low": a.low,
                        "high": a.high,
                    }
                )
            else:
                assignments.append(
                    {"op": "constant", "lines": list(a.lines), "values": list(a.values)}
                )
        encoded = {"kind": "coordinate-update", "assignments": assignments}
    out = {"id": dyn.id, "space": dyn.space.id, "rule": encoded}
    if dyn.noise is not None:
        if isinstance(dyn.noise, CoordinateFlipNoise):
            out["noise"] = {
                "kind": "coordinate-flip",
                "probability": dyn.noise.probability,
                "coordinates": list(dyn.noise.coordinates),
                "threshold": dyn.noise.threshold,
                "low": dyn.noise.low,
                "high": dyn.noise.high,
            }
        else:
            out["noise"] = {
                "kind": "label-flip",
                "probability": dyn.noise.probability,
                "partners": [[k, dyn.noise.partners[k]] for k in sorted(dyn.noise.partners)],
            }
    return out


def _emit_theory(theory: Theory) -> dict:
    out = {
        "id": theory.id,
        "representation": theory.representation.id,
        "domain": [value_to_json(s.value) for s in theory.domain],
        "predictions": [
            {"name": p.name, "abstract": p.abstract.id, "physical": p.physical.id}
            for p in theory.predictions
        ],
    }
    if theory.instantiation is not None:
        out["instantiation"] = {
            "seeds": [value_to_json(s.value) for s in theory.instantiation.seeds],
            "engineering": theory.instantiation.engineering.id,
        }
    return out


def _emit_stack(stack: RefinementStack) -> dict:
    return {
        "id": stack.id,
        "layers": [
            {"id": l.id, "space": l.space.id, "dynamics": l.dynamics.id} for l in stack.layers
        ],
        "relations": [
            {
                "id": r.id,
                "upper": r.upper.id,
                "lower": r.lower.id,
                "entries": _emit_entries(r.entries, r.upper.space),
            }
            for r in stack.relations
        ],
        "theory": stack.theory.id,
        "device": stack.device.id,
    }


def _emit_composition(joint: JointSystem) -> dict:
    out = {
        "id": joint.id,
        "mode": {
            "composed-parallel": "parallel",
            "composed-sequential": "sequential",
            "declared": "declared",
        }[joint.provenance],
        "left": {"theory": joint.left.theory.id, "dynamics": joint.left.dynamics.id},
        "right": {"theory": joint.right.theory.id, "dynamics": joint.right.dynamics.id},
    }
    if joint.provenance == "declared":
        out["joint_space"] = joint.joint_space.id
        out["joint_representation"] = joint.joint_representation.id
        out["joint_dynamics"] = joint.joint_dynamics.id
    return out


def _emit_check(check: CheckSpec) -> dict:
    out: dict[str, Any] = {"name": check.name, "kind": check.kind}
    for key in ("theory", "prediction", "stack", "relation", "joint", "expect_class", "physical_metric"):
        value = getattr(check, key)
        if value is not None:
            out[key] = value
    for key in ("state", "input", "expect"):
        value = getattr(check, key)
        if value is not None:
            out[key] = value_to_json(value)
    if check.oracle:
        out["oracle"] = True
    out["epsilon"] = check.epsilon
    out["metric"] = check.metric
    out["trials"] = check.trials
    out["required_success"] = check.required_success
    return out


def emit_scenario(bundle: ScenarioBundle) -> str:
    """Serialize a bundle as document text that parses back equal."""
    doc = {
        "format_version": bundle.format_version,
        "spaces": {
            "abstract": [_emit_space(s) for s in bundle.abstract_spaces],
            "physical": [_emit_space(s) for s in bundle.physical_spaces],
        },
        "relations": [_emit_relation(r) for r in bundle.relations],
        "dynamics": {
            "abstract": [_emit_abstract_dynamics(d) for d in bundle.abstract_dynamics],
            "physical": [_emit_physical_dynamics(d) for d in bundle.physical_dynamics],
        },
        "theories": [_emit_theory(t) for t in bundle.theories],
        "stacks": [_emit_stack(s) for s in bundle.stacks],
        "compositions": [_emit_composition(j) for j in bundle.joints],
        "checks": [_emit_check(c) for c in bundle.checks],
    }
    return json.dumps(doc, indent=2) + "\n"
