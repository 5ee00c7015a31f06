"""Scenario documents: parsing, resolution, and emission.

A scenario file is a UTF-8 JSON document with a fixed section order
(spaces, relations, dynamics, theories, stacks, compositions, checks).
Identifiers must be declared before they are referenced and are unique per
section. Parsing yields a fully resolved bundle; emission writes a document
that parses back to an equal bundle, and refuses with a DeclarationError
what the reader would refuse or read as another object. Check declarations
keep their object references as identifiers, so that a check naming a
missing object is a per-check error at run time, not a bad document.

The field tables below, walked from ``_SECTIONS``, are the one description
of the format. Each declaration kind lists its fields in document order:
JSON key, kind of value, the attribute it fills and its default. One reader
(``_read``) and one writer (``_write``) walk them, and each enters what it
declares in the same registry (``_enter``). The reader checks only what JSON
alone decides: shapes, identifiers, tags, references and state values. Each
constructor checks its own fields and names the one it rejects, and the
reader reports that field at its document path.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from functools import lru_cache, partial
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, NoReturn, get_args

from .composition import Component, JointSystem, _is_componentwise, componentwise_joint
from .dynamics import (
    AbstractDynamics,
    BUILTIN_NAMES,
    BinarySumUpdate,
    BuiltinRule,
    ConstantUpdate,
    CoordinateFlipNoise,
    CoordinateUpdateRule,
    PhysicalDynamics,
    ProductRule,
    TableRule,
    ThresholdRule,
)
from .errors import (
    DeclarationError,
    DuplicateIdentifier,
    ModelError,
    OutOfDomain,
    ScenarioError,
    ScenarioSyntaxError,
    VersionUnsupported,
    resolve,
)
from .refinement import RefinementLayer, RefinementStack, SimulationRelation
from .relations import InstantiationProcedure, Prediction, RepresentationRelation, Theory
from .scenarios import CheckSpec, FormatVersion, ScenarioBundle
from .spaces import (
    BitSpace,
    IntSpace,
    LabelSpace,
    PhysicalLabelSpace,
    PhysicalState,
    PhysicalTupleSpace,
    RealVectorSpace,
    TupleSpace,
    _canonical,
    _trusted,
    enumerate_values,
    normalize_value,
)


def _expect(obj: Any, path: str, kind: type, what: str) -> Any:
    if not isinstance(obj, kind):
        raise ScenarioSyntaxError(f"{path}: expected {what}")
    return obj


def _refuse_unknown(obj: dict, keys, path: str, what: str = "key") -> None:
    """Refuse the first key of ``obj`` that ``keys`` does not hold, at ``path``."""
    if obj.keys() - keys:
        key = next(k for k in obj if k not in keys)
        raise ScenarioSyntaxError(f"{path}: unknown {what} {key!r}")


def _reject(space, encoded: Any, path: str) -> NoReturn:
    """Raise the diagnostic at ``path`` for the JSON value ``encoded``: not in ``space``, or a repeated key."""
    try:
        key = normalize_value(space, encoded)
    except OutOfDomain as err:
        raise ScenarioSyntaxError(f"{path}: {err}") from err
    raise ScenarioSyntaxError(f"{path}: duplicate key {key!r}")


def _parse_entries(entries: Any, key_space, value_space, path: str) -> dict:
    """A table's pairs as canonical members of its spaces, each space's rule looked up once."""
    table, key_of, image_of = {}, _canonical(key_space), _canonical(value_space)
    for i, pair in enumerate(_expect(entries, path, list, "a list of pairs")):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ScenarioSyntaxError(f"{path}[{i}]: expected a [key, value] pair")
        k, v = pair
        if (key := key_of(key_space, k)) is None or key in table:
            _reject(key_space, k, f"{path}[{i}][0]")
        if (image := image_of(value_space, v)) is None:
            _reject(value_space, v, f"{path}[{i}][1]")
        table[key] = image
    return table


_REQUIRED = object()


class _F(NamedTuple):
    """One field of a declaration.

    ``key`` is its JSON key and ``attr`` the attribute it fills (``key``
    when unset). A field without a default is required; one whose default
    is None may also be written as null, and is then left out on emission.
    ``arg`` depends on the kind:

    - ``name``: a string identifier; ``arg``, if set, lists reserved names.
    - ``tag``: a string in ``arg = (noun, choices)``, where ``choices`` maps
      each tag to the ``_Decl`` that builds the object; that declaration's
      fields follow the others.
    - ``ref``, ``refs``: an identifier, or an array of them, declared in
      the registry table ``arg``.
    - ``states``: state values of the space named by ``arg``.
    - ``entries``: an array of ``[key, value]`` pairs, read into a dict of
      members of the spaces ``arg = (keys, values)`` and emitted in the key
      space's order.
    - ``one``, ``many``: the ``_Decl`` ``arg``, or an array of them.
    - ``raw`` (any JSON value), ``number``, ``integer``, ``flag`` (emitted
      only when true), ``enum``, ``list``, ``numbers`` and ``bounds``
      (``[lo, hi]`` number pairs): passed as read to the constructor, which
      checks them.

    Space names in ``arg`` are dotted attribute paths, looked up in the
    declaration and then in the declarations enclosing it.
    """

    key: str
    kind: str
    attr: str | None = None
    default: Any = _REQUIRED
    arg: Any = None


class _Decl(NamedTuple):
    """A declaration kind: its fields, and how it builds and declares its object.

    A declaration stored in registry ``tables`` is unique across all of
    them, and is keyed by its first field. ``fresh`` names a table that
    starts empty for each declaration. ``tag_of`` gives a built object's
    tag where its type does not.
    """

    build: Callable | None
    fields: tuple
    tables: tuple = ()
    fresh: str | None = None
    tag_of: Callable | None = None


def _find(scopes: tuple, dotted: str) -> Any:
    """``dotted`` looked up in the innermost scope that has its first name."""
    head, *rest = dotted.split(".")
    value = getattr(next(s for s in scopes if hasattr(s, head)), head)
    for name in rest:
        value = getattr(value, name)
    return value


def _read(decl: _Decl, obj: Any, path: str, reg: dict, outer: tuple = ()) -> Any:
    """Build and declare the object ``obj`` declares at ``path``.

    Model errors and shape errors become diagnostics at ``path``, or at the
    path of the field of this declaration that a DeclarationError names.
    """
    build, fields = decl.build, list(decl.fields)
    try:
        _expect(obj, path, dict, "an object")
        scope = SimpleNamespace()
        scopes = (scope, *outer)
        for f in fields:  # a tag appends its declaration's fields
            if f.key not in obj:
                if f.default is _REQUIRED:
                    raise ScenarioSyntaxError(f"{path}: missing key {f.key!r}")
                value = f.default
            elif obj[f.key] is None and f.default is None:
                value = None
            else:
                value = _value(f, obj[f.key], f"{path}.{f.key}", reg, scopes)
            if f.kind == "tag":
                build = value.build
                fields += value.fields
            else:
                setattr(scope, f.attr or f.key, value)
        _refuse_unknown(obj, [f.key for f in fields], path)
        built = build(**vars(scope))
    except ScenarioError:
        raise
    except ModelError as err:  # at the path of the field of this declaration it names, if any
        attr, bracket, index = (getattr(err, "field", None) or "").partition("[")
        key = next((f.key for f in fields if attr == (f.attr or f.key)), None)
        where = f"{path}: {err}" if key is None else f"{path}.{key}{bracket}{index}: {err.reason}"
        raise ScenarioSyntaxError(where) from err
    _enter(decl, built, path, reg)
    return built


def _enter(decl: _Decl, obj: Any, path: str | tuple, reg: dict) -> None:
    """Declare ``obj``, read or written at ``path``, in ``reg``; the ``fresh`` table starts over."""
    if decl.tables:
        ident = getattr(obj, decl.fields[0].key)
        if any(ident in reg[table] for table in decl.tables):
            raise DuplicateIdentifier(_at(path), ident)
        reg[decl.tables[0]][ident] = obj
    if decl.fresh:
        reg[decl.fresh] = {}


def _value(f: _F, v: Any, path: str, reg: dict, scopes: tuple) -> Any:
    """Field ``f`` read from the JSON value ``v`` at ``path``."""
    kind, arg = f.kind, f.arg
    if kind == "name":
        _expect(v, path, str, "a string identifier")
        if arg and v in arg:
            raise ScenarioSyntaxError(f"{path}: {v!r} is a reserved builtin name")
        return v
    if kind == "tag":
        noun, choices = arg
        if not isinstance(v, str) or v not in choices:
            raise ScenarioSyntaxError(f"{path}: unknown {noun} {v!r}")
        return choices[v]
    if kind == "ref":
        return resolve(reg[arg], v, path)
    if kind == "one":
        return _read(arg, v, path, reg, scopes)
    if kind == "entries":
        return _parse_entries(v, *(_find(scopes, space) for space in arg), path)
    if kind not in ("refs", "many", "states"):
        return v  # the constructor checks the others
    items = enumerate(_expect(v, path, list, "a list"))
    if kind == "refs":
        return tuple(resolve(reg[arg], x, f"{path}[{i}]") for i, x in items)
    if kind == "many":
        return tuple(_read(arg, x, f"{path}[{i}]", reg, scopes) for i, x in items)
    space = _find(scopes, arg)  # states
    values = list(map(_canonical(space), [space] * len(v), v))
    if None in values:
        _reject(space, v[values.index(None)], f"{path}[{values.index(None)}]")
    return tuple([_trusted(PhysicalState, space, x) for x in values])


def _write(decl: _Decl, obj: Any, path: tuple, reg: dict, outer: tuple = ()) -> dict:
    """The JSON object that declares ``obj`` at ``path``, its fields in document order, then declared."""
    out: dict[str, Any] = {}
    scopes = (obj, *outer)
    fields = list(decl.fields)
    for f in fields:  # a tag appends its declaration's fields
        if f.kind == "tag":
            choices = f.arg[1]
            if decl.tag_of:
                tag = decl.tag_of(obj)
            else:
                tag = next((t for t, d in choices.items() if type(obj) is d.build), None)
            if tag not in choices:
                raise DeclarationError(f"{_at(path)}: no {f.arg[0]} writes a {type(obj).__name__}")
            out[f.key] = tag
            fields += choices[tag].fields
            continue
        value = getattr(obj, f.attr or f.key)
        if value is not None and (value or f.kind != "flag"):
            out[f.key] = _json(f, value, (path, f.key), reg, scopes)
    _enter(decl, obj, path, reg)
    return out


def _json(f: _F, value: Any, path: tuple, reg: dict, scopes: tuple) -> Any:
    """Field ``f``'s attribute ``value``, at ``path``, encoded as JSON."""
    kind = f.kind
    if kind == "ref":
        return _ref(reg[f.arg], value, path)
    if kind == "refs":
        return [_ref(reg[f.arg], v, (path, i)) for i, v in enumerate(value)]
    if kind == "states":
        return [s.value for s in value]  # the encoder writes tuples as arrays
    if kind == "entries":
        return [(k, value[k]) for k in enumerate_values(_find(scopes, f.arg[0]))]
    if kind == "one":
        return _write(f.arg, value, path, reg, scopes)
    if kind == "many":
        return [_write(f.arg, v, (path, i), reg, scopes) for i, v in enumerate(value)]
    return value


def _ref(table: dict, obj: Any, path: tuple) -> str:
    """``obj``'s identifier, which ``table`` declares as ``obj`` or as its equal in each constructor field."""
    declared = table[obj.id] if obj.id in table else resolve(table, obj.id, _at(path))
    if declared is not obj and (type(declared) is not type(obj) or any(
            getattr(declared, name) != getattr(obj, name) for name in obj.__match_args__)):
        raise DeclarationError(f"{_at(path)}: {obj.id!r} is declared before it as another object")
    return obj.id


def _at(path) -> str:
    """A document path as a refusal reads it; ``_write`` keeps it as (parent, key or index) pairs."""
    if isinstance(path, str):
        return path
    return _at(path[0]) + (f"[{path[1]}]" if isinstance(path[1], int) else f".{path[1]}")


def _tag(key: str, noun: str, choices: dict) -> _F:
    """The field whose value, one of ``choices``' keys, picks the declaration that follows."""
    return _F(key, "tag", arg=(noun, choices))


_ID = _F("id", "name")
_LABELS = _F("labels", "list")
_COMPONENTS = _F("components", "refs", arg="spaces")
_TABLE = _Decl(TableRule, (_F("entries", "entries", arg=("space", "space")),))
_DYNAMICS_ID = _F("id", "name", arg=BUILTIN_NAMES)
_LEVELS = tuple(_F(key, "number") for key in ("threshold", "low", "high"))
_OPTIONAL = partial(_F, default=None)

_ABSTRACT_SPACE = _Decl(None, (_ID, _tag("kind", "space kind", {
    "labels": _Decl(LabelSpace, (_LABELS,)),
    "bits": _Decl(BitSpace, (_F("width", "integer"),)),
    "ints": _Decl(IntSpace, (_F("lo", "integer"), _F("hi", "integer"))),
    "tuple": _Decl(TupleSpace, (_COMPONENTS,)),
})), ("spaces",))
_PHYSICAL_SPACE = _Decl(None, (_ID, _tag("kind", "space kind", {
    "labels": _Decl(PhysicalLabelSpace, (_LABELS,)),
    "vector": _Decl(RealVectorSpace, (_F("bounds", "bounds"),)),
    "tuple": _Decl(PhysicalTupleSpace, (_COMPONENTS,)),
})), ("spaces",))
_RELATION = _Decl(RepresentationRelation, (
    _ID,
    _F("domain", "ref", arg="spaces"),
    _F("codomain", "ref", arg="spaces"),
    _F("rule", "one", arg=_Decl(None, (_tag("kind", "rule kind", {
        "lookup": _Decl(TableRule, (_F("entries", "entries", arg=("domain", "codomain")),)),
        "threshold": _Decl(ThresholdRule, (_F("thresholds", "numbers"),)),
        "tuple-wise": _Decl(ProductRule, (_F("parts", "refs", arg="relations"),)),
    }),))),
), ("relations",))
# Abstract and physical dynamics share one namespace.
_ABSTRACT_DYNAMICS = _Decl(AbstractDynamics, (
    _DYNAMICS_ID,
    _F("space", "ref", arg="spaces"),
    _F("rule", "one", arg=_Decl(None, (_tag("kind", "rule kind", {
        "table": _TABLE,
        "builtin": _Decl(BuiltinRule, (_F("name", "enum"),)),
    }),))),
), ("abstract_dynamics", "physical_dynamics"))
_ASSIGNMENT = _Decl(None, (_tag("op", "assignment op", {
    "binary-sum": _Decl(BinarySumUpdate, (
        *(_F(key, "list", f"{key}_lines") for key in ("a", "b", "out")),
        *_LEVELS,
    )),
    "constant": _Decl(ConstantUpdate, (_F("lines", "list"), _F("values", "numbers"))),
}),))
_NOISE = _Decl(None, (
    _tag("kind", "noise kind", {
        "coordinate-flip": _Decl(CoordinateFlipNoise, (_F("coordinates", "list"), *_LEVELS)),
    }),
    _F("probability", "number"),
))
_PHYSICAL_DYNAMICS = _Decl(PhysicalDynamics, (
    _DYNAMICS_ID,
    _F("space", "ref", arg="spaces"),
    _F("rule", "one", arg=_Decl(None, (_tag("kind", "rule kind", {
        "table": _TABLE,
        "coordinate-update": _Decl(CoordinateUpdateRule, (
            _F("assignments", "many", arg=_ASSIGNMENT),
        )),
    }),))),
    _OPTIONAL("noise", "one", arg=_NOISE),
), ("physical_dynamics", "abstract_dynamics"))
_THEORY = _Decl(Theory, (
    _ID,
    _F("representation", "ref", arg="relations"),
    _F("domain", "states", arg="representation.domain"),
    _F("predictions", "many", arg=_Decl(Prediction, (
        _F("name", "name"),
        _F("abstract", "ref", arg="abstract_dynamics"),
        _F("physical", "ref", arg="physical_dynamics"),
    ))),
    _OPTIONAL("instantiation", "one", arg=_Decl(InstantiationProcedure, (
        _F("seeds", "states", arg="representation.domain"),
        _F("engineering", "ref", arg="physical_dynamics"),
    ))),
), ("theories",))
_STACK = _Decl(RefinementStack, (
    _ID,
    _F("layers", "many", arg=_Decl(RefinementLayer, (
        _ID,
        _F("space", "ref", arg="spaces"),
        _F("dynamics", "ref", arg="abstract_dynamics"),
    ), ("layers",))),
    _F("relations", "many", arg=_Decl(SimulationRelation, (
        _ID,
        _F("upper", "ref", arg="layers"),
        _F("lower", "ref", arg="layers"),
        _F("entries", "entries", arg=("upper.space", "lower.space")),
    ))),
    _F("theory", "ref", arg="theories"),
    _F("device", "ref", arg="physical_dynamics"),
), ("stacks",), fresh="layers")  # layer identifiers are scoped to their stack
_COMPONENT = _Decl(Component, (
    _F("theory", "ref", arg="theories"),
    _F("dynamics", "ref", arg="abstract_dynamics"),
))
_COMPOSITION = _Decl(None, (
    _ID,
    _tag("mode", "composition mode", {
        "parallel": _Decl(componentwise_joint, ()),
        "declared": _Decl(partial(JointSystem, provenance="declared"), (
            _F("joint_space", "ref", arg="spaces"),
            _F("joint_representation", "ref", arg="relations"),
            _F("joint_dynamics", "ref", arg="abstract_dynamics"),
        )),
    }),
    _F("left", "one", arg=_COMPONENT),
    _F("right", "one", arg=_COMPONENT),
), ("joints",), tag_of=lambda joint: "parallel" if _is_componentwise(joint) else "declared")
_CHECK = _Decl(CheckSpec, (
    _F("name", "name"),
    _F("kind", "enum"),
    # Checks name the objects they use, and resolve them at run time.
    *(_OPTIONAL(key, "name") for key in ("theory", "prediction", "stack", "relation", "joint")),
    *(_OPTIONAL(key, "enum") for key in ("expect_class", "physical_metric")),
    *(_OPTIONAL(key, "raw") for key in ("state", "input", "expect")),
    _F("oracle", "flag", default=False),
    _F("epsilon", "number", default=0.0),
    _F("metric", "enum", default="discrete"),
    _F("trials", "integer", default=1),
    _F("required_success", "number", default=1.0),
), ("checks",))

#: The document's sections in order: the bundle field each fills, its
#: document path, and the declaration kind it lists.
_SECTIONS = (
    ("abstract_spaces", "spaces.abstract", _ABSTRACT_SPACE),
    ("physical_spaces", "spaces.physical", _PHYSICAL_SPACE),
    ("relations", "relations", _RELATION),
    ("abstract_dynamics", "dynamics.abstract", _ABSTRACT_DYNAMICS),
    ("physical_dynamics", "dynamics.physical", _PHYSICAL_DYNAMICS),
    ("theories", "theories", _THEORY),
    ("stacks", "stacks", _STACK),
    ("joints", "compositions", _COMPOSITION),
    ("checks", "checks", _CHECK),
)
_TOP_LEVEL = {"format_version"} | {path.partition(".")[0] for _, path, _ in _SECTIONS}


def _loads(text: str, what: str = ""):
    """``text`` read as JSON, or a ScenarioSyntaxError starting with ``what``; an object repeats no key."""
    try:
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as err:
        raise ScenarioSyntaxError(f"{what}{err.msg}", err.lineno, err.colno) from err
    except (ValueError, RecursionError) as err:  # past the digit limit, a repeated key, or nested too deep
        raise ScenarioSyntaxError(f"{what}{err}") from err


def _object(pairs: list) -> dict:
    """A JSON object's pairs as a dict, or a ValueError naming the first key that it repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"duplicate key {key!r}")
    return obj


def _json_text(doc: Any, sort_keys: bool = False) -> str:
    """``doc`` as ``json.dumps(doc, indent=2, sort_keys=sort_keys)`` writes it, with a final newline.

    Both writers write this. Python walks only the containers that hold
    containers. Each other value, a container of exact scalars included, is
    one call of CPython's C encoder, which ``json.dumps`` runs only unindented.
    """
    out: list[str] = []
    try:
        _put(doc, _level(0, sort_keys), out)
    except ValueError as err:  # an int past the digit limit, which _loads refuses too
        raise DeclarationError(f"an integer is too large to write: {err}") from err
    return "".join(out) + "\n"


_SCALARS = frozenset({str, int, float, bool, type(None)})  # exact types: one hash lookup per item


@lru_cache(maxsize=None)
def _level(depth: int, sort_keys: bool) -> tuple:
    """``(depth, sort_keys, encoder, pad)`` for a value ``depth`` levels deep: ``pad`` starts a line at
    ``depth``, and the C encoder separates the value's items as ``indent=2`` does one level deeper."""
    pad = "\n" + "  " * depth
    encoder = c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii, None, ": ",
                             "," + pad + "  ", sort_keys, False, True)
    return depth, sort_keys, encoder, pad


def _put(value: Any, level: tuple, out: list) -> None:
    """Append ``value``'s text at ``level`` to ``out``."""
    _, _, encoder, pad = level
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        out += encoder(value, 0)
    elif _SCALARS.issuperset(map(type, value.values() if is_dict else value)):
        text = "".join(encoder(value, 0))  # each item but the first already starts a line
        out += (text[0], pad, "  ", text[1:-1], pad, text[-1]) if value else (text,)
    else:
        _walk(value, is_dict, level, out)


def _walk(value: Any, is_dict: bool, level: tuple, out: list) -> None:
    """Append a container that holds a container, each item on a line of its own."""
    depth, sort_keys, encoder, pad = level
    inner = _level(depth + 1, sort_keys)
    out.append("{" if is_dict else "[")
    sep = "," + inner[3]
    for i, item in enumerate((sorted(value.items()) if sort_keys else value.items()) if is_dict else value):
        out.append(sep if i else inner[3])
        if is_dict:
            key, item = item
            if not isinstance(key, str):  # json quotes the text of an int, float, bool or None key
                if not isinstance(key, (int, float, type(None))):
                    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
                key = "".join(encoder(key, 0))
            out += (encode_basestring_ascii(key), ": ")
        _put(item, inner, out)
    out += (pad, "}" if is_dict else "]")


def parse_scenario(text: str) -> ScenarioBundle:
    """Parse document text into a fully resolved bundle.

    Raises a diagnostic carrying the position (line and column for syntax
    problems, the document path otherwise) and the offending identifier.
    """
    doc = _loads(text)
    _expect(doc, "document", dict, "a JSON object")
    _refuse_unknown(doc, _TOP_LEVEL, "document", "section")
    version = doc.get("format_version")
    if version not in get_args(FormatVersion):
        raise VersionUnsupported(f"unsupported format version {version!r}")

    reg: dict = defaultdict(dict)  # registry table -> identifier -> object
    parsed = {}
    for field, path, decl in _SECTIONS:
        section, _, part = path.partition(".")
        decls = doc.get(section, {} if part else [])
        if part:
            _refuse_unknown(_expect(decls, section, dict, "an object"), ("abstract", "physical"), section)
            decls = decls.get(part, [])
        parsed[field] = tuple(
            _read(decl, d, f"{path}[{i}]", reg)
            for i, d in enumerate(_expect(decls, path, list, "a list"))
        )
    return ScenarioBundle(**parsed)


def emit_scenario(bundle: ScenarioBundle) -> str:
    """Serialize a bundle as document text that parses back equal, or raise a DeclarationError."""
    doc: dict[str, Any] = {"format_version": get_args(FormatVersion)[0]}
    reg: dict = defaultdict(dict)  # as parse_scenario's
    for field, path, decl in _SECTIONS:
        section, _, part = path.partition(".")
        try:
            decls = [_write(decl, obj, (path, i), reg) for i, obj in enumerate(getattr(bundle, field))]
        except ScenarioError as err:  # what the reader would refuse, at the same path
            raise DeclarationError(str(err)) from err
        if part:
            doc.setdefault(section, {})[part] = decls
        else:
            doc[section] = decls
    return _json_text(doc)
