"""Mutation fuzzing of the built-in scenario documents.

A mutated document either parses or is rejected with a ModelError; a parsed
one runs its checks without raising; and ``abrep check`` exits with the
report's code, 0, 1 or 2, and with 2 for every rejected document. One kind of
mutation writes a value of another type into a field picked from the
format table, so every kind of field the table has is reached.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from abrep import BUILTIN_SCENARIOS, ModelError, emit_scenario, parse_scenario, run_checks
from abrep.cli import main
from support import at, field_sites

TEXTS = {name: emit_scenario(build()) for name, build in BUILTIN_SCENARIOS.items()}

#: Parsed but not run: the noisy adder's 400-trial validation costs more than
#: every other built-in together, and a mutated trial count is unbounded.
NOT_RUN = {"voltage-adder-noisy"}

#: Values a mutation writes over a field. Integers stay small, because a
#: bit width or an integer bound sets how many states a table enumerates.
SCALARS = (None, True, False, -1, 0, 1, 2, 7, 0.5, 2.5, -3.0, "", "x", [], {}, [0], ["x", "y"])


def _nodes(node, path=()):
    """Every (path, value) pair at or below ``node``."""
    yield path, node
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _nodes(child, path + (i,))


def _sites(doc):
    """Mutation sites of one document.

    Returns every non-root path; the declarations, as (path, the other
    identifiers declared in its section) for sections that declare two or
    more; the references (string fields that name a declared identifier);
    and all declared identifiers.
    """
    nodes = list(_nodes(doc))[1:]
    declared = {}  # declaration path -> identifier, by section
    for path, value in nodes:
        # A builtin rule's "name" names no declaration.
        declares = path[-1] == "id" or (path[-1] == "name" and "rule" not in path)
        if declares and isinstance(value, str):
            declared.setdefault(path[0], {})[path] = value
    declarations = []
    for section in declared.values():
        names = set(section.values())
        if len(names) > 1:
            declarations += [(path, sorted(names - {value})) for path, value in section.items()]
    decl_paths = {path for section in declared.values() for path in section}
    idents = sorted({value for section in declared.values() for value in section.values()})
    references = [
        path
        for path, value in nodes
        if isinstance(value, str) and value in idents and path not in decl_paths
    ]
    return [path for path, _ in nodes], declarations, references, idents


SITES = {name: _sites(json.loads(text)) for name, text in TEXTS.items()}

#: Each field kind of the format table: the (document, declaration path, key)
#: of every field of that kind in the built-in documents.
FIELDS: dict = {}
for _name, _text in sorted(TEXTS.items()):
    for _path, _field in field_sites(json.loads(_text)):
        FIELDS.setdefault(_field.kind, []).append((_name, _path, _field.key))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _mutate(data):
    """A mutated built-in document: its name, the document and the mutated path."""
    if data.draw(st.booleans()):  # a value of another type, for a field of any kind
        sites = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))]
        name, path, key = data.draw(st.sampled_from(sites))
        doc = json.loads(TEXTS[name])
        obj = at(doc, path)
        wrong = [v for v in SCALARS if type(v) is not type(obj.get(key))]
        obj[key] = data.draw(st.sampled_from(wrong))
        return name, doc, (path, key)
    name = data.draw(st.sampled_from(sorted(TEXTS)))
    doc = json.loads(TEXTS[name])
    paths, declarations, references, idents = SITES[name]
    kind = data.draw(st.sampled_from(("declaration", "reference", "replace", "delete")))
    if kind == "declaration":
        # Rename one declared identifier, and every use of it, to another
        # identifier of its section, which then is declared twice.
        path, others = data.draw(st.sampled_from(declarations))
        old, new = _parent(doc, path)[path[-1]], data.draw(st.sampled_from(others))
        for use, value in list(_nodes(doc)):
            if value == old:
                _parent(doc, use)[use[-1]] = new
        return name, doc, path
    if kind == "reference":
        path = data.draw(st.sampled_from(references))
        value = data.draw(st.sampled_from(idents))
    else:
        path = data.draw(st.sampled_from(paths))
        value = data.draw(st.sampled_from(SCALARS))
    if kind == "delete":
        del _parent(doc, path)[path[-1]]
    else:
        _parent(doc, path)[path[-1]] = value
    return name, doc, path


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_mutated_documents_fail_only_with_model_errors(tmp_path_factory, data):
    name, doc, path = _mutate(data)
    text = json.dumps(doc)
    try:
        bundle = parse_scenario(text)
    except ModelError:
        bundle = None
    runs = name not in NOT_RUN and "trials" not in path
    if bundle is not None and not runs:
        return
    expected = 2 if bundle is None else run_checks(bundle).exit_code
    file = tmp_path_factory.getbasetemp() / "mutated.json"
    file.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["check", str(file)]) == expected
