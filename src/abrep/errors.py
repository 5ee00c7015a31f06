"""Exception types shared across the framework, the identifier lookup, and how messages show values."""

from contextlib import suppress

#: The nesting bound: a check value nests at most this many containers, and a product space, so a
#: product program on it, this many products; a message shows a value nested this deep as a stand-in.
_SHOWN_DEPTH = 100
_CONTAINERS = (tuple, list, set, frozenset, dict)


class ModelError(Exception):
    """Base class for all errors raised by this package."""


class DeclarationError(ModelError):
    """A space, relation, or dynamics declaration is malformed.

    ``field``, when set, is the path of the rejected field inside the
    declaration, such as ``"bounds[2][1]"``, and ``reason`` what was expected.
    """

    def __init__(self, message: str, field: str | None = None, reason: str | None = None):
        super().__init__(message)
        self.field, self.reason = field, reason


class OutOfDomain(ModelError):
    """A state does not belong to the space an operation requires."""


class MetricMismatch(ModelError):
    """A metric was applied to a space kind it does not measure."""


class NotEnumerable(ModelError):
    """Enumeration was requested for a continuous space."""


class NotInstantiable(ModelError):
    """The theory declares no instantiation procedure, or no declared seed prepares the target."""


class TheoryNotValidated(ModelError):
    """An operation that requires a validated theory got an unvalidated one."""


class EmptyDomain(ModelError):
    """Theory validation needs a non-empty domain and prediction family."""


class TooLarge(ModelError):
    """The brute-force search bound was exceeded."""


class ScenarioError(ModelError):
    """Base class for scenario-document problems."""


class ScenarioSyntaxError(ScenarioError):
    """The document text is not well formed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class _IdentifierError(ScenarioError):
    """An ``identifier`` at ``path``, which the subclass's ``problem`` says is wrong."""

    def __init__(self, path: str, identifier: str):
        self.path, self.identifier = path, identifier
        super().__init__(f"{path}: {self.problem} identifier {identifier!r}")


class UnknownReference(_IdentifierError):
    """An identifier is used before, or without, being declared."""

    problem = "unknown"


class DuplicateIdentifier(_IdentifierError):
    """The same identifier is declared twice in one section."""

    problem = "duplicate"


class VersionUnsupported(ScenarioError):
    """The document format version is not recognized."""


def resolve(table: dict, ident, path: str):
    """The object ``table`` declares as ``ident``, or UnknownReference at ``path``."""
    if not isinstance(ident, str) or ident not in table:
        raise UnknownReference(path, ident if isinstance(ident, str) else _shown(ident))
    return table[ident]


def _too_deep(value, depth: int = _SHOWN_DEPTH) -> bool:
    """Whether ``value`` holds anything inside more than ``depth`` nested containers, or a cycle."""
    level = [value]
    while level and depth >= 0:  # a level per pass, each object once; a dict's items are pairs
        level = [v.items() if isinstance(v, dict) else v for v in level if isinstance(v, _CONTAINERS)]
        level, depth = list({id(x): x for v in level for x in v}.values()), depth - 1
    return bool(level)


def _shown(value) -> str:
    """``repr(value)``, or a stand-in when an int in it has too many digits or it nests too deep."""
    with suppress(ValueError, RecursionError):  # an int past the digit limit; an object's own deep repr
        if not _too_deep(value, _SHOWN_DEPTH - 1):
            return repr(value)
    return f"<{type(value).__name__} too large to show>"
