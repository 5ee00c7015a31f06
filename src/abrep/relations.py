"""Representation relations and device theories.

A representation relation is the one bridge between a simulated device and
the abstract values it carries: a total, deterministic map from physical
configurations to abstract states. Running it backwards, to *prepare* a
configuration that represents a wanted abstract state, is realized here as
an exhaustive search over declared seed configurations driven through an
engineering dynamics, which keeps preparation decidable and reproducible.

A relation's rule, a table, threshold or product rule, is declared and
compiled in ``dynamics.py`` as every rule is. Every read goes through the
compiled function, and only ``represent`` checks membership.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import field
from functools import cached_property
from typing import Union

from .dynamics import (
    AbstractDynamics,
    PhysicalDynamics,
    ProductRule,
    TableRule,
    ThresholdRule,
    TrialSeed,
    _canonical_table,
    _compiled,
    _row,
    _trial_step,
)
from .errors import DeclarationError, NotInstantiable, OutOfDomain, _shown, resolve
from .spaces import (
    AbstractSpace,
    AbstractState,
    PhysicalSpace,
    PhysicalState,
    PhysicalTupleSpace,
    RealVectorSpace,
    TupleSpace,
    Value,
    _declaration,
    _register_widths,
    _trusted,
    contains,
)


#: A lookup is a table rule, and a tuple-wise reading a product rule of relations.
RepresentationRule = Union[TableRule, ThresholdRule, ProductRule]
LookupRule, TupleWiseRule = TableRule, ProductRule  # earlier names, which perfbench/joints.py imports


@_declaration("relation")
class RepresentationRelation:
    """The directed map from device configurations to abstract states.

    Total on its domain and deterministic: equal configurations always
    represent as equal abstract states.
    """

    id: str
    domain: PhysicalSpace
    codomain: AbstractSpace
    rule: RepresentationRule

    def __post_init__(self, owner):
        rule = self.rule
        if isinstance(rule, TableRule):
            _canonical_table(self, owner, self.domain, self.codomain)
        elif isinstance(rule, ThresholdRule):
            if not isinstance(self.domain, RealVectorSpace):
                raise DeclarationError(f"{owner}: threshold rules need a real-vector domain")
            if len(rule.thresholds) != self.domain.dimension:
                raise DeclarationError(f"{owner}: one threshold per coordinate required")
            widths = _register_widths(self.codomain)
            if widths is None:
                raise DeclarationError(
                    f"{owner}: codomain must be a bitstring register"
                    " or a tuple of bitstring registers"
                )
            if sum(widths) != self.domain.dimension:
                raise DeclarationError(f"{owner}: register widths must sum to the dimension")
        else:
            ok = (
                isinstance(self.domain, PhysicalTupleSpace)
                and isinstance(self.codomain, TupleSpace)
                and len(rule.parts) == len(self.domain.components)
                and len(rule.parts) == len(self.codomain.components)
            )
            if not ok:
                raise DeclarationError(f"{owner}: tuple-wise rules need matching products")
            for part, dom, cod in zip(rule.parts, self.domain.components, self.codomain.components):
                if not (isinstance(part, RepresentationRelation) and (part.domain, part.codomain) == (dom, cod)):
                    raise DeclarationError(
                        f"{owner}: part {part.id!r} does not line up with the product components"
                    )

    _apply = cached_property(lambda self: _compiled(self.rule, self.domain, self.codomain))
    _bits = cached_property(lambda self: _row(self.rule))  # a threshold reading uncut: a seed scan's key


def represent(relation: RepresentationRelation, p: PhysicalState) -> AbstractState:
    """The abstract state assigned to configuration ``p``."""
    if not contains(relation.domain, p):
        raise OutOfDomain(f"configuration is not in the domain of relation {relation.id!r}")
    return _trusted(AbstractState, relation.codomain, relation._apply(p.value))


@_declaration("instantiation", name=None)
class InstantiationProcedure:
    """Seeded preparation: candidate start states plus engineering dynamics.

    Preparation searches the seeds in declaration order, so equal targets
    always prepare the same configuration.
    """

    seeds: tuple[PhysicalState, ...]
    engineering: PhysicalDynamics


@_declaration("prediction", name="name")
class Prediction:
    """A named pairing of a program with the device update meant to run it."""

    name: str
    abstract: AbstractDynamics
    physical: PhysicalDynamics


@_declaration("theory")
class Theory:
    """A device theory: representation, asserted domain, and predictions.

    ``evidence`` is the report that grades the theory. Only theory
    validation sets it, on the new Theory value it returns; any other
    construction, ``dataclasses.replace`` included, starts untested.
    """

    id: str
    representation: RepresentationRelation
    domain: tuple[PhysicalState, ...]
    predictions: tuple[Prediction, ...]
    instantiation: InstantiationProcedure | None = None
    evidence: ValidityReport | None = field(init=False, default=None)

    def __post_init__(self, owner):
        relation = self.representation
        space = relation.domain
        if any(state.space != space for state in self.domain):
            raise DeclarationError(f"{owner}: domain state outside the represented space")
        names = [p.name for p in self.predictions]
        if len(set(names)) != len(names):
            raise DeclarationError(f"{owner}: duplicate prediction names")
        for pred in self.predictions:
            if pred.abstract.space != relation.codomain:
                raise DeclarationError(
                    f"{owner}: prediction {pred.name!r} does not act on the representation codomain"
                )
            if pred.physical.space != space:
                raise DeclarationError(
                    f"{owner}: prediction {pred.name!r} device dynamics act on the wrong space"
                )
        if self.instantiation is not None:
            if self.instantiation.engineering.space != space:
                raise DeclarationError(f"{owner}: engineering dynamics act on the wrong space")
            if any(seed.space != space for seed in self.instantiation.seeds):
                raise DeclarationError(f"{owner}: seed outside the represented space")

    @cached_property
    def _domain_set(self) -> frozenset:
        """The domain, hashed on first use, so that a square's domain check is one lookup."""
        return frozenset(self.domain)

    @property
    def is_valid(self) -> bool:
        return self.evidence is not None and self.evidence.all_passed

    @property
    def validity(self) -> str:
        """``"untested"``, ``"valid"`` or ``"invalid"``, read off the evidence."""
        if self.evidence is None:
            return "untested"
        return "valid" if self.evidence.all_passed else "invalid"

    def prediction(self, name: str) -> Prediction:
        return resolve({p.name: p for p in self.predictions}, name, f"theory {self.id!r}")


# Engineering dynamics run with a fixed seed so preparation is a pure
# function of (theory, target) even for noisy engineering declarations.
_ENGINEERING_SEED = TrialSeed(0)


def instantiate(theory: Theory, target: AbstractState) -> PhysicalState:
    """Prepare a configuration whose representation is exactly ``target``.

    Seeds are driven through the engineering dynamics in declaration order;
    the first prepared configuration that represents as ``target`` wins.
    """
    return next(_prepare(theory, (target,)))


def _prepare(theory: Theory, targets: Iterable[AbstractState]) -> Iterator[PhysicalState]:
    """Prepare each of ``targets`` in turn, as ``instantiate`` would, in one scan of the seeds.

    Each reading keeps its first prepared configuration, and each target
    resumes the scan where the last stopped. Lazy, so errors come in the
    order that per-target ``instantiate`` calls would raise them.
    """
    if theory.instantiation is None:
        raise NotInstantiable(f"theory {theory.id!r} declares no instantiation procedure")
    relation = theory.representation
    bits = isinstance(relation.rule, ThresholdRule)
    read = relation._bits if bits else relation._apply  # prepared values are in its domain: checked at declaration
    engineering = theory.instantiation.engineering
    step = _trial_step(engineering, _ENGINEERING_SEED)  # seeds are in its space: checked too
    seeds = iter(theory.instantiation.seeds)
    first: dict[Value, Value] = {}
    for target in targets:
        if not contains(relation.codomain, target):
            raise OutOfDomain(f"target is not in the codomain of relation {relation.id!r}")
        key = "".join(target.value) if bits else target.value  # one register's bits join to themselves
        if key not in first:
            for seed in seeds:
                value = step(seed.value)
                reading = read(value)
                first.setdefault(reading, value)
                if reading == key:
                    break
            else:
                raise NotInstantiable(f"theory {theory.id!r}: no seed prepares {_shown(target.value)}")
        yield _trusted(PhysicalState, engineering.space, first[key])
