"""Composition of computing systems and the hybrid/heterotic classifier.

Two devices compose into a joint system over the product of their physical
spaces. When the joint representation reads the two halves independently and
the joint dynamics act coordinate by coordinate, the joint system is nothing
more than its parts run side by side: a *hybrid*. When either the reading or
the dynamics couples the halves, so that no such factorization reproduces
them, the composition is happening inside the representation itself and the
system is *heterotic*.

The classifier decides this structurally. One splitter walks the pairs of the
two halves row by row, checks that each coordinate of the joint map depends
on its own half only, and reads the factor tables off. ``classify`` calls it
on the reading and on the dynamics, and its witness is the one factorization
API. ``brute_force_classify`` is the independent oracle. It observes both
joint maps once per pair, through the public ``represent`` and
``evolve_abstract``, and one search then takes for each factor the first
candidate function, in canonical order, that reproduces its coordinate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal, get_args

from .dynamics import AbstractDynamics, ProductRule, evolve_abstract
from .errors import DeclarationError, TheoryNotValidated, TooLarge
from .relations import RepresentationRelation, Theory, represent
from .spaces import (
    AbstractState,
    PhysicalState,
    PhysicalTupleSpace,
    TupleSpace,
    Value,
    _declaration,
    cardinality,
    enumerate_values,
)

#: A joint system's class.
Verdict = Literal["Hybrid", "Heterotic"]
HYBRID, HETEROTIC = get_args(Verdict)

#: Component abstract spaces larger than this make the oracle refuse.
_ORACLE_SIZE_BOUND = 6

#: Hard cap on candidate functions per factor; beyond it the oracle refuses
#: rather than enumerate forever (large physical spaces under tiny abstract
#: ones would otherwise slip past the size bound).
_CANDIDATE_CAP = 1_000_000


@_declaration("component", name=None)
class Component:
    """One half of a joint system: a device theory plus its computation."""

    theory: Theory
    dynamics: AbstractDynamics

    def __post_init__(self, owner):
        if self.dynamics.space != self.theory.representation.codomain:
            raise DeclarationError(
                f"component over theory {self.theory.id!r}: dynamics"
                f" {self.dynamics.id!r} do not act on the represented values"
            )


@_declaration("joint")
class JointSystem:
    """A product device with a joint representation and joint dynamics."""

    id: str
    left: Component
    right: Component
    joint_space: PhysicalTupleSpace
    joint_representation: RepresentationRelation
    joint_dynamics: AbstractDynamics
    provenance: Literal["composed-parallel", "declared"]

    def __post_init__(self, owner):
        expected = (
            self.left.theory.representation.domain,
            self.right.theory.representation.domain,
        )
        if self.joint_space.components != expected:
            raise DeclarationError(
                f"{owner}: joint space is not the ordered product of the component spaces"
            )
        if self.joint_representation.domain != self.joint_space:
            raise DeclarationError(f"{owner}: joint representation does not read the product")
        if self.joint_dynamics.space != self.joint_representation.codomain:
            raise DeclarationError(f"{owner}: joint dynamics do not act on the joint codomain")


@dataclass(frozen=True)
class FactorizationWitness:
    """Component maps that reproduce the joint representation and dynamics.

    Both pairs of factor tables map component values to values; when present
    they reproduce the joint maps exactly on every enumerable state.
    """

    representation_factors: tuple[dict, dict] | None
    dynamics_factors: tuple[dict, dict] | None


@dataclass(frozen=True)
class CompositionClass:
    value: Verdict
    witness: FactorizationWitness


def componentwise_joint(id: str, left: Component, right: Component) -> JointSystem:
    """Product space, paired representation, coordinate-wise dynamics."""
    rep_a, rep_b = left.theory.representation, right.theory.representation
    space = PhysicalTupleSpace(f"{id}.space", (rep_a.domain, rep_b.domain))
    codomain = TupleSpace(f"{id}.values", (rep_a.codomain, rep_b.codomain))
    joint_rep = RepresentationRelation(
        f"{id}.representation", space, codomain, ProductRule((rep_a, rep_b))
    )
    joint_dyn = AbstractDynamics(
        f"{id}.dynamics", codomain, ProductRule((left.dynamics, right.dynamics))
    )
    return JointSystem(id, left, right, space, joint_rep, joint_dyn, "composed-parallel")


def _is_componentwise(j: JointSystem) -> bool:
    """True iff ``j``'s space, reading and dynamics are those ``componentwise_joint`` builds of its halves."""
    built = componentwise_joint(j.id, j.left, j.right)
    fields = ("joint_space", "joint_representation", "joint_dynamics")
    return all(getattr(j, f) == getattr(built, f) for f in fields)


def compose_parallel(a: Component, b: Component, joint_id: str = "parallel") -> JointSystem:
    """Run both computations side by side on the composed input."""
    for comp in (a, b):
        if not comp.theory.is_valid:
            raise TheoryNotValidated(
                f"joint {joint_id!r}: component theory {comp.theory.id!r} is not validated"
            )
    return componentwise_joint(joint_id, a, b)


def _split_coordinates(space, codomain, joint) -> tuple[dict, dict] | None:
    """Maps (f, g) with joint((a, b)) == (f[a], g[b]) on all pairs of ``space``'s halves, or None.

    None also when ``codomain`` is not a two-part product. ``joint`` is
    evaluated once per pair, row by row, so a first coordinate that depends
    on ``b`` is caught before the rest of the table is read.
    """
    if not (isinstance(codomain, TupleSpace) and len(codomain.components) == 2):
        return None
    avals, bvals = (list(enumerate_values(half)) for half in space.components)
    fmap: dict[Value, Value] = {}
    seconds: list[set] = [set() for _ in bvals]
    for a in avals:
        row = [joint((a, b)) for b in bvals]
        firsts = {v[0] for v in row}
        if len(firsts) != 1:
            return None
        fmap[a] = firsts.pop()
        for column, v in zip(seconds, row):
            column.add(v[1])
    if any(len(column) != 1 for column in seconds):
        return None
    return fmap, {b: column.pop() for b, column in zip(bvals, seconds)}


def _factors_match_declared(j: JointSystem, factors: tuple[dict, dict]) -> bool:
    """True iff each reading factor, keyed by its half's domain values, is its declared reading."""
    spaces = j.joint_representation.codomain.components
    relations = (j.left.theory.representation, j.right.theory.representation)
    return all(
        space == rel.codomain and all(table[v] == rel._apply(v) for v in table)
        for table, space, rel in zip(factors, spaces, relations)
    )


def classify(j: JointSystem) -> CompositionClass:
    """Decide whether the joint system is its parts composed, or more.

    Hybrid requires the joint representation to factor into exactly the
    declared component representations and the joint dynamics to factor into
    some pair of independent component actions. Anything else is heterotic.
    """
    rep, dyn = j.joint_representation, j.joint_dynamics
    rep_factors = _split_coordinates(j.joint_space, rep.codomain, rep._apply)  # pairs of domain members
    return _verdict(j, rep_factors, _split_coordinates(dyn.space, dyn.space, dyn._apply))


def _verdict(j: JointSystem, rep_factors, dyn_factors) -> CompositionClass:
    """Hybrid iff both factorizations exist and the reading's factors are the declared ones."""
    hybrid = (
        rep_factors is not None
        and dyn_factors is not None
        and _factors_match_declared(j, rep_factors)
    )
    witness = FactorizationWitness(rep_factors, dyn_factors)
    return CompositionClass(HYBRID if hybrid else HETEROTIC, witness)


def _search_split(keys: list[list], outs: list[list], observe) -> tuple[dict, dict] | None:
    """Exhaustively find the first (f, g) with observe((a, b)) == (f[a], g[b]), or None.

    ``keys`` and ``outs`` hold each half's inputs and candidate outputs, and
    ``observe`` is called once per pair. Each coordinate of the observed
    table constrains only its own factor, so each side is searched on its
    own, through every total map in canonical order; the first f and the
    first g found are the first reproducing pair.
    """
    observed = {pair: observe(pair) for pair in itertools.product(*keys)}
    factors = []
    for side, (half_keys, half_outs) in enumerate(zip(keys, outs)):
        for image in itertools.product(half_outs, repeat=len(half_keys)):
            candidate = dict(zip(half_keys, image))
            if all(v[side] == candidate[pair[side]] for pair, v in observed.items()):
                factors.append(candidate)
                break
        else:
            return None
    return tuple(factors)


def brute_force_classify(j: JointSystem) -> CompositionClass:
    """Oracle classifier: search candidate factor functions exhaustively.

    Hybrid iff some pair of candidate representation maps reproduces the
    joint representation and equals the declared component representations,
    and some pair of candidate component actions reproduces the joint
    dynamics. Only usable on small component spaces.
    """
    halves = (j.left.theory.representation.codomain, j.right.theory.representation.codomain)
    if any(cardinality(half) > _ORACLE_SIZE_BOUND for half in halves):
        raise TooLarge(
            f"joint {j.id!r}: component abstract spaces exceed the oracle bound"
            f" of {_ORACLE_SIZE_BOUND}"
        )
    keys = [list(enumerate_values(half)) for half in j.joint_space.components]
    codomain = j.joint_representation.codomain
    # The joint dynamics act on this codomain, so neither map factors unless it is a pair.
    if not (isinstance(codomain, TupleSpace) and len(codomain.components) == 2):
        return _verdict(j, None, None)
    if any(cardinality(half) > _ORACLE_SIZE_BOUND for half in codomain.components):
        raise TooLarge(f"joint {j.id!r}: joint codomain halves exceed the oracle bound")
    outs = [list(enumerate_values(half)) for half in codomain.components]
    for half_keys, half_outs in zip(keys, outs):
        if len(half_outs) ** len(half_keys) > _CANDIDATE_CAP:
            raise TooLarge(f"joint {j.id!r}: too many candidate representation maps to enumerate")
    rep, dyn = j.joint_representation, j.joint_dynamics
    rep_factors = _search_split(
        keys, outs, lambda pair: represent(rep, PhysicalState(j.joint_space, pair)).value
    )
    dyn_factors = _search_split(
        outs, outs, lambda pair: evolve_abstract(dyn, AbstractState(dyn.space, pair)).value
    )
    return _verdict(j, rep_factors, dyn_factors)
