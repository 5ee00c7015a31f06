"""Joint systems for the classifier workload.

``random_joint`` draws small declared joints from the benchmark's own seeded
generator. Its shapes follow the property tests' generator: two components of
2-4 physical cells and 2-4 abstract labels, a joint reading that is the
declared pair, a mismatched pair, a coupled pair or not a product at all, and
joint dynamics that act component by component or not. The caller picks the
shape, so that a set of joints can hold each shape in the generator's
proportions exactly: ``SHAPES`` lists them, one in eight each, and the
non-product reading one in four.
"""

from __future__ import annotations

import random

from abrep import (
    AbstractDynamics,
    Component,
    InstantiationProcedure,
    JointSystem,
    LabelSpace,
    LookupRule,
    PhysicalLabelSpace,
    PhysicalState,
    PhysicalTupleSpace,
    Prediction,
    RepresentationRelation,
    TableRule,
    Theory,
    TupleSpace,
    TupleWiseRule,
    build_social_machine,
    build_swap_device,
    build_xor_joint,
    enumerate_values,
    identity_dynamics,
)

COMPONENT_NAMES = ("xor.left", "xor.right", "swap", "social.human", "social.machine")

#: (joint reading, componentwise dynamics, share in eighths).
SHAPES = tuple(
    (mode, componentwise, 1) for mode in ("declared", "mismatched", "coupled")
    for componentwise in (True, False)
) + (("non-product", False, 2),)


def component_specs() -> list[tuple[Theory, AbstractDynamics]]:
    """The five built-in component theories with their computations."""
    xor = build_xor_joint().joint("xor.joint")
    social = build_social_machine()
    galaxy = social.joint("social.galaxy-zoo")
    swap = build_swap_device().theory("swap")
    return [
        (xor.left.theory, xor.left.dynamics),
        (xor.right.theory, xor.right.dynamics),
        (swap, swap.predictions[0].abstract),
        (social.theory("social.human"), galaxy.left.dynamics),
        (social.theory("social.machine"), galaxy.right.dynamics),
    ]


def fixed_joints() -> list[JointSystem]:
    """The declared heterotic joints of the built-in scenarios."""
    return [build_xor_joint().joint("xor.joint"), build_social_machine().joint("social.galaxy-zoo")]


def _component(rng: random.Random, tag: str) -> Component:
    cells = PhysicalLabelSpace(f"{tag}.cells", tuple(f"c{i}" for i in range(rng.randrange(2, 5))))
    values = LabelSpace(f"{tag}.values", tuple(f"v{i}" for i in range(rng.randrange(2, 5))))
    read = RepresentationRelation(
        f"{tag}.read", cells, values,
        LookupRule({c: rng.choice(values.labels) for c in cells.labels}),
    )
    step = AbstractDynamics(
        f"{tag}.step", values, TableRule({v: rng.choice(values.labels) for v in values.labels})
    )
    states = tuple(PhysicalState(cells, c) for c in cells.labels)
    theory = Theory(
        id=f"{tag}.theory",
        representation=read,
        domain=states,
        predictions=(Prediction("step", step, identity_dynamics(f"{tag}.settle", cells)),),
        instantiation=InstantiationProcedure(states, identity_dynamics(f"{tag}.hold", cells)),
    )
    return Component(theory, step)


def random_joint(rng: random.Random, tag: str, mode: str, componentwise: bool) -> JointSystem:
    left = _component(rng, f"{tag}.left")
    right = _component(rng, f"{tag}.right")
    rep_l, rep_r = left.theory.representation, right.theory.representation
    space = PhysicalTupleSpace(f"{tag}.floor", (rep_l.domain, rep_r.domain))
    pairs = TupleSpace(f"{tag}.pairs", (rep_l.codomain, rep_r.codomain))
    lefts, rights = rep_l.codomain.labels, rep_r.codomain.labels

    if mode == "declared":
        codomain, rule = pairs, TupleWiseRule((rep_l, rep_r))
    elif mode == "mismatched":
        f = {c: rng.choice(lefts) for c in rep_l.domain.labels}
        g = {c: rng.choice(rights) for c in rep_r.domain.labels}
        codomain = pairs
        rule = LookupRule({(p, q): (f[p], g[q]) for (p, q) in enumerate_values(space)})
    elif mode == "coupled":
        codomain = pairs
        rule = LookupRule(
            {pq: (rng.choice(lefts), rng.choice(rights)) for pq in enumerate_values(space)}
        )
    else:
        codomain = LabelSpace(
            f"{tag}.verdicts", tuple(f"k{i}" for i in range(rng.randrange(2, 5)))
        )
        rule = LookupRule({pq: rng.choice(codomain.labels) for pq in enumerate_values(space)})
    joint_rep = RepresentationRelation(f"{tag}.read", space, codomain, rule)

    if mode == "non-product":
        entries = {v: rng.choice(codomain.labels) for v in codomain.labels}
    elif componentwise:
        f = {v: rng.choice(lefts) for v in lefts}
        g = {v: rng.choice(rights) for v in rights}
        entries = {(a, b): (f[a], g[b]) for (a, b) in enumerate_values(codomain)}
    else:
        entries = {ab: (rng.choice(lefts), rng.choice(rights)) for ab in enumerate_values(codomain)}
    joint_dyn = AbstractDynamics(f"{tag}.act", codomain, TableRule(entries))

    return JointSystem(
        id=f"{tag}.joint",
        left=left,
        right=right,
        joint_space=space,
        joint_representation=joint_rep,
        joint_dynamics=joint_dyn,
        provenance="declared",
    )
