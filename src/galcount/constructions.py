"""Named permutation representations: regular and coset actions, direct and wreath
products, SL2(p) on nonzero vectors, the order-27 exponent-3 group on 9 points,
and the index-domination check between two representations of one group."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .groups import DEFAULT_CAP, EnumerationCapError, PermGroup, a_value, cycle_inds, row_keys
from .perms import Perm
from .sieves import is_prime


class InconsistentDualRep(ValueError):
    """The two generator lists do not present the same abstract group."""


def cyclic_natural(n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    """Cyclic group of order n acting on n points (regular for n >= 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    return PermGroup(n, [Perm([(i + 1) % n for i in range(n)])], cap)


def symmetric_natural(n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    """Symmetric group on n points in its natural action."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return PermGroup(1, [Perm.identity(1)], cap)
    transposition = Perm([1, 0] + list(range(2, n)))
    if n == 2:
        return PermGroup(2, [transposition], cap)
    full_cycle = Perm([(i + 1) % n for i in range(n)])
    return PermGroup(n, [transposition, full_cycle], cap)


def alternating_natural(n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    """Alternating group on n points in its natural action."""
    if n < 3:
        # A1 and A2 are trivial.
        if n < 1:
            raise ValueError("n must be positive")
        return PermGroup(n, [Perm.identity(n)], cap)
    three_cycle = Perm([1, 2, 0] + list(range(3, n)))
    if n == 3:
        return PermGroup(3, [three_cycle], cap)
    if n % 2 == 1:
        big = Perm([(i + 1) % n for i in range(n)])
    else:
        big = Perm([0] + [1 + (i + 1) % (n - 1) for i in range(n - 1)])
    return PermGroup(n, [three_cycle, big], cap)


def dihedral_natural(n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    """Dihedral group of order 2n acting on the vertices of an n-gon."""
    if n < 3:
        raise ValueError("n must be at least 3")
    rotation = Perm([(i + 1) % n for i in range(n)])
    reflection = Perm([(n - i) % n for i in range(n)])
    return PermGroup(n, [rotation, reflection], cap)


def coset_action(group: PermGroup, subgroup_gens: Sequence[Perm]) -> tuple[PermGroup, bool]:
    """Action of the group on the left cosets of the subgroup the given elements generate.

    Cosets are labelled by first occurrence in the group's element enumeration,
    so ``coset_action(G, [identity])`` reproduces ``regular_rep(G)`` exactly.
    Returns the degree-[G:H] group and whether the action is faithful.
    """
    subgroup = PermGroup(group.degree, list(subgroup_gens) or [group.identity()], group.cap)
    for s, k in zip(subgroup.generators, group.index([s.images for s in subgroup.generators])):
        if k < 0:
            raise ValueError(f"subgroup generator {s} is not in the group")
    images, h = group.image_array(), subgroup.image_array()
    # Row t of x[h] is x * h_t, since (x * h)(i) = x(h(i)); likewise g[x] is g * x.
    label = np.full(len(images), -1)
    reps = []
    for k in range(len(images)):
        if label[k] < 0:
            label[group.index(images[k][h])] = len(reps)
            reps.append(k)
    translates = [group.index(np.asarray(g.images)[images[reps]]) for g in group.generators]
    action = PermGroup(len(reps), [Perm(label[t].tolist()) for t in translates], group.cap)
    faithful = action.order() == len(images)
    return action, faithful


def regular_rep(group: PermGroup) -> PermGroup:
    """Left-translation action of the group on its own enumerated element list."""
    action, faithful = coset_action(group, [group.identity()])
    assert faithful
    return action


def direct_product(h: PermGroup, z: PermGroup) -> PermGroup:
    """Product action on the (i, j) grid, flattened as i * deg(z) + j.

    Generators are h's (acting on i) followed by z's (acting on j).
    """
    n, m = h.degree, z.degree
    gens = []
    for g in h.generators:
        gens.append(Perm(g(i) * m + j for i in range(n) for j in range(m)))
    for g in z.generators:
        gens.append(Perm(i * m + g(j) for i in range(n) for j in range(m)))
    return PermGroup(n * m, gens, max(h.cap, z.cap))


def wreath(a: PermGroup, h: PermGroup) -> PermGroup:
    """Imprimitive wreath action on deg(a) * deg(h) points in deg(h) blocks.

    One copy of each a-generator acts in block 0; h-generators permute the
    blocks rigidly.  The result's order is verified to equal |a|^deg(h) * |h|
    by enumeration.
    """
    cap = max(a.cap, h.cap)
    block, nblocks = a.degree, h.degree
    degree = block * nblocks
    gens = []
    for g in a.generators:
        images = list(range(degree))
        for t in range(block):
            images[t] = g(t)
        gens.append(Perm(images))
    for g in h.generators:
        gens.append(Perm(g(b) * block + t for b in range(nblocks) for t in range(block)))
    result = PermGroup(degree, gens, cap)
    expected = a.order() ** nblocks * h.order()
    if expected > cap:
        raise EnumerationCapError(f"wreath product order {expected} exceeds cap {cap}")
    got = result.order()
    if got != expected:
        raise AssertionError(f"wreath order check failed: {got} != {expected}")
    return result


def sl2_natural(p: int, cap: int = DEFAULT_CAP) -> PermGroup:
    """SL2 over the p-element field acting on the p^2 - 1 nonzero column vectors.

    Generated by the two standard unipotent matrices; vectors are ordered
    lexicographically so the output is reproducible.  The action is faithful,
    so an order p(p^2 - 1) over the cap is refused before any vector is built.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    order = p * (p * p - 1)
    if order > cap:
        raise EnumerationCapError(f"SL2({p}) order {order} exceeds cap {cap}")
    vectors = [(x, y) for x in range(p) for y in range(p) if (x, y) != (0, 0)]
    position = {v: i for i, v in enumerate(vectors)}

    def matrix_perm(m) -> Perm:
        (a, b), (c, d) = m
        return Perm(
            position[((a * x + b * y) % p, (c * x + d * y) % p)] for x, y in vectors
        )

    upper = matrix_perm(((1, 1), (0, 1)))
    lower = matrix_perm(((1, 0), (1, 1)))
    return PermGroup(p * p - 1, [upper, lower], cap)


def heisenberg_mod3(cap: int = DEFAULT_CAP) -> PermGroup:
    """The nonabelian group of order 27 and exponent 3, acting on 9 points.

    Built as the group of upper unitriangular 3x3 matrices over the field with
    3 elements -- triples (a, b, c) with (a,b,c)(a',b',c') = (a+a', b+b',
    c+c'+ab') -- then taken in its coset action on the non-central subgroup
    generated by (1, 0, 0).  The construction is verified before returning.
    """
    triples = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    position = {t: i for i, t in enumerate(triples)}

    def left_translation(t) -> Perm:
        a, b, c = t
        return Perm(
            position[((a + a2) % 3, (b + b2) % 3, (c + c2 + a * b2) % 3)]
            for (a2, b2, c2) in triples
        )

    x = left_translation((1, 0, 0))
    y = left_translation((0, 1, 0))
    regular = PermGroup(27, [x, y], cap)
    action, faithful = coset_action(regular, [x])

    if not (
        action.degree == 9
        and faithful
        and action.order() == 27
        and action.is_transitive()
        and all(e.order() == 3 for e in action.elements()[1:])
        and any(g * h != h * g for g in action.elements() for h in action.elements())
    ):
        raise AssertionError("order-27 exponent-3 construction failed verification")
    return action


@dataclass(frozen=True)
class DualRep:
    """One abstract group realized in two degrees via aligned generator images."""

    gens1: tuple[Perm, ...]
    gens2: tuple[Perm, ...]

    def __post_init__(self):
        if len(self.gens1) != len(self.gens2) or not self.gens1:
            raise InconsistentDualRep(f"generator counts {len(self.gens1)} and {len(self.gens2)} must be equal and nonzero")
        for gens in (self.gens1, self.gens2):
            if len({g.degree for g in gens}) != 1:
                raise InconsistentDualRep("generators within one representation must share a degree")


@dataclass(frozen=True)
class DominationWitness:
    word: tuple[int, ...]  # generator indices, applied left to right
    ind1: int
    ind2: int
    a1: Fraction
    a2: Fraction


@dataclass(frozen=True)
class DominationReport:
    holds: bool
    witness: Optional[DominationWitness]


def dual_regular_pair(group: PermGroup) -> DualRep:
    """Pair a group's regular representation (first) with the group itself (second)."""
    reg = regular_rep(group)
    return DualRep(tuple(reg.generators), tuple(group.generators))


def check_index_domination(dual: DualRep, cap: int = DEFAULT_CAP) -> DominationReport:
    """Check a2 * ind2(s) >= a1 * ind1(s) for every element s, in exact rationals.

    Both sides are enumerated at once as the diagonal group on n1 + n2 points,
    whose j-th generator is gens1[j] on the first n1 and gens2[j] on the rest.
    They present one group (and share its BFS order) exactly when each block of
    its image array has distinct rows; otherwise InconsistentDualRep is raised.
    On failure the first violating element is reported as its BFS-tree word.
    """
    n1 = dual.gens1[0].degree
    gens = [Perm(g1.images + tuple(n1 + i for i in g2.images)) for g1, g2 in zip(dual.gens1, dual.gens2)]
    diagonal = PermGroup(n1 + dual.gens2[0].degree, gens, cap)
    images = diagonal.image_array()
    blocks = images[:, :n1], images[:, n1:] - n1
    if any(len(set(row_keys(block))) != len(images) for block in blocks):
        raise InconsistentDualRep(
            "a word acts as the identity in one representation but not the other"
        )
    ind1, ind2 = (cycle_inds(block).astype(np.int64) for block in blocks)
    a1, a2 = a_value(ind1), a_value(ind2)
    # a2 * ind2 < a1 * ind1, cross-multiplied over the positive denominators
    failing = np.flatnonzero(a2.numerator * a1.denominator * ind2 < a1.numerator * a2.denominator * ind1)
    if failing.size == 0:
        return DominationReport(holds=True, witness=None)
    k = int(failing[0])
    return DominationReport(holds=False, witness=DominationWitness(diagonal.word(k), int(ind1[k]), int(ind2[k]), a1, a2))

