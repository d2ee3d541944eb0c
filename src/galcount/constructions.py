"""Named permutation representations: regular and coset actions, direct and wreath
products, SL2(p) on nonzero vectors, the order-27 exponent-3 group on 9 points,
and the index-domination check between two representations of one group."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .groups import DEFAULT_CAP, EnumerationCapError, PermGroup
from .perms import Perm
from .sieves import is_prime


class InconsistentDualRep(ValueError):
    """The two generator lists do not present the same abstract group."""


def cyclic_natural(n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    """Cyclic group of order n acting on n points (regular for n >= 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return PermGroup(1, [Perm.identity(1)], cap)
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


def coset_action(
    group: PermGroup, subgroup_gens: Sequence[Perm], cap: Optional[int] = None
) -> tuple[PermGroup, bool]:
    """Action of the group on the left cosets of the subgroup the given elements generate.

    Cosets are labelled by first occurrence in the group's element enumeration,
    so ``coset_action(G, [identity])`` reproduces ``regular_rep(G)`` exactly.
    Returns the degree-[G:H] group and whether the action is faithful.
    """
    cap = group.cap if cap is None else cap
    elements = group.elements()
    element_set = set(elements)
    subgroup_gens = list(subgroup_gens)
    for s in subgroup_gens:
        if s not in element_set:
            raise ValueError(f"subgroup generator {s} is not in the group")
    if not subgroup_gens:
        subgroup_gens = [group.identity()]
    subgroup = PermGroup(group.degree, subgroup_gens, cap).elements()

    label: dict[Perm, int] = {}
    reps: list[Perm] = []
    for x in elements:
        if x not in label:
            for h in subgroup:
                label[x * h] = len(reps)
            reps.append(x)

    new_gens = [Perm(label[g * rep] for rep in reps) for g in group.generators]
    action = PermGroup(len(reps), new_gens, cap)
    faithful = action.order() == len(elements)
    return action, faithful


def regular_rep(group: PermGroup, cap: Optional[int] = None) -> PermGroup:
    """Left-translation action of the group on its own enumerated element list."""
    action, faithful = coset_action(group, [group.identity()], cap)
    assert faithful
    return action


def direct_product(h: PermGroup, z: PermGroup, cap: Optional[int] = None) -> PermGroup:
    """Product action on the (i, j) grid, flattened as i * deg(z) + j.

    Generators are h's (acting on i) followed by z's (acting on j).
    """
    cap = max(h.cap, z.cap) if cap is None else cap
    n, m = h.degree, z.degree
    gens = []
    for g in h.generators:
        gens.append(Perm(g(i) * m + j for i in range(n) for j in range(m)))
    for g in z.generators:
        gens.append(Perm(i * m + g(j) for i in range(n) for j in range(m)))
    return PermGroup(n * m, gens, cap)


def wreath(a: PermGroup, h: PermGroup, cap: Optional[int] = None) -> PermGroup:
    """Imprimitive wreath action on deg(a) * deg(h) points in deg(h) blocks.

    One copy of each a-generator acts in block 0; h-generators permute the
    blocks rigidly.  The result's order is verified to equal |a|^deg(h) * |h|
    by enumeration.
    """
    cap = max(a.cap, h.cap) if cap is None else cap
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
    lexicographically so the output is reproducible.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
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
            raise InconsistentDualRep("generator lists must be nonempty and of equal length")
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


def dual_regular_pair(group: PermGroup, cap: Optional[int] = None) -> DualRep:
    """Pair a group's regular representation (first) with the group itself (second)."""
    reg = regular_rep(group, cap)
    return DualRep(tuple(reg.generators), tuple(group.generators))


def check_index_domination(dual: DualRep, cap: int = DEFAULT_CAP) -> DominationReport:
    """Check a2 * ind2(s) >= a1 * ind1(s) for every element s, in exact rationals.

    Each side is enumerated by ``PermGroup`` and elements are paired by BFS
    position.  The pairing must commute with every aligned generator pair
    (otherwise the generator lists do not present one group and
    InconsistentDualRep is raised).  On failure the first violating element in
    BFS order is reported as its BFS-tree word in the generators.
    """
    sides = [PermGroup(gens[0].degree, gens, cap) for gens in (dual.gens1, dual.gens2)]
    elems1, elems2 = (side.elements() for side in sides)
    pos1, pos2 = ({e: i for i, e in enumerate(elems)} for elems in (elems1, elems2))
    if len(elems1) != len(elems2) or any(
        pos1[e1 * g1] != pos2[e2 * g2]
        for e1, e2 in zip(elems1, elems2)
        for g1, g2 in zip(dual.gens1, dual.gens2)
    ):
        raise InconsistentDualRep(
            "a word acts as the identity in one representation but not the other"
        )
    a1, a2 = (side.a_invariant() for side in sides)
    ind1, ind2 = (side.inds().astype(np.int64) for side in sides)
    # a2 * ind2 < a1 * ind1, cross-multiplied over the positive denominators
    failing = np.flatnonzero(a2.numerator * a1.denominator * ind2 < a1.numerator * a2.denominator * ind1)
    if failing.size == 0:
        return DominationReport(holds=True, witness=None)
    k = int(failing[0])
    word = _bfs_word(sides[0], pos1, k)
    return DominationReport(holds=False, witness=DominationWitness(word, int(ind1[k]), int(ind2[k]), a1, a2))


def _bfs_word(group: PermGroup, position: dict[Perm, int], k: int) -> tuple[int, ...]:
    """Generator indices leading to the k-th element along the BFS tree.

    An element's parent is the in-neighbour e * g_j^-1 with the smallest
    (position, j): the element whose j-th successor first reached it.
    """
    inverses = [g.inverse() for g in group.generators]
    elements = group.elements()
    word = []
    while k:
        k, j = min((position[elements[k] * inv], j) for j, inv in enumerate(inverses))
        word.append(j)
    return tuple(reversed(word))
