"""Named permutation representations: regular and coset actions, direct and wreath
products, SL2(p) on nonzero vectors, the order-27 exponent-3 group on 9 points,
and the index-domination check between two representations of one group."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DEFAULT_CAP, EnumerationCapError, InconsistentDualRep
from .groups import PermGroup, a_value, component_minima, cycle_inds
from .perms import Perm


def _points(n: int, least: int, cap: int, transitive: bool = True) -> np.ndarray:
    """The points 0..n-1 of a leaf group.  A group transitive on n points has order at least n,
    so an n over the cap is refused before any image is built (PermGroup refuses a cap below 1)."""
    if n < least:
        raise ValueError("n must be positive" if least == 1 else f"n must be at least {least}")
    if transitive and 1 <= cap < n:
        raise EnumerationCapError(f"group order exceeds cap {cap}")
    return np.arange(n)


def _cycle(points: np.ndarray, n: int) -> np.ndarray:
    """Images on n points of the cycle points[0] -> points[1] -> ... -> points[0]."""
    images = np.arange(n)
    images[points] = np.roll(points, -1)
    return images


def _leaf(n: int, images: Sequence[np.ndarray], cap: int) -> PermGroup:
    """The group on n points generated by the image arrays, a repeated one taken once."""
    unique = dict.fromkeys(tuple(i.tolist()) for i in images)
    return PermGroup(n, [Perm(i) for i in unique], cap)


def cyclic_natural(n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    """Cyclic group of order n acting on n points (regular for n >= 1)."""
    points = _points(n, 1, cap)
    return _leaf(n, [_cycle(points, n)], cap)


def symmetric_natural(n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    """Symmetric group on n points in its natural action, generated by (0 1) and an n-cycle."""
    points = _points(n, 1, cap)
    return _leaf(n, [_cycle(points[:2], n), _cycle(points, n)], cap)


def alternating_natural(n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    """Alternating group on n points in its natural action; A1 and A2 are trivial.

    Generated by (0 1 2) and a long even cycle: through every point for odd n, and
    through 1..n-1 for even n.
    """
    points = _points(n, 1, cap, transitive=n >= 3)
    three_cycle = [_cycle(points[:3], n)] if n >= 3 else []
    return _leaf(n, three_cycle + [_cycle(points[1 - n % 2 :], n)], cap)


def dihedral_natural(n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    """Dihedral group of order 2n acting on the vertices of an n-gon."""
    points = _points(n, 3, cap)
    return _leaf(n, [_cycle(points, n), -points % n], cap)


def coset_action(group: PermGroup, subgroup_gens: Sequence[Perm]) -> PermGroup:
    """Action of the group on the left cosets of the subgroup the given elements generate.

    Cosets are labelled by first occurrence in the group's element enumeration,
    so ``coset_action(G, [identity])`` reproduces ``regular_rep(G)`` exactly.
    The subgroup is not enumerated: xH is the component of x in the graph joining each
    x to x * s for the subgroup generators s, and its first element is the least position.
    Returns the degree-[G:H] group; its chain is not built, so a caller that needs to know
    whether the action is faithful compares its order with the group's.
    """
    subgroup = PermGroup(group.degree, list(subgroup_gens) or [group.identity()], group.cap)
    for s, k in zip(subgroup.generators, group.index([s.images for s in subgroup.generators])):
        if k < 0:
            raise ValueError(f"subgroup generator {s} is not in the group")
    images = group.image_array()
    # Column s of images is x * s, since (x * s)(i) = x(s(i)); likewise g[x] is g * x.
    first = component_minima(np.array([group.index(images[:, list(s.images)]) for s in subgroup.generators]))
    reps, label = np.unique(first, return_inverse=True)
    translates = [group.index(np.asarray(g.images)[images[reps]]) for g in group.generators]
    return PermGroup(len(reps), [Perm(label[t].tolist()) for t in translates], group.cap)


def regular_rep(group: PermGroup) -> PermGroup:
    """Left-translation action of the group on its own enumerated element list."""
    return coset_action(group, [group.identity()])


def direct_product(h: PermGroup, z: PermGroup) -> PermGroup:
    """Product action on the (i, j) grid, flattened as i * deg(z) + j.

    Generators are h's (acting on i) followed by z's (acting on j).
    """
    grid = np.arange(h.degree * z.degree).reshape(h.degree, z.degree)
    images = [grid[g.images, :] for g in h.generators] + [grid[:, g.images] for g in z.generators]
    return PermGroup(grid.size, [Perm(i.ravel().tolist()) for i in images], max(h.cap, z.cap))


def wreath(a: PermGroup, h: PermGroup) -> PermGroup:
    """Imprimitive wreath action on deg(a) * deg(h) points in deg(h) blocks.

    One copy of each a-generator acts in the least block of each h-orbit (block 0
    alone when h is transitive), so the h-generators, which permute the blocks
    rigidly, carry a copy into every block.  An order |a|^deg(h) * |h| over the
    cap is refused before any image is built, and the result's stabilizer chain
    is checked to give that order.
    """
    cap = max(a.cap, h.cap)
    expected = a.order_within_cap() ** h.degree * h.order_within_cap()
    if expected > cap:
        raise EnumerationCapError(f"wreath product order {expected} exceeds cap {cap}")
    grid = np.arange(a.degree * h.degree).reshape(h.degree, a.degree)  # row b is block b
    minima = component_minima(np.array([g.images for g in h.generators]))
    roots = np.flatnonzero(minima == np.arange(h.degree))  # least block of each h-orbit; np.unique loads numpy.ma
    images = [
        np.where(np.arange(h.degree)[:, None] == root, grid[:, g.images], grid).ravel()
        for root in roots
        for g in a.generators
    ]
    images += [grid[g.images, :].ravel() for g in h.generators]
    result = PermGroup(grid.size, [Perm(i.tolist()) for i in images], cap)
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
    from .sieves import is_prime  # here, so a group command that builds no SL2 never loads the sieves

    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    order = p * (p * p - 1)
    if order > cap:
        raise EnumerationCapError(f"SL2({p}) order {order} exceeds cap {cap}")
    x, y = np.divmod(np.arange(1, p * p), p)  # point x * p + y - 1 is the vector (x, y)
    upper = (x + y) % p * p + y - 1  # ((1, 1), (0, 1)) maps (x, y) to (x + y, y)
    lower = x * p + (x + y) % p - 1  # ((1, 0), (1, 1)) maps (x, y) to (x, x + y)
    return PermGroup(p * p - 1, [Perm(upper.tolist()), Perm(lower.tolist())], cap)


def heisenberg_mod3(cap: int = DEFAULT_CAP) -> PermGroup:
    """The nonabelian group of order 27 and exponent 3, acting on 9 points.

    Built as the group of upper unitriangular 3x3 matrices over the field with
    3 elements -- triples (a, b, c) with (a,b,c)(a',b',c') = (a+a', b+b',
    c+c'+ab') -- then taken in its coset action on the non-central subgroup
    generated by (1, 0, 0).  The construction is verified before returning: order 27
    on 9 points makes the action faithful, and its generators do not commute.
    """
    a, b, c = np.unravel_index(np.arange(27), (3, 3, 3))  # point 9a + 3b + c is the triple (a, b, c)
    translates = ((a + 1, b, c + b), (a, b + 1, c))  # on the left by (1, 0, 0) and by (0, 1, 0)
    x, y = (Perm(np.ravel_multi_index(t, (3, 3, 3), mode="wrap").tolist()) for t in translates)
    regular = PermGroup(27, [x, y], cap)
    action = coset_action(regular, [x])
    g, h = action.generators
    if not (
        action.degree == 9
        and action.order() == 27
        and action.is_transitive()
        and all(e.order() == 3 for e in action.elements()[1:])
        and g * h != h * g
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
    The diagonal maps onto each side, so the two present one group (and share its
    BFS order) exactly when the three stabilizer chains give one order; otherwise
    InconsistentDualRep is raised before anything is enumerated.  Each side's chain is
    built with the cap, so a side over it raises EnumerationCapError while that chain
    grows, and the diagonal of two sides within it has order at most cap**2.  On
    failure the first violating element is reported as its BFS-tree word.
    """
    orders = [PermGroup(side[0].degree, side, cap).order_within_cap() for side in (dual.gens1, dual.gens2)]
    n1 = dual.gens1[0].degree
    gens = [Perm(g1.images + tuple(n1 + i for i in g2.images)) for g1, g2 in zip(dual.gens1, dual.gens2)]
    diagonal = PermGroup(n1 + dual.gens2[0].degree, gens, cap)
    if any(order != diagonal.order() for order in orders):
        raise InconsistentDualRep("a word acts as the identity in one representation but not the other")
    images = diagonal.image_array()
    blocks = images[:, :n1], images[:, n1:] - n1
    ind1, ind2 = (cycle_inds(block).astype(np.int64) for block in blocks)
    a1, a2 = a_value(ind1), a_value(ind2)
    # a2 * ind2 < a1 * ind1, cross-multiplied over the positive denominators
    failing = np.flatnonzero(a2.numerator * a1.denominator * ind2 < a1.numerator * a2.denominator * ind1)
    if failing.size == 0:
        return DominationReport(holds=True, witness=None)
    k = int(failing[0])
    return DominationReport(holds=False, witness=DominationWitness(diagonal.word(k), int(ind1[k]), int(ind2[k]), a1, a2))

