"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the library's own algorithms: group orders
come from an orbit-stabilizer (Schreier) recursion instead of breadth-first
closure, element lists from a closure one ``Perm`` product at a time instead
of the image-array engine, coset actions and the domination check from ``Perm``
sets and dicts with each side enumerated on its own instead of one diagonal
image array, squarefree/powerful tests from smallest-prime-factor
factorization instead of square striking, powerful counts from a recursive
walk over their squarefree coprime parts instead of one array pass per
exponent, cyclic-field multiplicities from counting
characters (solutions of x^ell = 1 plus Moebius over the divisor lattice), or
from a recursive walk over products of split primes, instead of the
multiplicative conductor table, biquadratic triples from a
perfect-square test on products of three discriminants, divisor counts from
one slice update per d <= limit instead of divisor pairs, census tallies
from one record object per line merged through a dict instead of sorted runs,
and leave-one-out exponent shifts from one ``np.linalg.lstsq`` refit per
sample instead of the fit's leverages.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from galcount.constructions import DominationReport, DominationWitness, DualRep, InconsistentDualRep
from galcount.fields import CENSUS_HEADER, CensusFormatError, CensusRecord, DiscriminantTally
from galcount.groups import DEFAULT_CAP, EnumerationCapError, PermGroup
from galcount.perms import Perm
from galcount.sieves import introot, squarefree_sieve


# ---------------------------------------------------------------------------
# group order via orbit-stabilizer recursion


def schreier_order(degree: int, gens: list[Perm]) -> int:
    gens = [g for g in gens if not g.is_identity]
    if not gens:
        return 1
    base = min(p for g in gens for p in range(degree) if g(p) != p)
    transversal = {base: Perm.identity(degree)}
    frontier = [base]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = g(p)
                if q not in transversal:
                    transversal[q] = g * transversal[p]
                    new.append(q)
        frontier = new
    stabilizer_gens = set()
    for p, u in transversal.items():
        for g in gens:
            s = transversal[g(p)].inverse() * g * u
            if not s.is_identity:
                stabilizer_gens.add(s)
    return len(transversal) * schreier_order(degree, sorted(stabilizer_gens, key=lambda x: x.images))


def bfs_elements(degree: int, generators: list[Perm], cap: int) -> tuple[Perm, ...]:
    """Breadth-first closure one ``Perm`` product at a time: by level, then parent,
    then generator index, raising at the first element past the cap."""
    identity = Perm.identity(degree)
    seen = {identity}
    out = [identity]
    frontier = [identity]
    while frontier:
        level = []
        for elem in frontier:
            for gen in generators:
                new = elem * gen
                if new not in seen:
                    seen.add(new)
                    level.append(new)
                    if len(seen) > cap:
                        raise EnumerationCapError(
                            f"group order exceeds cap {cap}"
                        )
        out.extend(level)
        frontier = level
    return tuple(out)


# ---------------------------------------------------------------------------
# coset actions and index domination one ``Perm`` at a time


def coset_action_slow(group: PermGroup, subgroup_gens: Sequence[Perm]) -> tuple[PermGroup, bool]:
    """Action of the group on the left cosets of the subgroup the given elements generate.

    Cosets are labelled by first occurrence in the group's element enumeration,
    so ``coset_action(G, [identity])`` reproduces ``regular_rep(G)`` exactly.
    Returns the degree-[G:H] group and whether the action is faithful.
    """
    elements = group.elements()
    element_set = set(elements)
    subgroup_gens = list(subgroup_gens)
    for s in subgroup_gens:
        if s not in element_set:
            raise ValueError(f"subgroup generator {s} is not in the group")
    if not subgroup_gens:
        subgroup_gens = [group.identity()]
    subgroup = PermGroup(group.degree, subgroup_gens, group.cap).elements()

    label: dict[Perm, int] = {}
    reps: list[Perm] = []
    for x in elements:
        if x not in label:
            for h in subgroup:
                label[x * h] = len(reps)
            reps.append(x)

    new_gens = [Perm(label[g * rep] for rep in reps) for g in group.generators]
    action = PermGroup(len(reps), new_gens, group.cap)
    faithful = action.order() == len(elements)
    return action, faithful


def check_index_domination_slow(dual: DualRep, cap: int = DEFAULT_CAP) -> DominationReport:
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
    ind1, ind2 = (np.array([e.ind() for e in elems], dtype=np.int64) for elems in (elems1, elems2))
    # a2 * ind2 < a1 * ind1, cross-multiplied over the positive denominators
    failing = np.flatnonzero(a2.numerator * a1.denominator * ind2 < a1.numerator * a2.denominator * ind1)
    if failing.size == 0:
        return DominationReport(holds=True, witness=None)
    k = int(failing[0])
    word = bfs_tree_word(sides[0], pos1, k)
    return DominationReport(holds=False, witness=DominationWitness(word, int(ind1[k]), int(ind2[k]), a1, a2))


def bfs_tree_word(group: PermGroup, position: dict[Perm, int], k: int) -> tuple[int, ...]:
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


# ---------------------------------------------------------------------------
# factorization helpers (smallest prime factor table)


def spf_table(limit: int) -> list[int]:
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def factorize(n: int, spf: list[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
    return out


def min_exponent(n: int, spf: list[int]) -> float:
    """Smallest prime exponent in n's factorization; infinity for n = 1."""
    if n == 1:
        return math.inf
    return min(factorize(n, spf).values())


def is_squarefree_slow(n: int, spf: list[int]) -> bool:
    n = abs(n)
    if n == 0:
        return False
    return n == 1 or max(factorize(n, spf).values()) == 1


def is_fundamental_slow(d: int, spf: list[int]) -> bool:
    """Two-case definition of a fundamental discriminant, checked directly."""
    if d == 1 or d == 0:
        return False
    if d % 4 == 1:
        return is_squarefree_slow(d, spf)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree_slow(m, spf)
    return False


def fundamental_discriminants_slow(x: int) -> list[int]:
    spf = spf_table(x + 1)
    out = [d for a in range(1, x + 1) for d in (-a, a) if is_fundamental_slow(d, spf)]
    out.sort(key=lambda d: (abs(d), d))
    return out


# ---------------------------------------------------------------------------
# cyclic fields of prime degree ell, counted through characters


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _mobius(n: int, spf: list[int]) -> int:
    factors = factorize(n, spf) if n > 1 else {}
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def _chars_killed_by(ell: int, m: int) -> int:
    """Number of characters of (Z/m)* of order dividing ell (= #solutions of x^ell = 1)."""
    if m == 1:
        return 1
    return sum(1 for x in range(1, m) if math.gcd(x, m) == 1 and pow(x, ell, m) == 1)


def cyclic_multiplicity_slow(ell: int, f: int, spf: list[int]) -> int:
    """Cyclic degree-ell fields of conductor exactly f: primitive characters / (ell-1)."""
    if f < 2:
        return 0
    primitive = sum(_mobius(f // d, spf) * _chars_killed_by(ell, d) for d in _divisors(f))
    assert primitive % (ell - 1) == 0
    return primitive // (ell - 1)


def cyclic_conductor_table_slow(ell: int, fmax: int) -> dict[int, int]:
    spf = spf_table(fmax + 1)
    table = {}
    for f in range(2, fmax + 1):
        m = cyclic_multiplicity_slow(ell, f, spf)
        if m:
            table[f] = m
    return table


def cyclic_conductors_slow(ell: int, fmax: int) -> dict[int, int]:
    """{f: multiplicity} for the admissible conductors 2 <= f <= fmax, ascending, by a
    depth-first walk over products of distinct primes = 1 (mod ell), each product
    also taken times ell^2; t factors (ell^2 counting as one) give (ell-1)**(t-1)."""
    spf = spf_table(fmax)
    split_primes = [p for p in range(2, fmax + 1) if spf[p] == p and p % ell == 1]
    wild = ell * ell
    table: dict[int, int] = {}

    def extend(start: int, f: int, t: int) -> None:
        if t >= 1:
            table[f] = (ell - 1) ** (t - 1)
        if f * wild <= fmax:
            table[f * wild] = (ell - 1) ** t
        for i in range(start, len(split_primes)):
            nf = f * split_primes[i]
            if nf > fmax:
                break
            extend(i + 1, nf, t + 1)

    extend(0, 1, 0)
    return dict(sorted(table.items()))


# ---------------------------------------------------------------------------
# biquadratic fields from perfect-square triples


def biquadratic_discs_slow(xmax: int) -> list[int]:
    """|disc| of each triple of distinct fundamental discriminants whose product
    is a perfect square, with |product| <= xmax."""
    discs = fundamental_discriminants_slow(xmax // 12)  # the other two contribute >= 3*4
    out = []
    for i, d1 in enumerate(discs):
        a1 = abs(d1)
        for j in range(i + 1, len(discs)):
            d2 = discs[j]
            a2 = abs(d2)
            if a1 * a2 * a2 > xmax:
                break
            for k in range(j + 1, len(discs)):
                d3 = discs[k]
                product = a1 * a2 * abs(d3)
                if product > xmax:
                    break
                signed = d1 * d2 * d3
                if signed > 0 and math.isqrt(signed) ** 2 == signed:
                    out.append(product)
    out.sort()
    return out


# ---------------------------------------------------------------------------
# misc


def divisor_count_slow(n: int) -> int:
    c = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            c += 1 if d * d == n else 2
        d += 1
    return c


def _powerful_parts_slow(k: int, x: int):
    """The products c_{k+1}^{k+1} * ... * c_{2k-1}^{2k-1} <= x with the c_j squarefree and
    pairwise coprime, by a recursive walk over the exponents, one candidate c at a time."""
    squarefree = squarefree_sieve(max(introot(x, k + 1), 1))
    exps = list(range(k + 1, 2 * k))

    def rec(idx: int, prod: int, used: tuple[int, ...]):
        if idx == len(exps):
            yield prod
            return
        j = exps[idx]
        c = 1
        while prod * c**j <= x:
            if squarefree[c] and all(math.gcd(c, u) == 1 for u in used):
                yield from rec(idx + 1, prod * c**j, used + (c,))
            c += 1

    yield from rec(0, 1, ())


def powerful_count_slow(k: int, x: int) -> int:
    """Number of k-powerful n <= x (k >= 2): introot(x // part, k) summed over the parts."""
    return sum(introot(x // prod, k) for prod in _powerful_parts_slow(k, x)) if x >= 1 else 0


def powerful_numbers_slow(k: int, x: int) -> list[int]:
    """Sorted k-powerful n <= x (k >= 2): each part times b^k for b = 1, 2, ..."""
    out = []
    for prod in _powerful_parts_slow(k, x) if x >= 1 else ():
        b = 1
        while prod * b**k <= x:
            out.append(prod * b**k)
            b += 1
    return sorted(out)


def regular_index_formula(order: int, element_order: int) -> Fraction:
    """|G|(m-1)/m, the index of an order-m element in the regular action."""
    return Fraction(order * (element_order - 1), element_order)


def divisor_counts_slow(limit: int) -> np.ndarray:
    """t[n] = number of positive divisors of n, for n = 1..limit (t[0] = 0)."""
    if limit < 1:
        raise ValueError("limit must be positive")
    t = np.zeros(limit + 1, dtype=np.int32)
    for d in range(1, limit + 1):
        t[d::d] += 1
    return t


# ---------------------------------------------------------------------------
# leave-one-out exponent shifts, one refit per sample


def loo_max_shift_slow(samples: Sequence[tuple[float, float]], log_power) -> float:
    """The largest |a_hat change| over refits that each leave one usable sample out, skipping removals
    that leave fewer than 3 distinct x; nan with fewer than 4 usable samples or no refit left."""
    fitted = log_power == "fit"
    b = 0.0 if fitted else float(log_power)
    usable = [(float(x), float(z)) for x, z in samples if z > 0 and x >= 1 and not ((fitted or b != 0) and x <= 1)]

    def slope(points: list[tuple[float, float]]) -> float:
        logx, target = np.log([x for x, _ in points]), np.log([z for _, z in points])
        columns = [np.ones_like(logx), logx]
        if fitted:
            columns.append(np.log(logx))
        elif b != 0:
            target = target - b * np.log(logx)
        return float(np.linalg.lstsq(np.column_stack(columns), target, rcond=None)[0][1])

    if len(usable) < 4:
        return math.nan
    a_hat = slope(usable)
    shifts = []
    for i in range(len(usable)):
        rest = usable[:i] + usable[i + 1 :]
        if len({x for x, _ in rest}) >= 3:
            shifts.append(abs(slope(rest) - a_hat))
    return max(shifts, default=math.nan)


# ---------------------------------------------------------------------------
# census ingestion, one CensusRecord per line


def read_census_records_slow(text: str) -> list[CensusRecord]:
    """Parse a census file's text, split at "\\n", into records, rejecting malformed
    lines by number.

    Format: first line exactly ``degree,group,abs_disc``, then comma-separated
    records with integer degree, a label without commas, and a positive
    integer absolute discriminant.
    """
    lines = text.split("\n")
    if lines[0].strip() != CENSUS_HEADER:
        raise CensusFormatError(f"line 1: header must be {CENSUS_HEADER!r}")
    records = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise CensusFormatError(f"line {number}: expected 3 comma-separated fields")
        degree_text, label, disc_text = (p.strip() for p in parts)
        try:
            degree = int(degree_text)
            abs_disc = int(disc_text)
        except ValueError:
            raise CensusFormatError(f"line {number}: non-integer field") from None
        if degree < 1:
            raise CensusFormatError(f"line {number}: degree must be positive")
        if abs_disc < 1:
            raise CensusFormatError(f"line {number}: abs_disc must be at least 1")
        if not label:
            raise CensusFormatError(f"line {number}: empty group label")
        records.append(CensusRecord(degree, label, abs_disc))
    return records


def ingest_census_slow(text: str) -> dict[str, DiscriminantTally]:
    """Read a census of fields (one per line) and group it into tallies by label.

    Repeated (label, abs_disc) records accumulate multiplicity, and the tally repeats
    each |disc| that many times.
    """
    grouped: dict[str, dict[int, int]] = {}
    for record in read_census_records_slow(text):
        merged = grouped.setdefault(record.group_label, {})
        merged[record.abs_disc] = merged.get(record.abs_disc, 0) + 1
    return {
        label: DiscriminantTally(label, [d for d, m in sorted(merged.items()) for _ in range(m)])
        for label, merged in grouped.items()
    }
