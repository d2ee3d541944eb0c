"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the library's own algorithms: group orders
come from an orbit-stabilizer (Schreier) recursion instead of breadth-first
closure, element lists from a closure one ``Perm`` product at a time instead
of the image-array engine, squarefree/powerful tests from smallest-prime-factor
factorization instead of square striking, cyclic-field multiplicities from counting
characters (solutions of x^ell = 1 plus Moebius over the divisor lattice)
instead of the conductor formula, and biquadratic triples from a
perfect-square test on products of three discriminants.
"""

from __future__ import annotations

import math
from fractions import Fraction

from galcount.groups import EnumerationCapError
from galcount.perms import Perm


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


def regular_index_formula(order: int, element_order: int) -> Fraction:
    """|G|(m-1)/m, the index of an order-m element in the regular action."""
    return Fraction(order * (element_order - 1), element_order)
