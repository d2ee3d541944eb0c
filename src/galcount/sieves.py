"""Integer sieves: primes, one multiplicative table over squarefree n (the Möbius
function is one case of it), squarefree flags, k-powerful counting, and divisor tables
with the divisor growth bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# elements per array block: squarefree_power scatters, quadratic dot products,
# divisor ratios, census text
_BLOCK = 1 << 16


def prime_array(limit: int) -> np.ndarray:
    """All primes p <= limit, ascending, as an int64 array, by the sieve of Eratosthenes."""
    limit = max(limit, 0)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64, copy=False)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # the bases above decide every n below this


def is_prime(n: int) -> bool:
    """Primality of n by the strong probable-prime test to the first 13 prime bases,
    which no composite below 3.3e24 passes.  Raises ValueError for larger n."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is only decided below {_MR_LIMIT}, got {n}")
    if n in _MR_BASES:
        return True
    if n < 2 or n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def squarefree_power(q: np.ndarray, c: int, limit: int) -> np.ndarray:
    """h[n] = c**t for each n = 0..limit that is a product of t >= 0 distinct members of
    q, and h[n] = 0 at every other n (so h[0] = 0 and h[1] = 1).

    q is an ascending array of pairwise coprime integers >= 2 and |c| <= q[0], so
    |h[n]| <= n: h is int8 when |c| <= 1, else the least signed dtype that holds limit.
    The Möbius function is q = every prime, c = -1.

    h is multiplicative, so the table is built one q at a time: before q joins, h
    vanishes on every multiple of q (the earlier members are coprime to it), so
    h[q*m] = c * h[m] fills them all.  Each q <= sqrt(limit) is one slice.  The
    q > sqrt(limit) go in after them, from each m <= limit // q_min with h[m] != 0 (q_min
    the least such q): h[q*m] = c * h[m] at every such q <= limit // m, ``_BLOCK`` of
    them per scatter.  Such m < sqrt(limit) < q, so h[m] is already final and no target
    is ever read, and no target has two members above sqrt(limit), so no two writes meet.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    h = np.zeros(limit + 1, dtype=np.int8 if abs(c) <= 1 else np.min_scalar_type(-limit - 1))
    h[1:2] = 1
    split = np.searchsorted(q, math.isqrt(limit), side="right")
    for small in q[:split].tolist():
        h[small::small] = c * h[1 : limit // small + 1]
    big = q[split:]
    if big.size:
        for m in np.flatnonzero(h[: limit // big[0] + 1]).tolist():
            reach = big[: np.searchsorted(big, limit // m, side="right")]  # the big q with q*m <= limit
            for start in range(0, reach.size, _BLOCK):
                h[reach[start : start + _BLOCK] * m] = c * h[m]
    return h


def mobius(limit: int) -> np.ndarray:
    """mu[n] for n = 0..limit as an int8 array (mu[0] = 0): ``squarefree_power`` over
    every prime with c = -1."""
    return squarefree_power(prime_array(limit), -1, limit)


def squarefree_sieve(limit: int) -> np.ndarray:
    """Bool flags over 0..limit, True at the n >= 1 with no square divisor, by
    striking the multiples of p^2 for each prime p."""
    if limit < 1:
        raise ValueError("limit must be positive")
    flags = np.ones(limit + 1, dtype=bool)
    flags[0] = False
    for p in prime_array(math.isqrt(limit)).tolist():
        flags[p * p :: p * p] = False
    return flags


def introot(x: int, k: int) -> int:
    """Largest integer r with r**k <= x (exact integer arithmetic).

    Newton's iteration in integers from 2**ceil(bits(x) / k) > x**(1/k): each step stays at or
    above the root (by the AM-GM inequality) and falls while above it, so the first step that
    does not fall stops at the root, after O(log bits(x)) steps.
    """
    if x < 0 or k < 1:
        raise ValueError("x must be nonnegative and k positive")
    if k == 2:
        return math.isqrt(x)
    if x == 0 or k >= x.bit_length():  # 2**k > x, and 2**k itself may not fit in memory
        return min(x, 1)
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _fits(r: np.ndarray, k: int, q: np.ndarray) -> np.ndarray:
    """r**k <= q for each r >= 1, as k floor divisions leaving q >= 1: no power, no overflow."""
    for _ in range(k):
        q = q // r
    return q >= 1


def _roots(q: np.ndarray, log_q: np.ndarray, k: int) -> np.ndarray:
    """floor(q**(1/k)) for each q >= 1 (int64 or ``dtype=object``) as int64: the float
    estimate exp(log_q / k), corrected one step at a time in exact integers."""
    r = np.maximum(np.floor(np.exp(log_q / k)), 1).astype(np.int64)
    while not (low := _fits(r, k, q)).all():
        r -= ~low
    while (high := _fits(r + 1, k, q)).any():
        r += high
    return r


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, c) for each i and c = 1..counts[i], in that order, as two int64 arrays."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1


def _powerful_parts(k: int, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The products prod = c_{k+1}^{k+1} * ... * c_{2k-1}^{2k-1} <= x, c_j squarefree and
    pairwise coprime, each with its number of b >= 1 with prod * b^k <= x: one array pass per
    j expands each partial product into its c <= (x / prod)^(1/j), kept when squarefree and
    coprime to rad, the product of the c used (<= x^(1/(k+1)), so int64).  Parts are int64
    below 2**63, else ``dtype=object``; every k-powerful n is b^k times exactly one part."""
    squarefree = squarefree_sieve(max(introot(x, k + 1), 1))
    prod, rad, log_prod = np.ones(1, dtype=np.int64 if x < 2**63 else object), np.ones(1, dtype=np.int64), np.zeros(1)
    for j in range(k + 1, 2 * k):
        owner, c = _expand(_roots(x // prod, math.log(x) - log_prod, j))
        keep = squarefree[c] & (np.gcd(c, rad[owner]) == 1)
        owner, c = owner[keep], c[keep]
        prod, rad, log_prod = prod[owner] * c.astype(prod.dtype) ** j, rad[owner] * c, log_prod[owner] + j * np.log(c)
    return prod, _roots(x // prod, math.log(x) - log_prod, k)


def powerful_count(k: int, x: int) -> int:
    """Number of n <= x whose primes all occur with exponent >= k.

    Sublinear in x: sums floor(x / prod)^(1/k) over the squarefree coprime parts, exactly
    and without factoring each n; memory is the parts array and one pass's candidates.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if x < 1 or k == 1:
        return max(x, 0)
    return int(np.sum(_powerful_parts(k, x)[1], dtype=object))


def powerful_numbers(k: int, x: int) -> list[int]:
    """Sorted list of the k-powerful integers <= x: each part times b^k for b = 1, 2, ..."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if x < 1 or k == 1:
        return list(range(1, x + 1))
    prod, counts = _powerful_parts(k, x)
    owner, b = _expand(counts)
    return np.sort(prod[owner] * b.astype(prod.dtype) ** k).tolist()


def divisor_counts(limit: int) -> np.ndarray:
    """t[n] = number of positive divisors of n, for n = 1..limit (t[0] = 0).

    The divisors of n pair up as (d, n/d) with d < n/d, plus d alone when
    n = d*d, so every divisor pair is found from its smaller member d <= sqrt(n):
    d*d gains 1, and each multiple d*m with m > d gains 2 (for d and m).  That
    is sqrt(limit) slice updates touching about limit*log(limit)/2 entries.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    t = np.zeros(limit + 1, dtype=np.int32)
    for d in range(1, math.isqrt(limit) + 1):
        t[d * d] += 1
        t[d * (d + 1) :: d] += 2
    return t


@dataclass(frozen=True)
class DivisorBoundReport:
    max_ratio: float
    bound: float
    holds: bool


def divisor_bound_check(limit: int, epsilon: float) -> DivisorBoundReport:
    """Compare max of t(n)/n^epsilon over n <= limit with exp(2^(1/eps)/(eps log 2)), for
    a finite eps > 0, from the int32 divisor table (4 bytes per n) plus one ``_BLOCK`` of
    ratios at a time."""
    eps = float(epsilon)
    if limit < 1 or not 0 < eps < math.inf:
        raise ValueError("limit must be positive and epsilon finite and > 0")
    t = divisor_counts(limit)
    max_ratio = 0.0
    for start in range(1, limit + 1, _BLOCK):
        powers = np.arange(start, min(start + _BLOCK, limit + 1), dtype=np.float64) ** eps
        max_ratio = max(max_ratio, float((t[start : start + powers.size] / powers).max()))
    with np.errstate(over="ignore"):
        bound = float(np.exp(2.0 ** (1.0 / eps) / (eps * math.log(2.0))))
    return DivisorBoundReport(max_ratio, bound, max_ratio <= bound)
