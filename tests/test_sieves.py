import math
import random
import tracemalloc

import numpy as np
import pytest

from galcount import sieves
from galcount.sieves import (
    divisor_bound_check,
    divisor_counts,
    introot,
    is_prime,
    mobius,
    powerful_count,
    powerful_numbers,
    prime_array,
    squarefree_power,
    squarefree_sieve,
)

from oracles import (
    _mobius,
    divisor_count_slow,
    divisor_counts_slow,
    factorize,
    is_squarefree_slow,
    min_exponent,
    powerful_count_slow,
    powerful_numbers_slow,
    spf_table,
)


def test_squarefree_small():
    flags = squarefree_sieve(10)
    assert [n for n in range(1, 11) if flags[n]] == [1, 2, 3, 5, 6, 7, 10]
    assert not flags[0] and not flags[4]
    assert flags[1]


def test_squarefree_against_factorization():
    limit = 10_000
    flags = squarefree_sieve(limit)
    spf = spf_table(limit)
    for n in range(1, limit + 1):
        assert bool(flags[n]) == is_squarefree_slow(n, spf)


def test_primes_against_smallest_prime_factor():
    limit = 10_000
    spf = spf_table(limit)
    primes = [n for n in range(2, limit + 1) if spf[n] == n]
    assert prime_array(limit).tolist() == primes
    assert [n for n in range(-3, limit + 1) if is_prime(n)] == primes
    assert prime_array(1).tolist() == [] and prime_array(2).tolist() == [2]


def test_mobius_against_factorization():
    limit = 10_000
    spf = spf_table(limit)
    expected = [0] + [_mobius(n, spf) for n in range(1, limit + 1)]
    mu = mobius(limit)
    assert mu.dtype == np.int8 and mu.tolist() == expected
    assert mobius(0).tolist() == [0] and mobius(1).tolist() == [0, 1]
    for small in range(1, 51):
        assert mobius(small).tolist() == expected[: small + 1]
    # 2 * 4999 > sqrt(9998): the prime factor above the sieved range flips the sign
    assert mobius(9998).tolist() == expected[:9999] and expected[9998] == 1
    assert mobius(4999)[4999] == -1


@pytest.mark.parametrize("block", [1, 3, 16])
def test_squarefree_power_against_factorization(monkeypatch, block):
    # small blocks split each m's scatter over the q > sqrt(limit) into many
    monkeypatch.setattr(sieves, "_BLOCK", block)
    limit = 10_000
    spf = spf_table(limit)
    parts = [[]] * 2 + [[p**e for p, e in factorize(n, spf).items()] for n in range(2, limit + 1)]
    primes = prime_array(limit)
    cases = [(primes, -1), (primes[1:], 3)]  # mu, and 3^omega at the odd squarefree n
    for ell in (3, 5):  # the admissible conductor factors, ell^2 among them
        cases.append((np.sort(np.append(primes[primes % ell == 1], ell * ell)), ell - 1))
    for q, c in cases:
        members = set(q.tolist())  # prime powers, so n is a product of members when each of its parts is one
        expected = [0] + [c ** len(f) if members.issuperset(f) else 0 for f in parts[1:]]
        for small in list(range(51)) + [4999, 9998, limit]:
            # the large limits keep the members above them, which reach no n
            h = squarefree_power(q if small > 50 else q[q <= small], c, small)
            dtype = np.int8 if abs(c) <= 1 else next(t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max >= small)
            assert h.dtype == dtype and h.tolist() == expected[: small + 1], (c, small)
    with pytest.raises(ValueError):
        squarefree_power(primes, -1, -1)


def test_squarefree_power_holds_no_array_per_big_member():
    # the 10 MB int8 table and one block's scatter (traced peak 10.6 MB); a slice over the
    # whole table for q = 2 would add 5 MB, and int64 arrays over the 664,000 primes above
    # sqrt(limit) over 5 MB
    primes = prime_array(10**7)
    tracemalloc.start()
    try:
        mu = squarefree_power(primes, -1, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000, peak
    assert int(mu.sum(dtype=np.int64)) == 1037 and int(np.count_nonzero(mu)) == 6079291


def test_is_prime_miller_rabin_range():
    primes = set(prime_array(100_000).tolist())
    assert [n for n in range(-3, 100_001) if is_prime(n)] == sorted(primes)
    assert is_prime(2**61 - 1)
    assert not is_prime(3825123056546413051)  # strong pseudoprime to the bases 2..23
    assert not is_prime((2**31 - 1) ** 2) and not is_prime((2**31 - 1) * (2**19 - 1))
    assert is_prime(2**64 - 59)
    with pytest.raises(ValueError, match="primality"):
        is_prime(10**25 + 1)


def test_introot():
    assert introot(0, 3) == 0
    assert introot(1, 5) == 1
    assert introot(10**18, 2) == 10**9
    for x in [7, 8, 9, 26, 27, 28, 10**15 - 1, 10**15, 10**15 + 1]:
        for k in (2, 3, 4, 5):
            r = introot(x, k)
            assert r**k <= x < (r + 1) ** k
    # 2**k > x: answered without building 2**k, which would not fit in memory
    assert introot(10**6, 2**64) == 1
    assert introot(1, 2**64) == 1
    assert introot(0, 2**64) == 0


def test_introot_exact_far_beyond_the_float_guess():
    # a float estimate of the fourth root of 10**96 is off by 16,777,216
    assert introot(10**96, 4) == 10**24
    assert introot(10**100, 4) == 10**25
    assert introot(10**200, 4) == 10**50
    rng = random.Random(20)
    for _ in range(300):
        x = rng.randrange(1, 10 ** rng.randrange(1, 301))
        for k in (2, 3, 4, 5, 7, rng.randrange(2, 61)):
            r = introot(x, k)
            assert r**k <= x < (r + 1) ** k, (x, k)
    for k in range(2, 61):
        for x in (2**k - 1, 2**k, 3**k - 1, 3**k, 10**300):
            r = introot(x, k)
            assert r**k <= x < (r + 1) ** k, (x, k)


def test_powerful_count_basics():
    assert powerful_count(1, 10) == 10
    assert powerful_count(2, 100) == 14
    assert powerful_count(3, 1) == 1
    assert powerful_count(2, 0) == 0
    assert powerful_numbers(2, 100) == [1, 4, 8, 9, 16, 25, 27, 32, 36, 49, 64, 72, 81, 100]


def test_powerful_against_factorization():
    limit = 50_000
    spf = spf_table(limit)
    for k in (2, 3, 4):
        expected = [n for n in range(1, limit + 1) if min_exponent(n, spf) >= k]
        assert powerful_numbers(k, limit) == expected
        assert powerful_count(k, limit) == len(expected)


# past 2**63 the parts are exact Python ints; each x there keeps the recursion near a second
# (about 3 s for k = 2, whose recursion at 2**63 takes that long)
POWERFUL_BEYOND_INT64 = {2: 2**63 + 1, 3: 2**68, 4: 2**76, 5: 2**88}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_powerful_count_matches_recursion(k):
    for x in (0, 1, 2, 7, 100, 10**6 + 3, 10**12, 2**62 - 1, 2**62 + 1, POWERFUL_BEYOND_INT64[k]):
        assert powerful_count(k, x) == powerful_count_slow(k, x), (k, x)
    assert powerful_numbers(k, 10**6) == powerful_numbers_slow(k, 10**6)


def test_powerful_monotonicity():
    for x in (10, 100, 1000, 4096):
        for k in (1, 2, 3, 4):
            assert powerful_count(k, x) <= powerful_count(k, x + 1000)
            assert powerful_count(k + 1, x) <= powerful_count(k, x)


def test_powerful_normalized_ratio_stabilizes():
    r8 = powerful_count(2, 10**8) / math.sqrt(10**8)
    r9 = powerful_count(2, 10**9) / math.sqrt(10**9)
    assert abs(r9 - r8) / r8 < 0.05


def test_divisor_counts():
    t = divisor_counts(10_000)
    assert t[1] == 1
    assert t[12] == 6
    for n in range(1, 10_001):
        assert t[n] == divisor_count_slow(n)


def test_divisor_counts_match_slice_loop():
    # t[n] depends only on the divisors d <= n, so the reference table for any
    # limit up to 2000 is a prefix of the one for 2000
    reference = divisor_counts_slow(2000)
    for limit in range(1, 2001):
        t = divisor_counts(limit)
        assert t.dtype == reference.dtype and np.array_equal(t, reference[: limit + 1]), limit
    t = divisor_counts(10**6)
    reference = divisor_counts_slow(10**6)
    assert t.dtype == reference.dtype == np.int32
    assert np.array_equal(t, reference)


def test_divisor_bound_check():
    report = divisor_bound_check(100, 1.0)
    assert report.holds
    assert report.max_ratio == pytest.approx(1.0)  # attained at n = 2
    assert report.bound == pytest.approx(math.exp(2 / math.log(2)))
    for eps in (1.0, 0.5, 0.25):
        assert divisor_bound_check(100_000, eps).holds


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_divisor_bound_check_refuses_non_finite_epsilon(eps):
    # a NaN ratio would drop out of the running maximum and report holds=True
    with pytest.raises(ValueError, match="finite"):
        divisor_bound_check(100, eps)


@pytest.mark.parametrize("limit", [1, sieves._BLOCK - 1, sieves._BLOCK, sieves._BLOCK + 1, 3 * sieves._BLOCK + 7, 10**6])
def test_divisor_bound_check_blocks_match_one_array(limit):
    t = divisor_counts(limit)
    n = np.arange(limit + 1, dtype=np.float64)
    for eps in (0.25, 0.5, 1.0):
        assert divisor_bound_check(limit, eps).max_ratio == float((t[1:] / n[1:] ** eps).max())


def test_divisor_bound_check_holds_one_table_and_one_block():
    # the int32 table is 4 MB; three float64 arrays over every n would add 24 MB
    tracemalloc.start()
    try:
        divisor_bound_check(10**6, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000
