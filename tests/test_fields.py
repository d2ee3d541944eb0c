import bisect
import math
import random
import tracemalloc

import numpy as np
import pytest

from galcount import fields
from galcount.fields import (
    CensusFormatError,
    DiscriminantTally,
    biquadratic_discs,
    count_biquadratic,
    count_cyclic_ell,
    count_quadratic,
    cyclic_conductors,
    cyclic_tally,
    fundamental_discriminants,
    ingest_census,
    quadratic_samples,
    tally_samples,
)
from galcount.sieves import introot, mobius, powerful_numbers, prime_array

from oracles import (
    biquadratic_discs_slow,
    biquadratic_discs_triples,
    compose_discriminants,
    cyclic_conductor_table_slow,
    cyclic_conductors_slow,
    fundamental_discriminants_slow,
)


def test_fundamental_discriminants_small():
    assert fundamental_discriminants(10).tolist() == [-3, -4, 5, -7, -8, 8]
    assert fundamental_discriminants(3).tolist() == [-3]
    for x in (1, 0, -5):
        empty = fundamental_discriminants(x)
        assert empty.dtype == np.int64 and empty.tolist() == []


def test_fundamental_discriminants_against_bruteforce():
    discs = fundamental_discriminants(20_000)
    assert discs.dtype == np.int64 and (np.diff(np.abs(discs)) >= 0).all()
    assert discs.tolist() == fundamental_discriminants_slow(20_000)


def test_count_quadratic():
    assert count_quadratic(10) == 6
    assert count_quadratic(1) == 0
    assert count_quadratic(10_000) == len(fundamental_discriminants(10_000))
    abs_discs = [abs(d) for d in fundamental_discriminants(3000)]
    for x in range(1, 3001):
        assert count_quadratic(x) == bisect.bisect_right(abs_discs, x)
    # values of the earlier O(x) sieve, and one far beyond its reach: a sum
    # done in int8 or float arithmetic would not land on this integer
    assert count_quadratic(10**7) == 6_079_285
    assert count_quadratic(3 * 10**7) == 18_237_811
    assert count_quadratic(10**12) == 607_927_101_751


@pytest.mark.parametrize("block", [1, 3])
def test_quadratic_samples_at_square_boundaries(monkeypatch, block):
    # S(y) changes at the y = d^2, and the count reads S at x, x // 4 and x // 8; with
    # a block of 1 or 3 odd d, every sum over more than that many d crosses block seams
    monkeypatch.setattr(fields, "_BLOCK", block)
    grid = sorted({k * m * m + e for m in range(1, 102, 2) for k in (1, 4, 8) for e in (-1, 0, 1)})
    abs_discs = [abs(d) for d in fundamental_discriminants_slow(grid[-1])]
    assert quadratic_samples(grid) == [(x, bisect.bisect_right(abs_discs, x)) for x in grid]


def test_quadratic_samples_nonpositive_grid_points():
    assert quadratic_samples([-5, 0, 10]) == [(-5, 0), (0, 0), (10, 6)]


def test_quadratic_samples_monotone():
    samples = quadratic_samples([1, 10, 100, 1000, 10_000])
    counts = [z for _, z in samples]
    assert counts == sorted(counts)
    assert counts[1] == 6


def test_cyclic_conductors_small():
    assert cyclic_conductors(3, 13) == {7: 1, 9: 1, 13: 1}
    assert cyclic_conductors(3, 6) == {}
    assert cyclic_conductors(3, 1) == {}
    assert cyclic_conductors(3, 63)[63] == 2  # 63 = 9 * 7: t = 2 ramified places
    assert cyclic_conductors(2_147_483_647, 10**5) == {}


def test_cyclic_conductors_against_character_oracle():
    for ell, fmax in [(3, 400), (5, 1500), (7, 2500)]:
        assert cyclic_conductors(ell, fmax) == cyclic_conductor_table_slow(ell, fmax)


def test_cyclic_conductors_against_recursive_walk():
    for ell in (3, 5, 7, 11, 13):
        fmaxes = [*range(301), ell**2 - 1, ell**2 + 1, ell**3 - 1, ell**3 + 1]
        for fmax in fmaxes:
            got = cyclic_conductors(ell, fmax)
            assert got == cyclic_conductors_slow(ell, fmax)
            assert list(got) == sorted(got)
    assert cyclic_conductors(3, 10**5) == cyclic_conductors_slow(3, 10**5)


def test_cyclic_tally_against_recursive_walk():
    for ell, xmax in [(3, 10**12), (5, 10**16)]:
        conductors = cyclic_conductors_slow(ell, introot(xmax, ell - 1))
        expected = tuple((f ** (ell - 1), m) for f, m in conductors.items())
        assert cyclic_tally(ell, xmax).entries == expected


@pytest.mark.parametrize("ell", [5, 7])
def test_cyclic_tally_past_int64(ell):
    # f**(ell - 1) passes 2**63 below 10**20, where an int64 power would wrap
    xmax = 10**20
    conductors = cyclic_conductors_slow(ell, introot(xmax, ell - 1))
    expected = tuple((f ** (ell - 1), m) for f, m in conductors.items())
    assert expected[-1][0] > 2**63
    tally = cyclic_tally(ell, xmax)
    assert tally.entries == expected
    for x in (2**63 - 1, 2**63, expected[-1][0] - 1, xmax, 2**70):
        assert tally.count_up_to(x) == sum(m for d, m in expected if d <= x)


@pytest.mark.parametrize("ell", [3, 5, 7, 13])
def test_cyclic_large_q_scatter_against_oracles(ell):
    # below ell**4, q = ell**2 is above sqrt(fmax) and joins the scatter with the large split primes
    wild = ell * ell
    for fmax in [0, 1, 2 * ell, 2 * ell + 1, wild - 1, wild, wild + 1, 3 * wild, wild * wild - 1, wild * wild, 5000]:
        conductors = cyclic_conductors_slow(ell, fmax)
        assert cyclic_conductors(ell, fmax) == conductors
        expected = tuple((f ** (ell - 1), m) for f, m in conductors.items())
        assert cyclic_tally(ell, fmax ** (ell - 1)).entries == expected


def test_cyclic_conductor_shape():
    for ell in (3, 5, 7):
        powers = {(ell - 1) ** t for t in range(12)}  # (ell-1)**t < f <= 3000
        assert set(cyclic_conductors(ell, 3000).values()) <= powers


@pytest.mark.parametrize(
    "build, bound",
    [
        # 10 MB of int8 plus the primes; a uint32 remainder beside it would add 40 MB
        (lambda: mobius(10**7), 40_000_000),
        # 40 MB of int32 conductor table over f <= 10**7; an int64 one is 80 MB alone
        (lambda: cyclic_tally(3, 10**14), 80_000_000),
    ],
)
def test_multiplicative_tables_hold_one_narrow_array(build, bound):
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_count_cyclic_ell():
    assert count_cyclic_ell(3, 48) == 0
    assert count_cyclic_ell(3, 49) == 1
    assert count_cyclic_ell(3, 81) == 2
    assert count_cyclic_ell(3, 3969) == 10
    with pytest.raises(ValueError):
        count_cyclic_ell(4, 100)
    with pytest.raises(ValueError):
        count_cyclic_ell(2, 100)


def test_cyclic_first_discriminants():
    # no fields below (2*ell+1)^(ell-1) when 2*ell+1 is the least split prime
    assert count_cyclic_ell(3, 48) == 0
    assert count_cyclic_ell(5, 11**4 - 1) == 0
    assert count_cyclic_ell(5, 11**4) == 1


def test_cyclic_discriminants_are_powerful():
    xmax = 10**6
    tally = cyclic_tally(3, xmax)
    powerful = set(powerful_numbers(2, xmax))
    assert all(d in powerful for d, _ in tally.entries)

    tally5 = cyclic_tally(5, xmax)
    powerful4 = set(powerful_numbers(4, xmax))
    assert tally5.entries and all(d in powerful4 for d, _ in tally5.entries)


def test_compose_discriminants():
    assert compose_discriminants(-3, -4) == 12
    assert compose_discriminants(-3, 5) == -15
    assert compose_discriminants(-4, 8) == -8
    assert compose_discriminants(-4, -8) == 8
    assert compose_discriminants(8, -8) == -4


def test_count_biquadratic_small():
    assert count_biquadratic(100) == 0
    assert count_biquadratic(143) == 0
    assert count_biquadratic(144) == 1
    assert count_biquadratic(224) == 1
    assert count_biquadratic(225) == 2
    assert count_biquadratic(256) == 3


@pytest.mark.parametrize("x", [143, 144, 224, 225, 256, 30_000, 10**5])
def test_biquadratic_against_square_triple_oracle(x):
    discs = biquadratic_discs(x)
    assert discs.dtype == np.int64 and (np.diff(discs) >= 0).all()
    assert discs.tolist() == biquadratic_discs_slow(x)


@pytest.mark.parametrize("x", [143, 144, 145, 255, 256, 257, 10**4, 10**6, 10**7, 10**9, 5 * 10**9 + 17])
def test_biquadratic_against_closed_triple_oracle(x):
    discs = biquadratic_discs(x)
    assert discs.dtype == np.int64 and np.array_equal(discs, biquadratic_discs_triples(x))


def _random_fundamental_discriminants(rng: random.Random, count: int, bound: int) -> list[int]:
    """``count`` fundamental discriminants d != 1 with |d| <= bound, drawn as s = +-m
    for random m, kept when m has no square factor p^2 with p <= sqrt(bound)."""
    squares = prime_array(math.isqrt(bound)) ** 2
    out: list[int] = []
    while len(out) < count:
        m = np.array([rng.randrange(1, bound + 1) for _ in range(count)], dtype=np.int64)
        squarefree = ~(m[:, None] % squares[None, :] == 0).any(axis=1)
        for s in (rng.choice((-1, 1)) * int(v) for v in m[squarefree]):
            d = s if s % 4 == 1 else 4 * s
            if s != 1 and abs(d) <= bound:
                out.append(d)
    return out[:count]


def test_compose_discriminants_arrays_match_scalars():
    discs = _random_fundamental_discriminants(random.Random(11), 2000, 10**9)
    pairs = [(d1, d2) for d1, d2 in zip(discs[::2], discs[1::2]) if d1 != d2]
    d1s, d2s = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    expected = [compose_discriminants(d1, d2) for d1, d2 in pairs]
    assert all(type(d3) is int for d3 in expected)
    assert all(math.isqrt(d1 * d2 * d3) ** 2 == d1 * d2 * d3 for (d1, d2), d3 in zip(pairs, expected))
    assert compose_discriminants(d1s, d2s).tolist() == expected
    # one int against an array, as the closed-triple oracle calls it
    first = pairs[0][0]
    assert compose_discriminants(first, d2s).tolist() == [compose_discriminants(first, d2) for _, d2 in pairs]


def test_counts_nondecreasing():
    grid = [1, 10, 100, 1000, 10_000, 100_000]
    for counter in (count_quadratic, count_biquadratic):
        values = [counter(x) for x in grid]
        assert values == sorted(values)
    values = [count_cyclic_ell(3, x) for x in grid]
    assert values == sorted(values)


def test_tally_basics():
    tally = DiscriminantTally("demo", [49, 81])
    assert tally_samples(tally, [48, 49, 100]) == [(48, 0), (49, 1), (100, 2)]
    assert tally_samples(tally, [48, 48]) == [(48, 0), (48, 0)]
    empty = DiscriminantTally("none", [])
    assert tally_samples(empty, [1, 10]) == [(1, 0), (10, 0)]
    assert empty.entries == () and empty.total() == 0
    with pytest.raises(ValueError):
        tally_samples(tally, [100, 49])
    repeats = DiscriminantTally("demo", np.array([49, 49, 81, 81, 81], dtype=np.int64))
    assert repeats.entries == ((49, 2), (81, 3)) and repeats.total() == 5
    assert [repeats.count_up_to(x) for x in (48, 49, 80, 81)] == [0, 2, 2, 5]


@pytest.mark.parametrize(
    "discs",
    [[81, 49], [49, 81, 64], [0], [0, 49], [-5, 49], np.array([49, 48]), np.array([0, 1]),
     [2**70, 2**63], [0, 2**70], np.array([2**70, 49], dtype=object)],
)
def test_tally_refuses_a_descending_pair_or_a_value_below_1(discs):
    with pytest.raises(ValueError, match="positive and ascending"):
        DiscriminantTally("bad", discs)


def test_tally_counts_beyond_int64():
    small = DiscriminantTally("small", [49, 49, 2**63 - 1])
    big = DiscriminantTally("big", [49, 49, 2**63, 2**70, 2**70, 2**70])
    assert small._discs.dtype == np.int64 and big._discs.dtype == object
    assert small.entries == ((49, 2), (2**63 - 1, 1)) and big.entries == ((49, 2), (2**63, 1), (2**70, 3))
    for x, want_small, want_big in [(-(2**70), 0, 0), (-1, 0, 0), (48, 0, 0), (49, 2, 2), (2**63 - 1, 3, 2),
                                    (2**63, 3, 3), (2**70 - 1, 3, 3), (2**70, 3, 6), (2**80, 3, 6)]:
        assert (small.count_up_to(x), big.count_up_to(x)) == (want_small, want_big), x
    assert all(type(v) is int for v in (small.total(), big.total(), small.count_up_to(50), *big.entries[1]))
    grid = [-(2**70), -1, 0, 49, 2**63 - 1, 2**63, 2**70, 2**80]
    for tally in (small, big, DiscriminantTally("none", [])):
        samples = tally_samples(tally, grid)
        assert samples == [(x, tally.count_up_to(x)) for x in grid]
        assert all(type(z) is int for _, z in samples)


def test_read_census_records():
    from galcount.fields import CensusRecord, read_census_records

    text = "degree,group,abs_disc\n3,S3,23\n4,D4,117\n"
    assert read_census_records(text) == [
        CensusRecord(3, "S3", 23),
        CensusRecord(4, "D4", 117),
    ]


def test_ingest_census():
    text = "degree,group,abs_disc\n3,S3,23\n3,S3,31\n3,S3,23\n3,C3,49\n"
    tallies = ingest_census(text)
    assert sorted(tallies) == ["C3", "S3"]
    assert tallies["S3"].entries == ((23, 2), (31, 1))
    assert tallies["S3"].total() == 3
    assert tallies["C3"].total() == 1

    assert ingest_census("degree,group,abs_disc\n") == {}
    assert ingest_census("degree,group,abs_disc\n3,S3,23")["S3"].total() == 1  # no final newline


def test_ingest_census_errors():
    with pytest.raises(CensusFormatError, match="line 1"):
        ingest_census("disc,group\n")
    with pytest.raises(CensusFormatError, match="line 2"):
        ingest_census("degree,group,abs_disc\n3,S3,foo\n")
    with pytest.raises(CensusFormatError, match="line 3"):
        ingest_census("degree,group,abs_disc\n3,S3,23\n3,S3,0\n")
    with pytest.raises(CensusFormatError, match="line 2"):
        ingest_census("degree,group,abs_disc\n3,S3\n")
