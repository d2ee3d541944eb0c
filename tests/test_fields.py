import bisect
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galcount import cli, fields
from galcount.fields import (
    CensusFormatError,
    biquadratic_discs,
    biquadratic_samples,
    biquadratic_tally,
    count_biquadratic,
    count_cyclic_ell,
    count_quadratic,
    cyclic_conductors,
    cyclic_samples,
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


def _listed(ell, conductors):
    """Each disc f**(ell - 1) once per field of conductor f, ascending."""
    return [f ** (ell - 1) for f, m in conductors.items() for _ in range(m)]


def test_cyclic_tally_against_recursive_walk():
    for ell, xmax in [(3, 10**12), (5, 10**16)]:
        conductors = cyclic_conductors_slow(ell, introot(xmax, ell - 1))
        assert cyclic_tally(ell, xmax).tolist() == _listed(ell, conductors)


@pytest.mark.parametrize("ell", [5, 7])
def test_cyclic_tally_past_int64(ell):
    # f**(ell - 1) passes 2**63 below 10**20, where an int64 power would wrap
    xmax = 10**20
    conductors = cyclic_conductors_slow(ell, introot(xmax, ell - 1))
    expected = _listed(ell, conductors)
    assert expected[-1] > 2**63
    discs = cyclic_tally(ell, xmax)
    assert discs.dtype == object and discs.tolist() == expected
    for x in (2**63 - 1, 2**63, expected[-1] - 1, xmax, 2**70):
        assert _count_up_to(discs, x) == sum(d <= x for d in expected)


@pytest.mark.parametrize("ell", [3, 5, 7, 13])
def test_cyclic_large_q_scatter_against_oracles(ell):
    # below ell**4, q = ell**2 is above sqrt(fmax) and joins the scatter with the large split primes
    wild = ell * ell
    for fmax in [0, 1, 2 * ell, 2 * ell + 1, wild - 1, wild, wild + 1, 3 * wild, wild * wild - 1, wild * wild, 5000]:
        conductors = cyclic_conductors_slow(ell, fmax)
        assert cyclic_conductors(ell, fmax) == conductors
        assert cyclic_tally(ell, fmax ** (ell - 1)).tolist() == _listed(ell, conductors)


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
    powerful = set(powerful_numbers(2, xmax))
    assert set(cyclic_tally(3, xmax).tolist()) <= powerful

    discs5 = cyclic_tally(5, xmax).tolist()
    powerful4 = set(powerful_numbers(4, xmax))
    assert discs5 and set(discs5) <= powerful4


@pytest.mark.parametrize(
    "ell, grid",
    [
        (3, [10**12]),
        (5, [10**16]),
        (7, [10**20]),
        (3, [48, 49, 49, 50, 80, 81, 81, 82, 3969, 3969, 10**8]),
        (3, [-(2**70), -5, -1, 0, 1, 48, 49]),
        (5, [-3]),
        (5, [-(2**70), 0, 11**4 - 1, 11**4, 11**4 + 1, 2**63 - 1, 2**63, 10**20]),
        (7, [-(2**70), 29**6 - 1, 29**6, 29**6 + 1, 2**63 - 1, 2**63, 10**40]),
        (7, [2**63 - 1]),
        (7, [10, 2**63]),
        (2**64 + 13, [-(2**70), 1000, 2**63 - 1, 2**63, 10**40]),
    ],
    ids=["cubic", "quintic", "septic", "repeated", "negative", "all-negative", "quintic-past-int64",
         "septic-past-int64", "top-2**63-1", "top-2**63", "ell-past-int64"],
)
def test_cyclic_samples_match_the_tally(ell, grid):
    samples = cyclic_samples(ell, grid)
    assert samples == tally_samples(cyclic_tally(ell, grid[-1]), grid)
    assert all(type(z) is int for _, z in samples)
    if ell < 100 and introot(max(grid[-1], 1), ell - 1) <= 10**5:
        conductors = cyclic_conductors_slow(ell, introot(max(grid[-1], 1), ell - 1))
        assert samples == [(x, sum(m for f, m in conductors.items() if f ** (ell - 1) <= x)) for x in grid]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([3, 5, 7]),
       st.lists(st.integers(min_value=-10, max_value=10**12), min_size=1, max_size=12).map(sorted))
def test_cyclic_samples_property(ell, grid):
    assert cyclic_samples(ell, grid) == tally_samples(cyclic_tally(ell, grid[-1]), grid)


def test_cyclic_samples_refusals():
    with pytest.raises(ValueError, match="nonempty"):
        cyclic_samples(3, [])
    with pytest.raises(ValueError, match="ascending"):
        cyclic_samples(3, [10**6, 1000])
    for ell in (2, 4, 9, 15, 2**64):
        with pytest.raises(ValueError, match="odd prime"):
            cyclic_samples(ell, [1000])


def test_cyclic_counts_build_no_tally(capsys, monkeypatch):
    # the library and the CLI's count and fit all read the conductor table, listing no field
    def refuse(*args):
        raise AssertionError("the cyclic fields were listed")

    monkeypatch.setattr(fields, "cyclic_tally", refuse)
    assert count_cyclic_ell(3, 10**8) == 1_592
    assert cli.main(["count", "cyclic", "--ell", "3", "--grid", "1000:1e12:8"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1000000000000,158542"
    assert cli.main(["fit", "--family", "cyclic", "--ell", "3"]) == 0
    assert capsys.readouterr().out.startswith("a_hat: 0.49741118\n")


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
    assert count_biquadratic(x) == len(discs)


@pytest.mark.parametrize(
    "grid",
    [
        [143, 144, 145, 255, 256, 257, 10**4, 10**6, 10**7, 10**9, 5 * 10**9 + 17],
        [5 * 10**9 + 17],
        [144, 144, 225, 225, 225, 10**6, 10**6],
        [-(2**70), -5, -1, 0, 1, 143, 144],
        [-3],
    ],
    ids=["oracle-points", "one-point", "repeated", "negative", "all-negative"],
)
def test_biquadratic_samples_match_the_tally(grid):
    samples = biquadratic_samples(grid)
    assert samples == tally_samples(biquadratic_tally(grid[-1]), grid)
    assert all(type(z) is int for _, z in samples)
    assert all(z == 0 for x, z in samples if x < 144)  # 144 = 3^2 * 16, Q(i, sqrt(3)), is the least |disc|


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(min_value=-10, max_value=10**10), min_size=1, max_size=12).map(sorted))
def test_biquadratic_samples_property(grid):
    assert biquadratic_samples(grid) == tally_samples(biquadratic_tally(grid[-1]), grid)


def test_biquadratic_samples_refuse_past_int64():
    for grid in ([2**63], [1000, 2**63], [10, 2**200]):
        with pytest.raises(ValueError, match=r"^biquadratic counts need \|disc\| <= 2\*\*63 - 1, got "):
            biquadratic_samples(grid)
    with pytest.raises(ValueError, match="ascending"):
        biquadratic_samples([10**6, 1000])
    with pytest.raises(ValueError, match="nonempty"):
        biquadratic_samples([])


@pytest.mark.parametrize("block", [1, 7, 64])
def test_biquadratic_samples_read_the_table_in_blocks(monkeypatch, block):
    # with a block of 1, 7 or 64 entries of the 3^s table, each class spans many pieces;
    # the grid puts x at m^2 * f and either side of it, for m at and beside block seams
    monkeypatch.setattr(fields, "_BLOCK", block)
    seams = (block - 1, block, block + 1, 3 * block + 2, 105, 197)
    grid = sorted({f * m * m + e for m in seams for f in (1, 16, 64, 256) for e in (-1, 0, 1)} | {10**6, 10**7})
    discs = biquadratic_discs_triples(grid[-1])
    assert biquadratic_samples(grid) == [(x, int(np.searchsorted(discs, x, side="right"))) for x in grid]


def test_count_biquadratic_reads_the_table_a_block_at_a_time():
    # the int32 3^s table over the odd m <= sqrt(x), 126 MB, and the prime sieve: 184 MB traced;
    # int64 arrays of all 12.8 million odd squarefree m and their 3^s took 537 MB
    tracemalloc.start()
    try:
        total = count_biquadratic(10**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == 153_156_284
    assert peak < 300_000_000


def _count_in_process(capsys):
    assert cli.main(["count", "biquadratic", "--grid", "1000:1e13:3"]) == 0
    return int(capsys.readouterr().out.splitlines()[-1].split(",")[1])


@pytest.mark.parametrize(
    "count",
    [lambda capsys: count_biquadratic(10**13), _count_in_process],
    ids=["library", "cli"],
)
def test_count_biquadratic_lists_no_disc(capsys, count):
    # the 3^s table and its m, about 60 MB, in the library and through the CLI alike;
    # listing all 11,982,067 |disc| values would take 225 MB
    tracemalloc.start()
    try:
        total = count(capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == 11_982_067
    assert peak < 100_000_000


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


def _count_up_to(discs, x):
    """Z(x) of an ascending |disc| array or list, read through a one-point grid."""
    return tally_samples(discs, [x])[0][1]


def test_tally_basics():
    discs = [49, 81]
    assert tally_samples(discs, [48, 49, 100]) == [(48, 0), (49, 1), (100, 2)]
    assert tally_samples(np.array(discs), [48, 48]) == [(48, 0), (48, 0)]
    for empty in ([], np.zeros(0, dtype=np.int64)):
        assert tally_samples(empty, [1, 10]) == [(1, 0), (10, 0)]
    with pytest.raises(ValueError, match="ascending"):
        tally_samples(discs, [100, 49])
    repeats = np.array([49, 49, 81, 81, 81], dtype=np.int64)
    assert [_count_up_to(repeats, x) for x in (48, 49, 80, 81)] == [0, 2, 2, 5]
    assert [_count_up_to(repeats.tolist(), x) for x in (48, 49, 80, 81)] == [0, 2, 2, 5]


@pytest.mark.parametrize(
    "discs",
    [[81, 49], [49, 81, 64], [0], [0, 49], [-5, 49], np.array([49, 48]), np.array([0, 1]),
     [2**70, 2**63], [0, 2**70], np.array([2**70, 49], dtype=object),
     np.array([81, 49, 64]), np.array([0]), np.array([-5, 49]), [-5], np.array([-5]), [-(2**70), 49]],
)
def test_tally_refuses_a_descending_pair_or_a_value_below_1(discs):
    # refused before the grid is read, and whatever the grid
    for grid in ([10**6], [-1, 0], [2**70]):
        with pytest.raises(ValueError, match="positive and ascending"):
            tally_samples(discs, grid)


def test_tally_counts_beyond_int64():
    census = ingest_census(
        "degree,group,abs_disc\n"
        + "".join(f"2,small,{d}\n" for d in (2**63 - 1, 49, 49))
        + "".join(f"2,big,{d}\n" for d in (2**70, 49, 2**70, 2**63, 49, 2**70))
    )
    small, big = census["small"], census["big"]
    assert small.dtype == np.int64 and big.dtype == object
    assert small.tolist() == [49, 49, 2**63 - 1] and big.tolist() == [49, 49, 2**63, 2**70, 2**70, 2**70]
    for x, want_small, want_big in [(-(2**70), 0, 0), (-1, 0, 0), (48, 0, 0), (49, 2, 2), (2**63 - 1, 3, 2),
                                    (2**63, 3, 3), (2**70 - 1, 3, 3), (2**70, 3, 6), (2**80, 3, 6)]:
        assert (_count_up_to(small, x), _count_up_to(big, x)) == (want_small, want_big), x
    assert all(type(v) is int for v in (_count_up_to(small, 50), _count_up_to(big, 2**70), *big.tolist()))
    grid = [-(2**70), -1, 0, 49, 2**63 - 1, 2**63, 2**70, 2**80]
    for discs in (small, big, small.tolist(), big.tolist(), []):
        samples = tally_samples(discs, grid)
        assert samples == [(x, _count_up_to(discs, x)) for x in grid]
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
    assert tallies["S3"].dtype == np.int64 and tallies["S3"].tolist() == [23, 23, 31]
    assert tallies["C3"].tolist() == [49]

    assert ingest_census("degree,group,abs_disc\n") == {}
    assert ingest_census("degree,group,abs_disc\n3,S3,23")["S3"].tolist() == [23]  # no final newline


def test_ingest_census_errors():
    with pytest.raises(CensusFormatError, match="line 1"):
        ingest_census("disc,group\n")
    with pytest.raises(CensusFormatError, match="line 2"):
        ingest_census("degree,group,abs_disc\n3,S3,foo\n")
    with pytest.raises(CensusFormatError, match="line 3"):
        ingest_census("degree,group,abs_disc\n3,S3,23\n3,S3,0\n")
    with pytest.raises(CensusFormatError, match="line 2"):
        ingest_census("degree,group,abs_disc\n3,S3\n")
