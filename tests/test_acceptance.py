"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 9's genuine-data half is conditional on an external cubic
census at data/cubic_census.csv and is skipped when the file is absent.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from galcount import cli, fields, fitting, sieves, tables
from galcount.constructions import (
    alternating_natural,
    check_index_domination,
    cyclic_natural,
    dihedral_natural,
    direct_product,
    dual_regular_pair,
    heisenberg_mod3,
    regular_rep,
    sl2_natural,
    symmetric_natural,
    wreath,
)
from galcount.groupspec import parse_group_expr, read_text

from oracles import (
    biquadratic_discs_slow,
    cyclic_conductor_table_slow,
    fundamental_discriminants_slow,
    min_exponent,
    spf_table,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    print(f"criterion {number} PASS: {description}")


def test_criterion_1_table_reproduction(capsys):
    expected = {
        "deg6/Nr4": Fraction(1, 2),
        "deg6/Nr5": Fraction(1, 2),
        "deg6/Nr7": Fraction(1, 2),
        "deg8/Nr6": Fraction(1, 3),
        "deg8/Nr12": Fraction(1, 4),
        "deg8/Nr13": Fraction(1, 4),
        "deg8/Nr14": Fraction(1, 4),
        "deg8/Nr17": Fraction(1, 2),
        "deg8/Nr18": Fraction(1, 2),
        "deg8/Nr24": Fraction(1, 2),
        "deg8/Nr38": Fraction(1, 1),
        "deg8/Nr44": Fraction(1, 1),
    }
    with criterion(1, "degree-6 and degree-8 tables reproduce expected a(G) in < 5 s"):
        start = time.perf_counter()
        computed = {}
        for which in ("deg6", "deg8"):
            assert cli.main(["table", which]) == 0
            for row in tables.TABLES[which]:
                if row.expression is not None:
                    computed[row.row_id] = parse_group_expr(row.expression).a_invariant()
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        for row_id, value in expected.items():
            assert computed[row_id] == value, row_id
        assert elapsed < 5.0, f"table reproduction took {elapsed:.2f}s"


def test_criterion_2_regular_a_formula():
    catalog = [
        (regular_rep(cyclic_natural(2)), 2),
        (regular_rep(cyclic_natural(3)), 3),
        (regular_rep(cyclic_natural(5)), 5),
        (regular_rep(cyclic_natural(7)), 7),
        (regular_rep(direct_product(cyclic_natural(2), cyclic_natural(2))), 2),
        (regular_rep(cyclic_natural(4)), 2),
        (regular_rep(dihedral_natural(3)), 2),
        (regular_rep(dihedral_natural(4)), 2),
        (regular_rep(dihedral_natural(5)), 2),
        (regular_rep(dihedral_natural(6)), 2),
        (regular_rep(dihedral_natural(7)), 2),
        (regular_rep(dihedral_natural(8)), 2),
        (regular_rep(symmetric_natural(3)), 2),
        (regular_rep(alternating_natural(4)), 2),
        (regular_rep(heisenberg_mod3()), 3),
    ]
    with criterion(2, "a = ell/((ell-1)|G|) exactly for every regular catalog group"):
        for group, ell in catalog:
            assert group.a_invariant() == Fraction(ell, (ell - 1) * group.order())


def test_criterion_3_direct_product_formula():
    catalog = [
        cyclic_natural(2),
        cyclic_natural(3),
        cyclic_natural(4),
        cyclic_natural(5),
        cyclic_natural(7),
        symmetric_natural(3),
        symmetric_natural(4),
        alternating_natural(4),
        dihedral_natural(4),
        regular_rep(direct_product(cyclic_natural(2), cyclic_natural(2))),
        sl2_natural(3),
        heisenberg_mod3(),
        wreath(cyclic_natural(2), cyclic_natural(2)),
    ]
    with criterion(3, "a(H x Z) = max(a(H)/m, a(Z)/n) exactly for degree products <= 64"):
        pairs = 0
        for h in catalog:
            for z in catalog:
                if h.degree * z.degree > 64:
                    continue
                expected = max(h.a_invariant() / z.degree, z.a_invariant() / h.degree)
                assert direct_product(h, z).a_invariant() == expected
                pairs += 1
        assert pairs >= 60


def test_criterion_4_index_domination():
    ell_groups = [
        cyclic_natural(2),
        cyclic_natural(3),
        cyclic_natural(4),
        cyclic_natural(5),
        cyclic_natural(7),
        cyclic_natural(8),
        cyclic_natural(9),
        regular_rep(direct_product(cyclic_natural(2), cyclic_natural(2))),
        dihedral_natural(4),
        wreath(cyclic_natural(2), cyclic_natural(2)),
        wreath(cyclic_natural(2), cyclic_natural(4)),
        wreath(cyclic_natural(4), cyclic_natural(2)),
        heisenberg_mod3(),
    ]
    with criterion(4, "domination HOLDS for ell-group pairs; the order-54 pair FAILS exactly"):
        for group in ell_groups:
            report = check_index_domination(dual_regular_pair(group))
            assert report.holds, group
        product = direct_product(heisenberg_mod3(), cyclic_natural(2))
        report = check_index_domination(dual_regular_pair(product))
        assert not report.holds
        w = report.witness
        assert w.ind1 == 36
        assert w.ind2 == 8
        assert w.a1 == Fraction(1, 27)
        assert w.a2 == Fraction(1, 8)


def test_criterion_5_counting_oracles():
    with criterion(5, "quadratic / cyclic-cubic / biquadratic counts match brute force to 1e5"):
        assert fields.fundamental_discriminants(10**5).tolist() == fundamental_discriminants_slow(10**5)

        fmax = math.isqrt(10**5)
        expected = cyclic_conductor_table_slow(3, fmax)
        assert fields.cyclic_conductors(3, fmax) == expected

        assert fields.biquadratic_discs(10**5).tolist() == biquadratic_discs_slow(10**5)

        assert fields.count_quadratic(10) == 6
        assert fields.count_cyclic_ell(3, 3969) == 10
        assert fields.count_biquadratic(256) == 3


def test_criterion_6_empirical_exponents():
    with criterion(6, "fitted exponents match a(G) for the four field families"):
        start = time.perf_counter()
        samples = fields.quadratic_samples(fitting.geometric_grid(100, 10**7, 12))
        fit = fitting.fit_exponent(samples, log_power=0.0)
        assert abs(fit.a_hat - 1.0) <= 0.05, f"quadratic a_hat={fit.a_hat}"
        assert time.perf_counter() - start < 60.0

        start = time.perf_counter()
        tally = fields.cyclic_tally(3, 10**12)
        samples = fields.tally_samples(tally, fitting.geometric_grid(10**3, 10**12, 10))
        fit = fitting.fit_exponent(samples, log_power=0.0)
        assert abs(fit.a_hat - 0.5) <= 0.05, f"cyclic cubic a_hat={fit.a_hat}"
        assert time.perf_counter() - start < 60.0

        start = time.perf_counter()
        tally = fields.cyclic_tally(5, 10**16)  # conductors up to 1e4
        samples = fields.tally_samples(tally, fitting.geometric_grid(11**4, 10**16, 12))
        fit = fitting.fit_exponent(samples, log_power=0.0)
        assert abs(fit.a_hat - 0.25) <= 0.07, f"cyclic quintic a_hat={fit.a_hat}"
        assert time.perf_counter() - start < 60.0

        start = time.perf_counter()
        tally = fields.biquadratic_tally(10**8)
        samples = fields.tally_samples(tally, fitting.geometric_grid(10**4, 10**8, 12))
        fit = fitting.fit_exponent(samples, log_power="fit")
        assert abs(fit.a_hat - 0.5) <= 0.1, f"biquadratic a_hat={fit.a_hat}"
        assert time.perf_counter() - start < 60.0


def test_criterion_7_sieve_properties():
    with criterion(7, "powerful counts match factorization to 1e6 and stabilize; divisor bound holds"):
        limit = 10**6
        spf = spf_table(limit)
        brute = [n for n in range(1, limit + 1) if min_exponent(n, spf) >= 2]
        assert sieves.powerful_numbers(2, limit) == brute
        assert sieves.powerful_count(2, limit) == len(brute)

        r8 = sieves.powerful_count(2, 10**8) / math.sqrt(10**8)
        r9 = sieves.powerful_count(2, 10**9) / math.sqrt(10**9)
        assert abs(r9 - r8) / r8 < 0.05

        for eps in (1.0, 0.5, 0.25):
            assert sieves.divisor_bound_check(10**6, eps).holds


def test_criterion_8_estimator_exactness():
    with criterion(8, "synthetic power laws recovered to 1e-9 (pure) and 1e-6 (fixed log power)"):
        xs = fitting.geometric_grid(10, 10**8, 12)
        samples = [(x, 5.0 * x**0.5) for x in xs]
        fit = fitting.fit_exponent(samples, log_power=0.0)
        assert abs(fit.a_hat - 0.5) / 0.5 < 1e-9
        assert abs(fit.c_hat - 5.0) / 5.0 < 1e-9

        samples = [(x, 2.0 * x ** (1 / 3) * math.log(x)) for x in xs]
        fit = fitting.fit_exponent(samples, log_power=1.0)
        assert abs(fit.a_hat - 1 / 3) < 1e-6


def test_criterion_9_census_ingest_and_fit():
    with criterion(9, "census path: ingest + fit runs on any well-formed cubic census"):
        # synthetic, well-formed census: linear growth with irregular spacing
        rows = ["degree,group,abs_disc"]
        disc = 20
        for i in range(400):
            disc += 3 + (i * 7) % 11
            rows.append(f"3,S3,{disc}")
        tallies = fields.ingest_census("\n".join(rows))
        tally = tallies["S3"]
        samples = fields.tally_samples(
            tally, fitting.geometric_grid(100, tally.entries[-1][0], 10)
        )
        fit = fitting.fit_exponent(samples, log_power=0.0)
        assert math.isfinite(fit.a_hat)  # the path works end to end; exponent reported
        assert abs(fit.a_hat - 1.0) <= 0.1  # synthetic census grows linearly


GENUINE_CENSUS = DATA_DIR / "cubic_census.csv"


@pytest.mark.skipif(
    not GENUINE_CENSUS.exists(),
    reason="no genuine cubic census provided at data/cubic_census.csv (optional data path)",
)
def test_criterion_9_genuine_cubic_census():
    with criterion(9, "genuine cubic census fits exponent within 0.1 of 1"):
        tallies = fields.ingest_census(read_text(str(GENUINE_CENSUS), fields.CensusFormatError))
        label = "S3" if "S3" in tallies else sorted(tallies)[0]
        tally = tallies[label]
        top = tally.entries[-1][0]
        samples = fields.tally_samples(tally, fitting.geometric_grid(max(top // 10**3, 10), top, 10))
        fit = fitting.fit_exponent(samples, log_power=0.0)
        assert abs(fit.a_hat - 1.0) <= 0.1
