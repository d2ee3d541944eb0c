import math
import random

import pytest

from galcount import fitting
from galcount.constructions import cyclic_natural, regular_rep
from galcount.fields import cyclic_samples, quadratic_samples
from galcount.fitting import (
    MAX_GRID_POINTS,
    InsufficientSamplesError,
    conjecture_verdict,
    fit_exponent,
    geometric_grid,
)

from oracles import loo_max_shift_slow


def test_geometric_grid():
    assert geometric_grid(1, 100, 3) == [1, 10, 100]
    grid = geometric_grid(7, 12345, 9)
    assert grid[0] == 7 and grid[-1] == 12345
    assert all(b > a for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        geometric_grid(10, 10, 2)
    with pytest.raises(ValueError):
        geometric_grid(0, 10, 2)
    with pytest.raises(ValueError):
        geometric_grid(1, 10, 1)


def test_geometric_grid_refuses_points_before_building(monkeypatch):
    with pytest.raises(ValueError, match="^grid asks for 11 points, but 1..10 holds only 10 integers$"):
        geometric_grid(1, 10, 11)
    assert geometric_grid(1, 10, 10)[-1] == 10
    assert geometric_grid(1, 10**300, MAX_GRID_POINTS)[-1] == 10**300
    def no_values(value):
        raise AssertionError("a grid value was built")

    monkeypatch.setattr(fitting, "round", no_values, raising=False)  # shadows the builtin in fitting
    message = f"^grid asks for {MAX_GRID_POINTS + 1} points, more than the limit of {MAX_GRID_POINTS}$"
    with pytest.raises(ValueError, match=message):
        geometric_grid(1, 10**300, MAX_GRID_POINTS + 1)
    with pytest.raises(ValueError, match="more than the limit"):
        geometric_grid(1, 10**300, 10**8)


def test_exact_power_law_recovery():
    xs = geometric_grid(10, 10**6, 9)
    samples = [(x, 5.0 * x**0.5) for x in xs]
    fit = fit_exponent(samples, log_power=0.0)
    assert abs(fit.a_hat - 0.5) < 1e-9
    assert abs(fit.c_hat - 5.0) / 5.0 < 1e-9
    assert fit.rms_residual < 1e-12
    assert fit.sample_count == len(xs)
    assert not fit.b_fitted


def test_exact_recovery_with_fixed_log_power():
    xs = geometric_grid(10, 10**6, 9)
    samples = [(x, 2.0 * x * math.log(x)) for x in xs]
    fit = fit_exponent(samples, log_power=1.0)
    assert abs(fit.a_hat - 1.0) < 1e-6
    assert abs(fit.c_hat - 2.0) < 1e-6
    assert fit.b == 1.0


def test_exact_recovery_with_free_log_power():
    xs = geometric_grid(10, 10**8, 12)
    samples = [(x, 0.7 * x**0.25 * math.log(x) ** 2) for x in xs]
    fit = fit_exponent(samples, log_power="fit")
    assert fit.b_fitted
    assert abs(fit.a_hat - 0.25) < 1e-6
    assert abs(fit.b - 2.0) < 1e-5


def test_scaling_invariance():
    xs = geometric_grid(10, 10**5, 8)
    samples = [(x, 3.0 * x**0.8) for x in xs]
    scaled = [(x, 10.0 * z) for x, z in samples]
    f1 = fit_exponent(samples)
    f2 = fit_exponent(scaled)
    assert abs(f1.a_hat - f2.a_hat) < 1e-12
    assert abs(f2.c_hat / f1.c_hat - 10.0) < 1e-9


def test_zero_samples_dropped():
    samples = [(1, 0), (10, 0), (100, 5), (1000, 50), (10000, 500)]
    fit = fit_exponent(samples, log_power=0.0)
    assert fit.dropped == 2
    assert fit.sample_count == 3
    assert abs(fit.a_hat - 1.0) < 1e-9


def test_insufficient_samples():
    with pytest.raises(InsufficientSamplesError):
        fit_exponent([(10, 5), (100, 50)])
    with pytest.raises(InsufficientSamplesError):
        fit_exponent([(10, 0), (100, 0), (1000, 0)])
    with pytest.raises(InsufficientSamplesError):
        fit_exponent([(10, 5), (10, 5), (10, 5)])


def test_leave_one_out_bound():
    xs = geometric_grid(10, 10**6, 10)
    samples = [(x, 2.0 * x**0.5 * (1 + 0.05 * math.sin(i))) for i, x in enumerate(xs)]
    fit = fit_exponent(samples, log_power=0.0)
    without_smallest = fit_exponent(samples[1:], log_power=0.0)
    assert abs(without_smallest.a_hat - fit.a_hat) <= fit.loo_max_shift + 1e-15


@pytest.mark.parametrize("log_power", [0.0, 1.5, "fit"])
def test_leave_one_out_shifts_match_refits(log_power):
    rng = random.Random(23)
    pool = geometric_grid(10, 10**9, 60)
    for trial in range(60):
        xs = sorted(rng.sample(pool, 4 if trial % 3 == 0 else rng.randint(5, 25)))
        if trial % 2:
            xs[rng.randrange(len(xs))] = xs[rng.randrange(len(xs))]  # a repeated x
        samples = [(x, round(2 * x**0.4 * math.log(x) * rng.uniform(0.8, 1.25))) for x in xs]
        slow = loo_max_shift_slow(samples, log_power)
        assert not math.isnan(slow)
        assert fit_exponent(samples, log_power).loo_max_shift == pytest.approx(slow, rel=1e-6)
    three = [(10, 5), (100, 40), (1000, 400)]
    assert math.isnan(fit_exponent(three, log_power).loo_max_shift) and math.isnan(loo_max_shift_slow(three, log_power))


def test_leave_one_out_skips_removals_that_leave_two_distinct_x():
    # only the repeated x can go: without 10, 100 or 1000 two distinct x remain
    samples = [(10, 5), (100, 40), (100, 60), (1000, 400)]
    fit = fit_exponent(samples, log_power=0.0)
    shift = max(abs(fit_exponent(samples[:i] + samples[i + 1 :], log_power=0.0).a_hat - fit.a_hat) for i in (1, 2))
    assert fit.loo_max_shift == pytest.approx(shift, rel=1e-9)
    assert fit.loo_max_shift == pytest.approx(loo_max_shift_slow(samples, 0.0), rel=1e-9)


def test_leave_one_out_needs_no_refit_constant():
    # refits without the third or the fourth sample give log c near 1272 and 2430, past the float range
    samples = [(201722, 149174), (237359, 20731), (4933862, 2031326), (173930584, 33667)]
    fit = fit_exponent(samples, log_power="fit")
    assert math.isfinite(fit.c_hat) and fit.loo_max_shift == pytest.approx(loo_max_shift_slow(samples, "fit"), rel=1e-6)


def test_fitted_constant_past_the_float_range_is_inf():
    # the fitted log power drives the intercept past about 709, where math.exp overflows
    samples = [(48271116, 15574), (59055379, 21622), (14152339, 10181), (34851802, 11546)]
    fit = fit_exponent(samples, log_power="fit")
    assert fit.c_hat == math.inf and math.isfinite(fit.a_hat) and math.isfinite(fit.b)


def test_fit_solves_once(monkeypatch):
    import numpy as np

    solves, linalg_solves = [], []
    core, linalg_solve = fitting._fit_core, np.linalg.solve

    def counted(*args):
        solves.append(1)
        return core(*args)

    def counted_linalg(*args):
        linalg_solves.append(1)
        return linalg_solve(*args)

    monkeypatch.setattr(fitting, "_fit_core", counted)
    monkeypatch.setattr(np.linalg, "solve", counted_linalg)
    samples = [(x, 3 * x**0.5 + (x % 7)) for x in geometric_grid(10, 10**7, 200)]
    for log_power in (0.0, 1.0, "fit"):
        solves.clear()
        linalg_solves.clear()
        assert not math.isnan(fit_exponent(samples, log_power).loo_max_shift)
        assert len(solves) == 1
        assert len(linalg_solves) == 1  # the coefficients and the leave-one-out shifts share one solve


def test_collinear_design_refused_through_the_cli(tmp_path, capsys):
    # three distinct x whose logs agree to 1e-9: the gram's rank reads 1, below its 2 columns
    samples = [(1000000000.0, 5.0), (1000000001.0, 6.0), (1000000002.0, 7.0)]
    with pytest.raises(ValueError, match="^collinear design: samples cannot separate the fit parameters$"):
        fit_exponent(samples)
    path = tmp_path / "collinear.csv"
    path.write_text("x,count\n1000000000,5\n1000000001,6\n1000000002,7\n", encoding="utf-8")
    from galcount.cli import main

    assert main(["fit", "--samples", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: collinear design: samples cannot separate the fit parameters\n")


def test_verdict_quadratic():
    samples = quadratic_samples(geometric_grid(100, 10**6, 10))
    verdict = conjecture_verdict(regular_rep(cyclic_natural(2)), fit_exponent(samples, log_power=0.0), 0.05)
    assert verdict.predicted == 1
    assert verdict.within_tolerance


def test_verdict_cyclic_cubic():
    samples = cyclic_samples(3, geometric_grid(10**3, 10**10, 10))
    verdict = conjecture_verdict(regular_rep(cyclic_natural(3)), fit_exponent(samples, log_power=0.0), 0.05)
    assert float(verdict.predicted) == 0.5
    assert verdict.within_tolerance


def test_verdict_and_fit_refuse_non_finite_settings():
    samples = [(x, 3.0 * x) for x in geometric_grid(10, 10**6, 6)]
    c2, fit = regular_rep(cyclic_natural(2)), fit_exponent(samples, log_power=0.0)
    for tolerance in (math.nan, -0.5, math.inf):
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            conjecture_verdict(c2, fit, tolerance)
    for log_power in (math.nan, math.inf, "-inf"):
        with pytest.raises(ValueError, match="log power must be 'fit' or a finite number"):
            fit_exponent(samples, log_power=log_power)
    assert conjecture_verdict(c2, fit, 0.0).tolerance == 0.0


def test_verdict_reports_tolerance_breach():
    xs = geometric_grid(10, 10**6, 8)
    samples = [(x, 4.0 * x**0.9) for x in xs]
    verdict = conjecture_verdict(regular_rep(cyclic_natural(2)), fit_exponent(samples, log_power=0.0), 0.05)
    assert not verdict.within_tolerance


def test_fit_past_the_float_range_is_refused():
    samples = [(x, int(x**0.5)) for x in (10, 100, 1000, 10**4)]
    with pytest.raises(ValueError, match=r"^log power 1e\+300 takes the fit past the float range$"):
        fit_exponent(samples, log_power=1e300)
    assert math.isfinite(fit_exponent(samples, log_power=1e100).rms_residual)
