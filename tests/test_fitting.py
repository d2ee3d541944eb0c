import math

import pytest

from galcount import fitting
from galcount.constructions import cyclic_natural, regular_rep
from galcount.fields import cyclic_tally, quadratic_samples, tally_samples
from galcount.fitting import (
    MAX_GRID_POINTS,
    InsufficientSamplesError,
    conjecture_verdict,
    fit_exponent,
    geometric_grid,
)


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


def test_verdict_quadratic():
    samples = quadratic_samples(geometric_grid(100, 10**6, 10))
    verdict = conjecture_verdict(regular_rep(cyclic_natural(2)), fit_exponent(samples, log_power=0.0), 0.05)
    assert verdict.predicted == 1
    assert verdict.within_tolerance


def test_verdict_cyclic_cubic():
    tally = cyclic_tally(3, 10**10)
    samples = tally_samples(tally, geometric_grid(10**3, 10**10, 10))
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
