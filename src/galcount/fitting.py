"""Log-log least squares: recover the exponent of Z(x) ~ c * x^a * (log x)^b and
compare it with the group-theoretic prediction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .groups import PermGroup

LogPower = Union[float, int, str]  # a number, or "fit"

MAX_GRID_POINTS = 10**6  # refused before any value is built, so a huge point count fails at once


class InsufficientSamplesError(ValueError):
    """Fewer than three usable samples with distinct x."""


@dataclass(frozen=True)
class FitResult:
    a_hat: float
    c_hat: float
    b: float
    rms_residual: float
    sample_count: int
    dropped: int
    b_fitted: bool
    loo_max_shift: float  # max |a_hat change| over leave-one-out refits; nan if untestable


@dataclass(frozen=True)
class Verdict:
    predicted: Fraction
    fitted: FitResult
    within_tolerance: bool
    tolerance: float


def geometric_grid(x_min: int, x_max: int, points: int) -> list[int]:
    """Geometrically spaced integer cutoffs from x_min to x_max inclusive, at most MAX_GRID_POINTS."""
    if not (1 <= x_min < x_max):
        raise ValueError("need 1 <= x_min < x_max")
    if points < 2:
        raise ValueError("need at least 2 points")
    if points > x_max - x_min + 1:
        raise ValueError(f"grid asks for {points} points, but {x_min}..{x_max} holds only {x_max - x_min + 1} integers")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"grid asks for {points} points, more than the limit of {MAX_GRID_POINTS}")
    try:
        ratio = (x_max / x_min) ** (1.0 / (points - 1))
        values = [int(round(x_min * ratio**i)) for i in range(points)]
    except OverflowError:
        raise ValueError("grid values must lie in the float range, below about 1.8e308") from None
    values[0], values[-1] = x_min, x_max
    out = []
    for v in values:
        if not out or v > out[-1]:
            out.append(v)
    return out


def _solve_ols(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    gram = design.T @ design
    if np.linalg.matrix_rank(gram) < design.shape[1]:
        raise ValueError("collinear design: samples cannot separate the fit parameters")
    return np.linalg.solve(gram, design.T @ y)


def _fit_core(xs: np.ndarray, zs: np.ndarray, log_power: LogPower) -> tuple[float, float, float, float]:
    logx = np.log(xs)
    logz = np.log(zs)
    if log_power == "fit":
        design = np.column_stack([np.ones_like(logx), logx, np.log(logx)])
        coeffs = _solve_ols(design, logz)
        intercept, a_hat, b = coeffs
    else:
        b = float(log_power)
        target = logz - b * np.log(logx) if b != 0.0 else logz
        design = np.column_stack([np.ones_like(logx), logx])
        coeffs = _solve_ols(design, target)
        intercept, a_hat = coeffs
        if b != 0.0:
            logz = target
    residuals = logz - design @ coeffs
    rms = float(np.sqrt(np.mean(residuals**2)))
    return float(a_hat), float(math.exp(intercept)), float(b), rms


def fit_exponent(samples: Sequence[tuple[float, float]], log_power: LogPower = 0.0) -> FitResult:
    """Least squares on log Z = log c + a log x + b log log x.

    log_power fixes b to a finite number or fits it with "fit".  Samples with Z = 0
    are dropped (log undefined, and leading zeros carry no slope information),
    as are samples with x <= 1 whenever b is involved.  At least 3 usable
    samples with distinct x are required.
    """
    if log_power != "fit" and not math.isfinite(float(log_power)):
        raise ValueError(f"log power must be 'fit' or a finite number, got {log_power!r}")
    needs_loglog = (log_power == "fit") or (float(log_power) != 0.0)
    usable = [
        (float(x), float(z))
        for x, z in samples
        if z > 0 and x >= 1 and not (needs_loglog and x <= 1)
    ]
    dropped = len(samples) - len(usable)
    if len({x for x, _ in usable}) < 3:
        raise InsufficientSamplesError(
            f"need at least 3 usable samples with distinct x, have {len(usable)}"
        )
    xs = np.array([x for x, _ in usable])
    zs = np.array([z for _, z in usable])
    a_hat, c_hat, b, rms = _fit_core(xs, zs, log_power)

    loo = math.nan
    if len(usable) >= 4:
        shifts = []
        for i in range(len(usable)):
            mask = np.ones(len(usable), dtype=bool)
            mask[i] = False
            if len(set(xs[mask].tolist())) < 3:
                continue
            try:
                a_i, _, _, _ = _fit_core(xs[mask], zs[mask], log_power)
            except ValueError:
                continue
            shifts.append(abs(a_i - a_hat))
        if shifts:
            loo = max(shifts)
    return FitResult(
        a_hat=a_hat,
        c_hat=c_hat,
        b=b,
        rms_residual=rms,
        sample_count=len(usable),
        dropped=dropped,
        b_fitted=log_power == "fit",
        loo_max_shift=loo,
    )


def conjecture_verdict(group: PermGroup, fitted: FitResult, tolerance: float = 0.1) -> Verdict:
    """Compare a fitted exponent with the group's a-invariant, within a finite tolerance >= 0;
    nothing is refitted.

    The comparison is empirical evidence for the predicted growth, not a proof.
    """
    if not 0 <= tolerance < math.inf:  # also refuses nan
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    predicted = group.a_invariant()
    within = abs(fitted.a_hat - float(predicted)) <= tolerance
    return Verdict(predicted, fitted, within, float(tolerance))
