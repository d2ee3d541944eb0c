"""Log-log least squares: recover the exponent of Z(x) ~ c * x^a * (log x)^b and
compare it with the group-theoretic prediction.

numpy is imported by the solve, not by this module: a fit refused for too few
distinct x, as ``fit --samples`` on a short file is, never loads it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from .errors import InsufficientSamplesError

if TYPE_CHECKING:
    import numpy as np

    from .groups import PermGroup

LogPower = Union[float, int, str]  # a number, or "fit"

MAX_GRID_POINTS = 10**6  # refused before any value is built, so a huge point count fails at once


class FitResult(NamedTuple):
    a_hat: float
    c_hat: float
    b: float
    rms_residual: float
    sample_count: int
    dropped: int
    b_fitted: bool
    loo_max_shift: float  # max |a_hat change| when one sample is left out; nan if untestable


class Verdict(NamedTuple):
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


def _fit_core(xs: Sequence[float], zs: Sequence[float], log_power: LogPower) -> tuple[float, float, float, float, np.ndarray]:
    """One least-squares solve: a_hat, c_hat, b, the rms residual, and each sample's leave-one-out shift of a_hat.

    Dropping sample i moves the coefficients by (X^T X)^-1 x_i e_i / (1 - h_ii), with e_i its residual and
    h_ii its leverage (the DFBETA identity), so no refit is needed.
    """
    import numpy as np

    logx, target = np.log(xs), np.log(zs)
    columns = [np.ones_like(logx), logx]
    if log_power == "fit":
        columns.append(np.log(logx))
    design = np.column_stack(columns)
    gram = design.T @ design
    if np.linalg.matrix_rank(gram) < design.shape[1]:
        raise ValueError("collinear design: samples cannot separate the fit parameters")
    spread = np.linalg.solve(gram, design.T)  # column i is (X^T X)^-1 x_i
    leverages = np.einsum("ij,ji->i", design, spread)
    # h_ii = 1 only where a removal leaves too few distinct x; a huge fixed log power overflows, refused below
    with np.errstate(all="ignore"):
        if log_power != "fit" and float(log_power) != 0.0:
            target = target - float(log_power) * np.log(logx)
        coeffs = spread @ target
        residuals = target - design @ coeffs
        shifts = np.abs(spread[1] * residuals / (1 - leverages))
        rms = float(np.sqrt(np.mean(residuals**2)))
    if not (np.isfinite(coeffs).all() and math.isfinite(rms)):
        raise ValueError(f"log power {log_power!r} takes the fit past the float range")
    b = coeffs[2] if log_power == "fit" else float(log_power)
    try:
        c_hat = math.exp(coeffs[0])
    except OverflowError:  # an intercept above about 709, as a fitted log power can give
        c_hat = math.inf
    return float(coeffs[1]), float(c_hat), float(b), rms, shifts


def fit_exponent(samples: Sequence[tuple[float, float]], log_power: LogPower = 0.0) -> FitResult:
    """Least squares on log Z = log c + a log x + b log log x.

    log_power fixes b to a finite number or fits it with "fit".  Samples with Z = 0
    are dropped (log undefined, and leading zeros carry no slope information),
    as are samples with x <= 1 whenever b is involved.  At least 3 usable
    samples with distinct x are required.  loo_max_shift skips each sample whose
    removal leaves fewer than 3 distinct x, so it needs at least 4 samples.
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
    xs = [x for x, _ in usable]
    repeats = Counter(xs)
    if len(repeats) < 3:
        raise InsufficientSamplesError(
            f"need at least 3 usable samples with distinct x, have {len(usable)}"
        )
    a_hat, c_hat, b, rms, shifts = _fit_core(xs, [z for _, z in usable], log_power)
    # distinct x left without each sample: 2 for every sample of a 3-sample fit, whose loo_max_shift is nan
    remaining = [len(repeats) - (repeats[x] == 1) for x in xs]
    return FitResult(
        a_hat=a_hat,
        c_hat=c_hat,
        b=b,
        rms_residual=rms,
        sample_count=len(usable),
        dropped=dropped,
        b_fitted=log_power == "fit",
        loo_max_shift=float(max((s for s, left in zip(shifts, remaining) if left >= 3), default=math.nan)),
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
