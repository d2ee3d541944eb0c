#!/usr/bin/env python3
"""Fit Z(x) ~ c * x^a * (log x)^b to the exact counts and compare the fitted
exponent against the group-theoretic prediction a(G) for each family."""

from galcount import (
    biquadratic_tally,
    conjecture_verdict,
    cyclic_natural,
    cyclic_tally,
    direct_product,
    fit_exponent,
    geometric_grid,
    quadratic_samples,
    regular_rep,
    tally_samples,
)

print("quadratic fields, x up to 1e7 (prediction: a = 1)")
samples = quadratic_samples(geometric_grid(100, 10**7, 12))
verdict = conjecture_verdict(regular_rep(cyclic_natural(2)), fit_exponent(samples, log_power=0.0), 0.05)
print(f"  fitted a_hat = {verdict.fitted.a_hat:.4f}  predicted {verdict.predicted}  "
      f"within {verdict.tolerance}: {verdict.within_tolerance}")

print("cyclic cubic fields, disc up to 1e12 (prediction: a = 1/2)")
samples = tally_samples(cyclic_tally(3, 10**12), geometric_grid(10**3, 10**12, 10))
verdict = conjecture_verdict(regular_rep(cyclic_natural(3)), fit_exponent(samples, log_power=0.0), 0.05)
print(f"  fitted a_hat = {verdict.fitted.a_hat:.4f}  predicted {verdict.predicted}  "
      f"within {verdict.tolerance}: {verdict.within_tolerance}")

print("cyclic quintic fields, disc up to 1e16 (prediction: a = 1/4)")
samples = tally_samples(cyclic_tally(5, 10**16), geometric_grid(11**4, 10**16, 12))
fit = fit_exponent(samples, log_power=0.0)
print(f"  fitted a_hat = {fit.a_hat:.4f} from {fit.sample_count} samples")

print("biquadratic fields, disc up to 1e8 with a free log power (prediction: a = 1/2)")
samples = tally_samples(biquadratic_tally(10**8), geometric_grid(10**4, 10**8, 12))
v4 = regular_rep(direct_product(cyclic_natural(2), cyclic_natural(2)))
verdict = conjecture_verdict(v4, fit_exponent(samples, log_power="fit"), 0.1)
print(f"  fitted a_hat = {verdict.fitted.a_hat:.4f}, log power b = {verdict.fitted.b:.2f}  "
      f"predicted {verdict.predicted}  within {verdict.tolerance}: {verdict.within_tolerance}")

print()
print("All verdicts are empirical evidence for the predicted exponents, not proofs.")
