#!/usr/bin/env python3
"""The integer-sieve layer: squarefree flags, k-powerful counting at scale,
the divisor growth bound, and a Dirichlet partial-sum convergence probe."""

import math

import numpy as np

from galcount import (
    dirichlet_tail_probe,
    divisor_bound_check,
    powerful_count,
    powerful_numbers,
    squarefree_sieve,
)

print("Squarefree integers up to 30:")
flags = squarefree_sieve(30)
print(" ", [n for n in range(1, 31) if flags[n]])

print()
print("2-powerful integers up to 200 (every prime exponent >= 2):")
print(" ", powerful_numbers(2, 200))

print()
print("Counting 2-powerful integers below x takes ~c*sqrt(x); the normalized")
print("ratio stabilizes:")
for exp in range(4, 10):
    x = 10**exp
    count = powerful_count(2, x)
    print(f"  x = 1e{exp}:  count = {count:7}  count/sqrt(x) = {count / math.sqrt(x):.4f}")

print()
print("Divisor-count growth: max t(n)/n^eps vs the bound exp(2^(1/eps)/(eps ln 2)):")
for eps in (1.0, 0.5, 0.25):
    report = divisor_bound_check(10**6, eps)
    print(f"  eps = {eps:5}: max ratio {report.max_ratio:12.4f}  bound {report.bound:.4g}  holds = {report.holds}")

print()
print("Dirichlet tail probe: partial sums of sum chi(n)/n^s for chi the 2-powerful")
print("indicator (partial sums of chi grow like sqrt(x), so s > 1/2 should converge):")
coeffs = np.zeros(10**6)
coeffs[np.array(powerful_numbers(2, 10**6)) - 1] = 1.0
report = dirichlet_tail_probe(coeffs, r=0.5, s=0.6, grid=[10**k for k in range(1, 7)])
for cutoff, value in zip(report.cutoffs, report.partial_sums):
    print(f"  x = {cutoff:8}: partial sum = {value:.6f}")
print(f"  max successive increment {report.max_increment:.4f}; observed growth constant "
      f"{report.coefficient_bound:.3f}")
