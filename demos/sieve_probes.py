#!/usr/bin/env python3
"""The integer-sieve layer: squarefree flags, k-powerful counting at scale,
and the divisor growth bound."""

import math

from galcount import (
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
