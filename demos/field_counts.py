#!/usr/bin/env python3
"""Exact field counts over Q by absolute discriminant: quadratic fields from
fundamental discriminants, cyclic cubic and quintic fields from conductors,
and biquadratic fields from discriminant triples."""

from galcount import (
    biquadratic_tally,
    count_biquadratic,
    count_quadratic,
    cyclic_conductors,
    cyclic_tally,
    fundamental_discriminants,
    geometric_grid,
    quadratic_samples,
    tally_samples,
)

print("Fundamental discriminants with |d| <= 30:")
print(" ", fundamental_discriminants(30).tolist())
print(f"Quadratic fields with |disc| <= 1e6: {count_quadratic(10**6)}")

print()
print("Cyclic cubic conductors f <= 100 (disc = f^2, multiplicity 2^(t-1)):")
for f, fields in cyclic_conductors(3, 100).items():
    t = fields.bit_length()  # fields = 2^(t-1)
    print(f"  f={f:3}  ramified places t={t}  fields={fields}  disc={f**2}")

print()
print("Counts on a geometric grid (x, Z(x)):")
print("  quadratic:", quadratic_samples(geometric_grid(10, 10**6, 6)))
print("  cyclic cubic:", tally_samples(cyclic_tally(3, 10**8), geometric_grid(49, 10**8, 6)))
print("  cyclic quintic:", tally_samples(cyclic_tally(5, 10**12), geometric_grid(11**4, 10**12, 5)))

print()
print(f"Biquadratic fields with |disc| <= 10^4: {count_biquadratic(10**4)}")
tally = biquadratic_tally(2000)
print("First few biquadratic |disc| values:", [d for d, _ in tally.entries][:8])
print("(the smallest is 144 = |(-3) * (-4) * 12|)")
