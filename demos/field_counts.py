#!/usr/bin/env python3
"""Exact field counts over Q by absolute discriminant: quadratic fields from
fundamental discriminants, cyclic cubic and quintic fields from conductors,
and biquadratic fields from ramified prime sets."""

from galcount import count_biquadratic, count_quadratic, cyclic_samples, geometric_grid, quadratic_samples
from galcount.fields import biquadratic_tally, cyclic_conductors, fundamental_discriminants

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
print("  cyclic cubic:", cyclic_samples(3, geometric_grid(49, 10**8, 6)))
print("  cyclic quintic:", cyclic_samples(5, geometric_grid(11**4, 10**12, 5)))

print()
print(f"Biquadratic fields with |disc| <= 10^4: {count_biquadratic(10**4)}")
discs = biquadratic_tally(2000)  # ascending, each |disc| once per field
print("First few biquadratic |disc| values:", sorted(set(discs.tolist()))[:8])
print("(the smallest is 144 = |(-3) * (-4) * 12|)")
