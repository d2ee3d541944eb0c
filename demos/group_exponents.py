#!/usr/bin/env python3
"""Walk through the group side of the toolkit: build the named permutation
representations, compute their exact growth exponents a(G), and reproduce the
degree-6 and degree-8 expectation tables."""

from fractions import Fraction

from galcount import (
    alternating_natural,
    coset_action,
    cyclic_natural,
    dihedral_natural,
    direct_product,
    heisenberg_mod3,
    parse_cycles,
    regular_rep,
    sl2_natural,
    symmetric_natural,
    wreath,
)
from galcount.groupspec import parse_group_expr
from galcount.tables import TABLES

print("=" * 72)
print("a(G) = 1 / (minimal index of a nonidentity element)")
print("=" * 72)

showcase = [
    ("natural S3", symmetric_natural(3)),
    ("regular S3", regular_rep(symmetric_natural(3))),
    ("regular C4", regular_rep(cyclic_natural(4))),
    ("dihedral of order 16 on 8 points", dihedral_natural(8)),
    ("SL2(3) on the 8 nonzero vectors", sl2_natural(3)),
    ("order-27 exponent-3 group on 9 points", heisenberg_mod3()),
    ("A4 x C2 on 8 points", direct_product(alternating_natural(4), cyclic_natural(2))),
    ("2 wr A4 on 8 points", wreath(cyclic_natural(2), alternating_natural(4))),
]
for name, group in showcase:
    witness, ind = group.min_index_witness()
    print(
        f"{name:40} degree {group.degree:3}  order {group.order():4}  "
        f"a(G) = {group.a_invariant()}  witness {witness} (ind {ind})"
    )

print()
print("Coset actions: the symmetric group on 4 letters in degree 8 and both")
print("faithful degree-6 actions (cyclic and Klein point stabilizers):")
s4 = symmetric_natural(4)
for label, gens in [
    ("on cosets of <(1 2 3)>  ", ["(1 2 3)"]),
    ("on cosets of <(1 2 3 4)>", ["(1 2 3 4)"]),
    ("on cosets of <(1 2),(3 4)>", ["(1 2)", "(3 4)"]),
]:
    subgroup = [parse_cycles(text, 4) for text in gens]
    action = coset_action(s4, subgroup)
    faithful = action.order() == s4.order()
    print(
        f"  S4 {label} degree {action.degree}  faithful={faithful}  a = {action.a_invariant()}"
    )

print()
print("Expectation tables (computed vs expected):")
for which, rows in TABLES.items():
    print(f"--- {which} ---")
    for row in rows:
        if row.expression is None:
            print(f"  {row.row_id:11} {row.name:8} |G|={row.order:4}  external generators required")
            continue
        a = parse_group_expr(row.expression).a_invariant()
        status = "ok" if a == row.expected_a else "MISMATCH"
        print(f"  {row.row_id:11} {row.name:8} |G|={row.order:4}  a = {a} (expected {row.expected_a}) {status}")

print()
print("Sanity identity for regular actions: ind(s) = |G|(m-1)/m with m = order(s).")
group = regular_rep(dihedral_natural(4))
for elem in group.elements()[:5]:
    if elem.is_identity:
        continue
    m = elem.order()
    assert Fraction(elem.ind()) == Fraction(group.order() * (m - 1), m)
    print(f"  order {m} element of regular D4(order 8): ind = {elem.ind()}")
