"""Embedded expected-exponent tables for transitive groups of degree 6 and 8.

Rows carry a group expression in the groupspec grammar when the group has a
built-in construction; rows identified only by an external database label
carry no expression and are reported as SKIPPED(external).  The degree-6 row
Nr. 7 is realized as the coset action of the symmetric group on 4 letters on
a cyclic subgroup of order 4.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional


class TableRow(NamedTuple):
    row_id: str
    name: str
    order: int
    expression: Optional[str]
    expected_a: Fraction


def _row(degree: int, nr: int, name: str, order: int, expr: Optional[str], a: str) -> TableRow:
    return TableRow(f"deg{degree}/Nr{nr}", name, order, expr, Fraction(a))


DEG6_ROWS: tuple[TableRow, ...] = (
    _row(6, 4, "A4(6)", 12, 'cosets(natural(A 4), "(1 2)(3 4)")', "1/2"),
    _row(6, 5, "3wr2", 18, "wreath(natural(C 3), natural(C 2))", "1/2"),
    _row(6, 7, "S4(6)", 24, 'cosets(natural(S 4), "(1 2 3 4)")', "1/2"),
)

DEG8_ROWS: tuple[TableRow, ...] = (
    _row(8, 6, "D8", 16, "dihedral(8)", "1/3"),
    _row(8, 7, "T7", 16, None, "1/2"),
    _row(8, 8, "T8", 16, None, "1/3"),
    _row(8, 10, "T10", 16, None, "1/2"),
    _row(8, 11, "T11", 16, None, "1/2"),
    _row(8, 12, "SL2(3)", 24, "sl2(3)", "1/4"),
    _row(8, 13, "A4x2", 24, "product(natural(A 4), natural(C 2))", "1/4"),
    _row(8, 14, "S4(8)", 24, 'cosets(natural(S 4), "(1 2 3)")', "1/4"),
    _row(8, 15, "T15", 32, None, "1/2"),
    _row(8, 16, "T16", 32, None, "1/2"),
    _row(8, 17, "4wr2", 32, "wreath(natural(C 4), natural(C 2))", "1/2"),
    _row(8, 18, "2^2wr2", 32, "wreath(product(natural(C 2), natural(C 2)), natural(C 2))", "1/2"),
    _row(8, 19, "T19", 32, None, "1/2"),
    _row(8, 20, "T20", 32, None, "1/2"),
    _row(8, 21, "T21", 32, None, "1/2"),
    _row(8, 22, "T22", 32, None, "1/2"),
    _row(8, 24, "S4x2", 48, "product(natural(S 4), natural(C 2))", "1/2"),
    _row(8, 26, "T26", 64, None, "1/2"),
    _row(8, 29, "T29", 64, None, "1/2"),
    _row(8, 30, "T30", 64, None, "1/2"),
    _row(8, 38, "2wrA4", 192, "wreath(natural(C 2), natural(A 4))", "1"),
    _row(8, 44, "2wrS4", 384, "wreath(natural(C 2), natural(S 4))", "1"),
)

TABLES: dict[str, tuple[TableRow, ...]] = {"deg6": DEG6_ROWS, "deg8": DEG8_ROWS}
