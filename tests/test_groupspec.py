import re
from fractions import Fraction

import pytest

from galcount.constructions import InconsistentDualRep, check_index_domination
from galcount.groups import EnumerationCapError
from galcount.groupspec import (
    GroupSpecError,
    parse_group_expr,
    parse_group_file,
    parse_paired_file,
)


def test_natural_families():
    assert parse_group_expr("natural(C 5)").order() == 5
    assert parse_group_expr("natural(S 4)").order() == 24
    assert parse_group_expr("natural(A 4)").order() == 12
    assert parse_group_expr("natural(A 5)").order() == 60


def test_bare_family_shorthand():
    assert parse_group_expr("regular(C 4)").degree == 4
    assert parse_group_expr("wreath(C 2, natural(A 4))").order() == 192
    assert parse_group_expr("S 3").order() == 6


def test_whitespace_insensitive():
    a = parse_group_expr("wreath(natural(C 2), natural(A 4))")
    b = parse_group_expr("wreath(natural(C2),natural(A4))")
    c = parse_group_expr("  wreath ( natural ( C 2 ) , natural ( A 4 ) ) ")
    assert a.generators == b.generators == c.generators


def test_nested_constructions():
    g = parse_group_expr("regular(product(natural(C 2), natural(C 2)))")
    assert g.degree == 4 and g.order() == 4
    assert g.a_invariant() == Fraction(1, 2)

    h = parse_group_expr('cosets(natural(S 4), "(1 2 3 4)")')
    assert h.degree == 6 and h.order() == 24

    k = parse_group_expr("sl2(3)")
    assert k.degree == 8 and k.order() == 24

    m = parse_group_expr("heis3()")
    assert m.degree == 9 and m.order() == 27

    d = parse_group_expr("dihedral(8)")
    assert d.degree == 8 and d.order() == 16


def test_parse_errors():
    for bad in [
        "",
        "natural(Q 3)",
        "natural(C x)",
        "wreath(natural(C 2))",
        "product(natural(C 2), natural(C 2)), junk",
        "unknown(3)",
        "sl2(4)",
        'cosets(natural(S 4), "(1 9)")',
    ]:
        with pytest.raises(GroupSpecError):
            parse_group_expr(bad)


def test_syntax_errors_name_a_column():
    for text, message in [
        ("natural(C 3", "expected ')' at column 12"),
        ("natural(C x)", "expected an integer at column 11"),
        ("natural(3)", "expected C, A or S at column 9"),
        ("wreath(natural(C 2))", "expected ',' at column 20"),
        ('cosets(S 4, 7)', "expected a quoted string at column 13"),
        ("sl7(5)", "expected '2' at column 3"),
        ("regular(", "expected a construction name at column 9"),
        ("natural(Q 3)", "natural() family must be C, A or S, not 'Q' at column 9"),
        ("product(C 2, C 2) $", "trailing input after expression: '$' at column 19"),
    ]:
        with pytest.raises(GroupSpecError, match=f"^{re.escape(message)}$"):
            parse_group_expr(text)
    # these messages name no column; the benchmark's bad-expression job reads the first
    for text, message in [
        ("product(C 2, bogus(3))", "unknown construction 'bogus'"),
        ("  ", "empty group expression"),
    ]:
        with pytest.raises(GroupSpecError, match=f"^{re.escape(message)}$"):
            parse_group_expr(text)


def test_construction_errors_name_the_form_column():
    for text, message in [
        ("regular(sl2(4))", "column 9: 4 is not prime"),
        ('product(C 2, cosets(S 4, "(1 9)"))', "column 14: point 9 out of range for degree 4"),
        ('cosets(S 4, " ; ")', "column 1: empty generator list"),
        ("dihedral(2)", "column 1: n must be at least 3"),
    ]:
        with pytest.raises(GroupSpecError, match=f"^{re.escape(message)}$"):
            parse_group_expr(text)
    with pytest.raises(EnumerationCapError):  # a refusal over the cap is not a parse error
        parse_group_expr("regular(sl2(101))")
    # each form is built as soon as it is read, so its build error comes before a later syntax error
    with pytest.raises(EnumerationCapError):
        parse_group_expr("product(regular(sl2(101)), C 2")
    with pytest.raises(GroupSpecError, match="^column 14: 4 is not prime$"):
        parse_group_expr("product(C 2, sl2(4) $")


def test_group_file(tmp_path):
    text = "# order-16 dihedral on 8 points\ndegree=8\ngen=(1 2 3 4 5 6 7 8)\ngen=(2 8)(3 7)(4 6)\n"
    g = parse_group_file(text)
    assert g.degree == 8 and g.order() == 16
    path = tmp_path / "d8.grp"
    path.write_text(text, encoding="utf-8")
    h = parse_group_expr(f"file({path})")
    assert h.order() == 16
    nested = parse_group_expr(f"regular(file({path}))")
    assert nested.degree == 16


def test_group_file_errors():
    with pytest.raises(GroupSpecError):
        parse_group_file("gen=(1 2)\n")  # gen before degree
    with pytest.raises(GroupSpecError):
        parse_group_file("degree=3\n")  # no generators
    with pytest.raises(GroupSpecError):
        parse_group_file("degree=3\ngen=(1 5)\n")
    with pytest.raises(GroupSpecError):
        parse_group_expr("file(/nonexistent/path.grp)")


def test_paired_file():
    text = (
        "degree=2\n"
        "gen=(1 2)\n"
        "---\n"
        "degree=2\n"
        "gen=(1 2)\n"
    )
    dual = parse_paired_file(text)
    assert check_index_domination(dual).holds


def test_paired_file_mismatched_counts():
    text = "degree=3\ngen=(1 2)\ngen=(1 2 3)\n---\ndegree=3\ngen=(1 2)\n"
    with pytest.raises(InconsistentDualRep):
        parse_paired_file(text)


def test_paired_file_needs_one_separator():
    with pytest.raises(GroupSpecError):
        parse_paired_file("degree=2\ngen=(1 2)\n")
