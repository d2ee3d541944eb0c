"""Fuzz the group-expression grammar through the CLI: every text exits with a documented code."""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from galcount import cli

numbers = st.integers(0, 12).map(str)
families = st.sampled_from("CAS")
cycles = st.lists(st.lists(st.integers(0, 12).map(str), min_size=1, max_size=3).map(" ".join), max_size=3)
# no junk starts with "-", which would make the text an option rather than the expression
junk = st.sampled_from(["(", ")", ",", '"', ";", "$", "x", "7", "sl", "heis3", "natural", "file(", " "])


def expressions(depth: int) -> st.SearchStrategy[str]:
    """Every form of the grammar but file(PATH), nested at most ``depth`` deep."""
    leaves = st.one_of(
        st.builds("{} {}".format, families, numbers),
        st.builds("natural({} {})".format, families, numbers),
        st.builds("dihedral({})".format, numbers),
        st.builds("sl2({})".format, numbers),
        st.just("heis3()"),
    )
    if depth == 0:
        return leaves
    inner = expressions(depth - 1)
    return st.one_of(
        leaves,
        st.builds("regular({})".format, inner),
        st.builds("wreath({}, {})".format, inner, inner),
        st.builds("product({}, {})".format, inner, inner),
        st.builds('cosets({}, "{}")'.format, inner, cycles.map(lambda cs: ";".join(f"({c})" for c in cs))),
    )


@st.composite
def texts(draw) -> str:
    text = draw(expressions(4))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(junk) + text[at:]
    return text


@settings(max_examples=60, deadline=None)
@given(texts())
@example('cosets(regular(C 3), "(1 2 3)")')
@example("wreath(S 12, natural(A 0)")
@example("wreath(C 3, A 2)")
@example("A 71")
@example("A 677")
def test_aval_exits_with_a_documented_code(text):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--cap", "1000", "aval", text])
    assert isinstance(code, int) and 0 <= code <= 7
