"""Property test of census ingestion against the one-record-per-line reference."""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galcount import fields
from galcount.fields import CENSUS_HEADER, CensusFormatError, ingest_census, read_census_records

from oracles import ingest_census_slow, read_census_records_slow

# str.strip() removes \x1c-\x1f but int() does not; a census's text ends a line
# only at \n, so \r, \x0b, \x1c-\x1e, \x85 and \u2028 stay inside their line
PADDING = st.sampled_from(["", "", "", " ", "\t", "\x1f"])
ENDS = st.sampled_from(["\n", "\r\n"])
ANY_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"])
NUMBERS = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers(2**63 - 3, 2**66).map(str),
    st.sampled_from(["+3", "3_000", "\u0663", "\u0661\u0662", "-0", "0", "", "x", "1_", "2.5"]),
)
LABELS = st.sampled_from(["S3", "C3", "D4", "", "A\x1c5", "\u00e9"])


def padded(values):
    return st.tuples(PADDING, values, PADDING).map("".join)


FIELD = padded(st.one_of(NUMBERS, LABELS))
BLANK = st.lists(PADDING, max_size=3).map("".join)  # empty or whitespace-only
WELL_FORMED = st.tuples(
    padded(st.sampled_from(["3", "+3", "4", "\u0663"])),
    padded(st.sampled_from(["S3", "C3"])),
    padded(st.one_of(st.integers(1, 40).map(str), st.integers(2**63 - 3, 2**63 + 3).map(str), st.just("3_000"))),
).map(",".join)
# repeated branches weight the draw, so that about half the texts parse and
# the rest fail at each of the checks
CLEAN_LINE = st.one_of(WELL_FORMED, WELL_FORMED, WELL_FORMED, BLANK)
ANY_LINE = st.one_of(
    WELL_FORMED,
    WELL_FORMED,
    BLANK,
    st.tuples(padded(NUMBERS), padded(LABELS), padded(NUMBERS)).map(",".join),
    st.lists(FIELD, min_size=2, max_size=2).map(",".join),
    st.lists(FIELD, min_size=4, max_size=4).map(",".join),
)
HEADER = st.one_of(
    padded(st.just(CENSUS_HEADER)),
    padded(st.just(CENSUS_HEADER)),
    padded(st.just(CENSUS_HEADER)),
    st.sampled_from(["", "degree,group", "Degree,group,abs_disc"]),
)


@st.composite
def census_texts(draw):
    lines = [draw(HEADER)] + draw(st.lists(draw(st.sampled_from([CLEAN_LINE, ANY_LINE])), min_size=1, max_size=12))
    ends = draw(st.sampled_from([ENDS, ANY_ENDS]))
    text = "".join(line + draw(ends) for line in lines)
    return text.rstrip("\n") if draw(st.booleans()) else text


# Canonical lines are read by the array pass, everything else by the per-line
# reader; a canonical text with a near miss on one line exercises the decline.
PRINTABLE = "".join(chr(c) for c in range(0x20, 0x7F) if chr(c) != ",")
CANONICAL_LABEL = st.text(PRINTABLE, min_size=1, max_size=5).filter(lambda s: s == s.strip(" "))
CANONICAL_LINE = st.one_of(
    st.tuples(
        st.integers(1, 12).map(str),
        st.sampled_from(["S3", "C3", "D4", "C2xC2", "S 3"]),
        st.integers(1, 3000).map(str),
    ).map(",".join),
    st.tuples(
        st.integers(1, 10**30).map(str),
        CANONICAL_LABEL,
        st.integers(1, 10**18 - 1).map(str),
    ).map(",".join),
    st.just(""),
)
NEAR_MISSES = [
    "03,S3,23",  # leading zeros
    "0,S3,23",
    "3,S3,023",
    f"3,S3,{10**18 - 1}",  # the largest canonical abs_disc
    f"3,S3,{10**18}",  # 19 digits
    f"3,S3,{2**63}",
    "3,S 3,23",  # an inner space is canonical
    "3, S3,23",
    "3,S3 ,23",
    " 3,S3,23",
    "3,S\x7f3,23",
    "3,S3\x1f,23",
    "3,S\u00e93,23",
    "3,S3,23\r",
    "\t",
    "3,,23",
    "3,S3,",
    ",S3,23",
    "x,S3,23",
    "3,S3,2x3",
    "3,S3,2,3",
    "3,S3,0",
]
NEAR_MISS = st.sampled_from(NEAR_MISSES)


@st.composite
def canonical_texts(draw):
    """Mostly canonical censuses: the exact header, then canonical lines and, in some
    texts, one near miss; a repeated line and a missing final newline now and then."""
    lines = draw(st.lists(CANONICAL_LINE, min_size=1, max_size=12))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(NEAR_MISS))
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(lines)))
    text = "\n".join([CENSUS_HEADER] + lines)
    return text if draw(st.booleans()) else text + "\n"


GRID = [0, 1, 2, 3, 5, 8, 13, 21, 40, 3000, 10**18 - 1, 10**18, 2**63 - 1, 2**63, 2**64, 2**66, 2**70]


def outcome(ingest, source):
    """The error message, or each tally's label, entries, total and counts on GRID."""
    try:
        tallies = ingest(source)
    except CensusFormatError as exc:
        return str(exc)
    return [(label, t.entries, t.total(), [t.count_up_to(x) for x in GRID]) for label, t in tallies.items()]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(census_texts(), canonical_texts()))
@example(f"{CENSUS_HEADER}\r\n3,S3,\x1c23\x1f\r\n\r\n \t\r\n+3, C3 ,3_000\r\n3,S3,\u0663\n3,S3,23")
@example(f"{CENSUS_HEADER}\n3,S3,{2**64 + 1}\n3,S3,{2**63}\n3,S3,{2**64 + 1}\n3,C3,{2**70}\n")
@example(f"{CENSUS_HEADER}\n3,S3,5\n3,,7\n")
@example(f"{CENSUS_HEADER}\n0,,x\n")
@example(f"{CENSUS_HEADER}\n-1,S3,0\n")
@example(f"{CENSUS_HEADER}\n3,S3,-4\n")
@example(f"{CENSUS_HEADER}\n3,S3\n3,S3,5,6\n")
def test_ingest_matches_reference(text):
    want = outcome(ingest_census_slow, text)
    assert outcome(ingest_census, text) == want
    with mock.patch.object(fields, "_BLOCK", 16):  # several blocks, each cut at a newline
        assert outcome(ingest_census, text) == want
    try:
        records = read_census_records_slow(text)
    except CensusFormatError as exc:
        assert want == str(exc)
        return
    assert read_census_records(text) == records
    for label, _, total, counts in want:
        discs = [r.abs_disc for r in records if r.group_label == label]
        assert total == len(discs)
        assert counts == [sum(d <= x for d in discs) for x in GRID]


def canonical_census(lines: int) -> str:
    """A canonical census of several labels and widths, blank lines and repeats included."""
    labels = ["S3", "C3", "D4", "C2xC2", "S 3", "T"]
    rows = [CENSUS_HEADER]
    for i in range(lines):
        rows.append("" if i % 17 == 5 else f"{3 + i % 2},{labels[i * 7 % 6]},{(i * 7919) % 100_003 + 1}")
    return "\n".join(rows + [f"3,S3,{10**18 - 1}", f"3,S3,{10**18 - 1}"])  # no final newline


def test_canonical_census_never_reaches_the_per_line_reader(monkeypatch):
    text = canonical_census(500)
    want = outcome(ingest_census_slow, text)

    def per_line(*args, **kwargs):
        raise AssertionError("a canonical census reached the per-line reader")

    monkeypatch.setattr(fields, "_census_discs", per_line)
    for block in (fields._BLOCK, 64):
        monkeypatch.setattr(fields, "_BLOCK", block)
        assert outcome(ingest_census, text) == want


def test_canonical_census_holds_the_text_and_one_block():
    # traced peak on this census: 15.5 MB with 1 MiB blocks, 3.2 MB with 2**16-character
    # blocks (mostly the 2.4 MB of int64 tallies); the bound lies halfway
    text = canonical_census(300_000)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        ingest_census(text)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 9_300_000


@pytest.mark.parametrize("bad", ["3,S3,12x"] + NEAR_MISSES)
def test_line_past_the_first_block(monkeypatch, bad):
    # the array pass declines in a later block; the per-line reader then reads the whole text
    rows = canonical_census(400).split("\n")
    rows.insert(300, bad)
    text = "\n".join(rows) + "\n"
    monkeypatch.setattr(fields, "_BLOCK", 256)
    want = outcome(ingest_census_slow, text)
    assert outcome(ingest_census, text) == want
    if bad == "3,S3,12x":
        assert want == "line 301: non-integer field"

