"""Property test of census ingestion against the one-record-per-line reference."""

import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from galcount.fields import CENSUS_HEADER, CensusFormatError, ingest_census, read_census_records

from oracles import ingest_census_slow, read_census_records_slow

# str.strip() removes \x1c-\x1f but int() does not; str.splitlines() also ends
# a line at \r, \x0b, \x1c-\x1e, \x85 and \u2028, a text stream only at \n
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


GRID = [0, 1, 2, 3, 5, 8, 13, 21, 40, 3000, 2**63 - 1, 2**63, 2**64, 2**66, 2**70]


def outcome(ingest, source):
    """The error message, or each tally's label, entries, total and counts on GRID."""
    try:
        tallies = ingest(source)
    except CensusFormatError as exc:
        return str(exc)
    return [(label, t.entries, t.total(), [t.count_up_to(x) for x in GRID]) for label, t in tallies.items()]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(census_texts())
@example(f"{CENSUS_HEADER}\r\n3,S3,\x1c23\x1f\r\n\r\n \t\r\n+3, C3 ,3_000\r\n3,S3,\u0663\n3,S3,23")
@example(f"{CENSUS_HEADER}\n3,S3,{2**64 + 1}\n3,S3,{2**63}\n3,S3,{2**64 + 1}\n3,C3,{2**70}\n")
@example(f"{CENSUS_HEADER}\n3,S3,5\n3,,7\n")
@example(f"{CENSUS_HEADER}\n0,,x\n")
@example(f"{CENSUS_HEADER}\n-1,S3,0\n")
@example(f"{CENSUS_HEADER}\n3,S3,-4\n")
@example(f"{CENSUS_HEADER}\n3,S3\n3,S3,5,6\n")
def test_ingest_matches_reference(text):
    for source in (lambda: text, lambda: io.StringIO(text)):
        want = outcome(ingest_census_slow, source())
        assert outcome(ingest_census, source()) == want
        try:
            records = read_census_records_slow(source())
        except CensusFormatError as exc:
            assert want == str(exc)
            continue
        assert read_census_records(source()) == records
        for label, _, total, counts in want:
            discs = [r.abs_disc for r in records if r.group_label == label]
            assert total == len(discs)
            assert counts == [sum(d <= x for d in discs) for x in GRID]
