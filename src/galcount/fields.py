"""Exact counts of number fields over Q by absolute discriminant, each family counted at every grid
point from one table: quadratic (a closed form in O(sqrt(x)) time and memory), cyclic of odd prime
degree from conductors, and biquadratic from ramified prime sets.  An ingested census is one ascending
|disc| array per label, which ``tally_samples`` reads; ``cyclic_tally`` and ``biquadratic_tally`` list
a table's |disc| values the same way, as listing views that no count reads."""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import CensusFormatError
from .sieves import _BLOCK, introot, is_prime, mobius, prime_array, squarefree_power, squarefree_sieve


# ---------------------------------------------------------------------------
# quadratic fields


def fundamental_discriminants(x: int) -> np.ndarray:
    """All fundamental discriminants d != 1 with |d| <= x, as an int64 array sorted by (|d|, sign).

    These are the discriminants of Q(sqrt(s)) for the squarefree s = +-m != 1:
    s if s = 1 (mod 4), else 4s.
    """
    m = np.flatnonzero(squarefree_sieve(max(x, 1)))
    s = np.stack([m, -m], axis=1).ravel()[1:]  # [1:] drops s = +1
    d = s * (4 - 3 * (s % 4 == 1))
    d = d[np.abs(d) <= x]
    return d[np.lexsort((d, np.abs(d)))]


def count_quadratic(x: int) -> int:
    """Number of quadratic fields with |disc| <= x, in O(sqrt(x)) time and memory.

    By ``fundamental_discriminants``, each odd squarefree n gives one field with |d| = n
    (the one of +-n that is 1 mod 4) unless n = 1, one with |d| = 4n (the one
    of +-n that is 3 mod 4), and two with |d| = 8n (s = +-2n).  So
    Z(x) = S(x) - 1 + S(x // 4) + 2 * S(x // 8), where
    S(y) = sum over odd d <= sqrt(y) of mu(d) * ceil(floor(y / d^2) / 2)
    counts the odd squarefree integers up to y.
    """
    return quadratic_samples([x])[0][1]


def quadratic_samples(grid: Sequence[int]) -> list[tuple[int, int]]:
    """(x, count) pairs on an ascending grid, sharing one Möbius sieve up to sqrt(max(grid)).
    Each S(y) is the int8 mu(d) dot ceil(floor(y / d^2) / 2) over odd d, ``_BLOCK`` d
    at a time; no term or partial sum exceeds y, so int64 is exact up to 2**63 - 1, and a
    larger x raises ValueError before anything is sieved."""
    grid = _ascending(grid)
    if grid[-1] > 2**63 - 1:
        raise ValueError(f"quadratic counts need |disc| <= 2**63 - 1, got {grid[-1]}")
    mu = mobius(math.isqrt(max(grid[-1], 1)))

    def odd_squarefree(y: int) -> int:
        total, stop = 0, math.isqrt(y) + 1
        for start in range(1, stop, 2 * _BLOCK):
            d = np.arange(start, min(start + 2 * _BLOCK, stop), 2, dtype=np.int64)
            q = y // (d * d)
            total += int(np.dot(mu[d], q - q // 2))  # q - q // 2 is ceil(q / 2) with nothing above q
        return total

    counts = (odd_squarefree(x) - 1 + odd_squarefree(x // 4) + 2 * odd_squarefree(x // 8) if x > 0 else 0 for x in grid)
    return list(zip(grid, counts))


# ---------------------------------------------------------------------------
# cyclic fields of odd prime degree


def _conductor_arrays(ell: int, fmax: int) -> tuple[np.ndarray, np.ndarray]:
    """The admissible conductors 2 <= f <= fmax, ascending, and the number of
    fields of each (see ``cyclic_conductors``), as int64 arrays read from one
    ``squarefree_power`` table of h(f) = (ell-1)**t over the admissible q: the
    primes = 1 (mod ell) and ell^2, all above ell - 1.
    """
    if ell % 2 == 0 or not is_prime(ell):
        raise ValueError(f"ell must be an odd prime, got {ell}")
    if fmax < 2 * ell + 1:  # no admissible q below 2*ell + 1; this also keeps a huge ell out of int64
        none = np.zeros(0, dtype=np.int64)
        return none, none
    if fmax >= 2**63 - 1:  # the table runs from 0 to fmax, an int64 index
        raise ValueError(f"cyclic counts need a conductor bound below 2**63 - 1, got {fmax}")
    q = prime_array(fmax)
    q = q[q % ell == 1]
    if ell * ell <= fmax:
        q = np.sort(np.append(q, ell * ell))
    h = squarefree_power(q, ell - 1, fmax)
    conductors = np.flatnonzero(h)[1:]  # h[1] = 1 is not a conductor
    return conductors, (h[conductors] // (ell - 1)).astype(np.int64)


def cyclic_conductors(ell: int, fmax: int) -> dict[int, int]:
    """Number of cyclic degree-ell fields of exact conductor f, for each
    admissible conductor 2 <= f <= fmax, ascending in f.

    Admissible f: a product of t >= 1 distinct factors, each a prime = 1
    (mod ell) or ell^2, with (ell-1)**(t-1) fields.  A dict view of the
    conductor arrays that ``cyclic_samples`` reads directly.
    """
    conductors, counts = _conductor_arrays(ell, fmax)
    return dict(zip(conductors.tolist(), counts.tolist()))


def count_cyclic_ell(ell: int, x: int) -> int:
    """Number of cyclic degree-ell fields with disc = f**(ell-1) <= x (see ``cyclic_samples``)."""
    return cyclic_samples(ell, [x])[0][1]


def cyclic_samples(ell: int, grid: Sequence[int]) -> list[tuple[int, int]]:
    """(x, count) pairs on an ascending grid from one conductor table up to max(grid)**(1/(ell-1)),
    no field listed.  f**(ell-1) <= x exactly when f <= floor(x**(1/(ell-1))), so the running field
    count at every x is one searchsorted of that bound among the int64 conductors; no disc is formed."""
    grid = _ascending(grid)
    bounds = [introot(max(x, 0), ell - 1) for x in grid]
    conductors, counts = _conductor_arrays(ell, bounds[-1])
    return list(zip(grid, np.cumsum(np.append(0, counts))[np.searchsorted(conductors, bounds, side="right")].tolist()))


def cyclic_tally(ell: int, xmax: int) -> np.ndarray:
    """A listing view of the conductor table ``cyclic_samples`` counts from: each disc f**(ell-1) <= xmax,
    ascending, once per field; int64 below 2**63, and exact Python ints in a ``dtype=object`` array from
    there (an int64 power would wrap).  No count reads it."""
    conductors, counts = _conductor_arrays(ell, introot(max(xmax, 1), ell - 1))
    if xmax >= 2**63:
        conductors = conductors.astype(object)
    # with no conductor, ell - 1 may pass int64
    return np.repeat(conductors ** (ell - 1) if conductors.size else conductors, counts)


# ---------------------------------------------------------------------------
# biquadratic fields


def _biquadratic_classes(xmax: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(f, m, fields) pieces for each 2-adic class f = 1, 16, 64, 256 of the biquadratic
    fields with |disc| = m^2 * f <= xmax: the odd squarefree m <= sqrt(xmax / f) of one
    ``_BLOCK`` of the table, ascending, and the int64 number of fields at each.

    Counted from ramified prime sets (D. J. Wright, Proc. London Math. Soc. 58
    (1989)), not field by field.  A biquadratic field is a 2-dimensional space V of
    quadratic characters, which have one F_2 coordinate for each odd prime and the
    2-adic plane {chi_-4, chi_8, chi_-8} of conductors 4, 8, 8.  By the
    conductor-discriminant formula, |disc| = m^2 * f, where m is the product of the
    s odd primes ramified in V and f depends on V's image in the 2-adic plane:
    f = 1 (image 0) for (3^s - 3) / 6 fields, none when s = 0; f = 16 (the line of
    chi_-4) for (3^s - 1) / 2; f = 64 (the line of chi_8 or of chi_-8) for 3^s - 1;
    and f = 256 (the whole plane) for 3^s.  So one ``squarefree_power`` table over
    the odd primes with c = 3, up to sqrt(xmax), is 3^s at every odd squarefree m and
    0 elsewhere; it is read a block at a time, so no int64 array of every m is built.
    xmax above 2**63 - 1 raises ValueError before anything is sieved.
    """
    if xmax > 2**63 - 1:
        raise ValueError(f"biquadratic counts need |disc| <= 2**63 - 1, got {xmax}")
    xmax = max(xmax, 0)
    r = math.isqrt(xmax)
    h = squarefree_power(prime_array(r)[1:], 3, r)
    for start in range(0, r + 1, _BLOCK):
        block = h[start : start + _BLOCK]
        m = np.flatnonzero(block)  # the odd squarefree m of this block, ascending, less start
        t = block[m].astype(np.int64)  # 3^s
        m += start
        for f, a, b in ((1, 3, 6), (16, 1, 2), (64, 1, 1), (256, 0, 1)):  # (3^s - a) / b fields, none when s = 0
            end = np.searchsorted(m, math.isqrt(xmax // f), side="right")
            yield f, m[:end], np.maximum(t[:end] - a, 0) // b


def biquadratic_discs(xmax: int) -> np.ndarray:
    """|disc| values of the biquadratic fields with |disc| <= xmax, as a sorted int64 array:
    each class's m^2 * f, repeated once per field.  Counts come from ``biquadratic_samples``."""
    discs = np.concatenate([np.repeat(m * m * f, fields) for f, m, fields in _biquadratic_classes(xmax)])
    discs.sort()  # in place: no third copy of every |disc|
    return discs


def count_biquadratic(x: int) -> int:
    """Number of biquadratic (Klein four-group) fields with |disc| <= x (see ``biquadratic_samples``)."""
    return biquadratic_samples([x])[0][1]


def biquadratic_samples(grid: Sequence[int]) -> list[tuple[int, int]]:
    """(x, count) pairs on an ascending grid from one class table up to max(grid), no |disc| listed: each
    piece's field count at every x, by one searchsorted of x // f among its m^2 (as m^2 * f <= x), summed
    over the pieces as they come."""
    grid = _ascending(grid)
    xs = np.array(grid).clip(0)  # an x below 0 counts no field
    pieces = _biquadratic_classes(grid[-1])  # refuses a top past 2**63 - 1 at its first piece, before any xs // f
    counts = sum(np.cumsum(np.append(0, fields))[np.searchsorted(m * m, xs // f, side="right")] for f, m, fields in pieces)
    return list(zip(grid, counts.tolist()))


biquadratic_tally = biquadratic_discs  # a second name, which perfbench/spans.py times as a listing view


# ---------------------------------------------------------------------------
# tallies and census ingestion


def _exact_array(values: Sequence[int]) -> np.ndarray:
    """``values`` as an int64 array when every one fits, else as a ``dtype=object``
    array of the Python ints themselves, so no value ever wraps."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def tally_samples(discs: Union[np.ndarray, Sequence[int]], grid: Sequence[int]) -> list[tuple[int, int]]:
    """(x, Z(x)) pairs on an ascending grid, Z(x) the number of ``discs`` at most x: the |disc| of every
    field of one label, ascending with repeats kept, as an array or a list of ints.  A value below 1 or
    a descending pair raises ValueError, since the count is one searchsorted.  Every int64 |disc| lies in
    1..2**63 - 1, so against int64 values each x is clamped to 0..2**63 - 1, which counts the same."""
    discs = discs if isinstance(discs, np.ndarray) else _exact_array(discs)
    if np.any(discs[:1] < 1) or np.any(discs[1:] < discs[:-1]):
        raise ValueError("abs_disc values must be positive and ascending")
    grid = _ascending(grid)
    xs = grid if discs.dtype == object else [min(max(x, 0), 2**63 - 1) for x in grid]
    return list(zip(grid, np.searchsorted(discs, np.array(xs, dtype=discs.dtype), side="right").tolist()))


CENSUS_HEADER = "degree,group,abs_disc"


class CensusRecord(NamedTuple):
    """One externally supplied field: degree, group label, |disc|."""

    degree: int
    group_label: str
    abs_disc: int


def read_census_records(text: str) -> list[CensusRecord]:
    """Parse a census file's text into records, rejecting malformed lines by number.

    Format: first line exactly ``degree,group,abs_disc``, then comma-separated
    records with integer degree, a label without commas, and a positive
    integer absolute discriminant.
    """
    return [CensusRecord(*row) for row in _census_rows(text)]


def ingest_census(text: str) -> dict[str, np.ndarray]:
    """Read a census of fields (one per line) from a file's text and group it into
    ascending |disc| arrays by label, in order of first appearance.

    Each record is one field, so a repeated (label, abs_disc) is kept.  Lines end at
    "\\n" only, as in a file read in text mode.  A canonical census (see
    ``_canonical_census``) is read by one array pass over blocks of the text, and any
    other text by the per-line reader ``_census_rows``, with identical results; the
    per-line reader alone raises CensusFormatError.  Each array is int64, or a
    ``dtype=object`` array of exact Python ints once a |disc| passes 2**63.
    """
    grouped = _canonical_census(text)
    if grouped is None:
        discs: dict[str, list[int]] = {}
        for _, label, abs_disc in _census_rows(text):
            discs.setdefault(label, []).append(abs_disc)
        grouped = {label: np.sort(_exact_array(values)) for label, values in discs.items()}
    return grouped


def _canonical_census(text: str) -> Optional[dict[str, np.ndarray]]:
    """Sorted int64 abs_disc arrays by group label, in order of first appearance,
    read a block of about ``_BLOCK`` characters at a time, each block cut after a
    newline; None unless the first line is exactly CENSUS_HEADER, every later line is
    canonical (see ``_canonical_block``), and the label ids fit above the largest
    abs_disc in one int64.  ``_census_rows`` reads each canonical line to the same values.

    Each block gives only its lines' values and label keys, and each line is stored as
    one int64, its label id above its abs_disc from bit ``shift`` (60 while there are at
    most 8 labels, less beyond, when the lines so far are shifted down to match).  The
    lines are grouped by label once, after the last block, by one sort of those int64s,
    so memory is the text, one block, and 8 bytes a line: the array has a slot for every
    newline in the text, and one more for a last line without one."""
    if text != CENSUS_HEADER and not text.startswith(CENSUS_HEADER + "\n"):
        return None
    start = len(CENSUS_HEADER) + 1
    packed = np.empty(text.count("\n", start) + 1, dtype=np.int64)
    # the known label keys, ascending, and their ids; the 8 bytes 0xFF lie above every key
    vocabulary = np.array([2**64 - 1], dtype=np.uint64), np.array([-1])
    names: list[str] = []  # by id
    line = top = excess = 0  # lines stored, their largest abs_disc, their non-digit bytes less separators
    shift = 60  # every canonical abs_disc is below 10**18 < 2**60
    while start < len(text):
        cut = text.find("\n", start + _BLOCK) + 1 or len(text)
        try:
            block = text[start:cut].encode("ascii")
        except UnicodeEncodeError:
            return None
        parsed = _canonical_block(block if block.endswith(b"\n") else block + b"\n")
        if parsed is None:
            return None
        discs, keys, other = parsed
        labelled = _label_ids(keys, vocabulary, names)
        if labelled is None:
            return None
        ids, vocabulary = labelled
        fit = 63 - max(len(names) - 1, 7).bit_length()
        if fit < shift:
            _shift_ids(packed[:line], shift, fit)
            shift = fit
        ids <<= shift
        np.bitwise_or(ids, discs.view(np.int64), out=packed[line : line + discs.size])
        line += discs.size
        top = max(top, int(discs.max(initial=0)))
        excess += other
        start = cut
    if top >> shift:  # checked before the sizes below are read from the ids
        return None
    value = packed[:line]
    value.sort()
    bounds = np.searchsorted(value, np.arange(1, len(names), dtype=np.int64) << shift)
    sizes = np.diff(bounds, prepend=0, append=line).tolist()
    # each label's non-digit bytes, once per line: the rest of every line is digits only then
    if excess != sum(size * sum(not c.isdigit() for c in name) for size, name in zip(sizes, names)):
        return None
    value &= (1 << shift) - 1
    return dict(zip(names, np.split(value, bounds)))


def _shift_ids(packed: np.ndarray, old: int, new: int) -> None:
    """Move the label id of each packed line from bit ``old`` down to bit ``new``, in place,
    a ``_BLOCK`` at a time."""
    for at in range(0, packed.size, _BLOCK):
        chunk = packed[at : at + _BLOCK]
        chunk[:] = chunk >> old << new | chunk & ((1 << old) - 1)


def _label_ids(
    keys: np.ndarray, vocabulary: tuple[np.ndarray, np.ndarray], names: list[str]
) -> Optional[tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]]:
    """The ids of one block's label ``keys``, and ``vocabulary`` (the known keys, ascending
    with one key above them all, and their ids) with the new keys added; None if a new
    label is not canonical.  A key not yet known takes the next id, in order of first
    appearance, and its label joins ``names``.  A label is checked once, when it joins:
    printable ASCII with no space at either end (a leading NUL byte, which its key
    drops, is caught by the census's non-digit count)."""
    known, known_id = vocabulary
    pos = np.searchsorted(known, keys)
    new = known[pos] != keys
    if new.any():
        fresh, first = np.unique(keys[new], return_index=True)
        fresh = fresh[np.argsort(first)]
        for key in fresh.tolist():
            label = key.to_bytes(8, "big").lstrip(b"\0").decode("ascii")
            if not label.isprintable() or label != label.strip(" "):
                return None
            names.append(label)
        known = np.append(known, fresh)
        known_id = np.append(known_id, np.arange(len(names) - fresh.size, len(names)))
        order = np.argsort(known)
        known, known_id = known[order], known_id[order]
        pos = np.searchsorted(known, keys)
    return known_id[pos], (known, known_id)


_BEFORE = bytes(23) + b"\n"  # a block starts after a newline
# the low w bytes of a word, for a label of w = 0..8 bytes
_LOW_BYTES = np.array([(1 << 8 * w) - 1 for w in range(9)], dtype=np.uint64)
# row j: for an abs_disc of w = 0..18 digits, the low nibble of each of its digit bytes
# among the 8 bytes that end 8 * j bytes before its newline, read as a little-endian word
_DIGIT_NIBBLES = np.array(
    [[0x0F0F0F0F0F0F0F0F & -(1 << 8 * (8 - min(max(w - 8 * j, 0), 8))) for w in range(19)] for j in range(3)],
    dtype=np.uint64,
)
# 8 digits in a word, first digit in the low byte, become their value in three steps: each
# joins every pair of lanes of `bits` bits into one, low * 10**k + high, as x * (1 + 10**k
# << bits) >> bits, and masks off the rest
_JOIN_DIGITS = ((0x0A01, 8, 0x00FF00FF00FF00FF), (0x640001, 16, 0x0000FFFF0000FFFF), (0x271000000001, 32, 0xFFFFFFFF))


def _canonical_block(data: bytes) -> Optional[tuple[np.ndarray, np.ndarray, int]]:
    """The uint64 abs_disc and label key of each nonempty line of a block of lines that
    each end in a newline, and the number of the block's bytes that are not digits, less
    its separators; None if a line is not canonical: three comma-separated fields, a
    degree ``[1-9][0-9]*``, a label of 1 to 8 printable ASCII bytes (0x20-0x7E, no comma)
    with no space at either end, and an abs_disc ``[1-9][0-9]{0,17}``.  A label is keyed as
    the uint64 whose big-endian bytes it is, which no two labels share, since no label
    byte is 0.

    The checks are split: here, the separators (two commas and a newline to each nonempty
    line), the field widths, and no empty degree and no leading zero; in ``_label_ids``,
    each label once; and in ``_canonical_census``, the non-digit bytes: those returned
    here must be the labels' own, once per line, so every degree and abs_disc is digits."""
    n = len(data)
    padded = b"".join((_BEFORE, data, bytes(8)))  # windows read up to 24 bytes before a byte, 8 after
    buf = np.frombuffer(padded, dtype=np.uint8, count=n, offset=24)
    after = np.frombuffer(padded, dtype=np.uint8, offset=25)  # after[p] is the byte after buf[p]
    sep = np.flatnonzero((buf == 0x0A) | (buf == 0x2C))
    kinds = buf[sep]
    if _triples(kinds):
        newlines = sep[2::3]
    else:  # an empty line is a newline right after a newline (the block starts after one)
        newline = kinds == 0x0A
        newlines = sep[newline]
        nonempty = ~newline | (np.frombuffer(padded, dtype=np.uint8, offset=23)[sep] != 0x0A)
        sep, kinds = sep[nonempty], kinds[nonempty]
        if not _triples(kinds):
            return None
    first, second, ends = sep[0::3], sep[1::3], sep[2::3]
    # every line begins with a degree that is neither empty nor 0-led, and no abs_disc is 0-led
    lead = after[newlines]
    if data[:1] in (b"0", b",") or (lead == 0x30).any() or (lead == 0x2C).any() or (after[second] == 0x30).any():
        return None
    other = np.count_nonzero((buf - 0x30) > 9) - newlines.size - 2 * ends.size
    if not ends.size:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64), other
    width, disc_width = second - first - 1, ends - second - 1
    if width.min() < 1 or width.max() > 8 or disc_width.min() < 1 or disc_width.max() > 18:
        return None
    keys = _windows(padded, 8)[second].view(">u8") & _LOW_BYTES[width]
    # the abs_disc ends each line: one read of the 8, 16 or 24 bytes before each newline,
    # each word's digit nibbles kept, then joined
    words = (int(disc_width.max()) + 7) // 8
    digits = _windows(padded, 8 * words)[ends].view("<u8").reshape(-1, words)
    for k in range(words):
        digits[:, k] &= _DIGIT_NIBBLES[words - 1 - k][disc_width]
    for multiplier, bits, mask in _JOIN_DIGITS:
        digits *= multiplier
        digits >>= bits
        digits &= mask
    value = digits[:, 0]
    for k in range(1, words):
        value = value * 10**8 + digits[:, k]
    return value, keys, other


def _triples(kinds: np.ndarray) -> bool:
    """Whether a block's separators (each a comma or a newline) are two commas and a
    newline, again and again: every third is a newline, and no other is."""
    newlines = np.count_nonzero(kinds == 0x0A)
    return kinds.size == 3 * newlines and bool((kinds[2::3] == 0x0A).all())


def _windows(padded: bytes, size: int) -> np.ndarray:
    """Item p is the ``size`` <= 24 bytes before byte p of a block padded as in
    ``_canonical_block``, for p up to the block's length, as one opaque item, so that a
    fancy index reads every window it asks for in one gather."""
    return np.ndarray(len(padded) - 31, dtype=f"V{size}", buffer=padded, offset=24 - size, strides=(1,))


def _census_rows(text: str) -> Iterator[tuple[int, str, int]]:
    """(degree, label, abs_disc) for each record of ``text``, in file order, from one pass
    over its lines, split at "\\n": the per-line reader, which reads every census that
    ``_canonical_census`` declines and which ``read_census_records`` uses.  It reads a
    canonical line to the same values as the array pass.

    Each line after the header passes these checks in order, the first failure raising
    CensusFormatError with its line number: blank (skipped), three fields,
    integer degree and abs_disc, degree >= 1, abs_disc >= 1, nonempty label.
    Fields are ``str.strip()``-ed first.
    """
    lines = text.split("\n")
    if lines[0].strip() != CENSUS_HEADER:
        raise CensusFormatError(f"line 1: header must be {CENSUS_HEADER!r}")
    for number, line in enumerate(islice(lines, 1, None), start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise CensusFormatError(f"line {number}: expected 3 comma-separated fields")
        degree_text, label, disc_text = parts
        try:
            # int() alone strips less: not the separators \x1c-\x1f
            degree = int(degree_text.strip())
            abs_disc = int(disc_text.strip())
        except ValueError:
            raise CensusFormatError(f"line {number}: non-integer field") from None
        if degree < 1:
            raise CensusFormatError(f"line {number}: degree must be positive")
        if abs_disc < 1:
            raise CensusFormatError(f"line {number}: abs_disc must be at least 1")
        label = label.strip()
        if not label:
            raise CensusFormatError(f"line {number}: empty group label")
        yield degree, label, abs_disc


def _ascending(grid: Sequence[int]) -> list[int]:
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    if grid != sorted(grid):
        raise ValueError("grid must be sorted ascending")
    return grid
