"""Exact counts of number fields over Q by absolute discriminant: quadratic (a
closed form in O(sqrt(x)) time and memory), cyclic of odd prime degree via
conductors, biquadratic, and ingested census data."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence, Union

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
    grid = list(grid)
    _require_ascending(grid)
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
    conductor arrays that ``cyclic_tally`` reads directly.
    """
    conductors, counts = _conductor_arrays(ell, fmax)
    return dict(zip(conductors.tolist(), counts.tolist()))


def count_cyclic_ell(ell: int, x: int) -> int:
    """Number of cyclic degree-ell fields with disc = f**(ell-1) <= x."""
    return cyclic_tally(ell, x).total()


def cyclic_tally(ell: int, xmax: int) -> "DiscriminantTally":
    """Tally of cyclic degree-ell discriminants up to xmax, read from the conductor
    table over f <= xmax**(1/(ell-1)) with array operations: the discriminants
    f**(ell-1) <= xmax are one int64 power below 2**63 and exact Python ints in a
    ``dtype=object`` array from there (an int64 power would wrap), each repeated
    once per field of its conductor."""
    conductors, counts = _conductor_arrays(ell, introot(max(xmax, 1), ell - 1))
    if xmax >= 2**63:
        conductors = conductors.astype(object)
    discs = conductors ** (ell - 1) if conductors.size else conductors  # with no conductor, ell may pass int64
    return DiscriminantTally(f"C{ell}", np.repeat(discs, counts))


# ---------------------------------------------------------------------------
# biquadratic fields


def biquadratic_discs(xmax: int) -> np.ndarray:
    """|disc| values of the biquadratic fields with |disc| <= xmax, as a sorted int64 array.

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
    0 elsewhere, and each m <= sqrt(xmax / f) contributes its fields.  No value
    exceeds xmax, and xmax above 2**63 - 1 raises ValueError before anything is sieved.
    """
    if xmax < 144:  # the smallest field is Q(sqrt(-3), i), |disc| = 3^2 * 16
        return np.zeros(0, dtype=np.int64)
    if xmax > 2**63 - 1:
        raise ValueError(f"biquadratic counts need |disc| <= 2**63 - 1, got {xmax}")
    r = math.isqrt(xmax)
    h = squarefree_power(prime_array(r)[1:], 3, r)
    m = np.flatnonzero(h)  # the odd squarefree m, ascending
    t = h[m].astype(np.int64)  # 3^s
    found = []
    for f, fields in ((1, np.maximum(t - 3, 0) // 6), (16, (t - 1) // 2), (64, t - 1), (256, t)):
        end = np.searchsorted(m, math.isqrt(xmax // f), side="right")
        found.append(np.repeat(m[:end] * m[:end] * f, fields[:end]))
    discs = np.concatenate(found)
    discs.sort()  # in place: no third copy of every |disc|
    return discs


def count_biquadratic(x: int) -> int:
    """Number of biquadratic (Klein four-group) fields with |disc| <= x."""
    return len(biquadratic_discs(x))


def biquadratic_tally(xmax: int) -> "DiscriminantTally":
    return DiscriminantTally("C2xC2", biquadratic_discs(xmax))


# ---------------------------------------------------------------------------
# tallies and census ingestion


def _exact_array(values: Sequence[int]) -> np.ndarray:
    """``values`` as an int64 array when every one fits, else as a ``dtype=object``
    array of the Python ints themselves, so no value ever wraps."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class DiscriminantTally:
    """The |disc| of every field of one group label, ascending with repeats kept, as one
    array: int64 when every value fits, ``dtype=object`` (exact Python ints) past 2**63."""

    __slots__ = ("label", "_discs")

    def __init__(self, label: str, discs: Union[np.ndarray, Sequence[int]]):
        """From an array or a list of ints; a value below 1 or a descending pair raises ValueError."""
        discs = discs if isinstance(discs, np.ndarray) else _exact_array(discs)
        if np.any(discs[:1] < 1) or np.any(discs[1:] < discs[:-1]):
            raise ValueError("abs_disc values must be positive and ascending")
        self.label = label
        self._discs = discs

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """(|disc|, multiplicity) pairs, ascending in |disc|, as Python ints."""
        values, counts = np.unique(self._discs, return_counts=True)
        return tuple(zip(values.tolist(), counts.tolist()))

    def largest_disc(self) -> int:
        """The largest |disc| in the tally, which must not be empty."""
        return int(self._discs[-1])

    def total(self) -> int:
        return self._discs.size

    def count_up_to(self, x: int) -> int:
        """Z(x): number of fields with |disc| <= x."""
        return self._counts_up_to([x])[0]

    def _counts_up_to(self, xs: list[int]) -> list[int]:
        """Z(x) for each x of an ascending list, as Python ints, from one searchsorted.
        Against int64 |disc| values, all in 1..2**63 - 1, an x below 0 counts no
        field and an x from 2**63 counts all, so only the x between become int64."""
        lo, hi = 0, len(xs)
        if self._discs.dtype != object:
            lo, hi = bisect.bisect_left(xs, 0), bisect.bisect_left(xs, 2**63)
        at = np.searchsorted(self._discs, np.array(xs[lo:hi], dtype=self._discs.dtype), side="right")
        return [0] * lo + at.tolist() + [self.total()] * (len(xs) - hi)

    def __repr__(self) -> str:
        return f"DiscriminantTally({self.label!r}, Z={self.total()})"


def tally_samples(tally: DiscriminantTally, grid: Sequence[int]) -> list[tuple[int, int]]:
    """(x, Z(x)) pairs on an ascending grid."""
    grid = list(grid)
    _require_ascending(grid)
    return list(zip(grid, tally._counts_up_to(grid)))


CENSUS_HEADER = "degree,group,abs_disc"


@dataclass(frozen=True)
class CensusRecord:
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
    records: list[CensusRecord] = []
    _census_discs(text, records)
    return records


def ingest_census(text: str) -> dict[str, DiscriminantTally]:
    """Read a census of fields (one per line) from a file's text and group it into
    tallies by label.

    Each record is one field, so a repeated (label, abs_disc) is kept.  Lines end at
    "\\n" only, as in a file read in text mode.  Canonical lines (see
    ``_canonical_census``) are read by one array pass over blocks of the text, and any
    other text by the per-line reader ``_census_discs``, with identical results; the
    per-line reader alone raises CensusFormatError.  Each tally holds an int64 array,
    or a ``dtype=object`` array once a |disc| passes 2**63.
    """
    grouped = _canonical_census(text)
    if grouped is None:
        per_line = _census_discs(text)
        grouped = {label: np.sort(_exact_array(discs)) for label, discs in per_line.items()}
    return {label: DiscriminantTally(label, discs) for label, discs in grouped.items()}


def _canonical_census(text: str) -> Optional[dict[str, np.ndarray]]:
    """Sorted int64 abs_disc arrays by group label, in order of first appearance,
    read a block of about ``_BLOCK`` characters at a time, each block cut after a
    newline; None unless the first line is exactly CENSUS_HEADER and every later
    line is canonical: empty, or three comma-separated fields, a degree
    ``[1-9][0-9]*``, a label of printable ASCII (0x20-0x7E, no comma) with no space
    at either end, and an abs_disc ``[1-9][0-9]{0,17}``.  ``_census_discs`` reads
    each canonical line to the same values.

    Each block gives only its lines' values and label ids, and the lines are grouped
    by label once, after the last block, so memory is the text, one block, and an
    int64 value and an id for each line."""
    if text != CENSUS_HEADER and not text.startswith(CENSUS_HEADER + "\n"):
        return None
    start = len(CENSUS_HEADER) + 1
    rows = text.count("\n", start) + 1  # at least the number of lines
    value, ident = np.empty(rows, dtype=np.int64), np.empty(rows, dtype=np.min_scalar_type(rows))
    vocabularies: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}
    names: list[str] = []  # by id
    first_line: list[int] = []  # by id
    line = 0
    while start < len(text):
        cut = text.find("\n", start + _BLOCK) + 1 or len(text)
        try:
            block = text[start:cut].encode("ascii")
        except UnicodeEncodeError:
            return None
        parsed = _canonical_block(block if block.endswith(b"\n") else block + b"\n")
        if parsed is None:
            return None
        discs, keyed = parsed
        value[line : line + discs.size] = discs
        for keys, lines in keyed:
            ident[line + lines] = _label_ids(keys, line + lines, vocabularies, names, first_line)
        line += discs.size
        start = cut
    if not line:
        return {}
    value, ident = value[:line], ident[:line]
    shift = 63 - (len(names) - 1).bit_length()  # the bits below the ids
    heads = np.arange(1, len(names), dtype=np.int64)  # the id that starts each tally after the first
    if int(value.max()) >> shift == 0:
        # each line's id above its abs_disc in one int64, so one sort in place groups the
        # labels and orders each; shifted a block at a time, so no full-length temporary
        for at in range(0, line, _BLOCK):
            value[at : at + _BLOCK] |= ident[at : at + _BLOCK].astype(np.int64) << shift
        value.sort()
        bounds = np.searchsorted(value, heads << shift)
        value &= (1 << shift) - 1
    else:
        order = np.lexsort((value, ident))
        value, bounds = value[order], np.searchsorted(ident[order], heads)
    tallies = np.split(value, bounds)
    return {names[i]: tallies[i] for i in sorted(range(len(names)), key=first_line.__getitem__)}


def _label_ids(
    keys: np.ndarray,
    lines: np.ndarray,
    vocabularies: dict[np.dtype, tuple[np.ndarray, np.ndarray]],
    names: list[str],
    first_line: list[int],
) -> np.ndarray:
    """The ids of ``keys``, label keys of one dtype read at ``lines``.  ``vocabularies``
    maps each key dtype to its known keys, ascending, and their ids; a key not yet
    known takes the next id, and its label and line join ``names`` and ``first_line``."""
    known, known_id = vocabularies.get(keys.dtype, (keys[:0], np.zeros(0, dtype=np.intp)))
    pos = np.searchsorted(known, keys)
    new = known[np.minimum(pos, known.size - 1)] != keys if known.size else np.ones(keys.size, dtype=bool)
    if new.any():
        fresh, first = np.unique(keys[new], return_index=True)
        for key, at in zip(fresh.tolist(), lines[new][first].tolist()):
            label = key.to_bytes(8, "big").lstrip(b"\0") if isinstance(key, int) else key
            names.append(label.decode("ascii"))
            first_line.append(at)
        known = np.concatenate([known, fresh])
        known_id = np.concatenate([known_id, np.arange(len(names) - fresh.size, len(names))])
        order = np.argsort(known)
        known, known_id = vocabularies[keys.dtype] = known[order], known_id[order]
        pos = np.searchsorted(known, keys)
    return known_id[pos]


def _canonical_block(data: bytes) -> Optional[tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]]:
    """The abs_disc of each nonempty line of a block of lines that each end in a
    newline, and (label keys, line indices) for each kind of label key; None if a
    line is not canonical.  A label of at most 8 bytes is keyed as the uint64 whose
    big-endian bytes it is, which no two such labels share, since no label byte is
    0; a wider one as an ``S{w}`` string, one width at a time, so no label is padded."""
    padded = np.frombuffer(data + bytes(7), dtype=np.uint8)  # an 8-byte window from every position
    buf = padded[: len(data)]
    newline = buf == 0x0A
    if not np.all(newline | ((buf >= 0x20) & (buf <= 0x7E))):
        return None
    ends = np.flatnonzero(newline)
    starts = np.append(0, ends[:-1] + 1)
    starts, ends = starts[ends > starts], ends[ends > starts]  # empty lines are skipped
    commas = np.flatnonzero(buf == 0x2C)
    first, second = commas[0::2], commas[1::2]
    # 2 commas a line in all, and commas 2i and 2i + 1 inside line i: exactly two on each
    if commas.size != 2 * ends.size or not np.all((starts <= first) & (second < ends)):
        return None
    if not ends.size:
        return np.zeros(0, dtype=np.int64), []
    # whether each of [start, first), [first, second + 1), [second + 1, end) is all digits;
    # an empty field reads the comma or newline at its start instead, which is no digit
    edges = np.stack([starts, first, second + 1, ends], axis=1).ravel()
    digits = np.logical_and.reduceat((buf >= 0x30) & (buf <= 0x39), edges).reshape(-1, 4)
    width = ends - second - 1
    degree_ok = digits[:, 0] & (buf[starts] != 0x30)
    label_ok = (second > first + 1) & (buf[first + 1] != 0x20) & (buf[second - 1] != 0x20)
    disc_ok = digits[:, 2] & (width <= 18) & (buf[second + 1] != 0x30)
    if not np.all(degree_ok & label_ok & disc_ok):
        return None
    value = np.zeros(ends.size, dtype=np.int64)
    for k in range(int(width.max())):  # digit column k from the right; below 10**18, so int64 is exact
        has = width > k
        value[has] += (buf[ends[has] - 1 - k] - 0x30).astype(np.int64) * 10**k
    label_start, label_width = first + 1, second - first - 1
    fits = label_width <= 8
    narrow, wide = np.flatnonzero(fits), np.flatnonzero(~fits)
    words = np.lib.stride_tricks.sliding_window_view(padded, 8)[label_start[narrow]].view(">u8").ravel()
    keyed = [(words >> (8 * (8 - label_width[narrow])).astype(np.uint64), narrow)]
    if wide.size:
        by_width = wide[np.argsort(label_width[wide], kind="stable")]
        for lines in np.split(by_width, np.flatnonzero(np.diff(label_width[by_width])) + 1):
            w = int(label_width[lines[0]])
            keyed.append((buf[label_start[lines, None] + np.arange(w)].view(f"S{w}").ravel(), lines))
    return value, keyed


def _census_discs(text: str, records: Optional[list[CensusRecord]] = None) -> dict[str, list[int]]:
    """abs_disc values by group label, in file order, from one pass over the lines of
    ``text``, split at "\\n": the per-line reader, which reads every census that
    ``_canonical_census`` declines and which ``read_census_records`` uses.  It reads a
    canonical line to the same values as the array pass.

    Each line after the header passes these checks in order, the first failure raising
    CensusFormatError with its line number: blank (skipped), three fields,
    integer degree and abs_disc, degree >= 1, abs_disc >= 1, nonempty label.
    Fields are ``str.strip()``-ed first.  With ``records``, each line's CensusRecord
    is appended to it too.
    """
    lines = text.split("\n")
    if lines[0].strip() != CENSUS_HEADER:
        raise CensusFormatError(f"line 1: header must be {CENSUS_HEADER!r}")
    grouped: dict[str, list[int]] = {}
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
        if records is not None:
            records.append(CensusRecord(degree, label, abs_disc))
        grouped.setdefault(label, []).append(abs_disc)
    return grouped


def _require_ascending(grid: Sequence[int]) -> None:
    if not grid:
        raise ValueError("grid must be nonempty")
    for a, b in zip(grid, grid[1:]):
        if b < a:
            raise ValueError("grid must be sorted ascending")
