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

from .sieves import _BLOCK, introot, is_prime, mobius, prime_array, squarefree_sieve


class CensusFormatError(ValueError):
    """A census violates the ``degree,group,abs_disc`` format."""


# ---------------------------------------------------------------------------
# quadratic fields


_IntOrArray = Union[int, np.ndarray]  # an exact int, or int64 values elementwise


def _discriminant(s: _IntOrArray) -> _IntOrArray:
    """Discriminant of Q(sqrt(s)) for squarefree s != 1: s if s = 1 (mod 4), else 4s.

    Elementwise on an int64 array; an int gives an int.
    """
    return s * (4 - 3 * (s % 4 == 1))


def fundamental_discriminants(x: int) -> np.ndarray:
    """All fundamental discriminants d != 1 with |d| <= x, as an int64 array sorted by (|d|, sign).

    These are the discriminants of Q(sqrt(s)) for the squarefree s = +-m != 1.
    """
    m = np.flatnonzero(squarefree_sieve(max(x, 1)))
    d = _discriminant(np.stack([m, -m], axis=1).ravel()[1:])  # [1:] drops s = +1
    d = d[np.abs(d) <= x]
    return d[np.lexsort((d, np.abs(d)))]


def count_quadratic(x: int) -> int:
    """Number of quadratic fields with |disc| <= x, in O(sqrt(x)) time and memory.

    By ``_discriminant``, each odd squarefree n gives one field with |d| = n
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
    fields of each, as int64 arrays read from one table of h(f) = (ell-1)**t
    (see ``cyclic_conductors``), with h(1) = 1 and h = 0 off the admissible f.

    h is multiplicative, so the table is built one admissible prime power q at a
    time: before q joins, h vanishes on every multiple of q, so
    h[q*m] = (ell-1) * h[m] fills them all.  Each q <= sqrt(fmax) is one slice.
    The q > sqrt(fmax) go in one scatter over the admissible m <= fmax // q: such
    m < sqrt(fmax) < q, so h[m] is already final, and no target q*m has two
    factors above sqrt(fmax), so no two q reach the same one.  h(f) < f, so
    int64 is exact.
    """
    if ell % 2 == 0 or not is_prime(ell):
        raise ValueError(f"ell must be an odd prime, got {ell}")
    if fmax < 2 * ell + 1:  # no admissible q below 2*ell + 1; this also keeps a huge ell out of int64
        none = np.zeros(0, dtype=np.int64)
        return none, none
    h = np.zeros(fmax + 1, dtype=np.int64)
    h[1] = 1
    primes = prime_array(fmax)
    q = primes[primes % ell == 1]
    if ell * ell <= fmax:
        q = np.sort(np.append(q, ell * ell))
    split = np.searchsorted(q, math.isqrt(fmax), side="right")
    for small in q[:split].tolist():
        h[small::small] = (ell - 1) * h[1 : fmax // small + 1]
    big = q[split:]
    if big.size:
        admissible = np.flatnonzero(h[: fmax // big[0] + 1])
        per_q = np.searchsorted(admissible, fmax // big, side="right")
        # for each q, the prefix of ``admissible`` up to fmax // q, laid end to end
        m = admissible[np.arange(per_q.sum()) - np.repeat(np.cumsum(per_q) - per_q, per_q)]
        h[np.repeat(big, per_q) * m] = (ell - 1) * h[m]
    conductors = np.flatnonzero(h[2:]) + 2
    return conductors, h[conductors] // (ell - 1)


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


def _kernel(d: _IntOrArray) -> _IntOrArray:
    """Signed squarefree kernel of a fundamental discriminant: d if d = 1 (mod 4),
    else d / 4.  Elementwise on an int64 array; an int gives an int."""
    return d // (4 - 3 * (d % 4 == 1))


def compose_discriminants(d1: _IntOrArray, d2: _IntOrArray) -> _IntOrArray:
    """Fundamental discriminant of the third quadratic subfield determined by d1, d2.

    Computed on squarefree kernels, where dividing by the squared gcd is exact.
    Either argument may be an int64 array (elementwise, with values up to
    4 * |d1 * d2|); two ints give an exact int.
    """
    s1, s2 = _kernel(d1), _kernel(d2)
    if isinstance(s1, np.ndarray) or isinstance(s2, np.ndarray):
        g = np.gcd(s1, s2)
    else:
        g = math.gcd(s1, s2)
    return _discriminant((s1 // g) * (s2 // g))


def biquadratic_discs(xmax: int) -> np.ndarray:
    """|disc| values of the biquadratic fields with |disc| <= xmax, as a sorted int64 array.

    Each field corresponds to one unordered triple of distinct fundamental
    discriminants closed under composition; |disc| is the product of their
    absolute values.  Triples are enumerated once via their two members of
    smallest (|d|, sign): one int64 array pass per smallest member d1 with
    |d1|^3 <= xmax (about xmax^(1/3) Python steps) over every d2 after it with
    |d1| * |d2|^2 <= xmax.  The bound on |d3| is checked before the product is
    formed, so no value exceeds max(xmax, 4 * xmax^(2/3)), and xmax above
    2**63 - 1 raises ValueError before anything is sieved.
    """
    if xmax < 144:  # smallest triple is {-3, -4, 12}
        return np.zeros(0, dtype=np.int64)
    if xmax > 2**63 - 1:
        raise ValueError(f"biquadratic counts need |disc| <= 2**63 - 1, got {xmax}")
    discs = fundamental_discriminants(math.isqrt(xmax // 3))
    sizes = np.abs(discs)
    found = []
    for i, (d1, a1) in enumerate(zip(discs.tolist(), sizes.tolist())):
        if a1 * a1 * a1 > xmax:
            break
        end = np.searchsorted(sizes, math.isqrt(xmax // a1), side="right")
        d2, a2 = discs[i + 1 : end], sizes[i + 1 : end]
        d3 = compose_discriminants(d1, d2)
        a3 = np.abs(d3)
        # keep a triple only from its two smallest members, and only if |disc| <= xmax
        keep = ((a3 > a2) | ((a3 == a2) & (d3 > d2))) & (a3 <= xmax // (a1 * a2))
        found.append(a1 * a2[keep] * a3[keep])
    return np.sort(np.concatenate(found))


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
    newline, so memory is the text plus one block besides the arrays; None unless
    the first line is exactly CENSUS_HEADER and every later line is canonical:
    empty, or three comma-separated fields, a degree ``[1-9][0-9]*``, a label of
    printable ASCII (0x20-0x7E, no comma) with no space at either end, and an
    abs_disc ``[1-9][0-9]{0,17}``.  ``_census_discs`` reads each canonical line to
    the same values."""
    if text != CENSUS_HEADER and not text.startswith(CENSUS_HEADER + "\n"):
        return None
    parts: dict[str, list[np.ndarray]] = {}
    start = len(CENSUS_HEADER) + 1
    while start < len(text):
        cut = text.find("\n", start + _BLOCK) + 1 or len(text)
        try:
            block = text[start:cut].encode("ascii")
        except UnicodeEncodeError:
            return None
        groups = _canonical_block(block if block.endswith(b"\n") else block + b"\n")
        if groups is None:
            return None
        for label, discs in groups:
            parts.setdefault(label, []).append(discs)
        start = cut
    return {label: np.sort(np.concatenate(parts.pop(label))) for label in list(parts)}


def _canonical_block(data: bytes) -> Optional[list[tuple[str, np.ndarray]]]:
    """(label, abs_disc values) for each label of a block of lines that each end in
    a newline, labels in order of first appearance; None if a line is not canonical."""
    buf = np.frombuffer(data, dtype=np.uint8)
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
        return []
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
    # labels as fixed-width S{w} keys, one width at a time, so no label is padded
    label_start, label_width = first + 1, second - first - 1
    by_width = np.argsort(label_width, kind="stable")
    groups = []
    for lines in np.split(by_width, np.flatnonzero(np.diff(label_width[by_width])) + 1):
        w = int(label_width[lines[0]])
        keys = buf[label_start[lines, None] + np.arange(w)].view(f"S{w}").ravel()
        labels, first_line, inverse = np.unique(keys, return_index=True, return_inverse=True)
        members = np.split(lines[np.argsort(inverse, kind="stable")], np.cumsum(np.bincount(inverse))[:-1])
        groups += zip(lines[first_line].tolist(), labels.tolist(), members)
    groups.sort(key=lambda group: group[0])
    return [(label.decode("ascii"), value[m]) for _, label, m in groups]


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
