"""Finitely generated permutation groups, enumerated breadth-first into one cached image array."""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .perms import Perm

DEFAULT_CAP = 10**6
_IND_CHUNK = 1 << 16  # array entries per block of the vectorised ind


class EnumerationCapError(RuntimeError):
    """Group closure exceeded the element cap; the group is too large for exhaustive methods."""


def row_keys(rows: np.ndarray) -> list[bytes]:
    """The raw bytes of each row of a 2-D image array: the one hashable lookup key for elements."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel().tolist()


def cycle_inds(images: np.ndarray) -> np.ndarray:
    """Read-only ind = n - (number of cycles) of each row of an (rows, n) image array."""
    rows, n = images.shape
    identity = np.arange(n, dtype=images.dtype)
    out = np.empty(rows, dtype=images.dtype)
    step = max(1, _IND_CHUNK // n)
    for start in range(0, rows, step):
        block = images[start : start + step]
        # Pointer doubling on flat indices: after r rounds low[i] is the least
        # of the first 2^r points of i's cycle, so once 2^r >= n it is the
        # cycle minimum, and each cycle has exactly one point equal to its minimum.
        succ = block + (np.arange(len(block), dtype=np.intp) * n)[:, None]
        low = np.broadcast_to(identity, block.shape)
        reach = 1
        while reach < n:
            low = np.minimum(low, low.ravel()[succ])
            succ = succ.ravel()[succ]
            reach *= 2
        out[start : start + len(block)] = n - np.count_nonzero(low == identity, axis=1)
    out.flags.writeable = False
    return out


def a_value(inds: np.ndarray) -> Fraction:
    """Reciprocal of the least ind past row 0 (the identity); 0 when there is no other row."""
    return Fraction(1, int(inds[1:].min())) if len(inds) > 1 else Fraction(0)


class PermGroup:
    """A permutation group given by degree and generators.

    Elements are enumerated breadth-first by word length in the generators
    (within a level, by parent order then generator index), starting from the
    identity.  The enumeration is cached as one read-only (order, degree)
    image array; row k holds the images of the k-th element, so memory is
    about order * degree bytes for degree <= 256.  Cache fills are guarded by
    a lock so concurrent readers see a single fill.
    """

    def __init__(self, degree: int, generators: Sequence[Perm], cap: int = DEFAULT_CAP):
        if degree < 1:
            raise ValueError("degree must be positive")
        generators = tuple(generators)
        if not generators:
            raise ValueError("generator list must be nonempty")
        for g in generators:
            if not isinstance(g, Perm):
                raise TypeError("generators must be Perm instances")
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
        if cap < 1:
            raise ValueError("cap must be positive")
        self.degree = degree
        self.generators = generators
        self.cap = cap
        self._images: Optional[np.ndarray] = None
        self._inds: Optional[np.ndarray] = None
        self._positions: Optional[dict[bytes, int]] = None
        self._elements: Optional[tuple[Perm, ...]] = None
        self._lock = threading.RLock()

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"PermGroup(degree={self.degree}, generators=[{gens}])"

    def _cached(self, name: str, build: Callable[[], object]):
        if getattr(self, name) is None:
            with self._lock:
                if getattr(self, name) is None:
                    setattr(self, name, build())
        return getattr(self, name)

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def image_array(self) -> np.ndarray:
        """Read-only (order, degree) array of element images in breadth-first order (cached)."""
        return self._cached("_images", self._enumerate)

    def elements(self) -> tuple[Perm, ...]:
        """Full element list in deterministic breadth-first order (cached)."""
        return self._cached("_elements", lambda: tuple(Perm(row) for row in self.image_array().tolist()))

    def _enumerate(self) -> np.ndarray:
        n = self.degree
        dtype = np.min_scalar_type(n - 1)  # uint8 up to 256 points, then uint16, then uint32
        gens = np.array([g.images for g in self.generators], dtype=dtype)
        identity = np.arange(n, dtype=dtype)
        levels = [identity[None, :]]
        seen = set(row_keys(levels[0]))
        frontier = levels[0]
        while len(frontier):
            # (e * g)(i) = e(g(i)); row f * len(gens) + j is frontier[f] * gens[j]
            products = frontier[:, gens].reshape(-1, n)
            fresh = []
            for i, key in enumerate(row_keys(products)):
                if key not in seen:
                    seen.add(key)
                    fresh.append(i)
                    if len(seen) > self.cap:
                        raise EnumerationCapError(f"group order exceeds cap {self.cap}")
            frontier = products[fresh]
            levels.append(frontier)
        images = np.concatenate(levels)
        images.flags.writeable = False
        return images

    def index(self, rows) -> np.ndarray:
        """Enumeration position of each row of a (k, degree) image array; -1 for a row outside the group."""
        positions = self._cached("_positions", lambda: {key: i for i, key in enumerate(row_keys(self.image_array()))})
        rows = np.asarray(rows, dtype=self.image_array().dtype)
        return np.array([positions.get(key, -1) for key in row_keys(rows)], dtype=np.intp)

    def word(self, k: int) -> tuple[int, ...]:
        """Generator indices, applied left to right from the identity, that reach the k-th element.

        The word follows the BFS tree: an element's parent is the in-neighbour x * g_j^-1 with
        the smallest (position, j), the element whose j-th successor first reached it.
        """
        images = self.image_array()
        # argsort inverts each generator's image row, and x[inverse] is x * g_j^-1
        inverses = np.argsort([g.images for g in self.generators], axis=1)
        word = []
        while k:
            k, j = min((int(position), j) for j, position in enumerate(self.index(images[k][inverses])))
            word.append(j)
        return tuple(reversed(word))

    def order(self) -> int:
        return len(self.image_array())

    def inds(self) -> np.ndarray:
        """``cycle_inds`` of every element, in enumeration order (cached)."""
        return self._cached("_inds", lambda: cycle_inds(self.image_array()))

    def is_transitive(self) -> bool:
        """True iff the generators move point 0 to every point (orbit BFS, no full enumeration)."""
        reached = [False] * self.degree
        reached[0] = True
        stack = [0]
        count = 1
        while stack:
            p = stack.pop()
            for g in self.generators:
                q = g(p)
                if not reached[q]:
                    reached[q] = True
                    count += 1
                    stack.append(q)
        return count == self.degree

    def min_index_witness(self) -> tuple[Perm, int]:
        """First element (in enumeration order) attaining the minimal index, with that index."""
        inds = self.inds()
        if len(inds) == 1:
            raise ValueError("trivial group has no nonidentity element")
        k = 1 + int(np.argmin(inds[1:]))
        return Perm(self.image_array()[k].tolist()), int(inds[k])

    def a_invariant(self) -> Fraction:
        """Reciprocal of the minimal index over nonidentity elements; 0 for the trivial group."""
        return a_value(self.inds())
