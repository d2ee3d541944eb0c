"""Finitely generated permutation groups: a Schreier-Sims stabilizer chain for order and
membership, and a breadth-first enumeration into one cached image array."""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import DEFAULT_CAP, EnumerationCapError
from .perms import Perm

_IND_CHUNK = 1 << 16  # array entries per block of the vectorised ind, sifts and spheres


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


def component_minima(succ: np.ndarray) -> np.ndarray:
    """The least point in each point's component of the graph on 0 .. m - 1 that joins x to row[x] for each row of
    the (k, m) array succ.  A union-find over whole arrays: roots hook onto the least root across an edge and pointer
    jumping flattens the trees, until each edge lies in one star; an m-cycle takes one round of O(log m) jumps."""
    k, m = succ.shape
    first, heads, tails = np.arange(m), succ.ravel().astype(np.intp), np.arange(k * m) % m
    while not np.array_equal(first[tails], first[heads]):
        low, high = np.sort([first[tails], first[heads]], axis=0)
        np.minimum.at(first, high, low)
        while not np.array_equal(first, first[first]):
            first = first[first]
    return first


def a_value(inds: np.ndarray) -> Fraction:
    """Reciprocal of the least ind past row 0 (the identity); 0 when there is no other row."""
    return Fraction(1, int(inds[1:].min())) if len(inds) > 1 else Fraction(0)


def sphere_size(n: int, j: int) -> int:
    """c(n, n - j), the unsigned Stirling number counting the permutations of n points with ind j."""
    sizes = [1] + [0] * j  # sizes[i] = c(m, m - i), starting from m = 1
    for m in range(2, n + 1):
        for i in range(j, 0, -1):
            sizes[i] += (m - 1) * sizes[i - 1]
    return sizes[j]


def next_sphere(sphere: np.ndarray) -> np.ndarray:
    """Every permutation of ind j + 1, each once, from the (rows, n) array of all those of ind j.

    A permutation of ind j + 1 is s * (a b) for exactly one s of ind j and one pair a < b:
    a is its least moved point and b the image of a, so b is fixed by s and a is at most
    the least point s moves.  Joining two cycles of s, the product never falls back into
    the ball of ind <= j.
    """
    rows, n = sphere.shape
    points = np.arange(n)
    pairs = points[:, None] < points[None, :]
    blocks = []
    step = max(1, _IND_CHUNK // (n * n))
    for start in range(0, rows, step):
        block = sphere[start : start + step]
        moved = block != points
        least = np.where(moved.any(axis=1), moved.argmax(axis=1), n - 1)
        allowed = pairs & ~moved[:, None, :] & (points[None, :, None] <= least[:, None, None])
        r, a, b = np.nonzero(allowed)
        out = block[r]
        k = np.arange(len(r))
        out[k, a] = b
        out[k, b] = block[r, a]
        blocks.append(out)
    return np.concatenate(blocks) if blocks else sphere[:0]


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators that fix the
    earlier base points, the base point's orbit under them with its Schreier tree, and,
    built on first use, one inverse transversal row per orbit point (row where[p] is u^-1
    for a word u in the generators with u(base) = p).
    """

    def __init__(self, base: int, gens: np.ndarray):
        k, n = gens.shape
        self.base, self.gens = base, gens
        # the orbit in breadth-first order, by point then generator, over plain lists
        where, orbit, parent, via, depth = [-1] * n, [base], [0], [0], [0]
        where[base] = 0
        images = gens.T.tolist()
        for i, p in enumerate(orbit):
            for j, q in enumerate(images[p]):
                if where[q] < 0:
                    where[q] = len(orbit)
                    orbit.append(q)
                    parent.append(i)
                    via.append(j)
                    depth.append(depth[i] + 1)
        self.where, self.orbit = np.array(where, dtype=np.intp), np.array(orbit, dtype=np.intp)
        self._parent, self._via = np.array(parent, dtype=np.intp), np.array(via, dtype=np.intp)
        self._depth = depth
        # the (point, generator) pairs that define a transversal element give the identity
        self.schreier_pairs = np.ones(len(orbit) * k, dtype=bool)
        self.schreier_pairs[self._parent[1:] * k + self._via[1:]] = False

    @functools.cached_property
    def inverses(self) -> np.ndarray:
        """The inverse transversal rows; u = g * u_parent, so u^-1 = u_parent^-1 * g^-1,
        gathered one depth of the Schreier tree at a time."""
        n = self.gens.shape[1]
        parent, via, depth = self._parent, self._via, self._depth
        gen_inverses = np.argsort(self.gens, axis=1)
        inverses = np.empty((len(self.orbit), n), dtype=self.gens.dtype)
        inverses[0] = np.arange(n)
        flat = inverses.ravel()
        bounds = np.searchsorted(depth, np.arange(1, depth[-1] + 2))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            inverses[lo:hi] = flat[gen_inverses[via[lo:hi]] + (parent[lo:hi] * n)[:, None]]
        return inverses

    def schreier_blocks(self) -> Iterator[np.ndarray]:
        """The Schreier generators u_{s(p)}^-1 * s * u_p of the point stabilizer, less those
        that are the identity, in bounded blocks."""
        k, n = self.gens.shape
        step = max(1, _IND_CHUNK // (k * n))
        for start in range(0, len(self.orbit), step):
            p, g = np.divmod(start * k + np.flatnonzero(self.schreier_pairs[start * k : (start + step) * k]), k)
            targets = self.where[self.gens[g, self.orbit[p]]]
            # y(u_p^-1(z)) = u_{s(p)}^-1(s(z)), written without forming u_p
            image = self.inverses.ravel()[(targets * n)[:, None] + self.gens[g]]
            keep = (image != self.inverses[p]).any(axis=1)  # y is the identity where image is u_p^-1
            p, image = p[keep], image[keep]
            y = np.empty_like(image)
            y.ravel()[(self.inverses[p] + (np.arange(len(p)) * n)[:, None]).ravel()] = image.ravel()
            yield y


def _sift(chain: list[_Level], rows: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Strip each row through chain[start:]: the residues, and the level where each stopped
    because its base image left the orbit (len(chain) for a row that passed every level)."""
    rows = rows.copy()
    stop = np.full(len(rows), len(chain))
    alive = np.arange(len(rows))
    for depth in range(start, len(chain)):
        level = chain[depth]
        pos = level.where[rows[alive, level.base]]
        stop[alive[pos < 0]] = depth
        alive, pos = alive[pos >= 0], pos[pos >= 0]
        rows[alive] = level.inverses.ravel()[(pos * rows.shape[1])[:, None] + rows[alive]]
    return rows, stop


def _ranks(chain: list[_Level], rows: np.ndarray) -> np.ndarray:
    """Each row's orbit positions along the sift as one mixed-radix number, a bijection from the
    group onto 0 .. |G| - 1; -1 where the sift leaves an orbit.  Only base-point images are
    sifted, so a row outside the group that agrees with an element on the base gets its rank."""
    step = _IND_CHUNK // max(len(chain), 1)
    if len(rows) > step:
        return np.concatenate([_ranks(chain, rows[start : start + step]) for start in range(0, len(rows), step)])
    images = rows[:, [level.base for level in chain]].T.astype(np.intp)  # row d: the images of base point d
    ranks = np.zeros(len(rows), dtype=np.intp)
    for depth, level in enumerate(chain):
        pos = level.where[images[depth]]
        ranks = np.where((ranks < 0) | (pos < 0), -1, ranks * len(level.orbit) + pos)
        images[depth + 1 :] = level.inverses.ravel()[images[depth + 1 :] + pos * rows.shape[1]]
    return ranks


def _schreier_sims(gens: np.ndarray, cap: Optional[int] = None) -> list[_Level]:
    """Deterministic Schreier-Sims: a base and strong generating set for the group the rows generate.

    Levels are completed from the deepest up.  Each Schreier generator of a level is sifted
    through the levels below it; the first nonidentity residue joins every level down to
    the one where it stopped (a new level when it passed them all), and the work resumes there.
    Each level's orbit lies inside its basic orbit, so the product of the orbit lengths is a
    lower bound on |G|.  With a cap, EnumerationCapError is raised once that bound passes it,
    checked when the first levels exist and after every join, before the new levels build
    any inverse transversal row.
    """

    def check(chain: list[_Level]) -> None:
        if cap is not None and math.prod(len(level.orbit) for level in chain) > cap:
            raise EnumerationCapError(f"group order exceeds cap {cap}")

    identity = np.arange(gens.shape[1], dtype=gens.dtype)
    gens = gens[(gens != identity).any(axis=1)]
    base: list[int] = []
    for g in gens:
        if (g[base] == base).all():
            base.append(int(np.argmax(g != identity)))
    chain = [_Level(b, gens[(gens[:, base[:depth]] == base[:depth]).all(axis=1)]) for depth, b in enumerate(base)]
    check(chain)
    depth = len(chain) - 1
    while depth >= 0:
        for block in chain[depth].schreier_blocks():
            residues, stop = _sift(chain, block, depth + 1)
            moved = (residues != identity).any(axis=1)
            if moved.any():
                first = int(np.argmax(moved))
                h, end = residues[first], int(stop[first])
                break
        else:
            depth -= 1
            continue
        new = end == len(chain)
        if new:
            chain.append(_Level(int(np.argmax(h != identity)), h[None, :]))
        for lower in range(depth + 1, end + 1 - new):
            chain[lower] = _Level(chain[lower].base, np.vstack([chain[lower].gens, h]))
        check(chain)
        depth = end
    return chain


class PermGroup:
    """A permutation group given by degree and generators.

    The order comes from a Schreier-Sims stabilizer chain (built on first use and
    cached), so ``order()`` and ``contains(rows)`` never enumerate, and a group whose
    order exceeds the cap is refused before any enumeration starts.

    Elements are enumerated breadth-first by word length in the generators
    (within a level, by parent order then generator index), starting from the
    identity.  An element's one key is its rank in the chain.  The enumeration is
    cached as one read-only (order, degree) image array (row k is the k-th element)
    and an intp array from rank to row, about order * (degree + 8) bytes for degree
    <= 256.  Cache fills are guarded by a lock so concurrent readers see one fill.
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
        # the generators as a (k, degree) image array: uint8 up to 256 points, then uint16, then uint32
        self._rows = np.array([g.images for g in generators], dtype=np.min_scalar_type(degree - 1))
        self._orbits: Optional[np.ndarray] = None
        self._chain: Optional[list[_Level]] = None
        self._enumeration: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._elements: Optional[tuple[Perm, ...]] = None
        self._witness: Optional[tuple[Optional[np.ndarray], int]] = None
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

    def _orbit_minima(self) -> np.ndarray:
        """The least point of each point's orbit."""
        return self._cached("_orbits", lambda: component_minima(self._rows))

    def _stabilizer_chain(self, cap: Optional[int] = None) -> list[_Level]:
        """The cached chain; a build with a cap refuses as soon as its running order bound passes it."""
        return self._cached("_chain", lambda: _schreier_sims(self._rows, cap))

    def order(self) -> int:
        """|G|, the product of the stabilizer chain's orbit lengths; never enumerates."""
        return math.prod(len(level.orbit) for level in self._stabilizer_chain())

    def order_within_cap(self) -> int:
        """``order()``, raising EnumerationCapError when it exceeds the cap.  A chain not yet built
        is built with the cap, so an order over it is refused while the chain grows."""
        self._stabilizer_chain(self.cap)
        if self.order() > self.cap:
            raise EnumerationCapError(f"group order exceeds cap {self.cap}")
        return self.order()

    def contains(self, rows) -> np.ndarray:
        """Whether each row of a (k, degree) image array is an element, by sifting through the chain."""
        chain = self._stabilizer_chain()
        rows = np.asarray(rows, dtype=self._rows.dtype).reshape(-1, self.degree)
        identity = np.arange(self.degree, dtype=rows.dtype)
        step = max(1, _IND_CHUNK // self.degree)
        out = np.zeros(len(rows), dtype=bool)
        for start in range(0, len(rows), step):
            # a residue is the identity only for a row that passed every level
            out[start : start + step] = (_sift(chain, rows[start : start + step], 0)[0] == identity).all(axis=1)
        return out

    def image_array(self) -> np.ndarray:
        """Read-only (order, degree) array of element images in breadth-first order (cached)."""
        return self._cached("_enumeration", self._enumerate)[0]

    def elements(self) -> tuple[Perm, ...]:
        """Full element list in deterministic breadth-first order (cached)."""
        return self._cached("_elements", lambda: tuple(Perm(row) for row in self.image_array().tolist()))

    def _bfs_levels(self, positions: np.ndarray) -> Iterator[np.ndarray]:
        """Runs of BFS levels of a group of order len(positions), the identity's alone first; positions[rank(g)],
        all -1 at first, becomes g's position.  A run's later levels keep repeats, as products of a repeat are
        never first occurrences; it holds at most as many rows as were reached, so stopping early costs <= 2x."""
        chain, gens, n = self._stabilizer_chain(), self._rows, self.degree
        level, reached = np.arange(n, dtype=gens.dtype)[None, :], 0
        while True:
            levels, rows = [level], len(level)
            # (e * g)(i) = e(g(i)); row f * len(gens) + j of a level's successor is row f * gens[j]
            while (rows := rows + len(levels[-1]) * len(gens)) <= min(reached, _IND_CHUNK // n):
                levels.append(levels[-1][:, gens].reshape(-1, n))
            run = np.concatenate(levels)
            ranks = _ranks(chain, run)
            first = np.unique(ranks, return_index=True)[1]
            fresh = np.sort(first[positions[ranks[first]] < 0])
            positions[ranks[fresh]] = np.arange(reached, reached + len(fresh))
            reached += len(fresh)
            yield run[fresh]
            if reached == len(positions):
                return
            level = run[fresh[fresh >= len(run) - len(levels[-1])]][:, gens].reshape(-1, n)

    def _enumerate(self) -> tuple[np.ndarray, np.ndarray]:
        positions = np.full(self.order_within_cap(), -1, dtype=np.intp)
        images = np.concatenate(list(self._bfs_levels(positions)))
        images.flags.writeable = positions.flags.writeable = False
        return images, positions

    def index(self, rows) -> np.ndarray:
        """Enumeration position of each row of a (k, degree) image array; -1 for a row outside the group."""
        images, positions = self._cached("_enumeration", self._enumerate)
        rows = np.asarray(rows, dtype=images.dtype)
        # the element of the row's rank, or any element for a rank of -1, equals the row only if the row is in G
        found = positions[_ranks(self._stabilizer_chain(), rows)]
        return np.where((images[found] == rows).all(axis=1), found, -1)

    def word(self, k: int) -> tuple[int, ...]:
        """Generator indices, applied left to right from the identity, that reach the k-th element.

        The word follows the BFS tree: an element's parent is the in-neighbour x * g_j^-1 with
        the smallest (position, j), the element whose j-th successor first reached it.
        """
        images = self.image_array()
        # argsort inverts each generator's image row, and x[inverse] is x * g_j^-1
        inverses = np.argsort(self._rows, axis=1)
        word = []
        while k:
            k, j = min((int(position), j) for j, position in enumerate(self.index(images[k][inverses])))
            word.append(j)
        return tuple(reversed(word))

    def is_transitive(self) -> bool:
        """True iff the generators join every point to point 0; builds no chain, so exit 4 stays cheap."""
        return not self._orbit_minima().any()

    def _min_index(self) -> tuple[Optional[np.ndarray], int]:
        """The first element of least ind in BFS order and that ind; (None, 0) for the trivial group.

        First the least ind is bounded from below.  A regular action (transitive, |G| = degree)
        has it in closed form: every cycle of g has length ord(g), so ind(g) = n - n/ord(g), and
        by Cauchy's theorem the least is n - n/p for the least prime p dividing n.  Otherwise the
        chain bounds it: sphere j, the permutations of ind j, is sifted for j = 1, 2, ... while the
        ball of ind <= j is no larger than |G|, and the first sphere holding an element gives the
        least ind.  Then the BFS walks until an element reaches that bound, which is the whole BFS
        only when the sifting stopped below it.
        """
        order = self.order_within_cap()
        if order == 1:
            return None, 0
        if order == self.degree and self.is_transitive():
            floor = order - order // next(p for p in range(2, order + 1) if order % p == 0)
        else:
            floor, ball = 1, 1  # no element has ind below floor, and ball counts the permutations that do
            sphere = np.arange(self.degree, dtype=self._rows.dtype)[None, :]
            while ball + sphere_size(self.degree, floor) <= order:
                sphere = next_sphere(sphere)
                if self.contains(sphere).any():
                    break
                floor, ball = floor + 1, ball + len(sphere)
        best_row, best = None, self.degree  # every ind is below the degree
        runs = self._bfs_levels(np.full(order, -1, dtype=np.intp))
        next(runs)  # the identity
        for run in runs:
            inds = cycle_inds(run)
            k = int(np.argmin(inds))
            if inds[k] < best:
                best_row, best = run[k], int(inds[k])
            if best == floor:
                break
        return best_row, best

    def min_index_witness(self) -> tuple[Perm, int]:
        """First element (in enumeration order) attaining the minimal index, with that index."""
        row, ind = self._cached("_witness", self._min_index)
        if row is None:
            raise ValueError("trivial group has no nonidentity element")
        return Perm(row.tolist()), ind

    def a_invariant(self) -> Fraction:
        """Reciprocal of the minimal index over nonidentity elements; 0 for the trivial group."""
        ind = self._cached("_witness", self._min_index)[1]
        return Fraction(1, ind) if ind else Fraction(0)
