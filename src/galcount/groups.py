"""Finitely generated permutation groups with cached breadth-first element enumeration."""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Optional, Sequence

from .perms import Perm

DEFAULT_CAP = 10**6


class EnumerationCapError(RuntimeError):
    """Group closure exceeded the element cap; the group is too large for exhaustive methods."""


class PermGroup:
    """A permutation group given by degree and generators.

    Elements are enumerated breadth-first by word length in the generators
    (within a level, by parent order then generator index), starting from the
    identity.  The enumeration is cached; the cache fill is guarded by a lock
    so concurrent readers see a single fill.
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
        self._elements: Optional[tuple[Perm, ...]] = None
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"PermGroup(degree={self.degree}, generators=[{gens}])"

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def elements(self) -> tuple[Perm, ...]:
        """Full element list in deterministic breadth-first order (cached)."""
        if self._elements is None:
            with self._lock:
                if self._elements is None:
                    self._elements = self._enumerate()
        return self._elements

    def _enumerate(self) -> tuple[Perm, ...]:
        identity = self.identity()
        seen = {identity}
        out = [identity]
        frontier = [identity]
        while frontier:
            level = []
            for elem in frontier:
                for gen in self.generators:
                    new = elem * gen
                    if new not in seen:
                        seen.add(new)
                        level.append(new)
                        if len(seen) > self.cap:
                            raise EnumerationCapError(
                                f"group order exceeds cap {self.cap}"
                            )
            out.extend(level)
            frontier = level
        return tuple(out)

    def order(self) -> int:
        return len(self.elements())

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
        elements = self.elements()
        if len(elements) == 1:
            raise ValueError("trivial group has no nonidentity element")
        best: Optional[Perm] = None
        best_ind = self.degree  # ind is at most degree - 1
        for elem in elements[1:]:
            i = elem.ind()
            if i < best_ind:
                best, best_ind = elem, i
        assert best is not None
        return best, best_ind

    def a_invariant(self) -> Fraction:
        """Reciprocal of the minimal index over nonidentity elements; 0 for the trivial group."""
        if self.order() == 1:
            return Fraction(0)
        _, min_ind = self.min_index_witness()
        return Fraction(1, min_ind)
