"""Permutations stored as image tuples, with 1-based cycle notation at the text boundary."""

from __future__ import annotations

import math
import re
from typing import Iterable

from .errors import CycleParseError


class Perm:
    """A permutation of {0, ..., n-1} in image form.

    Points are 0-based internally; all text input/output is 1-based.
    Composition is fixed once and for all as (p * q)(i) == p(q(i)),
    i.e. q acts first.  Instances are immutable.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise ValueError("degree must be positive")
        seen = [False] * n
        for i in images:
            if not isinstance(i, int) or not 0 <= i < n or seen[i]:
                raise ValueError(f"images {images!r} are not a bijection on 0..{n - 1}")
            seen[i] = True
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return Perm(self.images[j] for j in other.images)

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(inv)

    def __pow__(self, k: int) -> "Perm":
        if k < 0:
            return self.inverse() ** (-k)
        result = Perm.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Perm):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its smallest point, ordered by that point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            cur = self.images[start]
            while cur != start:
                cycle.append(cur)
                seen[cur] = True
                cur = self.images[cur]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def ind(self) -> int:
        """Degree minus the number of cycles (fixed points count as cycles)."""
        return self.degree - len(self.cycles(include_fixed=True))

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Perm({list(self.images)!r})"


_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s+\d+)*)\s*\)")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse a product of disjoint cycles such as ``(1 2 3)(4 5)``.

    Grammar: ``"()"`` for the identity, or one or more cycles
    ``"(" int (" " int)* ")"``.  Points are 1-based and must lie in
    1..degree; a point may appear at most once in the whole expression.
    Points not mentioned are fixed.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    s = text.strip()
    if s == "()":
        return Perm.identity(degree)
    images = list(range(degree))
    used: set[int] = set()
    pos = 0
    found = False
    while pos < len(s):
        m = _CYCLE_RE.match(s, pos)
        if m is None:
            raise CycleParseError(f"syntax error in cycle expression at {s[pos:]!r}")
        found = True
        points = [int(tok) for tok in m.group(1).split()]
        for p in points:
            if not 1 <= p <= degree:
                raise CycleParseError(f"point {p} out of range for degree {degree}")
            if p - 1 in used:
                raise CycleParseError(f"point {p} repeated in cycle expression")
            used.add(p - 1)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b - 1
        pos = m.end()
        while pos < len(s) and s[pos].isspace():
            pos += 1
    if not found:
        raise CycleParseError(f"syntax error in cycle expression {text!r}")
    return Perm(images)

