"""Exact rational scalars, closed intervals, and normalized interval sets.

Every quantity in the package is a ``fractions.Fraction``; there is no
floating point anywhere in the core.  An :class:`IntervalSet` is the
canonical currency for stage covers: a finite union of closed rational
intervals kept in a unique normalized form (sorted, pairwise disjoint,
no two components sharing an endpoint).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, Optional

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints, strings like ``"5/12"``, or Fractions to a Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True, order=True)
class ClosedInterval:
    """Closed interval [lo, hi] with rational endpoints; lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def contains(self, t: Fraction) -> bool:
        return self.lo <= t <= self.hi

    def contains_interval(self, other: "ClosedInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "ClosedInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def intersect(self, other: "ClosedInterval") -> Optional["ClosedInterval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return ClosedInterval(lo, hi)

    def __str__(self) -> str:
        return f"{self.lo}..{self.hi}"


UNIT = ClosedInterval(ZERO, ONE)
_HI = attrgetter("hi")


def _normalize(intervals: Iterable[ClosedInterval]) -> tuple[ClosedInterval, ...]:
    items = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
    merged: list[ClosedInterval] = []
    for iv in items:
        if merged and iv.lo <= merged[-1].hi:
            last = merged[-1]
            if iv.hi > last.hi:
                merged[-1] = ClosedInterval(last.lo, iv.hi)
        else:
            merged.append(iv)
    return tuple(merged)


class IntervalSet:
    """Normalized finite disjoint union of closed rational intervals.

    Normalization is canonical: any two construction orders of the same
    point set produce identical component tuples, so ``==`` is set
    equality.  Degenerate (single-point) components are permitted.
    """

    __slots__ = ("_components",)

    def __init__(self, intervals: Iterable[ClosedInterval] = (), *, _normalized=False):
        if _normalized:
            self._components = tuple(intervals)
        else:
            self._components = _normalize(intervals)

    @staticmethod
    def of(*pairs) -> "IntervalSet":
        """Build from (lo, hi) pairs of rationals/strings."""
        return IntervalSet(ClosedInterval(rat(a), rat(b)) for a, b in pairs)

    @property
    def components(self) -> tuple[ClosedInterval, ...]:
        return self._components

    @property
    def is_empty(self) -> bool:
        return not self._components

    def __iter__(self) -> Iterator[ClosedInterval]:
        return iter(self._components)

    def __len__(self) -> int:
        return len(self._components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        return hash(self._components)

    def __repr__(self) -> str:
        return f"IntervalSet({self.to_text()!r})"

    # -- queries ---------------------------------------------------------

    def _bisect(self, t: Fraction) -> int:
        """Index of first component with hi >= t."""
        return bisect_left(self._components, t, key=_HI)

    def contains_point(self, t: Fraction) -> bool:
        i = self._bisect(t)
        return i < len(self._components) and self._components[i].lo <= t

    def component_containing(self, t: Fraction) -> Optional[ClosedInterval]:
        i = self._bisect(t)
        if i < len(self._components) and self._components[i].lo <= t:
            return self._components[i]
        return None

    def components_overlapping(self, window: ClosedInterval) -> list[ClosedInterval]:
        """Components intersecting the closed window, in order."""
        out = []
        i = self._bisect(window.lo)
        n = len(self._components)
        while i < n and self._components[i].lo <= window.hi:
            out.append(self._components[i])
            i += 1
        return out

    def issubset(self, other: "IntervalSet") -> bool:
        for comp in self._components:
            i = other._bisect(comp.lo)
            if i >= len(other._components):
                return False
            oc = other._components[i]
            if not (oc.lo <= comp.lo and comp.hi <= oc.hi):
                return False
        return True

    def min(self) -> Fraction:
        if self.is_empty:
            raise ValueError("empty interval set has no min")
        return self._components[0].lo

    def max_component_width(self) -> Fraction:
        if self.is_empty:
            return ZERO
        return max(c.width for c in self._components)

    # -- algebra ---------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self._components + other._components)

    __or__ = union

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[ClosedInterval] = []
        a, b = self._components, other._components
        i = j = 0
        while i < len(a) and j < len(b):
            iv = a[i].intersect(b[j])
            if iv is not None:
                out.append(iv)
            if a[i].hi < b[j].hi:
                i += 1
            else:
                j += 1
        # adjacent results can share endpoints only via degenerate touches;
        # normalization keeps the form canonical either way
        return IntervalSet(out)

    __and__ = intersect

    def intersect_interval(self, window: ClosedInterval) -> "IntervalSet":
        out = []
        for c in self.components_overlapping(window):
            iv = c.intersect(window)
            if iv is not None:
                out.append(iv)
        return IntervalSet(out, _normalized=True)

    def complement_in(self, window: ClosedInterval) -> "IntervalSet":
        """Closure of window minus self, as a normalized IntervalSet.

        The open interiors of the result are exactly the maximal gaps of
        self within the window.  Degenerate components of self do not
        split the complement (the closure swallows isolated points).
        """
        gaps: list[ClosedInterval] = []
        cursor = window.lo
        for c in self.components_overlapping(window):
            lo = max(c.lo, window.lo)
            hi = min(c.hi, window.hi)
            if lo > cursor:
                gaps.append(ClosedInterval(cursor, lo))
            cursor = max(cursor, hi)
        if cursor < window.hi:
            gaps.append(ClosedInterval(cursor, window.hi))
        if not gaps and self.is_empty:
            gaps = [window]
        return IntervalSet(gaps)

    def subtract_open(self, lo: Fraction, hi: Fraction) -> "IntervalSet":
        """Remove the open interval (lo, hi); endpoints lo, hi survive."""
        return self.subtract_opens([(lo, hi)])

    def subtract_opens(self, holes: Iterable[tuple[Fraction, Fraction]]) -> "IntervalSet":
        """Remove every open interval (lo, hi) of holes in one sorted sweep.

        Holes may overlap, nest, touch or be empty (lo >= hi); the result
        is the same as subtracting them one at a time.  Components that
        no hole meets are kept as the same objects.
        """
        # merge overlapping holes into disjoint open intervals; holes that
        # only touch stay apart, since their shared end point survives
        merged: list[list[Fraction]] = []
        for lo, hi in sorted(h for h in holes if h[0] < h[1]):
            if merged and lo < merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        out: list[ClosedInterval] = []
        j, n = 0, len(merged)
        for c in self._components:
            while j < n and merged[j][1] <= c.lo:
                j += 1
            if j == n or merged[j][0] >= c.hi:
                out.append(c)
                continue
            cursor = c.lo
            while j < n and merged[j][0] < c.hi:
                lo, hi = merged[j]
                if cursor <= lo:
                    out.append(ClosedInterval(cursor, lo))
                cursor = hi
                if hi > c.hi:
                    break  # the hole reaches into the next component
                j += 1
            if cursor <= c.hi:
                out.append(ClosedInterval(cursor, c.hi))
        return IntervalSet(out, _normalized=True)

    def measure(self) -> Fraction:
        return sum((c.width for c in self._components), ZERO)

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. ``1/4..5/12;7/12..3/4``."""
        return ";".join(str(c) for c in self._components)
