"""Exact rational scalars, closed intervals, and normalized interval sets.

There is no floating point anywhere in the core.  Scalars and the ends
of a :class:`ClosedInterval` are ``fractions.Fraction`` values.  An
:class:`IntervalSet` is the canonical currency for stage covers: a
finite union of closed rational intervals kept in a unique normalized
form (sorted, pairwise disjoint, no two components sharing an
endpoint).  It holds its components as ``int`` numerator pairs over one
positive ``int`` denominator q, so its queries, comparisons and sweeps
are integer work.  Fractions and ClosedIntervals are made only at the
edge, for the components a query returns and in ``components``;
``to_text`` writes each end n/q in lowest terms, byte for byte as
``str(Fraction(n, q))``, and joins the component texts ``lo..hi``; it
takes a table of component texts keyed by (q, lo, hi), so that callers
rendering many covers, whose components repeat across members and
depths, render each distinct component once.  A rational window
[lo/s, hi/s] is compared through one rounding rule, ``_on``: the
ceiling of lo*q/s and the floor of hi*q/s bound exactly the numerators
over q inside it.  Two sets over different denominators are rescaled to
their lcm, so no comparison is inexact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import sub
from typing import Iterable, Iterator, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints, strings like ``"5/12"``, or Fractions to a Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True, order=True, slots=True)
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

    def __str__(self) -> str:
        return f"{self.lo}..{self.hi}"


UNIT = ClosedInterval(ZERO, ONE)


def _over(q: int, t) -> int:
    """Numerator of the rational t over q, a multiple of its denominator."""
    return t.numerator * (q // t.denominator)


def _on(lo: int, hi: int, q: int, to: int) -> tuple[int, int]:
    """[lo/q, hi/q] on the grid 1/to: the ceiling of its left end and the
    floor of its right end, exact for an interval on the grid."""
    return -(-lo * to // q), hi * to // q


def _text(n: int, q: int) -> str:
    """n/q in lowest terms, written as ``str(Fraction(n, q))`` writes it."""
    g = gcd(n, q)
    return str(n // g) if g == q else f"{n // g}/{q // g}"


def _unzip(pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lo and the hi tuple of (lo, hi) pairs."""
    return tuple(zip(*pairs)) or ((), ())


def _normalize(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sorted (lo, hi) numerator pairs with overlapping or touching ones merged."""
    merged: list[tuple[int, int]] = []
    for pair in sorted(pairs):
        if merged and pair[0] <= merged[-1][1]:
            if pair[1] > merged[-1][1]:
                merged[-1] = (merged[-1][0], pair[1])
        else:
            merged.append(pair)
    return merged


class IntervalSet:
    """Normalized finite disjoint union of closed rational intervals.

    Normalization is canonical: any two construction orders of the same
    point set produce identical components, so ``==`` is set equality.
    Degenerate (single-point) components are permitted.  Component k is
    [lo[k]/q, hi[k]/q] for int numerator tuples lo, hi and one positive
    int denominator q.
    """

    __slots__ = ("_q", "_lo", "_hi")

    def __init__(self, intervals: Iterable[ClosedInterval] = ()):
        ivs = list(intervals)
        q = lcm(*(x.denominator for iv in ivs for x in (iv.lo, iv.hi)))
        self._q = q
        self._lo, self._hi = _unzip(_normalize((_over(q, iv.lo), _over(q, iv.hi)) for iv in ivs))

    @staticmethod
    def of(*pairs) -> "IntervalSet":
        """Build from (lo, hi) pairs of rationals/strings."""
        return IntervalSet(ClosedInterval(rat(a), rat(b)) for a, b in pairs)

    @staticmethod
    def over(q: int, lo: Sequence[int], hi: Sequence[int]) -> "IntervalSet":
        """The set of components [lo[k]/q, hi[k]/q]; lo and hi must already
        be normalized (ascending, lo[k] <= hi[k] < lo[k+1])."""
        s = IntervalSet.__new__(IntervalSet)
        s._q, s._lo, s._hi = q, tuple(lo), tuple(hi)
        return s

    @staticmethod
    def _of_pairs(q: int, pairs: Sequence[tuple[int, int]]) -> "IntervalSet":
        return IntervalSet.over(q, *_unzip(pairs))

    @property
    def q(self) -> int:
        """The denominator every component end is written over."""
        return self._q

    def numerators(self, q: Optional[int] = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The lo and hi numerator tuples over q, a multiple of the set's
        denominator (by default the denominator itself)."""
        if q is None or q == self._q:
            return self._lo, self._hi
        f, rest = divmod(q, self._q)
        if rest:
            raise ValueError(f"{q} is not a multiple of the denominator {self._q}")
        return tuple(x * f for x in self._lo), tuple(x * f for x in self._hi)

    def __getitem__(self, k: int) -> ClosedInterval:
        """Component k, made on demand."""
        return ClosedInterval(Fraction(self._lo[k], self._q), Fraction(self._hi[k], self._q))

    @property
    def components(self) -> tuple[ClosedInterval, ...]:
        return tuple(self)

    @property
    def is_empty(self) -> bool:
        return not self._lo

    def __iter__(self) -> Iterator[ClosedInterval]:
        return map(self.__getitem__, range(len(self._lo)))

    def __len__(self) -> int:
        return len(self._lo)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        q = lcm(self._q, other._q)
        return self.numerators(q) == other.numerators(q)

    def __repr__(self) -> str:
        return f"IntervalSet({self.to_text()!r})"

    # -- queries ---------------------------------------------------------

    def contains_point(self, t: Fraction) -> bool:
        return self.meets(t.numerator, t.numerator, t.denominator)

    def component_containing(self, t: Fraction) -> Optional[ClosedInterval]:
        ks = self.overlapping(t.numerator, t.numerator, t.denominator)
        return self[ks.start] if ks else None

    def overlapping(self, lo: int, hi: int, q: int) -> range:
        """Indices of the components meeting the closed window [lo/q, hi/q]."""
        wlo, whi = _on(lo, hi, q, self._q)
        return range(bisect_left(self._hi, wlo), bisect_right(self._lo, whi))

    def meets(self, lo: int, hi: int, q: int) -> bool:
        """Whether some component meets the closed interval [lo/q, hi/q]."""
        wlo, whi = _on(lo, hi, q, self._q)
        i = bisect_left(self._hi, wlo)
        return i < len(self._hi) and self._lo[i] <= whi

    def outward(self, n: int, q: int, rightward: bool) -> range:
        """Indices of the components from n/q outward: ascending those
        with hi >= n/q, or descending those with lo <= n/q."""
        lo, hi = _on(n, n, q, self._q)
        if rightward:
            return range(bisect_left(self._hi, lo), len(self._lo))
        return range(bisect_right(self._lo, hi) - 1, -1, -1)

    def issubset(self, other: "IntervalSet") -> bool:
        q = lcm(self._q, other._q)
        olo, ohi = other.numerators(q)
        n = len(ohi)
        for lo, hi in zip(*self.numerators(q)):
            i = bisect_left(ohi, lo)
            if i == n or olo[i] > lo or hi > ohi[i]:
                return False
        return True

    def min(self) -> Fraction:
        if self.is_empty:
            raise ValueError("empty interval set has no min")
        return Fraction(self._lo[0], self._q)

    def max_component_width(self) -> Fraction:
        if self.is_empty:
            return ZERO
        return Fraction(max(map(sub, self._hi, self._lo)), self._q)

    # -- algebra ---------------------------------------------------------

    def _window(self, window: ClosedInterval) -> tuple[int, int, int, int]:
        """(q, f, lo, hi): q the lcm of the set's and the window's
        denominators, f = q / self.q, and the window's ends over q."""
        q = lcm(self._q, window.lo.denominator, window.hi.denominator)
        return q, q // self._q, _over(q, window.lo), _over(q, window.hi)

    def intersect_interval(self, window: ClosedInterval) -> "IntervalSet":
        q, f, wlo, whi = self._window(window)
        return IntervalSet._of_pairs(q, [(max(self._lo[k] * f, wlo), min(self._hi[k] * f, whi))
                                         for k in self.overlapping(wlo, whi, q)])

    def complement_in(self, window: ClosedInterval) -> "IntervalSet":
        """Closure of window minus self, as a normalized IntervalSet.

        The open interiors of the result are exactly the maximal gaps of
        self within the window.  Degenerate components of self do not
        split the complement (the closure swallows isolated points).
        """
        q, f, wlo, whi = self._window(window)
        gaps: list[tuple[int, int]] = []
        cursor = wlo
        for k in self.overlapping(wlo, whi, q):
            lo, hi = max(self._lo[k] * f, wlo), min(self._hi[k] * f, whi)
            if lo > cursor:
                gaps.append((cursor, lo))
            cursor = max(cursor, hi)
        if cursor < whi:
            gaps.append((cursor, whi))
        if not gaps and self.is_empty:
            gaps = [(wlo, whi)]
        return IntervalSet._of_pairs(q, _normalize(gaps))

    def subtract_open(self, lo: Fraction, hi: Fraction) -> "IntervalSet":
        """Remove the open interval (lo, hi); endpoints lo, hi survive."""
        q = lcm(self._q, lo.denominator, hi.denominator)
        return self.subtract_opens(q, [(_over(q, lo), _over(q, hi))])

    def subtract_opens(self, q: int, holes: Iterable[tuple[int, int]]) -> "IntervalSet":
        """Remove every open interval (lo/q, hi/q) of holes, over q, a
        multiple of the set's denominator: the set met with each closed gap
        between the merged holes, (-inf, a_1], [b_1, a_2], ..., [b_k, +inf).

        Holes may overlap, nest, touch or be empty (lo >= hi); the result
        is the same as subtracting them one at a time.  The components
        meeting a gap are copied in one slice, the first and the last
        clipped to the gap's ends.
        """
        # merge overlapping holes into disjoint open intervals; holes that
        # only touch stay apart, since their shared end point survives
        merged: list[list[int]] = []
        for a, b in sorted(holes):
            if a >= b:
                continue
            if merged and a < merged[-1][1]:
                if b > merged[-1][1]:
                    merged[-1][1] = b
            else:
                merged.append([a, b])
        lo, hi = self.numerators(q)
        if not lo:
            return IntervalSet.over(q, lo, hi)
        out_lo: list[int] = []
        out_hi: list[int] = []
        # the outer gaps are closed off at the set's own ends
        ends = [lo[0], *chain.from_iterable(merged), hi[-1]]
        k = 0
        for g, h in zip(ends[::2], ends[1::2]):
            i = bisect_left(hi, g, k)
            j = bisect_right(lo, h, i)
            if i < j:
                n = len(out_lo)
                out_lo += lo[i:j]
                out_hi += hi[i:j]
                out_lo[n] = max(lo[i], g)
                out_hi[-1] = min(hi[j - 1], h)
                # the last may reach into the next gap
                k = j - 1
        return IntervalSet.over(q, out_lo, out_hi)

    def measure(self) -> Fraction:
        return Fraction(sum(self._hi) - sum(self._lo), self._q)

    # -- serialization ---------------------------------------------------

    def to_text(self, table: Optional[dict[tuple[int, int, int], str]] = None) -> str:
        """Canonical text form, e.g. ``1/4..5/12;7/12..3/4``.

        table maps (q, lo, hi) to the component text ``lo/q..hi/q``; a
        caller that renders many covers passes one table to every call,
        so each distinct component is rendered once.
        """
        if table is None:
            table = {}
        q = self._q
        parts = []
        for lo, hi in zip(self._lo, self._hi):
            key = (q, lo, hi)
            text = table.get(key)
            if text is None:
                text = table[key] = f"{_text(lo, q)}..{_text(hi, q)}"
            parts.append(text)
        return ";".join(parts)
