"""Refinable generators for the nested Cantor-set family.

Three generator kinds:

* :class:`MiddleThirds` -- the standard middle-thirds set on a rational
  base interval.
* :class:`GapAttachedCantor` -- the enlarged set built by attaching a
  pair of scaled middle-thirds sets to every maximal gap of a
  middle-thirds set within a slightly wider window; the smallest set of
  the family contains it densely without sharing endpoints.
* :class:`IntermediateCantor` -- a set strictly between two nested
  generators, produced by removing a scheduled open neighborhood of each
  endpoint of the outer set.

Every generator exposes nested stage covers (normalized
:class:`~gillab.exact.IntervalSet` values) whose intersection is the
represented set; identical build parameters yield bit-identical covers.
Each generator has one grid: every stage-d end of it is an int over
``grid(d)``, its own q0 times 3^d.  A generator states its rules on
that grid and :class:`CantorGen` runs the memos and walks:
``_compute_stage`` builds a whole cover, and ``_children_of`` refines
one component, a numerator pair, memoised by (d, lo, hi).  ``near(d,
lo, hi, q)`` (the stage-d components meeting [lo/q, hi/q]) and
``walk(d, n, q, rightward)`` (those from n/q outward) descend that tree
from the deepest memoised cover, so the removal-schedule search builds
no deep cover.  Above that depth a component's children are read off
the memoised cover, by one bisection, and ``_children_of`` runs only
past it.  The search descends once per endpoint: ``_carried_walk``
carries its walks from stage e to e + 1 by the children of what they
yielded, and an intermediate set's ``_children_of`` reads the outer
children of the component holding the parent, which it recorded when
it made the parent; only a parent off a memoised cover asks ``near``.
A caller that reports every member's covers anyway builds
them through ``CantorFamily.covers``, member by member in build order,
so each member's search reads its inner and outer sets' covers
memoised.  An address's ``point_membership`` descends once: each depth
reads the children of the components the last depth's bracket met.  A
rational window or point enters once, by ``_on``'s ceiling and floor
at the grid; brackets, holes and hulls are int triples (lo, hi, q).
Fractions appear only at the edge: in cover components, endpoints,
rational anchors and the gaps ``gap_of`` gives.
A point query is int
work too: ``first_out``, ``gap_of`` and ``membership`` read t = n/m once
as its numerator and denominator, and test the base, window and unit
by comparing int products, so no query compares two Fractions.  One
middle-thirds point rule on an int base, ``_thirds_exit``, answers C_1,
C_0's core and each C_0 attachment, so C_0 makes no attachment object.
One middle-thirds cover rule on an int base, the index list ``_kept(k)``
of the slots a stage-k cover keeps, gives the pieces (``_pieces``) and
the new gaps (``_gaps``) of the same bases: C_1's covers, C_0's sweeps
and each generator's ``gaps_opened(s)`` read it; slot by slot,
``_pieces_meeting`` keeps the pieces of one base meeting one C_0
component, so C_0 calls no method of C_1.  There is one endpoint rule,
in :class:`CantorGen`: the ends of ``stage(0)``, then the ends of the
gaps opened at each stage s >= 1.

For the middle-thirds and gap-attached sets both ends of every stage-d
component are points of the set, so each component of
``stage(d).complement_in(UNIT)`` is the closure of a maximal gap of
{0} + set + {1}, and ``gap_of`` is the query for the gap holding one
point (None for a point of the set).  An intermediate set makes no such
claim.

Membership is point-local: each generator states ``first_out(t,
max_stage)``, the first depth whose cover misses t, from one walk of t's
ternary digits, the core gap holding t and the removal holes around it.
So a verdict ``OUT d`` means t lies outside ``stage(d)``.  The
middle-thirds and gap-attached sets are exact; an intermediate set says
IN only by its inner set's certificate and UNKNOWN when neither that nor
its covers to ``max_stage`` decide.  Its inner set is itself
intermediate or not, and only the first generator down that chain that
is not intermediate (C_1 in every family) can say IN.  Each
intermediate set stores that generator as its ``bottom`` when it is
made, and its ``membership`` asks it directly.  An intermediate set's
``first_out`` is one scan of its own holes (``_hole_exit``), given its
outer set's exit depth.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from copy import copy
from dataclasses import dataclass, field
from functools import cache, cached_property
from fractions import Fraction
from itertools import tee
from math import lcm
from typing import Iterator, Optional, Sequence, Union

from .errors import BracketSearchError
from .exact import ClosedInterval, IntervalSet, ZERO, ONE, _normalize, _on, _over

IN = "in"
OUT = "out"
UNKNOWN = "unknown"

DEFAULT_MAX_STAGE = 12
DEFAULT_SEARCH_CEILING = 15

Pair = tuple[int, int]
# a window, bracket, hole or hull (lo, hi, q), or a depth and a pair (d, lo, hi)
Triple = tuple[int, int, int]


@dataclass(frozen=True)
class Membership:
    """Three-valued membership verdict.

    ``out`` with depth d is definitive: the point lies outside
    ``stage(d)``, and d is the first such depth.  ``in`` is exact for the
    middle-thirds and gap-attached sets; an intermediate set gives it only
    by its inner set's certificate.  ``unknown`` invites refinement.
    """

    verdict: str
    decided_at_stage: Optional[int] = None

    @property
    def is_in(self) -> bool:
        return self.verdict == IN

    @property
    def is_out(self) -> bool:
        return self.verdict == OUT


class CantorGen:
    """Base class: memoized nested stage covers plus exact queries."""

    _q0: int   # set by each generator: grid(d) = _q0 * 3^d

    def __init__(self):
        self._stage_memo: list[IntervalSet] = []
        self._endpoint_stages: list[list[Fraction]] = []
        self._children_memo: dict[Triple, tuple[Pair, ...]] = {}

    def _compute_stage(self, d: int) -> IntervalSet:
        raise NotImplementedError

    def _children_of(self, d: int, lo: int, hi: int) -> Sequence[Pair]:
        """Stage-d components, over grid(d), inside the stage-(d-1)
        component [lo, hi] over grid(d-1), in order."""
        raise NotImplementedError

    def gaps_opened(self, s: int) -> list[Pair]:
        """The gaps opened at stage s >= 1, ascending, over grid(s)."""
        raise NotImplementedError

    def grid(self, d: int) -> int:
        """The denominator every stage-d end is an int over."""
        return self._q0 * 3 ** d

    def stage(self, d: int) -> IntervalSet:
        """Depth-d cover; computed at most once per depth."""
        if d < 0:
            raise ValueError(f"stage depth must be >= 0, got {d}")
        while len(self._stage_memo) <= d:
            self._stage_memo.append(self._compute_stage(len(self._stage_memo)))
        return self._stage_memo[d]

    def new_endpoints(self, s: int) -> list[Fraction]:
        """Endpoints first discovered at stage s; computed at most once per stage."""
        while len(self._endpoint_stages) <= s:
            self._endpoint_stages.append(
                self._discover_endpoints(len(self._endpoint_stages)))
        return self._endpoint_stages[s]

    def _discover_endpoints(self, s: int) -> list[Fraction]:
        """The ends of stage(0), then for s >= 1 the ends of the gaps
        opened at stage s, in order."""
        if s == 0:
            return [x for c in self.stage(0) for x in (c.lo, c.hi)]
        q = self.grid(s)
        return [Fraction(x, q) for gap in self.gaps_opened(s) for x in gap]

    def near(self, d: int, lo: int, hi: int, q: int) -> list[Pair]:
        """Stage-d components meeting the closed window [lo/q, hi/q], in
        order, over grid(d).  The covers nest and their components never
        touch, so every one lies in a stage-(d-1) component meeting it."""
        # descend from the deepest memoised cover (stage 0 if none is)
        start = min(d, max(len(self._stage_memo) - 1, 0))
        cover = self.stage(start)
        clo, chi = cover.numerators(self.grid(start))
        comps = [(clo[k], chi[k]) for k in cover.overlapping(lo, hi, q)]
        for k in range(start + 1, d + 1):
            wlo, whi = _on(lo, hi, q, self.grid(k))
            comps = [c for parent in comps for c in self._cached_children(k, *parent)
                     if c[0] <= whi and c[1] >= wlo]
        return comps

    def walk(self, d: int, n: int, q: int, rightward: bool) -> Iterator[Pair]:
        """Stage-d components over grid(d) from x = n/q outward, lazily: left
        to right those with hi >= x, or right to left those with lo <= x."""
        if d < len(self._stage_memo) or d == 0:
            cover = self.stage(d)
            clo, chi = cover.numerators(self.grid(d))
            return ((clo[k], chi[k]) for k in cover.outward(n, q, rightward))
        return self._walk_children(d, self.walk(d - 1, n, q, rightward), n, q, rightward)

    def _walk_children(self, d: int, parents: Iterator[Pair], n: int, q: int,
                       rightward: bool) -> Iterator[Pair]:
        """The stage-d walk from x = n/q, read off parents: the stage-(d-1)
        walk the same way from x or from a point behind x.  A parent
        wholly behind x, whose children all are, is passed over."""
        x_lo, x_hi = _on(n, n, q, self.grid(d))
        if rightward:
            return (c for parent in parents if 3 * parent[1] >= x_lo
                    for c in self._cached_children(d, *parent) if c[1] >= x_lo)
        return (c for parent in parents if 3 * parent[0] <= x_hi
                for c in reversed(self._cached_children(d, *parent)) if c[0] <= x_hi)

    def _cached_children(self, d: int, lo: int, hi: int) -> tuple[Pair, ...]:
        """`_children_of`, memoised by (d, lo, hi); read off the stage-d
        cover by one bisection when that is memoised, since the stage-d
        components meeting the parent are its children."""
        key = (d, lo, hi)
        children = self._children_memo.get(key)
        if children is None:
            if d < len(self._stage_memo):
                cover = self._stage_memo[d]
                clo, chi = cover.numerators()
                f = self.grid(d) // cover.q
                children = tuple((clo[k] * f, chi[k] * f)
                                 for k in cover.overlapping(lo, hi, self.grid(d - 1)))
            else:
                children = tuple(self._children_of(d, lo, hi))
            self._children_memo[key] = children
        return children

    def membership(self, t: Fraction, max_stage: int = DEFAULT_MAX_STAGE) -> Membership:
        """Exact verdict from ``first_out`` with no depth bound (max_stage is
        not read), for a generator whose ``first_out`` ends without one."""
        d = self.first_out(t, None)
        return Membership(IN) if d is None else Membership(OUT, d)

    def first_out(self, t: Fraction, max_stage: Optional[int]) -> Optional[int]:
        """The first depth d <= max_stage with t outside stage(d), or None,
        as walking the covers would find, building none.  max_stage None
        means any depth, for a generator whose walk ends without a bound
        (an intermediate set rejects it)."""
        raise NotImplementedError

    def endpoints(self, count: int) -> list[PointLike]:
        """The first `count` endpoints, stage by stage in discovery order."""
        out: list[PointLike] = []
        s = 0
        while len(out) < count:
            out.extend(self.new_endpoints(s))
            s += 1
        return out[:count]

    def describe(self) -> str:
        """Canonical parameter string: names a member in reports and caches."""
        raise NotImplementedError

    def component_persists(self, d: int, lo: int, hi: int, q: int) -> bool:
        """Whether the stage-d component [lo/q, hi/q] survives all
        refinement: then it meets the set, and an address anchored on it
        can be refined forever."""
        return True


# ---------------------------------------------------------------------------
# middle-thirds generator


def _ternary_exit(p: int, q: int, digits: Optional[int]) -> Optional[Pair]:
    """The first digit k < digits (any k, if None) at which u = p/q in
    [0, 1] falls into an open middle third, with the index m of the
    stage-k interval it falls from, so the gap is ((3m+1)/3^(k+1),
    (3m+2)/3^(k+1)); None if u stays in the cover for all those digits.
    Ends for every rational even with no digit bound: the orbit u -> 3u /
    3u-2 keeps q, so its numerators exit or repeat, and a repeat means u
    is in the set.  Only that unbounded walk keeps the numerators seen."""
    seen = set() if digits is None else None
    k = m = 0
    while digits is None or k < digits:
        if seen is not None:
            if p in seen:
                return None
            seen.add(p)
        if 3 * p <= q:
            p, m = 3 * p, 3 * m
        elif 3 * p >= 2 * q:
            p, m = 3 * p - 2 * q, 3 * m + 2
        else:
            return k, m
        k += 1
    return None


def _thirds_exit(x: int, w: int, q: int, n: int, m: int,
                 digits: Optional[int]) -> Optional[Triple]:
    """The middle-thirds point rule on the base [x/q, (x+w)/q], for t =
    n/m: (d, lo, hi) with d the first depth whose cover misses t and (lo,
    hi) over q*3^d the maximal gap of the set holding t; None if t stays
    in the cover for `digits` ternary digits (all, if None).  d is 0
    exactly for t outside the base, and (lo, hi) is then the base."""
    if digits is not None and digits < 0:
        raise ValueError(f"max_stage must be >= 0, got {digits}")
    # t rescaled so that the base becomes [0, 1], as p/s
    p, s = n * q - x * m, w * m
    if not 0 <= p <= s:
        return 0, x, x + w
    hit = _ternary_exit(p, s, digits)
    if hit is None:
        return None
    k, j = hit
    lo = x * 3 ** (k + 1)
    return k + 1, lo + (3 * j + 1) * w, lo + (3 * j + 2) * w


@cache
def _kept(k: int) -> tuple[int, ...]:
    """The m < 3^k whose k ternary digits are all 0 or 2, ascending: the
    slots [m, m + 1] / 3^k that the stage-k middle-thirds cover of [0, 1]
    keeps."""
    if k == 0:
        return (0,)
    return tuple(x for m in _kept(k - 1) for x in (3 * m, 3 * m + 2))


def _pieces(x: int, w: int, k: int) -> list[Pair]:
    """The stage-k cover of the middle-thirds set on the base [x, x +
    3^k w], ascending: the pieces [x + m w, x + m w + w], m in _kept(k)."""
    return [(x + m * w, x + m * w + w) for m in _kept(k)]


def _gaps(x: int, w: int, k: int) -> list[Pair]:
    """The gaps the middle-thirds set on the base [x, x + 3^(k+1) w] opens
    at stage k + 1, ascending: the middle thirds (x + (3m+1) w, x +
    (3m+2) w) of its stage-k pieces."""
    return [(x + (3 * m + 1) * w, x + (3 * m + 2) * w) for m in _kept(k)]


def _pieces_meeting(x: int, w: int, k: int, lo: int, hi: int) -> list[Pair]:
    """The pieces of ``_pieces(x, w, k)`` that meet [lo, hi], ascending,
    with no list of 2^k slots: slot m is kept when the midpoint of [m, m
    + 1] / 3^k stays in the middle-thirds cover for all k digits."""
    first, last = max(0, -(-(lo - x - w) // w)), min(3 ** k - 1, (hi - x) // w)
    return [(x + m * w, x + m * w + w) for m in range(first, last + 1)
            if _ternary_exit(2 * m + 1, 2 * 3 ** k, k) is None]


def _gap_fractions(q: int, hit: Optional[Triple]) -> Optional[tuple[Fraction, Fraction]]:
    """The gap of an exit (d, lo, hi), (lo, hi) over q*3^d, in
    Fractions; None for None."""
    if hit is None:
        return None
    d, lo, hi = hit
    q *= 3 ** d
    return Fraction(lo, q), Fraction(hi, q)


class MiddleThirds(CantorGen):
    """Middle-thirds Cantor set on a nondegenerate rational base interval.

    Both ends of every stage-d component are points of the set, so the
    gaps of a stage cover are maximal gaps.
    """

    def __init__(self, base: ClosedInterval):
        if base.is_degenerate:
            raise ValueError("middle-thirds base must be nondegenerate")
        super().__init__()
        self.base = base
        q = self._q0 = lcm(base.lo.denominator, base.hi.denominator)
        self._a, self._w = _over(q, base.lo), _over(q, base.width)

    def describe(self) -> str:
        return f"MT[{self.base.lo},{self.base.hi}]"

    def _children_of(self, d: int, lo: int, hi: int) -> tuple[Pair, Pair]:
        # the thirds of [a, b] over q are [3a, 2a + b] and [a + 2b, 3b] over 3q
        return (3 * lo, 2 * lo + hi), (lo + 2 * hi, 3 * hi)

    def _compute_stage(self, d: int) -> IntervalSet:
        # the base is [a, a + w] over grid(0), so [a 3^d, a 3^d + 3^d w] over grid(d)
        return IntervalSet.over(self.grid(d), *zip(*_pieces(self._a * 3 ** d, self._w, d)))

    def first_out(self, t: Fraction, max_stage: Optional[int]) -> Optional[int]:
        hit = _thirds_exit(self._a, self._w, self._q0, t.numerator, t.denominator, max_stage)
        return None if hit is None else hit[0]

    def gap_of(self, t: Fraction) -> Optional[tuple[Fraction, Fraction]]:
        """Exact maximal gap (a, b) of the set within base containing t,
        or None for a point of the set; ValueError for t outside base."""
        hit = _thirds_exit(self._a, self._w, self._q0, t.numerator, t.denominator, None)
        if hit is not None and hit[0] == 0:
            raise ValueError(f"{t} lies outside the base of {self.describe()}")
        return _gap_fractions(self._q0, hit)

    def gaps_opened(self, s: int) -> list[Pair]:
        return _gaps(self._a * 3 ** s, self._w, s - 1)

    # bound in each class body rather than inherited: bench/tracing.py
    # wraps vars(cls)["membership"] and vars(cls)["endpoints"] of every
    # generator class
    membership = CantorGen.membership
    endpoints = CantorGen.endpoints


# ---------------------------------------------------------------------------
# gap-attached enlargement


class GapAttachedCantor(CantorGen):
    """Enlarges a middle-thirds set by gluing scaled copies into its gaps.

    For every maximal gap (a, b) of the core set within the widened
    window, middle-thirds sets are placed on [a, a + (b-a)/3] and
    [b - (b-a)/3, b]; the two side gaps between window and core count as
    generation 0, the gap opened at core stage g as generation g.  A
    generation-g attachment is refined to depth d - g inside the depth-d
    cover, which keeps cover sizes polynomial in the depth.  Both ends
    of every stage-d component are points of the set, so the gaps of a
    stage cover are maximal gaps.

    Every path reads an attachment off its gap's ends and makes no
    attachment object.  ``_compute_stage(d)`` is one int sweep over
    grid(d): the middle-thirds pieces (``_pieces``) of the core's base
    and of each attachment base, merged once; ``gaps_opened`` and
    ``gaps_of_generation`` read the gaps of the same bases (``_gaps``),
    and ``_children_of`` keeps their pieces that meet one component
    (``_pieces_meeting``).  The point queries run ``_thirds_exit`` on
    the core's base, then on each attachment base of the core gap holding
    t, so no path calls a method of the core.
    """

    def __init__(self, core: MiddleThirds):
        super().__init__()
        self.core = core
        span = core.base.width
        self.window = ClosedInterval(core.base.lo - span / 4, core.base.hi + span / 4)
        # every stage-d end is core.base.lo plus a multiple of span/(12*3^d)
        q = self._q0 = lcm(core._q0, (span / 12).denominator)
        self._side_gaps = [(_over(q, self.window.lo), _over(q, core.base.lo)),
                           (_over(q, core.base.hi), _over(q, self.window.hi))]

    def describe(self) -> str:
        return f"GA({self.core.describe()})"

    def gaps_of_generation(self, g: int) -> list[Pair]:
        if g == 0:
            return self._side_gaps
        (_, lo), (hi, _) = self._side_gaps   # the core's base over grid(0)
        return _gaps(lo * 3 ** g, hi - lo, g - 1)

    def _attachment_ends(self, d: int, g: int, lo: int, hi: int) -> Triple:
        """(w, a, b) for the generation-g gap (lo, hi) over grid(g): over
        grid(d), the left ends a and b of its attachment pair and the width
        w of their stage-(d - g) pieces.  Piece m of either, [a + m*w,
        a + m*w + w], is there for the m < 3^(d - g) whose ternary digits
        are all 0 or 2."""
        # grid(0) holds span/12, so every gap over grid(g) is a multiple
        # of 3 wide and the pieces lie on grid(d) with no division
        w, rest = divmod(hi - lo, 3)
        if rest:
            raise ValueError(f"gap ({lo}, {hi}) over grid({g}) is not a multiple of 3 wide")
        f = 3 ** (d - g)
        return w, lo * f, (hi - w) * f

    def _compute_stage(self, d: int) -> IntervalSet:
        # the core's base [lo, hi] over grid(0), then each generation-g
        # attachment's stage-(d - g) pieces, merged once
        (_, lo), (hi, _) = self._side_gaps
        pieces = _pieces(lo * 3 ** d, hi - lo, d)
        for g in range(d + 1):
            for gap in self.gaps_of_generation(g):
                w, *ends = self._attachment_ends(d, g, *gap)
                for a in ends:
                    pieces += _pieces(a, w, d - g)
        return IntervalSet.over(self.grid(d), *zip(*_normalize(pieces)))

    def gaps_opened(self, s: int) -> list[Pair]:
        # the middle thirds of each generation-g attachment's stage-(s -
        # g - 1) pieces, and each generation-s core gap less its attachments
        gaps = []
        for g in range(s):
            for gap in self.gaps_of_generation(g):
                w, *ends = self._attachment_ends(s, g, *gap)
                for a in ends:
                    gaps += _gaps(a, w, s - g - 1)
        for gap in self.gaps_of_generation(s):
            w, a, b = self._attachment_ends(s, s, *gap)
            gaps.append((a + w, b))
        return sorted(gaps)

    def _children_of(self, d: int, lo: int, hi: int) -> list[Pair]:
        """The core pieces meeting the parent and the attachment pieces of
        the core gaps meeting it, joined where they touch."""
        p, q = self.grid(d - 1), self.grid(d)
        (_, a), (b, _) = self._side_gaps   # the core's base over grid(0)
        pieces = _pieces_meeting(a * 3 ** d, b - a, d, 3 * lo, 3 * hi)
        # an end of the parent outside the core pieces lies in a core gap
        # opened by stage d, and so does the midpoint between two pieces
        points = [(u + v, 2 * q) for (_, u), (v, _) in zip(pieces, pieces[1:])]
        if not pieces or 3 * lo < pieces[0][0]:
            points.append((lo, p))
        if pieces and 3 * hi > pieces[-1][1]:
            points.append((hi, p))
        for n, s in points:
            g, glo, ghi = self._core_exit(n, s, d)
            w, *ends = self._attachment_ends(d, g, glo, ghi)
            for x in ends:
                pieces += _pieces_meeting(x, w, d - g, 3 * lo, 3 * hi)
        return _normalize(pieces)

    def _core_exit(self, n: int, q: int, max_stage: Optional[int]) -> Optional[Triple]:
        """For t = n/q, (g, lo, hi): the maximal gap (lo, hi) over grid(g)
        of the core within the window holding t (the side gap on t's side,
        for t outside the window), g its generation and the first core
        depth missing t; None if the core holds t to depth max_stage (for
        ever, if None)."""
        # the core's base over grid(0), so its gaps come over grid(g)
        (_, a), (b, _) = self._side_gaps
        hit = _thirds_exit(a, b - a, self._q0, n, q, max_stage)
        if hit is None or hit[0]:
            return hit
        # outside the core: the side gap on t's side
        return (0, *self._side_gaps[n * self._q0 > b * q])

    def _point_exit(self, n: int, m: int, max_stage: Optional[int]) -> Optional[Triple]:
        """For t = n/m, (d, lo, hi): d the first depth whose cover misses t
        and (lo, hi) over grid(d) the maximal gap holding t, for t in the
        window (t outside it misses both attachments of its side gap, so d
        is 0); None if the covers hold t to depth max_stage (for ever, if
        None)."""
        hit = self._core_exit(n, m, max_stage)
        if hit is None:
            return None
        # outside the core t leaves the cover with its core gap, at the
        # gap's generation g, unless an attachment of that gap holds it
        # to depth g + (the attachment's own exit depth)
        g = hit[0]
        w, a, b = self._attachment_ends(g, *hit)
        for x in (a, b):
            # depth 0 exactly when t lies outside the attachment's base
            sub = _thirds_exit(x, w, self.grid(g), n, m,
                               None if max_stage is None else max_stage - g)
            if sub is None or sub[0]:
                return None if sub is None else (g + sub[0], *sub[1:])
        return g, a + w, b

    def first_out(self, t: Fraction, max_stage: Optional[int]) -> Optional[int]:
        hit = self._point_exit(t.numerator, t.denominator, max_stage)
        return None if hit is None else hit[0]

    def gap_of(self, t: Fraction) -> Optional[tuple[Fraction, Fraction]]:
        """Exact maximal gap of {0} + this set + {1} containing t, or None
        for a point of the set; ValueError for t outside [0, 1]."""
        n, m = t.numerator, t.denominator
        if not 0 <= n <= m:
            raise ValueError(f"{t} lies outside [0, 1]")
        if n * self._q0 < self._side_gaps[0][0] * m:
            return (ZERO, self.window.lo)
        if n * self._q0 > self._side_gaps[1][1] * m:
            return (self.window.hi, ONE)
        return _gap_fractions(self._q0, self._point_exit(n, m, None))

    # see MiddleThirds.membership
    membership = CantorGen.membership
    endpoints = CantorGen.endpoints


# ---------------------------------------------------------------------------
# symbolic addresses


class CantorAddress:
    """Point of a generator named by a branch path through its cover tree.

    ``prefix[0]`` selects the root component of stage 0; ``prefix[k]``
    the child component at the stage k-1 -> k refinement.  The address
    holds the chain of components along the prefix, which
    ``for_component`` found, as its first brackets.  Past the prefix the
    path alternates leftmost/rightmost child, which denotes a certified
    non-endpoint of the set.
    """

    __slots__ = ("gen", "prefix", "_brackets", "_flips")

    def __init__(self, gen: CantorGen, prefix: tuple[int, ...], chain: list[Pair]):
        self.gen = gen
        self.prefix = prefix
        self._brackets = chain
        self._flips = 0

    def bracket(self, d: int) -> Pair:
        """The bracketing stage-d component, as numerators over
        gen.grid(d); brackets nest."""
        while len(self._brackets) <= d:
            # the next stage's components meeting the last bracket are its children
            children = self.gen._cached_children(len(self._brackets), *self._brackets[-1])
            if not children:
                raise BracketSearchError(
                    f"cover component vanished while refining address {self}")
            if len(children) == 1:
                # no split at this stage; do not consume a turn, or a
                # region splitting only on one parity would always pick
                # the same side and converge onto an endpoint
                comp = children[0]
            else:
                comp = children[0] if self._flips % 2 == 0 else children[-1]
                self._flips += 1
            self._brackets.append(comp)
        return self._brackets[d]

    def serialize(self) -> str:
        return ".".join(str(i) for i in self.prefix) + ":(LR)"

    def __repr__(self) -> str:
        return f"CantorAddress({self.serialize()})"

    @staticmethod
    def for_component(gen: CantorGen, comp: Pair, stage: int) -> "CantorAddress":
        """Address whose stage-`stage` bracket is the given cover
        component, a numerator pair over gen.grid(stage)."""
        lo, hi = comp
        path: list[int] = []
        chain: list[Pair] = []
        # walk the ancestor chain of comp through the covers
        for k in range(stage + 1):
            children = gen._cached_children(k, *chain[-1]) if k else gen.near(0, 0, 1, 1)
            f = 3 ** (stage - k)
            idx = next((i for i, (a, b) in enumerate(children)
                        if a * f <= lo and hi <= b * f), None)
            if idx is None:
                raise BracketSearchError("component is not part of the stage cover")
            path.append(idx)
            chain.append(children[idx])
        return CantorAddress(gen, tuple(path), chain)


PointLike = Union[Fraction, CantorAddress]


def point_bracket(p: PointLike, d: int) -> Triple:
    """(lo, hi, q): the stage-d bracket [lo/q, hi/q] of p."""
    if isinstance(p, CantorAddress):
        return (*p.bracket(d), p.gen.grid(d))
    return p.numerator, p.numerator, p.denominator


def point_membership(gen: CantorGen, p: PointLike,
                     max_stage: int = DEFAULT_MAX_STAGE) -> Membership:
    """Membership of a rational or of an address-denoted point in gen."""
    if not isinstance(p, CantorAddress):
        return gen.membership(p, max_stage)
    if p.gen is gen:
        return Membership(IN, 0)
    # brackets and covers both nest, so the stage-d components meeting
    # bracket(d) are children of those meeting bracket(d-1), and once a
    # cover misses its bracket every deeper cover misses the deeper one
    comps = gen.near(0, *point_bracket(p, 0))
    for d in range(max_stage + 1):
        if d:
            lo, hi = _on(*point_bracket(p, d), gen.grid(d))
            comps = [c for parent in comps for c in gen._cached_children(d, *parent)
                     if c[0] <= hi and c[1] >= lo]
        if not comps:
            return Membership(OUT, d)
    return Membership(UNKNOWN, None)


def _carried_walk(held: dict, gen: CantorGen, br: Triple, e: int,
                  rightward: bool) -> Iterator[Pair]:
    """gen's stage-e walk (``CantorGen.walk``) from a point's stage-e
    bracket br = (lo, hi, q): rightward from lo, leftward from hi.
    Brackets nest, so both starts move inward from stage to stage, and
    held keeps each walk as a ``tee`` of what it has yielded: the next
    stage's walk reads the children of those instead of descending
    again.  Only a walk's first stage past the memoised covers descends
    from the deepest of them."""
    n, q = (br[0] if rightward else br[1]), br[2]
    d, comps = held.get((gen, rightward), (e, None))
    if comps is None or e < len(gen._stage_memo):
        # a memoised cover answers by one bisection
        d, comps = e, tee(gen.walk(e, n, q, rightward), 1)[0]
    while d < e:
        d += 1
        comps = tee(gen._walk_children(d, copy(comps), n, q, rightward), 1)[0]
    held[gen, rightward] = d, comps
    return copy(comps)


# ---------------------------------------------------------------------------
# intermediate sets via endpoint-removal schedules


@dataclass(frozen=True)
class ScheduleEntry:
    """One removal: an open neighborhood of an outer-set endpoint.  Frozen,
    since its ends are computed once per stage and kept."""

    index: int
    point: PointLike
    a: PointLike
    b: PointLike
    create_stage: int

    # ends(s) for s = create_stage, create_stage + 1, ..., as far as asked
    _ends: list = field(default_factory=list, init=False, repr=False, compare=False)

    def ends(self, d: int) -> tuple[int, int, int, int, int]:
        """(a.lo, a.hi, b.lo, b.hi, q): the ends of the anchors' brackets
        at stage max(d, create_stage), over one denominator q; each stage's
        computed once."""
        k = max(d - self.create_stage, 0)
        while len(self._ends) <= k:
            s = self.create_stage + len(self._ends)
            (alo, ahi, qa), (blo, bhi, qb) = point_bracket(self.a, s), point_bracket(self.b, s)
            q = lcm(qa, qb)
            self._ends.append((alo * (q // qa), ahi * (q // qa), blo * (q // qb),
                               bhi * (q // qb), q))
        return self._ends[k]

    def removal_open(self, d: int) -> Triple:
        """(lo, hi, q): the open interval (lo/q, hi/q) removed at stage
        d >= create_stage; grows with d."""
        _, lo, hi, _, q = self.ends(d)
        return lo, hi, q

    def hull(self, d: int) -> Triple:
        lo, _, _, hi, q = self.ends(d)
        return lo, hi, q

    @cached_property
    def widest_hull(self) -> Triple:
        """The create-stage hull; hulls shrink as brackets nest, so it holds
        removal_open(d) and hull(d) at every stage d."""
        return self.hull(self.create_stage)


@dataclass
class RemovalSchedule:
    entries: list[ScheduleEntry] = field(default_factory=list)
    reuses: list[tuple[PointLike, int]] = field(default_factory=list)
    # the widest hulls of the entries indexed so far, over one denominator
    # q: (lo, position) sorted, hi by position, q, and the widest width; a
    # hull meeting a window starts at most that far left of it
    _index: tuple = field(default=((), (), 1, 0), init=False, repr=False, compare=False)

    def meeting(self, lo: int, hi: int, q: int,
                live_at: Optional[int] = None) -> Iterator[ScheduleEntry]:
        """In order, the entries created by stage live_at (any, if None)
        whose widest hull meets the closed window [lo/q, hi/q]; no other
        hull meets it."""
        # the search appends entries, so index anew when it has
        if len(self._index[1]) < len(self.entries):
            hulls = [entry.widest_hull for entry in self.entries]
            iq = lcm(*(h[2] for h in hulls))
            self._index = (sorted((a * (iq // p), k) for k, (a, _, p) in enumerate(hulls)),
                           [b * (iq // p) for _, b, p in hulls], iq,
                           max((b - a) * (iq // p) for a, b, p in hulls))
        by_lo, his, iq, reach = self._index
        wlo, whi = _on(lo, hi, q, iq)
        first = bisect_left(by_lo, (wlo - reach,))
        last = bisect_right(by_lo, (whi, len(self.entries)))
        for k in sorted(k for _, k in by_lo[first:last] if his[k] >= wlo):
            entry = self.entries[k]
            if live_at is None or entry.create_stage <= live_at:
                yield entry


class IntermediateCantor(CantorGen):
    """Cantor set strictly between inner and outer nested generators.

    Processes the outer set's endpoints in discovery order; for each, an
    open bracket (a_n, b_n) around it is removed from the outer covers,
    with a_n, b_n denoted by alternating addresses into the outer cover
    tree (certified non-endpoints, disjoint from the inner covers and
    from every earlier removal bracket).  Each removal takes effect from
    the stage at which its brackets were isolated.
    """

    def __init__(self, inner: CantorGen, outer: CantorGen, budget: int,
                 search_ceiling: int = DEFAULT_SEARCH_CEILING):
        # with inner == outer or budget < 1 nothing would be removed, and
        # the set would not lie strictly between its neighbours
        if inner is outer:
            raise ValueError("inner and outer generators must differ")
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        super().__init__()
        self.inner = inner
        self.outer = outer
        self.budget = budget
        self.search_ceiling = search_ceiling
        # the first generator down the inner chain that is not intermediate
        self.bottom = inner.bottom if isinstance(inner, IntermediateCantor) else inner
        self._schedule: Optional[RemovalSchedule] = None
        # _holders[d][c]: the outer stage-d component holding the stage-d
        # component c that _children_of made, both as numerator pairs
        self._holders: dict[int, dict[Pair, Pair]] = {}

    def describe(self) -> str:
        return (f"IC(inner={self.inner.describe()},outer={self.outer.describe()},"
                f"budget={self.budget})")

    @cached_property
    def _q0(self) -> int:
        # a hole ends on the outer grid or at a rational anchor
        return lcm(self.outer._q0, *(x.denominator for entry in self.schedule().entries
                                     for x in (entry.a, entry.b) if isinstance(x, Fraction)))

    # -- schedule construction ------------------------------------------

    def schedule(self) -> RemovalSchedule:
        if self._schedule is None:
            self._schedule = self._build_schedule()
        return self._schedule

    def _build_schedule(self) -> RemovalSchedule:
        """Each outer endpoint, in discovery order, is reused or scheduled
        at the first stage that isolates it.  The search starts where the
        inner cover first misses the endpoint: inside that cover no gap
        can hold it.  Its walks are carried from stage to stage."""
        sched = RemovalSchedule()
        for p in self.outer.endpoints(self.budget):
            pm = point_membership(self.inner, p, self.search_ceiling)
            if not pm.is_out:
                raise BracketSearchError(
                    f"outer endpoint {p!r} not certified outside the inner set "
                    f"by stage {self.search_ceiling}")
            stages = range(max(2, pm.decided_at_stage or 0), self.search_ceiling + 1)
            walks: dict = {}
            if not any(self._try_stage(sched, p, point_bracket(p, e), e, walks) for e in stages):
                raise BracketSearchError(f"bracket search for endpoint {p!r} "
                                         f"exhausted at stage {self.search_ceiling}")
        return sched

    def _try_stage(self, sched: RemovalSchedule, p: PointLike,
                   br: Triple, e: int, walks: dict) -> bool:
        """Record p at stage e, as a reuse of an earlier removal that
        swallows its bracket br = (lo, hi, q) or as a new entry; False if
        br needs refinement.  walks holds p's walks (``_carried_walk``)."""
        # already swallowed by an earlier removal?
        for entry in sched.meeting(*br, live_at=e):
            rlo, rhi, rq = entry.removal_open(e)
            lo, hi = _on(*br, rq)
            if rlo < lo and hi < rhi:
                sched.reuses.append((p, entry.index))
                return True
        gap = self._free_gap(sched, br, e, walks)
        if gap is None:
            return False
        lo, hi, q = gap
        f = q // br[2]
        # each anchor from the outer walk that starts at its bracket end
        a = self._anchor(_carried_walk(walks, self.outer, br, e, False),
                         lo, br[0] * f, q, e, True)
        b = None if a is None else self._anchor(_carried_walk(walks, self.outer, br, e, True),
                                                br[1] * f, hi, q, e, False)
        if b is None:
            return False
        # an anchor component becomes an address only once both are found
        a, b = (x if isinstance(x, Fraction) else CantorAddress.for_component(self.outer, x, e)
                for x in (a, b))
        sched.entries.append(ScheduleEntry(len(sched.entries), p, a, b, e))
        return True

    def _free_gap(self, sched: RemovalSchedule, br: Triple, e: int,
                  walks: dict) -> Optional[Triple]:
        """(lo, hi, q): the gap (lo/q, hi/q) in [0, 1] of inner.stage(e)
        and the hulls live at e that holds br strictly inside, q a multiple
        of br's; None if there is none yet.  That is the component of
        ``(inner ∪ hulls).complement_in(UNIT)`` holding br, found by
        walking the inner stage-e components outward from br (walks holds
        the point's walks, ``_carried_walk``) and clipping by each hull
        that can still narrow it, with no cover built."""
        blo, bhi, bq = br
        g = self.inner.grid(e)

        # complement_in's closure swallows isolated points, so only the
        # nondegenerate inner components bound the gap
        def nearest(rightward: bool) -> Optional[Pair]:
            return next((c for c in _carried_walk(walks, self.inner, br, e, rightward)
                         if c[0] < c[1]), None)

        right = nearest(True)
        if right is not None and right[0] * bq <= bhi * g:
            return None
        # no nondegenerate component from blo on starts by bhi, so the
        # nearest one leftward from bhi is the nearest leftward from blo
        left = nearest(False)
        lo = left[1] if left is not None else 0
        hi = right[0] if right is not None else g
        # a hull outside [lo, hi], or only touching it, can neither meet
        # br nor narrow the gap, so the first window serves to the end
        hulls = [entry.hull(e) for entry in sched.meeting(lo, hi, g, live_at=e)]
        q = lcm(g, bq, *(h[2] for h in hulls))
        lo, hi, blo, bhi = lo * (q // g), hi * (q // g), blo * (q // bq), bhi * (q // bq)
        for hlo, hhi, hq in hulls:
            f = q // hq
            if hhi * f < blo:
                lo = max(lo, hhi * f)
            elif hlo * f > bhi:
                hi = min(hi, hlo * f)
            else:
                return None  # refine until the hull releases the point
        if lo < blo and bhi < hi:
            return lo, hi, q
        return None

    def _anchor(self, walk: Iterator[Pair], lo: int, hi: int, q: int, e: int,
                left: bool) -> Union[Pair, Fraction, None]:
        """Removal anchor strictly inside the open interval (lo/q, hi/q),
        given the outer stage-e walk toward it from the bracket at its hi
        end (if left) or lo end: the first component strictly inside that
        persists, over outer.grid(e), for an alternating address; the
        interval's far end x itself when the outer set provably has no
        points strictly inside and x is not a point of it; or None (needs
        refinement)."""
        # the outer grid points strictly inside; a component meets the
        # open interval iff it meets the closed window they span
        g = self.outer.grid(e)
        glo, ghi = lo * g // q + 1, -(-hi * g // q) - 1
        around = False
        for c in walk:
            if (c[1] < glo) if left else (c[0] > ghi):
                break   # past the window
            if c[0] <= ghi and c[1] >= glo:
                around = True
                if glo <= c[0] and c[1] <= ghi and self.outer.component_persists(e, *c, g):
                    return c
        # no component meets the open interval: no point of the set does
        if not around:
            x = Fraction(lo if left else hi, q)
            # only anchor on the gap edge itself when that edge is provably
            # not a point of the outer set; otherwise a degenerate hull
            # there would block the edge point's own schedule entry forever
            if x == ZERO or x == ONE or self.outer.membership(x, e).is_out:
                return x
        return None

    # -- covers and queries ---------------------------------------------

    def _compute_stage(self, d: int) -> IntervalSet:
        # every hull lies in [0, 1], and every live hole on grid(d)
        q = self.grid(d)
        return self.outer.stage(d).subtract_opens(
            q, [_on(*entry.removal_open(d), q)
                for entry in self.schedule().meeting(0, 1, 1, live_at=d)])

    def _children_of(self, d: int, lo: int, hi: int) -> list[Pair]:
        """The outer pieces meeting the parent less the holes meeting it;
        the pieces beyond it that other holes would cut do not meet it.
        The outer pieces are the children of the outer component holding
        the parent, where _children_of made the parent, and otherwise
        those ``outer.near`` finds."""
        p, q, g = self.grid(d - 1), self.grid(d), self.outer.grid(d)
        holder = self._holders.get(d - 1, {}).get((lo, hi))
        if holder is None:
            outer = self.outer.near(d, lo, hi, p)
        else:
            wlo, whi = _on(lo, hi, p, g)
            outer = [c for c in self.outer._cached_children(d, *holder)
                     if c[0] <= whi and c[1] >= wlo]
        pieces = [_on(a, b, g, q) for a, b in outer]
        holes = [_on(*entry.removal_open(d), q)
                 for entry in self.schedule().meeting(lo, hi, p, live_at=d)]
        if holes and pieces:
            cut = IntervalSet.over(q, *zip(*pieces)).subtract_opens(q, holes)
            children = [c for c in zip(*cut.numerators()) if c[0] <= 3 * hi and c[1] >= 3 * lo]
        else:
            children = pieces
        # each child lies in one outer piece; pieces and children ascend
        held, k = self._holders.setdefault(d, {}), 0
        for c in children:
            while pieces[k][1] < c[1]:
                k += 1
            held[c] = outer[k]
        return children

    def component_persists(self, d: int, lo: int, hi: int, q: int) -> bool:
        # slivers left beside a growing removal get eaten at deeper
        # stages, so only hull-free components are certified to survive
        if not self.outer.component_persists(d, lo, hi, q):
            return False
        for entry in self.schedule().meeting(lo, hi, q):
            hlo, hhi, hq = entry.hull(d)
            wlo, whi = _on(lo, hi, q, hq)
            if hlo <= whi and wlo <= hhi:
                return False
        return True

    def membership(self, t: Fraction, max_stage: int = DEFAULT_MAX_STAGE) -> Membership:
        # every removal hole lies in a gap of the inner covers, so inner <=
        # this set and an IN from it is final; an intermediate set says IN
        # only through its inner set, so the bottom of the inner chain
        # answers IN for the whole chain
        if self.bottom.membership(t, max_stage).is_in:
            return Membership(IN)
        d = self.first_out(t, max_stage)
        return Membership(UNKNOWN, None) if d is None else Membership(OUT, d)

    def first_out(self, t: Fraction, max_stage: int) -> Optional[int]:
        # an anchor's limit point stays inside every hull, so a walk with
        # no depth bound need not end there
        if max_stage is None:
            raise ValueError("an intermediate set's first_out needs a max_stage")
        return self._hole_exit(t, max_stage, self.outer.first_out(t, max_stage))

    def _hole_exit(self, t: Fraction, max_stage: int,
                   outer_exit: Optional[int]) -> Optional[int]:
        """``first_out`` given the outer set's, outer_exit: stage(d) is
        outer.stage(d) less the holes live at d, so t leaves it with the
        outer set or in the first hole that opens over it."""
        stop = max_stage + 1 if outer_exit is None else outer_exit
        n, m = t.numerator, t.denominator
        for entry in self.schedule().meeting(n, n, m):
            for s in range(entry.create_stage, stop):
                hlo, lo, hi, hhi, q = entry.ends(s)
                t_lo, t_hi = _on(n, n, m, q)   # the ceiling and floor of t*q
                # hulls nest: once t is outside one, no later hole holds it
                if not (hlo <= t_hi and t_lo <= hhi):
                    break
                if lo < t_lo and t_hi < hi:
                    stop = s
                    break
        return None if stop > max_stage else stop

    def endpoints(self, count: int) -> list[CantorAddress]:
        out: list[CantorAddress] = []
        for entry in self.schedule().entries:
            out.extend(anchor for anchor in (entry.a, entry.b)
                       if isinstance(anchor, CantorAddress))
        return out[:count]


# ---------------------------------------------------------------------------
# the dyadic family


C1_BASE = ClosedInterval(Fraction(1, 4), Fraction(3, 4))


class CantorFamily:
    """Nested Cantor sets indexed by the dyadics k / 2^level in [0, 1].

    Larger indices give smaller sets; refining the level inserts new
    sets between existing ones without changing any constructed set.
    ``members`` holds them in build order: C_0, C_1, then level by level.
    """

    def __init__(self, level: int, stage_budget: int,
                 members: dict[Fraction, CantorGen]):
        self.level = level
        self.stage_budget = stage_budget
        self.members = members

    def grid(self) -> list[Fraction]:
        return sorted(self.members)

    def member(self, r: Fraction) -> CantorGen:
        return self.members[r if isinstance(r, Fraction) else Fraction(r)]

    @property
    def c0(self) -> GapAttachedCantor:
        return self.members[ZERO]

    @property
    def c1(self) -> MiddleThirds:
        return self.members[ONE]

    def covers(self, stage: int) -> Iterator[tuple[Fraction, int, IntervalSet]]:
        """(r, d, C_r.stage(d)) for every member and every d <= stage,
        each cover built as it is reached: member by member in build
        order, the order of ``members``, which puts each intermediate
        set after its inner and outer sets, and depth by depth within a
        member.  So each removal-schedule search, run as its member's
        stage 0 is built, reads its neighbours' covers memoised through
        depth stage instead of descending to them from depth 0."""
        for r, gen in self.members.items():
            for d in range(stage + 1):
                yield r, d, gen.stage(d)

    def check_nesting(self, stage: int) -> dict:
        """Exact cover inclusion stage_d(C_r) <= stage_d(C_s) for r > s
        at every depth d <= stage."""
        grid = self.grid()
        failures = []
        checked = 0
        for i, s in enumerate(grid):
            for r in grid[i + 1:]:
                for d in range(stage + 1):
                    checked += 1
                    if not self.member(r).stage(d).issubset(self.member(s).stage(d)):
                        failures.append({"r": str(r), "s": str(s), "stage": d})
        return {"checked": checked, "failures": failures, "ok": not failures}


def build_family(level: int, stage_budget: int,
                 search_ceiling: int = DEFAULT_SEARCH_CEILING) -> CantorFamily:
    """Dyadic family at the given level via repeated bisection."""
    if level < 0:
        raise ValueError("level must be >= 0")
    c1 = MiddleThirds(C1_BASE)
    c0 = GapAttachedCantor(c1)
    members: dict[Fraction, CantorGen] = {ZERO: c0, ONE: c1}
    for lev in range(1, level + 1):
        denom = 2 ** lev
        step = Fraction(1, denom)
        for k in range(1, denom, 2):
            r = Fraction(k, denom)
            inner = members[r + step]   # larger index: smaller set
            outer = members[r - step]
            members[r] = IntermediateCantor(inner, outer, stage_budget,
                                            search_ceiling)
    return CantorFamily(level, stage_budget, members)
