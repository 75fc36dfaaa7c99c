"""The two exact Cantor sets of the family and their local cover tree.

Two generator kinds:

* :class:`MiddleThirds` -- the standard middle-thirds set on a rational
  base interval.
* :class:`GapAttachedCantor` -- the enlarged set built by attaching a
  pair of scaled middle-thirds sets to every maximal gap of a
  middle-thirds set within a slightly wider window; it holds that core
  set, and the two share no endpoint.

Every generator exposes nested stage covers (normalized
:class:`~gillab.exact.IntervalSet` values) whose intersection is the
represented set; identical build parameters yield bit-identical covers.
Each generator has one grid: every stage-d end of it is an int over
``grid(d)``, its own q0 times 3^d.  A generator states its rules on
that grid and :class:`CantorGen` runs the memos and walks:
``_compute_stage`` builds a whole cover, and ``_children_of`` refines
one component, a numerator pair, memoised by (d, lo, hi).  ``near(d,
lo, hi, q)`` (the stage-d components meeting [lo/q, hi/q]) and
``walk(held, d, n, q, rightward)`` (those from n/q outward) descend
that tree from the deepest memoised cover, so a query about one window
builds no deep cover.  Above that depth a component's children are read
off the memoised cover, by one bisection, and ``_children_of`` runs only
past it.  The generator owns its walks and its sweeps: ``walk`` carries
a point's walk held in ``held`` one depth at a time, and sweeps a depth
once the walks past the memoised covers there have paid for its cover
(``SWEEP_RATIO``).  One child-window step, ``_descend``, keeps the
children of some stage-(d-1) components that meet a window on grid(d).
A rational window or point enters once, by ``_on``'s ceiling and floor
at the grid; Fractions appear only at the edge: in cover components,
endpoints and the gaps ``gap_of`` gives.

A point query is int work too: ``first_out``, ``gap_of`` and
``membership`` read t = n/m once as its numerator and denominator, and
test the base, window and unit by comparing int products, so no query
compares two Fractions.  One middle-thirds point rule on an int base,
``_thirds_exit``, answers the middle-thirds set, the gap-attached set's
core and each of its attachments, so the gap-attached set makes no
attachment object.  One middle-thirds cover rule on an int base, the
index list ``_kept(k)`` of the slots a stage-k cover keeps, gives the
pieces (``_pieces``) of the middle-thirds covers and the gap-attached
sweeps, and the core gaps (``_gaps``) those sweeps attach to.  That
list is one local rule, ``_kept_children``, applied stage by stage:
slot m is kept iff m % 3 != 1 and its parent slot m // 3 is kept.  The
gap-attached set's ``_children_of`` takes that one step once per base,
from the parent slots that lie inside the component it refines, so a
descent is linear in its depth, and the gap-attached set calls no
method of its core.  One rule, ``_slot_pieces``, turns slots into
pieces for ``_pieces`` and ``_children_of``.  There is one endpoint
rule, in :class:`CantorGen`: an endpoint is first found at the first
stage whose cover has it as a component end, every end of
``stage(0)`` at stage 0.

For both kinds both ends of every stage-d component are points of the
set, so each component of ``stage(d).complement_in(UNIT)`` is the
closure of a maximal gap of {0} + set + {1}, and ``gap_of`` is the
query for the gap holding one point (None for a point of the set).

Membership is point-local: each generator states ``first_out(t,
max_stage)``, the first depth whose cover misses t, from one walk of
t's ternary digits and the core gap holding it.  So a verdict ``OUT d``
means t lies outside ``stage(d)``, and both kinds are exact.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import tee
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

from .exact import ClosedInterval, IntervalSet, ZERO, ONE, _normalize, _on, _over

IN = "in"
OUT = "out"
UNKNOWN = "unknown"

DEFAULT_MAX_STAGE = 12

# A walk past the memoised covers costs about what a sweep pays for
# SWEEP_RATIO components.  Building level 3/56's schedules from no cover
# (CPython 3.11, 2-core x86-64 container, 5 runs each) took 60-67 ms at
# 64, 64-74 ms at 16 and at 256, 72-76 ms at 4, 70-79 ms at 1024 and
# 74-121 ms at 1; sweeping each depth at its first walk took 89-99 ms.
SWEEP_RATIO = 64

Pair = tuple[int, int]
# a window (lo, hi, q), or a depth and a pair (d, lo, hi)
Triple = tuple[int, int, int]


@dataclass(frozen=True)
class Membership:
    """Three-valued membership verdict.

    ``out`` with depth d is definitive: the point lies outside
    ``stage(d)``, and d is the first such depth.  ``in`` is exact for the
    middle-thirds and gap-attached sets; a generator whose covers do not
    decide it gives ``in`` only by a certificate of its own.
    ``unknown`` invites refinement.
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
        # the walks made at each depth past the memoised covers, which
        # decide when ``walk`` sweeps that depth
        self._walks_past_memo: dict[int, int] = {}

    def _compute_stage(self, d: int) -> IntervalSet:
        raise NotImplementedError

    def _children_of(self, d: int, lo: int, hi: int) -> Sequence[Pair]:
        """Stage-d components, over grid(d), inside the stage-(d-1)
        component [lo, hi] over grid(d-1), in order."""
        raise NotImplementedError

    def grid(self, d: int) -> int:
        """The denominator every stage-d end is an int over."""
        return self._q0 * 3 ** d

    def stage(self, d: int) -> IntervalSet:
        """Depth-d cover, over grid(d); computed at most once per depth."""
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
        """The ends of the stage-s components that no stage-(s-1) component
        has, ascending: every end of stage(0), then the new cover ends."""
        q = self.grid(s)
        old = {x for ends in self.stage(s - 1).numerators(q) for x in ends} if s else ()
        lo, hi = self.stage(s).numerators()
        return [Fraction(x, q) for pair in zip(lo, hi) for x in pair if x not in old]

    def near(self, d: int, lo: int, hi: int, q: int) -> list[Pair]:
        """Stage-d components meeting the closed window [lo/q, hi/q], in
        order, over grid(d).  The covers nest and their components never
        touch, so every one lies in a stage-(d-1) component meeting it."""
        # descend from the deepest memoised cover (stage 0 if none is)
        start = min(d, max(len(self._stage_memo) - 1, 0))
        cover = self.stage(start)
        clo, chi = cover.numerators()
        comps = [(clo[k], chi[k]) for k in cover.overlapping(lo, hi, q)]
        for k in range(start + 1, d + 1):
            comps = self._descend(k, comps, lo, hi, q)
        return comps

    def _descend(self, d: int, parents: Sequence[Pair], lo: int, hi: int,
                 q: int) -> list[Pair]:
        """The children of the stage-(d-1) components parents, in order,
        that meet the closed window [lo/q, hi/q], over grid(d)."""
        wlo, whi = _on(lo, hi, q, self.grid(d))
        return [c for parent in parents for c in self._cached_children(d, *parent)
                if c[0] <= whi and c[1] >= wlo]

    def walk(self, held: dict, d: int, n: int, q: int, rightward: bool) -> Iterator[Pair]:
        """Stage-d components over grid(d) from x = n/q outward, lazily: left
        to right those with hi >= x, or right to left those with lo <= x.
        held keeps one point's walks, by (generator, direction), each as a
        ``tee`` of what it has yielded.  The point's brackets nest, so a
        walk at a deeper depth starts at or past the held walk's start in
        its direction, and it reads the children of what that yielded, one
        depth at a time, instead of descending again.  A walk with none held, or at a
        memoised depth, starts from the deepest memoised cover by one
        bisection.

        Rent or buy (Karlin, Manasse, Rudolph and Sleator, 1988): each walk
        past the memoised covers is counted at its depth d, and once the
        walks counted there, SWEEP_RATIO each, reach the estimated size of
        stage(d), that cover is swept, and the walks at d bisect it.  The
        estimate doubles the deepest memoised cover's component count per
        depth, so the few walks at deep depths keep descending."""
        if d >= len(self._stage_memo):
            walks = self._walks_past_memo[d] = self._walks_past_memo.get(d, 0) + 1
            top = max(len(self._stage_memo), 1) - 1
            if walks * SWEEP_RATIO >= len(self.stage(top)) << (d - top):
                self.stage(d)
        k, comps = held.get((self, rightward), (d, None))
        if comps is None or d < len(self._stage_memo):
            k = min(d, len(self._stage_memo) - 1)
            cover = self.stage(k)
            clo, chi = cover.numerators()
            comps = ((clo[i], chi[i]) for i in cover.outward(n, q, rightward))
        else:
            comps = copy(comps)
        while k < d:
            k += 1
            comps = self._walk_children(k, comps, n, q, rightward)
        comps = tee(comps, 1)[0]
        held[self, rightward] = d, comps
        return copy(comps)

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
                children = tuple((clo[k], chi[k])
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
        (one whose walk may not end rejects it)."""
        raise NotImplementedError

    def endpoints(self, count: int) -> list[Fraction]:
        """The first `count` endpoints, stage by stage in discovery order."""
        out: list[Fraction] = []
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
        refinement: then it meets the set, and a branch path through it
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


def _kept_children(parents: Iterable[int]) -> list[int]:
    """The local rule, one slot step: given parents, slots that the
    stage-(k-1) middle-thirds cover of [0, 1] keeps, ascending, the slots
    its stage-k cover keeps among their children, ascending.  Slot m is
    kept iff m % 3 != 1 and its parent slot m // 3 is kept."""
    return [c for m in parents for c in (3 * m, 3 * m + 2)]


@cache
def _kept(k: int) -> tuple[int, ...]:
    """The m < 3^k whose k ternary digits are all 0 or 2, ascending: the
    slots [m, m + 1] / 3^k that the stage-k middle-thirds cover of [0, 1]
    keeps, by the local rule from stage 0, which keeps slot 0."""
    if k == 0:
        return (0,)
    return tuple(_kept_children(_kept(k - 1)))


def _slot_pieces(x: int, w: int, slots: Iterable[int]) -> list[Pair]:
    """The pieces [x + m w, x + m w + w] of the slots m, in their order."""
    return [(x + m * w, x + m * w + w) for m in slots]


def _pieces(x: int, w: int, k: int) -> list[Pair]:
    """The stage-k cover of the middle-thirds set on the base [x, x +
    3^k w], ascending: the pieces of the slots in _kept(k)."""
    return _slot_pieces(x, w, _kept(k))


def _gaps(x: int, w: int, k: int) -> list[Pair]:
    """The gaps the middle-thirds set on the base [x, x + 3^(k+1) w] opens
    at stage k + 1, ascending: the middle thirds (x + (3m+1) w, x +
    (3m+2) w) of its stage-k pieces."""
    return [(x + (3 * m + 1) * w, x + (3 * m + 2) * w) for m in _kept(k)]


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
    and of each attachment base, merged once; ``gaps_of_generation``
    reads the core's gaps (``_gaps``), and ``_children_of`` takes one
    slot step (``_kept_children``) from the slots of each base that lie
    inside one component.  The point queries run ``_thirds_exit`` on the
    core's base, then on each attachment base of the core gap holding t,
    so no path calls a method of the core.
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

    def _children_of(self, d: int, lo: int, hi: int) -> list[Pair]:
        """The core pieces meeting the parent and the attachment pieces of
        the core gaps meeting it, joined where they touch."""
        p, q = self.grid(d - 1), self.grid(d)

        def meeting(x: int, w: int, k: int) -> list[Pair]:
            # the stage-k pieces of the base, 3^k w wide, that meet the
            # parent [3lo, 3hi]; at k = 0 the base itself
            if k == 0:
                return [(x, x + w)] if x <= 3 * hi and x + w >= 3 * lo else []
            # the stage-(k-1) slots, 3w wide, that lie inside the parent
            # are the ones that stage keeps among those meeting it: a kept
            # slot meeting the parent lies inside it, and a dropped one
            # has an open middle third that no piece of this set meets; so
            # their kept children are the pieces meeting the parent
            inside = range(max(0, -((x - 3 * lo) // (3 * w))),
                           min(3 ** (k - 1), (3 * hi - x) // (3 * w)))
            return _slot_pieces(x, w, _kept_children(inside))

        (_, a), (b, _) = self._side_gaps   # the core's base over grid(0)
        pieces = meeting(a * 3 ** d, b - a, d)
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
                pieces += meeting(x, w, d - g)
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
