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
represented set.  Identical build parameters yield bit-identical covers.
A cover holds int numerators over one denominator, and every stage-d end
of every member lies on the grid 1/(24*3^d).  ``_compute_stage`` builds
each cover in ints: the middle thirds from the parent numerators, the
gap-attached cover as the union of the core and attachment covers over
one denominator, and an intermediate cover by subtracting its holes in
ints from the outer one.  Fractions appear only at the edge: in the
components a query returns, and in the local cover tree (``near``,
``walk`` and ``_children_of``), which stays on ClosedInterval values.
For the middle-thirds and gap-attached sets both ends of every stage-d
component are points of the set, so each component of
``stage(d).complement_in(UNIT)`` is the closure of a maximal gap of
{0} + set + {1}: a reader of those gaps takes them off the cover, and
``gap_of`` is the query for the gap holding one point (None for a point
of the set).  An intermediate set makes no such claim.

:class:`CantorGen` runs every memo and walk; a generator states only its
rules: ``_compute_stage`` (a whole cover), ``_children_of`` (the children
of one component) and ``_discover_endpoints`` (the endpoints first seen
at one stage).  Beside the memoised covers (``stage``) each generator
answers one local query, ``near(d, window)``: the stage-d components
meeting a closed window, descended from those of stage d-1 when no cover
is memoised.  Addresses walk the cover tree through ``near`` alone, with
[0, 1] as the window of the roots, and the removal-schedule search reads
only local answers, so building a family never materialises a deep cover
it does not report.

Membership is point-local too.  Each generator states one point query,
``first_out(t, max_stage)``: the first depth whose cover misses t, found
from one walk of t's ternary digits (on integers), the core gap holding
t and the removal holes around it, with no cover built.  ``membership``
reads it, so a verdict ``OUT d`` means t lies outside ``stage(d)`` for
every generator.  The middle-thirds and gap-attached sets are exact: the
walk ends for every rational, and a point that never leaves is IN.
An intermediate set says IN only by its inner set's certificate and
UNKNOWN when neither that nor its covers to ``max_stage`` decide.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .errors import BracketSearchError
from .exact import UNIT, ClosedInterval, IntervalSet, ZERO, ONE

IN = "in"
OUT = "out"
UNKNOWN = "unknown"

DEFAULT_MAX_STAGE = 12
DEFAULT_SEARCH_CEILING = 15


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

    def __init__(self):
        self._stage_memo: list[IntervalSet] = []
        self._endpoint_stages: list[list[Fraction]] = []
        self._children_memo: dict[tuple[int, ClosedInterval],
                                  tuple[ClosedInterval, ...]] = {}

    def _compute_stage(self, d: int) -> IntervalSet:
        raise NotImplementedError

    def _children_of(self, d: int, comp: ClosedInterval) -> Sequence[ClosedInterval]:
        """Stage-d components inside the stage-(d-1) component comp, in order."""
        raise NotImplementedError

    def _discover_endpoints(self, s: int) -> list[Fraction]:
        """Endpoints first discovered at stage s, in order."""
        raise NotImplementedError

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

    def near(self, d: int, window: ClosedInterval) -> list[ClosedInterval]:
        """Stage-d components meeting the closed window, in order.

        Equals ``stage(d).components_overlapping(window)`` but builds no
        cover deeper than the memo holds: the covers nest and their
        components never touch, so every stage-d component meeting the
        window lies in a stage-(d-1) component meeting it.
        """
        # a stage-(d-1) component holds all the stage-d components that
        # meet it, since distinct components never touch; only the top
        # depth is looked up, as hashing the window costs about as much
        # as one step of the descent
        if d >= len(self._stage_memo):
            children = self._children_memo.get((d, window))
            if children is not None:
                return list(children)
        # descend from the deepest memoised cover (stage 0 if none is)
        start = min(d, max(len(self._stage_memo) - 1, 0))
        cover = self.stage(start)
        comps = [(cover if start else self._roots)[k] for k in cover.overlapping(window)]
        for k in range(start + 1, d + 1):
            comps = [c for parent in comps
                     for c in self._cached_children(k, parent) if c.intersects(window)]
        return comps

    @cached_property
    def _roots(self) -> tuple[ClosedInterval, ...]:
        """``stage(0).components``, made once: most descents start at
        them, and the same objects make the children memo's keys compare
        by identity."""
        return self.stage(0).components

    def walk(self, d: int, x: Fraction, rightward: bool) -> Iterator[ClosedInterval]:
        """Stage-d components from x outward, lazily: left to right those
        with hi >= x, or right to left those with lo <= x."""
        if d < len(self._stage_memo) or d == 0:
            cover = self.stage(d)
            return map((cover if d else self._roots).__getitem__, cover.outward(x, rightward))
        if rightward:
            return (c for parent in self.walk(d - 1, x, True)
                    for c in self._cached_children(d, parent) if c.hi >= x)
        return (c for parent in self.walk(d - 1, x, False)
                for c in reversed(self._cached_children(d, parent)) if c.lo <= x)

    def _cached_children(self, d: int, comp: ClosedInterval) -> tuple[ClosedInterval, ...]:
        """`_children_of`, memoised by (d, comp)."""
        key = (d, comp)
        children = self._children_memo.get(key)
        if children is None:
            children = self._children_memo[key] = tuple(self._children_of(d, comp))
        return children

    def membership(self, t: Fraction, max_stage: int = DEFAULT_MAX_STAGE) -> Membership:
        """Exact verdict from ``first_out`` with no depth bound; max_stage
        is not read.  Only a generator whose ``first_out`` ends without a
        bound may use it."""
        d = self.first_out(t, None)
        return Membership(IN) if d is None else Membership(OUT, d)

    def first_out(self, t: Fraction, max_stage: Optional[int]) -> Optional[int]:
        """The first depth d <= max_stage (any d, if None) with t outside
        stage(d), or None; equal to walking the covers, but builds none
        of them."""
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
        """Canonical parameter string; names the member in family reports
        and cache payloads, and tells generators apart."""
        raise NotImplementedError

    def component_persists(self, comp: ClosedInterval, d: int) -> bool:
        """Whether the stage-d cover component survives all refinement.

        True guarantees the component meets the represented set, so an
        address anchored on it can be refined forever.
        """
        return True


# ---------------------------------------------------------------------------
# middle-thirds generator


def _ternary_exit(u: Fraction, digits: Optional[int]) -> Optional[tuple[int, int]]:
    """The first digit k < digits (any k, if None) at which u in [0, 1]
    falls into an open middle third, with the index m of the stage-k
    interval it falls from, so the gap is ((3m+1)/3^(k+1), (3m+2)/3^(k+1));
    None if u stays in the cover for all those digits.

    Ends for every rational even with no digit bound: the orbit
    u -> 3u / 3u-2 keeps the denominator q of u, so its numerators either
    exit through a middle third or repeat, and a repeat means u is in
    the set.
    """
    p, q = u.numerator, u.denominator
    seen = set()
    k = m = 0
    while digits is None or k < digits:
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

    def describe(self) -> str:
        return f"MT[{self.base.lo},{self.base.hi}]"

    def _children_of(self, d: int, comp: ClosedInterval) -> tuple[ClosedInterval, ClosedInterval]:
        w3 = comp.width / 3
        return (ClosedInterval(comp.lo, comp.lo + w3),
                ClosedInterval(comp.hi - w3, comp.hi))

    def _compute_stage(self, d: int) -> IntervalSet:
        if d == 0:
            return IntervalSet([self.base])
        # the thirds of [a, b] over q are [3a, 3a + (b-a)] and
        # [3b - (b-a), 3b] over 3q
        parent = self.stage(d - 1)
        lo: list[int] = []
        hi: list[int] = []
        for a, b in zip(*parent.numerators()):
            lo += (3 * a, a + 2 * b)
            hi += (2 * a + b, 3 * b)
        return IntervalSet.over(3 * parent.q, lo, hi)

    def _in_unit(self, t: Fraction) -> Fraction:
        """t rescaled so that the base becomes [0, 1]."""
        return (t - self.base.lo) / self.base.width

    def _gap(self, k: int, m: int) -> tuple[Fraction, Fraction]:
        """The gap opened at stage k + 1 in the m-th stage-k component."""
        w = self.base.width / 3 ** (k + 1)
        return (self.base.lo + (3 * m + 1) * w, self.base.lo + (3 * m + 2) * w)

    def first_out(self, t: Fraction, max_stage: Optional[int]) -> Optional[int]:
        if not self.base.contains(t):
            return 0
        hit = _ternary_exit(self._in_unit(t), max_stage)
        return None if hit is None else hit[0] + 1

    def gap_of(self, t: Fraction) -> Optional[tuple[Fraction, Fraction]]:
        """Exact maximal gap (a, b) of the set within base containing t,
        or None for a point of the set.

        Raises ValueError for t outside base.
        """
        # the walk ends only for u in [0, 1]
        if not self.base.contains(t):
            raise ValueError(f"{t} lies outside the base of {self.describe()}")
        hit = _ternary_exit(self._in_unit(t), None)
        return None if hit is None else self._gap(*hit)

    def _discover_endpoints(self, s: int) -> list[Fraction]:
        """The base ends at stage 0; for s >= 1 the ends of the gaps
        opened at stage s, left to right in (left end, right end) pairs."""
        if s == 0:
            return [self.base.lo, self.base.hi]
        eps: list[Fraction] = []
        for c in self.stage(s - 1):
            left, right = self._children_of(s, c)
            eps += (left.hi, right.lo)
        return eps

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
    """

    def __init__(self, core: MiddleThirds):
        super().__init__()
        self.core = core
        span = core.base.width
        self.window = ClosedInterval(core.base.lo - span / 4, core.base.hi + span / 4)
        self._k_memo: dict[tuple[Fraction, Fraction], tuple[MiddleThirds, MiddleThirds]] = {}

    def describe(self) -> str:
        return f"GA({self.core.describe()})"

    def gaps_of_generation(self, g: int) -> list[tuple[Fraction, Fraction]]:
        if g == 0:
            return [(self.window.lo, self.core.base.lo),
                    (self.core.base.hi, self.window.hi)]
        ends = self.core.new_endpoints(g)
        return list(zip(ends[::2], ends[1::2]))

    def attachments(self, gap: tuple[Fraction, Fraction]) -> tuple[MiddleThirds, MiddleThirds]:
        pair = self._k_memo.get(gap)
        if pair is None:
            a, b = gap
            w3 = (b - a) / 3
            pair = (MiddleThirds(ClosedInterval(a, a + w3)),
                    MiddleThirds(ClosedInterval(b - w3, b)))
            self._k_memo[gap] = pair
        return pair

    def _compute_stage(self, d: int) -> IntervalSet:
        # the core cover and the cover of every attachment of a core gap
        # opened by stage d, joined over one denominator
        return IntervalSet.union_of(
            [self.core.stage(d)] + [k.stage(d - g) for g in range(d + 1)
                                    for gap in self.gaps_of_generation(g)
                                    for k in self.attachments(gap)])

    def _children_of(self, d: int, comp: ClosedInterval) -> list[ClosedInterval]:
        """The stage-d components inside comp, in order, with no sort.

        The attachment pieces of the core gap left of the first core
        piece meeting comp come first, then each core piece with those
        of the gap after it; the pieces that touch are joined.
        """
        core_pieces = self.core.near(d, comp)
        out: list[ClosedInterval] = []

        def emit(c: ClosedInterval) -> None:
            if out and c.lo <= out[-1].hi:
                if c.hi > out[-1].hi:
                    out[-1] = ClosedInterval(out[-1].lo, c.hi)
            else:
                out.append(c)

        def emit_gap(g: int, gap: tuple[Fraction, Fraction]) -> None:
            for k in self.attachments(gap):
                for c in k.near(d - g, comp):
                    emit(c)

        # an end of comp outside the core pieces lies in a core gap opened
        # by stage d, so that gap's attachments are in the stage-d cover
        if not core_pieces or comp.lo < core_pieces[0].lo:
            emit_gap(*self._core_exit(comp.lo, d))
        for c, nxt in zip(core_pieces, core_pieces[1:]):
            emit(c)
            emit_gap(*self._core_exit((c.hi + nxt.lo) / 2, d))
        if core_pieces:
            emit(core_pieces[-1])
            if comp.hi > core_pieces[-1].hi:
                emit_gap(*self._core_exit(comp.hi, d))
        return out

    def _core_exit(self, t: Fraction, max_stage: Optional[int]
                   ) -> Optional[tuple[int, tuple[Fraction, Fraction]]]:
        """For t in the window, (g, gap): the maximal gap of the core
        within the window holding t and its generation g, which is the
        first core depth missing t; None if the core holds t to depth
        max_stage (for ever, if None).  One walk of t's ternary digits."""
        core = self.core
        if t < core.base.lo:
            return 0, (self.window.lo, core.base.lo)
        if t > core.base.hi:
            return 0, (core.base.hi, self.window.hi)
        hit = _ternary_exit(core._in_unit(t), max_stage)
        return None if hit is None else (hit[0] + 1, core._gap(*hit))

    def first_out(self, t: Fraction, max_stage: Optional[int]) -> Optional[int]:
        # outside the core t leaves the cover with its core gap, at the
        # gap's generation g, unless an attachment of that gap holds it
        # to depth g + (the attachment's own exit depth)
        if not self.window.contains(t):
            return 0
        hit = self._core_exit(t, max_stage)
        if hit is None:
            return None
        g, gap = hit
        for k in self.attachments(gap):
            if k.base.contains(t):
                sub = k.first_out(t, None if max_stage is None else max_stage - g)
                return None if sub is None else g + sub
        return g

    def gap_of(self, t: Fraction) -> Optional[tuple[Fraction, Fraction]]:
        """Exact maximal gap of {0} + this set + {1} containing t, or None
        for a point of the set.

        Raises ValueError for t outside [0, 1].
        """
        if not UNIT.contains(t):
            raise ValueError(f"{t} lies outside [0, 1]")
        if t < self.window.lo:
            return (ZERO, self.window.lo)
        if t > self.window.hi:
            return (self.window.hi, ONE)
        hit = self._core_exit(t, None)
        if hit is None:
            return None
        ka, kb = self.attachments(hit[1])
        for k in (ka, kb):
            if k.base.contains(t):
                return k.gap_of(t)
        return (ka.base.hi, kb.base.lo)

    def _discover_endpoints(self, s: int) -> list[Fraction]:
        """The stage-(s - g) endpoints of each generation-g attachment,
        in increasing order."""
        # attachment extremes landing on the core are interior points of
        # this set, not endpoints
        return sorted(p for g in range(s + 1)
                      for gap in self.gaps_of_generation(g)
                      for att in self.attachments(gap)
                      for p in att.new_endpoints(s - g)
                      if not self.core.membership(p).is_in)

    # see MiddleThirds.membership
    membership = CantorGen.membership
    endpoints = CantorGen.endpoints


# ---------------------------------------------------------------------------
# symbolic addresses


class CantorAddress:
    """Point of a generator named by a branch path through its cover tree.

    ``prefix[0]`` selects the root component of stage 0; ``prefix[k]``
    the child component at the stage k-1 -> k refinement.  Past the
    prefix the path alternates leftmost/rightmost child, which denotes a
    certified non-endpoint of the set.
    """

    __slots__ = ("gen", "prefix", "_brackets", "_flips")

    def __init__(self, gen: CantorGen, prefix: tuple[int, ...]):
        if not prefix:
            raise ValueError("address prefix must select a root component")
        self.gen = gen
        self.prefix = tuple(prefix)
        self._brackets: list[ClosedInterval] = []
        self._flips = 0

    def bracket(self, d: int) -> ClosedInterval:
        """Rational bracketing component at stage d; brackets nest."""
        while len(self._brackets) <= d:
            k = len(self._brackets)
            children = self.gen.near(k, self._brackets[-1] if k else UNIT)
            if not children:
                raise BracketSearchError(
                    f"cover component vanished while refining address {self}")
            if k < len(self.prefix):
                comp = children[self.prefix[k]]
            elif len(children) == 1:
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
    def for_component(gen: CantorGen, comp: ClosedInterval, stage: int) -> "CantorAddress":
        """Address whose stage-`stage` bracket is the given cover component."""
        path = []
        current = UNIT
        # walk the ancestor chain of comp through the covers
        for k in range(stage + 1):
            children = gen.near(k, current)
            idx = next((i for i, c in enumerate(children)
                        if c.contains_interval(comp)), None)
            if idx is None:
                raise BracketSearchError("component is not part of the stage cover")
            path.append(idx)
            current = children[idx]
        return CantorAddress(gen, tuple(path))


PointLike = Union[Fraction, CantorAddress]


def point_bracket(p: PointLike, d: int) -> ClosedInterval:
    if isinstance(p, CantorAddress):
        return p.bracket(d)
    return ClosedInterval(p, p)


def point_membership(gen: CantorGen, p: PointLike,
                     max_stage: int = DEFAULT_MAX_STAGE) -> Membership:
    """Membership of a rational or of an address-denoted point in gen."""
    if not isinstance(p, CantorAddress):
        return gen.membership(p, max_stage)
    if p.gen is gen:
        return Membership(IN, 0)
    for d in range(max_stage + 1):
        if not gen.near(d, p.bracket(d)):
            return Membership(OUT, d)
    return Membership(UNKNOWN, None)


# ---------------------------------------------------------------------------
# intermediate sets via endpoint-removal schedules


@dataclass
class ScheduleEntry:
    """One removal: an open neighborhood of an outer-set endpoint."""

    index: int
    point: PointLike
    a: PointLike
    b: PointLike
    create_stage: int

    def removal_open(self, d: int) -> tuple[Fraction, Fraction]:
        """Open interval removed at stage d >= create_stage; grows with d."""
        s = max(d, self.create_stage)
        return (point_bracket(self.a, s).hi, point_bracket(self.b, s).lo)

    def hull(self, d: int) -> ClosedInterval:
        s = max(d, self.create_stage)
        return ClosedInterval(point_bracket(self.a, s).lo, point_bracket(self.b, s).hi)

    @cached_property
    def widest_hull(self) -> ClosedInterval:
        """The create-stage hull, fixed once the entry exists; hulls
        shrink as brackets nest, so it holds removal_open(d) and hull(d)
        at every stage d."""
        return self.hull(self.create_stage)


@dataclass
class RemovalSchedule:
    entries: list[ScheduleEntry] = field(default_factory=list)
    reuses: list[tuple[PointLike, int]] = field(default_factory=list)
    # (widest_hull.lo, position) of every entry indexed so far, sorted,
    # and the widest hull's width: a hull meeting a window starts at
    # most that far left of it
    _by_lo: list[tuple[Fraction, int]] = field(
        default_factory=list, init=False, repr=False, compare=False)
    _reach: Fraction = field(default=ZERO, init=False, repr=False, compare=False)

    def meeting(self, window: ClosedInterval,
                live_at: Optional[int] = None) -> Iterator[ScheduleEntry]:
        """In order, the entries created by stage live_at (any, if None)
        whose widest hull meets the closed window; no other hull meets it."""
        # the search appends entries, so index those added since last time
        for k in range(len(self._by_lo), len(self.entries)):
            hull = self.entries[k].widest_hull
            insort(self._by_lo, (hull.lo, k))
            self._reach = max(self._reach, hull.width)
        first = bisect_left(self._by_lo, (window.lo - self._reach,))
        last = bisect_right(self._by_lo, (window.hi, len(self.entries)))
        hits = sorted(k for _, k in self._by_lo[first:last]
                      if self.entries[k].widest_hull.hi >= window.lo)
        for k in hits:
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
        # with inner == outer no outer endpoint lies outside the inner
        # set, and with budget < 1 nothing is removed: either way the
        # set would not lie strictly between its neighbours
        if inner is outer or inner.describe() == outer.describe():
            raise ValueError("inner and outer generators must differ")
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        super().__init__()
        self.inner = inner
        self.outer = outer
        self.budget = budget
        self.search_ceiling = search_ceiling
        self._schedule: Optional[RemovalSchedule] = None

    def describe(self) -> str:
        return (f"IC(inner={self.inner.describe()},outer={self.outer.describe()},"
                f"budget={self.budget})")

    # -- schedule construction ------------------------------------------

    def schedule(self) -> RemovalSchedule:
        if self._schedule is None:
            self._schedule = self._build_schedule()
        return self._schedule

    def _build_schedule(self) -> RemovalSchedule:
        """Each outer endpoint, in discovery order, is reused or scheduled
        at the first stage that isolates it.  The search starts where the
        inner cover first misses the endpoint: inside that cover no gap
        can hold it."""
        sched = RemovalSchedule()
        for p in self.outer.endpoints(self.budget):
            pm = point_membership(self.inner, p, self.search_ceiling)
            if not pm.is_out:
                raise BracketSearchError(
                    f"outer endpoint {p!r} not certified outside the inner set "
                    f"by stage {self.search_ceiling}")
            stages = range(max(2, pm.decided_at_stage or 0), self.search_ceiling + 1)
            if not any(self._try_stage(sched, p, point_bracket(p, e), e) for e in stages):
                raise BracketSearchError(f"bracket search for endpoint {p!r} "
                                         f"exhausted at stage {self.search_ceiling}")
        return sched

    def _try_stage(self, sched: RemovalSchedule, p: PointLike,
                   br: ClosedInterval, e: int) -> bool:
        """Record p at stage e, as a reuse of an earlier removal that
        swallows br or as a new entry; False if br needs refinement."""
        # already swallowed by an earlier removal?
        for entry in sched.meeting(br, live_at=e):
            rlo, rhi = entry.removal_open(e)
            if rlo < br.lo and br.hi < rhi:
                sched.reuses.append((p, entry.index))
                return True
        gap = self._free_gap(sched, br, e)
        if gap is None:
            return False
        a = self._anchor(gap[0], br.lo, e, left=True)
        if a is None:
            return False
        b = self._anchor(br.hi, gap[1], e, left=False)
        if b is None:
            return False
        sched.entries.append(ScheduleEntry(len(sched.entries), p, a, b, e))
        return True

    def _free_gap(self, sched: RemovalSchedule, br: ClosedInterval,
                  e: int) -> Optional[tuple[Fraction, Fraction]]:
        """Ends of the gap in [0, 1] of inner.stage(e) and the hulls live
        at e that holds br strictly inside; None if there is none yet.

        This is the component of ``(inner ∪ hulls).complement_in(UNIT)``
        containing br, found by walking the inner stage-e components
        outward from br and clipping by each hull that can still narrow
        it; no inner cover is materialised.
        """
        # complement_in's closure swallows isolated points, so only the
        # nondegenerate inner components bound the gap
        def nearest(rightward: bool) -> Optional[ClosedInterval]:
            return next((c for c in self.inner.walk(e, br.lo, rightward)
                         if not c.is_degenerate), None)

        right = nearest(True)
        if right is not None and right.lo <= br.hi:
            return None
        left = nearest(False)
        lo = left.hi if left is not None else ZERO
        hi = right.lo if right is not None else ONE
        # a hull outside [lo, hi], or only touching it, can neither meet
        # br nor narrow the gap, so the first window serves to the end
        for entry in sched.meeting(ClosedInterval(lo, hi), live_at=e):
            h = entry.hull(e)
            if h.hi < br.lo:
                lo = max(lo, h.hi)
            elif h.lo > br.hi:
                hi = min(hi, h.lo)
            else:
                return None  # refine until the hull releases the point
        if lo < br.lo and br.hi < hi:
            return lo, hi
        return None

    def _anchor(self, lo: Fraction, hi: Fraction, e: int, left: bool):
        """Removal anchor strictly inside the open interval (lo, hi).

        Returns the outer-cover component nearest the endpoint as an
        alternating address, the interval's end x itself when the outer
        set provably has no points strictly inside and x is not a point
        of it, or None (needs refinement).
        """
        around = self.outer.near(e, ClosedInterval(lo, hi))
        comps = [c for c in around
                 if lo < c.lo and c.hi < hi and self.outer.component_persists(c, e)]
        if comps:
            comp = comps[-1] if left else comps[0]
            return CantorAddress.for_component(self.outer, comp, e)
        # the outer set has no point strictly inside when each component
        # near the interval meets it at an end only
        if all(c.hi <= lo or c.lo >= hi for c in around):
            x = lo if left else hi
            # only anchor on the gap edge itself when that edge is provably
            # not a point of the outer set; otherwise a degenerate hull
            # there would block the edge point's own schedule entry forever
            if x == ZERO or x == ONE or self.outer.membership(x, e).is_out:
                return x
        return None

    # -- covers and queries ---------------------------------------------

    def _compute_stage(self, d: int) -> IntervalSet:
        # every hull lies in [0, 1]
        return self.outer.stage(d).subtract_opens(
            entry.removal_open(d) for entry in self.schedule().meeting(UNIT, live_at=d))

    def _children_of(self, d: int, comp: ClosedInterval) -> list[ClosedInterval]:
        # the pieces beyond comp that other holes would cut do not meet comp
        holes = [entry.removal_open(d) for entry in self.schedule().meeting(comp, live_at=d)]
        around = self.outer.near(d, comp)
        if not holes:
            return around
        pieces = IntervalSet(around).subtract_opens(holes)
        return [c for c in pieces if c.intersects(comp)]

    def component_persists(self, comp: ClosedInterval, d: int) -> bool:
        # slivers left beside a growing removal get eaten at deeper
        # stages, so only hull-free components are certified to survive
        if not self.outer.component_persists(comp, d):
            return False
        return not any(entry.hull(d).intersects(comp)
                       for entry in self.schedule().meeting(comp))

    def membership(self, t: Fraction, max_stage: int = DEFAULT_MAX_STAGE) -> Membership:
        # inner first: every removal hole lies in a gap of the inner
        # covers, so inner <= this set and an IN from the inner set is
        # final; only the points it does not certify need the cover walk
        inner_m = self.inner.membership(t, max_stage)
        if inner_m.is_in:
            return inner_m
        d = self.first_out(t, max_stage)
        return Membership(UNKNOWN, None) if d is None else Membership(OUT, d)

    def first_out(self, t: Fraction, max_stage: int) -> Optional[int]:
        # stage(d) is outer.stage(d) less the holes live at d, so t leaves
        # it with the outer set or in the first hole that opens over it
        best = self.outer.first_out(t, max_stage)
        stop = max_stage + 1 if best is None else best
        for entry in self.schedule().meeting(ClosedInterval(t, t)):
            for s in range(entry.create_stage, stop):
                # hulls nest: once t is outside one, no later hole holds it
                if not entry.hull(s).contains(t):
                    break
                lo, hi = entry.removal_open(s)
                if lo < t < hi:
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
    """

    def __init__(self, level: int, stage_budget: int,
                 members: dict[Fraction, CantorGen]):
        self.level = level
        self.stage_budget = stage_budget
        self.members = members

    def grid(self) -> list[Fraction]:
        return sorted(self.members)

    def member(self, r: Fraction) -> CantorGen:
        return self.members[Fraction(r)]

    @property
    def c0(self) -> GapAttachedCantor:
        return self.members[ZERO]

    @property
    def c1(self) -> MiddleThirds:
        return self.members[ONE]

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
