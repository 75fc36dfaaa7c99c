"""The nested Cantor-set family: intermediate sets by removal schedules.

:mod:`gillab.thirds` makes the two exact sets of the family, C_1 (a
:class:`MiddleThirds`) and C_0 (a :class:`GapAttachedCantor`), and the
local cover tree every generator walks.  This module makes the sets
between them:

* :class:`IntermediateCantor` -- a set strictly between two nested
  generators, produced by removing a scheduled open neighborhood of each
  endpoint of the outer set.
* :class:`CantorFamily` -- the dyadic family ``build_family`` fills by
  repeated bisection, each member between its two neighbours.

The removal-schedule search walks the inner and outer sets' local cover
trees (``near`` and ``walk``), and it descends once per endpoint: it
hands each generator's ``walk`` the endpoint's one dict of walks, which
the generator carries from stage e to e + 1 by the children of what
they yielded, and an intermediate set's ``_children_of`` reads the
outer children of the component holding the parent, which it recorded
when it made the parent; only a parent off a memoised cover asks
``near``.  The generator owns its sweeps too: ``walk`` builds a cover
only once the walks at its depth have paid for it.  A caller that
reports every member's covers anyway builds them through
``CantorFamily.covers``, member by member in build order, so each
member's search reads its inner and outer sets' covers memoised.  An
address's ``point_membership`` descends once: each depth keeps the
children of the components the last depth's bracket met
(``_descend``).  Brackets, holes and hulls are int triples (lo, hi,
q); Fractions appear only in rational anchors and at the edge.

An intermediate set makes no claim that the ends of its cover
components are points of the set.  Its ``first_out`` is one scan of
its own holes (``_hole_exit``), given its outer set's exit depth, so a
verdict ``OUT d`` means t lies outside ``stage(d)`` here too; it says
IN only by its inner set's certificate and UNKNOWN when neither that
nor its covers to ``max_stage`` decide.  Its inner set is itself
intermediate or not, and only the first generator down that chain that
is not intermediate (C_1 in every family) can say IN.  Each
intermediate set stores that generator as its ``bottom`` when it is
made, and its ``membership`` asks it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional, Union

from .errors import BracketSearchError
from .exact import ClosedInterval, IntervalSet, ZERO, ONE, _on
from .thirds import (DEFAULT_MAX_STAGE, IN, OUT, UNKNOWN, CantorGen, GapAttachedCantor,
                     Membership, MiddleThirds, Pair, Triple)

DEFAULT_SEARCH_CEILING = 15


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
            comps = gen._descend(d, comps, *point_bracket(p, d))
        if not comps:
            return Membership(OUT, d)
    return Membership(UNKNOWN, None)


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

    def to_json_obj(self) -> dict:
        """The entry as a cache file holds it: an address by its path, a
        rational by its text, and each anchor with its kind."""
        def anchor(x: PointLike) -> dict:
            if isinstance(x, CantorAddress):
                return {"kind": "address", "path": x.serialize()}
            return {"kind": "edge", "point": str(x)}

        point = self.point
        return {"index": self.index, "createStage": self.create_stage,
                "point": point.serialize() if isinstance(point, CantorAddress) else str(point),
                "a": anchor(self.a), "b": anchor(self.b)}


@dataclass
class RemovalSchedule:
    entries: list[ScheduleEntry] = field(default_factory=list)
    reuses: list[tuple[PointLike, int]] = field(default_factory=list)

    def meeting(self, lo: int, hi: int, q: int,
                live_at: Optional[int] = None) -> Iterator[ScheduleEntry]:
        """In order, the entries created by stage live_at (any, if None)
        whose widest hull meets the closed window [lo/q, hi/q]; no other
        hull meets it.  One scan of the entries in creation order: a
        schedule holds at most its budget of them."""
        for entry in self.entries:
            hlo, hhi, hq = entry.widest_hull
            if (hlo * q <= hi * hq and lo * hq <= hhi * q
                    and (live_at is None or entry.create_stage <= live_at)):
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
        br needs refinement.  walks holds p's walks (``CantorGen.walk``)."""
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
        a = self._anchor(self.outer.walk(walks, e, br[1], br[2], False),
                         lo, br[0] * f, q, e, True)
        b = None if a is None else self._anchor(self.outer.walk(walks, e, br[0], br[2], True),
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
        the point's walks, ``CantorGen.walk``) and clipping by each hull
        that can still narrow it, with no cover built."""
        blo, bhi, bq = br
        g = self.inner.grid(e)

        # complement_in's closure swallows isolated points, so only the
        # nondegenerate inner components bound the gap
        def nearest(rightward: bool) -> Optional[Pair]:
            return next((c for c in self.inner.walk(walks, e, blo if rightward else bhi, bq,
                                                    rightward) if c[0] < c[1]), None)

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
            outer = self.outer._descend(d, [holder], lo, hi, p)
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
