"""The one slow reference model of the construction, on Fractions.

Every differential test reads its expected value from here.  The model
states the construction as the paper does: C_1 and C_0 from middle
thirds, each C_r as its outer set minus open holes around the outer
set's endpoints, and F(t) = [0, sup{r : t in C_r}] on C_0.  Each role
has one implementation:

* interval sets: ``FractionIntervalSet``, sorted, disjoint, non-touching
  closed intervals with Fraction ends, and the relations
  ``contains_interval``, ``intersects`` and ``intersect``;
  ``subtract_opens`` removes one hole at a time;
* covers and the local tree: ``Model`` makes each node's children
  once: MT thirds; for a GA, the children of its core and attachment
  pieces, a core piece's middle third taking its own attachments; for
  an IC, its outer pieces minus its live holes.  ``bracket``, ``hole``
  and ``hull`` come from the model's own brackets, and a whole cover is
  ``cover``, the tree read to one depth (``near(gen, d, UNIT)``);
* point queries: one ternary walk, ``ternary_exit``, and on top of the
  tree ``first_out``, ``membership`` and ``gap_of`` for rationals and
  addresses: OUT d when no stage-d component meets the point or its
  bracket, IN for MT and GA from the walk, IN for an IC through its
  bottom set;
* the schedule search: ``scan_meeting``, ``reference_gap``,
  ``reference_reuse`` and ``reference_anchor`` on the model's hulls,
  holes and outer covers (``persists`` for the components an anchor may
  rest on);
* the map: ``reference_F``, a dyadic scan over the model's verdicts
  with the tent formula on Fractions;
* chains and text: ``all_pairs_chains``, ``csv_rows``,
  ``contains_tuple`` and ``reference_text``.

Independence: the model reads only what a family is made of: each
generator's type and parameters (``base``, ``core``, ``window``,
``inner``, ``outer``), schedule entries' ``index``, ``point``, ``a``,
``b`` and ``create_stage``, an address's ``gen`` and ``prefix``,
``MAX_TENT_HEIGHT`` and the map's ``mode``.  It calls no int fast path
of gillab: no IntervalSet algebra or query, no ``stage``, and none of
the generators' tree walks, point queries, brackets, holes, hulls or
the map's evaluations.  Every method named like one of those here is
the model's own.

Families: ``built(level, budget)`` is one family per (level, budget),
search ceiling 15, with every schedule built, shared by the tests that
only read it, and ``model(fam)`` is its one model.  A test builds its
own family with ``fresh_family`` when it clears or counts memos,
monkeypatches generator code or compares build orders, or when it
fills covers no other test reads (every attachment's), which a shared
family would hold for the whole session.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from functools import lru_cache
from itertools import count, islice
from operator import attrgetter

from gillab.bonding import MAX_TENT_HEIGHT, FBracket
from gillab.cantor import (
    DEFAULT_MAX_STAGE,
    IN,
    OUT,
    UNKNOWN,
    CantorAddress,
    GapAttachedCantor,
    IntermediateCantor,
    Membership,
    MiddleThirds,
    build_family,
)
from gillab.exact import UNIT, ClosedInterval

_LO, _HI = attrgetter("lo"), attrgetter("hi")

# ---------------------------------------------------------------------------
# interval sets


def contains_interval(a: ClosedInterval, b: ClosedInterval) -> bool:
    return a.lo <= b.lo and b.hi <= a.hi


def intersects(a: ClosedInterval, b: ClosedInterval) -> bool:
    return a.lo <= b.hi and b.lo <= a.hi


def intersect(a: ClosedInterval, b: ClosedInterval):
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    return ClosedInterval(lo, hi) if lo <= hi else None


class FractionIntervalSet:
    """Sorted, disjoint, non-touching closed intervals with Fraction ends."""

    def __init__(self, intervals=(), *, _normalized=False):
        if _normalized:
            self._components = tuple(intervals)
            return
        merged = []
        for iv in sorted(intervals, key=lambda iv: (iv.lo, iv.hi)):
            if merged and iv.lo <= merged[-1].hi:
                if iv.hi > merged[-1].hi:
                    merged[-1] = ClosedInterval(merged[-1].lo, iv.hi)
            else:
                merged.append(iv)
        self._components = tuple(merged)

    @property
    def components(self):
        return self._components

    def __iter__(self):
        return iter(self._components)

    def _bisect(self, t):
        return bisect_left(self._components, t, key=_HI)

    def component_containing(self, t):
        i = self._bisect(t)
        if i < len(self._components) and self._components[i].lo <= t:
            return self._components[i]
        return None

    def components_overlapping(self, window):
        out = []
        i = self._bisect(window.lo)
        while i < len(self._components) and self._components[i].lo <= window.hi:
            out.append(self._components[i])
            i += 1
        return out

    def issubset(self, other):
        for comp in self._components:
            i = other._bisect(comp.lo)
            if i >= len(other._components):
                return False
            oc = other._components[i]
            if not (oc.lo <= comp.lo and comp.hi <= oc.hi):
                return False
        return True

    def complement_in(self, window):
        gaps = []
        cursor = window.lo
        for c in self.components_overlapping(window):
            lo = max(c.lo, window.lo)
            hi = min(c.hi, window.hi)
            if lo > cursor:
                gaps.append(ClosedInterval(cursor, lo))
            cursor = max(cursor, hi)
        if cursor < window.hi:
            gaps.append(ClosedInterval(cursor, window.hi))
        if not gaps and not self._components:
            gaps = [window]
        return FractionIntervalSet(gaps)

    def subtract_opens(self, holes):
        """Remove each open hole (lo, hi) in turn, keeping its ends; an
        empty hole (lo >= hi) removes nothing.  A component the hole does
        not cut is kept; one it cuts keeps its part left of lo and its part
        right of hi."""
        comps = list(self._components)
        for lo, hi in holes:
            if lo >= hi:
                continue
            # the components with hi > lo and lo < hi are the ones it cuts
            i, j = bisect_right(comps, lo, key=_HI), bisect_left(comps, hi, key=_LO)
            cut = []
            for c in comps[i:j]:
                if c.lo <= lo:
                    cut.append(ClosedInterval(c.lo, lo))
                if c.hi >= hi:
                    cut.append(ClosedInterval(hi, c.hi))
            comps[i:j] = cut
        return FractionIntervalSet(comps, _normalized=True)

    def measure(self):
        return sum((c.width for c in self._components), F(0))

    def to_text(self):
        return ";".join(str(c) for c in self._components)


# ---------------------------------------------------------------------------
# the ternary walk


def ternary_exit(base: ClosedInterval, t: F):
    """(k, (lo, hi)): the first digit k at which t in base falls into an
    open middle third, and that third (lo, hi), a gap of the stage-(k+1)
    cover; None if t is in the set.  u is t's place in its stage-k
    interval, the m-th of 3^k equal parts of base.  It keeps its
    denominator, so the walk ends: u exits or repeats, and a repeat means
    t is in the set."""
    a, w = base.lo, base.width
    u, m = (t - a) / w, 0
    seen = set()
    for k in count():
        if u in seen:
            return None
        seen.add(u)
        if 3 * u <= 1:
            u, m = 3 * u, 3 * m
        elif 3 * u >= 2:
            u, m = 3 * u - 2, 3 * m + 2
        else:
            step = w / 3 ** (k + 1)
            return k, (a + (3 * m + 1) * step, a + (3 * m + 2) * step)


# ---------------------------------------------------------------------------
# covers, the local tree and the point queries


def _key(gen, p) -> tuple:
    """A memo key for a query of gen at p; a rational enters as its
    numerator and denominator, which hash faster than a Fraction."""
    return (gen, p) if isinstance(p, CantorAddress) else (gen, p.numerator, p.denominator)


class _Node:
    """A stage-d component of one generator and its children, made once.
    Its parts say what it is made of: for a gap-attached set, the
    (middle-thirds set, node) pieces whose union it is; for an
    intermediate set, the outer nodes meeting it and the (entry, widest
    hull) pairs whose hull meets it.  The root, at d = -1, is UNIT."""

    __slots__ = ("iv", "d", "parts", "meeting", "kids")

    def __init__(self, iv: ClosedInterval, d: int, parts=(), meeting=()):
        self.iv, self.d, self.parts, self.meeting, self.kids = iv, d, parts, meeting, None


class Model:
    """Each generator's local cover tree on ClosedIntervals, each node's
    children made once, with the queries read off it."""

    def __init__(self):
        self._roots: dict = {}
        self._levels: dict = {}
        self._attachments: dict = {}
        self._brackets: dict = {}
        self._gaps: dict = {}
        self._descents: dict = {}
        self._complements: dict = {}
        self._widest: dict = {}

    def _root(self, gen) -> _Node:
        root = self._roots.get(gen)
        if root is None:
            if isinstance(gen, MiddleThirds):
                root = _Node(UNIT, -1)
            elif isinstance(gen, GapAttachedCantor):
                # the core, and the attachments of its two side gaps in the
                # window, generation 0
                side = [(gen.window.lo, gen.core.base.lo), (gen.core.base.hi, gen.window.hi)]
                root = _Node(UNIT, -1, [(k, self._root(k)) for k in
                                        [gen.core, *(k for gap in side for k in self.attachments(*gap))]])
            else:
                root = _Node(UNIT, -1, [self._root(gen.outer)],
                             [(entry, self.widest_hull(entry)) for entry in gen.schedule().entries])
            self._roots[gen] = root
        return root

    def _kids(self, gen, node: _Node) -> list[_Node]:
        """The stage-(node.d + 1) components inside node, in order."""
        if node.kids is None:
            if isinstance(gen, MiddleThirds):
                d, iv = node.d + 1, node.iv
                w3 = iv.width / 3
                node.kids = [_Node(c, d) for c in (
                    [gen.base] if d == 0 else
                    [ClosedInterval(iv.lo, iv.lo + w3), ClosedInterval(iv.hi - w3, iv.hi)])]
            elif isinstance(gen, GapAttachedCantor):
                node.kids = self._ga_children(gen, node)
            else:
                node.kids = self._ic_children(gen, node)
        return node.kids

    def _ga_children(self, ga, node):
        # the children of each piece, and for a core piece the stage-0
        # pieces of the attachments of its middle third, a core gap of the
        # next generation; a generation-g attachment is g stages behind
        pieces = []
        for k, piece in node.parts:
            pieces += [(k, c) for c in self._kids(k, piece)]
            if k is ga.core and piece.d >= 0:
                w3 = piece.iv.width / 3
                for a in self.attachments(piece.iv.lo + w3, piece.iv.hi - w3):
                    pieces += [(a, c) for c in self._kids(a, self._root(a))]
        groups = []
        for gen, c in sorted(pieces, key=lambda piece: (piece[1].iv.lo, piece[1].iv.hi)):
            if groups and c.iv.lo <= groups[-1][1]:
                groups[-1][1] = max(groups[-1][1], c.iv.hi)
                groups[-1][2].append((gen, c))
            else:
                groups.append([c.iv.lo, c.iv.hi, [(gen, c)]])
        return [_Node(ClosedInterval(lo, hi), node.d + 1, parts) for lo, hi, parts in groups]

    def _ic_children(self, ic, node):
        # the outer pieces meeting the node less the holes live at d whose
        # widest hull meets it; hulls shrink as brackets nest, so those are
        # among the ones meeting its own parent
        d, parent = node.d + 1, node.iv
        outer = [c for o in node.parts for c in self._kids(ic.outer, o) if intersects(c.iv, parent)]
        holes = [self.hole(entry, d) for entry, _ in node.meeting if entry.create_stage <= d]
        cut = FractionIntervalSet([o.iv for o in outer]).subtract_opens(holes)
        return [_Node(c, d, [o for o in outer if intersects(o.iv, c)],
                      [(entry, h) for entry, h in node.meeting if intersects(h, c)])
                for c in cut if intersects(c, parent)]

    def _descend(self, gen, window):
        """For d = 0, 1, ...: the stage-d nodes meeting window(d), each a
        child of a stage-(d-1) node meeting window(d-1)."""
        nodes = [self._root(gen)]
        for d in count():
            w = window(d)
            nodes = [c for node in nodes for c in self._kids(gen, node) if intersects(c.iv, w)]
            yield nodes

    def near(self, gen, d: int, window: ClosedInterval) -> list[ClosedInterval]:
        """The stage-d components meeting the closed window, in order."""
        nodes = next(islice(self._descend(gen, lambda k: window), d, None))
        return [node.iv for node in nodes]

    def _level(self, gen, d: int) -> list[_Node]:
        levels = self._levels.setdefault(gen, [])
        while len(levels) <= d:
            parents = levels[-1] if levels else [self._root(gen)]
            levels.append([c for node in parents for c in self._kids(gen, node)])
        return levels[d]

    def cover(self, gen, d: int) -> FractionIntervalSet:
        """The whole stage-d cover, ``near(gen, d, UNIT)``, as it comes:
        nothing merges."""
        return FractionIntervalSet([node.iv for node in self._level(gen, d)], _normalized=True)

    def walk(self, gen, d: int, x: F, rightward: bool):
        """Stage-d components from x outward, lazily: left to right those
        with hi >= x, or right to left those with lo <= x."""
        return (node.iv for node in self._walk(gen, d, x, rightward))

    def _walk(self, gen, d, x, rightward):
        for parent in (self._walk(gen, d - 1, x, rightward) if d else [self._root(gen)]):
            kids = self._kids(gen, parent)
            for c in (kids if rightward else reversed(kids)):
                if (c.iv.hi >= x) if rightward else (c.iv.lo <= x):
                    yield c

    def core_gap(self, ga, t: F):
        """The maximal gap of ga's core within its window holding t, None
        for a point of the core."""
        gap = self.maximal_gap(ga.core, t)
        return gap and (max(gap[0], ga.window.lo), min(gap[1], ga.window.hi))

    def attachments(self, a: F, b: F):
        """The middle-thirds pair attached to the core gap (a, b)."""
        if (a, b) not in self._attachments:
            w3 = (b - a) / 3
            self._attachments[a, b] = (MiddleThirds(ClosedInterval(a, a + w3)),
                                       MiddleThirds(ClosedInterval(b - w3, b)))
        return self._attachments[a, b]

    # -- brackets, holes and hulls

    def bracket(self, addr: CantorAddress, d: int) -> ClosedInterval:
        """The address's stage-d bracket: by its prefix, then alternating
        leftmost and rightmost child wherever a bracket splits."""
        chain = self._brackets.setdefault(addr, [[], 0])
        nodes = chain[0]
        while len(nodes) <= d:
            k = len(nodes)
            kids = self._kids(addr.gen, nodes[-1] if k else self._root(addr.gen))
            if k < len(addr.prefix):
                nodes.append(kids[addr.prefix[k]])
            elif len(kids) == 1:
                nodes.append(kids[0])
            else:
                nodes.append(kids[0] if chain[1] % 2 == 0 else kids[-1])
                chain[1] += 1
        return nodes[d].iv

    def point(self, p, d: int) -> ClosedInterval:
        """A rational as a degenerate interval, an address as its bracket."""
        return self.bracket(p, d) if isinstance(p, CantorAddress) else ClosedInterval(p, p)

    def hole(self, entry, d: int) -> tuple[F, F]:
        s = max(d, entry.create_stage)
        return self.point(entry.a, s).hi, self.point(entry.b, s).lo

    def hull(self, entry, d: int) -> ClosedInterval:
        s = max(d, entry.create_stage)
        return ClosedInterval(self.point(entry.a, s).lo, self.point(entry.b, s).hi)

    def widest_hull(self, entry) -> ClosedInterval:
        """The create-stage hull, remembered; the entry is kept with it, so
        its id names no other entry while the model lives."""
        kept = self._widest.get(id(entry))
        if kept is None:
            kept = self._widest[id(entry)] = (entry, self.hull(entry, entry.create_stage))
        return kept[1]

    # -- point queries

    def holds(self, gen, t: F) -> bool:
        """Whether t is a point of gen by the ternary walk, exactly for MT
        and GA; an IC holds t when its bottom set does."""
        if isinstance(gen, IntermediateCantor):
            return self.holds(gen.inner, t)
        return self.maximal_gap(gen, t) is None

    def first_out(self, gen, p, max_stage):
        """The first depth d <= max_stage (any, if None) at which no
        stage-d component meets p, a rational or an address's bracket;
        None if there is none.  The descent is remembered as deep as it
        has gone."""
        if max_stage is None and self.holds(gen, p):
            return None
        key = _key(gen, p)
        if key not in self._descents:
            self._descents[key] = ([], self._descend(gen, lambda k: self.point(p, k)))
        met, descent = self._descents[key]
        for d in count():
            if d == len(met):
                met.append(bool(next(descent)))
            if not met[d]:
                return d
            if d == max_stage:
                return None

    def membership(self, gen, p, max_stage: int = DEFAULT_MAX_STAGE) -> Membership:
        """IN for an address of gen itself, IN for a rational gen holds,
        and otherwise OUT at first_out, or UNKNOWN where the depth bound
        decides nothing (an IC, or an address)."""
        if isinstance(p, CantorAddress):
            if p.gen is gen:
                return Membership(IN, 0)
        elif self.holds(gen, p):
            return Membership(IN)
        elif not isinstance(gen, IntermediateCantor):
            return Membership(OUT, self.first_out(gen, p, None))
        d = self.first_out(gen, p, max_stage)
        return Membership(UNKNOWN, None) if d is None else Membership(OUT, d)

    def maximal_gap(self, gen, t: F):
        """The maximal gap of {0} + gen + {1} holding t, None for a point
        of gen (MT or GA), remembered."""
        key = _key(gen, t)
        if key not in self._gaps:
            if isinstance(gen, MiddleThirds):
                base = gen.base
                if t < base.lo or t > base.hi:
                    gap = (F(0), base.lo) if t < base.lo else (base.hi, F(1))
                else:
                    hit = ternary_exit(base, t)
                    gap = hit and hit[1]
            elif not gen.window.contains(t):
                gap = (F(0), gen.window.lo) if t < gen.window.lo else (gen.window.hi, F(1))
            else:
                gap = self.core_gap(gen, t)
                if gap is not None:
                    ka, kb = self.attachments(*gap)
                    k = next((k for k in (ka, kb) if k.base.contains(t)), None)
                    gap = self.maximal_gap(k, t) if k else (ka.base.hi, kb.base.lo)
            self._gaps[key] = gap
        return self._gaps[key]

    def gap_of(self, gen, t: F):
        """maximal_gap, refused where the int query refuses: outside a
        middle-thirds base, and for a gap-attached set outside [0, 1]."""
        if isinstance(gen, MiddleThirds) and not gen.base.contains(t):
            raise ValueError(f"{t} lies outside the base of {gen.describe()}")
        if not UNIT.contains(t):
            raise ValueError(f"{t} lies outside [0, 1]")
        return self.maximal_gap(gen, t)

    # -- the schedule search

    def scan_meeting(self, sched, window: ClosedInterval, live_at):
        """The entries created by live_at (any, if None) whose widest hull
        meets the window, by a scan of every entry."""
        return [entry for entry in sched.entries
                if (live_at is None or entry.create_stage <= live_at)
                and intersects(self.widest_hull(entry), window)]

    def reference_gap(self, ic, live, br: ClosedInterval, e: int):
        """The gap of ic's inner stage-e cover and the live hulls that holds
        br strictly inside: a component of the complement of their union
        in [0, 1], the inner cover's complement less each hull's
        interior.  The complement is a closure, so it swallows isolated
        points: a point left between two removed pieces is no gap."""
        hulls = [self.hull(entry, e) for entry in live]
        if any(intersects(h, br) for h in hulls):
            return None
        key = (ic.inner, e)
        if key not in self._complements:
            self._complements[key] = self.cover(ic.inner, e).complement_in(UNIT)
        free = self._complements[key].subtract_opens([(h.lo, h.hi) for h in hulls])
        gap = FractionIntervalSet([g for g in free if not g.is_degenerate],
                                  _normalized=True).component_containing(br.lo)
        if gap is None or not (gap.lo < br.lo and br.hi < gap.hi):
            return None
        return gap.lo, gap.hi

    def persists(self, gen, d: int, c: ClosedInterval) -> bool:
        """Whether the stage-d component c survives all refinement: always
        for MT and GA; for an IC, when it does in the outer set and no
        stage-d hull of the IC meets it."""
        if not isinstance(gen, IntermediateCantor):
            return True
        return self.persists(gen.outer, d, c) and not any(
            intersects(self.hull(entry, d), c) for entry in gen.schedule().entries)

    def reference_anchor(self, ic, lo: F, hi: F, e: int, left: bool):
        """The removal anchor in the open interval (lo, hi) at stage e: of
        the persisting outer stage-e components strictly inside it, the
        one nearest the bracket (the last for the left anchor, whose
        bracket is at hi, the first for the right); else, when no outer
        component meets the interval, its far end x if x is 0 or 1 or
        the outer set says OUT for x by stage e; else None."""
        comps = self.near(ic.outer, e, ClosedInterval(lo, hi))
        inside = [c for c in comps if lo < c.lo and c.hi < hi and self.persists(ic.outer, e, c)]
        if inside:
            return inside[-1] if left else inside[0]
        if any(c.lo < hi and lo < c.hi for c in comps):
            return None
        x = lo if left else hi
        if x in (0, 1) or self.membership(ic.outer, x, e).is_out:
            return x
        return None

    def reference_reuse(self, sched, br: ClosedInterval, e: int):
        """Index of the first entry whose stage-e hole swallows br."""
        for entry in sched.entries:
            if entry.create_stage <= e:
                lo, hi = self.hole(entry, e)
                if lo < br.lo and br.hi < hi:
                    return entry.index
        return None


# ---------------------------------------------------------------------------
# families


CEILING = 15


def fresh_family(level: int, budget: int):
    """A family at search ceiling 15 with every schedule built, in grid
    order."""
    fam = build_family(level, budget, CEILING)
    for r in fam.grid():
        if isinstance(fam.member(r), IntermediateCantor):
            fam.member(r).schedule()
    return fam


@lru_cache(maxsize=None)
def built(level: int, budget: int):
    """fresh_family, one per (level, budget), for the tests that only read it."""
    return fresh_family(level, budget)


@lru_cache(maxsize=None)
def model(fam) -> Model:
    """The one Model of a family, made on first use."""
    return Model()


# ---------------------------------------------------------------------------
# the map


def dyadic_grid(level: int) -> list[F]:
    """k / 2^level for k = 1 .. 2^level: the indices of the members F reads."""
    return [F(k, 2 ** level) for k in range(1, 2 ** level + 1)]


def tent_height(width: F) -> F:
    return min(width / 4, MAX_TENT_HEIGHT)


def tent_value(m, t: F, gap) -> F:
    """The base map at t in the gap (a, b): 0 in zero mode, else the tent
    of height tent_height(b - a) with its apex at the midpoint."""
    a, b = gap
    if m.mode == "zero":
        return F(0)
    return tent_height(b - a) * (1 - abs(2 * t - a - b) / (b - a))


def reference_F(m, t: F, level: int, max_stage: int = DEFAULT_MAX_STAGE,
                seen=None) -> FBracket:
    """F(t): the tent value off C_0, and on C_0 a scan of the dyadic grid
    by the model's verdicts, closed at the first member that says OUT;
    seen, if given, gets (verdict, generator kind) of each member asked."""
    ref = model(m.family)
    gap = ref.gap_of(m.family.c0, t)
    if gap is not None:
        v = tent_value(m, t, gap)
        return FBracket(v, v, v)
    lower, upper = F(0), F(1)
    for r in dyadic_grid(level):
        gen = m.family.member(r)
        verdict = ref.membership(gen, t, max_stage)
        if seen is not None:
            seen.add((verdict.verdict, type(gen).__name__))
        if verdict.is_in:
            lower = r
        elif verdict.is_out:
            upper = r
            break
    return FBracket(lower, upper)


# ---------------------------------------------------------------------------
# chains and text


def all_pairs_chains(gboxes, n: int) -> dict:
    """{k: sorted chains on coordinates 0..k} for k <= n, by intersecting
    every chain's last constraint with every y-box, once per distinct
    constraint."""
    chains = [(yb, tb) for tb, yb in gboxes]
    out = {1: sorted(chains)}
    for k in range(2, n + 1):
        heads: dict = {}
        nxt = []
        for chain in chains:
            if chain[-1] not in heads:
                heads[chain[-1]] = [(shared, tb) for tb, yb in gboxes
                                    if (shared := intersect(chain[-1], yb)) is not None]
            nxt += [chain[:-1] + head for head in heads[chain[-1]]]
        chains = nxt
        out[k] = sorted(chains)
    return out


def csv_rows(dimension: int, boxes) -> list[str]:
    head = ",".join(f"x{i}_lo,x{i}_hi" for i in range(dimension))
    return [head] + [",".join(f"{iv.lo},{iv.hi}" for iv in box) for box in boxes]


def contains_tuple(cov, xs: list[F]) -> bool:
    """Whether some box of the Mahavier cover holds the point xs."""
    assert len(xs) == cov.dimension
    return any(all(b.contains(x) for b, x in zip(box, xs)) for box in cov.boxes)


def reference_text(s) -> str:
    """The cover text from Fraction component ends, one by one."""
    return ";".join(f"{c.lo}..{c.hi}" for c in s.components)
