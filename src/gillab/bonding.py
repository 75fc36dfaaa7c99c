"""The bonding map F and its property checkers.

F is one object, ``SetValuedMap(mode, family)``.  It is {f(t)} off C0
and [0, sup of the membership indices] on C0; the sup is reported as a
certified bracket over the family's dyadic grid.  The base map f
vanishes on {0} + C0 + {1}, and the mode says what it does on each
maximal gap (a, b) of that set:

* ``zero`` -- f identically 0 (default for inverse-limit work);
* ``tent`` -- the tent with apex at the midpoint and height
  min((b-a)/4, 1/32).  Heights vanish with gap length, which gives
  continuity on C0, keeps every value below 1/8 = min C0, and keeps
  f(t) < t on (0, 1].

f is exactly evaluable because one exact query, ``gap_of``, gives the
maximal gap of {0} + C0 + {1} holding a rational point, or None on C0.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Sequence

from .cantor import CantorFamily, CantorGen, DEFAULT_MAX_STAGE
from .exact import UNIT, ClosedInterval, IntervalSet, ONE, ZERO, _over, _text

MAX_TENT_HEIGHT = Fraction(1, 32)
MIN_C0 = Fraction(1, 8)

WEAK_CONTINUITY_TOLERANCE = Fraction(1, 64)
NONFISSILE_STAGE = 6
NONFISSILE_SAMPLE_STAGE = 8
INTERIOR_GRID = 8

MODES = ("zero", "tent")


def _tent_height(w: int, q: int) -> tuple[int, int]:
    """Height min(w/(4q), MAX_TENT_HEIGHT) of the tent on a gap of width
    w/q, as a numerator and a denominator."""
    h = MAX_TENT_HEIGHT
    if w * h.denominator <= 4 * q * h.numerator:
        return w, 4 * q
    return h.numerator, h.denominator


def _f_in_gap(m: SetValuedMap, t: Fraction,
              gap: Optional[tuple[Fraction, Fraction]]) -> Fraction:
    """The base map at t, given gap = ``c0.gap_of(t)`` (None on C0)."""
    if gap is None or m.mode == "zero":
        return ZERO
    # t, a and b as n, lo and hi over q: the tent on the gap of width w/q
    # rises linearly from both ends to its apex at (a + b) / 2, so its
    # value is its height times rise / w for rise = w - |2n - lo - hi|
    a, b = gap
    q = lcm(t.denominator, a.denominator, b.denominator)
    n, lo, hi = _over(q, t), _over(q, a), _over(q, b)
    w, rise = hi - lo, hi - lo - abs(2 * n - lo - hi)
    hn, hd = _tent_height(w, q)
    return Fraction(rise * hn, w * hd)


def eval_f(m: SetValuedMap, t: Fraction) -> Fraction:
    """Exact value of the base map at a rational point of [0, 1]."""
    return _f_in_gap(m, t, m.family.c0.gap_of(t))


@dataclass(frozen=True)
class FBracket:
    """Certified bracket for one evaluation of the set-valued map.

    When ``point_value`` is set, F(t) is exactly that singleton.
    Otherwise [0, lower_max] is certified inside F(t) and F(t) is
    certified inside [0, upper_max].
    """

    lower_max: Fraction
    upper_max: Fraction
    point_value: Optional[Fraction] = None

    @property
    def is_singleton(self) -> bool:
        return self.point_value is not None


class SetValuedMap:
    """The bonding map F: a base-map mode plus a dyadic family of nested
    sets.  ``f_sup`` is the sup of the base map f over [0, 1]."""

    def __init__(self, mode: str, family: CantorFamily):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.family = family
        self.f_sup = ZERO if mode == "zero" else MAX_TENT_HEIGHT
        self._cover_cache: dict[tuple[int, int], "GraphCover"] = {}
        self._grid_members: dict[int, list[tuple[Fraction, CantorGen]]] = {}

    def grid_members(self, level: int) -> list[tuple[Fraction, CantorGen]]:
        """(r, C_r) for each r = k / 2^level, k = 1 .. 2^level, in
        ascending r, made once per level; ValueError for a level below 0
        or above the family's."""
        pairs = self._grid_members.get(level)
        if pairs is None:
            if level < 0:
                raise ValueError("level must be >= 0")
            if level > self.family.level:
                raise ValueError("requested level exceeds the family level")
            grid = [Fraction(k, 2 ** level) for k in range(1, 2 ** level + 1)]
            pairs = self._grid_members[level] = [(r, self.family.member(r)) for r in grid]
        return pairs

    def graph_cover(self, stage: int, level: int) -> "GraphCover":
        key = (stage, level)
        cover = self._cover_cache.get(key)
        if cover is None:
            cover = _build_graph_cover(self, stage, level)
            self._cover_cache[key] = cover
        return cover


def make_map(mode: str, family: CantorFamily) -> SetValuedMap:
    return SetValuedMap(mode, family)


def eval_F(m: SetValuedMap, t: Fraction, level: Optional[int] = None,
           max_stage: int = DEFAULT_MAX_STAGE) -> FBracket:
    """Certified bracket for F(t) over the level's dyadic grid.

    On C0 it asks each generator once: an intermediate member holds t
    only if C1 does, so one C1 walk certifies [0, 1]; otherwise the
    bracket closes at the first member, in ascending r, whose removal
    holes take t out by max_stage, one hole scan per member.  The level
    is checked first, whatever t is.
    """
    members = m.grid_members(m.family.level if level is None else level)
    gap = m.family.c0.gap_of(t)
    if gap is not None:
        v = _f_in_gap(m, t, gap)
        return FBracket(v, v, v)
    if m.family.c1.first_out(t, None) is None:
        return FBracket(ONE, ONE)
    # t is outside C1, the last member, and no member holds it for sure.
    # A member's outer set is C0, which holds t, or a member before it on
    # the grid, which the loop passed with no exit, so the member's exit
    # is its hole scan's alone
    for r, gen in members[:-1]:
        if gen._hole_exit(t, max_stage, None) is not None:
            return FBracket(ZERO, r)
    return FBracket(ZERO, ONE)


# ---------------------------------------------------------------------------
# outer cover of the graph


@dataclass(frozen=True)
class GraphCover:
    """Finite outer box cover of the graph of F with exact corners.

    The x-intervals tile [0, 1]: box k is [ends[k]/q, ends[k+1]/q] x
    [0, tops[ranks[k]]/d], for int ends rising from 0 to q, int tops
    ascending over d, the lcm of q and the heights' denominators, so a
    taller box has a larger int rank.  The queries, the CSV rows and
    Mahavier products are int work on ``ends``, ``ranks`` and ``tops``;
    ``boxes`` makes the boxes at the edge.
    """

    q: int
    ends: tuple[int, ...]
    d: int
    tops: tuple[int, ...]
    ranks: tuple[int, ...]

    @cached_property
    def boxes(self) -> list[tuple[ClosedInterval, ClosedInterval]]:
        """The boxes in x order; the boxes of one height share its y-interval."""
        xs = [Fraction(e, self.q) for e in self.ends]
        ys = [ClosedInterval(ZERO, Fraction(t, self.d)) for t in self.tops]
        return [(ClosedInterval(a, b), ys[k]) for a, b, k in zip(xs, xs[1:], self.ranks)]

    def contains_point(self, t: Fraction, y: Fraction) -> bool:
        """Whether some box holds (t, y); int work on the numerators and
        denominators of t and y, with no Fraction comparison."""
        p, s = y.numerator, y.denominator
        if p < 0:
            return False
        # y <= tops[k]/d iff ceil(y*d) <= tops[k] iff k >= low, as the
        # tops ascend
        low = bisect_left(self.tops, -(-p * self.d // s))
        # box k holds t iff ends[k] <= t*q <= ends[k+1], so the boxes
        # holding t form one run, from the first whose right end reaches t
        p, s = t.numerator * self.q, t.denominator
        k = bisect_left(self.ends, -(-p // s), 1) - 1
        while k < len(self.ranks) and self.ends[k] * s <= p:
            if self.ranks[k] >= low:
                return True
            k += 1
        return False

    def area(self) -> Fraction:
        tops = self.tops
        return Fraction(sum(tops[k] * (hi - lo) for k, lo, hi
                            in zip(self.ranks, self.ends, self.ends[1:])), self.q * self.d)

    def floor(self, xb: ClosedInterval) -> Fraction:
        """Lowest top of the boxes whose x-interval meets the interior of
        xb, a nondegenerate interval in [0, 1].  The x-intervals tile
        [0, 1], so xb x [0, y] lies in the cover iff y <= floor(xb)."""
        q, lo, hi = self.q, xb.lo, xb.hi
        # the boxes k with ends[k+1] > lo*q and ends[k] < hi*q
        first = bisect_right(self.ends, lo.numerator * q // lo.denominator, 1) - 1
        last = bisect_left(self.ends, -(-hi.numerator * q // hi.denominator), 0, len(self.ranks))
        return Fraction(self.tops[min(self.ranks[first:last])], self.d)

    def csv_rows(self) -> list[str]:
        ends = [_text(e, self.q) for e in self.ends]
        ys = [f"0,{_text(t, self.d)}" for t in self.tops]
        rows = ["x_lo,x_hi,y_lo,y_hi"]
        rows += (f"{a},{b},{ys[k]}" for a, b, k in zip(ends, ends[1:], self.ranks))
        return rows


def _first_misses(lo: Sequence[int], hi: Sequence[int], q: int,
                  covers: Sequence[IntervalSet]) -> list[int]:
    """For each component [lo[k]/q, hi[k]/q], the index of the first
    cover that misses it, or len(covers) if none does.  Cover i is
    merged, rescaled once to the lcm of the denominators, with only the
    components every earlier cover met; no nesting is assumed."""
    first = [len(covers)] * len(lo)
    live = range(len(lo))
    for i, cover in enumerate(covers):
        common = lcm(q, cover.q)
        f = common // q
        clo, chi = cover.numerators(common)
        n, j = len(chi), 0
        met = []
        for k in live:
            # the first cover component ending at or after the component's
            # left end; the live components ascend, so j never falls back
            j = bisect_left(chi, lo[k] * f, j)
            if j < n and clo[j] <= hi[k] * f:
                met.append(k)
            else:
                first[k] = i
        live = met
    return first


def _build_graph_cover(m: SetValuedMap, stage: int, level: int) -> GraphCover:
    """The box over each component of C_0's stage cover reaches the cap
    of the first grid member, in ascending r, whose stage cover misses
    it (1 if none does, f_sup if higher); the box over each gap between,
    before and after them reaches its tent.  One pass over C_0's
    numerators writes the tiling."""
    cov = m.family.c0.stage(stage)
    q = cov.q
    lo, hi = cov.numerators()
    members = m.grid_members(level)
    caps = [max(r, m.f_sup) for r, _ in members] + [ONE]
    # each gap of the C0 cover is a maximal gap, so f's max on it is the
    # height of its tent, which depends on the gap's width alone
    widths = {b - a for a, b in zip((0, *hi), (*lo, q)) if b > a}
    tents = {w: ZERO if m.mode == "zero" else Fraction(*_tent_height(w, q)) for w in widths}
    heights = sorted(set(caps) | set(tents.values()))
    rank = {h: k for k, h in enumerate(heights)}
    cap_ranks = [rank[cap] for cap in caps]
    tent_ranks = {w: rank[h] for w, h in tents.items()}
    # F(t) = [0, sup{r : t in C_r}]: the first member whose cover misses
    # a component caps its box
    first = _first_misses(lo, hi, q, [gen.stage(stage) for _, gen in members])
    ends: list[int] = []
    ranks: list[int] = []
    x = 0
    for a, b, i in zip(lo, hi, first):
        if a == b:
            raise ValueError(f"degenerate component {a}/{q} of the C0 cover at stage {stage}")
        if x < a:
            ends.append(x)
            ranks.append(tent_ranks[a - x])
        ends.append(a)
        ranks.append(cap_ranks[i])
        x = b
    if x < q:
        ends.append(x)
        ranks.append(tent_ranks[q - x])
    ends.append(q)
    d = lcm(q, *(h.denominator for h in heights))
    return GraphCover(q, tuple(ends), d, tuple(_over(d, h) for h in heights), tuple(ranks))


# ---------------------------------------------------------------------------
# checkers


def _limit_in_all_covers(m: SetValuedMap, t, y, stage, level) -> Optional[int]:
    """First stage whose cover misses (t, y), or None if all contain it."""
    for d in range(stage + 1):
        if not m.graph_cover(d, level).contains_point(t, y):
            return d
    return None


def check_usc(m: SetValuedMap, samples: int, stage: int, seed: int = 0) -> dict:
    """Convergent test sequences whose limits must stay in every cover."""
    level = m.family.level
    rng = random.Random(seed)
    c1 = m.family.c1
    eps = c1.endpoints(64)
    gaps = m.family.c0.stage(3).complement_in(UNIT).components
    results = []
    failures = []
    for i in range(samples):
        kind = i % 3
        if kind == 0:
            # limit point on the smallest set with top value 1, approached
            # through deeper stage endpoints carrying value 1 themselves
            t = eps[rng.randrange(len(eps))]
            terms = []
            for d in range(2, 6):
                comp = c1.stage(d).component_containing(t)
                other = comp.lo if comp.hi == t else comp.hi
                terms.append((other, ONE))
            limit = (t, ONE)
        elif kind == 1:
            # sequence along the single-valued graph inside a gap
            gap = gaps[rng.randrange(len(gaps))]
            target = (gap.lo + gap.hi) / 2
            terms = []
            for k in range(1, 5):
                tk = target + gap.width / (8 * k)
                terms.append((tk, eval_f(m, tk)))
            limit = (target, eval_f(m, target))
        else:
            terms = [(ZERO, ZERO)] * 4
            limit = (ZERO, ZERO)
        bad_stage = _limit_in_all_covers(m, limit[0], limit[1], stage, level)
        record = {
            "kind": ("top", "graph", "fixed")[kind],
            "limit": [str(limit[0]), str(limit[1])],
            "terms": [[str(a), str(b)] for a, b in terms],
            "ok": bad_stage is None,
        }
        if bad_stage is not None:
            record["escaped_at_stage"] = bad_stage
            failures.append(record)
        results.append(record)
    return {"sequences": len(results), "failures": failures,
            "ok": not failures, "stage": stage, "level": level}


def check_weak_continuity(m: SetValuedMap, points: list[Fraction],
                          stage: int) -> dict:
    """Two-sided witness search at certified points of the smallest set.

    For each point t and each grid index s, exhibits t' distinct from t
    inside the smallest set (hence inside every C_s) closer than
    WEAK_CONTINUITY_TOLERANCE.
    """
    c1 = m.family.c1
    witnesses = []
    failures = []
    for t in points:
        if not c1.membership(t).is_in:
            failures.append({"point": str(t), "reason": "not a certified member"})
            continue
        found = None
        for d in range(stage + 1):
            comp = c1.stage(d).component_containing(t)
            if comp is None:
                break
            other = comp.lo if comp.hi == t else (comp.hi if comp.lo == t else None)
            if other is None:
                # interior of the bracket: take the nearer component end
                other = comp.lo if (t - comp.lo) <= (comp.hi - t) else comp.hi
            if other != t and abs(other - t) < WEAK_CONTINUITY_TOLERANCE:
                found = (other, d)
                break
        if found is None:
            failures.append({"point": str(t), "reason": "witness search exhausted"})
            continue
        other, d = found
        entry = {"point": str(t), "witness": str(other),
                 "distance": str(abs(other - t)), "stage": d}
        for s, gen in m.grid_members(m.family.level):
            entry.setdefault("indices", []).append(str(s))
            if not gen.membership(other).is_in:
                failures.append({"point": str(t), "index": str(s),
                                 "reason": "witness lost certification"})
        witnesses.append(entry)
    return {"witnesses": witnesses, "failures": failures, "ok": not failures}


def check_ivp_consistency(m: SetValuedMap, grid: int, seed: int = 0) -> dict:
    """Image-shape checks plus direct intermediate-value spot checks.

    Every evaluated image is a closed interval anchored at 0 or a
    singleton, and together with passing usc/weak-continuity suites the
    intermediate value property follows; spot checks additionally
    exhibit explicit witnesses between sampled argument pairs.
    """
    rng = random.Random(seed)
    shape_failures = []
    for k in range(grid + 1):
        t = Fraction(k, grid)
        fb = eval_F(m, t)
        if fb.is_singleton:
            continue
        if not (ZERO <= fb.lower_max <= fb.upper_max <= ONE):
            shape_failures.append({"point": str(t)})
    c1_eps = m.family.c1.endpoints(64)
    spots = []
    spot_failures = []
    for _ in range(8):
        x1 = c1_eps[rng.randrange(len(c1_eps))]
        x2 = Fraction(1, 2) if x1 != Fraction(1, 2) else Fraction(17, 32)
        lo, hi = min(x1, x2), max(x1, x2)
        y = Fraction(rng.randrange(1, 16), 16)
        witness = next((p for p in c1_eps if lo < p < hi), None)
        record = {"x1": str(x1), "x2": str(x2), "y": str(y)}
        if witness is not None:
            fb = eval_F(m, witness)
            record["witness"] = str(witness)
            record["certified"] = bool(fb.lower_max >= y)
            if not record["certified"]:
                spot_failures.append(record)
        else:
            record["witness"] = None
            spot_failures.append(record)
        spots.append(record)
    return {"shape_failures": shape_failures, "spots": spots,
            "spot_failures": spot_failures,
            "ok": not shape_failures and not spot_failures}


def check_light(m: SetValuedMap, y_grid: int, stage: int) -> dict:
    """Point-preimage interior check, split by mode.

    Zero mode is reported not light with an explicit gap witness for the
    value 0: the gap of C0 holding 1/2, certified nondegenerate and with
    F its singleton 0 at its midpoint.  Tent mode bounds every positive
    grid value's preimage by a thin stage cover plus finitely many exact
    tent-leg points; that holds when the value lies above every tent in
    a gap the stage cover has not opened yet.
    """
    c0 = m.family.c0
    if m.mode == "zero":
        gap = c0.gap_of(Fraction(1, 2))
        ok = (gap is not None and gap[0] < gap[1]
              and eval_F(m, (gap[0] + gap[1]) / 2).point_value == ZERO)
        return {"light": False, "mode": "zero",
                "witness_value": "0",
                "witness_interval": [str(e) for e in gap] if gap else None,
                "ok": ok}
    grid = [r for r, _ in m.grid_members(m.family.level)]
    # the stage cover's gaps are the maximal gaps of {0}+C0+{1} it
    # leaves, and a tent's height depends on its gap's width alone
    cover = c0.stage(stage)
    gaps = cover.complement_in(UNIT)
    widths = Counter(hi - lo for lo, hi in zip(*gaps.numerators()))
    tents = [(Fraction(*_tent_height(w, gaps.q)), count) for w, count in widths.items()]
    # a gap not opened yet lies in a cover component, so its tent is no
    # taller than the widest component's; the rows count none of its points
    widest = cover.max_component_width()
    unopened = Fraction(*_tent_height(widest.numerator, widest.denominator))
    ys = [Fraction(k, y_grid) for k in range(1, y_grid + 1)]
    measures: dict[Fraction, Fraction] = {}
    rows = []
    for y in ys:
        below = [r for r in grid if r < y]
        r = max(below) if below else ZERO
        if r not in measures:
            measures[r] = m.family.member(r).stage(stage).measure()
        # each tent at least y tall meets the value y on both legs
        rows.append({"y": str(y), "cover_index": str(r),
                     "cover_measure": str(measures[r]),
                     "tent_point_count": 2 * sum(count for h, count in tents
                                                 if h >= y)})
    zero_row = {"y": "0", "cover_measure": str(cover.measure()),
                "structure": "{0,1} plus the big set: nowhere dense"}
    return {"light": True, "mode": "tent", "rows": rows,
            "value_zero": zero_row, "ok": all(y > unopened for y in ys)}


def check_not_almost_nonfissile(m: SetValuedMap) -> dict:
    """Open subset of the graph containing no nonfissile point."""
    quarter = Fraction(1, 4)
    comp = m.family.c0.stage(NONFISSILE_STAGE).component_containing(quarter)
    y_range = (Fraction(1, 2), ONE)
    # the ends of C_1's stage components are points of C_1
    samples = sorted({e for c in m.family.c1.stage(NONFISSILE_SAMPLE_STAGE)
                      for e in (c.lo, c.hi) if comp.contains(e)})
    fissile_failures = []
    for t in samples:
        fb = eval_F(m, t)
        # [0, lower_max] lies in F(t), so above 1/2 the box meets the graph
        if fb.is_singleton or fb.lower_max <= y_range[0]:
            fissile_failures.append(str(t))
    half_fb = eval_F(m, Fraction(1, 2))
    return {
        "box": {"x": [str(comp.lo), str(comp.hi)],
                "y": [str(y_range[0]), str(y_range[1])]},
        "sampled_points": len(samples),
        "fissile_failures": fissile_failures,
        "nonfissile_example": {"point": "1/2",
                               "singleton": half_fb.is_singleton,
                               "value": str(half_fb.point_value)
                               if half_fb.is_singleton else None},
        "ok": not fissile_failures and len(samples) > 0,
    }


def check_empty_interior(m: SetValuedMap, stage: int) -> dict:
    """Exact cover areas at stages 0..stage plus escape of every sampled
    open box."""
    level, grid_n = m.family.level, INTERIOR_GRID
    stages = range(stage + 1)
    columns = [ClosedInterval(Fraction(i, grid_n), Fraction(i + 1, grid_n))
               for i in range(grid_n)]
    per_stage = []
    areas = []
    floors = []   # floors[d][i]: the floor of column i at stage d
    for d in stages:
        cover = m.graph_cover(d, level)
        total = cover.area()
        c1_area = m.family.c1.stage(d).measure()
        areas.append(total)
        floors.append([cover.floor(xb) for xb in columns])
        per_stage.append({"stage": d, "total_area": str(total),
                          "c1_portion_area": str(c1_area),
                          "footprint": str(m.family.c0.stage(d).measure())})
    decreasing = all(a > b for a, b in zip(areas, areas[1:]))
    escapes = []
    all_escape = True
    for i, xb in enumerate(columns):
        for j in range(grid_n):
            y_hi = Fraction(j + 1, grid_n)
            # the box escapes at the first stage leaving part of it uncovered
            first_escape = next((d for d in stages if floors[d][i] < y_hi), None)
            if first_escape is None:
                all_escape = False
            escapes.append({"box": [str(xb.lo), str(xb.hi), str(Fraction(j, grid_n)),
                                    str(y_hi)],
                            "escape_stage": first_escape})
    return {"per_stage": per_stage, "strictly_decreasing": decreasing,
            "boxes": escapes, "all_boxes_escape": all_escape,
            "ok": decreasing and all_escape}
