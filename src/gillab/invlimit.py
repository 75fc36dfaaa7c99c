"""Threads of the generalized inverse limit, arc chains, and box covers.

A thread is a finitely described point (x_0, x_1, ...) with
x_{i-1} in F(x_i) for every i: a short prefix of base-map iterates
followed by an eventually periodic tail inside the smallest family set,
where F = [0, 1] makes every step certificate exact.  The index where
the tail begins is the unique stage N with x_n in the big set exactly
for n >= N.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Optional

from .bonding import MIN_C0, SetValuedMap, eval_F
from .cantor import DEFAULT_MAX_STAGE
from .dynamics import Cycle, certify_step, iterate_f
from .errors import BoxCountError
from .exact import UNIT, ClosedInterval, ONE, ZERO, _text

BOX_CEILING = 10 ** 6
TREELIKE_GAP_STAGE = 3


@dataclass(frozen=True)
class Thread:
    """Point of the inverse limit: iterate prefix plus periodic tail.

    ``coordinate(n)`` is prefix[n] for 0 <= n < tail_start and cycles
    through ``tail_period`` afterwards; a negative n is a ValueError, not
    an index from the end.  The all-zero thread is the lone point
    with no tail in the big set and is marked ``is_zero``.
    """

    prefix: tuple[Fraction, ...]
    tail_period: tuple[Fraction, ...]
    is_zero: bool = False

    def __post_init__(self):
        if not (self.is_zero or self.tail_period):
            raise ValueError("a nonzero thread needs a nonempty tail period")
        if self.is_zero and (self.prefix or self.tail_period):
            raise ValueError("the zero thread has no prefix or tail period")
        if not all(ZERO <= x <= ONE for x in self.prefix + self.tail_period):
            raise ValueError("thread coordinates must lie in [0, 1]")

    @property
    def tail_start(self) -> int:
        return len(self.prefix)

    def coordinate(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError(f"coordinate index {n} is negative")
        if self.is_zero:
            return ZERO
        if n < len(self.prefix):
            return self.prefix[n]
        return self.tail_period[(n - len(self.prefix)) % len(self.tail_period)]

    def coordinates(self, count: int) -> list[Fraction]:
        return [self.coordinate(n) for n in range(count)]

    def to_json_obj(self) -> dict:
        return {"prefix": [str(p) for p in self.prefix],
                "tailStart": self.tail_start,
                "tailPeriod": [str(p) for p in self.tail_period],
                "isZero": self.is_zero}

    @staticmethod
    def from_json_obj(obj: dict) -> "Thread":
        """Read what to_json_obj writes; a key it does not write, such as a
        misspelled one, is an error and not a default."""
        unknown = sorted(set(obj) - {"prefix", "tailStart", "tailPeriod", "isZero"})
        if unknown:
            raise ValueError(f"unknown thread keys {unknown}")
        is_zero = obj.get("isZero", False)
        if not isinstance(is_zero, bool):
            raise ValueError(f"isZero must be a JSON boolean, got {is_zero!r}")
        thread = Thread(_coordinates(obj, "prefix"), _coordinates(obj, "tailPeriod"),
                        is_zero)
        start = obj.get("tailStart", thread.tail_start)
        if type(start) is not int or start != thread.tail_start:
            raise ValueError(f"tailStart must be the prefix length "
                             f"{thread.tail_start}, got {start!r}")
        return thread


def _coordinates(obj: dict, key: str) -> tuple[Fraction, ...]:
    """The coordinates under key, written as to_json_obj writes them: a
    JSON list of strings, so no float, bool or bare string is misread."""
    coords = obj.get(key, [])
    if not (isinstance(coords, list) and all(isinstance(s, str) for s in coords)):
        raise ValueError(f"{key} must be a JSON list of strings, got {coords!r}")
    return tuple(Fraction(s) for s in coords)


ZERO_THREAD = Thread(prefix=(), tail_period=(), is_zero=True)


def make_thread(m: SetValuedMap, pivot: Optional[Fraction], tail_cycle: Cycle,
                prefix_len: int) -> Thread:
    """Thread with the given tail cycle and an iterate prefix of the
    requested length ending at the pivot.

    With prefix_len 0 the pivot is ignored and the thread is the pure
    tail.  Otherwise the pivot must be outside the big set; earlier
    prefix coordinates are its exact base-map iterates.
    """
    if prefix_len < 0:
        raise ValueError("prefix length must be >= 0")
    c0 = m.family.c0
    for p in tail_cycle.points:
        if not m.family.c1.membership(p).is_in:
            raise ValueError(f"tail point {p} is not in the smallest set")
    if prefix_len == 0:
        return Thread((), tail_cycle.points)
    if pivot is None:
        raise ValueError("a pivot is required when the prefix is nonempty")
    if not (ZERO <= pivot <= ONE):
        raise ValueError("pivot outside [0, 1]")
    if c0.membership(pivot).is_in:
        raise ValueError(f"pivot {pivot} lies in the big set")
    # the tail head lies in the smallest set, where F is never a singleton
    if not certify_step(m, tail_cycle.points[0], pivot).ok:
        raise ValueError(f"pivot {pivot} not certified in the image of the tail head")
    iters = iterate_f(m, pivot, prefix_len - 1)
    prefix = tuple(reversed(iters)) + (pivot,)
    return Thread(prefix, tail_cycle.points)


def verify_thread(m: SetValuedMap, th: Thread, depth: int = DEFAULT_MAX_STAGE) -> dict:
    """Re-certify every represented consecutive pair of the thread."""
    if th.is_zero:
        return {"ok": True, "zero": True, "steps": []}
    steps = []
    failures = []
    for i in range(1, depth + 1):
        cert = certify_step(m, th.coordinate(i), th.coordinate(i - 1))
        steps.append({"i": i, "kind": cert.kind, "ok": cert.ok})
        if not cert.ok:
            failures.append(steps[-1])
    return {"ok": not failures, "zero": False, "steps": steps,
            "failures": failures}


def tail_index(m: SetValuedMap, th: Thread) -> int:
    """The dichotomy index N: coordinates are in the big set iff n >= N."""
    if th.is_zero:
        raise ValueError("the all-zero thread has no tail in the big set")
    c0 = m.family.c0
    n = th.tail_start
    for i in range(n):
        if not c0.membership(th.coordinate(i)).is_out:
            raise ValueError(f"prefix coordinate {i} not outside the big set")
    for i in range(n, n + len(th.tail_period) + 1):
        if not c0.membership(th.coordinate(i)).is_in:
            raise ValueError(f"tail coordinate {i} not inside the big set")
    return n


# ---------------------------------------------------------------------------
# arc systems


@dataclass(frozen=True)
class ArcSystem:
    """The arc chain through a nonzero thread.

    Arc n is the parametrized set
    {(f^n(t), ..., f(t), t, x_{n+1}, x_{n+2}, ...) : 0 <= t <= x_n};
    consecutive arcs meet exactly at the joints
    y^i = (0, ..., 0, x_i, x_{i+1}, ...).
    The thread is validated once, on construction, so its
    ``tail_start`` is the tail index N.
    """

    m: SetValuedMap
    thread: Thread
    depth: int

    def __post_init__(self):
        if self.thread.is_zero:
            raise ValueError("arc chain requires a nonzero thread")
        if self.depth < tail_index(self.m, self.thread):
            raise ValueError("depth must reach the tail index")

    @property
    def first_arc(self) -> int:
        """The first arc index, N - 1 for the tail index N (0 if N is 0)."""
        return max(self.thread.tail_start - 1, 0)

    def joint(self, i: int) -> Thread:
        """y^i: i zero coordinates, then the thread's coordinates from i."""
        shift = max(i - self.thread.tail_start, 0)
        period = self.thread.tail_period
        rotated = period[shift % len(period):] + period[:shift % len(period)]
        head = tuple(self.thread.coordinate(n)
                     for n in range(i, max(self.thread.tail_start, i)))
        return Thread((ZERO,) * i + head, rotated)

    def arc_point(self, n: int, t: Fraction, count: int) -> list[Fraction]:
        """First `count` coordinates of the arc-n point at parameter t."""
        x_n = self.thread.coordinate(n)
        if not (ZERO <= t <= x_n):
            raise ValueError(f"parameter {t} outside [0, {x_n}]")
        iters = iterate_f(self.m, t, n)  # f(t), ..., f^n(t)
        coords = []
        for k in range(count):
            if k < n:
                coords.append(iters[n - 1 - k])
            elif k == n:
                coords.append(t)
            else:
                coords.append(self.thread.coordinate(k))
        return coords


def arc_params(sys: ArcSystem, n: int) -> list[Fraction]:
    """Canonical exact parameter grid for arc n: endpoints, midpoint,
    and, when the base map is not identically 0, its breakpoints below
    the parameter range."""
    x_n = sys.thread.coordinate(n)
    pts = {ZERO, x_n, x_n / 2}
    if sys.m.f_sup > 0:
        pts.update(p for p in (Fraction(1, 16), Fraction(1, 8)) if p < x_n)
    return sorted(pts)


def arc_points(sys: ArcSystem, n: int, params: list[Fraction],
               coords: tuple[int, int]) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Exact planar projections (param, coord_i, coord_j) of arc n."""
    if n < sys.first_arc:
        raise ValueError("arc index below the chain start")
    # coordinates past n are the thread's own, so only the prefix to n
    # is built
    count = min(max(coords), n) + 1
    out = []
    for t in params:
        c = sys.arc_point(n, t, count)
        a, b = (c[k] if k < count else sys.thread.coordinate(k) for k in coords)
        out.append((t, a, b))
    return out


def verify_arc_chain(sys: ArcSystem) -> dict:
    """Exact verification of the two arc-chain facts up to the system's
    depth M.

    For each n: (i) arc n+1 coordinates at index n stay strictly below
    1/8 while x_n is at least 1/8, separating arc n+1 from all earlier
    arcs away from the joint; (ii) the unique arc-(n+1) point whose
    coordinate n+1 equals x_{n+1} is exactly the joint y^{n+1}, which is
    also the parameter-0 point of arc n.
    """
    th, M, f_sup = sys.thread, sys.depth, sys.m.f_sup
    checks = []
    failures = []
    span = M + len(th.tail_period) + 4
    for n in range(sys.first_arc, M):
        x_n = th.coordinate(n)
        x_n1 = th.coordinate(n + 1)
        # the separation fact needs x_n >= 1/8, which holds once the tail
        # has begun; at n = N-1 only the joint fact is claimed
        sep_ok = f_sup < MIN_C0 and (n < th.tail_start or x_n >= MIN_C0)
        # the arc-(n+1) point at parameter x_{n+1}: its leading n+1
        # coordinates are iterates of a big-set point, hence all zero
        point = sys.arc_point(n + 1, x_n1, span)
        joint = sys.joint(n + 1).coordinates(span)
        joint_ok = point == joint
        base_ok = sys.arc_point(n, ZERO, span) == joint
        rec = {"n": n, "separation_ok": bool(sep_ok),
               "joint_exact": joint_ok, "joint_on_lower_arc": base_ok}
        checks.append(rec)
        if not (sep_ok and joint_ok and base_ok):
            failures.append(rec)
    # the thread itself sits on the first arc n0 at parameter x_{n0}
    n0 = sys.first_arc
    anchor_ok = sys.arc_point(n0, th.coordinate(n0), span) == th.coordinates(span)
    joint_decay = [{"i": i, "max_leading": str(max(
        [sys.joint(i).coordinate(k) for k in range(i)], default=ZERO))}
        for i in range(1, min(M, 6) + 1)]
    ok = not failures and anchor_ok
    return {"checks": checks, "failures": failures, "thread_on_first_arc": anchor_ok,
            "joint_leading_coordinates": joint_decay, "ok": ok}


# ---------------------------------------------------------------------------
# finite box covers of the inverse limit


@dataclass(frozen=True)
class BoxCover:
    """Outer cover of truncated threads by boxes with exact corners.

    A chain of graph-cover boxes b_1, ..., b_n gives the box
    Y_1 x (T_1 & Y_2) x ... x (T_{n-1} & Y_n) x T_n.  Every interval is
    an int pair over the one denominator d: ``xs[b]`` is box b's T, and
    ``heads[b]`` lists each box j that can follow box b with the top of
    T_b & Y_j, whose bottom is T_b's.  Both end with a virtual box over
    [0, 1], whose meet with Y_j is Y_j: its heads are the first boxes.
    Each list is in row order, so one depth-first recursion
    (``_extend``) meets the chains in coordinate-tuple order;
    ``csv_rows`` and the ``boxes`` view share it.  ``len`` is the chain
    count, known before any row is made.
    """

    dimension: int
    d: int
    xs: tuple[tuple[int, int], ...]
    heads: tuple[tuple[tuple[int, int], ...], ...]
    count: int

    def __len__(self) -> int:
        return self.count

    @cached_property
    def boxes(self) -> list[tuple[ClosedInterval, ...]]:
        """The boxes in row order, made at the edge for the queries that
        read them."""
        d = self.d

        def interval(lo: int, hi: int) -> tuple[ClosedInterval]:
            return (ClosedInterval(Fraction(lo, d), Fraction(hi, d)),)

        return self._walk(interval, interval, (), [])

    def csv_rows(self) -> list[str]:
        head = ",".join(f"x{i}_lo,x{i}_hi" for i in range(self.dimension))
        ends = {e for x in self.xs for e in x} | {top for _, top in self.heads[-1]}
        text = {e: _text(e, self.d) for e in ends}
        return self._walk(lambda lo, hi: f"{text[lo]},{text[hi]},",
                          lambda lo, hi: f"{text[lo]},{text[hi]}", "", [head])

    def _walk(self, part, last, empty, rows: list) -> list:
        """rows, extended by each chain's row in row order: empty, the
        '' or () of part's type, then part(meet) for each meet but the
        last, then part(meet) + last(T) of the last pair.  Each box's
        parts and last parts are made once, before any row, and a chain's
        front once for all its heads."""
        xs, heads = self.xs, self.heads
        parts = [[(j, part(lo, top)) for j, top in hs] for (lo, _), hs in zip(xs, heads)]
        lasts = [[part(lo, top) + last(*xs[j]) for j, top in hs] for (lo, _), hs in zip(xs, heads)]
        _extend(rows, parts, lasts, self.dimension - 2, empty, -1)
        return rows


def _extend(rows: list, parts: list, lasts: list, i: int, front, b: int) -> None:
    """Extend rows by front + each row of the chains that go on from box
    b with i more boxes and a last (box, head) pair, in row order.  A
    module-level function holds no reference to itself, so the rows are
    freed with the last reference to them; the depth is the product's
    n, which ``BOX_CEILING`` bounds."""
    if i:
        for j, s in parts[b]:
            _extend(rows, parts, lasts, i - 1, front + s, j)
    else:
        rows.extend(map(front.__add__, lasts[b]))


def mahavier_cover(m: SetValuedMap, n: int, stage: int, level: int) -> BoxCover:
    """Compose graph-cover boxes into an outer cover of (x_0, ..., x_n).

    A pair (x_i, x_{i-1}) lies in the graph of F, covered by a box
    (T, Y) with x_i in T and x_{i-1} in Y.  A chain of boxes b_1, ...,
    b_n covers the tuples with x_0 in Y_1, x_i in T_i & Y_{i+1} for
    0 < i < n and x_n in T_n, and survives while every constraint is
    nonempty.  Every Y is [0, h] and the T tile [0, 1] with distinct
    left ends, so T & Y is [T.lo, min(T.hi, h)] exactly when h >= T.lo,
    and a row determines its chain.  The chains come in row order when
    the heads of box i go by (min(T_i.hi, h_j), T_j.lo): the boxes of
    height in [T_i.lo, T_i.hi) in height order, then the taller ones by
    T.lo.  They are counted step by step before any is made: box j
    follows box i iff h_j >= T_i.lo, and the T.lo ascend, so the chains
    ending at box j are one prefix sum.  A step that yields more than
    ``BOX_CEILING`` chains raises BoxCountError.
    """
    if n < 1:
        raise ValueError("need at least two coordinates")
    cover = m.graph_cover(stage, level)
    d, tops = cover.d, cover.tops
    ends = [e * (d // cover.q) for e in cover.ends]
    xs = (*zip(ends, ends[1:]), (0, d))
    h = [tops[k] for k in cover.ranks]
    # the sort is stable and the boxes go by T.lo, so ties in h go by T.lo
    by_height = sorted(range(len(h)), key=h.__getitem__)
    heights = [h[j] for j in by_height]
    heads = tuple((*((j, h[j]) for j in by_height[bisect_left(heights, lo):bisect_left(heights, hi)]),
                   *((j, hi) for j, top in enumerate(h) if top >= hi)) for lo, hi in xs)
    # chains by their last box; zip leaves out the virtual box, last in heads
    count, total = [1] * len(h), len(h)
    for _ in range(2, n + 1):
        total = sum(c * len(js) for c, js in zip(count, heads))
        if total > BOX_CEILING:
            raise BoxCountError(f"box chains exceeded ceiling {BOX_CEILING}")
        sums = list(accumulate(count, initial=0))
        count = [sums[bisect_right(ends, top, 0, len(h))] for top in h]
    return BoxCover(n + 1, d, xs, heads, total)


def check_treelike_hypotheses(m: SetValuedMap, stage: int) -> dict:
    """Finite certificates for the tree-likeness hypotheses.

    (i) any value of F taken outside the big set is a singleton below
    1/8 = min of every stage cover, so the preimage of the big set stays
    inside the big set; (ii) stage-cover component widths shrink to 0
    (total disconnectedness at finite resolution); (iii) nondegenerate
    images occur only at points of the big set: F is certified a
    singleton at the midpoint of every gap of the big set's
    stage-TREELIKE_GAP_STAGE cover.
    """
    c0 = m.family.c0
    cover_min = c0.stage(stage).min()
    preimage_ok = m.f_sup < cover_min and cover_min == MIN_C0
    widths = [c0.stage(d).max_component_width() for d in range(stage + 1)]
    shrinking = (all(b <= a for a, b in zip(widths, widths[1:]))
                 and widths[-1] < widths[0] / 8)
    gap_singletons = all(
        eval_F(m, (seg.lo + seg.hi) / 2).is_singleton
        for seg in c0.stage(TREELIKE_GAP_STAGE).complement_in(UNIT))
    return {"preimage_ok": bool(preimage_ok),
            "singleton_sup": str(m.f_sup), "cover_min": str(cover_min),
            "max_component_widths": [str(w) for w in widths],
            "widths_shrink": bool(shrinking),
            "nondegenerate_only_on_big_set": gap_singletons,
            "ok": bool(preimage_ok and shrinking and gap_singletons)}
