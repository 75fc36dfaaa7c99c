"""Threads of the generalized inverse limit, arc chains, and box covers.

A thread is a finitely described point (x_0, x_1, ...) with
x_{i-1} in F(x_i) for every i: a short prefix of base-map iterates
followed by an eventually periodic tail inside the smallest family set,
where F = [0, 1] makes every step certificate exact.  The index where
the tail begins is the unique stage N with x_n in the big set exactly
for n >= N.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .bonding import MIN_C0, SetValuedMap, eval_F
from .cantor import DEFAULT_MAX_STAGE
from .dynamics import Cycle, certify_step, iterate_f
from .errors import BoxCountError
from .exact import UNIT, ClosedInterval, IntervalSet, ONE, ZERO

BOX_CEILING = 10 ** 6
TREELIKE_GAP_STAGE = 3


@dataclass(frozen=True)
class Thread:
    """Point of the inverse limit: iterate prefix plus periodic tail.

    ``coordinate(n)`` is prefix[n] for n < tail_start and cycles through
    ``tail_period`` afterwards.  The all-zero thread is the lone point
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

    def arc_range(self) -> range:
        return range(max(self.thread.tail_start - 1, 0), self.depth + 1)

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
    if n < sys.thread.tail_start - 1:
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
    for n in range(max(th.tail_start - 1, 0), M):
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
    # the thread itself sits on the first arc at parameter x_{N-1}
    anchor_ok = True
    if th.tail_start >= 1:
        n0 = th.tail_start - 1
        anchor_ok = (sys.arc_point(n0, th.coordinate(n0), span)
                     == th.coordinates(span))
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

    Box k is the tuple of ranked[r] over the ``dimension`` digits r of
    keys[k] in base len(ranked), leading digit first.  The intervals
    ascend and the keys ascend, so the boxes come in coordinate-tuple
    order.  ``csv_rows`` renders from the keys; ``boxes`` makes the
    tuples at the edge, for the queries that read them.  Both share one
    loop over the runs of keys with the same leading digits: it makes
    each run's front part once and each distinct part of the last two
    coordinates once, and joins them row by row.
    """

    dimension: int
    ranked: tuple[ClosedInterval, ...]
    keys: list[int]

    @cached_property
    def boxes(self) -> list[tuple[ClosedInterval, ...]]:
        """The boxes in key order; boxes that agree on their leading or
        their last two coordinates share that part's intervals."""
        ranked = self.ranked

        def intervals(ranks) -> tuple[ClosedInterval, ...]:
            return tuple(ranked[r] for r in ranks)

        return self._rows(intervals, intervals, [])

    def project(self, i: int) -> IntervalSet:
        return IntervalSet(box[i] for box in self.boxes)

    def csv_rows(self) -> list[str]:
        head = ",".join(f"x{i}_lo,x{i}_hi" for i in range(self.dimension))
        texts = [f"{iv.lo},{iv.hi}" for iv in self.ranked]
        # a front is empty in dimension 2, so it carries its own commas
        return self._rows(lambda ranks: "".join(texts[r] + "," for r in ranks),
                          lambda ranks: ",".join(texts[r] for r in ranks), [head])

    def _rows(self, front_of, back_of, rows: list) -> list:
        """rows, extended by front_of(leading ranks) + back_of(last two
        ranks) for each key.  The keys ascend, so the keys sharing their
        leading ranks form one run, found by one bisection; each run's
        front and each distinct back is made once."""
        keys, base = self.keys, len(self.ranked)
        lead, split = self.dimension - 2, base * base
        backs: dict = {}
        i = 0
        while i < len(keys):
            start = keys[i] - keys[i] % split
            j = bisect_left(keys, start + split, i)
            front = front_of(_digits(start // split, lead, base))
            run = [key - start for key in keys[i:j]]
            for back in run:
                if back not in backs:
                    backs[back] = back_of(divmod(back, base))
            rows.extend([front + backs[back] for back in run])
            i = j
        return rows


def _digits(key: int, count: int, base: int) -> list[int]:
    """The last ``count`` digits of key in base ``base``, leading digit first."""
    out = []
    for _ in range(count):
        key, r = divmod(key, base)
        out.append(r)
    return out[::-1]


def mahavier_cover(m: SetValuedMap, n: int, stage: int, level: int) -> BoxCover:
    """Compose graph-cover boxes into an outer cover of (x_0, ..., x_n).

    A pair (x_i, x_{i-1}) lies in the graph of F, covered by a box
    (T, Y) with x_i in T and x_{i-1} in Y.  A chain of boxes b_1, ...,
    b_n covers the tuples with x_0 in Y_1, x_i in T_i & Y_{i+1} for
    0 < i < n and x_n in T_n, and survives while every constraint is
    nonempty.  Every Y is [0, h] and every T lies in [0, 1], so T & Y
    is [T.lo, min(T.hi, h)] exactly when h >= T.lo: a tail finds its
    heads by one bisection of the boxes in height order, which is the
    order of their ranks.  Each interval is an int pair over one
    denominator, so the distinct pairs rank in ClosedInterval order and
    the chains sort, in coordinate-tuple order, by integer keys.  A step
    that yields more than ``BOX_CEILING`` chains raises BoxCountError.
    """
    if n < 1:
        raise ValueError("need at least two coordinates")
    cover = m.graph_cover(stage, level)
    ranks = cover.ranks
    d, tops = cover.int_heights
    ends = [e * (d // cover.q) for e in cover.ends]
    xs = list(zip(ends, ends[1:]))
    ys = [(0, tops[k]) for k in ranks]
    by_height = sorted(range(len(ranks)), key=ranks.__getitem__)
    heights = [tops[ranks[j]] for j in by_height]
    # heads[i]: each box j that can follow box i, with T_i & Y_j
    heads = [[(j, (lo, min(hi, tops[ranks[j]])))
              for j in by_height[bisect_left(heights, lo):]] for lo, hi in xs]
    ranked = sorted({*xs, *ys, *(iv for meets in heads for _, iv in meets)})
    rank = {iv: r for r, iv in enumerate(ranked)}
    base = len(ranked)
    digits = [[rank[iv] for _, iv in meets] for meets in heads]
    # a chain is its coordinate ranks so far, read as one integer in base
    # `base`, and the index of its last box, whose T is still to come
    keys = [rank[yb] for yb in ys]
    last = list(range(len(ranks)))
    for _ in range(2, n + 1):
        if sum(len(heads[i]) for i in last) > BOX_CEILING:
            raise BoxCountError(f"box chains exceeded ceiling {BOX_CEILING}")
        keys = [key * base + r for key, i in zip(keys, last) for r in digits[i]]
        last = [j for i in last for j, _ in heads[i]]
    keys = [key * base + rank[xs[i]] for key, i in zip(keys, last)]
    keys.sort()
    return BoxCover(n + 1, tuple(ClosedInterval(Fraction(lo, d), Fraction(hi, d))
                                 for lo, hi in ranked), keys)


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
