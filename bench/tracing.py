"""Spans and counters around gillab's public functions, from outside.

`install` wraps every binding a caller uses -- class methods, module
globals imported by name, and the CLI's suite table -- and returns a
`Patches` object whose `restore()` puts every original back.  Nothing
inside gillab changes.  A span is (name, start, end, parent); a
layer's self time is its span time minus the time of its child spans.
Spans stay in memory and are written as JSONL by `write_jsonl`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.active = True
        self._stack: list[int] = []
        self._child_s: list[float] = []

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            child = self._child_s.pop()
            self.spans[idx][1:3] = start, end
            self.self_s[name] += (end - start) - child
            if self._child_s:
                self._child_s[-1] += end - start
            self.counts[name + ".calls"] += 1

    def metrics(self) -> dict[str, float]:
        out = dict(self.counts)
        out.update({name + ".s": s for name, s in self.self_s.items()})
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")


def _wrap(tracer: Tracer, name, fn, before=None, after=None):
    """`name` is a span name or a function of the call's arguments."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        state = before(*args) if before else None
        span = name(*args) if callable(name) else name
        result = tracer.call(span, fn, args, kwargs)
        if after:
            tracer.active = False
            try:
                after(tracer, args, result, state)
            finally:
                tracer.active = True
        return result

    return wrapper


class Patches:
    """Every replaced binding, so that `restore` can undo them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object, bool]] = []

    def set_attr(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key), False))
        setattr(owner, key, value)

    def set_item(self, mapping, key, value):
        self._undo.append((mapping, key, mapping[key], True))
        mapping[key] = value

    def restore(self):
        while self._undo:
            owner, key, original, is_item = self._undo.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)


def gillab_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "gillab" or name.startswith("gillab.")]


def _rebind_everywhere(patches: Patches, fn, wrapper):
    """Replace `fn` in every gillab module namespace and module-level dict."""
    for mod in gillab_modules():
        for key, value in list(vars(mod).items()):
            if value is fn:
                patches.set_attr(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is fn:
                        patches.set_item(value, k, wrapper)


# -- per-layer counters ---------------------------------------------------

STAGE_KINDS = {"MiddleThirds": "mt", "GapAttachedCantor": "ga",
               "IntermediateCantor": "ic"}


def _stage_kind(gen) -> str:
    return STAGE_KINDS[type(gen).__name__]


def _stage_before(gen, d):
    return len(gen._stage_memo)


def _stage_after(tracer, args, result, memo_before):
    gen, d = args[0], args[1]
    base = "cantor.stage." + _stage_kind(gen)
    memo = gen._stage_memo
    if len(memo) == memo_before:
        tracer.counts[base + ".hits"] += 1
    else:
        tracer.counts[base + ".misses"] += len(memo) - memo_before
        tracer.counts[base + ".components"] += sum(
            len(memo[k]) for k in range(memo_before, len(memo)))
    key = base + ".max_depth"
    tracer.counts[key] = max(tracer.counts[key], d)


def _schedule_after(tracer, args, result, was_built):
    if not was_built:
        tracer.counts["cantor.schedule.entries"] += len(result.entries)
        tracer.counts["cantor.schedule.reuses"] += len(result.reuses)


def _membership_after(tracer, args, result, state):
    tracer.counts["cantor.membership." + result.verdict] += 1


def _graph_cover_after(tracer, args, result, was_cached):
    if not was_cached:
        tracer.counts["bonding.graph_cover.misses"] += 1
        tracer.counts["bonding.graph_cover.boxes"] += len(result.boxes)


def _mahavier_after(original):
    def after(tracer, args, result, state):
        m, n, stage, level = args[:4]
        boxes = len(m.graph_cover(stage, level).boxes)
        prev = len(original(m, n - 1, stage, level).boxes) if n > 1 else 1
        tracer.counts["invlimit.mahavier_cover.chains"] += len(result.boxes)
        tracer.counts["invlimit.mahavier.tried"] += prev * boxes
    return after


def _count(key, measure):
    def after(tracer, args, result, state):
        tracer.counts[key] += measure(result)
    return after


def install(tracer: Tracer) -> Patches:
    """Wrap gillab's layer boundaries; the caller must `restore()`."""
    from gillab import bonding, cache, cantor, cli, dynamics, exact, invlimit

    patches = Patches()
    methods = [
        (exact.IntervalSet, "subtract_open", "exact.subtract_open", None, None),
        (exact.IntervalSet, "contains_point", "exact.contains_point", None, None),
        (exact.IntervalSet, "intersect_interval", "exact.intersect_interval",
         None, None),
        (exact.IntervalSet, "to_text", "exact.to_text", None,
         _count("exact.to_text.bytes", len)),
        (cantor.CantorGen, "stage",
         lambda gen, d: "cantor.stage." + _stage_kind(gen),
         _stage_before, _stage_after),
        (cantor.IntermediateCantor, "schedule", "cantor.schedule",
         lambda gen: gen._schedule is not None, _schedule_after),
        (bonding.SetValuedMap, "graph_cover", "bonding.graph_cover",
         lambda m, stage, level: (stage, level) in m._cover_cache,
         _graph_cover_after),
    ]
    for cls in (cantor.MiddleThirds, cantor.GapAttachedCantor,
                cantor.IntermediateCantor):
        methods.append((cls, "membership", "cantor.membership", None,
                        _membership_after))
        methods.append((cls, "endpoints", "cantor.endpoints", None, None))
    for cls, attr, name, before, after in methods:
        patches.set_attr(cls, attr, _wrap(tracer, name, vars(cls)[attr],
                                          before, after))

    functions = [
        (exact._normalize, "exact.normalize", _count("exact.normalize.components", len)),
        (cantor.build_family, "cantor.build_family", None),
        (bonding.eval_F, "bonding.eval_F",
         _count("bonding.eval_F.singleton", lambda fb: int(fb.is_singleton))),
        (bonding.check_usc, "bonding.check.usc", None),
        (bonding.check_weak_continuity, "bonding.check.weak_continuity", None),
        (bonding.check_ivp_consistency, "bonding.check.ivp", None),
        (bonding.check_light, "bonding.check.light", None),
        (bonding.check_empty_interior, "bonding.check.empty_interior", None),
        (dynamics.make_cycle, "dynamics.make_cycle", None),
        (dynamics.verify_cycle, "dynamics.verify_cycle", None),
        (invlimit.make_thread, "invlimit.make_thread", None),
        (invlimit.verify_thread, "invlimit.verify_thread", None),
        (invlimit.verify_arc_chain, "invlimit.verify_arc_chain", None),
        (invlimit.check_treelike_hypotheses, "invlimit.check_treelike", None),
        (invlimit.mahavier_cover, "invlimit.mahavier_cover",
         _mahavier_after(invlimit.mahavier_cover)),
        (cache.save_family, "cache.save_family",
         _count("cache.save_family.bytes", lambda path: path.stat().st_size)),
        (cache.load_family, "cache.load_family", None),
    ]
    functions += [(fn, "cli.suite." + name, None) for name, fn in cli.SUITES.items()]
    for fn, name, after in functions:
        _rebind_everywhere(patches, fn, _wrap(tracer, name, fn, None, after))
    return patches


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Raw counters and self times plus the derived ratios."""
    out = tracer.metrics()
    calls = out.get("cantor.membership.calls", 0)
    out["cantor.membership.unknown_share"] = (
        out.get("cantor.membership.unknown", 0) / calls if calls else 0.0)
    tried = out.get("invlimit.mahavier.tried", 0)
    out["invlimit.mahavier.yield"] = (
        out.get("invlimit.mahavier_cover.chains", 0) / tried if tried else 0.0)
    return out
