"""Deterministic on-disk cache of built families.

One JSON file per (level, budget) pair, named by a hash of the build
parameters.  The payload holds the canonical interval-set text of every
member's stage covers plus each removal schedule, and carries a content
hash.  Saving and loading both build the covers through
``CantorFamily.covers``: member by member in build order, depth by
depth within a member, so each removal-schedule search reads its
neighbours' memoised covers.  Loading rebuilds the family from scratch,
compares every stored cover as soon as it is built, renders it with the
code that wrote the file, and insists on the same text byte for byte,
so a cache file is a determinism certificate for everything it holds.
Saving and loading each pass one table of component texts to every
``to_text`` call, so a component shared by several members or depths
is rendered once per call.  An ``OSError`` on writing, such as a cache
directory path that names a file, is a ``CacheError``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .cantor import (
    DEFAULT_SEARCH_CEILING,
    CantorAddress,
    CantorFamily,
    IntermediateCantor,
    build_family,
)
from .errors import CacheError

FORMAT_VERSION = 1


def _params_string(level: int, budget: int) -> str:
    return f"gillab-family-v{FORMAT_VERSION}:level={level},budget={budget}"


def family_filename(level: int, budget: int) -> str:
    digest = hashlib.sha256(_params_string(level, budget).encode()).hexdigest()[:16]
    return f"family-L{level}-B{budget}-{digest}.json"


def _serialize_anchor(anchor) -> dict:
    if isinstance(anchor, CantorAddress):
        return {"kind": "address", "path": anchor.serialize()}
    return {"kind": "edge", "point": str(anchor)}


def _member_payload(gen, texts: list[str]) -> dict:
    payload = {
        "describe": gen.describe(),
        "stages": texts,
    }
    if isinstance(gen, IntermediateCantor):
        sched = gen.schedule()
        payload["schedule"] = [
            {"index": e.index,
             "point": e.point.serialize() if isinstance(e.point, CantorAddress)
             else str(e.point),
             "createStage": e.create_stage,
             "a": _serialize_anchor(e.a),
             "b": _serialize_anchor(e.b)}
            for e in sched.entries
        ]
    return payload


def _family_payload(fam: CantorFamily, stages: int,
                    texts: dict[str, list[str]]) -> dict:
    return {
        "version": FORMAT_VERSION,
        "level": fam.level,
        "budget": fam.stage_budget,
        "stages": stages,
        "members": {str(r): _member_payload(fam.member(r), texts[str(r)])
                    for r in fam.grid()},
    }


def _content_hash(payload: dict) -> str:
    body = json.dumps(payload["members"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def _render(fam: CantorFamily, stages: int, texts: dict[str, list[str]]) -> str:
    """The cache file text for the family's covers up to depth stages,
    given each member's cover texts by depth."""
    payload = _family_payload(fam, stages, texts)
    payload["contentHash"] = _content_hash(payload)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def save_family(fam: CantorFamily, stages: int, cache_dir: Path) -> Path:
    """Write the family's cover text and schedules; returns the file path."""
    path = Path(cache_dir) / family_filename(fam.level, fam.stage_budget)
    # the directory is made before any cover is built, so that a bad
    # path fails at once
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as ex:
        raise CacheError(f"cannot make cache directory {path.parent}: {ex}") from ex
    table: dict = {}
    texts: dict[str, list[str]] = {str(r): [] for r in fam.grid()}
    for r, _, cover in fam.covers(stages):
        texts[str(r)].append(cover.to_text(table))
    try:
        path.write_text(_render(fam, stages, texts))
    except OSError as ex:
        raise CacheError(f"cannot write cache file {path}: {ex}") from ex
    return path


def load_family(level: int, budget: int, cache_dir: Path,
                search_ceiling: int = DEFAULT_SEARCH_CEILING) -> CantorFamily:
    """Rebuild the family and certify the whole cache file against it."""
    path = Path(cache_dir) / family_filename(level, budget)
    if not path.exists():
        raise CacheError(f"family not built: no cache file {path}")
    try:
        text = path.read_text()
        payload = json.loads(text)
    except (OSError, json.JSONDecodeError) as ex:
        raise CacheError(f"cache file {path} is unreadable: {ex}") from ex
    for key in ("version", "level", "budget", "stages", "members", "contentHash"):
        if not isinstance(payload, dict) or key not in payload:
            raise CacheError(f"cache file {path} is missing field {key!r}")
    if _content_hash(payload) != payload["contentHash"]:
        raise CacheError(f"cache file {path} failed its content-hash check")
    # the depth comes from the stored cover lists, which the content hash
    # covers, and not from the "stages" header, which it does not
    try:
        stages = len(next(iter(payload["members"].values()))["stages"]) - 1
    except (AttributeError, KeyError, StopIteration, TypeError) as ex:
        raise CacheError(f"cache file {path} holds no stage covers") from ex
    fam = build_family(level, budget, search_ceiling)
    # each cover is compared as soon as it is built, so that a padded or
    # tampered cover list fails at its first wrong depth, before any
    # later member's search or any cover exponential in the list's
    # length; the texts rendered here are the ones the whole-file
    # compare uses
    table: dict = {}
    texts: dict[str, list[str]] = {str(r): [] for r in fam.grid()}
    for r, d, cover in fam.covers(stages):
        want = cover.to_text(table)
        try:
            same = payload["members"][str(r)]["stages"][d] == want
        except (IndexError, KeyError, TypeError):
            same = False
        if not same:
            raise CacheError(f"rebuilt family differs from cache file {path} "
                             f"at stage {d} of member {r}")
        texts[str(r)].append(want)
    if _render(fam, stages, texts) != text:
        raise CacheError(f"rebuilt family differs from cache file {path}")
    return fam
