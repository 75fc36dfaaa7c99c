"""Deterministic on-disk cache of built families.

One JSON file per (level, budget) pair, named by a hash of the build
parameters.  The payload holds the canonical interval-set text of every
member's stage covers plus each removal schedule, and carries a content
hash.  One function, ``_file_text``, renders the file for both saving
and loading.  It builds the covers through ``CantorFamily.covers``:
member by member in build order, depth by depth within a member, so
each removal-schedule search reads its neighbours' memoised covers, and
it passes one table of component texts to every ``to_text`` call, so a
component shared by several members or depths is rendered once.
Saving writes that text.  Loading rebuilds the family from scratch,
hands the stored covers to the same function, which compares each cover
as soon as it is built, and insists on the same text byte for byte, so
a cache file is a determinism certificate for everything it holds;
``load_certified`` also hands back the certified cover texts, so that
``family inspect`` reports them without rendering a cover again.  An
``OSError`` on writing, such as a cache directory path that names a
file, is a ``CacheError``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from .cantor import DEFAULT_SEARCH_CEILING, CantorFamily, IntermediateCantor, build_family
from .errors import CacheError

FORMAT_VERSION = 1


def family_filename(level: int, budget: int) -> str:
    params = f"gillab-family-v{FORMAT_VERSION}:level={level},budget={budget}"
    digest = hashlib.sha256(params.encode()).hexdigest()[:16]
    return f"family-L{level}-B{budget}-{digest}.json"


def _content_hash(payload: dict) -> str:
    body = json.dumps(payload["members"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def _file_text(fam: CantorFamily, stages: int, stored: Optional[dict] = None,
               path: Optional[Path] = None) -> str:
    """The cache file text for the family's covers up to depth stages.
    Given a file's stored members, each cover is compared with its
    stored text as soon as it is built, so that a padded or tampered
    cover list fails at its first wrong depth, before any later member's
    search or any cover exponential in the list's length."""
    table: dict = {}
    members = {str(r): {"describe": fam.member(r).describe(), "stages": []}
               for r in fam.grid()}
    for r, d, cover in fam.covers(stages):
        text = cover.to_text(table)
        if stored is not None:
            try:
                same = stored[str(r)]["stages"][d] == text
            except (IndexError, KeyError, TypeError):
                same = False
            if not same:
                raise CacheError(f"rebuilt family differs from cache file {path} "
                                 f"at stage {d} of member {r}")
        members[str(r)]["stages"].append(text)

    for r in fam.grid():
        gen = fam.member(r)
        if isinstance(gen, IntermediateCantor):
            members[str(r)]["schedule"] = [e.to_json_obj() for e in gen.schedule().entries]
    payload = {"version": FORMAT_VERSION, "level": fam.level,
               "budget": fam.stage_budget, "stages": stages, "members": members}
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
    try:
        path.write_text(_file_text(fam, stages))
    except OSError as ex:
        raise CacheError(f"cannot write cache file {path}: {ex}") from ex
    return path


def load_family(level: int, budget: int, cache_dir: Path,
                search_ceiling: int = DEFAULT_SEARCH_CEILING) -> CantorFamily:
    """Rebuild the family and certify the whole cache file against it."""
    return load_certified(level, budget, cache_dir, search_ceiling)[0]


def load_certified(level: int, budget: int, cache_dir: Path,
                   search_ceiling: int = DEFAULT_SEARCH_CEILING
                   ) -> tuple[CantorFamily, dict[str, list[str]]]:
    """``load_family``, with the certified file's cover texts: str(r) to
    the list of member r's stage covers' texts, depth 0 to the file's
    depth, so a report of them renders no cover again."""
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
    if _file_text(fam, stages, payload["members"], path) != text:
        raise CacheError(f"rebuilt family differs from cache file {path}")
    return fam, {r: member["stages"] for r, member in payload["members"].items()}
