import json

import pytest

from gillab import cache
from gillab.cache import family_filename, load_family, save_family
from gillab.cantor import GapAttachedCantor, IntermediateCantor, MiddleThirds, build_family
from gillab.errors import CacheError
from gillab.exact import IntervalSet

from conftest import rewrite
from reference import built


@pytest.fixture(scope="module")
def small_family():
    return build_family(1, 24, 15)


class TestCache:
    def test_round_trip(self, small_family, tmp_path):
        path = save_family(small_family, 4, tmp_path)
        assert path.exists()
        loaded = load_family(1, 24, tmp_path)
        for r in small_family.grid():
            for d in range(5):
                assert (loaded.member(r).stage(d).to_text()
                        == small_family.member(r).stage(d).to_text())

    def test_rebuild_byte_identical(self, small_family, tmp_path):
        p1 = save_family(small_family, 4, tmp_path / "a")
        p2 = save_family(build_family(1, 24, 15), 4, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CacheError, match="not built"):
            load_family(1, 24, tmp_path)

    def test_corrupt_json(self, small_family, tmp_path):
        path = save_family(small_family, 3, tmp_path)
        path.write_text("{not json")
        with pytest.raises(CacheError, match="unreadable"):
            load_family(1, 24, tmp_path)

    def test_hash_mismatch(self, small_family, tmp_path):
        path = save_family(small_family, 3, tmp_path)
        payload = json.loads(path.read_text())
        member = sorted(payload["members"])[0]
        payload["members"][member]["stages"][0] = "0..1"
        path.write_text(json.dumps(payload))
        with pytest.raises(CacheError, match="content-hash"):
            load_family(1, 24, tmp_path)

    def test_tampered_hash_caught_by_cover_diff(self, small_family, tmp_path):
        # an attacker fixing up the hash still fails the rebuild comparison
        path = save_family(small_family, 3, tmp_path)
        payload = json.loads(path.read_text())
        member = sorted(payload["members"])[0]
        payload["members"][member]["stages"][0] = "0..1"
        rewrite(path, payload, rehash=True)
        with pytest.raises(CacheError, match="differs from cache"):
            load_family(1, 24, tmp_path)

    def test_untampered_rewrite_loads(self, small_family, tmp_path):
        # the control for the planted faults below: rewriting the payload
        # unchanged reproduces the file byte for byte
        path = save_family(small_family, 3, tmp_path)
        before = path.read_bytes()
        rewrite(path, json.loads(before), rehash=True)
        assert path.read_bytes() == before
        load_family(1, 24, tmp_path)

    def test_tampered_schedule_entry(self, small_family, tmp_path):
        path = save_family(small_family, 3, tmp_path)
        payload = json.loads(path.read_text())
        payload["members"]["1/2"]["schedule"][0]["createStage"] += 1
        rewrite(path, payload, rehash=True)
        with pytest.raises(CacheError, match="differs from cache"):
            load_family(1, 24, tmp_path)

    def test_stages_header_disagrees_with_covers(self, small_family, tmp_path):
        # the content hash does not cover the header
        path = save_family(small_family, 3, tmp_path)
        payload = json.loads(path.read_text())
        payload["stages"] = 2
        rewrite(path, payload, rehash=False)
        with pytest.raises(CacheError, match="differs from cache"):
            load_family(1, 24, tmp_path)

    def test_padded_cover_lists_fail_at_the_first_wrong_depth(
            self, small_family, tmp_path, monkeypatch):
        # 41 covers per member under a recomputed hash once made the
        # rebuild render C_0 at depth 40, (d+3)*2^d components: a hang
        path = save_family(small_family, 3, tmp_path)
        payload = json.loads(path.read_text())
        for member in payload["members"].values():
            member["stages"] += [member["stages"][-1]] * 37
            assert len(member["stages"]) == 41
        rewrite(path, payload, rehash=True)
        rebuilt = []

        def build(*args):
            rebuilt.append(build_family(*args))
            return rebuilt[-1]

        monkeypatch.setattr(cache, "build_family", build)
        with pytest.raises(CacheError, match="differs from cache .* at stage 4 "):
            load_family(1, 24, tmp_path)
        fam, = rebuilt
        assert max(len(fam.member(r)._stage_memo) - 1 for r in fam.grid()) == 4

    def test_missing_member_fails_at_stage_zero(self, small_family, tmp_path):
        path = save_family(small_family, 3, tmp_path)
        payload = json.loads(path.read_text())
        del payload["members"]["1/2"]
        rewrite(path, payload, rehash=True)
        with pytest.raises(CacheError, match="at stage 0 of member 1/2"):
            load_family(1, 24, tmp_path)

    def test_wrong_c0_cover_fails_before_any_search(self, tmp_path, monkeypatch):
        # covers are built and compared member by member in build order,
        # C_0 first, so a wrong C_0 cover fails before any intermediate
        # set searches its schedule
        path = save_family(built(2, 56), 3, tmp_path)
        payload = json.loads(path.read_text())
        stages = payload["members"]["0"]["stages"]
        stages[3] = stages[2]
        rewrite(path, payload, rehash=True)
        rebuilt = []

        def build(*args):
            rebuilt.append(build_family(*args))
            return rebuilt[-1]

        monkeypatch.setattr(cache, "build_family", build)
        with pytest.raises(CacheError, match="differs from cache .* at stage 3 of member 0$"):
            load_family(2, 56, tmp_path)
        fam, = rebuilt
        ics = [gen for gen in fam.members.values() if isinstance(gen, IntermediateCantor)]
        assert len(ics) == 3
        assert all(gen._schedule is None for gen in ics)

    def test_missing_field(self, small_family, tmp_path):
        path = save_family(small_family, 3, tmp_path)
        payload = json.loads(path.read_text())
        del payload["members"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CacheError, match="missing field"):
            load_family(1, 24, tmp_path)

    def test_unwritable_cache_file_is_a_cache_error(self, small_family, tmp_path):
        # a directory in the cache file's place
        (tmp_path / family_filename(1, 24)).mkdir()
        with pytest.raises(CacheError, match="cannot write cache file .*Is a directory"):
            save_family(small_family, 2, tmp_path)

    def test_filename_stable(self):
        assert family_filename(2, 56) == family_filename(2, 56)
        assert family_filename(2, 56) != family_filename(1, 56)

    def test_filename_is_pinned(self):
        # the name hashes the build parameters: a drift in the hashed
        # string would orphan every cache file already written
        assert family_filename(3, 56) == "family-L3-B56-689ef567d976fc8e.json"
        assert family_filename(2, 56) == "family-L2-B56-6ac8af845b895277.json"


def test_a_load_refines_only_past_the_memoised_covers(tmp_path, monkeypatch):
    # each search reads its neighbours' covers memoised through depth 8,
    # and a component's children come off a memoised cover where there is
    # one; a level-3 load made 2,800 _children_of calls when every search
    # ran before any cover past depth 1 was memoised
    save_family(build_family(3, 56, 15), 8, tmp_path)
    calls = []

    def counted(children_of):
        def wrapper(gen, d, lo, hi):
            calls.append(d >= len(gen._stage_memo))
            return children_of(gen, d, lo, hi)
        return wrapper

    for cls in (MiddleThirds, GapAttachedCantor, IntermediateCantor):
        monkeypatch.setattr(cls, "_children_of", counted(cls._children_of))
    load_family(3, 56, tmp_path)
    assert 0 < len(calls) <= 444
    assert all(calls)


def test_save_and_load_each_render_every_cover_once(tmp_path, monkeypatch):
    # 9 members at level 3, each with covers at depths 0..8; saving and
    # loading share one render loop, so neither renders a cover twice
    to_text = IntervalSet.to_text
    calls = []

    def counted(cover, table=None):
        calls.append(cover)
        return to_text(cover, table)

    monkeypatch.setattr(IntervalSet, "to_text", counted)
    save_family(built(3, 56), 8, tmp_path)
    assert len(calls) == 81
    calls.clear()
    load_family(3, 56, tmp_path)
    assert len(calls) == 81
