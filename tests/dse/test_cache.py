"""Content-addressed cache: hits, misses, invalidation, checkpoints."""

import json

import pytest

from repro.dse import GridPoint, ResultCache, SweepManifest, source_fingerprint
from repro.errors import ExplorationError
from repro.harness import derive_point_seed

POINT = GridPoint("cv32e40p", "SLT", "yield_pingpong", iterations=2, seed=1)
PAYLOAD = {"core": "cv32e40p", "config": "SLT", "latencies": [69, 70],
           "seed": POINT.run_seed}


class TestFingerprint:
    def test_stable_within_process(self):
        assert source_fingerprint() == source_fingerprint()
        assert len(source_fingerprint()) == 16


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(POINT) is None
        cache.put(POINT, PAYLOAD)
        assert cache.get(POINT) == PAYLOAD
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_key_depends_on_every_axis(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = cache.key(POINT)
        for other in (
            GridPoint("cva6", "SLT", "yield_pingpong", 2, 1),
            GridPoint("cv32e40p", "T", "yield_pingpong", 2, 1),
            GridPoint("cv32e40p", "SLT", "sem_signal", 2, 1),
            GridPoint("cv32e40p", "SLT", "yield_pingpong", 3, 1),
        ):
            assert cache.key(other) != base

    def test_key_ignores_the_seed(self, tmp_path):
        cache = ResultCache(tmp_path)
        variant = GridPoint("cv32e40p", "SLT", "yield_pingpong", 2, 7)
        assert variant.identity == POINT.identity
        assert cache.key(variant) == cache.key(POINT)
        assert cache.path(variant) == cache.path(POINT)

    def test_fuzz_scenario_seed_stays_in_the_identity(self):
        # A scenario's own seed is a simulation input, carried by its
        # workload name; only the grid point's bookkeeping seed drops.
        a = GridPoint("cv32e40p", "SLT", "fuzz:mixed_crit:s5", 2, 0)
        b = GridPoint("cv32e40p", "SLT", "fuzz:mixed_crit:s6", 2, 0)
        assert a.identity != b.identity

    def test_seed_variant_hit_is_stamped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(POINT, PAYLOAD)
        variant = GridPoint("cv32e40p", "SLT", "yield_pingpong", 2, 9)
        payload = cache.get(variant)
        assert payload == dict(PAYLOAD, seed=derive_point_seed(
            9, "cv32e40p", "SLT", "yield_pingpong"))
        assert payload["seed"] != PAYLOAD["seed"]
        assert cache.stats.hits == 1 and cache.stats.misses == 0
        assert len(cache) == 1

    def test_hits_are_private_copies(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(POINT, PAYLOAD)
        first = cache.get(POINT)
        first["latencies"].append(1)
        first["seed"] = 0
        assert cache.get(POINT) == PAYLOAD

    def test_source_change_invalidates(self, tmp_path):
        old = ResultCache(tmp_path, fingerprint="aaaa")
        old.put(POINT, PAYLOAD)
        new = ResultCache(tmp_path, fingerprint="bbbb")
        assert new.get(POINT) is None
        assert new.stats.invalidated == 1
        assert len(list(tmp_path.glob("*.json"))) == 0

    def test_schema3_seed_entries_are_reaped(self, tmp_path):
        # Schema 3 named entries per seed (`-i<N>-s<seed>`); a miss on
        # the identity reaps them, and `-i1` never reaps `-i10`.
        point = GridPoint("cv32e40p", "SLT", "yield_pingpong", 1, 3)
        stem, key = "cv32e40p-SLT-yield_pingpong", "0123456789abcdef"
        stale = tmp_path / f"{stem}-i1-s3.{key}.json"
        stale.write_text(json.dumps({"schema": 3, "run": PAYLOAD}))
        others = [tmp_path / f"{stem}-i10-s3.{key}.json",
                  tmp_path / f"{stem}-i10.{key}.json"]
        for other in others:
            other.write_text("{}")
        cache = ResultCache(tmp_path)
        assert cache.get(point) is None
        assert cache.stats.invalidated == 1
        assert not stale.exists()
        assert all(other.exists() for other in others)

    def test_corrupt_entry_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(POINT, PAYLOAD)
        cache.path(POINT).write_text("not json{")
        assert cache.get(POINT) is None
        assert cache.stats.corrupt_evictions == 1
        assert not cache.path(POINT).exists()

    def test_payload_digest_verified_on_read(self, tmp_path):
        # A decodable entry whose payload no longer matches its stored
        # digest (silent disk rot) must be evicted, not served.
        cache = ResultCache(tmp_path)
        cache.put(POINT, PAYLOAD)
        path = cache.path(POINT)
        entry = json.loads(path.read_text())
        entry["run"]["latencies"] = [1, 2]  # rot: digest now stale
        path.write_text(json.dumps(entry))
        assert cache.get(POINT) is None
        assert cache.stats.corrupt_evictions == 1
        assert not path.exists()
        # The tier self-heals: a re-store serves clean hits again.
        cache.put(POINT, PAYLOAD)
        assert cache.get(POINT) == PAYLOAD

    def test_flipped_byte_in_payload_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(POINT, PAYLOAD)
        path = cache.path(POINT)
        blob = bytearray(path.read_bytes())
        # Flip a digit inside the served payload: still valid JSON, but
        # the content no longer matches the stored digest.
        pos = blob.index(b"69", blob.index(b'"run"'))
        blob[pos] ^= 0x01
        path.write_bytes(bytes(blob))
        assert cache.get(POINT) is None
        assert cache.stats.corrupt_evictions == 1

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put(POINT, PAYLOAD)
        assert len(cache) == 1


class TestSweepManifest:
    def test_checkpoint_and_resume(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = SweepManifest(path)
        points = [POINT, GridPoint("cva6", "SLT", "yield_pingpong", 2, 1)]
        manifest.begin(points)
        manifest.mark_done(points[0])
        # A fresh process resuming the same grid sees the checkpoint.
        resumed = SweepManifest(path)
        resumed.begin(points)
        assert resumed.done_count(points) == 1

    def test_grid_change_resets(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = SweepManifest(path)
        manifest.begin([POINT])
        manifest.mark_done(POINT)
        other_grid = [GridPoint("cva6", "T", "sem_signal", 2, 1)]
        resumed = SweepManifest(path)
        resumed.begin(other_grid)
        assert resumed.done_count(other_grid) == 0

    def test_mark_done_is_idempotent(self, tmp_path):
        manifest = SweepManifest(tmp_path / "m.json")
        manifest.begin([POINT])
        manifest.mark_done(POINT)
        manifest.mark_done(POINT)
        assert json.loads((tmp_path / "m.json").read_text())["done"] == \
            [SweepManifest.point_id(POINT)]

    def test_corrupt_manifest_raises(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{broken")
        with pytest.raises(ExplorationError, match="corrupt sweep manifest"):
            SweepManifest(path)
