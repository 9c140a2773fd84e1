"""Coalescing and dedup: the service's core efficiency guarantee.

Includes the subsystem acceptance test: 50 concurrent submissions over
20 unique grid points must complete with at least 60% of jobs served by
coalescing or the cache — i.e. at most one real execution per unique
point.
"""

import asyncio

from repro.dse import GridPoint, ResultCache
from repro.service import Coalescer, JobRequest, SimulationService


def _point(seed=0, config="SLT"):
    return GridPoint(core="cv32e40p", config=config,
                     workload="yield_pingpong", iterations=1, seed=seed)


class TestKeyScheme:
    def test_key_matches_result_cache(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f00d")
        coalescer = Coalescer(cache)
        point = _point(seed=7)
        assert coalescer.key(point) == cache.key(point)

    def test_key_sensitivity(self):
        coalescer = Coalescer(fingerprint="f00d")
        base = coalescer.key(_point(seed=0))
        assert coalescer.key(_point(seed=0)) == base
        # The seed is bookkeeping, not a simulation input: seed-only
        # variants share one key and so one execution.
        assert coalescer.key(_point(seed=1)) == base
        assert coalescer.key(_point(config="S")) != base

    def test_fingerprint_inherited_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="abcd")
        assert Coalescer(cache).fingerprint == "abcd"


class TestLookup:
    def test_new_then_inflight_then_released(self):
        coalescer = Coalescer(fingerprint="f00d")
        point = _point()
        kind, key = coalescer.lookup(point)
        assert kind == "new"
        leader = object()
        coalescer.lease(key, leader)
        kind, value = coalescer.lookup(point)
        assert kind == "inflight" and value is leader
        coalescer.release(key)
        assert coalescer.lookup(point)[0] == "new"
        assert coalescer.inflight_count == 0

    def test_cache_hit_preferred_over_enqueue(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f00d")
        point = _point()
        cache.put(point, {"fake": "payload"})
        kind, payload = Coalescer(cache).lookup(point)
        assert kind == "cache"
        assert payload == {"fake": "payload", "seed": point.run_seed}


def _seed_free(run):
    return {key: value for key, value in run.items() if key != "seed"}


class TestSeedVariants:
    """Seed-only variants share one simulation, each with its own seed."""

    def test_inflight_variant_gets_its_own_seed(self):
        requests = [JobRequest(core="cv32e40p", config="SLT",
                               workload="yield_pingpong", iterations=1,
                               seed=seed) for seed in (0, 5)]

        async def go():
            async with SimulationService() as service:
                futures = [await service.submit(request)
                           for request in requests]
                return await asyncio.gather(*futures), service.stats

        (leader, follower), stats = asyncio.run(go())
        assert (leader.served_by, follower.served_by) == \
            ("executed", "coalesced")
        assert stats.executed == 1
        for request, result in zip(requests, (leader, follower)):
            assert result.run["seed"] == request.point().run_seed
        assert leader.run["seed"] != follower.run["seed"]
        assert _seed_free(leader.run) == _seed_free(follower.run)

    def test_cached_variant_is_stamped(self, tmp_path):
        cache = ResultCache(tmp_path)

        async def serve(seed):
            async with SimulationService(cache=cache) as service:
                return await service.submit_and_wait(JobRequest(
                    core="cv32e40p", config="SLT",
                    workload="yield_pingpong", iterations=1, seed=seed))

        first = asyncio.run(serve(0))
        variant = asyncio.run(serve(3))
        assert (first.served_by, variant.served_by) == ("executed", "cache")
        assert variant.run["seed"] == variant.request.point().run_seed
        assert variant.run["seed"] != first.run["seed"]
        assert _seed_free(variant.run) == _seed_free(first.run)
        assert len(cache) == 1


class TestAcceptance:
    """50 submissions, 20 unique points, >= 60% coalesce+cache."""

    def test_50_jobs_over_20_points(self, tmp_path):
        unique = [JobRequest(core="cv32e40p", config=config,
                             workload="yield_pingpong", iterations=1,
                             seed=seed)
                  for config in ("vanilla", "SLT")
                  for seed in range(10)]
        assert len(unique) == 20
        # 50 requests: every unique point once, then 30 duplicates
        # interleaved deterministically.
        requests = list(unique)
        while len(requests) < 50:
            requests.append(unique[(len(requests) * 7) % len(unique)])

        cache = ResultCache(tmp_path / "cache")
        service = SimulationService(cache=cache, queue_depth=64)

        async def submit_all():
            async with service:
                futures = [await service.submit(request)
                           for request in requests]
                return await asyncio.gather(*futures)

        results = asyncio.run(submit_all())

        assert len(results) == 50
        assert all(result.ok for result in results)
        stats = service.stats
        assert stats.failed == 0
        assert stats.executed <= 20  # one real simulation per unique point
        assert stats.cache_hits + stats.coalesced >= 30
        assert stats.hit_rate >= 0.6
        # Identical requests produced identical payloads.
        by_request: dict = {}
        for request, result in zip(requests, results):
            by_request.setdefault(request, []).append(result.run)
        for payloads in by_request.values():
            assert all(payload == payloads[0] for payload in payloads)
