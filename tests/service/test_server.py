"""Server lifecycle, error propagation and backpressure end to end."""

import asyncio
import time

import pytest

from repro.errors import (
    AnalysisError,
    QueueFullError,
    ServiceError,
    SimulationError,
)
from repro.harness.export import SWEEP_SCHEMA, load_run
from repro.service import BatchPolicy, JobRequest, SimulationService
from repro.service import worker as worker_module


REQ = JobRequest(core="cv32e40p", config="SLT", workload="yield_pingpong",
                 iterations=1, seed=0)


def run(coro):
    return asyncio.run(coro)


class TestHappyPath:
    def test_submit_and_wait(self):
        async def go():
            async with SimulationService() as service:
                return await service.submit_and_wait(REQ)
        result = run(go())
        assert result.ok and result.status == "done"
        assert result.served_by == "executed"
        assert result.latency_s > 0
        # The payload round-trips through the sweep schema loader.
        loaded = load_run(result.run)
        assert loaded.workload == "yield_pingpong"
        assert result.record()["schema"] == SWEEP_SCHEMA

    def test_drain_waits_for_everything(self):
        async def go():
            async with SimulationService() as service:
                futures = [await service.submit(REQ) for _ in range(3)]
                await service.drain()
                assert all(future.done() for future in futures)
                return [future.result() for future in futures]
        results = run(go())
        assert [r.ok for r in results] == [True, True, True]

    def test_stopped_service_refuses_submissions(self):
        async def go():
            service = SimulationService()
            async with service:
                await service.submit_and_wait(REQ)
            with pytest.raises(ServiceError):
                await service.submit(REQ)
        run(go())


class TestErrorPropagation:
    def test_simulation_error_context_reaches_client(self, monkeypatch):
        def explode(point):
            raise SimulationError("task stack corrupted", pc=0x1234,
                                  cycle=999, kind="livelock")
        monkeypatch.setattr(worker_module, "execute_point", explode)

        async def go():
            async with SimulationService() as service:
                return await service.submit_and_wait(REQ)
        result = run(go())
        assert not result.ok and result.status == "error"
        error = result.error
        assert error["type"] == "SimulationError"
        assert "task stack corrupted" in error["message"]
        assert error["pc"] == 0x1234
        assert error["cycle"] == 999
        assert error["kind"] == "livelock"

    def test_empty_result_job_is_clean_error(self, monkeypatch):
        # A run with zero collected samples must surface as a
        # structured "no samples" error record, never a traceback.
        from repro.harness.metrics import LatencyStats

        def empty(point):
            LatencyStats.from_samples([])
        monkeypatch.setattr(worker_module, "execute_point", empty)

        async def go():
            async with SimulationService() as service:
                return await service.submit_and_wait(REQ)
        result = run(go())
        assert result.status == "error"
        assert result.error["type"] == "AnalysisError"
        assert "no samples" in result.error["message"]
        # and the underlying exception is also a plain ValueError
        assert issubclass(AnalysisError, ValueError)

    def test_errors_do_not_poison_the_cache(self, monkeypatch, tmp_path):
        from repro.dse import ResultCache

        calls = {"n": 0}

        def flaky_then_ok(point):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SimulationError("transient-looking failure")
            return real_execute(point)

        real_execute = worker_module.execute_point
        monkeypatch.setattr(worker_module, "execute_point", flaky_then_ok)
        cache = ResultCache(tmp_path, fingerprint="f00d")

        async def go(service):
            async with service:
                return await service.submit_and_wait(REQ)

        first = run(go(SimulationService(cache=cache)))
        assert first.status == "error"
        assert len(cache) == 0  # error outcomes are never cached
        second = run(go(SimulationService(cache=cache)))
        assert second.status == "done"
        assert second.served_by == "executed"  # not a (stale) cache hit


class TestBackpressure:
    def test_queue_full_is_structured_not_blocking(self, monkeypatch):
        def slow_batch(points, jobs=1, retries=1, timeout=None, health=None,
                       pool=None):
            time.sleep(0.3)
            return [{"status": "done", "run": {"fake": True}}
                    for _ in points]
        monkeypatch.setattr("repro.service.server.run_batch", slow_batch)

        async def go():
            service = SimulationService(
                queue_depth=1,
                policy=BatchPolicy(max_batch=1, max_linger=0.0))
            async with service:
                started = time.monotonic()
                first = await service.submit(REQ)   # dispatches
                futures = [first]
                rejections = 0
                # Fill the single queue slot, then overflow it.
                for seed in range(1, 6):
                    request = JobRequest(core="cv32e40p", config="SLT",
                                         workload="yield_pingpong",
                                         iterations=1, seed=seed)
                    try:
                        futures.append(await service.submit(request))
                    except QueueFullError as exc:
                        rejections += 1
                        assert exc.retry_after > 0
                elapsed = time.monotonic() - started
                # Rejections came back immediately, not after the
                # 0.3s-per-batch backlog drained.
                assert elapsed < 0.25
                assert rejections >= 1
                await service.drain()
                return rejections, service.stats
        rejections, stats = run(go())
        assert stats.rejected == rejections
        assert stats.queue_depth == 0


class TestBatching:
    def test_batches_amortize_dispatch(self, monkeypatch):
        seen_batches = []

        def recording_batch(points, jobs=1, retries=1, timeout=None,
                            health=None, pool=None):
            seen_batches.append(len(points))
            return [{"status": "done", "run": {"fake": True}}
                    for _ in points]
        monkeypatch.setattr("repro.service.server.run_batch",
                            recording_batch)

        async def go():
            service = SimulationService(
                policy=BatchPolicy(max_batch=4, max_linger=0.05))
            async with service:
                futures = [await service.submit(
                    JobRequest(core="cv32e40p", config="SLT",
                               workload="yield_pingpong", iterations=1,
                               seed=seed)) for seed in range(8)]
                await asyncio.gather(*futures)
                return service.stats
        stats = run(go())
        assert sum(seen_batches) == 8
        assert all(size <= 4 for size in seen_batches)
        assert max(seen_batches) > 1  # linger actually grouped requests
        assert stats.batches == len(seen_batches)
        assert stats.mean_batch_fill == pytest.approx(
            8 / len(seen_batches))
