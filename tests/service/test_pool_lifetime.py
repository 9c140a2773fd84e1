"""One supervised worker pool per service: lifetime, crashes, shutdown."""

import asyncio
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.dse.executor import PoolHealth, WorkerPool, parallel_map
from repro.errors import ExplorationError
from repro.harness.experiment import derive_point_seed
from repro.service import JobRequest, SimulationService
from repro.service import worker as worker_module

#: The crash test patches the worker function in the parent and relies
#: on forked workers inheriting the patch.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="patched worker functions reach pool workers only by fork")


def _request(config="SLT", workload="yield_pingpong", seed=0):
    return JobRequest(core="cv32e40p", config=config, workload=workload,
                      iterations=2, seed=seed)


def _slow_double(value):
    time.sleep(0.3)
    return value * 2


@pytest.fixture(autouse=True)
def no_stray_children():
    """Start with no child processes left over from earlier tests."""
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    yield


async def _batches(service, waves):
    """Submit each wave concurrently, one wave after the other.

    Returns every result plus the pool's worker PIDs after each wave.
    """
    results, pids = [], []
    for wave in waves:
        results.extend(await asyncio.gather(
            *(service.submit_and_wait(request) for request in wave)))
        pids.append(service.pool.pids if service.pool else [])
    return results, pids


WAVES = [
    [_request("vanilla"), _request("SLT")],
    [_request("vanilla", "sem_signal"), _request("SLT", "sem_signal")],
    [_request("S"), _request("T")],
]


def test_worker_pids_survive_batches():
    async def go():
        async with SimulationService(jobs=2) as service:
            results, pids = await _batches(service, WAVES)
            return results, pids, service.stats
    results, pids, stats = asyncio.run(go())
    assert all(result.ok for result in results)
    assert stats.batches >= len(WAVES)
    assert pids[0] and len(pids[0]) <= 2
    assert pids == [pids[0]] * len(WAVES)
    assert stats.pool.restarts == 0
    assert multiprocessing.active_children() == []


@needs_fork
def test_crash_replaces_pool_once_and_later_batches_reuse_it(monkeypatch,
                                                              tmp_path):
    marker = tmp_path / "crash-once"
    real_execute = worker_module.execute_point

    def crash_once(point):
        try:
            marker.unlink()
        except FileNotFoundError:
            return real_execute(point)
        os._exit(57)  # a real worker death, breaking the pool

    monkeypatch.setattr(worker_module, "execute_point", crash_once)

    async def go():
        async with SimulationService(jobs=2, retries=1) as service:
            first, before = await _batches(service, WAVES[:1])
            marker.touch()
            rest, after = await _batches(service, WAVES[1:])
            return first + rest, before + after, service.stats
    results, pids, stats = asyncio.run(go())
    assert not marker.exists()
    assert all(result.ok for result in results)
    assert stats.pool.crashes >= 1
    assert stats.pool.restarts == 1
    assert pids[1] != pids[0]       # the crash replaced the workers
    assert pids[2] == pids[1]       # the replacement serves later batches
    assert multiprocessing.active_children() == []


def test_worker_killed_between_batches_is_replaced():
    """An idle worker dying (say, OOM-killed) must not wedge the service."""
    async def go():
        async with SimulationService(jobs=2, retries=1) as service:
            first, before = await _batches(service, WAVES[:1])
            os.kill(before[0][0], signal.SIGKILL)
            await asyncio.sleep(0.2)
            rest, after = await _batches(service, WAVES[1:])
            return first + rest, before + after, service.stats
    results, pids, stats = asyncio.run(go())
    assert all(result.ok for result in results)
    assert stats.pool.restarts == 1
    assert pids[0][0] not in pids[1]
    assert pids[2] == pids[1]
    assert multiprocessing.active_children() == []


def test_stop_during_a_batch_leaves_no_children():
    async def go():
        service = SimulationService(jobs=2)
        async with service:
            futures = [await service.submit(request) for request in WAVES[0]]
            await asyncio.sleep(0.01)  # the batch is on the workers
        # Leaving the block drained the batch, then closed the pool.
        return [future.result() for future in futures], service
    results, service = asyncio.run(go())
    assert all(result.ok for result in results)
    assert service.pool is None
    assert multiprocessing.active_children() == []


def test_close_under_a_running_map_finishes_it_without_rebuilding():
    pool = WorkerPool(2)
    health = PoolHealth()
    outcome = {}

    def mapper():
        outcome["results"] = parallel_map(
            _slow_double, list(range(6)), jobs=2, health=health, pool=pool)

    thread = threading.Thread(target=mapper)
    thread.start()
    time.sleep(0.1)   # the first tasks are running
    pool.close()      # the owner stops mid-map: submitted tasks finish
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert outcome["results"] == [value * 2 for value in range(6)]
    assert multiprocessing.active_children() == []
    with pytest.raises(ExplorationError, match="closed"):
        pool.replace(health)  # a crash now would not fork new workers
    with pytest.raises(ExplorationError, match="closed"):
        parallel_map(_slow_double, [1], jobs=2, health=health, pool=pool)
    assert health.restarts == 0


def test_jobs_1_and_jobs_2_return_equal_payloads(monkeypatch):
    """New points, seed-only variants and exact copies, across batches."""
    waves = [
        [_request("vanilla", seed=0), _request("SLT", seed=0),
         _request("vanilla", seed=0)],                       # exact copy
        [_request("vanilla", seed=1), _request("SLT", seed=2),  # seeds
         _request("SLT", "sem_signal", seed=0)],                # new
        [_request("SLT", seed=0), _request("vanilla", seed=1),  # copies
         _request("SLT", "sem_signal", seed=3)],                # seed
    ]

    def payloads(jobs):
        async def go():
            async with SimulationService(jobs=jobs) as service:
                results, _ = await _batches(service, waves)
                return results
        results = asyncio.run(go())
        assert all(result.ok for result in results)
        return [result.run for result in results]

    serial, parallel = payloads(1), payloads(2)
    monkeypatch.setenv("REPRO_SNAPSHOT", "0")
    cold = payloads(1)
    assert serial == cold
    assert parallel == cold
    # Each payload carries its own request's derived seed, memo or not.
    assert [run["seed"] for run in parallel] == [
        derive_point_seed(request.seed, request.core, request.config,
                          request.workload)
        for wave in waves for request in wave]
