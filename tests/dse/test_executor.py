"""Grid construction, parallel_map semantics, executor determinism."""

import os
import pathlib
import time

import pytest

from repro.dse import (
    DSEExecutor,
    GridPoint,
    ResultCache,
    SweepManifest,
    build_grid,
    execute_point,
    group_suites,
    parallel_map,
)
from repro.dse.executor import PoolHealth
from repro.errors import ExplorationError
from repro.harness.experiment import derive_point_seed
from repro.harness.export import run_dict


def _double(value):
    return value * 2


def _boom(_value):
    raise RuntimeError("boom")


def _fail_once(arg):
    """Worker that fails while its marker file exists (consuming it)."""
    value, marker_dir = arg
    marker = pathlib.Path(marker_dir) / f"fail-{value}"
    if marker.exists():
        marker.unlink()
        raise RuntimeError("flaky")
    return value * 10


def _die_once(arg):
    """Worker that hard-kills its process while its marker exists."""
    value, marker_dir = arg
    marker = pathlib.Path(marker_dir) / f"die-{value}"
    if marker.exists():
        marker.unlink()
        os._exit(57)  # no exception, no cleanup: a real worker death
    return value * 10


def _stall_once(arg):
    """Worker that wedges (far past any deadline) while its marker exists."""
    value, marker_dir = arg
    marker = pathlib.Path(marker_dir) / f"stall-{value}"
    if marker.exists():
        marker.unlink()
        time.sleep(60.0)
    return value * 10


class TestGrid:
    def test_canonical_order(self):
        points = build_grid(cores=("a", "b"), configs=("x",),
                            workloads=("w1", "w2"), iterations=3, seed=9)
        assert [p.label for p in points] == [
            "a/x/w1", "a/x/w2", "b/x/w1", "b/x/w2"]
        assert all(p.iterations == 3 and p.seed == 9 for p in points)

    def test_points_are_hashable_and_serialisable(self):
        point = GridPoint("cv32e40p", "SLT", "yield_pingpong", 2, 1)
        assert {point: 1}[point] == 1
        assert point.as_dict()["config"] == "SLT"


class TestParallelMap:
    def test_serial_preserves_order(self):
        assert parallel_map(_double, [3, 1, 2], jobs=1) == [6, 2, 4]

    def test_parallel_preserves_order(self):
        assert parallel_map(_double, list(range(8)), jobs=2) == \
            [v * 2 for v in range(8)]

    def test_serial_retry_then_fail(self):
        with pytest.raises(ExplorationError, match="after 2 attempts"):
            parallel_map(_boom, [1], jobs=1, retries=1)

    def test_serial_on_result_hook(self):
        seen = []
        parallel_map(_double, [5, 6], jobs=1,
                     on_result=lambda i, r: seen.append((i, r)))
        assert seen == [(0, 10), (1, 12)]

    def test_parallel_retry_recovers(self, tmp_path):
        for value in (1, 2):
            (tmp_path / f"fail-{value}").touch()
        results = parallel_map(_fail_once,
                               [(v, str(tmp_path)) for v in (1, 2, 3)],
                               jobs=2, retries=1)
        assert results == [10, 20, 30]

    def test_parallel_exhausted_retries_raise(self, tmp_path):
        with pytest.raises(ExplorationError):
            parallel_map(_boom, [1, 2], jobs=2, retries=1)


class TestSupervision:
    def test_serial_poison_quarantines_in_slot(self):
        def on_poison(index, item, attempts, reason):
            return {"poisoned": item, "attempts": attempts,
                    "reason": reason}

        health = PoolHealth()
        results = parallel_map(
            lambda v: _boom(v) if v == 2 else v * 2, [1, 2, 3],
            jobs=1, retries=1, on_poison=on_poison, health=health)
        assert results[0] == 2 and results[2] == 6
        assert results[1]["poisoned"] == 2
        assert results[1]["attempts"] == 2
        assert "boom" in results[1]["reason"]
        assert health.poisoned == 1
        assert health.retries == 1

    def test_pool_poison_keeps_batch_mates_alive(self):
        def on_poison(index, item, attempts, reason):
            return ("quarantined", item)

        health = PoolHealth()
        results = parallel_map(_boom, [1, 2], jobs=2, retries=1,
                               on_poison=on_poison, health=health)
        assert results == [("quarantined", 1), ("quarantined", 2)]
        assert health.poisoned == 2

    def test_worker_death_rebuilds_pool_and_recovers(self, tmp_path):
        (tmp_path / "die-1").touch()
        health = PoolHealth()
        results = parallel_map(_die_once,
                               [(v, str(tmp_path)) for v in (1, 2, 3)],
                               jobs=2, retries=2, health=health)
        assert results == [10, 20, 30]
        assert health.crashes >= 1
        assert health.restarts >= 1

    def test_stalled_worker_charged_and_pool_replaced(self, tmp_path):
        (tmp_path / "stall-1").touch()
        health = PoolHealth()
        start = time.monotonic()
        results = parallel_map(_stall_once,
                               [(1, str(tmp_path))],
                               jobs=2, retries=1, timeout=2.0,
                               health=health)
        assert results == [10]
        assert health.stalls == 1
        assert health.restarts >= 1
        assert health.retries == 1
        # The stalled process was terminated, not waited out.
        assert time.monotonic() - start < 30.0

    def test_health_accumulates_across_batches(self):
        health = PoolHealth()
        parallel_map(_boom, [1], jobs=1, retries=1, health=health,
                     on_poison=lambda *args: None)
        parallel_map(_boom, [1], jobs=1, retries=1, health=health,
                     on_poison=lambda *args: None)
        assert health.poisoned == 2
        assert health.retries == 2
        assert health.as_dict()["poisoned"] == 2

    def test_executor_exposes_health(self):
        executor = DSEExecutor(jobs=1)
        points = build_grid(cores=("cv32e40p",), configs=("vanilla",),
                            workloads=("yield_pingpong",), iterations=2)
        executor.run(points)
        assert executor.health.as_dict() == {
            "retries": 0, "crashes": 0, "stalls": 0, "restarts": 0,
            "poisoned": 0}


class TestExecutePoint:
    def test_runs_and_derives_seed(self):
        point = GridPoint("cv32e40p", "SLT", "yield_pingpong",
                          iterations=2, seed=5)
        run = execute_point(point)
        assert run.core == "cv32e40p"
        assert run.config_name == "SLT"
        assert run.seed == derive_point_seed(5, "cv32e40p", "SLT",
                                             "yield_pingpong")
        assert run.latencies


class TestDSEExecutor:
    def test_grid_order_independent_of_jobs(self):
        points = build_grid(cores=("cv32e40p",), configs=("vanilla", "T"),
                            workloads=("yield_pingpong",), iterations=2)
        serial = DSEExecutor(jobs=1).run(points)
        parallel = DSEExecutor(jobs=2).run(points)
        assert list(serial) == points == list(parallel)
        for point in points:
            assert serial[point].latencies == parallel[point].latencies
            assert serial[point].seed == parallel[point].seed

    def test_progress_hook_fires_per_point(self):
        points = build_grid(cores=("cv32e40p",), configs=("vanilla",),
                            workloads=("yield_pingpong",), iterations=2)
        seen = []
        DSEExecutor(progress=lambda p, r, c: seen.append((p, c))).run(points)
        assert seen == [(points[0], False)]

    def test_group_suites_shape(self):
        points = build_grid(cores=("cv32e40p",), configs=("vanilla", "T"),
                            workloads=("yield_pingpong", "sem_signal"),
                            iterations=2)
        runs = DSEExecutor(jobs=1).run(points)
        suites = group_suites(points, runs)
        assert set(suites) == {("cv32e40p", "vanilla"), ("cv32e40p", "T")}
        for suite in suites.values():
            assert [r.workload for r in suite.runs] == \
                ["yield_pingpong", "sem_signal"]
            assert suite.stats.count > 0


class TestSeedGrouping:
    """Seed-only variants of a sweep share one simulation."""

    SEEDS = (0, 1, 2)

    @staticmethod
    def _grid(seed):
        return build_grid(cores=("cv32e40p",), configs=("vanilla", "SLT"),
                          workloads=("yield_pingpong", "sem_signal"),
                          iterations=2, seed=seed)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_multi_seed_sweep_equals_per_seed_sweeps(self, jobs, tmp_path):
        points = [point for seed in self.SEEDS for point in self._grid(seed)]
        seen = []
        cache = ResultCache(tmp_path / "cache")
        manifest = SweepManifest(tmp_path / "manifest.json")
        executor = DSEExecutor(jobs=jobs, cache=cache, manifest=manifest,
                               progress=lambda p, r, c: seen.append((p, c)))
        runs = executor.run(points)
        identities = len(points) // len(self.SEEDS)
        assert executor.points_executed == identities
        assert len(cache) == cache.stats.stores == identities
        assert list(runs) == points
        assert sorted(seen, key=lambda item: points.index(item[0])) == \
            [(p, False) for p in points]
        assert manifest.done_count(points) == len(points)
        for seed in self.SEEDS:
            single = DSEExecutor(jobs=1).run(self._grid(seed))
            for point, run in single.items():
                assert run_dict(runs[point]) == run_dict(run)
                assert runs[point].seed == point.run_seed

    def test_cached_identity_serves_every_seed(self, tmp_path):
        cache = ResultCache(tmp_path)
        DSEExecutor(cache=cache).run(self._grid(42))
        warm = DSEExecutor(cache=cache)
        runs = warm.run(self._grid(43))
        assert warm.points_executed == 0
        assert cache.stats.hits == len(runs)
        cold = DSEExecutor().run(self._grid(43))
        assert [run_dict(run) for run in runs.values()] == \
            [run_dict(run) for run in cold.values()]
