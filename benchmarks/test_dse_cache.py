"""Meta-benchmark: the DSE result cache and seed-free grouping.

Not a paper figure — two gates on the exploration engine, with numbers
in ``BENCH_dse.json`` at the repo root for EXPERIMENTS.md:

* **warm cache** — re-running the full paper grid (3 cores x 12
  configs x 5 workloads) against a warm result cache must be at least
  an order of magnitude faster than simulating it cold;
* **multi-seed sweep** — a slice of 16 identities x 4 seeds run as one
  64-point ``DSEExecutor(jobs=2)`` sweep against four single-seed
  sweeps at the same worker count. The seed never reaches the
  simulation, so the one sweep must run each identity once
  (``points_executed == 16``), be at least ``MULTI_SEED_GATE`` times
  faster, and return byte-identical results with every point's own
  derived seed.
"""

import json
import pathlib
import time

from repro.dse import DSEExecutor, ResultCache, build_grid
from repro.harness.export import run_dict
from repro.kernel.builder import reset_program_cache
from repro.rtosunit.config import EVALUATED_CONFIGS
from repro.cores import CORE_NAMES
from repro.snapshot import reset_store
from repro.workloads import workload_names

from benchmarks.conftest import publish, update_bench

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_dse.json"
ITERATIONS = 2
SEED = 42
#: Gated: one multi-seed sweep vs per-seed sweeps, equal workers.
MULTI_SEED_GATE = 2.0
MULTI_SEED_JOBS = 2
MULTI_SEED_ITERATIONS = 10
SEEDS = (0, 1, 2, 3)
REPEATS = 3


def _timed_sweep(points, cache_dir):
    cache = ResultCache(cache_dir)
    start = time.perf_counter()
    runs = DSEExecutor(cache=cache).run(points)
    return time.perf_counter() - start, cache, runs


def test_warm_cache_rerun_is_10x_faster(tmp_path):
    points = build_grid(cores=CORE_NAMES, configs=EVALUATED_CONFIGS,
                        workloads=workload_names(suite_only=True),
                        iterations=ITERATIONS, seed=SEED)
    cold_s, cold_cache, cold_runs = _timed_sweep(points, tmp_path / "cache")
    warm_s, warm_cache, warm_runs = _timed_sweep(points, tmp_path / "cache")

    assert cold_cache.stats.misses == len(points)
    assert warm_cache.stats.hits == len(points)
    for point in points:
        assert warm_runs[point].latencies == cold_runs[point].latencies

    speedup = cold_s / warm_s
    fields = {
        "grid_points": len(points),
        "iterations": ITERATIONS,
        "seed": SEED,
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 3),
        "speedup": round(speedup, 1),
        "cold_cache": cold_cache.stats.as_dict(),
        "warm_cache": warm_cache.stats.as_dict(),
    }
    update_bench(BENCH_PATH, "dse_cache", fields)
    publish("bench_dse_cache", json.dumps(fields, indent=2, sort_keys=True))
    assert speedup >= 10.0, (
        f"warm cache re-run only {speedup:.1f}x faster "
        f"(cold {cold_s:.2f}s, warm {warm_s:.2f}s)")


def _slice(seed: int) -> list:
    """16 identities: one core, 4 configs, 4 workloads."""
    return build_grid(cores=("cv32e40p",),
                      configs=("vanilla", "S", "SL", "SLT"),
                      workloads=("yield_pingpong", "delay_periodic",
                                 "sem_signal", "mutex_workload"),
                      iterations=MULTI_SEED_ITERATIONS, seed=seed)


def _timed(sweeps) -> tuple[float, dict, int]:
    """Best-of wall time of running *sweeps* (lists of points) cold."""
    best = float("inf")
    for _ in range(REPEATS):
        # Forked workers inherit the parent's memo and build cache:
        # empty them so every timed sweep starts cold.
        reset_store()
        reset_program_cache()
        runs, executed = {}, 0
        start = time.perf_counter()
        for points in sweeps:
            executor = DSEExecutor(jobs=MULTI_SEED_JOBS)
            runs.update(executor.run(points))
            executed += executor.points_executed
        best = min(best, time.perf_counter() - start)
    return best, runs, executed


def test_multi_seed_sweep_runs_each_identity_once():
    per_seed = [_slice(seed) for seed in SEEDS]
    multi = [point for points in per_seed for point in points]
    separate_s, separate_runs, separate_executed = _timed(per_seed)
    multi_s, multi_runs, multi_executed = _timed([multi])

    identities = len(per_seed[0])
    assert separate_executed == len(multi) == 64
    assert multi_executed == identities == 16
    assert list(multi_runs) == multi
    for point in multi:
        assert multi_runs[point].seed == point.run_seed
        assert run_dict(multi_runs[point]) == run_dict(separate_runs[point])

    gain = separate_s / multi_s
    fields = {"multi_seed": {
        "identities": identities,
        "seeds": len(SEEDS),
        "jobs": MULTI_SEED_JOBS,
        "iterations": MULTI_SEED_ITERATIONS,
        "points_executed": multi_executed,
        "per_seed_wall_s": round(separate_s, 3),
        "multi_seed_wall_s": round(multi_s, 3),
        "gain": round(gain, 2),
        "gate": MULTI_SEED_GATE,
    }}
    update_bench(BENCH_PATH, "dse_cache", fields)
    publish("bench_dse_multi_seed",
            f"{len(multi)} points ({identities} identities x {len(SEEDS)} "
            f"seeds) @ jobs={MULTI_SEED_JOBS}: per-seed sweeps "
            f"{separate_s:.2f} s, one sweep {multi_s:.2f} s "
            f"({gain:.1f}x, gate {MULTI_SEED_GATE:.1f}x)")
    assert gain >= MULTI_SEED_GATE, (
        f"multi-seed sweep only {gain:.2f}x the per-seed sweeps "
        f"(gate {MULTI_SEED_GATE}x)")
