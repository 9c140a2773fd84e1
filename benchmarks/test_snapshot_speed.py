"""Meta-benchmark: warm-start speedup + byte-identity gate.

Not a paper figure — this is the CI gate for the warm-start engine
(``repro.snapshot``): the kernel build cache, the result memo and the
capture/restore path. It runs the headline suite (cv32e40p / vanilla,
20 iterations) three ways:

* **cold** — ``REPRO_SNAPSHOT=0``: build, assemble and simulate from
  scratch, the exact path every run took before this engine existed;
* **populate** — warm-start enabled, empty store: pays the cold cost
  plus the cost of storing each result memo (reported so a
  store-cost regression is visible);
* **warm** — the same suite again: every run is served from its memo.

and asserts that the warm pass is at least ``WARM_SPEEDUP_GATE`` times
faster than cold, that the populate overhead stays bounded, and that
the warm results are **byte-identical** to cold — latencies, every
switch record, core stats. The end state is checked too: a finished
system captured and re-materialized must match a cold system's register
banks and RAM. Numbers land in ``BENCH_snapshot.json`` at the repo root
(see docs/SNAPSHOT.md).
"""

import dataclasses
import json
import pathlib
import time

from repro.harness.experiment import run_suite
from repro.kernel.builder import KernelBuilder, reset_program_cache
from repro.rtosunit.config import parse_config
from repro.perf import bench_record
from repro.snapshot import reset_store, store
from repro.workloads.suite import RTOSBENCH_WORKLOADS

from benchmarks.conftest import publish

BENCH_PATH = (pathlib.Path(__file__).resolve().parent.parent
              / "BENCH_snapshot.json")
ITERATIONS = 20
HEADLINE = ("cv32e40p", "vanilla")
#: Gated: warm suite vs cold suite wall-clock ratio.
WARM_SPEEDUP_GATE = 3.0
#: Gated: the populate pass (cold + memo stores) may cost at most this
#: much more than the plain cold pass.
CAPTURE_OVERHEAD_CEILING = 2.0
COLD_REPEATS = 3


def _suite_pass(core, config, monkey_env=None):
    import os

    saved = os.environ.get("REPRO_SNAPSHOT")
    if monkey_env is not None:
        os.environ["REPRO_SNAPSHOT"] = monkey_env
    else:
        os.environ.pop("REPRO_SNAPSHOT", None)
    try:
        start = time.perf_counter()
        suite = run_suite(core, config, iterations=ITERATIONS)
        wall = time.perf_counter() - start
    finally:
        if saved is None:
            os.environ.pop("REPRO_SNAPSHOT", None)
        else:
            os.environ["REPRO_SNAPSHOT"] = saved
    return suite, wall


def _suite_obs(suite):
    return [
        {
            "workload": run.workload,
            "latencies": run.latencies,
            "switches": [dataclasses.asdict(s) for s in run.switches],
            "cycles": run.cycles,
            "instret": run.instret,
            "core_stats": dict(vars(run.core_stats)),
        }
        for run in suite.runs
    ]


def test_warm_start_speedup():
    core, config_name = HEADLINE
    config = parse_config(config_name)

    # Cold: warm-start off, and no memoized builds left over. Best of
    # N so machine-load noise cannot fake a speedup regression.
    cold_walls = []
    for _ in range(COLD_REPEATS):
        reset_store()
        reset_program_cache()
        cold_suite, wall = _suite_pass(core, config, monkey_env="0")
        cold_walls.append(wall)
    cold_wall = min(cold_walls)

    reset_store()
    reset_program_cache()
    populate_suite, populate_wall = _suite_pass(core, config)
    warm_suite, warm_wall = _suite_pass(core, config)
    stats = store().stats

    # -- identity: warm results replay the cold ones byte-for-byte ------
    cold_obs = _suite_obs(cold_suite)
    assert _suite_obs(populate_suite) == cold_obs
    assert _suite_obs(warm_suite) == cold_obs
    for factory in RTOSBENCH_WORKLOADS:
        workload = factory(iterations=ITERATIONS)
        builder = KernelBuilder(config=config, objects=workload.objects,
                                tick_period=workload.tick_period)
        systems = []
        for _ in range(2):
            system = builder.build(core,
                                   external_events=workload.external_events)
            system.run(workload.max_cycles)
            systems.append(system)
        reference, finished = systems
        restored = finished.capture().materialize()
        assert [list(b) for b in restored.core.banks] == \
            [list(b) for b in reference.core.banks], (
                f"{workload.name}: final register banks diverged captured "
                f"vs cold")
        assert bytes(restored.memory.data) == bytes(reference.memory.data)

    speedup = cold_wall / warm_wall if warm_wall else float("inf")
    capture_overhead = populate_wall / cold_wall if cold_wall else 1.0
    record = bench_record("snapshot_speed", {
        "iterations": ITERATIONS,
        "workloads": len(RTOSBENCH_WORKLOADS),
        "headline": {"core": core, "config": config_name,
                     "speedup_gate": WARM_SPEEDUP_GATE,
                     "capture_overhead_ceiling": CAPTURE_OVERHEAD_CEILING},
        "cold_wall_s": round(cold_wall, 4),
        "populate_wall_s": round(populate_wall, 4),
        "warm_wall_s": round(warm_wall, 4),
        "speedup": round(speedup, 2),
        "capture_overhead": round(capture_overhead, 3),
        "store": stats.as_dict(),
    })
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    publish("bench_snapshot_speed", "\n".join([
        f"cold     {cold_wall * 1000:8.1f} ms  (best of {COLD_REPEATS})",
        f"populate {populate_wall * 1000:8.1f} ms  "
        f"(overhead {capture_overhead:.2f}x)",
        f"warm     {warm_wall * 1000:8.1f} ms  (speedup {speedup:.1f}x)",
        f"store    {stats.final_hits} final hits / {stats.misses} misses",
    ]))

    assert stats.final_hits == len(RTOSBENCH_WORKLOADS), (
        "warm pass did not replay every workload from the store")
    assert speedup >= WARM_SPEEDUP_GATE, (
        f"warm-start speedup {speedup:.2f}x below the "
        f"{WARM_SPEEDUP_GATE}x gate")
    assert capture_overhead <= CAPTURE_OVERHEAD_CEILING, (
        f"populate pass costs {capture_overhead:.2f}x cold: memo "
        f"store overhead regressed")
