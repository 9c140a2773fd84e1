"""Experiment drivers: one workload, the whole suite, or a full sweep.

Every run carries an explicit ``seed``. The cycle simulation itself is
deterministic, so the seed never perturbs latencies; it exists so that
(a) stochastic workload variants have a single well-defined entropy
source, (b) the DSE result cache can address runs content-wise, and
(c) serial and parallel executions of the same grid derive identical
per-run seeds from the *grid position* rather than from execution
order — which is what makes ``--jobs 1`` and ``--jobs N`` exports
byte-identical.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.cores import CORE_NAMES
from repro.errors import SimulationError
from repro.harness.metrics import LatencyStats
from repro.kernel.builder import KernelBuilder
from repro.mem.regions import MemoryLayout
from repro.rtosunit.config import EVALUATED_CONFIGS, RTOSUnitConfig, parse_config
from repro.workloads import RTOSBENCH_WORKLOADS, Workload


def derive_point_seed(seed: int, core: str, config_name: str,
                      workload_name: str) -> int:
    """Stable 32-bit per-run seed for one grid point.

    CRC32-based (not ``hash``) so it is independent of
    ``PYTHONHASHSEED``, the execution order, and the process that
    computes it — the anchor of serial/parallel byte-identity.
    """
    text = f"{core}:{config_name}:{workload_name}"
    return (seed * 0x9E3779B1 + zlib.crc32(text.encode())) & 0xFFFFFFFF


@dataclass
class RunResult:
    """Outcome of one (core, config, workload) simulation."""

    core: str
    config: RTOSUnitConfig
    workload: str
    latencies: list[int]
    stats: LatencyStats
    switches: list
    cycles: int
    instret: int
    core_stats: object
    unit_stats: object | None
    seed: int = 0

    @property
    def config_name(self) -> str:
        return self.config.name

    @property
    def breakdown(self):
        """Response/ISR decomposition of this run's switches."""
        from repro.harness.metrics import LatencyBreakdown

        return LatencyBreakdown.from_switches(self.switches)


@dataclass
class SuiteResult:
    """All workloads for one (core, config): the paper's Fig. 9 datapoint."""

    core: str
    config: RTOSUnitConfig
    runs: list[RunResult] = field(default_factory=list)

    @property
    def all_latencies(self) -> list[int]:
        samples: list[int] = []
        for run in self.runs:
            samples.extend(run.latencies)
        return samples

    @property
    def stats(self) -> LatencyStats:
        return LatencyStats.from_samples(self.all_latencies)

    @property
    def breakdown(self):
        """Response/ISR decomposition across all runs."""
        from repro.harness.metrics import LatencyBreakdown

        switches = [s for run in self.runs for s in run.switches]
        return LatencyBreakdown.from_switches(switches)

    def run_named(self, workload: str) -> RunResult:
        for run in self.runs:
            if run.workload == workload:
                return run
        raise SimulationError(f"no run for workload {workload!r}")


def _result_from(system, core: str, config: RTOSUnitConfig,
                 workload: Workload, seed: int) -> RunResult:
    """Distil a finished system into a RunResult."""
    switches = system.switches[workload.warmup_switches:]
    latencies = [s.latency for s in switches]
    return RunResult(
        core=core,
        config=config,
        workload=workload.name,
        latencies=latencies,
        stats=LatencyStats.from_samples(latencies),
        switches=switches,
        cycles=system.core.cycle,
        instret=system.core.stats.instret,
        core_stats=system.core.stats,
        unit_stats=system.unit.stats if system.unit else None,
        seed=seed,
    )


def _check_exit(exit_code: int, core: str, config: RTOSUnitConfig,
                workload: Workload, system) -> None:
    if exit_code not in (0, 42):
        raise SimulationError(
            f"workload {workload.name} on {core}/{config.name} exited "
            f"with {exit_code:#x}",
            pc=system.core.pc, cycle=system.core.cycle)


def run_workload(core: str, config: RTOSUnitConfig, workload: Workload,
                 layout: MemoryLayout | None = None,
                 guard=None, seed: int = 0) -> RunResult:
    """Simulate one workload and return its latency distribution.

    ``guard`` optionally attaches a hang-proof watchdog
    (:class:`repro.faults.guards.ProgressGuard`); a livelocked workload
    then fails with a structured error instead of spinning to the
    ``max_cycles`` wall. ``seed`` is recorded on the result and keys the
    DSE cache; the simulation itself is deterministic.

    Repeat runs are **memoised** through :mod:`repro.snapshot`: the
    first run of a content key simulates cold and stores its result;
    identical later runs — seed-only variants included, since the seed
    never reaches the simulation — return a private copy of it, stamped
    with their own seed, byte-identical to a cold run. A ``guard``
    forces a cold run (it must observe the run from reset; a
    block-aware guard such as ``ProgressGuard`` keeps block dispatch
    on), and ``REPRO_SNAPSHOT=0`` disables the memo globally.
    """
    from repro.snapshot import snapshot_enabled, snapshot_key, store

    builder = KernelBuilder(config=config, objects=workload.objects,
                            layout=layout or MemoryLayout(),
                            tick_period=workload.tick_period)
    snapshots = store()
    entry = None
    if guard is not None:
        snapshots.stats.bypasses += 1
    elif snapshot_enabled():
        entry = snapshots.entry(snapshot_key(
            core, config, builder.layout, workload, builder.source()))
        memo = entry.final  # one read: verified mode re-checks per access
        if memo is not None:
            snapshots.stats.final_hits += 1
            memo.seed = seed
            return memo
        snapshots.stats.misses += 1
    system = builder.build(core, external_events=workload.external_events)
    if guard is not None:
        system.core.guard = guard
    exit_code = system.run(max_cycles=workload.max_cycles)
    _check_exit(exit_code, core, config, workload, system)
    result = _result_from(system, core, config, workload, seed)
    if entry is not None:
        entry.final = result
        snapshots.stats.final_stores += 1
    return result


def _resolve_workloads(workloads, iterations: int) -> list[Workload]:
    """Materialize workload factories exactly once.

    Entries may be factories, prebuilt :class:`Workload` instances, or
    workload *names* — including canonical ``fuzz:`` scenario names,
    which resolve through :func:`repro.workloads.workload_by_name`.

    Every caller that loops over (core, config) cells must resolve the
    factory list *before* the loop and reuse the instances: a factory is
    not required to be pure (names may encode a counter), and per-cell
    re-invocation would silently give each cell different workload names
    — and therefore different :func:`derive_point_seed` values — for
    what is meant to be the same grid column.
    """
    from repro.workloads import workload_by_name

    factories = workloads if workloads is not None else RTOSBENCH_WORKLOADS
    resolved = []
    for factory in factories:
        if isinstance(factory, str):
            resolved.append(workload_by_name(factory, iterations))
        elif callable(factory):
            resolved.append(factory(iterations))
        else:
            resolved.append(factory)
    return resolved


def run_suite(core: str, config: RTOSUnitConfig, iterations: int = 20,
              workloads=None, seed: int = 0) -> SuiteResult:
    """Run all (or the given) workload factories for one design point.

    Each run's seed is derived from (*seed*, grid position) via
    :func:`derive_point_seed`, never from execution order.
    """
    suite = SuiteResult(core=core, config=config)
    for workload in _resolve_workloads(workloads, iterations):
        suite.runs.append(run_workload(
            core, config, workload,
            seed=derive_point_seed(seed, core, config.name, workload.name)))
    return suite


def _grid_workload_names(workloads, iterations: int) -> list[str] | None:
    """Names of *workloads* if they are executor-reconstructible.

    The process-pool executor rebuilds workloads by name inside worker
    processes, which works for registered factories and for workload
    names — including canonical ``fuzz:`` scenario names, whose specs
    regenerate the exact workload anywhere. Returns ``None`` for ad-hoc
    factories or prebuilt :class:`Workload` instances — the sweep then
    falls back to the in-process path.
    """
    from repro.workloads import ALL_WORKLOADS, workload_by_name

    if workloads is None:
        return [factory(iterations).name for factory in RTOSBENCH_WORKLOADS]
    names = []
    for factory in workloads:
        if isinstance(factory, str):
            # Validates the name (and canonicalizes fuzz specs).
            names.append(workload_by_name(factory, iterations).name)
        elif callable(factory) and factory in ALL_WORKLOADS:
            names.append(factory(iterations).name)
        else:
            return None
    return names


def sweep(cores=CORE_NAMES, configs=EVALUATED_CONFIGS, iterations: int = 20,
          workloads=None, seed: int = 0, jobs: int = 1, cache=None,
          progress=None, lanes: int = 0) -> dict[tuple[str, str], SuiteResult]:
    """The full Fig. 9 grid: every core × every configuration.

    Routed through the :mod:`repro.dse` executor: ``jobs`` fans the grid
    out over a process pool, ``cache`` (a
    :class:`repro.dse.cache.ResultCache`) makes warm re-runs
    near-instant, and ``progress`` receives one
    ``(point, result, from_cache)`` call per completed grid point.
    ``lanes >= 2`` batches congruent grid points into lane packs
    (:mod:`repro.lanes`) so each worker dispatch covers many points.
    Results are keyed and ordered by grid position regardless of
    completion order, so exports are byte-identical across ``jobs``
    and ``lanes``.
    """
    names = _grid_workload_names(workloads, iterations)
    if names is None:  # ad-hoc workloads: in-process fallback
        # Resolve factories ONCE so every (core, config) cell runs the
        # same workload instances — and derives the same per-run seeds —
        # instead of re-invoking potentially impure factories per cell.
        resolved = _resolve_workloads(workloads, iterations)
        return {
            (core, config_name): run_suite(
                core, parse_config(config_name), iterations=iterations,
                workloads=resolved, seed=seed)
            for core in cores
            for config_name in configs
        }
    from repro.dse.executor import DSEExecutor, build_grid, group_suites

    points = build_grid(cores=cores, configs=configs, workloads=names,
                        iterations=iterations, seed=seed)
    runs = DSEExecutor(jobs=jobs, cache=cache,
                       progress=progress, lanes=lanes).run(points)
    return group_suites(points, runs)
