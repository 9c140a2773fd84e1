"""Parallel grid execution with supervision, retry and deterministic order.

The executor is the workhorse of the co-exploration engine: it fans a
(core × configuration × workload) grid out over a
:class:`concurrent.futures.ProcessPoolExecutor`, consults the result
cache before spending any simulation time, and hands results back keyed
and ordered by *grid position* — never by completion order — so a
parallel sweep exports byte-identically to a serial one.

The pool is *supervised*: each in-flight task carries its own absolute
deadline, a worker that dies takes the broken pool with it and gets the
pool rebuilt (stalled worker processes are terminated, not abandoned),
and a task whose failures exhaust the retry budget is either raised as
:class:`~repro.errors.ExplorationError` (the historical behaviour) or —
when the caller provides ``on_poison`` — quarantined into a structured
result so one poisonous grid point cannot take down a whole batch.
:class:`PoolHealth` counts every one of those events for telemetry.

Two entry points:

* :func:`parallel_map` — a generic order-preserving map with per-task
  retry and deadline, also used by the WCET, Fig. 12 and fault-campaign
  CLI paths;
* :class:`DSEExecutor` — the cache-aware grid runner behind
  :func:`repro.harness.sweep` and ``python -m repro dse``.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from dataclasses import asdict, dataclass

from repro.errors import ExplorationError


@dataclass(frozen=True)
class GridPoint:
    """One (core, configuration, workload) cell of the exploration grid.

    ``seed`` is the *base* seed of the sweep; the per-run seed is
    derived from it and the grid position inside the worker (see
    :func:`repro.harness.experiment.derive_point_seed`).
    """

    core: str
    config: str
    workload: str
    iterations: int = 10
    seed: int = 0

    @property
    def label(self) -> str:
        return f"{self.core}/{self.config}/{self.workload}"

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "GridPoint":
        """Rebuild a point from :meth:`as_dict` output (extra keys ignored)."""
        return cls(core=payload["core"], config=payload["config"],
                   workload=payload["workload"],
                   iterations=int(payload.get("iterations", 10)),
                   seed=int(payload.get("seed", 0)))


def build_grid(cores, configs, workloads, iterations: int = 10,
               seed: int = 0) -> list:
    """The full exploration grid, in canonical (deterministic) order."""
    return [
        GridPoint(core=core, config=config, workload=workload,
                  iterations=iterations, seed=seed)
        for core in cores
        for config in configs
        for workload in workloads
    ]


def execute_point(point: GridPoint):
    """Run one grid point; the process-pool worker function.

    Rebuilds the workload by name so the argument stays a small
    picklable dataclass; returns the full :class:`RunResult` (all its
    fields are plain dataclasses, so it pickles back intact).

    ``run_workload`` consults the process-local result memo
    (:mod:`repro.snapshot`), so a worker simulates each content key
    once and answers later points that share it — exact repeats and
    seed-only variants — from the memo. Only what the same process
    has run can hit: a :class:`DSEExecutor` pool lives for one sweep,
    while the job service keeps one :class:`WorkerPool` for its whole
    lifetime.
    """
    from repro.chaos import hooks as chaos_hooks
    from repro.harness.experiment import derive_point_seed, run_workload
    from repro.rtosunit.config import parse_config
    from repro.workloads import workload_by_name

    # Pool workers adopt a REPRO_CHAOS policy exported by the parent;
    # both calls are no-ops outside chaos campaigns and tests.
    chaos_hooks.ensure_from_env()
    chaos_hooks.fire("worker.run")
    workload = workload_by_name(point.workload, iterations=point.iterations)
    return run_workload(
        point.core, parse_config(point.config), workload,
        seed=derive_point_seed(point.seed, point.core, point.config,
                               point.workload))


@dataclass
class PoolHealth:
    """Supervision telemetry for one :func:`parallel_map` (or service).

    ``retries`` counts charged re-executions, ``crashes`` futures lost
    to dead worker processes, ``stalls`` tasks past their deadline,
    ``restarts`` pool rebuilds, and ``poisoned`` tasks quarantined after
    exhausting the retry budget.
    """

    retries: int = 0
    crashes: int = 0
    stalls: int = 0
    restarts: int = 0
    poisoned: int = 0

    def as_dict(self) -> dict:
        return {"retries": self.retries, "crashes": self.crashes,
                "stalls": self.stalls, "restarts": self.restarts,
                "poisoned": self.poisoned}


def _poison(index: int, item, attempts: int, reason: str, on_poison,
            health: PoolHealth):
    """Quarantine a task past its retry budget, or raise (default path)."""
    if on_poison is None:
        raise ExplorationError(
            f"grid task {index} ({item!r}) failed after "
            f"{attempts} attempts: {reason}")
    health.poisoned += 1
    return on_poison(index, item, attempts, reason)


def _run_serial(worker, items, retries: int, on_result, on_poison,
                health: PoolHealth) -> list:
    results = []
    for index, item in enumerate(items):
        try:
            result = _attempt_serial(worker, item, index, retries, health)
        except ExplorationError as exc:
            if on_poison is None:
                raise
            health.poisoned += 1
            result = on_poison(index, item, retries + 1, str(exc))
        results.append(result)
        if on_result is not None:
            on_result(index, result)
    return results


class WorkerPool:
    """A supervised process pool that outlives a single map.

    Wraps a :class:`concurrent.futures.ProcessPoolExecutor` so a caller
    that maps many batches (the job service) keeps its worker processes
    — and their warm state — across batches. :meth:`replace` swaps in a
    fresh executor after a crash or stall; the replacement stays in use
    for later batches. :meth:`close` shuts the pool down for good. A
    closed pool never rebuilds: a map still running when its owner
    stops finishes on the existing workers, and a crash after that
    raises :class:`ExplorationError` instead of forking new ones.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.closed = False
        self._lock = threading.Lock()
        self._executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs)

    @property
    def pids(self) -> list:
        """PIDs of the live worker processes (telemetry and tests)."""
        return sorted(getattr(self._executor, "_processes", {}) or {})

    def submit(self, fn, item):
        with self._lock:
            if self.closed:
                raise ExplorationError("worker pool is closed")
            return self._executor.submit(fn, item)

    def replace(self, health: PoolHealth) -> None:
        """Tear down the executor — processes included — and rebuild.

        ``Future.cancel`` cannot stop a *running* task, so a stalled
        worker would otherwise occupy a slot forever; the supervisor
        terminates the worker processes outright and starts a fresh
        executor. Raises :class:`ExplorationError` once closed.
        """
        with self._lock:
            if self.closed:
                raise ExplorationError("worker pool is closed")
            health.restarts += 1
            old = self._executor
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs)
        processes = list((getattr(old, "_processes", None) or {}).values())
        old.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()

    def close(self, wait: bool = True) -> None:
        """Shut down for good. Idempotent.

        ``wait=True`` lets submitted tasks finish and joins the worker
        processes; ``wait=False`` cancels queued tasks and returns at
        once.
        """
        with self._lock:
            self.closed = True
            executor = self._executor
        executor.shutdown(wait=wait, cancel_futures=not wait)


def parallel_map(worker, items, jobs: int = 1, timeout: float | None = None,
                 retries: int = 1, on_result=None, on_poison=None,
                 health: PoolHealth | None = None,
                 pool: WorkerPool | None = None) -> list:
    """Order-preserving map with a supervised process-pool fan-out.

    ``jobs <= 1`` runs in-process (no pickling constraints). Otherwise
    each item runs under a pool of ``jobs`` workers with supervision:

    * every submission gets its own absolute deadline (``timeout``
      seconds from dispatch); an overdue task is charged a failed
      attempt and its stalled worker pool is replaced — running tasks
      cannot be cancelled, so replacement is the only honest kill;
    * a worker-process death breaks every future riding the pool; all
      of them are charged (the dying worker cannot be attributed, and
      innocent tasks recover on their free retry) and the pool is
      rebuilt before resubmission;
    * a task that exhausts ``retries`` extra attempts raises
      :class:`ExplorationError` — unless ``on_poison(index, item,
      attempts, reason)`` is given, in which case its return value is
      quarantined into the task's result slot and the rest of the map
      proceeds.

    ``on_result(index, result)`` fires once per completed item (in
    completion order) for progress telemetry; ``health`` accumulates
    supervision counters. Results come back in item order regardless of
    completion order.

    ``pool`` (a :class:`WorkerPool` of the caller's) runs the map on
    long-lived workers and is left open — replaced in place if it had to
    be rebuilt; without it the map creates its own pool and closes it.
    """
    items = list(items)
    health = health if health is not None else PoolHealth()
    if jobs <= 1:
        return _run_serial(worker, items, retries, on_result, on_poison,
                           health)

    results = [None] * len(items)
    owned = pool is None
    if owned:
        pool = WorkerPool(jobs)
    futures: dict = {}            # future -> item index
    deadlines: dict = {}          # item index -> absolute deadline | None
    attempts = dict.fromkeys(range(len(items)), 0)

    def start(index: int) -> None:
        attempts[index] += 1
        try:
            future = pool.submit(worker, items[index])
        except concurrent.futures.process.BrokenProcessPool as exc:
            # A worker died before this submission (possibly between
            # maps of a long-lived pool): fail it like a task lost to
            # that death, so the loop below rebuilds the pool once.
            future = concurrent.futures.Future()
            future.set_exception(exc)
        futures[future] = index
        deadlines[index] = (time.monotonic() + timeout
                            if timeout is not None else None)

    def finish(index: int, result) -> None:
        results[index] = result
        if on_result is not None:
            on_result(index, result)

    def charge(index: int, reason: str) -> None:
        """One failed attempt: resubmit within budget, else quarantine."""
        if attempts[index] > retries:
            finish(index, _poison(index, items[index], attempts[index],
                                  reason, on_poison, health))
            return
        health.retries += 1
        start(index)

    try:
        for index in range(len(items)):
            start(index)
        while futures:
            wait_s = None
            if timeout is not None:
                next_deadline = min(deadlines[i] for i in futures.values())
                wait_s = max(0.0, next_deadline - time.monotonic())
            done, _ = concurrent.futures.wait(
                futures, timeout=wait_s,
                return_when=concurrent.futures.FIRST_COMPLETED)
            completed, failed, broken = [], [], []
            rebuild = False
            if done:
                for future in done:
                    index = futures.pop(future)
                    deadlines.pop(index, None)
                    try:
                        completed.append((index, future.result()))
                    except concurrent.futures.process.BrokenProcessPool \
                            as exc:
                        broken.append((index,
                                       f"worker process died: {exc}"))
                    except concurrent.futures.CancelledError:
                        broken.append((index, "worker pool torn down"))
                    except Exception as exc:  # noqa: BLE001 - charged below
                        failed.append((index,
                                       f"{type(exc).__name__}: {exc}"))
                health.crashes += len(broken)
                rebuild = bool(broken)
            else:
                # Deadline expired with nothing finished: the overdue
                # tasks' workers are stalled and cannot be cancelled, so
                # the pool must be replaced. Only overdue tasks are
                # charged; tasks still inside their own budget restart
                # for free on the fresh pool.
                now = time.monotonic()
                overdue = {index for index in futures.values()
                           if deadlines[index] is not None
                           and now >= deadlines[index]}
                if overdue:
                    health.stalls += len(overdue)
                    failed.extend(
                        (index, f"deadline of {timeout:.1f}s exceeded "
                                f"(worker stalled)") for index in overdue)
                    futures = {future: index
                               for future, index in futures.items()
                               if index not in overdue}
                    rebuild = True
            if rebuild:
                survivors = sorted(futures.values())
                for index in survivors:
                    attempts[index] -= 1  # not the survivor's failure
                futures.clear()
                deadlines.clear()
                pool.replace(health)
                for index in survivors:
                    start(index)
            for index, result in completed:
                finish(index, result)
            for index, reason in failed + broken:
                charge(index, reason)
    except BaseException:
        if owned:
            pool.close(wait=False)
        raise
    if owned:
        # Join the idle workers: a pool thread still winding down at
        # interpreter exit can make CPython's exit hook write to a
        # closed pipe.
        pool.close()
    return results


def _attempt_serial(worker, item, index: int, retries: int,
                    health: PoolHealth):
    last = None
    for attempt in range(retries + 1):
        if attempt:
            health.retries += 1
        try:
            return worker(item)
        except Exception as exc:  # noqa: BLE001 - wrapped below
            last = exc
    raise ExplorationError(
        f"grid task {index} failed after {retries + 1} attempts: "
        f"{type(last).__name__}: {last}") from last


class DSEExecutor:
    """Cache-aware, pool-backed runner for exploration grids.

    ``progress`` is an optional callable receiving
    ``(point, result, from_cache)`` once per completed grid point;
    ``manifest`` an optional
    :class:`repro.dse.cache.SweepManifest` checkpointed after every
    completion so an interrupted sweep can resume.

    ``lanes >= 2`` selects the third execution mode (after serial and
    process-parallel): uncached points are planned into lane packs
    (:mod:`repro.lanes`) and whole packs are dispatched per worker, so
    congruent points batch into one simulation plus follower replays and
    every content key pays its cold build once per sweep. Results stay
    byte-identical to ``--jobs 1`` (grid-ordered, same derived seeds);
    pack telemetry accumulates on :attr:`lane_stats`.
    """

    def __init__(self, jobs: int = 1, retries: int = 1,
                 timeout: float | None = None, cache=None, manifest=None,
                 progress=None, lanes: int = 0):
        from repro.lanes import LaneStats

        self.jobs = jobs
        self.retries = retries
        self.timeout = timeout
        self.cache = cache
        self.manifest = manifest
        self.progress = progress
        self.lanes = lanes
        self.health = PoolHealth()
        self.lane_stats = LaneStats()

    def run(self, points) -> dict:
        """Execute (or recall) every grid point; returns point → RunResult.

        The returned dict iterates in grid order regardless of cache
        state or completion order.
        """
        from repro.harness.export import load_run, run_dict

        points = list(points)
        if self.manifest is not None:
            self.manifest.begin(points)
        results = {}
        pending = []
        for point in points:
            payload = (self.cache.get(point) if self.cache is not None
                       else None)
            if payload is not None:
                results[point] = load_run(payload)
                self._complete(point, results[point], from_cache=True)
            else:
                pending.append(point)

        if self.lanes >= 2:
            for point, run in self._run_lanes(pending, run_dict):
                results[point] = run
            return {point: results[point] for point in points}

        def on_result(index, run):
            point = pending[index]
            if self.cache is not None:
                self.cache.put(point, run_dict(run))
            self._complete(point, run, from_cache=False)

        executed = parallel_map(execute_point, pending, jobs=self.jobs,
                                timeout=self.timeout, retries=self.retries,
                                on_result=on_result, health=self.health)
        for point, run in zip(pending, executed):
            results[point] = run
        return {point: results[point] for point in points}

    def _run_lanes(self, pending, run_dict):
        """Lane-mode execution: dispatch whole packs per worker.

        Yields ``(point, run)`` for every pending point. Pack-level
        retry/timeout supervision rides the same :func:`parallel_map`;
        a pack is the retry unit (its lanes share one simulation, so a
        poisoned lane poisons its pack).
        """
        from repro.lanes import execute_pack, plan_packs

        packs = plan_packs(pending, self.lanes)

        def on_pack(index, outcome):
            runs, stats = outcome
            self.lane_stats.merge(stats)
            for point, run in zip(packs[index].points, runs):
                if self.cache is not None:
                    self.cache.put(point, run_dict(run))
                self._complete(point, run, from_cache=False)

        executed = parallel_map(execute_pack, packs, jobs=self.jobs,
                                timeout=self.timeout, retries=self.retries,
                                on_result=on_pack, health=self.health)
        for pack, (runs, _stats) in zip(packs, executed):
            yield from zip(pack.points, runs)

    def _complete(self, point, run, from_cache: bool) -> None:
        if self.manifest is not None:
            self.manifest.mark_done(point)
        if self.progress is not None:
            self.progress(point, run, from_cache)


def group_suites(points, runs: dict) -> dict:
    """Regroup executor results into the classic sweep shape.

    ``(core, config) -> SuiteResult`` with runs in grid (workload)
    order, matching what the serial nested loops used to build.
    """
    from repro.harness.experiment import SuiteResult
    from repro.rtosunit.config import parse_config

    suites: dict = {}
    for point in points:
        key = (point.core, point.config)
        if key not in suites:
            suites[key] = SuiteResult(core=point.core,
                                      config=parse_config(point.config))
        suites[key].runs.append(runs[point])
    return suites
