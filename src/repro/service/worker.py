"""Worker bridge: grid points → outcome records, off the event loop.

The server never simulates on the event loop. Each scheduling tick
hands a batch of grid points to :func:`run_batch`, which reuses the DSE
executor's :func:`repro.dse.executor.parallel_map` — the same per-task
retry and stall-watchdog machinery as ``repro dse`` — inside a thread
from the loop's default executor.

:func:`execute_job` converts *expected* failures (``SimulationError``
and friends) into structured error records instead of raising, so a
deterministic simulation failure is a per-job result, not a retry storm
or a batch abort. Only infrastructure failures (worker-process crashes,
stall-watchdog kills) escape as exceptions and consume the retry
budget.

With ``jobs > 1`` the service owns one :class:`repro.dse.executor.
WorkerPool` for its whole lifetime and passes it to every batch, so its
worker processes live across batches: each keeps the kernels it has
assembled (:func:`repro.kernel.builder.assemble_cached`) and the result
memos of the runs it has simulated (:mod:`repro.snapshot`), and a later
batch that lands the same (core, config, workload) on that worker —
an exact repeat or a seed-only variant — is served from the memo.
``REPRO_SNAPSHOT=0`` in the service environment turns the memo off.
"""

from __future__ import annotations

from repro.dse.executor import (
    PoolHealth,
    WorkerPool,
    execute_point,
    parallel_map,
)
from repro.errors import (
    PoisonPointError,
    QueueFullError,
    ReproError,
    SimulationError,
)


def error_record(exc: BaseException) -> dict:
    """Machine-readable error payload, keeping structured error context.

    The context attributes survive the process-pool boundary because the
    carrying exception classes pickle through their raw constructor
    inputs (see ``repro.errors._rebuild_error``), not just a formatted
    message.
    """
    record = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, SimulationError):
        for attr in ("pc", "cycle", "mcause", "kind"):
            value = getattr(exc, attr)
            if value is not None:
                record[attr] = value
    if isinstance(exc, PoisonPointError):
        for attr in ("label", "attempts", "reason"):
            value = getattr(exc, attr)
            if value is not None:
                record[attr] = value
    if isinstance(exc, QueueFullError):
        record["retry_after"] = exc.retry_after
        if exc.tier is not None:
            record["tier"] = exc.tier
    return record


def execute_job(point) -> dict:
    """Process-pool worker: one grid point → one outcome record.

    Returns ``{"status": "done", "run": <run_dict payload>}`` or
    ``{"status": "error", "error": <error_record>}``. Library failures
    are *caught* here: they are deterministic (same point → same
    failure), so resubmitting them would waste the retry budget that
    exists for crashed or stalled workers.
    """
    from repro.harness.export import run_dict

    try:
        run = execute_point(point)
        return {"status": "done", "run": run_dict(run)}
    except ReproError as exc:
        return {"status": "error", "error": error_record(exc)}


def poison_record(index: int, point, attempts: int, reason: str) -> dict:
    """Quarantine outcome for a point that kept killing the pool.

    Built from a real :class:`PoisonPointError` so the record shape
    matches what a raised-and-caught error would produce.
    """
    label = getattr(point, "label", repr(point))
    exc = PoisonPointError(
        f"point {label} quarantined after {attempts} failed attempts",
        label=label, attempts=attempts, reason=reason)
    return {"status": "error", "error": error_record(exc)}


def run_batch(points, jobs: int = 1, retries: int = 1,
              timeout: float | None = None,
              health: PoolHealth | None = None,
              pool: WorkerPool | None = None) -> list:
    """Execute one batch; outcome records in *points* order.

    ``jobs > 1`` fans the batch over a process pool with the executor's
    supervision (per-task deadlines, pool replacement, retry charging);
    ``jobs <= 1`` runs in-process. A point that exhausts its retry
    budget with *infrastructure* failures is quarantined into a
    structured :class:`PoisonPointError` record instead of aborting the
    batch — one poisonous point cannot take its batch-mates down.
    ``health`` (a :class:`repro.dse.executor.PoolHealth`) accumulates
    supervision counters across batches; ``pool`` is the caller's
    long-lived :class:`~repro.dse.executor.WorkerPool` (without one, a
    ``jobs > 1`` batch forks and closes a pool of its own).
    """
    return parallel_map(execute_job, list(points), jobs=jobs,
                        retries=retries, timeout=timeout,
                        on_poison=poison_record, health=health, pool=pool)
