"""Hang-proof simulation guards: cycle budgets and livelock detection.

A misbehaving workload used to spin until the hard ``max_cycles`` limit
tripped, surfacing only as an opaque "cycle limit exceeded". The
:class:`ProgressGuard` attaches to a core (``core.guard``) and converts
runaway runs into a *structured* :class:`~repro.errors.SimulationError`
carrying the PC, cycle, privilege state, pending-interrupt state and the
last N trace entries.

Two failure shapes are recognised:

* **livelock** — instructions retire but make no progress: within a
  window of cycles no trap is taken and the PC visits only a handful of
  distinct addresses (a spin loop). Healthy preemptive kernels always
  trap within a window longer than the tick period.
* **frozen time** — instructions retire but the cycle counter stops
  advancing (e.g. a ``wfi`` loop whose wake target is already in the
  past with interrupts masked). The cycle-based window never elapses, so
  a step-count bound catches it.

The optional ``cycle_budget`` duplicates the ``max_cycles`` check with
structured context, so harness callers get uniform reports.

The guard is a *block-aware watcher*: besides the per-boundary
:meth:`ProgressGuard.on_step` it implements :meth:`ProgressGuard.limits`
and :meth:`ProgressGuard.on_block`, so block dispatch keeps running
under it. ``limits`` names the first cycle and the number of boundaries
after which the guard must see an exact instruction boundary again;
``on_block`` accounts for the sequential boundaries inside one
predecoded block in bulk. Every error is raised at the same boundary,
with the same state and trace, as on the per-instruction path.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError

MASK32 = 0xFFFFFFFF


class ProgressGuard:
    """Watchdog attached to a core's run loop via ``core.guard``.

    ``window`` must comfortably exceed the workload's tick period: a
    healthy preemptive kernel takes a timer interrupt at least once per
    period, which resets the watch. ``max_distinct_pcs`` bounds how many
    distinct addresses still count as "spinning in place".

    The trace ring records ``(cycle, pc)`` only at boundaries whose pc is
    not the previous boundary's pc + 4 — taken transfers, trap entries
    and ``mret`` — which block dispatch always hands to :meth:`on_step`.
    """

    def __init__(self, window: int = 50_000, max_distinct_pcs: int = 16,
                 cycle_budget: int | None = None, trace_depth: int = 8):
        self.window = window
        self.max_distinct_pcs = max_distinct_pcs
        self.cycle_budget = cycle_budget
        self.trace_depth = trace_depth
        self._trace: deque[tuple[int, int]] = deque(maxlen=trace_depth)
        self._window_start: int | None = None
        self._window_traps = 0
        self._window_steps = 0
        self._window_pcs: set[int] = set()
        self._next_pc: int | None = None  # previous boundary's pc + 4

    # -- watcher protocol (BaseCore.run / BlockEngine.dispatch) ---------------

    def on_step(self, core) -> None:
        pc = core.pc
        if pc != self._next_pc:
            self._trace.append((core.cycle, pc))
        self._next_pc = (pc + 4) & MASK32
        if self.cycle_budget is not None and core.cycle > self.cycle_budget:
            raise self._error(core, "cycle-budget",
                              f"cycle budget {self.cycle_budget} exhausted")
        if self._window_start is None:
            self._reset_window(core)
            return
        if core.stats.traps != self._window_traps:
            # A trap was taken: the kernel is alive; restart the watch.
            self._reset_window(core)
            return
        self._window_steps += 1
        pcs = self._window_pcs
        # Past max_distinct_pcs the verdict is fixed; the set stops growing.
        if len(pcs) <= self.max_distinct_pcs:
            pcs.add(pc)
        elapsed = core.cycle - self._window_start
        if elapsed >= self.window:
            if len(self._window_pcs) <= self.max_distinct_pcs:
                raise self._error(
                    core, "livelock",
                    f"livelock: no trap and only {len(self._window_pcs)} "
                    f"distinct PCs in the last {elapsed} cycles")
            self._reset_window(core)
        elif self._window_steps >= self.window:
            # Many retired instructions but (almost) no cycle progress:
            # simulated time is frozen (wfi loop with a stale wake target).
            raise self._error(
                core, "livelock",
                f"livelock: {self._window_steps} instructions retired but "
                f"simulated time advanced only {elapsed} cycles")

    def limits(self, core) -> tuple[int, int]:
        """``(cycle, boundaries)``: the first cycle at which the next
        boundary must be exact (cycle budget or window end), and how many
        boundaries may pass before the step-count bound must be checked."""
        if self._window_start is None:
            return core.cycle, 0  # the first boundary opens the window
        cycle = self._window_start + self.window
        if self.cycle_budget is not None and self.cycle_budget < cycle:
            cycle = self.cycle_budget + 1
        return cycle, self.window - self._window_steps - 1

    def on_block(self, core, addrs, n: int) -> None:
        """Account for the ``n - 1`` sequential boundaries after a block's
        entry; their pcs are ``addrs[1:n]``."""
        self._window_steps += n - 1
        pcs = self._window_pcs
        if len(pcs) <= self.max_distinct_pcs:
            pcs.update(addrs[1:n])
        self._next_pc = (addrs[n - 1] + 4) & MASK32

    # -- helpers ----------------------------------------------------------------

    def _reset_window(self, core) -> None:
        self._window_start = core.cycle
        self._window_traps = core.stats.traps
        self._window_steps = 0
        self._window_pcs = {core.pc}

    def _error(self, core, kind: str, message: str) -> SimulationError:
        from repro.isa import csr as csrmod

        state = "ISR" if core.in_isr else "task"
        pending = describe_pending_interrupts(core)
        return SimulationError(
            f"{message}; privilege={state}; {pending}",
            pc=core.pc, cycle=core.cycle,
            mcause=core.csr.read(csrmod.MCAUSE),
            kind=kind, trace=self.format_trace())

    def format_trace(self) -> str:
        """Render the last N recorded (cycle, pc) pairs, one per line."""
        return "\n".join(f"  cycle {cycle:>10d}  pc {pc:#010x}"
                         for cycle, pc in self._trace)


def describe_pending_interrupts(core) -> str:
    """One-line summary of interrupt state for guard error messages."""
    from repro.isa import csr as csrmod

    mie_global = core.csr.mie_global
    mie = core.csr.read(csrmod.MIE)
    clint = core.clint
    if clint is None:
        return f"mstatus.MIE={int(mie_global)}; no CLINT attached"
    parts = [
        f"mstatus.MIE={int(mie_global)}",
        f"mie={mie:#x}",
        f"mtimecmp={clint.mtimecmp}",
        f"msip={int(clint.msip)}",
    ]
    if clint.external_events:
        parts.append(f"next_ext={clint.external_events[0]}")
    return " ".join(parts)
