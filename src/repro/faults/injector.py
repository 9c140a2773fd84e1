"""Deterministic fault injector: applies scheduled FaultSpecs to a system.

:meth:`FaultInjector.on_step` runs at instruction boundaries — as
``core.step_hook`` (per-instruction path) or from a block-aware watcher
(``core.guard``, see ``repro.faults.campaign``) — and applies every fault
whose scheduled cycle has been reached, exactly once, in schedule order.
A watcher folds :attr:`FaultInjector.next_cycle` into its cycle limit,
so block dispatch stops at the first boundary at or after the fault
cycle and the fault lands on the same boundary as on the
per-instruction path.

All corruption goes through architectural state (register banks, CSRs,
RAM words, scheduler list entries, CLINT registers) — never through
simulator bookkeeping — so a fault behaves like the transient hardware
upset it models.
"""

from __future__ import annotations

from repro.errors import FaultInjectionError
from repro.faults.model import CSR_TARGETS, FaultSpec

_INF = float("inf")


class FaultInjector:
    """Applies a scheduled fault list to one live :class:`System`.

    ``symbols`` (assembler symbol table) enables software-scheduler
    targeting for ``sched_flip`` on configs without a hardware scheduler;
    without symbols those faults fall back to kernel-data bit flips.
    """

    def __init__(self, system, faults: list[FaultSpec],
                 symbols: dict[str, int] | None = None):
        self.system = system
        self.symbols = symbols or {}
        self.queue = sorted(faults, key=lambda f: f.cycle)
        self.applied: list[tuple[int, FaultSpec, str]] = []

    # -- hook -------------------------------------------------------------------

    def on_step(self, core) -> None:
        """Apply every fault whose cycle has been reached."""
        while self.queue and self.queue[0].cycle <= core.cycle:
            fault = self.queue.pop(0)
            detail = self._apply(fault)
            self.applied.append((core.cycle, fault, detail))

    @property
    def next_cycle(self) -> float:
        """Cycle of the next scheduled fault; infinite once all applied."""
        return self.queue[0].cycle if self.queue else _INF

    @property
    def done(self) -> bool:
        return not self.queue

    # -- application ------------------------------------------------------------

    def _apply(self, fault: FaultSpec) -> str:
        handler = getattr(self, f"_apply_{fault.kind}", None)
        if handler is None:
            raise FaultInjectionError(
                f"no injector handler for fault kind {fault.kind!r}")
        return handler(fault)

    def _apply_reg_flip(self, fault: FaultSpec) -> str:
        core = self.system.core
        old = core.regs[fault.target]
        core.regs[fault.target] = old ^ (1 << fault.bit)
        return f"x{fault.target}: {old:#010x} -> {core.regs[fault.target]:#010x}"

    def _apply_csr_flip(self, fault: FaultSpec) -> str:
        csr = self.system.core.csr
        addr = CSR_TARGETS[fault.target]
        old = csr.read(addr)
        csr.write(addr, old ^ (1 << fault.bit))
        return f"csr {addr:#x}: {old:#010x} -> {csr.read(addr):#010x}"

    def _apply_mem_flip(self, fault: FaultSpec) -> str:
        memory = self.system.memory
        addr = fault.target
        if addr + 4 > memory.size:
            addr = (addr % (memory.size - 4)) & ~3
        new = memory.flip_bit(addr, fault.bit)
        # Keep the block cache coherent with the decode cache: blocks
        # rebuild through the (possibly stale) decode cache, so only the
        # block side is dropped — campaign semantics stay unchanged.
        self.system.core.invalidate_code(addr, decode_cache=False)
        return f"[{addr:#010x}] -> {new:#010x}"

    def _apply_sched_flip(self, fault: FaultSpec) -> str:
        unit = self.system.unit
        if unit is not None and unit.scheduler is not None:
            return self._flip_hw_entry(unit.scheduler, fault)
        return self._flip_sw_list(fault)

    def _flip_hw_entry(self, scheduler, fault: FaultSpec) -> str:
        entries = scheduler.ready + scheduler.delayed
        if not entries:
            return "sched_flip: no entries (no-op)"
        entry = entries[fault.target % len(entries)]
        field = ("priority", "delay", "task_id")[fault.bit % 3]
        old = getattr(entry, field)
        setattr(entry, field, old ^ 1)
        # Re-sort as the hardware sorter would after a glitch is latched.
        scheduler._resort_ready()
        scheduler._resort_delay()
        return f"hw {field} of task {entry.task_id}: {old} -> {old ^ 1}"

    def _flip_sw_list(self, fault: FaultSpec) -> str:
        base = self.symbols.get("ready_lists")
        if base is None:
            base = self.system.layout.data_base
        span = self.symbols.get("delay_list", base + 0x100) + 16 - base
        addr = base + (fault.target * 4) % max(span, 4)
        addr &= ~3
        new = self.system.memory.flip_bit(addr, fault.bit)
        self.system.core.invalidate_code(addr, decode_cache=False)
        return f"sw list word [{addr:#010x}] -> {new:#010x}"

    def _apply_irq_drop(self, fault: FaultSpec) -> str:
        clint = self.system.clint
        old = clint.mtimecmp
        clint.mtimecmp = old + clint.tick_period
        return f"mtimecmp {old} -> {clint.mtimecmp} (tick lost)"

    def _apply_irq_duplicate(self, fault: FaultSpec) -> str:
        clint = self.system.clint
        clint.msip = True
        clint.msip_set_cycle = self.system.core.cycle
        return "spurious msip raised"

    def _apply_irq_delay(self, fault: FaultSpec) -> str:
        clint = self.system.clint
        delay = fault.bit * 64
        old = clint.mtimecmp
        clint.mtimecmp = old + delay
        return f"mtimecmp {old} -> {clint.mtimecmp} (+{delay})"
