"""Runtime invariant checking for kernel and RTOSUnit consistency.

The checker inspects a live :class:`~repro.cores.system.System` — the
hardware scheduler lists, the software kernel's ready/delay lists (via
the assembler symbol table), saved-context checksums across save→restore
(via the RTOSUnit observer hook) and the per-task stack canaries — and
records every violation it finds. The fault campaign runs these checks
periodically and at run end; any violation classifies the outcome as
*detected* rather than *silent corruption*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MemoryError_
from repro.kernel.layout import (
    LIST_COUNT,
    MAX_PRIORITIES,
    NODE_NEXT,
    NODE_OWNER,
    NODE_PREV,
    NODE_SIZE,
    NODE_VALUE,
    STACK_CANARY,
)


@dataclass(frozen=True)
class Violation:
    """One invariant violation, with the check that found it."""

    check: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.detail}"


class InvariantChecker:
    """Validates kernel/RTOSUnit consistency during simulation.

    ``n_tasks`` sizes the stack-canary sweep; ``symbols`` (assembler
    symbol table) enables the software ready/delay list walks. Attach
    :meth:`on_context_stored`/:meth:`on_context_restored` via
    ``system.unit.observer = checker`` for save→restore checksums.
    """

    def __init__(self, system, n_tasks: int = 0,
                 symbols: dict[str, int] | None = None):
        self.system = system
        self.n_tasks = n_tasks
        self.symbols = symbols or {}
        self.violations: list[Violation] = []
        self._checksums: dict[int, int] = {}
        if system.unit is not None:
            system.unit.observer = self

    # -- RTOSUnit observer hooks (save→restore checksum) -----------------------

    def _slot_checksum(self, slot: int) -> int:
        memory = self.system.memory
        try:
            words = memory.read_words_raw(slot, 31)  # 29 GPRs + mstatus + mepc
        except MemoryError_:
            # Re-read word by word so the error names the first bad word.
            words = [memory.read_word_raw(slot + 4 * index)
                     for index in range(31)]
        checksum = 0
        for word in words:
            checksum = (checksum * 31 + word) & 0xFFFFFFFF
        return checksum

    def on_context_stored(self, task_id: int, slot: int) -> None:
        self._checksums[task_id] = self._slot_checksum(slot)

    def on_context_restored(self, task_id: int, slot: int) -> None:
        expected = self._checksums.pop(task_id, None)
        if expected is None:
            return  # first restore of a boot-time context; nothing saved yet
        actual = self._slot_checksum(slot)
        if actual != expected:
            self._record(
                "context-checksum",
                f"task {task_id} context slot {slot:#010x} changed between "
                f"save and restore ({expected:#010x} -> {actual:#010x})")

    # -- periodic checks ----------------------------------------------------------

    def check(self) -> list[Violation]:
        """Run every applicable check once; returns new violations.

        The software list walks only run at quiescent points (task
        context with interrupts enabled): the kernel mutates its lists
        under masked interrupts, so mid-operation linkage is transiently
        — and legitimately — broken.
        """
        before = len(self.violations)
        core = self.system.core
        self._check_hw_scheduler()
        if not core.in_isr and core.csr.mie_global:
            self._check_sw_lists()
        self._check_canaries()
        return self.violations[before:]

    def _record(self, check: str, detail: str) -> None:
        violation = Violation(check, detail)
        if violation not in self.violations:
            self.violations.append(violation)

    # -- hardware scheduler lists -------------------------------------------------

    def _check_hw_scheduler(self) -> None:
        unit = self.system.unit
        if unit is None or unit.scheduler is None:
            return
        sched = unit.scheduler
        priorities = [e.priority for e in sched.ready]
        if priorities != sorted(priorities, reverse=True):
            self._record("hw-ready-order",
                         f"ready list priorities not descending: {priorities}")
        delays = [e.delay for e in sched.delayed]
        if delays != sorted(delays):
            self._record("hw-delay-order",
                         f"delay list not sorted by remaining delay: {delays}")
        ready_ids = sched.ready_ids()
        if len(set(ready_ids)) != len(ready_ids):
            self._record("hw-duplicate",
                         f"duplicate task in ready list: {ready_ids}")
        both = set(ready_ids) & set(sched.delayed_ids())
        if both:
            self._record("hw-ready-and-delayed",
                         f"tasks in both ready and delay lists: {sorted(both)}")
        if len(sched.ready) > sched.length or len(sched.delayed) > sched.length:
            self._record("hw-overflow",
                         f"list occupancy {len(sched.ready)}/"
                         f"{len(sched.delayed)} exceeds length {sched.length}")

    # -- software kernel lists ------------------------------------------------------

    def _walk(self, header: int, what: str) -> list[int] | None:
        """Walk one kernel list; returns node addrs or None on corruption."""
        memory = self.system.memory
        nodes = []
        node = memory.read_word_raw(header + NODE_NEXT)
        for _ in range(self.system.layout.max_tasks + 1):
            if node == header:
                count = memory.read_word_raw(header + LIST_COUNT)
                if count != len(nodes):
                    self._record(
                        f"{what}-count",
                        f"header count {count} != walked length {len(nodes)}")
                return nodes
            if node + NODE_SIZE > memory.size or node % 4:
                self._record(f"{what}-link",
                             f"node pointer {node:#010x} is not a valid node")
                return None
            owner = memory.read_word_raw(node + NODE_OWNER)
            if owner != header:
                self._record(
                    f"{what}-owner",
                    f"node {node:#010x} owner {owner:#010x} != header "
                    f"{header:#010x}")
                return None
            nxt = memory.read_word_raw(node + NODE_NEXT)
            if (nxt != header
                    and (nxt + NODE_SIZE > memory.size or nxt % 4
                         or memory.read_word_raw(nxt + NODE_PREV) != node)):
                self._record(f"{what}-link",
                             f"broken next/prev linkage at {node:#010x}")
                return None
            nodes.append(node)
            node = nxt
        self._record(f"{what}-cycle",
                     f"list at {header:#010x} does not close within "
                     f"{self.system.layout.max_tasks + 1} hops")
        return None

    def _check_sw_lists(self) -> None:
        ready_base = self.symbols.get("ready_lists")
        if ready_base is None or self.system.config.sched:
            return
        memory = self.system.memory
        top_addr = self.symbols.get("top_ready_prio")
        top = memory.read_word_raw(top_addr) if top_addr else None
        if top is not None and top >= MAX_PRIORITIES:
            self._record("ready-bitmap",
                         f"top_ready_prio {top} outside [0, {MAX_PRIORITIES})")
            top = None
        highest = None
        for prio in range(MAX_PRIORITIES):
            nodes = self._walk(ready_base + prio * NODE_SIZE, "ready-list")
            if nodes:
                highest = prio
        # FreeRTOS's top-ready marker may be stale-high (it is lowered
        # lazily during scheduling) but must never be stale-low: a ready
        # task above the marker would be unschedulable.
        if top is not None and highest is not None and highest > top:
            self._record(
                "ready-bitmap",
                f"ready task at priority {highest} above top_ready_prio {top}")
        delay_header = self.symbols.get("delay_list")
        if delay_header is not None:
            nodes = self._walk(delay_header, "delay-list")
            if nodes:
                values = [memory.read_word_raw(n + NODE_VALUE) for n in nodes]
                if values != sorted(values):
                    self._record(
                        "delay-order",
                        f"delay list wake ticks not ascending: {values}")

    # -- stack canaries ---------------------------------------------------------------

    def _check_canaries(self) -> None:
        layout = self.system.layout
        memory = self.system.memory
        for task_id in range(self.n_tasks):
            addr = layout.stack_base + task_id * layout.stack_words * 4
            word = memory.read_word_raw(addr)
            if word != STACK_CANARY:
                self._record(
                    "stack-canary",
                    f"task {task_id} canary at {addr:#010x} is {word:#010x}, "
                    f"expected {STACK_CANARY:#010x}")
