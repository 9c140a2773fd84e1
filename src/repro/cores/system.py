"""System model: core + RTOSUnit + memory + interrupt sources, wired up."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SimulationError
from repro.cores.clint import Clint
from repro.isa.assembler import Program
from repro.mem.memory import (
    HALT_ADDR,
    MSIP_ADDR,
    MTIME_ADDR,
    MTIMECMP_ADDR,
    Memory,
    PROBE_ADDR,
    PUTCHAR_ADDR,
)
from repro.mem.regions import MemoryLayout
from repro.mem.timeline import MemoryTimeline
from repro.rtosunit.config import RTOSUnitConfig
from repro.rtosunit.unit import RTOSUnit

_CLINT_ADDRS = frozenset({MSIP_ADDR, MTIMECMP_ADDR, MTIME_ADDR})


@dataclass
class SwitchRecord:
    """One measured context switch: interrupt trigger → mret completion."""

    trigger_cycle: int
    entry_cycle: int
    mret_cycle: int

    @property
    def latency(self) -> int:
        return self.mret_cycle - self.trigger_cycle


class System:
    """One simulated uniprocessor system.

    Routes MMIO between the CLINT and the simulator-control registers,
    owns the RTOSUnit when the configuration calls for one, and exposes
    the measured context-switch records after a run.
    """

    def __init__(
        self,
        core_class,
        config: RTOSUnitConfig,
        layout: MemoryLayout | None = None,
        tick_period: int = 1000,
        mem_size: int = 1 << 20,
        external_events: list[int] | None = None,
    ):
        self.config = config
        self.layout = layout or MemoryLayout()
        self.memory = Memory(size=mem_size)
        self.memory.clint = self  # MMIO router
        self.timeline = MemoryTimeline()
        region = self.layout.context_region
        self.unit: RTOSUnit | None = None
        if not config.is_vanilla:
            self.unit = RTOSUnit(config, self.memory, self.timeline, region)
        self.core = core_class(self.memory, config, unit=self.unit)
        if self.unit is not None:
            # LSU-level arbitration shares the core's cache (§5.3).
            self.unit.word_cost = self.core.rtosunit_word_cost
            self.unit.timeline = self.timeline
        self.core.timeline = self.timeline
        if self.core.__class__.__name__ == "CVA6" and not config.is_vanilla:
            self.core.uncached_ranges.append((region.base, region.end))
        self.clint = Clint(tick_period=tick_period,
                           autoreset=config.hw_timer_autoreset,
                           external_events=list(external_events or []))
        self.clint.attach(self.core)
        self.core.clint = self.clint
        self.console: list[str] = []
        self.probes: list[tuple[int, int]] = []  # (value, cycle)
        # Keep cached blocks coherent with writes that bypass the core
        # (RTOSUnit FSM stores, fault flips, direct raw pokes).
        self.memory.code_watch = self.core._note_raw_code_write
        self.memory.code_watch_range = self.core._note_raw_code_write_range

    # -- MMIO routing ---------------------------------------------------------

    def read_mmio(self, addr: int) -> int:
        if addr in _CLINT_ADDRS:
            return self.clint.read_mmio(addr)
        if addr == PROBE_ADDR:
            return len(self.probes)
        raise SimulationError(f"unhandled MMIO read at {addr:#010x}")

    def write_mmio(self, addr: int, value: int) -> None:
        if addr in _CLINT_ADDRS:
            self.clint.write_mmio(addr, value)
            return
        if addr == HALT_ADDR:
            self.core.halted = True
            self.core.exit_code = value
            return
        if addr == PUTCHAR_ADDR:
            self.console.append(chr(value & 0xFF))
            return
        if addr == PROBE_ADDR:
            self.probes.append((value, self.core.cycle))
            return
        raise SimulationError(f"unhandled MMIO write at {addr:#010x}")

    # -- program loading ---------------------------------------------------------

    def load(self, program: Program, boot_task_id: int | None = None) -> None:
        """Load an assembled image and point the core at its entry."""
        self.memory.load_program(program.words)
        self.core.pc = program.entry
        if self.unit is not None and boot_task_id is not None:
            self.unit.boot(boot_task_id)

    def load_image(self, program: Program, segments,
                   boot_task_id: int | None = None) -> None:
        """Like :meth:`load`, from pre-rendered ``(addr, bytes)`` segments.

        The kernel build cache renders the word dict into contiguous
        segments once; every later system blits them with one slice
        assignment each instead of a per-word Python loop.
        """
        self.memory.load_segments(segments)
        self.core.pc = program.entry
        if self.unit is not None and boot_task_id is not None:
            self.unit.boot(boot_task_id)

    # -- snapshot/restore (repro.snapshot) -----------------------------------

    #: Above this many dirty ranges a restore drops the code caches
    #: wholesale instead of walking words (docs/SNAPSHOT.md).
    _FULL_RESET_RANGES = 16

    def capture(self):
        """Checkpoint the full system as a :class:`SystemSnapshot`.

        Memory is captured copy-on-write: pages unchanged since the
        previous capture (or restore) share storage with it.
        """
        from repro.snapshot.state import SystemSnapshot

        return SystemSnapshot(
            core_class=type(self.core),
            config=self.config,
            layout=self.layout,
            tick_period=self.clint.tick_period,
            mem_size=self.memory.size,
            memory_image=self.memory.capture_image(),
            core_state=self.core.capture_state(),
            # With no RTOSUnit nothing ever consumes the timeline's busy
            # set — skip it rather than checkpoint a write-only deque.
            timeline_state=self.timeline.capture_state(
                include_busy=self.unit is not None),
            clint_state=self.clint.capture_state(),
            unit_state=(self.unit.capture_state()
                        if self.unit is not None else None),
            console=tuple(self.console),
            probes=tuple(self.probes),
        )

    def restore(self, snapshot) -> None:
        """Restore a snapshot captured from an identically-built system.

        Every container is mutated in place (the block interpreter holds
        hoisted references into the core and memory), and code caches
        are invalidated over exactly the dirty memory ranges.
        """
        core = self.core
        had_cached_code = bool(core._decode_cache) or (
            core.block_engine is not None and core.block_engine.addr_map)
        dirty = self.memory.restore_image(snapshot.memory_image)
        if had_cached_code and dirty:
            if len(dirty) > self._FULL_RESET_RANGES:
                core.reset_code_caches()
            else:
                for start, nbytes in dirty:
                    core.invalidate_code(start, nbytes)
        core.restore_state(snapshot.core_state)
        self.timeline.restore_state(snapshot.timeline_state)
        self.clint.restore_state(snapshot.clint_state)
        if self.unit is not None:
            self.unit.restore_state(snapshot.unit_state)
        self.console[:] = snapshot.console
        self.probes[:] = snapshot.probes
        snapshot.restores += 1

    # -- running ---------------------------------------------------------------------

    def run(self, max_cycles: int = 10_000_000) -> int:
        """Run to completion; returns the exit code from the HALT store."""
        return self.core.run(max_cycles=max_cycles)

    def perf_counters(self) -> dict:
        """Simulator-side performance counters of the attached core.

        Covers the decode cache, block-dispatch cache and slow-path
        ratio — see ``repro profile`` and docs/PERF.md.
        """
        return self.core.perf_counters()

    @property
    def console_text(self) -> str:
        return "".join(self.console)

    @property
    def switches(self) -> list[SwitchRecord]:
        return [SwitchRecord(*event) for event in self.core.switch_events]


def build_system(core_name: str, config: RTOSUnitConfig,
                 **kwargs) -> System:
    """Convenience constructor from a core name (``cv32e40p``...)."""
    from repro.cores import CORE_CLASSES

    core_class = CORE_CLASSES.get(core_name.lower())
    if core_class is None:
        raise ConfigurationError(
            f"unknown core {core_name!r}; expected one of "
            f"{sorted(CORE_CLASSES)}")
    return System(core_class, config, **kwargs)
