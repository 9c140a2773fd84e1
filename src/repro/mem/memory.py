"""Functional memory: flat on-chip SRAM plus a small MMIO window.

The paper's evaluation assumes tightly coupled, single-cycle on-chip SRAM
(§6.1). We model a flat RAM of configurable size starting at address 0,
plus:

* a CLINT-style timer/software-interrupt block (``mtime``, ``mtimecmp``,
  ``msip``) — FreeRTOS uses the timer for time slicing and ``msip`` for
  voluntary yields,
* simulator control registers: ``HALT_ADDR`` ends the simulation (the
  store value becomes the exit code), ``PUTCHAR_ADDR`` collects console
  output, and ``PROBE_ADDR`` records instrumentation markers with their
  cycle for the measurement harness.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import MemoryError_
from repro.mem.substrate import byte_view, get_numpy

#: Bulk raw stores below this word count stay on ``struct.pack_into`` —
#: NumPy's per-call overhead only amortises on larger transfers.
_NP_BULK_WORDS = 32

MASK32 = 0xFFFFFFFF

#: CLINT-compatible MMIO block.
CLINT_BASE = 0x0200_0000
MSIP_ADDR = CLINT_BASE + 0x0000
MTIMECMP_ADDR = CLINT_BASE + 0x4000
MTIME_ADDR = CLINT_BASE + 0xBFF8

#: Simulator control registers.
SIMCTL_BASE = 0xFFFF_0000
HALT_ADDR = SIMCTL_BASE + 0x0
PUTCHAR_ADDR = SIMCTL_BASE + 0x4
PROBE_ADDR = SIMCTL_BASE + 0x8

_MMIO_ADDRS = frozenset({
    MSIP_ADDR, MTIMECMP_ADDR, MTIME_ADDR, HALT_ADDR, PUTCHAR_ADDR, PROBE_ADDR,
})

#: Public alias used by the block interpreter's inlined load/store fast
#: path (repro.cores.blocks) to route MMIO through the exact delegate.
MMIO_ADDRS = _MMIO_ADDRS


def is_mmio(addr: int) -> bool:
    """True when *addr* falls in an MMIO window rather than RAM."""
    return addr in _MMIO_ADDRS


@dataclass
class Memory:
    """Byte-addressable RAM with word/half/byte access and MMIO hooks.

    The MMIO side effects are delegated to a ``clint`` object (set by the
    system model) with ``read_mmio(addr)`` / ``write_mmio(addr, value)``
    methods; until one is attached, MMIO accesses raise.
    """

    size: int = 1 << 20
    data: bytearray = field(init=False)
    clint: object | None = field(default=None, repr=False)
    #: Raw-write observer ``watch(addr)`` — the System wires it to the
    #: core's code-cache coherence hook so non-CPU writes (RTOSUnit
    #: FSMs, fault flips, test pokes) invalidate covering blocks. CPU
    #: stores go through :meth:`write` and are handled by the core's own
    #: self-modifying-store check instead.
    code_watch: object | None = field(default=None, repr=False, compare=False)
    #: Batched form ``watch_range(addr, nbytes)`` — when set, bulk raw
    #: writes notify once per transfer instead of once per word (same
    #: invalidation effects; the observer walks the words itself).
    code_watch_range: object | None = field(default=None, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        self.data = bytearray(self.size)
        #: Last captured/restored snapshot image; the base for CoW page
        #: sharing in :meth:`capture_image`.
        self._image = None

    # -- loading -------------------------------------------------------------

    def load_program(self, words: dict[int, int]) -> None:
        """Copy an assembled image's words into RAM."""
        for addr, word in words.items():
            self.write_word_raw(addr, word)

    def load_blob(self, blob: bytes) -> None:
        """Blit a flat image starting at address 0."""
        self.load_segments(((0, blob),))

    def load_segments(self, segments) -> None:
        """Blit ``(addr, bytes)`` segments, bounds-checked as a whole.

        The kernel build cache's image form: one slice assignment per
        contiguous run of words. Nothing is written if any segment
        would end past RAM.
        """
        top = max((addr + len(data) for addr, data in segments), default=0)
        if top > self.size:
            raise MemoryError_(
                f"image of {top:#x} bytes exceeds RAM of "
                f"{self.size:#x} bytes")
        for addr, data in segments:
            self.data[addr:addr + len(data)] = data

    # -- snapshot/restore (repro.snapshot) -----------------------------------

    def capture_image(self):
        """Snapshot RAM as a copy-on-write page image (docs/SNAPSHOT.md)."""
        from repro.snapshot.pages import capture_image

        self._image = capture_image(self.data, self._image)
        return self._image

    def restore_image(self, image) -> list[tuple[int, int]]:
        """Restore a captured image in place; returns dirty ranges.

        Only pages whose live content differs are written. The caller
        (``System.restore``) must invalidate code caches over the
        returned ``(start, nbytes)`` ranges — that is the restore half
        of the ``invalidate_code`` lockstep contract.
        """
        from repro.snapshot.pages import restore_image

        dirty = restore_image(self.data, image)
        self._image = image
        return dirty

    # -- raw RAM access (no MMIO, used by loaders and the RTOSUnit FSMs) -----

    def read_word_raw(self, addr: int) -> int:
        # Hot path for the RTOSUnit context FSMs: only call into the
        # checker (which raises with a precise message) when needed.
        if addr < 0 or addr + 4 > self.size or addr & 3:
            self._check(addr, 4)
        return int.from_bytes(self.data[addr:addr + 4], "little")

    def _store_word(self, addr: int, value: int) -> None:
        """The one raw word-store primitive (bounds already checked).

        Every raw mutation — :meth:`write_word_raw`, :meth:`flip_bit`,
        the RTOSUnit FSM stores — funnels through here, so the NumPy
        and bytearray backends cannot drift on how a word lands in RAM:
        the store always goes through the shared ``bytearray`` buffer
        (which the NumPy views alias), and always fires ``code_watch``.
        """
        self.data[addr:addr + 4] = (value & MASK32).to_bytes(4, "little")
        if self.code_watch is not None:
            self.code_watch(addr)

    def write_word_raw(self, addr: int, value: int) -> None:
        if addr < 0 or addr + 4 > self.size or addr & 3:
            self._check(addr, 4)
        self._store_word(addr, value)

    def read_words_raw(self, addr: int, count: int) -> tuple[int, ...]:
        """Bulk :meth:`read_word_raw`: *count* consecutive words."""
        nbytes = 4 * count
        if addr < 0 or addr + nbytes > self.size or addr & 3:
            self._check(addr, nbytes)
        return struct.unpack_from(f"<{count}I", self.data, addr)

    def write_words_raw(self, addr: int, values) -> None:
        """Bulk :meth:`write_word_raw`: consecutive words in one slice.

        Byte-identical to the word loop, including per-word
        ``code_watch`` notification for SMC/fault bookkeeping.
        """
        count = len(values)
        nbytes = 4 * count
        if addr < 0 or addr + nbytes > self.size or addr & 3:
            self._check(addr, nbytes)
        stored = False
        if count >= _NP_BULK_WORDS:
            np = get_numpy()
            if np is not None:
                try:
                    words = np.asarray(values, dtype=np.int64)
                except (OverflowError, ValueError):
                    words = None
                if words is not None:
                    np.bitwise_and(words, MASK32, out=words)
                    view = byte_view(self.data)
                    view[addr:addr + nbytes] = (
                        words.astype("<u4").view(np.uint8))
                    stored = True
        if not stored:
            try:
                # Values are almost always already-masked register words;
                # skip the per-word masking pass unless one overflows.
                struct.pack_into(f"<{count}I", self.data, addr, *values)
            except struct.error:
                struct.pack_into(f"<{count}I", self.data, addr,
                                 *(v & MASK32 for v in values))
        watch_range = self.code_watch_range
        if watch_range is not None:
            watch_range(addr, nbytes)
            return
        watch = self.code_watch
        if watch is not None:
            for offset in range(0, nbytes, 4):
                watch(addr + offset)

    def flip_bit(self, addr: int, bit: int) -> int:
        """Flip one bit of a RAM word (fault injection; no MMIO, no timing).

        Returns the new word value.
        """
        if not 0 <= bit < 32:
            raise MemoryError_(f"bit index {bit} outside a 32-bit word")
        if addr < 0 or addr + 4 > self.size or addr & 3:
            self._check(addr, 4)
        word = int.from_bytes(self.data[addr:addr + 4], "little") ^ (1 << bit)
        self._store_word(addr, word)
        return word

    # -- CPU-visible access ----------------------------------------------------

    def read(self, addr: int, size: int) -> int:
        if is_mmio(addr):
            if self.clint is None:
                raise MemoryError_(f"MMIO read at {addr:#010x} with no CLINT")
            return self.clint.read_mmio(addr) & ((1 << (8 * size)) - 1)
        self._check(addr, size)
        return int.from_bytes(self.data[addr:addr + size], "little")

    def write(self, addr: int, value: int, size: int) -> None:
        if is_mmio(addr):
            if self.clint is None:
                raise MemoryError_(f"MMIO write at {addr:#010x} with no CLINT")
            self.clint.write_mmio(addr, value & MASK32)
            return
        self._check(addr, size)
        mask = (1 << (8 * size)) - 1
        self.data[addr:addr + size] = (value & mask).to_bytes(size, "little")

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > self.size:
            raise MemoryError_(
                f"access at {addr:#010x} (+{size}) outside RAM of "
                f"{self.size:#x} bytes")
        if addr % size:
            raise MemoryError_(
                f"misaligned {size}-byte access at {addr:#010x}")
