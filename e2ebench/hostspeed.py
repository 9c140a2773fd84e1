"""How fast the host runs Python right now: a fixed interpreter loop.

The benchmark's host is a shared VM whose speed moves by up to 1.9x in
phases of seconds to minutes. Every pass times :func:`probe_s` just
before and just after its timed phase, and ``run.py`` scales the pass's
host times by ``REFERENCE_S / probe`` so that they read as on a host
where the loop takes ``REFERENCE_S``. The loop is frozen here, outside
the program, so a change to the program moves the scaled times exactly
as it moves the raw ones.

The loop does what the simulator's hot path does in pure Python:
fetch from a decode cache, dispatch on an opcode, update a register
list, and load and store words in a ``bytearray``.
"""

from __future__ import annotations

import time

#: The loop's time (:func:`probe_s`) on the 2-vCPU Xeon VM the
#: benchmark was built on, at the median of its speed phases. Scaled
#: times read as on that host; the constant is a unit, not a bound.
REFERENCE_S = 0.054

_STEPS = 150_000
_REPEATS = 3


def _loop(steps: int) -> float:
    program = [(i % 7, (i * 5) % 31 + 1, (i * 3) % 31 + 1, i % 97)
               for i in range(512)]
    regs = [0] * 32
    memory = bytearray(1 << 16)
    decoded: dict = {}
    pc = 0
    start = time.perf_counter()
    for _ in range(steps):
        op = decoded.get(pc)
        if op is None:
            op = decoded[pc] = program[pc]
        kind, rd, rs, imm = op
        if kind == 0:
            regs[rd] = (regs[rs] + imm) & 0xFFFFFFFF
        elif kind == 1:
            regs[rd] = regs[rs] ^ imm
        elif kind == 2:
            addr = (regs[rs] * 4) & 0xFFFC
            memory[addr:addr + 4] = regs[rd].to_bytes(4, "little")
        elif kind == 3:
            addr = (regs[rs] * 4) & 0xFFFC
            regs[rd] = int.from_bytes(memory[addr:addr + 4], "little")
        elif kind == 4:
            regs[rd] = (regs[rs] << 1) & 0xFFFFFFFF
        else:
            regs[rd] = regs[rs] | imm
        pc = (pc + 1) & 511
    return time.perf_counter() - start


def probe_s() -> float:
    """Seconds the loop takes now: the least of a few repeats."""
    return min(_loop(_STEPS) for _ in range(_REPEATS))
