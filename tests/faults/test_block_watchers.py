"""Block dispatch under watchers: differential against the exact path.

The progress guard and the campaign's guard + injector + invariant-check
watcher keep block dispatch on. Everything they observe — campaign
outcomes, guard errors with their trace, applied faults — must be the
same as with no block engine at all.
"""

import pytest

from repro.cores import CORE_CLASSES, CORE_NAMES
from repro.cores.system import System
from repro.errors import SimulationError
from repro.faults import (CampaignSpec, FaultInjector, FaultSpec,
                          InvariantChecker, ProgressGuard, campaign_dict,
                          run_campaign)
from repro.faults.campaign import _ReplayWatcher
from repro.isa.assembler import assemble
from repro.rtosunit.config import parse_config


def _campaign(spec, monkeypatch, blocks):
    monkeypatch.setenv("REPRO_BLOCKS", "1" if blocks else "0")
    return campaign_dict(run_campaign(spec))


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(40, 46))
def test_quick_campaign_identical_without_blocks(seed, monkeypatch):
    spec = CampaignSpec.quick(seed=seed)
    assert (_campaign(spec, monkeypatch, blocks=True)
            == _campaign(spec, monkeypatch, blocks=False))


@pytest.mark.slow
def test_three_core_campaign_slice_identical_without_blocks(monkeypatch):
    spec = CampaignSpec(seed=42, cores=CORE_NAMES, configs=("vanilla", "SLT"),
                        workloads=("yield_pingpong",), iterations=4,
                        faults_per_combo=3)
    assert (_campaign(spec, monkeypatch, blocks=True)
            == _campaign(spec, monkeypatch, blocks=False))


def _addi_run(n: int) -> str:
    return "".join(f"    addi t{1 + i % 5}, t{1 + i % 5}, {i % 7 + 1}\n"
                   for i in range(n))


#: A spin loop with a multi-instruction body, so blocks span boundaries.
SPIN = "spin:\n" + _addi_run(6) + "    j spin\n"

#: 20 passes over one 40-instruction straight-line block, then halt.
LONG_BLOCK = ("    li   s1, 20\nloop:\n" + _addi_run(40)
              + "    addi t0, t0, 1\n    bne  t0, s1, loop\n"
              + "    li   t6, 0xFFFF0000\n    sw   zero, 0(t6)\n")


def _system(core: str, source: str, blocks: bool) -> System:
    system = System(CORE_CLASSES[core], parse_config("vanilla"),
                    tick_period=1 << 30)
    system.load(assemble(source, origin=0))
    if not blocks:
        system.core.block_engine = None
    return system


def _guard_error(core: str, blocks: bool, **guard_kwargs):
    system = _system(core, SPIN, blocks)
    system.core.guard = ProgressGuard(**guard_kwargs)
    with pytest.raises(SimulationError) as excinfo:
        system.run(max_cycles=10_000_000)
    err = excinfo.value
    fast = system.core.perf_counters()["fast_instret"]
    return (str(err), err.pc, err.cycle, err.mcause, err.kind,
            err.trace), fast


@pytest.mark.parametrize("core,guard_kwargs,first_line", [
    ("cv32e40p", {"window": 2_000}, "livelock: no trap and only 7"),
    ("cva6", {"window": 2_000}, "livelock: no trap and only 7"),
    ("cv32e40p", {"window": 10 ** 9, "cycle_budget": 3_000},
     "cycle budget 3000 exhausted"),
    ("naxriscv", {"window": 10 ** 9, "cycle_budget": 3_000},
     "cycle budget 3000 exhausted"),
])
def test_guard_errors_identical_without_blocks(core, guard_kwargs,
                                               first_line):
    on, fast_on = _guard_error(core, True, **guard_kwargs)
    off, fast_off = _guard_error(core, False, **guard_kwargs)
    assert on == off
    assert on[0].startswith(first_line)
    assert fast_off == 0 and fast_on > 0  # the guard kept dispatch on


@pytest.mark.parametrize("window", range(2_000, 2_007))
def test_naxriscv_frozen_time_identical_without_blocks(window):
    # Two-wide issue retires the loop faster than one instruction per
    # cycle, so the step-count bound fires; the window sweeps every
    # alignment of the 7-instruction loop against the boundary budget.
    on, _ = _guard_error("naxriscv", True, window=window)
    off, _ = _guard_error("naxriscv", False, window=window)
    assert on == off
    assert on[0].startswith(f"livelock: {window} instructions retired")


def test_trace_ring_records_only_control_transfers():
    (_, _, _, _, _, trace), _ = _guard_error("cv32e40p", True, window=2_000)
    # Every recorded boundary is the loop head, reached by ``j spin``.
    assert trace and all(line.endswith("pc 0x00000000")
                         for line in trace.splitlines())


def _faulted_run(faults, blocks: bool):
    system = _system("cv32e40p", LONG_BLOCK, blocks)
    injector = FaultInjector(system, faults)
    system.core.guard = _ReplayWatcher(ProgressGuard(window=10 ** 6),
                                       injector, InvariantChecker(system), 64)
    system.run(max_cycles=1_000_000)
    core = system.core
    return {"applied": injector.applied, "regs": list(core.regs),
            "cycle": core.cycle, "stats": vars(core.stats).copy()}


@pytest.mark.parametrize("fault", [
    # Lands mid-block on the first pass over the loop body.
    FaultSpec("reg_flip", 17, target=6, bit=4),
    # Flips an immediate bit of a word later in the same block, not yet
    # executed at the fault: it must not be hidden by a decode made when
    # the block was built.
    FaultSpec("mem_flip", 17, target=4 * 35, bit=21),
    FaultSpec("csr_flip", 400, target=4, bit=3),
])
def test_fault_inside_a_long_block_identical_without_blocks(fault):
    on = _faulted_run([fault], blocks=True)
    off = _faulted_run([fault], blocks=False)
    assert on == off
    assert on["applied"][0][0] >= fault.cycle


def _encoding(line: str) -> int:
    return assemble("    " + line.strip(), origin=0).words[0]


#: The loop's block patches a word it has already executed on this pass
#: (``patchme``): pass 1 runs the original ``addi``, later passes the
#: patched one.
PATCH_EARLIER = f"""
    li   s0, 4
    la   t0, patchme
    la   t1, patchword
    lw   t2, 0(t1)
    j    loop
patchword: .word {_encoding("addi s1, s1, 16"):#010x}
loop:
patchme:
    addi s1, s1, 1
    sw   t2, 0(t0)
    addi s0, s0, -1
    bnez s0, loop
    li   t6, 0xFFFF0000
    sw   zero, 0(t6)
"""

#: The store overwrites its own word: pass 1 stores, later passes run
#: the ``addi`` it wrote.
PATCH_SELF = f"""
    li   s0, 4
    la   t0, patchme
    la   t1, patchword
    lw   t2, 0(t1)
    j    loop
patchword: .word {_encoding("addi s1, s1, 16"):#010x}
loop:
    addi s2, s2, 1
patchme:
    sw   t2, 0(t0)
    addi s0, s0, -1
    bnez s0, loop
    li   t6, 0xFFFF0000
    sw   zero, 0(t6)
"""


def _guarded_run(core: str, source: str, blocks: bool):
    system = _system(core, source, blocks)
    system.core.guard = ProgressGuard(window=10 ** 6)
    system.run(max_cycles=1_000_000)
    core = system.core
    return {"regs": list(core.regs), "cycle": core.cycle,
            "stats": vars(core.stats).copy()}


@pytest.mark.parametrize("core", CORE_NAMES)
@pytest.mark.parametrize("source,s1", [(PATCH_EARLIER, 1 + 3 * 16),
                                       (PATCH_SELF, 3 * 16)],
                         ids=["earlier-word", "own-word"])
def test_self_modifying_store_identical_without_blocks(core, source, s1):
    # A CPU store into an executed word of the running block must not
    # let that block's deferred decode of the word reach the decode cache.
    on = _guarded_run(core, source, blocks=True)
    off = _guarded_run(core, source, blocks=False)
    assert on == off
    assert on["regs"][9] == s1
