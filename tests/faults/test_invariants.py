"""Runtime invariant checker: clean on healthy runs, loud on corruption."""

import pytest

from repro.cores.system import build_system
from repro.errors import MemoryError_
from repro.faults import InvariantChecker
from repro.kernel.builder import KernelBuilder
from repro.kernel.layout import NODE_NEXT, NODE_SIZE, STACK_CANARY
from repro.rtosunit.config import parse_config
from repro.workloads import workload_by_name


def _build(config_name: str, workload_name: str = "yield_pingpong",
           iterations: int = 4):
    config = parse_config(config_name)
    workload = workload_by_name(workload_name, iterations=iterations)
    builder = KernelBuilder(config=config, objects=workload.objects,
                            tick_period=workload.tick_period)
    program = builder.program()
    system = build_system("cv32e40p", config, layout=builder.layout,
                          tick_period=builder.tick_period,
                          external_events=workload.external_events)
    system.load(program)
    return builder, program, system


def _checker(builder, program, system) -> InvariantChecker:
    return InvariantChecker(system, n_tasks=len(builder.tasks),
                            symbols=program.symbols)


def _step_until(system, predicate, limit: int = 300_000):
    core = system.core
    for _ in range(limit):
        if predicate():
            return
        if core.halted:
            break
        core.step()
    raise AssertionError("predicate never became true")


def test_healthy_hardware_scheduled_run_is_clean():
    builder, program, system = _build("SLT")
    checker = _checker(builder, program, system)
    steps = [0]

    def hook(core):
        steps[0] += 1
        if steps[0] % 512 == 0:
            checker.check()

    system.core.step_hook = hook
    exit_code = system.run(max_cycles=2_000_000)
    checker.check()
    assert exit_code in (0, 42)
    assert checker.violations == []


def test_healthy_software_run_is_clean():
    builder, program, system = _build("vanilla", "delay_periodic")
    checker = _checker(builder, program, system)
    steps = [0]

    def hook(core):
        steps[0] += 1
        if steps[0] % 512 == 0:
            checker.check()

    system.core.step_hook = hook
    exit_code = system.run(max_cycles=2_000_000)
    checker.check()
    assert exit_code in (0, 42)
    assert checker.violations == []


def test_hw_ready_order_corruption_is_detected():
    builder, program, system = _build("SLT")
    checker = _checker(builder, program, system)
    sched = system.unit.scheduler
    sched.add_ready(1, priority=5)
    sched.add_ready(2, priority=2)
    sched.ready[0].priority = 0  # glitch without the hardware resort
    new = checker.check()
    assert any(v.check == "hw-ready-order" for v in new)


def test_hw_delay_order_corruption_is_detected():
    builder, program, system = _build("SLT")
    checker = _checker(builder, program, system)
    sched = system.unit.scheduler
    sched.add_delay(1, priority=2, delay=100)
    sched.add_delay(2, priority=2, delay=200)
    sched.delayed[0].delay = 999
    new = checker.check()
    assert any(v.check == "hw-delay-order" for v in new)


def test_hw_duplicate_and_double_listing_detected():
    builder, program, system = _build("SLT")
    checker = _checker(builder, program, system)
    sched = system.unit.scheduler
    sched.add_ready(1, priority=3)
    sched.add_ready(1, priority=3)
    sched.add_delay(1, priority=3, delay=50)
    checks = {v.check for v in checker.check()}
    assert "hw-duplicate" in checks
    assert "hw-ready-and-delayed" in checks


def test_stack_canary_smash_is_detected():
    builder, program, system = _build("vanilla")
    checker = _checker(builder, program, system)
    layout = system.layout
    addr = layout.stack_base + 1 * layout.stack_words * 4
    assert system.memory.read_word_raw(addr) == STACK_CANARY
    system.memory.flip_bit(addr, 7)
    new = checker.check()
    assert any(v.check == "stack-canary" and "task 1" in v.detail
               for v in new)


def test_sw_list_linkage_corruption_is_detected():
    builder, program, system = _build("vanilla")
    checker = _checker(builder, program, system)
    core = system.core
    # Reach a quiescent point (task context, interrupts enabled): the
    # list walks are gated on it.
    _step_until(system, lambda: not core.in_isr and core.csr.mie_global
                and core.cycle > 500)
    assert checker.check() == []  # sanity: clean before corruption
    header = program.symbols["ready_lists"]  # priority-0 list header
    system.memory.write_word_raw(header + NODE_NEXT, 0xDEAD)
    new = checker.check()
    assert any(v.check == "ready-list-link" for v in new)


def test_sw_delay_order_corruption_is_detected():
    builder, program, system = _build("vanilla", "delay_periodic")
    checker = _checker(builder, program, system)
    core = system.core
    memory = system.memory
    header = program.symbols["delay_list"]

    from repro.kernel.layout import LIST_COUNT, NODE_VALUE

    def quiescent_with_sleepers():
        return (memory.read_word_raw(header + LIST_COUNT) >= 2
                and not core.in_isr and core.csr.mie_global)

    _step_until(system, quiescent_with_sleepers)
    first = memory.read_word_raw(header + NODE_NEXT)
    memory.write_word_raw(first + NODE_VALUE, 0xFFFF_0000)
    new = checker.check()
    assert any(v.check == "delay-order" for v in new)


def test_context_checksum_detects_slot_poisoning():
    builder, program, system = _build("SLT")
    checker = _checker(builder, program, system)
    core = system.core

    # Run until the unit has stored at least one context, poison that
    # saved slot, and let the run continue to the eventual restore.
    _step_until(system, lambda: bool(checker._checksums))
    task_id = next(iter(checker._checksums))
    slot = system.layout.context_region.slot_addr(task_id)
    system.memory.flip_bit(slot + 8, 12)  # a saved callee register word
    try:
        system.run(max_cycles=2_000_000)
    except Exception:
        pass  # the poisoned context may also crash the task; fine
    assert any(v.check == "context-checksum" and f"task {task_id}" in v.detail
               for v in checker.violations)


def test_observer_is_attached_to_the_unit():
    builder, program, system = _build("SLT")
    checker = _checker(builder, program, system)
    assert system.unit.observer is checker


def test_slot_checksum_matches_the_word_by_word_formula():
    builder, program, system = _build("SLT")
    checker = _checker(builder, program, system)
    memory = system.memory
    slot = system.layout.context_region.slot_addr(1)
    for index in range(31):
        memory.write_word_raw(slot + 4 * index, 0x9E37_79B1 * (index + 1))
    expected = 0
    for index in range(31):
        expected = (expected * 31
                    + memory.read_word_raw(slot + 4 * index)) & 0xFFFFFFFF
    assert checker._slot_checksum(slot) == expected


def test_slot_checksum_names_the_first_word_outside_ram():
    builder, program, system = _build("SLT")
    checker = _checker(builder, program, system)
    slot = system.memory.size - 8  # two words in RAM, the rest beyond it
    with pytest.raises(MemoryError_, match=f"access at {slot + 8:#010x} "
                                           r"\(\+4\)"):
        checker._slot_checksum(slot)
