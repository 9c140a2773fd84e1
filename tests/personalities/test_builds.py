"""Per-personality kernel builds: determinism, execution, warm parity."""

import pytest

from repro.harness.experiment import run_workload
from repro.kernel.builder import KernelBuilder, reset_program_cache
from repro.personalities import personality_names
from repro.rtosunit.config import parse_config
from repro.snapshot import reset_store, store
from repro.workloads import ladder_irq, ladder_jitter, ladder_switch

ALL_QUALIFIED = ("vanilla", "vanilla@scm", "vanilla@echronos")


@pytest.fixture(autouse=True)
def fresh_state(monkeypatch):
    monkeypatch.delenv("REPRO_SNAPSHOT", raising=False)
    reset_store()
    reset_program_cache()
    yield
    reset_store()
    reset_program_cache()


def _result_key(result):
    return (result.latencies,
            [(s.trigger_cycle, s.entry_cycle, s.mret_cycle)
             for s in result.switches],
            result.cycles, result.instret)


def _source(config_name: str) -> str:
    workload = ladder_switch(4)
    builder = KernelBuilder(config=parse_config(config_name),
                            objects=workload.objects,
                            tick_period=workload.tick_period)
    return builder.source()


class TestRenderedSource:
    @pytest.mark.parametrize("config_name", ALL_QUALIFIED)
    def test_two_renders_byte_identical(self, config_name):
        assert _source(config_name) == _source(config_name)

    def test_personalities_render_distinct_kernels(self):
        sources = {name: _source(name) for name in ALL_QUALIFIED}
        assert len(set(sources.values())) == 3

    def test_scm_kernel_has_bitmap_not_lists(self):
        source = _source("vanilla@scm")
        assert "ready_map:" in source
        assert "prio_table:" in source
        assert "ready_lists:" not in source

    def test_echronos_kernel_has_run_flags(self):
        source = _source("vanilla@echronos")
        assert "run_flags:" in source
        assert "ec_task_count:" in source
        assert "ready_lists:" not in source


class TestExecution:
    @pytest.mark.parametrize("config_name", ALL_QUALIFIED)
    @pytest.mark.parametrize("factory", (ladder_switch, ladder_irq,
                                         ladder_jitter))
    def test_deterministic_rerun(self, config_name, factory):
        config = parse_config(config_name)
        first = run_workload("cv32e40p", config, factory(4))
        second = run_workload("cv32e40p", config, factory(4))
        assert _result_key(first) == _result_key(second)

    def test_scm_resolver_beats_freertos_scan(self):
        # The constant-time bitmap resolver is the personality's point:
        # same workload, same core, lower switch latency.
        freertos = run_workload("cv32e40p", parse_config("vanilla"),
                                ladder_switch(6))
        scm = run_workload("cv32e40p", parse_config("vanilla@scm"),
                           ladder_switch(6))
        assert scm.stats.mean < freertos.stats.mean

    def test_echronos_pays_for_cooperation(self):
        # The circular table scan plus explicit yields cost cycles.
        freertos = run_workload("cv32e40p", parse_config("vanilla"),
                                ladder_switch(6))
        echronos = run_workload("cv32e40p", parse_config("vanilla@echronos"),
                                ladder_switch(6))
        assert echronos.stats.mean > freertos.stats.mean


class TestWarmStart:
    @pytest.mark.parametrize("config_name", ALL_QUALIFIED)
    def test_warm_equals_cold(self, config_name):
        config = parse_config(config_name)
        cold = run_workload("cv32e40p", config, ladder_switch(4))
        warm = run_workload("cv32e40p", config, ladder_switch(4))
        assert store().stats.final_hits == 1
        assert _result_key(cold) == _result_key(warm)
        # A finished system survives capture -> materialize exactly.
        workload = ladder_switch(4)
        builder = KernelBuilder(config=config, objects=workload.objects,
                                tick_period=workload.tick_period)
        system = builder.build("cv32e40p",
                               external_events=workload.external_events)
        system.run(workload.max_cycles)
        restored = system.capture().materialize()
        assert restored.switches == system.switches
        assert restored.core.cycle == cold.cycles
        assert restored.core.stats.instret == cold.instret
        assert bytes(restored.memory.data) == bytes(system.memory.data)

    def test_personalities_do_not_share_warm_state(self):
        for config_name in ALL_QUALIFIED:
            run_workload("cv32e40p", parse_config(config_name),
                         ladder_switch(4))
        # Three distinct kernels -> three snapshot entries, zero hits.
        assert len(store()) == 3
        assert store().stats.final_hits == 0
        assert store().stats.misses == 3
