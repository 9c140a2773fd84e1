"""Result memo, gating and accounting in run_workload."""

import pytest

from repro.harness.experiment import run_workload
from repro.rtosunit.config import parse_config
from repro.snapshot import snapshot_enabled, store
from repro.workloads import yield_pingpong


def _run(guard=None):
    workload = yield_pingpong(iterations=3)
    return run_workload("cv32e40p", parse_config("vanilla"), workload,
                        guard=guard), workload


def _result_key(result):
    return (result.latencies,
            [(s.trigger_cycle, s.entry_cycle, s.mret_cycle)
             for s in result.switches],
            result.cycles, result.instret, dict(vars(result.core_stats)))


def test_snapshot_enabled_parsing(monkeypatch):
    for value, expected in (("1", True), ("", True), ("yes", True),
                            ("0", False), ("false", False), ("off", False),
                            ("No", False)):
        monkeypatch.setenv("REPRO_SNAPSHOT", value)
        assert snapshot_enabled() is expected
    monkeypatch.delenv("REPRO_SNAPSHOT")
    assert snapshot_enabled() is True


def test_miss_then_final_hit():
    cold, _ = _run()
    warm, _ = _run()
    stats = store().stats
    assert stats.misses == 1
    assert stats.final_hits == 1
    assert stats.final_stores == 1
    assert stats.boundary_hits == 0  # no mid-run resume tier
    assert _result_key(cold) == _result_key(warm)


def test_memo_hits_are_private_copies():
    """Mutating one result never leaks into the memo or another hit."""
    cold, _ = _run()
    expected = repr(_result_key(cold))
    cold.latencies.append(-1)
    cold.switches.clear()
    cold.core_stats.instret = -1
    first, _ = _run()
    second, _ = _run()
    assert repr(_result_key(first)) == expected
    assert repr(_result_key(second)) == expected
    assert first.latencies is not second.latencies
    assert first.switches is not second.switches
    assert first.switches[0] is not second.switches[0]
    assert first.core_stats is not second.core_stats


def test_env_gate_bypasses_store(monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOT", "0")
    _run()
    _run()
    assert len(store()) == 0
    assert store().stats.misses == 0


def test_guard_forces_exact_path():
    class NullGuard:
        def on_step(self, core):
            pass

        def check(self, core):
            pass

    cold, _ = _run()
    guarded, _ = _run(guard=NullGuard())
    assert store().stats.bypasses == 1
    assert store().stats.final_hits == 0  # guard never reads warm state
    assert _result_key(cold) == _result_key(guarded)


def test_memo_holds_a_result_not_a_system():
    """An entry keeps a pickled RunResult of a few KiB, no RAM image."""
    cold, _ = _run()
    (entry,) = store()._entries.values()
    assert isinstance(entry._blob, bytes)
    assert len(entry._blob) < 64 * 1024
    memo = entry.final
    assert memo is not entry.final  # every read is a fresh copy
    assert _result_key(memo) == _result_key(cold)


def test_results_shared_across_seeds():
    """The seed never perturbs the simulation, so the memo is shared."""
    workload = yield_pingpong(iterations=3)
    config = parse_config("vanilla")
    a = run_workload("cv32e40p", config, workload, seed=1)
    b = run_workload("cv32e40p", config, workload, seed=2)
    c = run_workload("cv32e40p", config, workload, seed=1)
    assert store().stats.final_hits == 2
    assert (a.seed, b.seed, c.seed) == (1, 2, 1)  # each stamped its own
    assert a.latencies == b.latencies == c.latencies
    assert b.latencies is not c.latencies


def test_distinct_workload_params_get_distinct_entries():
    import dataclasses

    workload = yield_pingpong(iterations=3)
    config = parse_config("vanilla")
    run_workload("cv32e40p", config, workload)
    shifted = dataclasses.replace(workload, tick_period=workload.tick_period
                                  + 1000)
    run_workload("cv32e40p", config, shifted)
    assert store().stats.misses == 2
    assert len(store()) == 2
