"""Suite-level differential: memoised runs and snapshots vs the cold path.

Every RTOSBench workload runs on every core model on both the software
baseline and a hardware-assisted configuration, once cold (warm-start
disabled) and twice with the result memo (populate, then a hit). All
must agree on everything observable — the latency distribution, every
switch record, cycle/instret, the full core and RTOSUnit stats. The
end-of-run machine state is checked separately: a finished system
captured with ``System.capture()`` and rebuilt by ``materialize()``
must equal a from-scratch cold system down to the last RAM byte. This
is the acceptance test for the byte-identity contract in
docs/SNAPSHOT.md.
"""

import dataclasses

import pytest

from repro.cores import CORE_NAMES
from repro.harness.experiment import run_workload
from repro.kernel.builder import KernelBuilder
from repro.rtosunit.config import parse_config
from repro.workloads.suite import RTOSBENCH_WORKLOADS

ITERATIONS = 3
CONFIGS = ("vanilla", "SLT")


def _result_obs(result):
    return {
        "latencies": result.latencies,
        "switches": [dataclasses.asdict(s) for s in result.switches],
        "cycles": result.cycles,
        "instret": result.instret,
        "core_stats": dict(vars(result.core_stats)),
        "unit_stats": (dict(vars(result.unit_stats))
                       if result.unit_stats else None),
        "stats": dataclasses.asdict(result.stats),
    }


def _system_obs(system):
    return {
        "regs": [list(bank) for bank in system.core.banks],
        "pc": system.core.pc,
        "csr": dict(system.core.csr.regs),
        "memory": bytes(system.memory.data),
        "console": list(system.console),
        "probes": list(system.probes),
    }


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("core_name", sorted(CORE_NAMES))
def test_warm_runs_byte_identical_to_cold(core_name, config_name,
                                          monkeypatch):
    config = parse_config(config_name)
    for factory in RTOSBENCH_WORKLOADS:
        workload = factory(iterations=ITERATIONS)

        monkeypatch.setenv("REPRO_SNAPSHOT", "0")
        cold = run_workload(core_name, config, workload)
        monkeypatch.delenv("REPRO_SNAPSHOT")

        populate = run_workload(core_name, config, workload)  # cold + capture
        warm = run_workload(core_name, config, workload)      # replay

        for label, other in (("populate", populate), ("warm", warm)):
            assert _result_obs(other) == _result_obs(cold), (
                f"{core_name}/{config_name}/{workload.name}: "
                f"{label} run diverged from the exact cold path")

        # End-of-run machine state, down to RAM bytes: a captured and
        # re-materialized finished system against a from-scratch one.
        builder = KernelBuilder(config=config, objects=workload.objects,
                                tick_period=workload.tick_period)
        systems = []
        for _ in range(2):
            system = builder.build(core_name,
                                   external_events=workload.external_events)
            system.run(workload.max_cycles)
            systems.append(system)
        reference, finished = systems
        restored = finished.capture().materialize()
        assert _system_obs(restored) == _system_obs(reference), (
            f"{core_name}/{config_name}/{workload.name}: final machine "
            f"state diverged captured vs cold")
