"""Benchmark harness support: result capture and shared sweeps.

Run with ``pytest benchmarks/ --benchmark-only``. Every benchmark
regenerates one table or figure of the paper, prints the rows the paper
reports, and writes them to ``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def publish(name: str, text: str) -> None:
    """Print a figure/table and persist it under benchmarks/results/."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def update_bench(path: pathlib.Path, name: str, fields: dict) -> None:
    """Merge *fields* into the ``repro-bench/v1`` record at *path*.

    For BENCH files that several gates write: each gate refreshes its
    own fields and the host fingerprint, and keeps the others'.
    """
    from repro.perf import bench_record

    record = json.loads(path.read_text()) if path.exists() else {}
    record.update(bench_record(name, fields))
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def fig9_sweep():
    """The full Fig. 9 grid, shared by the latency and power benches."""
    from repro.harness import sweep

    return sweep(iterations=10)
