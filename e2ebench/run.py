"""End-to-end benchmark of the reproduction: one workload, one seed.

Run from the root of the repository::

    python3 e2ebench/run.py --workload fig9_cold --seed 1 --seconds 40 \
        --trace 0

Each pass of the workload runs cold in a fresh process (``rep.py``).
Passes repeat until ``--seconds`` is used up (at least three). Each
end-to-end metric is the median over them, with the serial workloads'
host times scaled to a reference host speed (see :func:`end_to_end`);
the report lines give each pass's raw times.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (medians, the tracing overhead
among them) and the census of shared work; the report line ``# trace``
gives the median over pairs of traced minus untraced wall time. The
last line of output is one JSON object; the lines before it are a
report with the host, the seed and the outputs checked. Metric names
and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import PARALLEL_JOBS, WORKLOADS  # noqa: E402

#: A pass still running then is killed with its pool workers; a run
#: never starts a pass that could end after ``RUN_LIMIT_S``.
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 170
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2


def run_pass(workload: str, seed: int, workdir: pathlib.Path,
             trace: bool = False, env: dict | None = None,
             timeout: float = PASS_TIMEOUT_S) -> dict:
    """One cold pass in a child process; returns its record."""
    child_env = dict(os.environ, **(env or {}))
    child_env["PYTHONPATH"] = str(ROOT / "src")
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", str(workdir),
               "--spawned-at", repr(time.monotonic())]
    if trace:
        command.append("--trace")
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} pass exceeded {timeout:.0f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass failed "
                           f"(exit {proc.returncode}):\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(passes: list[dict]) -> dict:
    """End-to-end metric values over untraced passes.

    Each metric is the median over passes. On the serial workloads each
    host time is first scaled to the reference host speed of
    :mod:`hostspeed` by the probe timed around its pass (the pass's
    ``scale``). Over 40 s windows cut from a series of 76 back-to-back
    fig9_cold passes, the window-to-window IQR/median of wall time was
    0.25 raw and 0.06 scaled.
    """
    def median(value) -> float:
        return statistics.median(value(p) for p in passes)

    return {
        "wall_s": median(lambda p: p["wall_s"] * p["scale"]),
        "cpu_s": median(lambda p: p["cpu_s"] * p["scale"]),
        "setup_s": median(lambda p: p["setup_s"] * p["scale"]),
        "ops_per_s": median(
            lambda p: p["attempted"] / (p["wall_s"] * p["scale"])),
        "sim_instr_per_s": median(
            lambda p: p["instret"] / (p["wall_s"] * p["scale"])),
        "peak_rss_mib": median(lambda p: p["peak_rss_mib"]),
        "latency_p50_ms": median(lambda p: 1000.0 * p["scale"]
                                 * statistics.median(p["latencies_s"])),
        "latency_p95_ms": median(
            lambda p: 1000.0 * p["scale"] * statistics.quantiles(
                p["latencies_s"], n=20)[-1]),
    }


def per_layer(traced: list[dict]) -> dict:
    """Per-layer values: medians over traced passes, plus the census."""
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    for share, value in traced[0]["census"].items():
        values[f"census.{share}_share"] = value
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: pathlib.Path):
    """Run passes until *seconds* are used; returns (untraced, traced)."""
    untraced, traced, took = [], [], []
    start = time.monotonic()

    def left() -> float:
        return min(PASS_TIMEOUT_S, RUN_LIMIT_S - (time.monotonic() - start))

    while True:
        began = time.monotonic()
        if trace:  # a pair; which half runs first alternates
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for flag in order:
                number = len(untraced) + len(traced)
                record = run_pass(workload, seed, workdir / f"pass{number}",
                                  trace=flag, timeout=left())
                (traced if flag else untraced).append(record)
        else:
            untraced.append(run_pass(workload, seed,
                                     workdir / f"pass{len(untraced)}",
                                     timeout=left()))
        took.append(time.monotonic() - began)
        done = len(traced) >= MIN_TRACED_PAIRS if trace \
            else len(untraced) >= MIN_PASSES
        elapsed = time.monotonic() - start
        if done and elapsed + statistics.median(took) > seconds:
            return untraced, traced


def _report(workload: str, seed: int, passes: list[dict]) -> None:
    first = passes[0]
    host = first["host"]
    print(f"# e2ebench {workload} seed={seed} passes={len(passes)} "
          f"python={host['python']} cpus={host['cpu_count']}")
    if workload == "service_mixed":
        print(f"# parallel figures: jobs={PARALLEL_JOBS} on a "
              f"{host['cpu_count']}-CPU host")
    print(f"# census {json.dumps(first['census'], sort_keys=True)}")
    print(f"# output {json.dumps(first['report'], sort_keys=True)}")
    digests = sorted({p["digest"] for p in passes})
    print(f"# output digest {' '.join(digests)}")
    for index, p in enumerate(passes):
        kind = "traced pass" if "layers" in p else "pass"
        print(f"# {kind} {index}: setup {p['setup_s']:.3f} s, wall "
              f"{p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, "
              f"probe {p['probe_s']:.4f} s, "
              f"rss {p['peak_rss_mib']:.1f} MiB, "
              f"{len(p['failures'])} failures")
        for failure in p["failures"][:10]:
            print(f"#   FAIL {failure}")
    print("# record " + json.dumps({"workload": workload, "seed": seed,
                                    "host": host}, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workdir = ROOT / f".e2ebench-work-{os.getpid()}"
    try:
        untraced, traced = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        values, names = per_layer(traced), spec["per_layer"]
    else:
        values, names = end_to_end(untraced), spec["end_to_end"]
    passes = untraced + traced
    _report(args.workload, args.seed, passes)
    if args.trace:
        # The same pair ran back to back, in one phase of the host.
        print("# trace: traced minus untraced wall time, median over "
              "pairs: %.3f s" % statistics.median(
                  t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced)))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    print(json.dumps({
        "correct": not any(p["failures"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(min(len(p["failures"]), p["attempted"])
                      for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
