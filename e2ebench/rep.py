"""One cold pass of one workload, in a fresh process; prints one JSON line.

``run.py`` starts this file once per pass, so every pass starts with
empty in-process caches, as a product command does. Usage::

    PYTHONPATH=src python3 e2ebench/rep.py --workload fig9_cold --seed 1 \\
        --spawned-at <time.monotonic() of the parent> --workdir DIR [--trace]

``setup_s`` runs from the parent's ``--spawned-at`` stamp (the clock is
system-wide) to the end of set-up, so interpreter start and imports
count. The timed phase ends when the last result is back; pool workers
are then joined so that their CPU time and peak memory are counted.
The host-speed probe (``hostspeed.py``) runs just before and just after
the timed phase, outside it.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pathlib
import resource
import sys
import time

from hostspeed import REFERENCE_S, probe_s
from workloads import REFERENCE_PATH, WORKLOADS


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _join_children() -> None:
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.perf import host_info

    reference = json.loads(REFERENCE_PATH.read_text())
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    workload = WORKLOADS[args.workload](args.seed, args.workdir, reference)
    setup_s = time.monotonic() - args.spawned_at

    probe_before = probe_s()
    cpu_before = _cpu_s()
    start = time.perf_counter()
    raw = workload.run()
    wall_s = time.perf_counter() - start
    _join_children()
    cpu_s = _cpu_s() - cpu_before
    probe = (probe_before + probe_s()) / 2
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    outcome = workload.check(raw)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host_info(),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "probe_s": probe,
        "scale": REFERENCE_S / probe if workload.scaled_by_probe else 1.0,
        "peak_rss_mib": rss_kib / 1024.0,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "latencies_s": outcome.latencies_s,
        "instret": outcome.instret,
        "digest": outcome.digest,
        "census": outcome.census,
        "report": outcome.report,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(
            wall_s, service=getattr(workload, "service", None))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
