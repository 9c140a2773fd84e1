"""Tier ablation report: every end-to-end metric with one switch off.

A report, never a gate. For each workload it runs interleaved cold
passes of the default build and of each default-on switch turned off
in the pass's environment, prints each end-to-end metric as a ratio to
the default (below 1 is less for the metric, whichever way is better),
and requires every variant to deliver the default's output digest.
Run from the root of the repository::

    python3 e2ebench/ablate.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import ROOT, end_to_end, run_pass
from workloads import WORKLOADS

SWITCHES = ("REPRO_SNAPSHOT", "REPRO_BLOCKS", "REPRO_SUPERBLOCKS",
            "REPRO_NUMPY")
#: Passes per variant and workload, interleaved across the variants.
PASSES = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    variants = [("default", {})] + [(name, {name: "0"})
                                    for name in SWITCHES]
    workdir = ROOT / f".e2ebench-work-{os.getpid()}"
    names = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    mismatches = 0
    try:
        for workload in WORKLOADS:
            records: dict = {label: [] for label, _ in variants}
            for round_ in range(PASSES):
                shift = round_ % len(variants)
                for label, env in variants[shift:] + variants[:shift]:
                    records[label].append(run_pass(
                        workload, args.seed,
                        workdir / f"{label}-{round_}", env=env))
            base = end_to_end(records["default"])
            digest = records["default"][0]["digest"]
            print(f"{workload} (seed {args.seed}, {PASSES} passes "
                  f"each; default: " + ", ".join(
                      f"{n} {base[n]:.4g}" for n in names) + ")")
            print(f"  {'switch off':>20} "
                  + " ".join(f"{n:>15}" for n in names) + "  output")
            for label, _ in variants[1:]:
                values = end_to_end(records[label])
                same = all(r["digest"] == digest and not r["failures"]
                           for r in records[label])
                mismatches += not same
                print(f"  {label + '=0':>20} " + " ".join(
                    f"{values[n] / base[n]:>15.3f}" for n in names)
                    + ("  same" if same else "  DIFFERS"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
