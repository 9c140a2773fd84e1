"""Regenerate ``reference.json``: the output digests the benchmark checks.

The references come from the exact per-instruction path, with every
default-on tier switched off, so the fast paths are checked against the
reference implementation, not against themselves. Run from the root of
the repository (about 15 s on a 2-vCPU Xeon)::

    python3 e2ebench/make_reference.py

Regenerate only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

EXACT_PATH = {"REPRO_SNAPSHOT": "0", "REPRO_BLOCKS": "0",
              "REPRO_SUPERBLOCKS": "0", "REPRO_NUMPY": "0"}

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    os.environ.update(EXACT_PATH)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import (FAULT_SPEC_SEED, GRID_ITERATIONS, REFERENCE_PATH,
                           digest, point_label, seed_free_run,
                           seed_free_sweep)

    from repro.faults import CampaignSpec, campaign_dict, run_campaign
    from repro.harness import sweep, sweep_dict
    from repro.rtosunit.config import EVALUATED_CONFIGS, parse_config
    from repro.wcet import analyze_config

    export = sweep_dict(sweep(iterations=GRID_ITERATIONS, seed=0, jobs=1))
    points = {
        point_label(run["core"], run["config"], run["workload"]):
            digest(seed_free_run(run))
        for point in export["points"] for run in point["runs"]}
    campaign = run_campaign(CampaignSpec.quick(seed=FAULT_SPEC_SEED))
    reference = {
        "generated_with": EXACT_PATH,
        "fig9_sweep": digest(seed_free_sweep(export)),
        "fig9_wcet": {name: analyze_config(parse_config(name)).wcet_cycles
                      for name in EVALUATED_CONFIGS},
        "fault_campaign": digest(campaign_dict(campaign)),
        "points": points,
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1,
                                         sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH} ({len(points)} grid points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
