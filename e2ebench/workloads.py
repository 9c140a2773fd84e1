"""The end-to-end workloads: inputs from a seed, one timed pass, checks.

Each workload class does its set-up in ``__init__`` (imports, input
generation, caches, the service), runs the timed phase in ``run`` and
checks the outputs in ``check``. ``scaled_by_probe`` says whether its
host times are scaled by the host-speed probe (``hostspeed.py``); the
probe is a single-threaded interpreter loop and follows the serial
workloads. The program sees only the generated inputs; the seed itself
stays in this file.

Outputs are checked against ``reference.json``, which holds seed-free
digests made on the exact per-instruction path (``make_reference.py``).
The seed is bookkeeping in this program: it is stamped on every run as
``derive_point_seed(base, core, config, workload)`` and never changes a
simulated number. So the reference for any seed is the stored seed-free
digest plus that stamping rule, and both are checked.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pathlib
import random
import time
from dataclasses import dataclass, field

#: Iterations per grid point: the default of ``repro fig9`` and of a
#: service ``JobRequest``, so the grid has the product's shape.
GRID_ITERATIONS = 10
#: Pool workers of ``service_mixed`` (the host has 2 CPUs).
PARALLEL_JOBS = 2
#: Fixed campaign seed of ``fault_campaign``. The campaign seed sets
#: how many faulted replays spin to their hang budget, so it sets the
#: amount of work (1.6 s to 5.0 s for seeds 40 to 45 on the 2-CPU
#: host). It is held fixed so that runs with different benchmark seeds
#: stay comparable: the benchmark seed does not change this workload.
FAULT_SPEC_SEED = 42
SERVICE_CLIENTS = 2

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")


def digest(obj) -> str:
    """sha256 of the canonical JSON encoding of *obj*."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def seed_free_run(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "seed"}


def seed_free_sweep(payload: dict) -> dict:
    return dict(payload, points=[
        dict(point, runs=[seed_free_run(run) for run in point["runs"]])
        for point in payload["points"]])


def point_label(core: str, config: str, workload: str) -> str:
    return f"{core}/{config}/{workload}/i{GRID_ITERATIONS}"


def fig9_grid() -> list[tuple[str, str, str]]:
    """The Fig. 9 grid: 3 cores x 12 evaluated configs x 5 workloads.

    It is the default grid of :func:`repro.harness.sweep`, in its order.
    """
    from repro.cores import CORE_NAMES
    from repro.rtosunit.config import EVALUATED_CONFIGS
    from repro.workloads import RTOSBENCH_WORKLOADS

    names = [factory(GRID_ITERATIONS).name for factory in RTOSBENCH_WORKLOADS]
    return [(core, config, name) for core in CORE_NAMES
            for config in EVALUATED_CONFIGS for name in names]


def census(keys) -> dict:
    """Shares of operations that repeat earlier work.

    ``keys`` are ``(seed-free identity, seed)`` pairs in input order. An
    operation is an exact duplicate when the same pair came earlier, a
    seed-only variant when only its identity came earlier, and unique
    otherwise.
    """
    seen_exact, seen_identity = set(), set()
    counts = {"duplicate": 0, "seed_variant": 0, "unique": 0}
    for identity, seed in keys:
        if (identity, seed) in seen_exact:
            counts["duplicate"] += 1
        elif identity in seen_identity:
            counts["seed_variant"] += 1
        else:
            counts["unique"] += 1
        seen_exact.add((identity, seed))
        seen_identity.add(identity)
    total = sum(counts.values())
    return {name: count / total for name, count in counts.items()}


@dataclass
class Outcome:
    """What one timed pass delivered, after the output checks."""

    attempted: int
    latencies_s: list[float]
    instret: int
    digest: str
    census: dict
    failures: list[str] = field(default_factory=list)
    report: dict = field(default_factory=dict)


def check_run(payload: dict, base_seed: int, reference: dict) -> str | None:
    """Why one run payload does not match its reference, or ``None``."""
    from repro.harness import derive_point_seed

    core, config = payload["core"], payload["config"]
    name = payload["workload"]
    label = point_label(core, config, name)
    expected = derive_point_seed(base_seed, core, config, name)
    if payload["seed"] != expected:
        return f"{label}: seed {payload['seed']} != {expected}"
    if digest(seed_free_run(payload)) != reference["points"].get(label):
        return f"{label}: run differs from reference"
    return None


def _switch_latency_mean(payloads) -> float:
    samples = [lat for run in payloads for lat in run["latencies"]]
    return sum(samples) / len(samples) if samples else 0.0


class Fig9Cold:
    """The full Fig. 9 grid, serial, cold, then WCET and ``verify_all``."""

    name = "fig9_cold"
    scaled_by_probe = True

    def __init__(self, seed: int, workdir: pathlib.Path, reference: dict):
        from repro.analysis.claims import Evidence, verify_all
        from repro.asic import AreaModel, FrequencyModel, PowerModel
        from repro.harness import sweep, sweep_dict
        from repro.rtosunit.config import EVALUATED_CONFIGS, parse_config
        from repro.wcet import analyze_config

        self.seed = seed
        self.reference = reference
        self.grid = fig9_grid()
        self.configs = EVALUATED_CONFIGS
        self._sweep, self._sweep_dict = sweep, sweep_dict
        self._analyze, self._parse = analyze_config, parse_config
        self._verify = verify_all
        self._evidence = (Evidence, AreaModel, FrequencyModel, PowerModel)

    def run(self) -> dict:
        latencies = []
        start = time.perf_counter()
        results = self._sweep(
            iterations=GRID_ITERATIONS, seed=self.seed, jobs=1,
            progress=lambda *_: latencies.append(time.perf_counter() - start))
        # `repro fig9` prints the static WCET bound next to the grid.
        wcet = {name: self._analyze(self._parse(name)).wcet_cycles
                for name in self.configs}
        evidence, area, frequency, power = self._evidence
        verdicts = self._verify(evidence(latency=results, area=area(),
                                         frequency=frequency(), power=power()))
        return {"latencies": latencies, "export": self._sweep_dict(results),
                "wcet": wcet, "verdicts": verdicts}

    def check(self, raw: dict) -> Outcome:
        export = raw["export"]
        runs = [run for point in export["points"] for run in point["runs"]]
        failures = [failure for failure in (
            check_run(run, self.seed, self.reference) for run in runs)
            if failure is not None]
        expected = self.reference["fig9_sweep"]
        if not failures and digest(seed_free_sweep(export)) != expected:
            failures.append("sweep summary differs from reference")
        if raw["wcet"] != self.reference["fig9_wcet"]:
            failures.append("WCET bounds differ from reference")
        failed_claims = [v.claim_id for v in raw["verdicts"] if not v.passed]
        failures.extend(f"claim {claim} FAILS" for claim in failed_claims)
        return Outcome(
            attempted=len(runs), latencies_s=raw["latencies"],
            instret=sum(run["instructions"] for run in runs),
            digest=digest([export, raw["wcet"]]),
            census=census((point, self.seed) for point in self.grid),
            failures=failures,
            report={"claims_passed": len(raw["verdicts"]) - len(failed_claims),
                    "claims": len(raw["verdicts"]),
                    "switch_latency_mean_cyc": _switch_latency_mean(runs)})


class FaultCampaign:
    """``run_campaign`` on the quick spec, serial (the exact path)."""

    name = "fault_campaign"
    scaled_by_probe = True

    def __init__(self, seed: int, workdir: pathlib.Path, reference: dict):
        from repro.faults import CampaignSpec, campaign_dict, run_campaign
        from repro.faults import campaign as campaign_module

        self.reference = reference
        self.spec = CampaignSpec.quick(seed=FAULT_SPEC_SEED)
        self._module = campaign_module
        self._run, self._dict = run_campaign, campaign_dict

    def run(self) -> dict:
        # Simulated instructions are not part of the campaign's output:
        # keep each system's (small) stats record to sum them afterwards.
        core_stats = []
        build = self._module.build_system

        def counted_build(*args, **kwargs):
            system = build(*args, **kwargs)
            core_stats.append(system.core.stats)
            return system

        latencies = []
        self._module.build_system = counted_build
        try:
            start = time.perf_counter()
            result = self._run(self.spec, progress=lambda _: latencies.append(
                time.perf_counter() - start))
        finally:
            self._module.build_system = build
        return {"latencies": latencies, "export": self._dict(result),
                "instret": sum(stats.instret for stats in core_stats)}

    def check(self, raw: dict) -> Outcome:
        export = raw["export"]
        failures = []
        if digest(export) != self.reference["fault_campaign"]:
            failures.append("campaign outcomes differ from reference")
        outcomes: dict = {}
        for row in export["outcomes"]:
            outcomes[row["outcome"]] = outcomes.get(row["outcome"], 0) + 1
        return Outcome(
            attempted=len(export["outcomes"]), latencies_s=raw["latencies"],
            instret=raw["instret"], digest=digest(export),
            census=census(((row["core"], row["config"], row["workload"],
                            row["fault"]), export["seed"])
                          for row in export["outcomes"]),
            failures=failures,
            report={"outcomes": dict(sorted(outcomes.items()))})


def service_files(seed: int, grid) -> list[list[tuple[tuple, int]]]:
    """The request files of ``service_mixed``, in the order they are sent.

    File k goes to client k % 2. Every file has the same make-up, so
    that the work and the way it is served do not depend on the seed:
    4 grid points not requested before (base seed), seed-only variants
    (seed + 1) of 2 of them, an exact copy of one of them (in flight in
    the same file, so it is coalesced) and an exact copy of a request
    from the client's earlier files (complete, so the cache serves it;
    a client's first file copies in-flight work instead). Over the 45
    files every grid point is requested once with the base seed. The
    seed chooses the points of each file, the copies and the order.

    The shares (1/2 new, 1/4 seed-only variants, 1/4 exact copies) are
    an assumption, not recorded traffic: nothing in the repository logs
    real requests. They give each way of serving a request (executed,
    seed-variant executed, coalesced, cached) a fixed, visible part of
    the stream while keeping simulation the larger part of the work.
    """
    rng = random.Random(seed)
    points = list(grid)
    rng.shuffle(points)
    files: list = []
    sent: list = [[] for _ in range(SERVICE_CLIENTS)]
    for index in range(0, len(points), 4):
        fresh = [(point, seed) for point in points[index:index + 4]]
        variants = [(point, seed + 1) for point, _ in rng.sample(fresh, 2)]
        history = sent[len(files) % SERVICE_CLIENTS]
        copies = [rng.choice(fresh), rng.choice(history or fresh)]
        requests = fresh + variants + copies
        rng.shuffle(requests)
        history.extend(requests)
        files.append(requests)
    return files


class ServiceMixed:
    """A closed loop of request files from 2 clients into the service."""

    name = "service_mixed"
    #: Pool start-up, pipes and two busy CPUs set this workload's pace,
    #: and the single-threaded probe does not follow it: over a series
    #: of 24 passes, scaling raised the spread of 40 s windows' medians
    #: from 0.065 to 0.115. Its host times are reported unscaled.
    scaled_by_probe = False

    def __init__(self, seed: int, workdir: pathlib.Path, reference: dict):
        from repro.dse import ResultCache
        from repro.errors import ReproError
        from repro.service import JobRequest, SimulationService

        self.reference = reference
        files = service_files(seed, fig9_grid())
        self.stream = [request for requests in files for request in requests]
        self.requests = [
            JobRequest(core=core, config=config, workload=name,
                       iterations=GRID_ITERATIONS, seed=request_seed)
            for (core, config, name), request_seed in self.stream]
        self.client_files: list = [[] for _ in range(SERVICE_CLIENTS)]
        first = 0
        for number, requests in enumerate(files):
            self.client_files[number % SERVICE_CLIENTS].append(
                range(first, first + len(requests)))
            first += len(requests)
        self.cache = ResultCache(workdir / "cache")
        self.service = SimulationService(jobs=PARALLEL_JOBS, cache=self.cache)
        self._error = ReproError

    def run(self) -> dict:
        results = [None] * len(self.requests)
        latencies = [None] * len(self.requests)
        service = self.service

        async def one(index: int) -> None:
            start = time.perf_counter()
            try:
                results[index] = await service.submit_and_wait(
                    self.requests[index])
            except self._error as exc:  # rejection: counted as a failure
                results[index] = exc
                return
            latencies[index] = time.perf_counter() - start

        async def client(files) -> None:
            for indices in files:  # next file only after the whole last one
                await asyncio.gather(*(one(index) for index in indices))

        async def main() -> None:
            async with service:
                await asyncio.gather(*(client(files)
                                       for files in self.client_files))

        asyncio.run(main())
        return {"results": results,
                "latencies": [lat for lat in latencies if lat is not None]}

    def check(self, raw: dict) -> Outcome:
        failures, payloads = [], []
        for request, result in zip(self.requests, raw["results"]):
            if isinstance(result, BaseException):
                failures.append(f"{request.label}: rejected: {result}")
            elif not result.ok:
                failures.append(f"{request.label}: {result.error}")
            else:
                failure = check_run(result.run, request.seed, self.reference)
                if failure is None:
                    payloads.append(result.run)
                else:
                    failures.append(failure)
        stats = self.service.stats
        return Outcome(
            attempted=len(self.requests), latencies_s=raw["latencies"],
            instret=sum(run["instructions"] for run in payloads),
            digest=digest([getattr(result, "run", None)
                           for result in raw["results"]]),
            census=census(self.stream), failures=failures,
            report={"served": {"executed": stats.executed,
                               "coalesced": stats.coalesced,
                               "cache": stats.cache_hits},
                    "batches": stats.batches,
                    "switch_latency_mean_cyc": _switch_latency_mean(payloads)})


WORKLOADS = {cls.name: cls for cls in (Fig9Cold, FaultCampaign, ServiceMixed)}
