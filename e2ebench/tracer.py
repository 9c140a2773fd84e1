"""Spans and counters around the public entry points of each layer.

:func:`install` wraps the functions listed in :data:`SPANS` from outside
the program: a method is replaced on its class, and a module function
is rebound as :data:`SPANS` says. Each call becomes a span with a name,
start and end; a span's parent is the span open on the same thread when
it started. Spans are folded into per-name totals as they close, so
memory stays flat.

A layer's self time is the time inside its spans that no child span of
another layer covers. Spans inside process-pool workers are not seen:
only the parent process reports. The tracer times its own work around
each call (span bookkeeping and the counter hooks) and reports the sum
as the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from collections import defaultdict

#: (layer, span name, "module:qualname"). A function named in the
#: module that defines it is wrapped wherever it was imported; one named
#: in a module that imported it is wrapped only as that module sees it.
SPANS = (
    ("kernel", "kernel.source", "repro.kernel.builder:KernelBuilder.source"),
    ("isa", "isa.assemble_cached", "repro.kernel.builder:assemble_cached"),
    ("isa", "isa.assemble", "repro.kernel.builder:assemble"),
    ("cores", "cores.build", "repro.cores.system:build_system"),
    ("cores", "cores.run", "repro.cores.base:BaseCore.run"),
    ("snapshot", "snapshot.capture", "repro.cores.system:System.capture"),
    ("snapshot", "snapshot.restore",
     "repro.snapshot.state:SystemSnapshot.materialize"),
    ("harness", "harness.run_workload",
     "repro.harness.experiment:run_workload"),
    ("harness", "harness.run_dict", "repro.harness.export:run_dict"),
    ("harness", "harness.load_run", "repro.harness.export:load_run"),
    ("harness", "harness.sweep_dict", "repro.harness.export:sweep_dict"),
    ("dse", "dse.run", "repro.dse.executor:DSEExecutor.run"),
    ("dse", "dse.parallel_map", "repro.dse.executor:parallel_map"),
    ("dse", "dse.cache_get", "repro.dse.cache:ResultCache.get"),
    ("dse", "dse.cache_put", "repro.dse.cache:ResultCache.put"),
    ("service", "service.run_batch", "repro.service.server:run_batch"),
    ("faults", "faults.run_campaign", "repro.faults.campaign:run_campaign"),
    ("faults", "faults.run_fault_task",
     "repro.faults.campaign:run_fault_task"),
    ("faults", "faults.check",
     "repro.faults.invariants:InvariantChecker.check"),
    ("wcet", "wcet.analyze_config", "repro.wcet.analyzer:analyze_config"),
    ("analysis", "analysis.verify_all", "repro.analysis.claims:verify_all"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPANS))


class Tracer:
    """Per-name span totals, thread-local span stacks and layer counters."""

    def __init__(self):
        self._local = threading.local()
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self.layer_of = {name: layer for layer, name, _ in SPANS}
        self.calls: dict = defaultdict(int)
        self.inclusive: dict = defaultdict(float)
        self.exclusive: dict = defaultdict(float)
        self.root_s = 0.0
        self.overhead_s = 0.0
        self.counters: dict = defaultdict(float)
        self.queue_waits: list[float] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, args, kwargs):
        """Call *fn* as span *name*; returns its result and duration."""
        stack = self._stack()
        frame = [0.0]  # time covered by child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            with self._lock:
                self.calls[name] += 1
                self.inclusive[name] += duration
                self.exclusive[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                elif threading.get_ident() == self._main:
                    self.root_s += duration
        return result, duration

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def add_overhead(self, seconds: float) -> None:
        with self._lock:
            self.overhead_s += seconds

    def queue_wait(self, waits) -> None:
        with self._lock:
            self.queue_waits.extend(waits)

    # -- the per-layer metrics ----------------------------------------------

    def metrics(self, wall_s: float, service=None) -> dict:
        """Every per-layer metric of one traced pass, by name."""
        inc, calls, cnt = self.inclusive, self.calls, self.counters

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        from repro.snapshot import store

        snap = store().stats
        lookups = snap.final_hits + snap.boundary_hits + snap.misses
        blocks = cnt["cores.block_hits"] + cnt["cores.block_misses"]
        values = {
            "kernel.render_s": inc["kernel.source"],
            "kernel.renders": cnt["kernel.renders"],
            "isa.assemble_s": inc["isa.assemble_cached"],
            "isa.assembles": calls["isa.assemble"],
            "isa.build_cache_hit_ratio": ratio(
                calls["isa.assemble_cached"] - calls["isa.assemble"],
                calls["isa.assemble_cached"]),
            "cores.build_s": inc["cores.build"],
            "cores.run_s": inc["cores.run"],
            "cores.instret": cnt["cores.instret"],
            "cores.instr_per_s": ratio(cnt["cores.instret"],
                                       inc["cores.run"]),
            "cores.block_hit_ratio": ratio(cnt["cores.block_hits"], blocks),
            "cores.slow_path_ratio": ratio(cnt["cores.slow_instret"],
                                           cnt["cores.instret"]),
            "snapshot.capture_s": inc["snapshot.capture"],
            "snapshot.captures": calls["snapshot.capture"],
            "snapshot.restore_s": inc["snapshot.restore"],
            "snapshot.final_hit_ratio": ratio(snap.final_hits, lookups),
            "harness.export_s": (inc["harness.run_dict"]
                                 + inc["harness.load_run"]
                                 + inc["harness.sweep_dict"]),
            "dse.cache_get_s": inc["dse.cache_get"],
            "dse.cache_put_s": inc["dse.cache_put"],
            "dse.cache_hit_ratio": ratio(cnt["dse.cache_hits"],
                                         calls["dse.cache_get"]),
            "dse.pool_s": inc["dse.parallel_map"],
            "dse.points_executed": cnt["dse.points_executed"],
            "service.coalesce_ratio": 0.0,
            "service.batch_fill": 0.0,
            "service.queue_wait_p95_ms": (
                1000.0 * statistics.quantiles(self.queue_waits, n=20)[-1]
                if len(self.queue_waits) >= 2 else 0.0),
            "service.run_batch_s": inc["service.run_batch"],
            "faults.golden_s": (inc["faults.run_campaign"]
                                - inc["faults.run_fault_task"]),
            "faults.replay_s": inc["faults.run_fault_task"],
            "faults.check_s": inc["faults.check"],
            "faults.replays": calls["faults.run_fault_task"],
            "faults.hang_time_share": ratio(cnt["faults.hang_s"],
                                            inc["faults.run_fault_task"]),
            "wcet.analyze_s": inc["wcet.analyze_config"],
            "analysis.verify_s": inc["analysis.verify_all"],
            "trace.coverage": ratio(self.root_s, wall_s),
            "trace.overhead_s": self.overhead_s,
        }
        if service is not None:
            stats = service.stats
            values["service.coalesce_ratio"] = ratio(stats.coalesced,
                                                     stats.submitted)
            values["service.batch_fill"] = ratio(
                stats.mean_batch_fill, service.batcher.policy.max_batch)
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                self.exclusive[name] for name, owner in self.layer_of.items()
                if owner == layer)
        return values


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return module, owner, attr


def _after_hooks(tracer: Tracer) -> dict:
    """Counters read at span boundaries: name -> (before, after)."""

    def render_before(args, kwargs):
        return args[0]._source is None  # KernelBuilder.source memoizes

    def render_after(rendered, args, kwargs, result, duration):
        if rendered:
            tracer.count("kernel.renders")

    def run_before(args, kwargs):
        return args[0].stats.instret

    def run_after(instret_before, args, kwargs, result, duration):
        counters = args[0].perf_counters()
        executed = counters["instret"] - instret_before
        tracer.count("cores.instret", executed)
        tracer.count("cores.slow_instret",
                     max(0, executed - counters["fast_instret"]))
        tracer.count("cores.block_hits", counters["block_hits"])
        tracer.count("cores.block_misses", counters["block_misses"])

    def get_after(_, args, kwargs, result, duration):
        if result is not None:
            tracer.count("dse.cache_hits")

    def map_before(args, kwargs):
        worker = args[0] if args else kwargs.get("worker")
        items = args[1] if len(args) > 1 else kwargs.get("items", ())
        if getattr(worker, "__name__", "") in ("execute_point",
                                               "execute_job"):
            return len(items)
        return 0

    def map_after(points, args, kwargs, result, duration):
        tracer.count("dse.points_executed", points)

    def task_after(_, args, kwargs, result, duration):
        if result.outcome == "hang":
            tracer.count("faults.hang_s", duration)

    return {
        "kernel.source": (render_before, render_after),
        "cores.run": (run_before, run_after),
        "dse.cache_get": (None, get_after),
        "dse.parallel_map": (map_before, map_after),
        "faults.run_fault_task": (None, task_after),
    }


def _wrap(tracer: Tracer, name: str, fn, hooks):
    before, after = hooks.get(name, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        entered = time.perf_counter()
        token = before(args, kwargs) if before is not None else None
        result, duration = tracer.span(name, fn, args, kwargs)
        if after is not None:
            after(token, args, kwargs, result, duration)
        tracer.add_overhead(time.perf_counter() - entered - duration)
        return result

    return wrapper


def _wrap_next_batch(tracer: Tracer, fn):
    """``Batcher.next_batch`` is a coroutine: record queue waits only.

    A span across ``await`` would interleave with other tasks' spans on
    the event-loop thread, so this entry point is counted, not spanned.
    """

    @functools.wraps(fn)
    async def wrapper(self):
        batch = await fn(self)
        now = self.clock()
        tracer.queue_wait([now - job.submitted_at for job in batch])
        return batch

    return wrapper


def install() -> Tracer:
    """Wrap every entry point in :data:`SPANS`; returns the live tracer."""
    tracer = Tracer()
    hooks = _after_hooks(tracer)
    # Load every target first, so each importer's binding exists to rebind.
    for _layer, _name, target in SPANS:
        _resolve(target)
    for _layer, name, target in SPANS:
        module, owner, attr = _resolve(target)
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, name, original, hooks)
        if owner is not module or original.__module__ != module.__name__:
            setattr(owner, attr, wrapper)  # a method, or one module's view
            continue
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and \
                    getattr(loaded, attr, None) is original:
                setattr(loaded, attr, wrapper)
    from repro.service.batch import Batcher

    Batcher.next_batch = _wrap_next_batch(tracer, Batcher.next_batch)
    return tracer
