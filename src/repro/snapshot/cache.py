"""Process-local result memo and the ``REPRO_SNAPSHOT`` gate.

One :class:`SnapshotEntry` per content key — derived from everything
that determines a run byte-for-byte: core, configuration name, memory
layout, the rendered kernel source (which bakes in the workload's task
bodies and iteration counts), tick period and the runtime parameters of
the workload. The entry's ``final`` slot memoises the finished
:class:`repro.harness.experiment.RunResult` of that key: a repeat of
an identical run — or a seed-only variant, since the seed never reaches
the simulation — is answered from the memo without building or
simulating anything.

The memo is held as a pickle, so every hit unpickles a private copy
(two results never share a mutable list) and an entry costs a few KiB.
The store is process-local (each DSE pool worker and service worker
keeps its own), bounded by an LRU, and bypassed entirely when
``REPRO_SNAPSHOT=0`` or when a guard/tracer/fault-injector forces the
exact path — see docs/SNAPSHOT.md for the bypass matrix.
System capture/restore (:mod:`repro.snapshot.state`) is independent of
the memo.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass

from repro.chaos.hooks import fire as _chaos_fire
from repro.chaos.model import mangle_blob
from repro.util import LRUCache

#: Memo entries kept per process. A memo is a few KiB, so the bound
#: covers the whole 180-point Fig. 9 grid with room to spare; it is a
#: memory safety net for long service runs.
STORE_CAPACITY = 256


def snapshot_enabled() -> bool:
    """Warm-start is on unless ``REPRO_SNAPSHOT`` disables it."""
    value = os.environ.get("REPRO_SNAPSHOT", "1").strip().lower()
    return value not in ("0", "false", "off", "no")


def snapshot_key(core: str, config, layout, workload, source: str) -> tuple:
    """Content key of one (core, config, workload) run.

    ``source`` is the rendered kernel assembly — it already encodes the
    task bodies, iteration counts, semaphores/queues and data layout, so
    two workloads that assemble identically share warm state; the key
    holds its sha256, not the 16–35 KB text. Runtime parameters that
    never reach the source (tick period, external events, warmup
    discard, cycle budget) are keyed explicitly, and so is the kernel
    fingerprint (personality identity + templates,
    :func:`repro.personalities.kernel_fingerprint`) — the same
    dimension the DSE result cache keys on, so warm state can never be
    shared across kernel designs.
    """
    from repro.personalities import kernel_fingerprint

    return (
        core,
        config.name,
        kernel_fingerprint(config),
        layout,
        workload.name,
        workload.tick_period,
        workload.warmup_switches,
        workload.max_cycles,
        tuple(workload.external_events),
        hashlib.sha256(source.encode()).hexdigest(),
    )


def snapshot_verify_default() -> bool:
    """Digest-verified storage is opt-in via ``REPRO_SNAPSHOT_VERIFY``.

    Verified mode stores each memo's pickle with a digest and re-checks
    it on every read — protection against in-memory corruption for the
    price of one sha256 per hit. The chaos campaign and hardening tests
    turn it on.
    """
    value = os.environ.get("REPRO_SNAPSHOT_VERIFY", "0").strip().lower()
    return value not in ("0", "false", "off", "no", "")


class SnapshotEntry:
    """Result memo of one content key.

    ``final`` is a property over a pickle: reading it unpickles a fresh
    :class:`RunResult` (or ``None``), so callers may mutate what they
    get. In verified mode the pickle is stored with its digest, every
    read is digest-checked, and a corrupt memo is *evicted* (slot reset
    to ``None``, ``corrupt_evictions`` counted) so the caller falls back
    to the cold path instead of returning damaged results.
    """

    __slots__ = ("_blob", "_digest", "verify", "stats")

    def __init__(self, verify: bool = False, stats=None):
        self._blob: bytes | None = None
        self._digest: str | None = None
        self.verify = verify
        self.stats = stats

    @property
    def final(self):
        blob = self._blob
        if blob is None:
            return None
        if not self.verify:
            return pickle.loads(blob)
        spec = _chaos_fire("snapshot.read")
        if spec is not None:
            blob = mangle_blob(blob, spec.kind)
        if hashlib.sha256(blob).hexdigest() == self._digest:
            try:
                return pickle.loads(blob)
            except Exception:  # noqa: BLE001 - any unpickle failure evicts
                pass
        self._blob = self._digest = None
        if self.stats is not None:
            self.stats.corrupt_evictions += 1
        return None

    @final.setter
    def final(self, result) -> None:
        self._blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        self._digest = (hashlib.sha256(self._blob).hexdigest()
                        if self.verify else None)


@dataclass
class SnapshotStats:
    """Warm-start accounting (``python -m repro snapshot`` reports it)."""

    final_hits: int = 0
    misses: int = 0
    bypasses: int = 0
    final_stores: int = 0
    corrupt_evictions: int = 0  # verified-mode digest/unpickle failures

    #: There is no mid-run resume tier; kept readable for reports that
    #: sum hits across tiers.
    boundary_hits = 0

    @property
    def hit_rate(self) -> float:
        total = self.final_hits + self.misses
        return self.final_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "final_hits": self.final_hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "final_stores": self.final_stores,
            "corrupt_evictions": self.corrupt_evictions,
            "hit_rate": self.hit_rate,
        }


class SnapshotStore:
    """LRU-bounded key → :class:`SnapshotEntry` map with accounting.

    ``verify`` (default from :func:`snapshot_verify_default`) makes new
    entries digest-check their pickles; flipping it affects entries
    created afterwards.
    """

    def __init__(self, capacity: int = STORE_CAPACITY,
                 verify: bool | None = None):
        self._entries: LRUCache = LRUCache(capacity)
        self.stats = SnapshotStats()
        self.verify = (snapshot_verify_default() if verify is None
                       else verify)

    def entry(self, key: tuple) -> SnapshotEntry:
        """The entry for *key*, created empty on first sight."""
        entry = self._entries.get(key)
        if entry is None:
            entry = SnapshotEntry(verify=self.verify, stats=self.stats)
            self._entries[key] = entry
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.stats = SnapshotStats()


#: The process-wide store used by :func:`repro.harness.run_workload`.
_STORE = SnapshotStore()


def store() -> SnapshotStore:
    return _STORE


def reset_store() -> None:
    """Drop all memos (tests and benchmarks isolate through this).

    Also re-reads ``REPRO_SNAPSHOT_VERIFY`` so a test that flips the
    environment gets the matching storage mode for entries created
    after the reset.
    """
    _STORE.clear()
    _STORE.verify = snapshot_verify_default()
