"""Warm-start engine: result memo + system snapshot/restore (docs/SNAPSHOT.md).

Three layers:

* :mod:`repro.snapshot.pages` — copy-on-write memory images. A capture
  splits RAM into immutable pages and re-uses the page objects of the
  previous image wherever the content is unchanged, so N snapshots of
  one system (and N systems restored from one snapshot) share clean
  pages and only dirty pages are duplicated.
* :mod:`repro.snapshot.state` — :class:`SystemSnapshot`, the
  checkpoint of one :class:`repro.cores.system.System`: core
  architectural state, register banks, RTOSUnit/scheduler state,
  pending transfers and interrupt sources, plus the memory image.
  ``materialize()`` rebuilds a byte-identical live system.
* :mod:`repro.snapshot.cache` — the process-local store keyed on
  (core, config, kernel source, layout, runtime parameters), holding
  the finished run's result memo per key, plus the ``REPRO_SNAPSHOT``
  gate; :func:`repro.harness.run_workload` consults it.

Capture/restore serves checkpointing and mid-run inspection; it is not
on the :func:`run_workload` path. The kernel *build* cache (compact
images memoized per source digest) lives with the builder in
:mod:`repro.kernel.builder`.
"""

from repro.snapshot.cache import (
    SnapshotEntry,
    SnapshotStats,
    SnapshotStore,
    reset_store,
    snapshot_enabled,
    snapshot_key,
    store,
)
from repro.snapshot.pages import PAGE_SIZE, MemoryImage, capture_image, restore_image
from repro.snapshot.state import SystemSnapshot

__all__ = [
    "MemoryImage",
    "PAGE_SIZE",
    "SnapshotEntry",
    "SnapshotStats",
    "SnapshotStore",
    "SystemSnapshot",
    "capture_image",
    "reset_store",
    "restore_image",
    "snapshot_enabled",
    "snapshot_key",
    "store",
]
