"""The read-path fast lane: compacted-index loading and the process-wide
shared index cache.

Opening a PLFS file for reading requires the *global index* — the merge of
every per-writer index dropping.  Paying that merge on every open is the
worst-case log-structured tax the paper's benchmarks (unixtools, BT read
phases) hit hardest, because those workloads re-open and re-stat the same
container over and over.  This module removes the tax twice over:

1. **Persistent compacted global index** — on clean close (and via
   ``repro-plfs compact``) the merged index is flattened into a single
   ``global.index`` file in the container root.  :func:`load_index` loads
   it back with one read + one NumPy parse instead of re-merging N
   droppings.  The file carries the *container epoch* it was built at
   (:meth:`~repro.plfs.container.Container.index_epoch`); a mismatch —
   any dropping added, appended or repaired since — silently re-routes to
   the slow merge path.  The compacted index is a cache, never an
   authority: ``repro-fsck`` deletes it rather than trusting it.

2. **Shared index cache** — a process-wide, capacity-bounded LRU keyed by
   container path, revalidated by epoch on every hit, so repeated opens
   and ``stat`` calls against an unchanged container reuse one
   :class:`~repro.plfs.index.GlobalIndex` instead of rebuilding identical
   ones.  The write path invalidates explicitly (cheap generation bump)
   whenever it flushes records to disk, which lets same-process read
   handles notice cross-handle flushes without any syscalls.

Thread-safety: all cache state is guarded by one lock; index construction
runs outside it (two racing builders do redundant work, never corrupt).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

from . import backing, constants
from .container import Container
from .errors import CorruptIndexError
from .index import (
    GlobalIndex,
    index_from_compacted,
    load_global_index,
    pack_compacted,
    parse_compacted,
)


@dataclass
class LoadedIndex:
    """One global index plus the context it was built in."""

    index: GlobalIndex
    #: ``data_paths[i]`` is the file to pread for slices with dropping == i
    data_paths: list[str]
    #: container epoch the index reflects
    epoch: str
    #: "compacted" (loaded from ``global.index``) or "merged" (slow path)
    source: str


def load_index(container: Container, *, epoch: str | None = None) -> LoadedIndex:
    """Build the container's global index, preferring the compacted file.

    The compacted ``global.index`` is used only when it parses *and* its
    recorded epoch matches the container's current one (which pins the
    dropping list its ids index into); any staleness or corruption falls
    back to merging the per-writer index droppings — the compacted file
    is an accelerator, never a source of truth.
    """
    droppings = container.droppings()
    if epoch is None:
        epoch = container.index_epoch(droppings)
    gpath = container.global_index_path()
    try:
        with open(gpath, "rb") as fh:
            raw = fh.read()
    except OSError:
        raw = None
    if raw is not None:
        try:
            records, count, file_epoch, _size = parse_compacted(raw, source=gpath)
        except CorruptIndexError:
            pass
        else:
            if file_epoch == epoch and count == len(droppings):
                index = index_from_compacted(records)
                data_paths = [data for _, data in droppings]
                return LoadedIndex(index, data_paths, epoch, "compacted")
    index, data_paths = load_global_index(droppings)
    return LoadedIndex(index, data_paths, epoch, "merged")


def compact(container: Container) -> int:
    """Flatten the container's global index into ``global.index``.

    Returns the number of flattened segments persisted.  The write flows
    through the backing store (it is a persistence boundary the fault
    injector can tear) and replaces atomically, so a crash mid-compaction
    never leaves a reader-visible half-written file.
    """
    loaded = load_index(container)
    segments = loaded.index.segments()
    payload = pack_compacted(
        segments, len(loaded.data_paths), loaded.epoch, loaded.index.logical_size
    )
    backing.current().write_global_index(container.global_index_path(), payload)
    _shared.count("compactions")
    return len(segments)


def compact_quietly(container: Container) -> None:
    """Compact where the caller must not fail on it (a close, a rewrite):
    compaction is an accelerator, so a failure only leaves readers on the
    merge path — and is counted as ``compaction_failures``, not dropped."""
    try:
        compact(container)
    except OSError:
        _shared.count("compaction_failures")


# ---------------------------------------------------------------------- #
# the process-wide shared cache
# ---------------------------------------------------------------------- #


@dataclass
class _Entry:
    loaded: LoadedIndex
    generation: int


class IndexCache:
    """Epoch-validated LRU of global indexes, shared process-wide.

    ``get`` revalidates the cached epoch against the container on every
    call (two stats per dropping), so cross-process changes are always
    seen.  Same-process writers additionally bump a per-path *generation*
    counter via :meth:`invalidate` whenever they flush records; read
    handles remember the generation their index was built at and compare
    it (one dict lookup, no syscalls) before trusting a cached plan.
    """

    #: plfs-san registration (see repro.sanitize): field -> guarding lock
    _SANITIZE_SHARED = {"_entries": "_lock", "_generations": "_lock"}

    def __init__(self, capacity: int = constants.INDEX_CACHE_CAPACITY):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._generations: dict[str, int] = {}
        self.stats = {
            "hits": 0,
            "misses": 0,
            "stale_epoch_evictions": 0,
            "invalidations": 0,
            "compacted_loads": 0,
            "merged_builds": 0,
            #: global.index files written, and failed writes swallowed by
            #: compact_quietly
            "compactions": 0,
            "compaction_failures": 0,
        }

    # -------------------------------------------------------------- #

    def generation(self, path: str) -> int:
        """Current invalidation generation for *path* (0 if never bumped)."""
        with self._lock:
            return self._generations.get(path, 0)

    def invalidate(self, path: str) -> None:
        """Explicit write-path invalidation: drop the entry and bump the
        generation so read handles holding the old index rebuild."""
        path = os.path.abspath(path)
        with self._lock:
            self._entries.pop(path, None)
            self._generations[path] = self._generations.get(path, 0) + 1
            self.stats["invalidations"] += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._generations.clear()

    def count(self, key: str) -> None:
        with self._lock:
            self.stats[key] += 1

    def reset_stats(self) -> None:
        for key in self.stats:
            self.stats[key] = 0

    # -------------------------------------------------------------- #

    def get(
        self, container: Container, *, refresh: bool = False
    ) -> tuple[LoadedIndex, int]:
        """The container's global index plus the generation it is valid at.

        Serves from cache when the stored epoch still matches the
        container's current state; otherwise (or with *refresh*) rebuilds
        via :func:`load_index` and caches the result.
        """
        path = container.path
        epoch = container.index_epoch()
        with self._lock:
            entry = self._entries.get(path)
            if entry is not None and not refresh:
                if entry.loaded.epoch == epoch:
                    self._entries.move_to_end(path)
                    self.stats["hits"] += 1
                    return entry.loaded, entry.generation
                self._entries.pop(path, None)
                self.stats["stale_epoch_evictions"] += 1
            elif entry is not None:
                self._entries.pop(path, None)
        loaded = load_index(container, epoch=epoch)
        with self._lock:
            self.stats["misses"] += 1
            self.stats[
                "compacted_loads" if loaded.source == "compacted" else "merged_builds"
            ] += 1
            generation = self._generations.get(path, 0)
            self._entries[path] = _Entry(loaded, generation)
            self._entries.move_to_end(path)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return loaded, generation


_shared = IndexCache()


def shared_cache() -> IndexCache:
    """The process-wide cache instance."""
    return _shared


def invalidate(path: str) -> None:
    """Convenience: invalidate *path* in the shared cache."""
    _shared.invalidate(path)


def invalidate_cross_process(container: Container) -> None:
    """Write-path invalidation visible to *every* process.

    The in-process generation bump covers read handles sharing this
    cache; the container's generation file covers readers in other
    processes, which detect the fresh ``(inode, mtime_ns)`` token with a
    single ``stat`` in their revalidation path.
    """
    _shared.invalidate(container.path)
    container.bump_generation()
