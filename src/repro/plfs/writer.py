"""The PLFS write path: log-structured data droppings.

A :class:`WriteFile` owns one (data, index) dropping pair per writing pid.
Every ``write(buf, offset)`` appends the payload to the data dropping —
strictly sequentially, regardless of the logical offset, which is the
log-structuring that converts random application writes into sequential disk
writes — and buffers one index record.  Records are flushed to the index
dropping on ``sync``/``close``.

The write fast lane (mirroring the read-path work in
:mod:`repro.plfs.cache`):

- **zero-copy appends** — payload buffers (including ``memoryview`` views)
  are threaded straight through :meth:`~repro.plfs.backing.BackingStore`
  without an intermediate ``bytes`` copy, and :meth:`WriteFile.append_many`
  lands a whole iovec as one vectored data append plus one (possibly
  merged) index record;
- **group-commit WAL** — with ``wal_batch > 1`` write-ahead records are
  buffered and flushed as one ``write_wal`` batch per data-append window.
  The recovery invariant weakens from *every record precedes its data* to
  *every data byte is covered by a WAL record before or within the same
  batch boundary*: a crash inside a batch window can strand up to
  ``wal_batch - 1`` appends' bytes past the WAL coverage, which
  ``repro-fsck`` trims and reports (``sync`` is a hard barrier — it flushes
  the batch).  ``wal_batch == 1`` (the default) reproduces the strict
  per-append ordering exactly;
- **adaptive index flush** — the in-memory record buffer's flush threshold
  scales with the observed record-merge rate, so BT-style sequential
  small-write streams (whose records collapse into few merged runs) flush
  less often;
- **cross-process invalidation** — every flush/sync/close bumps the
  container's generation file as well as the in-process shared index
  cache, so readers in *other* processes revalidate too.

:class:`OpenWriterRegistry` tracks every live write handle of this process
per container: the openhost marker is refcounted across a process's
handles, and the api compacts once per container, on the last close.
"""

from __future__ import annotations

import os
import threading
import weakref

import numpy as np

from . import backing, util
from .cache import invalidate_cross_process as _invalidate_cross_process
from .container import Container
from .errors import BadFlagsError
from .index import INDEX_DTYPE

#: Flush buffered index records to disk after this many accumulate, bounding
#: memory for very write-heavy workloads.  This is the *base* threshold; see
#: :meth:`_Dropping.effective_flush_threshold` for the adaptive scaling.
INDEX_FLUSH_THRESHOLD = 4096

#: Cap on one merged index record's ``length``.  ``INDEX_DTYPE`` stores the
#: length as an unsigned 64-bit field; an uncapped sequential run merged for
#: long enough would silently wrap it.  1 TiB per record keeps merged
#: extents far from the field width while still collapsing any realistic
#: sequential stream into a handful of records.
MERGE_LENGTH_CAP = 1 << 40

#: Appends observed before the adaptive flush threshold starts scaling
#: (below this the merge-rate estimate is noise).
ADAPTIVE_FLUSH_MIN_SAMPLE = 64

#: Maximum factor the adaptive threshold scales the base by (reached as the
#: merge rate approaches 1.0 — a perfectly sequential stream).
ADAPTIVE_FLUSH_SCALE_MAX = 4.0

# Buffered records are plain Python rows — packed into a structured array
# in bulk at flush time, so the per-append hot path allocates no NumPy
# objects.  Column order of one row:
_LOGICAL, _PHYSICAL, _LENGTH, _PID, _TS = range(5)


def _rows_to_records(rows: list[list]) -> np.ndarray:
    """Bulk-pack buffered rows into an :data:`INDEX_DTYPE` array."""
    records = np.zeros(len(rows), dtype=INDEX_DTYPE)
    if rows:
        cols = list(zip(*rows))
        records["logical_offset"] = cols[_LOGICAL]
        records["physical_offset"] = cols[_PHYSICAL]
        records["length"] = cols[_LENGTH]
        records["pid"] = cols[_PID]
        records["timestamp"] = cols[_TS]
    return records


class _Dropping:
    """One open (data, index) dropping pair for a single pid.

    With *wal* enabled, every append buffers its index record for a
    sibling write-ahead dropping; the buffer is flushed as one batch per
    *wal_batch* appends, **before** the batch-closing data append touches
    the data dropping, so a crash at any instruction leaves enough on disk
    for ``repro-fsck`` to rebuild the index clipped to the bytes that
    physically arrived — up to the batch boundary (bytes appended inside
    an unflushed batch window are trimmed and reported).  The WAL is
    deleted on clean close, when the flushed index dropping becomes
    authoritative.
    """

    __slots__ = (
        "data_path",
        "index_path",
        "wal_path",
        "data_fd",
        "wal_fd",
        "wal_batch",
        "wal_rows",
        "physical_offset",
        "pending",
        "records_appended",
        "records_flushed",
        "records_merged",
        "index_flushes",
        "wal_records_written",
        "wal_batches",
        "adaptive_threshold",
        "merge_records",
        "_closed",
    )

    def __init__(
        self,
        hostdir: str,
        host: str,
        pid: int,
        *,
        merge_records: bool = True,
        wal: bool = False,
        wal_batch: int = 1,
    ):
        ts = util.unique_timestamp()
        self.data_path = os.path.join(hostdir, util.data_dropping_name(host, pid, ts))
        self.index_path = os.path.join(hostdir, util.index_dropping_name(host, pid, ts))
        self.wal_path = (
            os.path.join(hostdir, util.wal_dropping_name(host, pid, ts)) if wal else None
        )
        self.data_fd = os.open(
            self.data_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self.wal_fd = -1
        try:
            if wal:
                self.wal_fd = os.open(
                    self.wal_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
            # Touch the index dropping immediately so readers pair it with
            # the data dropping even before the first sync.  Routed through
            # the backing store: creating the empty sibling is a
            # persistence boundary a full backend can fail.
            backing.current().create_meta(self.index_path)
        except OSError:
            # Error-path hygiene: never leave a data dropping behind with
            # no sibling index (an orphan the next reader must skip), a
            # stranded write-ahead dropping, nor a leaked descriptor.
            for fd in (self.data_fd, self.wal_fd):
                if fd >= 0:
                    try:
                        os.close(fd)
                    except OSError:
                        pass
            self.data_fd = self.wal_fd = -1
            for p in (self.data_path, self.index_path, self.wal_path):
                if p is None:
                    continue
                try:
                    os.unlink(p)
                except OSError:
                    pass
            raise
        self.wal_batch = max(1, int(wal_batch))
        self.wal_rows: list[list] = []
        self.physical_offset = 0
        self.pending: list[list] = []
        self.records_appended = 0
        self.records_flushed = 0
        self.records_merged = 0
        self.index_flushes = 0
        self.wal_records_written = 0
        self.wal_batches = 0
        self.adaptive_threshold = 0
        self.merge_records = merge_records
        self._closed = False

    def _try_merge(self, logical_offset: int, length: int, pid: int) -> bool:
        """Index compression: a write that continues the previous one both
        logically and physically extends the last pending record instead
        of adding a new one — the optimisation the C library applies to
        keep sequential workloads from growing the index per call.

        The merged record takes the *latest* timestamp.  That is only
        sound when no other stream wrote in between (otherwise the whole
        merged run would shadow an interleaved overwrite); the WriteFile
        enforces that by allowing merges only for back-to-back writes to
        the same dropping.  Merged lengths are capped at
        :data:`MERGE_LENGTH_CAP` so a long sequential run can never
        overflow the record's length field.
        """
        if not self.merge_records or not self.pending:
            return False
        last = self.pending[-1]
        if (
            last[_PID] == pid
            and last[_LOGICAL] + last[_LENGTH] == logical_offset
            and last[_PHYSICAL] + last[_LENGTH] == self.physical_offset
            and last[_LENGTH] + length <= MERGE_LENGTH_CAP
        ):
            last[_LENGTH] += length
            last[_TS] = util.unique_timestamp()
            self.records_merged += 1
            return True
        return False

    # ------------------------------------------------------------------ #
    # the append hot path
    # ------------------------------------------------------------------ #

    def _promise(self, logical_offset: int, length: int, pid: int) -> None:
        """Buffer one write-ahead record and flush the batch when full —
        *before* the data append, preserving the batch-boundary coverage
        invariant (at ``wal_batch == 1`` this is the strict per-append
        write-ahead ordering)."""
        self.wal_rows.append(
            [logical_offset, self.physical_offset, length, pid, util.unique_timestamp()]
        )
        if len(self.wal_rows) >= self.wal_batch:
            self.flush_wal()

    def _record(self, logical_offset: int, written: int, pid: int) -> None:
        self.records_appended += 1
        if not self._try_merge(logical_offset, written, pid):
            self.pending.append(
                [
                    logical_offset,
                    self.physical_offset,
                    written,
                    pid,
                    util.unique_timestamp(),
                ]
            )
        self.physical_offset += written

    def append(self, buf, logical_offset: int, pid: int) -> int:
        store = backing.current()
        if self.wal_fd >= 0:
            # The WAL record promises the full length; a torn or short data
            # write is reconciled at recovery time by clipping the record
            # to the bytes the data dropping actually holds.
            self._promise(logical_offset, len(buf), pid)
        written = store.write_data(self.data_fd, buf, self.data_path)
        self._record(logical_offset, written, pid)
        return written

    def append_many(self, bufs: list, logical_offset: int, pid: int) -> int:
        """Vectored append: the whole iovec lands as one data append (one
        ``writev``), one WAL promise, and one — possibly merged — index
        record covering the contiguous logical span."""
        store = backing.current()
        total = sum(len(b) for b in bufs)
        if self.wal_fd >= 0:
            self._promise(logical_offset, total, pid)
        written = store.write_datav(self.data_fd, bufs, self.data_path)
        self._record(logical_offset, written, pid)
        return written

    # ------------------------------------------------------------------ #
    # flushing
    # ------------------------------------------------------------------ #

    def flush_wal(self) -> None:
        """Persist the buffered write-ahead records as one batch.

        On failure the rows are *kept*: earlier rows in the batch may
        already cover data that physically landed, and the WAL must stay a
        superset of whatever the index dropping will claim.  A retried row
        whose data never landed is zero-clipped at recovery time.
        """
        if not self.wal_rows:
            return
        payload = _rows_to_records(self.wal_rows).tobytes()
        backing.current().write_wal(self.wal_fd, payload, self.wal_path)
        self.wal_records_written += len(self.wal_rows)
        self.wal_batches += 1
        self.wal_rows.clear()

    def effective_flush_threshold(self) -> int:
        """The adaptive in-memory flush threshold.

        Starts at :data:`INDEX_FLUSH_THRESHOLD` and scales up with the
        observed merge rate (up to :data:`ADAPTIVE_FLUSH_SCALE_MAX`×): a
        stream whose records mostly merge grows ``pending`` slowly and
        cheaply, so flushing it eagerly only fragments the on-disk index.
        Random-offset streams (merge rate ~0) keep the base bound.
        """
        base = INDEX_FLUSH_THRESHOLD
        if self.records_appended < ADAPTIVE_FLUSH_MIN_SAMPLE:
            return base
        ratio = self.records_merged / self.records_appended
        scaled = int(base * (1.0 + (ADAPTIVE_FLUSH_SCALE_MAX - 1.0) * ratio))
        self.adaptive_threshold = scaled
        return scaled

    def pending_records(self) -> np.ndarray:
        return _rows_to_records(self.pending)

    def flush_index(self) -> None:
        # The WAL must remain a superset of the flushed index (fsck
        # rebuilds the index wholly from it), so an open batch is flushed
        # first.
        if self.wal_fd >= 0 and self.wal_rows:
            self.flush_wal()
        if not self.pending:
            return
        records = self.pending_records()
        backing.current().append_index(self.index_path, records.tobytes())
        self.records_flushed += records.shape[0]
        self.index_flushes += 1
        self.pending.clear()

    def sync(self) -> None:
        self.flush_index()
        backing.current().fsync(self.data_fd)

    def close(self) -> None:
        """Flush and release.  Idempotent and exception-safe: descriptors
        are released even when the final flush fails, and the WAL is
        deleted only on a *clean* flush (a failed flush leaves it as the
        recovery source ``repro-fsck`` needs)."""
        if self._closed:
            return
        self._closed = True
        flush_exc: BaseException | None = None
        try:
            self.flush_index()
        except BaseException as exc:  # noqa: B036 - InjectedCrash must pass through
            flush_exc = exc
        close_exc: OSError | None = None
        for attr in ("data_fd", "wal_fd"):
            fd = getattr(self, attr)
            setattr(self, attr, -1)
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError as exc:
                    if close_exc is None:
                        close_exc = exc
        if flush_exc is None and self.wal_path is not None:
            # Clean close: the flushed index dropping is now authoritative;
            # the write-ahead copy of the records is redundant.  This holds
            # even when a descriptor close failed above — the flush itself
            # succeeded.
            try:
                os.unlink(self.wal_path)
            except OSError:
                pass
        if flush_exc is not None:
            raise flush_exc
        if close_exc is not None:
            raise close_exc

    def abandon(self) -> None:
        """Release OS resources as a crashed process would: no index
        flush, no WAL cleanup, buffered records dropped on the floor."""
        self._closed = True
        self.pending.clear()
        self.wal_rows.clear()
        for attr in ("data_fd", "wal_fd"):
            fd = getattr(self, attr)
            setattr(self, attr, -1)
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass


class WriteFile:
    """Write handle on a container, multiplexing per-pid droppings.

    Matches PLFS semantics: each pid that writes through the handle gets its
    own dropping pair, giving every process a private file stream (the file
    partitioning that removes shared-file lock contention).
    """

    #: plfs-san registration (see repro.sanitize).  No lock on purpose:
    #: a handle's droppings are serialized per handle (one writer, or the
    #: daemon's per-container writer lock); the detector attributes that
    #: happens-before to the plfs-handle virtual lock the api layer pushes
    _SANITIZE_SHARED = {"_droppings": None}

    def __init__(
        self,
        container: Container,
        *,
        host: str | None = None,
        merge_records: bool = True,
        wal: bool = False,
        wal_batch: int = 1,
    ):
        self.container = container
        self.host = host or util.hostname()
        self.hostdir = container.ensure_hostdir(self.host)
        self._droppings: dict[int, _Dropping] = {}
        self._max_logical_end = 0
        self._total_written = 0
        self._closed = False
        self._merge_records = merge_records
        #: write-ahead index: persist each record before its data append so
        #: a crash never strands unindexed data (see repro.faults.fsck)
        self.wal = wal
        #: group-commit window: WAL records per write_wal batch (1 = strict
        #: per-append ordering; >1 trades intra-batch crash coverage for
        #: one WAL syscall per window)
        self.wal_batch = max(1, int(wal_batch))
        self._last_dropping: _Dropping | None = None
        #: droppings sealed by a truncate; kept for the stats only
        self._retired: list[_Dropping] = []
        self._appends = 0
        self._vectored_appends = 0
        self._vectored_buffers = 0
        self._zero_copy_appends = 0
        self._threshold_flushes = 0
        self._generation_bumps = 0

    # ------------------------------------------------------------------ #

    def _dropping_for(self, pid: int) -> _Dropping:
        d = self._droppings.get(pid)
        if d is None:
            d = _Dropping(
                self.hostdir, self.host, pid, wal=self.wal, wal_batch=self.wal_batch
            )
            self._droppings[pid] = d
        return d

    def _invalidate(self) -> None:
        """Records just became visible on disk: readers holding a cached
        index — in this process or any other — must rebuild to see them."""
        self._generation_bumps += 1
        _invalidate_cross_process(self.container)

    def _prepare(self, pid: int) -> _Dropping:
        if self._closed:
            raise BadFlagsError("write on closed WriteFile")
        dropping = self._dropping_for(pid)
        # Record merging is only sound for back-to-back writes of the same
        # stream: an intervening write from another pid must keep its own
        # timestamp ordering against ours.
        dropping.merge_records = self._merge_records and dropping is self._last_dropping
        self._last_dropping = dropping
        return dropping

    def _account(self, dropping: _Dropping, offset: int, written: int) -> None:
        end = offset + written
        if end > self._max_logical_end:
            self._max_logical_end = end
        self._total_written += written
        if len(dropping.pending) >= dropping.effective_flush_threshold():
            dropping.flush_index()
            self._threshold_flushes += 1
            self._invalidate()

    def write(self, buf, offset: int, pid: int) -> int:
        """Append *buf* for logical [offset, offset+len(buf)).  Returns the
        byte count written (always the full buffer for regular files).

        *buf* may be any bytes-like object; ``memoryview`` payloads are
        threaded through to the backing store without copying.
        """
        dropping = self._prepare(pid)
        self._appends += 1
        if isinstance(buf, memoryview):
            self._zero_copy_appends += 1
        written = dropping.append(buf, offset, pid)
        self._account(dropping, offset, written)
        return written

    def append_many(self, bufs: list, offset: int, pid: int) -> int:
        """Vectored write: the buffers cover one contiguous logical span
        starting at *offset* and land as a single data append plus one
        (possibly merged) index record — the ``writev``/``pwritev`` fast
        path.  Returns total bytes written."""
        dropping = self._prepare(pid)
        total = sum(len(b) for b in bufs)
        if total == 0:
            return 0
        self._appends += 1
        self._vectored_appends += 1
        self._vectored_buffers += len(bufs)
        written = dropping.append_many(bufs, offset, pid)
        self._account(dropping, offset, written)
        return written

    # ------------------------------------------------------------------ #
    # visibility for readers on the same handle / process
    # ------------------------------------------------------------------ #

    def pending_records(self) -> list[tuple[np.ndarray, str]]:
        """Unflushed index records per data dropping path, so a reader in
        the same process can see writes that have not been synced yet."""
        out: list[tuple[np.ndarray, str]] = []
        for d in self._droppings.values():
            recs = d.pending_records()
            if recs.size:
                out.append((recs, d.data_path))
        return out

    @property
    def max_logical_end(self) -> int:
        return self._max_logical_end

    @property
    def total_written(self) -> int:
        return self._total_written

    @property
    def dropping_count(self) -> int:
        return len(self._droppings)

    @property
    def stats(self) -> dict[str, int]:
        """Write-path counters (surfaced into repro.insights profiles)."""
        out = {
            "appends": self._appends,
            "vectored_appends": self._vectored_appends,
            "vectored_buffers": self._vectored_buffers,
            "zero_copy_appends": self._zero_copy_appends,
            "bytes_appended": self._total_written,
            "threshold_flushes": self._threshold_flushes,
            "generation_bumps": self._generation_bumps,
            "records_merged": 0,
            "records_flushed": 0,
            "index_flushes": 0,
            "wal_records": 0,
            "wal_batches": 0,
            "adaptive_threshold": INDEX_FLUSH_THRESHOLD,
        }
        for d in [*self._retired, *self._droppings.values()]:
            out["records_merged"] += d.records_merged
            out["records_flushed"] += d.records_flushed
            out["index_flushes"] += d.index_flushes
            out["wal_records"] += d.wal_records_written
            out["wal_batches"] += d.wal_batches
            if d.adaptive_threshold > out["adaptive_threshold"]:
                out["adaptive_threshold"] = d.adaptive_threshold
        return out

    # ------------------------------------------------------------------ #

    def sync(self) -> None:
        """Flush buffered records (a hard barrier for any open WAL batch)
        and fsync the data droppings."""
        for d in self._droppings.values():
            d.sync()
        self._invalidate()

    def flush_indexes(self) -> None:
        flushed = any(d.pending for d in self._droppings.values())
        for d in self._droppings.values():
            d.flush_index()
        if flushed:
            self._invalidate()

    def close(self) -> None:
        """Flush and tear down every dropping.  Idempotent; a descriptor
        failure on one dropping never strands the others open."""
        if self._closed:
            return
        self._closed = True
        self._seal_all(list(self._droppings.values()))

    def seal(self) -> None:
        """Flush and close every open dropping but keep the handle open.

        ``plfs_trunc`` rewrites the container's droppings underneath every
        live handle: the records this handle buffered must reach disk
        before the rewrite reads them, and later writes must land in fresh
        droppings (opened lazily, as after construction) instead of files
        the rewrite deleted.  Call :meth:`truncated` once the rewrite is
        done.
        """
        droppings = list(self._droppings.values())
        self._retired.extend(droppings)
        self._droppings = {}
        self._last_dropping = None
        self._seal_all(droppings)

    def truncated(self, size: int) -> None:
        """Resume after the file was truncated to *size*: cap the
        high-water mark and recreate the hostdir the rewrite may have
        removed."""
        self._max_logical_end = min(self._max_logical_end, size)
        self.container.ensure_hostdir(self.host)

    def _seal_all(self, droppings: list[_Dropping]) -> None:
        first: OSError | None = None
        for i, d in enumerate(droppings):
            try:
                d.close()
            except OSError as exc:
                if first is None:
                    first = exc
            except BaseException:
                # An injected crash mid-close: release the remaining
                # descriptors the way the kernel would on process death,
                # flushing nothing, and let the "kill" propagate.
                for rest in droppings[i + 1 :]:
                    rest.abandon()
                raise
        self._invalidate()
        if first is not None:
            raise first

    def abandon(self) -> None:
        """Tear down as if the writing process died (SIGKILL semantics):
        descriptors are released but nothing buffered is flushed and no
        metadata is recorded.  Used by the fault-injection harness to
        model process kill between a data append and the index flush."""
        if self._closed:
            return
        for d in self._droppings.values():
            d.abandon()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WriteFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        # Last-resort fd hygiene only: an abandoned handle must not leak
        # descriptors, but GC must never flush records the caller chose
        # not to persist (close() is the explicit persistence point).
        try:
            self.abandon()
        except BaseException:
            pass


class OpenWriterRegistry:
    """The live write handles of this process, per container.

    A process's handles on one container share a single ``{host}.{pid}``
    openhost marker, so the marker is refcounted here: it is written when
    the first handle for a pid arrives and unlinked when the last one
    leaves.  The registry also answers what the on-disk marker cannot —
    the high-water mark of every sibling handle's unflushed writes, and
    whether a close is the container's last one in this process (the
    moment the api compacts the merged index).

    Handles are held weakly: one the application dropped without closing
    is garbage collected (``WriteFile.__del__`` abandons it) and leaves
    the registry with it, its marker staying on disk exactly as a crashed
    process's would.  A closed or abandoned writer no longer counts as
    live.
    """

    #: plfs-san registration (see repro.sanitize): field -> guarding lock
    _SANITIZE_SHARED = {"_entries": "_lock", "_dirty": "_lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: container path -> [(writer ref, pid registered under)]; the
        #: path drops out when its last entry is released
        self._entries: dict[str, list[tuple[weakref.ref, int]]] = {}
        #: container paths where a released handle wrote bytes since the
        #: path last emptied (a close with nothing new to compact skips it)
        self._dirty: set[str] = set()

    @staticmethod
    def _live(entries) -> list[tuple[WriteFile, int]]:
        out = []
        for ref, pid in entries:
            writer = ref()
            if writer is not None and not writer.closed:
                out.append((writer, pid))
        return out

    def register(self, writer: WriteFile, pid: int) -> None:
        """Add *writer* under *pid*, writing the openhost marker when it
        is the pid's first live handle on the container.  A marker write
        that fails leaves the registry unchanged."""
        container = writer.container
        with self._lock:
            entries = [
                e for e in self._entries.get(container.path, ()) if e[0]() is not None
            ]
            if all(p != pid for _, p in self._live(entries)):
                container.register_open(pid)
            entries.append((weakref.ref(writer), pid))
            self._entries[container.path] = entries

    def release(self, writer: WriteFile) -> bool:
        """Remove *writer*, unlinking the openhost marker when it was its
        pid's last live handle.  Returns True when this leaves the
        container with no live handle in this process and some released
        handle wrote since it last had none: the close that should
        compact."""
        container = writer.container
        path = container.path
        with self._lock:
            entries, pid = [], None
            for ref, p in self._entries.get(path, ()):
                other = ref()
                if other is writer:
                    pid = p
                elif other is not None:
                    entries.append((ref, p))
            if pid is None:
                return False  # never registered, or already released
            if writer.total_written:
                self._dirty.add(path)
            if entries:
                self._entries[path] = entries
            else:
                self._entries.pop(path, None)
            live = self._live(entries)
            if all(p != pid for _, p in live):
                container.unregister_open(pid)
            if live or path not in self._dirty:
                return False
            self._dirty.discard(path)
            return True

    def _reset_in_child(self) -> None:
        """A forked child starts with no live handles of its own: the
        parent's writers (and whatever lock state a parent thread held)
        are not the child's, and their markers belong to the parent."""
        self._lock = threading.Lock()
        with self._lock:
            self._entries = {}
            self._dirty = set()

    def writers(self, path: str) -> list[WriteFile]:
        """The live write handles on the container at *path*."""
        with self._lock:
            return [w for w, _ in self._live(self._entries.get(path, ()))]

    def high_water(self, path: str) -> int:
        """Highest logical byte any live handle on *path* has written,
        flushed or not."""
        return max((w.max_logical_end for w in self.writers(path)), default=0)


_open_writers = OpenWriterRegistry()
os.register_at_fork(after_in_child=_open_writers._reset_in_child)


def open_writer_registry() -> OpenWriterRegistry:
    """The process-wide registry instance."""
    return _open_writers
