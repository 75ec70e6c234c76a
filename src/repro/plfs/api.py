"""The PLFS user-level API.

Mirrors the C functions quoted in the paper's Listing 1 (``plfs_open``,
``plfs_read``, ``plfs_write``) plus the rest of the surface LDPLFS needs
(`close`, `sync`, `unlink`, `access`, `getattr`, `trunc`, `create`,
`rename`, directory ops).  All functions take *backend physical paths*; the
interposition layer (``repro.core``) performs logical-path → backend
resolution through its mount table, exactly as plfsrc does for the C
library.

Differences from C forced by the language are intentional and small:
``plfs_read`` returns ``bytes`` (with a buffer-filling variant) and errors
are raised as :class:`~repro.plfs.errors.PlfsError` (an :class:`OSError`)
rather than returned as ``-errno``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import cache as index_cache
from . import constants
from .container import Container, is_container, readdir_logical, rmdir_logical
from .errors import BadFlagsError, ContainerNotFoundError, NotAContainerError
from .index import pack_records
from .reader import ReadFile
from .util import hostname, unique_timestamp
from .writer import WriteFile, open_writer_registry

#: every live write handle of this process, per container
_open_writers = open_writer_registry()

_ACCMODE = os.O_RDONLY | os.O_WRONLY | os.O_RDWR


def _remote(fd) -> bool:
    """True when *fd* is a daemon-held handle (``repro.plfsd``'s RemoteFd).

    Dispatch is duck-typed on purpose: ``plfs`` must not import ``plfsd``
    (the daemon builds on this module), yet every ``plfs_*`` entry point
    below accepts either handle kind so the interposition layer never
    branches on where a handle lives.
    """
    return getattr(fd, "is_remote", False)


@dataclass
class OpenOptions:
    """Counterpart of ``Plfs_open_opt`` (all defaulted, as LDPLFS does)."""

    buffer_index: bool = True
    #: number of hostdir buckets for new containers
    num_hostdirs: int = constants.NUM_HOSTDIRS
    #: persist every index record to a write-ahead dropping before its data
    #: append, making a crashed writer's index rebuildable by ``repro-fsck``
    #: at the cost of one small sequential write per call
    write_ahead_index: bool = False
    #: group-commit window for the write-ahead index: records per
    #: ``write_wal`` batch.  1 (the default) is the strict per-append
    #: ordering; larger windows amortise the WAL syscall over many small
    #: writes at the cost of intra-batch crash coverage — a crash inside a
    #: batch can strand up to ``wal_batch_records - 1`` appends' bytes past
    #: the WAL coverage, which ``repro-fsck`` trims and reports.
    #: ``plfs_sync`` is always a hard barrier.
    wal_batch_records: int = 1
    #: flatten the merged global index into the persistent ``global.index``
    #: dropping when the last writer closes cleanly, so subsequent opens
    #: load one compacted file instead of re-merging every index dropping
    compact_on_close: bool = True


@dataclass
class Plfs_fd:
    """Counterpart of the C ``Plfs_fd`` handle.

    Reference counted: LDPLFS-style layers may share one handle across
    multiple application descriptors; the final ``plfs_close`` tears it
    down.
    """

    container: Container
    flags: int
    pid: int
    refs: int = 1
    writer: WriteFile | None = None
    #: write the persistent compacted global index on last clean close
    compact_on_close: bool = True
    _reader: ReadFile | None = field(default=None, repr=False)
    _dirty_since_reader_build: bool = field(default=False, repr=False)

    @property
    def path(self) -> str:
        return self.container.path

    @property
    def readable(self) -> bool:
        return (self.flags & _ACCMODE) in (os.O_RDONLY, os.O_RDWR)

    @property
    def writable(self) -> bool:
        return (self.flags & _ACCMODE) in (os.O_WRONLY, os.O_RDWR)

    def reader(self) -> ReadFile:
        if self._reader is None:
            self._reader = ReadFile(self.container, writer=self.writer)
            self._dirty_since_reader_build = False
        elif self._dirty_since_reader_build:
            self._reader.refresh()
            self._dirty_since_reader_build = False
        return self._reader

    def mark_dirty(self) -> None:
        self._dirty_since_reader_build = True

    def invalidate_reader(self) -> None:
        """Discard the cached reader entirely.  Needed when the writer
        object itself is replaced (truncate), since a cached ReadFile holds
        a reference to the writer whose unflushed records it overlays."""
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        self._dirty_since_reader_build = False


# ---------------------------------------------------------------------- #
# open / close
# ---------------------------------------------------------------------- #


def plfs_open(
    path: str,
    flags: int,
    pid: int | None = None,
    mode: int = 0o644,
    open_opt: OpenOptions | None = None,
) -> Plfs_fd:
    """Open (optionally creating) the logical file backed at *path*."""
    pid = os.getpid() if pid is None else pid
    container = Container(path)
    exists = container.exists()

    if not exists:
        if os.path.isdir(path) and not container.exists():
            # Container creation is atomic, so an on-disk directory that
            # is not a container is a foreign directory (the re-check
            # closes the window where a concurrent creator renamed the
            # skeleton into place between our two looks).
            raise NotAContainerError(f"is a directory: {path}")
        if os.path.exists(path) and not os.path.isdir(path):
            raise NotAContainerError(f"exists and is not a PLFS file: {path}")
        if not flags & os.O_CREAT and not container.exists():
            raise ContainerNotFoundError(f"no such file: {path}")
        if flags & os.O_CREAT:
            container.create(mode, exclusive=bool(flags & os.O_EXCL), pid=pid)
    elif flags & os.O_CREAT and flags & os.O_EXCL:
        container.create(mode, exclusive=True, pid=pid)

    if flags & os.O_TRUNC and (flags & _ACCMODE) != os.O_RDONLY:
        _rewrite(container, 0, container.wipe_data)

    fd = Plfs_fd(container=container, flags=flags, pid=pid)
    if open_opt is not None:
        fd.compact_on_close = open_opt.compact_on_close
    if fd.writable:
        wal = bool(open_opt and open_opt.write_ahead_index)
        wal_batch = open_opt.wal_batch_records if open_opt is not None else 1
        fd.writer = WriteFile(container, wal=wal, wal_batch=wal_batch)
        try:
            _open_writers.register(fd.writer, pid)
        except OSError:
            # Failed open must not leak the writer's droppings/descriptors
            # or leave the container looking half-open.
            fd.writer.abandon()
            fd.writer = None
            raise
    return fd


def plfs_close(fd, pid: int | None = None, flags: int | None = None) -> int:
    """Drop one reference; tear down on the last.  Returns remaining refs.

    Idempotent and exception-safe: closing an already-closed handle is a
    no-op returning 0, and a writer that raises mid-close still leaves the
    handle fully torn down (writer detached, open-marker unregistered), so
    a daemon holding thousands of slots can always reclaim one — retrying
    or double-closing after an error can never wedge a slot.

    The openhost marker belongs to the pid the handle was opened under
    (*pid* is accepted for C-signature parity only).  The container is
    compacted once, by the close that leaves it with no write handle in
    this process and no foreign marker.
    """
    if _remote(fd):
        return fd.close()
    if fd.refs <= 0:
        return 0
    fd.refs -= 1
    if fd.refs > 0:
        return fd.refs
    if fd._reader is not None:
        fd._reader.close()
        fd._reader = None
    writer, fd.writer = fd.writer, None  # claim it: a re-raised close must not re-enter
    if writer is None:
        return 0
    try:
        writer.close()
        if writer.total_written:
            # Recorded while the marker still stands, so a stat that sees
            # the marker gone also sees this handle's size.
            fd.container.drop_meta(writer.max_logical_end, writer.total_written)
    except Exception:
        # The writer is broken but the handle must still be fully
        # reclaimed: release the registry entry (and with it the marker)
        # so the container does not look eternally half-open, then
        # surface the error.  (An InjectedCrash is a BaseException and
        # passes through without cleanup — a crash kills the process, it
        # doesn't tidy up; the closed writer no longer counts as live.)
        _open_writers.release(writer)
        raise
    if (
        _open_writers.release(writer)
        and fd.compact_on_close
        and not fd.container.open_writers()
    ):
        # Clean last close: flatten the merged index into the persistent
        # global.index so the next reader skips the merge.
        index_cache.compact_quietly(fd.container)
    return 0


def plfs_ref(fd):
    """Take an additional reference on an open handle."""
    fd.refs += 1
    return fd


# ---------------------------------------------------------------------- #
# data path
# ---------------------------------------------------------------------- #


def _as_buffer(buf):
    """Normalise *buf* to a zero-copy byte view where the buffer protocol
    allows it (contiguous buffers become a flat ``memoryview``; only
    non-contiguous or non-buffer inputs pay a copy)."""
    if isinstance(buf, (bytes, bytearray, memoryview)) and (
        not isinstance(buf, memoryview) or (buf.contiguous and buf.itemsize == 1)
    ):
        return buf
    try:
        view = memoryview(buf)
    except TypeError:
        return bytes(buf)
    if view.contiguous:
        return view.cast("B")
    return view.tobytes()


def plfs_write(fd, buf, count: int | None = None, offset: int = 0, pid: int | None = None) -> int:
    """Write ``buf[:count]`` at logical *offset*; returns bytes written.

    Any bytes-like object is accepted; contiguous buffers (including
    ``memoryview`` slices the shim produces for short-write resumption)
    thread through the write path without copying.
    """
    if _remote(fd):
        return fd.write(buf, count, offset)
    if fd.writer is None:
        raise BadFlagsError("handle not open for writing")
    data = _as_buffer(buf)
    if count is not None:
        data = memoryview(data)[:count]
    n = fd.writer.write(data, offset, fd.pid if pid is None else pid)
    fd.mark_dirty()
    return n


def plfs_writev(fd: Plfs_fd, buffers, offset: int = 0, pid: int | None = None) -> int:
    """Vectored write: *buffers* land contiguously from *offset* as one
    data append plus one (possibly merged) index record — the
    ``writev``/``pwritev`` fast path.  Returns total bytes written."""
    # Normalise and drop empty views *before* dispatching, so the remote
    # (plfsd) branch sees exactly what the local writer would: an all-empty
    # iovec returns 0 on both paths without a wire round trip (the raw
    # forward used to ship zero-length pieces to the daemon).
    views = [_as_buffer(b) for b in buffers]
    views = [v for v in views if len(v)]
    if _remote(fd):
        if not views:
            return 0
        return fd.writev(views, offset)
    if fd.writer is None:
        raise BadFlagsError("handle not open for writing")
    if not views:
        return 0
    n = fd.writer.append_many(views, offset, fd.pid if pid is None else pid)
    fd.mark_dirty()
    return n


def plfs_read(fd, count: int, offset: int) -> bytes:
    """Read up to *count* bytes at *offset* (returns ``b""`` at EOF)."""
    if _remote(fd):
        return fd.read(count, offset)
    if not fd.readable:
        raise BadFlagsError("handle not open for reading")
    return fd.reader().read(count, offset)


def plfs_read_into(fd, buf, offset: int) -> int:
    """C-style variant filling a caller buffer; returns bytes read."""
    if _remote(fd):
        return fd.read_into(buf, offset)
    if not fd.readable:
        raise BadFlagsError("handle not open for reading")
    return fd.reader().read_into(buf, offset)


def plfs_sync(fd, pid: int | None = None) -> None:
    """Flush buffered index records and fsync data droppings."""
    if _remote(fd):
        fd.sync()
        return
    if fd.writer is not None:
        fd.writer.sync()


# ---------------------------------------------------------------------- #
# metadata
# ---------------------------------------------------------------------- #


def plfs_getattr(fd_or_path, *, size_only: bool = False) -> os.stat_result:
    """Stat the logical file (size = logical size from index or meta)."""
    if _remote(fd_or_path):
        return fd_or_path.getattr()
    if isinstance(fd_or_path, Plfs_fd):
        container = fd_or_path.container
        if fd_or_path.writer is not None:
            # An open writer knows its own high-water mark; combine with the
            # on-disk view so handles stat correctly mid-write.  Building
            # the index is a metadata operation and is legal even on a
            # write-only handle (O_APPEND needs it to find the end).  The
            # on-disk size comes from the epoch-validated shared cache, so
            # another handle's flush is always seen (the cache rebuilds on
            # epoch change) while repeated stats of a quiet container cost
            # one cache hit instead of an index merge; the unflushed records
            # of this handle (registered or, after a fork, inherited) and
            # of its siblings in the registry never exceed their high-water
            # marks, which the max() below folds in (an O_APPEND write
            # through one fd must land after bytes another fd has written
            # but not yet flushed).
            disk = container.cached_size()
            if disk is None:
                loaded, _ = index_cache.shared_cache().get(container)
                disk = loaded.index.logical_size
            size = max(
                disk,
                fd_or_path.writer.max_logical_end,
                _open_writers.high_water(container.path),
            )
            return container.getattr(size=size)
        return container.getattr()
    container = Container(fd_or_path)
    return container.getattr()


def plfs_access(path: str, amode: int) -> bool:
    """POSIX ``access`` on the logical file."""
    container = Container(path)
    if not container.exists():
        raise ContainerNotFoundError(f"no such file: {path}")
    # Containers are directories on the backend; delegate permission checks.
    return os.access(path, amode)


def plfs_exists(path: str) -> bool:
    return is_container(path)


def plfs_unlink(path: str) -> None:
    Container(path).unlink()
    index_cache.invalidate(path)


def plfs_create(path: str, mode: int = 0o644, pid: int | None = None) -> None:
    """``creat``-like: make an empty logical file."""
    Container(path).create(mode, pid=os.getpid() if pid is None else pid)


def plfs_trunc(fd_or_path: Plfs_fd | str, offset: int = 0) -> None:
    """Truncate the logical file to *offset* bytes.

    ``offset == 0`` wipes the droppings (the fast path used by ``O_TRUNC``).
    Shrinking rewrites the container through compaction clipped at *offset*;
    growing writes a single zero byte at ``offset - 1`` (the extended region
    reads back as zeros either way).  The C library takes the same
    fast/slow split.
    """
    if _remote(fd_or_path):
        fd_or_path.trunc(offset)
        return
    if isinstance(fd_or_path, Plfs_fd):
        fd, path = fd_or_path, fd_or_path.path
        container = fd.container
    else:
        fd, path = None, fd_or_path
        container = Container(path)
    if not container.exists():
        raise ContainerNotFoundError(f"no such file: {path}")

    if offset == 0:
        _rewrite(container, 0, container.wipe_data)
        index_cache.invalidate(container.path)
        if fd is not None:
            fd.invalidate_reader()
        return

    current = plfs_getattr(fd if fd is not None else path).st_size
    if offset == current:
        return
    if offset > current:
        if fd is not None and fd.writer is not None:
            plfs_write(fd, b"\x00", 1, offset - 1)
        else:
            tmp = plfs_open(path, os.O_WRONLY, mode=0o644)
            try:
                plfs_write(tmp, b"\x00", 1, offset - 1)
            finally:
                plfs_close(tmp)
        return

    # Shrink: compact the flattened index clipped at *offset*.
    _rewrite(container, offset, lambda: plfs_flatten_index(path, clip=offset))
    if fd is not None:
        fd.invalidate_reader()


def _rewrite(container: Container, size: int, rewrite) -> None:
    """Run a truncating *rewrite* of the container's droppings under every
    live write handle of this process: each is sealed first (its buffered
    records land and join the rewrite) and afterwards writes to fresh
    droppings with its high-water mark capped at *size*, so neither a
    sibling's ``fstat`` nor its close-time meta dropping reports the
    pre-truncate size."""
    writers = _open_writers.writers(container.path)
    for writer in writers:
        writer.seal()
    try:
        rewrite()
    finally:
        for writer in writers:
            writer.truncated(size)


def plfs_rename(path: str, new_path: str) -> None:
    Container(path).rename(new_path)
    index_cache.invalidate(path)
    index_cache.invalidate(new_path)


# ---------------------------------------------------------------------- #
# directory operations (pass-throughs with container awareness)
# ---------------------------------------------------------------------- #


def plfs_mkdir(path: str, mode: int = 0o755) -> None:
    os.mkdir(path, mode)


def plfs_rmdir(path: str) -> None:
    rmdir_logical(path)


def plfs_readdir(path: str) -> list[str]:
    return readdir_logical(path)


# ---------------------------------------------------------------------- #
# maintenance utilities
# ---------------------------------------------------------------------- #


def plfs_flatten_index(path: str, *, clip: int | None = None) -> int:
    """Compact a container into a single (data, index) dropping pair.

    Rewrites the flattened logical content sequentially, discarding
    overwritten log garbage; with *clip* the content is truncated to that
    many logical bytes first.  Returns the new physical byte count.  This is
    the ``plfs_flatten_index`` maintenance tool from the C distribution and
    the slow path for shrink-truncate.
    """
    container = Container(path)
    reader = ReadFile(container)
    try:
        segments = reader.index.segments()
        if clip is not None:
            segments = [
                (s, min(e, clip), d, p) for (s, e, d, p) in segments if s < clip
            ]
        # Read every surviving extent *before* wiping the droppings.
        chunks: list[tuple[int, bytes]] = []
        for start, end, _, _ in segments:
            chunks.append((start, reader.read(end - start, start)))
    finally:
        reader.close()

    container.wipe_data()
    writer = WriteFile(container)
    try:
        pid = os.getpid()
        for start, data in chunks:
            writer.write(data, start, pid)
        writer.sync()
        physical = writer.total_written
        last = writer.max_logical_end
    finally:
        writer.close()
    if clip is not None and clip > last:
        # Preserve a trailing hole created by a shrink inside a hole.
        tmp = plfs_open(path, os.O_WRONLY)
        try:
            plfs_write(tmp, b"\x00", 1, clip - 1)
        finally:
            plfs_close(tmp)
        last = clip
        physical += 1
    container.clear_meta()
    if physical:
        container.drop_meta(last, physical)
    index_cache.invalidate(container.path)
    index_cache.compact_quietly(container)
    return physical


def plfs_map(path: str) -> list[tuple[int, int, int, int]]:
    """Return the flattened extent map of a container: a list of
    (logical_start, logical_end, dropping_id, physical_offset) tuples —
    the ``plfs_map`` inspection tool."""
    container = Container(path)
    reader = ReadFile(container)
    try:
        return reader.index.segments()
    finally:
        reader.close()


def plfs_dump_index(path: str) -> bytes:
    """Serialise the flattened index (for debugging / archival)."""
    container = Container(path)
    reader = ReadFile(container)
    try:
        import numpy as np

        from .index import INDEX_DTYPE

        segs = reader.index.segments()
        recs = np.zeros(len(segs), dtype=INDEX_DTYPE)
        for i, (start, end, dropping, phys) in enumerate(segs):
            recs[i]["logical_offset"] = start
            recs[i]["length"] = end - start
            recs[i]["dropping"] = dropping
            recs[i]["physical_offset"] = phys
            recs[i]["timestamp"] = unique_timestamp()
        return pack_records(recs)
    finally:
        reader.close()
