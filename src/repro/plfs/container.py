"""PLFS container management.

A *container* is the backend representation of one logical PLFS file: a
directory whose presence is flagged by the access file, holding hostdir
buckets of data/index droppings plus metadata droppings (Fig. 1 of the
paper).  This module creates, identifies, enumerates and destroys
containers; the read/write data paths live in :mod:`repro.plfs.reader` and
:mod:`repro.plfs.writer`.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import stat as stat_module
from dataclasses import dataclass

from . import backing, constants, util
from .errors import (
    ContainerExistsError,
    ContainerNotFoundError,
    IsAContainerError,
    NotAContainerError,
)


@dataclass(frozen=True)
class MetaDropping:
    """Parsed ``meta/<last_offset>.<total_bytes>.<host>`` file name."""

    last_offset: int
    total_bytes: int
    host: str


def is_container(path: str) -> bool:
    """True if *path* is a PLFS container directory."""
    return os.path.isfile(os.path.join(path, constants.ACCESS_FILE))


def assert_container(path: str) -> None:
    if not os.path.exists(path):
        raise ContainerNotFoundError(f"no such container: {path}")
    if not is_container(path):
        raise NotAContainerError(f"not a PLFS container: {path}")


class Container:
    """Handle on one container directory (may not exist yet)."""

    def __init__(self, path: str):
        self.path = os.path.abspath(path)

    # ------------------------------------------------------------------ #
    # creation / identification
    # ------------------------------------------------------------------ #

    def exists(self) -> bool:
        return is_container(self.path)

    def create(self, mode: int = 0o644, *, exclusive: bool = False, pid: int = 0) -> None:
        """Create the container skeleton (idempotent unless *exclusive*).

        Layout created:  ``<path>/{access file, creator, openhosts/, meta/}``.
        ``hostdir.N`` buckets are created lazily by writers.

        Creation is *atomic*: the skeleton is built under a temporary name
        and renamed into place, so no concurrent opener ever observes a
        half-built container (the C library takes the same
        build-then-rename approach for exactly this race).  Losing the
        rename race to another creator is not an error unless
        *exclusive*.
        """
        if self.exists():
            if exclusive:
                raise ContainerExistsError(f"container exists: {self.path}")
            return
        if os.path.exists(self.path):
            raise NotAContainerError(
                f"path exists and is not a container: {self.path}"
            )
        parent = os.path.dirname(self.path) or "."
        os.makedirs(parent, exist_ok=True)
        tmp = f"{self.path}.plfs_mkdir.{util.hostname()}.{os.getpid()}"
        os.makedirs(os.path.join(tmp, constants.OPENHOSTS_DIR))
        os.makedirs(os.path.join(tmp, constants.META_DIR))
        with open(os.path.join(tmp, constants.CREATOR_FILE), "w") as fh:
            fh.write(
                f"version={constants.FORMAT_VERSION}\n"
                f"host={util.hostname():<{constants.CREATOR_HOST_WIDTH}}\n"
                f"pid={pid:<{constants.CREATOR_PID_WIDTH}}\n"
                f"ctime={util.unique_timestamp():.9f}\n"
            )
        # The access file stores the logical file's mode bits; writing it
        # last inside tmp means a renamed container is always complete.
        with open(os.path.join(tmp, constants.ACCESS_FILE), "w") as fh:
            fh.write(f"{mode:o}\n")
        try:
            os.rename(tmp, self.path)
        except OSError:
            # Lost the race: another creator renamed first (the target is
            # now a non-empty directory).  Their container serves.
            shutil.rmtree(tmp, ignore_errors=True)
            if self.exists():
                if exclusive:
                    raise ContainerExistsError(
                        f"container exists: {self.path}"
                    ) from None
                return
            raise

    def mode(self) -> int:
        """Logical file mode bits recorded at create time."""
        assert_container(self.path)
        with open(os.path.join(self.path, constants.ACCESS_FILE)) as fh:
            return int(fh.read().strip() or "644", 8)

    # ------------------------------------------------------------------ #
    # hostdirs and droppings
    # ------------------------------------------------------------------ #

    def hostdir_path(self, host: str | None = None) -> str:
        host = host or util.hostname()
        bucket = util.hostdir_bucket(host)
        return os.path.join(self.path, f"{constants.HOSTDIR_PREFIX}{bucket}")

    def ensure_hostdir(self, host: str | None = None) -> str:
        path = self.hostdir_path(host)
        os.makedirs(path, exist_ok=True)
        return path

    def droppings(self) -> list[tuple[str, str]]:
        """All (index_path, data_path) dropping pairs, deterministically
        ordered (by hostdir bucket then dropping name)."""
        assert_container(self.path)
        pairs: list[tuple[str, str]] = []
        try:
            entries = sorted(os.listdir(self.path))
        except FileNotFoundError:
            return []
        for entry in entries:
            if not entry.startswith(constants.HOSTDIR_PREFIX):
                continue
            hostdir = os.path.join(self.path, entry)
            try:
                names = sorted(os.listdir(hostdir))
            except NotADirectoryError:
                continue
            for name in names:
                if name.startswith(constants.DATA_PREFIX):
                    data_path = os.path.join(hostdir, name)
                    index_path = os.path.join(
                        hostdir, util.index_name_for_data(name)
                    )
                    pairs.append((index_path, data_path))
        return pairs

    def hostdirs(self) -> list[str]:
        """Paths of the container's existing ``hostdir.N`` buckets."""
        try:
            entries = sorted(os.listdir(self.path))
        except FileNotFoundError:
            return []
        out = []
        for entry in entries:
            if entry.startswith(constants.HOSTDIR_PREFIX):
                p = os.path.join(self.path, entry)
                if os.path.isdir(p):
                    out.append(p)
        return out

    # ------------------------------------------------------------------ #
    # container epoch and the persistent compacted global index
    # ------------------------------------------------------------------ #

    def global_index_path(self) -> str:
        """Backend path of the persistent compacted global index."""
        return os.path.join(self.path, constants.GLOBAL_INDEX_FILE)

    def index_epoch(self, droppings: list[tuple[str, str]] | None = None) -> str:
        """Fingerprint of the container's dropping state.

        The epoch folds in the dropping count plus every index/data
        dropping's name, size and mtime, so *any* state a reader's global
        index depends on — a new dropping, a data append, an index flush,
        an fsck repair — changes it.  Both the compacted global index and
        the process-wide shared index cache are validated against the
        epoch and discarded on mismatch; computing it costs two ``stat``
        calls per dropping, which is the whole point: cheap compared to
        re-reading and re-merging every index dropping.
        """
        pairs = self.droppings() if droppings is None else droppings
        h = hashlib.sha1()
        h.update(str(len(pairs)).encode())
        for index_path, data_path in pairs:
            for p in (index_path, data_path):
                try:
                    st = os.stat(p)
                    h.update(
                        f"|{os.path.basename(p)}:{st.st_size}:{st.st_mtime_ns}".encode()
                    )
                except FileNotFoundError:
                    h.update(f"|{os.path.basename(p)}:missing".encode())
        return h.hexdigest()

    # ------------------------------------------------------------------ #
    # cross-process generation protocol
    # ------------------------------------------------------------------ #

    def generation_path(self) -> str:
        """Backend path of the per-container generation file."""
        return os.path.join(self.path, constants.GENERATION_FILE)

    def bump_generation(self) -> None:
        """Signal readers in other processes that the container changed.

        Write-then-rename, so the generation file atomically gets a fresh
        inode and mtime; a reader holding a cached index compares the
        ``(inode, mtime_ns)`` token it captured at build time with one
        ``stat`` and refreshes on mismatch.  The protocol is purely
        advisory — a full backend or read-only medium just loses the fast
        cross-process staleness check, so failures are swallowed — and the
        in-process shared cache (validated by the container epoch) remains
        the correctness authority.
        """
        gen = self.generation_path()
        tmp = f"{gen}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w") as fh:
                fh.write(f"{util.unique_timestamp():.9f}\n")
            os.replace(tmp, gen)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def generation_token(self) -> tuple[int, int] | None:
        """Current ``(inode, mtime_ns)`` of the generation file, or None
        when the container has never been written through the generation
        protocol (or the file is unreadable)."""
        try:
            st = os.stat(self.generation_path())
        except OSError:
            return None
        return (st.st_ino, st.st_mtime_ns)

    def drop_global_index(self) -> bool:
        """Delete the compacted global index if present (it is a cache:
        deleting it only re-routes readers onto the slow merge path)."""
        try:
            os.unlink(self.global_index_path())
            return True
        except FileNotFoundError:
            return False

    def wal_droppings(self) -> list[str]:
        """Write-ahead index droppings left behind by crashed (or still
        running) WAL-enabled writers, deterministically ordered."""
        out: list[str] = []
        for hostdir in self.hostdirs():
            for name in sorted(os.listdir(hostdir)):
                if name.startswith(constants.WAL_PREFIX):
                    out.append(os.path.join(hostdir, name))
        return out

    def restore_skeleton(self) -> list[str]:
        """Recreate missing skeleton entries (``openhosts/``, ``meta/``).

        A backend directory losing metadata (the dropped-``hostdir.N``
        failure class) can take the bookkeeping directories with it; they
        carry no unrecoverable state, so recovery is recreation.  Returns
        the restored relative names.
        """
        assert_container(self.path)
        restored = []
        for name in (constants.OPENHOSTS_DIR, constants.META_DIR):
            p = os.path.join(self.path, name)
            if not os.path.isdir(p):
                os.makedirs(p, exist_ok=True)
                restored.append(name)
        return restored

    def physical_bytes(self) -> int:
        """Total bytes stored in data droppings (>= logical size when there
        are overwrites; the gap measures log garbage)."""
        total = 0
        for _, data_path in self.droppings():
            try:
                total += os.path.getsize(data_path)
            except FileNotFoundError:
                pass
        return total

    # ------------------------------------------------------------------ #
    # open-host bookkeeping and cached metadata
    # ------------------------------------------------------------------ #

    def _openhost_marker(self, pid: int, host: str | None = None) -> str:
        host = host or util.hostname()
        return os.path.join(
            self.path, constants.OPENHOSTS_DIR, f"{host}.{pid}"
        )

    def register_open(self, pid: int, host: str | None = None) -> None:
        os.makedirs(os.path.join(self.path, constants.OPENHOSTS_DIR), exist_ok=True)
        with open(self._openhost_marker(pid, host), "w") as fh:
            fh.write(f"{util.unique_timestamp():.9f}\n")

    def unregister_open(self, pid: int, host: str | None = None) -> None:
        try:
            os.unlink(self._openhost_marker(pid, host))
        except FileNotFoundError:
            pass

    def open_writers(self) -> list[str]:
        """Names of openhost markers currently present."""
        d = os.path.join(self.path, constants.OPENHOSTS_DIR)
        try:
            return sorted(os.listdir(d))
        except FileNotFoundError:
            return []

    def drop_meta(self, last_offset: int, total_bytes: int, host: str | None = None) -> None:
        """Record cached size metadata at close time (``meta/`` dropping)."""
        host = host or util.hostname()
        d = os.path.join(self.path, constants.META_DIR)
        os.makedirs(d, exist_ok=True)
        name = f"{last_offset}.{total_bytes}.{host}"
        backing.current().create_meta(os.path.join(d, name))

    def meta_droppings(self) -> list[MetaDropping]:
        d = os.path.join(self.path, constants.META_DIR)
        out: list[MetaDropping] = []
        try:
            names = os.listdir(d)
        except FileNotFoundError:
            return out
        for name in names:
            parts = name.split(".", 2)
            if len(parts) != 3:
                continue
            try:
                out.append(MetaDropping(int(parts[0]), int(parts[1]), parts[2]))
            except ValueError:
                continue
        return out

    def clear_meta(self) -> None:
        d = os.path.join(self.path, constants.META_DIR)
        try:
            for name in os.listdir(d):
                try:
                    os.unlink(os.path.join(d, name))
                except FileNotFoundError:
                    pass
        except FileNotFoundError:
            pass

    def cached_size(self) -> int | None:
        """Logical size from meta droppings, or None if it cannot be trusted
        (open writers present, or no meta recorded)."""
        if self.open_writers():
            return None
        metas = self.meta_droppings()
        if not metas:
            return None
        return max(m.last_offset for m in metas)

    # ------------------------------------------------------------------ #
    # attributes and whole-container operations
    # ------------------------------------------------------------------ #

    def getattr(self, *, size: int | None = None) -> os.stat_result:
        """A ``stat``-like result describing the *logical* file.

        ``size`` lets callers that already computed the logical size (via a
        :class:`~repro.plfs.index.GlobalIndex`) avoid a second index build.
        """
        assert_container(self.path)
        st = os.stat(self.path)
        if size is None:
            size = self.cached_size()
            if size is None:
                from .reader import logical_size  # local import: avoid cycle

                size = logical_size(self)
        mode = stat_module.S_IFREG | self.mode()
        return os.stat_result(
            (
                mode,
                st.st_ino,
                st.st_dev,
                1,
                st.st_uid,
                st.st_gid,
                size,
                int(st.st_atime),
                int(st.st_mtime),
                int(st.st_ctime),
            )
        )

    def unlink(self) -> None:
        """Remove the container (the logical file) entirely."""
        assert_container(self.path)
        shutil.rmtree(self.path)

    def wipe_data(self) -> None:
        """Drop all data (truncate to zero): remove droppings, meta and the
        compacted global index (which described the removed droppings)."""
        assert_container(self.path)
        for entry in os.listdir(self.path):
            if entry.startswith(constants.HOSTDIR_PREFIX):
                shutil.rmtree(os.path.join(self.path, entry), ignore_errors=True)
        self.clear_meta()
        self.drop_global_index()
        self.bump_generation()

    def rename(self, new_path: str) -> "Container":
        assert_container(self.path)
        if is_container(new_path):
            shutil.rmtree(new_path)
        os.rename(self.path, new_path)
        return Container(new_path)


def readdir_logical(path: str) -> list[str]:
    """List a logical directory: containers appear as plain file names.

    *path* is a backend directory; entries that are containers are logical
    files, other directories are logical directories, plain files pass
    through (they are legal inside a PLFS tree: apps may mix).
    """
    if is_container(path):
        raise NotAContainerError(f"is a logical file, not a directory: {path}")
    return sorted(os.listdir(path))


def rmdir_logical(path: str) -> None:
    """Remove a logical directory; refuses to remove containers."""
    if is_container(path):
        raise IsAContainerError(f"is a logical file: {path}")
    os.rmdir(path)
