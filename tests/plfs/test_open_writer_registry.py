"""The process-wide open-writer registry: one openhost marker per
(host, pid) refcounted across that process's write handles, sibling
handles that see each other's sizes, and one compaction per container on
its last clean close."""

from __future__ import annotations

import gc
import os

import pytest

from repro.faults.injector import FaultInjector, FaultSpec
from repro.plfs import backing
from repro.plfs.api import (
    plfs_close,
    plfs_getattr,
    plfs_open,
    plfs_read,
    plfs_sync,
    plfs_trunc,
    plfs_write,
)
from repro.plfs.cache import shared_cache
from repro.plfs.container import Container
from repro.plfs.writer import open_writer_registry


class CountingStore(backing.BackingStore):
    """Direct backing store that counts compacted-index writes."""

    def __init__(self):
        self.global_index_writes = 0

    def write_global_index(self, path: str, payload: bytes) -> None:
        self.global_index_writes += 1
        super().write_global_index(path, payload)


@pytest.fixture
def counting():
    store = CountingStore()
    previous = backing.install(store)
    try:
        yield store
    finally:
        backing.install(previous)


def _open_n(path, n):
    first = plfs_open(path, os.O_CREAT | os.O_WRONLY)
    return [first] + [plfs_open(path, os.O_WRONLY) for _ in range(n - 1)]


class TestCompactOncePerContainer:
    def test_n_handles_compact_once_at_the_last_close(self, container_path, counting):
        fds = _open_n(container_path, 4)
        container = Container(container_path)
        # every handle writes 100 bytes at 0, then 1000 more each past that
        plfs_write(fds[0], b"a" * 100, offset=0)
        for i, fd in enumerate(fds[1:]):
            plfs_write(fd, bytes([66 + i]) * 1000, offset=100 + 1000 * i)
        for fd in fds:
            plfs_sync(fd)
        total = 100 + 1000 * (len(fds) - 1)

        for i, fd in enumerate(fds[:-1]):
            plfs_close(fd)
            # the process still writes: its marker stands, nothing compacts,
            # and a path stat reports every synced byte, not the closed
            # handles' meta droppings
            assert len(container.open_writers()) == 1
            assert counting.global_index_writes == 0
            assert plfs_getattr(container_path).st_size == total, i
        plfs_close(fds[-1])
        assert container.open_writers() == []
        assert counting.global_index_writes == 1
        assert shared_cache().stats["compactions"] == 1
        assert plfs_getattr(container_path).st_size == total

    def test_path_stat_between_closes_sees_sibling_bytes(self, container_path):
        a, b = _open_n(container_path, 2)
        plfs_write(a, b"x" * 100, offset=0)
        plfs_write(b, b"y" * 1000, offset=100)
        plfs_sync(b)
        plfs_close(a)
        assert plfs_getattr(container_path).st_size == 1100
        plfs_close(b)
        assert plfs_getattr(container_path).st_size == 1100

    def test_last_closer_that_wrote_nothing_still_compacts(self, container_path, counting):
        a, b = _open_n(container_path, 2)
        plfs_write(a, b"data", offset=0)
        plfs_close(a)
        plfs_close(b)  # b never wrote, but the container changed
        assert counting.global_index_writes == 1

    def test_nothing_written_nothing_compacted(self, container_path, counting):
        for fd in _open_n(container_path, 3):
            plfs_close(fd)
        assert counting.global_index_writes == 0

    def test_foreign_marker_blocks_compaction(self, container_path, counting):
        fd = plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        Container(container_path).register_open(pid=4242, host="otherhost")
        plfs_write(fd, b"data", offset=0)
        plfs_close(fd)
        assert Container(container_path).open_writers() == ["otherhost.4242"]
        assert counting.global_index_writes == 0


class TestMarkerRefcount:
    def test_one_marker_per_pid(self, container_path):
        container = Container(container_path)
        a = plfs_open(container_path, os.O_CREAT | os.O_WRONLY, pid=7)
        b = plfs_open(container_path, os.O_WRONLY, pid=7)
        c = plfs_open(container_path, os.O_WRONLY, pid=8)
        markers = container.open_writers()
        assert len(markers) == 2 and all(m.endswith((".7", ".8")) for m in markers)
        plfs_close(a)
        assert len(container.open_writers()) == 2  # b still holds pid 7
        plfs_close(c)
        assert [m.rsplit(".", 1)[1] for m in container.open_writers()] == ["7"]
        plfs_close(b)
        assert container.open_writers() == []

    def test_failed_marker_write_leaves_no_entry(self, container_path, monkeypatch):
        plfs_close(plfs_open(container_path, os.O_CREAT | os.O_WRONLY))

        def refuse(self, pid, host=None):
            raise OSError(28, "no space for the marker")

        monkeypatch.setattr(Container, "register_open", refuse)
        with pytest.raises(OSError, match="no space"):
            plfs_open(container_path, os.O_WRONLY)
        assert open_writer_registry().writers(Container(container_path).path) == []

    def test_writer_error_in_close_releases_the_entry(self, container_path, monkeypatch):
        a, b = _open_n(container_path, 2)
        path = a.container.path

        def broken_close():
            raise OSError(5, "eio")

        monkeypatch.setattr(a.writer, "close", broken_close)
        with pytest.raises(OSError, match="eio"):
            plfs_close(a)
        assert open_writer_registry().writers(path) == [b.writer]
        plfs_close(b)
        assert open_writer_registry().writers(path) == []
        assert Container(container_path).open_writers() == []

    def test_unclosed_handle_leaves_with_gc_and_keeps_its_marker(self, container_path):
        fd = plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        path = fd.container.path
        plfs_write(fd, b"lost", offset=0)
        del fd
        gc.collect()
        # like a process that died holding it: no live entry, marker stays
        assert open_writer_registry().writers(path) == []
        assert len(Container(container_path).open_writers()) == 1


    def test_forked_child_does_not_inherit_the_parents_writers(self, container_path):
        parent = plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs_write(parent, b"p" * 5000, offset=0)  # unflushed, parent-only
        child = os.fork()
        if child == 0:
            fd = plfs_open(container_path, os.O_WRONLY)
            plfs_write(fd, b"c" * 10, offset=0)
            size = plfs_getattr(fd).st_size
            plfs_close(fd)
            os._exit(0 if size == 10 else 1)
        _, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert plfs_getattr(parent).st_size == 5000
        plfs_close(parent)


class TestCompactionFailures:
    def test_failed_compaction_is_counted_and_the_close_succeeds(self, container_path):
        fd = plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs_write(fd, b"payload", offset=0)
        injector = FaultInjector([FaultSpec("global_index", "enospc", op=1)])
        with injector.armed():
            assert plfs_close(fd) == 0
        assert [e.point for e in injector.fired()] == ["global_index"]
        assert shared_cache().stats["compaction_failures"] == 1
        assert shared_cache().stats["compactions"] == 0
        assert not os.path.exists(Container(container_path).global_index_path())
        reader = plfs_open(container_path, os.O_RDONLY)
        assert plfs_read(reader, 7, 0) == b"payload"
        plfs_close(reader)


class TestTruncateThroughASibling:
    def test_shrink_clips_every_handle(self, container_path):
        a, b = _open_n(container_path, 2)
        plfs_write(a, b"z" * 1000, offset=0)
        plfs_sync(a)
        plfs_trunc(b, 10)
        assert plfs_getattr(a).st_size == 10
        assert plfs_getattr(b).st_size == 10
        plfs_close(a)
        plfs_close(b)
        assert plfs_getattr(container_path).st_size == 10

    def test_unsynced_sibling_bytes_survive_the_shrink(self, container_path):
        a, b = _open_n(container_path, 2)
        plfs_write(a, b"0123456789" * 10, offset=0)  # buffered, never synced
        plfs_trunc(b, 25)
        plfs_close(a)
        plfs_close(b)
        reader = plfs_open(container_path, os.O_RDONLY)
        assert plfs_read(reader, 100, 0) == (b"0123456789" * 3)[:25]
        plfs_close(reader)

    def test_sibling_writes_after_truncate_land(self, container_path):
        a, b = _open_n(container_path, 2)
        plfs_write(a, b"q" * 50, offset=0)
        plfs_trunc(b, 0)
        assert plfs_getattr(a).st_size == 0
        plfs_write(a, b"after", offset=0)
        plfs_close(a)
        plfs_close(b)
        assert plfs_getattr(container_path).st_size == 5
        reader = plfs_open(container_path, os.O_RDONLY)
        assert plfs_read(reader, 10, 0) == b"after"
        plfs_close(reader)
