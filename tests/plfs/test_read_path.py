"""The read-path fast lane: persistent compacted index, shared index
cache, coalesced read plans — plus the read-path bug-sweep regressions
(fd-cache bound, cross-handle staleness, error-path fd hygiene,
cached logical_size)."""

from __future__ import annotations

import errno
import os

import pytest

from repro.plfs import cache as index_cache
from repro.plfs import constants
from repro.plfs.api import (
    OpenOptions,
    plfs_close,
    plfs_getattr,
    plfs_open,
    plfs_read,
    plfs_write,
)
from repro.plfs.cache import IndexCache, compact, load_index, shared_cache
from repro.plfs.container import Container
from repro.plfs.errors import CorruptIndexError
from repro.plfs.index import parse_compacted
from repro.plfs.reader import ReadFile, coalesce_plan, logical_size
from repro.plfs.writer import WriteFile


@pytest.fixture
def container(container_path):
    c = Container(container_path)
    c.create()
    return c


def write_stripes(container, *, droppings, stripe=8, rounds=1):
    """Interleave *droppings* writers round-robin: dropping i owns every
    logical stripe where (stripe_no % droppings) == i."""
    writers = [WriteFile(container) for _ in range(droppings)]
    payload = {}
    for r in range(rounds):
        for s in range(droppings):
            off = (r * droppings + s) * stripe
            data = bytes([(r * droppings + s + 1) % 256]) * stripe
            writers[s].write(data, off, pid=s + 1)
            payload[off] = data
    for w in writers:
        w.close()
    size = max(o + len(d) for o, d in payload.items())
    whole = bytearray(size)
    for off, data in payload.items():
        whole[off : off + len(data)] = data
    return bytes(whole)


# ---------------------------------------------------------------------- #
# persistent compacted global index
# ---------------------------------------------------------------------- #


class TestCompactedIndex:
    def test_clean_close_writes_global_index(self, container_path):
        fd = plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs_write(fd, b"hello world", offset=0)
        plfs_close(fd)
        gpath = Container(container_path).global_index_path()
        assert os.path.exists(gpath)
        with open(gpath, "rb") as fh:
            records, droppings, epoch, size = parse_compacted(
                fh.read(), source=gpath
            )
        assert size == 11
        assert records.shape[0] == 1
        assert epoch == Container(container_path).index_epoch()
        # the header names no path, only the dropping count the epoch
        # pins: the container can be renamed
        assert droppings == len(Container(container_path).droppings())

    def test_compacted_load_is_byte_identical(self, container):
        expect = write_stripes(container, droppings=6, rounds=3)
        compact(container)
        loaded = load_index(container)
        assert loaded.source == "compacted"
        with ReadFile(container, use_shared_cache=False) as r:
            # route the probe through the compacted file explicitly
            r._index, r._data_paths = loaded.index, loaded.data_paths
            assert r.read(len(expect), 0) == expect

    def test_stale_epoch_falls_back_to_merge(self, container):
        write_stripes(container, droppings=2)
        compact(container)
        w = WriteFile(container)
        w.write(b"fresh", 0, pid=99)
        w.close()
        loaded = load_index(container)
        assert loaded.source == "merged"
        assert loaded.index.logical_size >= 5

    def test_corrupt_compacted_falls_back_to_merge(self, container):
        expect = write_stripes(container, droppings=2)
        compact(container)
        gpath = container.global_index_path()
        with open(gpath, "r+b") as fh:
            fh.write(b"\xff\xff\xff")
        loaded = load_index(container)
        assert loaded.source == "merged"
        with ReadFile(container) as r:
            assert r.read(len(expect), 0) == expect

    @pytest.mark.parametrize(
        "mangle",
        [
            b"",  # empty file
            b"not json at all\n",  # unparseable header
            b'{"magic": "wrong"}\n',  # wrong magic
        ],
    )
    def test_parse_compacted_rejects_garbage(self, mangle):
        with pytest.raises(CorruptIndexError):
            parse_compacted(mangle, source="<test>")

    def test_truncate_drops_compacted_index(self, container_path):
        fd = plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        plfs_write(fd, b"data", offset=0)
        plfs_close(fd)
        assert os.path.exists(Container(container_path).global_index_path())
        fd = plfs_open(container_path, os.O_WRONLY | os.O_TRUNC)
        plfs_close(fd)
        assert load_index(Container(container_path)).index.logical_size == 0

    def test_compact_on_close_can_be_disabled(self, container_path):
        fd = plfs_open(
            container_path,
            os.O_CREAT | os.O_WRONLY,
            open_opt=OpenOptions(compact_on_close=False),
        )
        plfs_write(fd, b"data", offset=0)
        plfs_close(fd)
        assert not os.path.exists(
            Container(container_path).global_index_path()
        )

    def test_no_compaction_while_other_writers_open(self, container_path):
        fd1 = plfs_open(container_path, os.O_CREAT | os.O_WRONLY, pid=1)
        fd2 = plfs_open(container_path, os.O_WRONLY, pid=2)
        plfs_write(fd1, b"one", offset=0, pid=1)
        plfs_write(fd2, b"two", offset=3, pid=2)
        plfs_close(fd1, pid=1)
        # fd2 still open: closing fd1 must not freeze a half view
        assert not os.path.exists(
            Container(container_path).global_index_path()
        )
        plfs_close(fd2, pid=2)
        assert os.path.exists(Container(container_path).global_index_path())


# ---------------------------------------------------------------------- #
# shared index cache
# ---------------------------------------------------------------------- #


class TestSharedIndexCache:
    def test_repeated_opens_hit_the_cache(self, container):
        write_stripes(container, droppings=4)
        cache = shared_cache()
        for _ in range(5):
            with ReadFile(container) as r:
                r.logical_size()
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 4

    def test_repeated_stat_builds_index_once(self, container):
        """Bug-sweep satellite: logical_size via the shared cache."""
        write_stripes(container, droppings=4)
        cache = shared_cache()
        sizes = {logical_size(container) for _ in range(10)}
        assert len(sizes) == 1
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 9

    def test_epoch_revalidation_sees_external_change(self, container):
        # A private cache instance stands in for "another process": the
        # writer's close invalidates only the shared cache, so this one
        # must catch the change purely by epoch revalidation.
        cache = IndexCache()
        write_stripes(container, droppings=2, stripe=4)
        loaded, _ = cache.get(container)
        first = loaded.index.logical_size
        w = WriteFile(container)
        w.write(b"x" * 64, first, pid=7)
        w.close()
        loaded, _ = cache.get(container)
        assert loaded.index.logical_size == first + 64
        assert cache.stats["stale_epoch_evictions"] == 1

    def test_invalidate_bumps_generation(self):
        cache = IndexCache()
        g0 = cache.generation("/some/container")
        cache.invalidate("/some/container")
        assert cache.generation(os.path.abspath("/some/container")) == g0 + 1

    def test_cache_capacity_is_bounded(self, backend):
        cache = IndexCache(capacity=2)
        paths = []
        for i in range(4):
            p = os.path.join(backend, f"file{i}")
            c = Container(p)
            c.create()
            w = WriteFile(c)
            w.write(b"x", 0, pid=1)
            w.close()
            cache.get(c)
            paths.append(p)
        assert len(cache._entries) == 2

    def test_writer_flush_invalidates_readers(self, container):
        r = ReadFile(container)
        assert r.read(3, 0) == b""
        w = WriteFile(container)
        w.write(b"abc", 0, pid=1)
        w.sync()
        assert r.read(3, 0) == b"abc"
        r.close()
        w.close()


# ---------------------------------------------------------------------- #
# coalesced read plans
# ---------------------------------------------------------------------- #


class TestCoalescing:
    def test_sequential_writes_collapse_to_one_pread(self, container):
        # One writer, strictly sequential: the extent map merges the
        # contiguous records, so any span is a single slice and pread.
        w = WriteFile(container)
        for i in range(16):
            w.write(bytes([i]) * 8, i * 8, pid=1)
        w.close()
        with ReadFile(container) as r:
            data = r.read(128, 0)
            assert data == b"".join(bytes([i]) * 8 for i in range(16))
            assert r.stats["preads"] == 1

    def test_out_of_order_writes_coalesce_with_sieving(self, container):
        # A@0(64) then C@96(64) then B@64(32): one dropping laid out
        # physically A,C,B.  The plan for [0,160) is A(phys 0), B(phys
        # 128), C(phys 64): A→B spans a 64-byte physical gap (sieve
        # through C's bytes), B→C goes physically backwards (must split).
        w = WriteFile(container)
        w.write(b"A" * 64, 0, pid=1)
        w.write(b"C" * 64, 96, pid=1)
        w.write(b"B" * 32, 64, pid=1)
        w.close()
        with ReadFile(container) as r:
            data = r.read(160, 0)
            assert data == b"A" * 64 + b"B" * 32 + b"C" * 64
            assert r.stats["preads"] == 2
            assert r.stats["coalesced_slices"] == 1
            assert r.stats["sieved_gap_bytes"] == 64

    def test_interleaved_droppings_do_not_merge(self, container):
        expect = write_stripes(container, droppings=4, stripe=8, rounds=2)
        with ReadFile(container) as r:
            assert r.read(len(expect), 0) == expect
            # 8 stripes from 4 droppings, alternating: no two adjacent
            # plan slices share a dropping, so nothing may coalesce.
            assert r.stats["coalesced_slices"] == 0
            assert r.stats["preads"] == 8

    def test_gap_larger_than_threshold_splits(self):
        from repro.plfs.index import ReadSlice

        a = ReadSlice(0, 10, 0, 0)
        b = ReadSlice(10, 10, 0, 10 + constants.READ_COALESCE_GAP + 1)
        assert len(coalesce_plan([a, b])) == 2
        c = ReadSlice(10, 10, 0, 10 + constants.READ_COALESCE_GAP)
        assert len(coalesce_plan([a, c])) == 1

    def test_holes_never_merge(self):
        from repro.plfs.index import ReadSlice

        hole = ReadSlice(0, 10, constants.HOLE, 0)
        data = ReadSlice(10, 10, 0, 0)
        assert len(coalesce_plan([hole, data])) == 2

    def test_backwards_physical_order_never_merges(self):
        # Overwrites can order plan slices physically backwards within one
        # dropping; a "gap" that is negative must split, not pread a
        # negative span.
        from repro.plfs.index import ReadSlice

        a = ReadSlice(0, 10, 0, 100)
        b = ReadSlice(10, 10, 0, 0)
        assert len(coalesce_plan([a, b])) == 2

    def test_coalesce_disabled_matches(self, container):
        expect = write_stripes(container, droppings=3, stripe=16, rounds=2)
        with ReadFile(container, coalesce=False) as r:
            assert r.read(len(expect), 0) == expect


# ---------------------------------------------------------------------- #
# bug sweep: fd-cache bound
# ---------------------------------------------------------------------- #


class TestFdCacheBound:
    def test_more_droppings_than_cap_stays_bounded(self, container):
        """Regression: the unbounded dict exhausted RLIMIT_NOFILE on wide
        containers; the LRU must keep at most fd_cache_limit descriptors
        open while still reading correctly."""
        expect = write_stripes(container, droppings=24, stripe=4)
        with ReadFile(container, fd_cache_limit=5) as r:
            assert r.read(len(expect), 0) == expect
            assert len(r._fd_cache) <= 5
            # every cached descriptor is still alive
            for fd in r._fd_cache.values():
                os.fstat(fd)

    def test_default_cap_is_constant(self, container):
        with ReadFile(container) as r:
            assert r._fd_limit == constants.FD_CACHE_LIMIT

    def test_lru_keeps_hot_dropping(self, container):
        write_stripes(container, droppings=6, stripe=4)
        with ReadFile(container, fd_cache_limit=2) as r:
            r.read(4, 0)  # dropping 0
            r.read(4, 4)  # dropping 1
            r.read(4, 0)  # dropping 0 again: now most-recent
            r.read(4, 8)  # dropping 2: evicts dropping 1
            assert set(r._fd_cache) == {0, 2}


class TestIdleFdReaper:
    def test_reaps_only_idle_descriptors(self, container):
        write_stripes(container, droppings=3, stripe=4)
        with ReadFile(container) as r:
            r.read(4, 0)  # dropping 0
            r.read(4, 4)  # dropping 1
            # Simulate dropping 0 going idle while dropping 1 stays hot.
            r._fd_last_use[0] -= 100.0
            assert r.reap_idle_fds(30.0) == 1
            assert set(r._fd_cache) == {1}
            assert r.stats["fds_reaped"] == 1

    def test_zero_idle_empties_cache(self, container):
        write_stripes(container, droppings=4, stripe=4)
        with ReadFile(container) as r:
            expect = r.read(16, 0)
            cached = len(r._fd_cache)
            assert r.reap_idle_fds(0.0) == cached
            assert not r._fd_cache
            assert not r._fd_last_use
            # The handle stays fully usable: fds reopen transparently.
            assert r.read(16, 0) == expect

    def test_fresh_descriptors_survive(self, container):
        write_stripes(container, droppings=2, stripe=4)
        with ReadFile(container) as r:
            r.read(8, 0)
            assert r.reap_idle_fds(3600.0) == 0
            assert len(r._fd_cache) == 2

    def test_reaped_fds_are_actually_closed(self, container):
        write_stripes(container, droppings=2, stripe=4)
        with ReadFile(container) as r:
            r.read(8, 0)
            fds = list(r._fd_cache.values())
            assert r.reap_idle_fds(0.0) == 2
            for fd in fds:
                with pytest.raises(OSError):
                    os.fstat(fd)


# ---------------------------------------------------------------------- #
# bug sweep: error-path fd hygiene
# ---------------------------------------------------------------------- #


class TestFdHygiene:
    def test_close_is_idempotent(self, container):
        write_stripes(container, droppings=2)
        r = ReadFile(container)
        r.read(4, 0)
        r.close()
        r.close()
        assert r.closed

    def test_read_after_close_raises(self, container):
        write_stripes(container, droppings=2)
        r = ReadFile(container)
        r.close()
        with pytest.raises(ValueError):
            r.read(4, 0)

    def test_context_manager_closes_on_error(self, container):
        write_stripes(container, droppings=2)
        with pytest.raises(RuntimeError):
            with ReadFile(container) as r:
                r.read(4, 0)
                raise RuntimeError("boom")
        assert r.closed
        assert not r._fd_cache

    def test_corrupt_read_then_close_releases_fds(self, container):
        """Regression: a CorruptIndexError mid-plan used to strand every
        descriptor the partial read had opened."""
        expect = write_stripes(container, droppings=3, stripe=16)
        r = ReadFile(container)
        r.read(len(expect), 0)  # open fds, build index
        # Truncate one data dropping behind the index's back.
        victim = r._data_paths[1]
        with open(victim, "ab") as fh:
            fh.truncate(4)
        index_cache.invalidate(container.path)  # epoch changed anyway
        r2 = ReadFile(container, use_shared_cache=False)
        r2._index, r2._data_paths = r.index, list(r._data_paths)
        with pytest.raises(CorruptIndexError):
            r2.read(len(expect), 0)
        open_before_close = list(r2._fd_cache.values())
        r2.close()
        for fd in open_before_close:
            with pytest.raises(OSError) as ei:
                os.fstat(fd)
            assert ei.value.errno == errno.EBADF
        r.close()

    def test_del_closes_quietly(self, container):
        write_stripes(container, droppings=2)
        r = ReadFile(container)
        r.read(4, 0)
        fds = list(r._fd_cache.values())
        r.__del__()
        for fd in fds:
            with pytest.raises(OSError):
                os.fstat(fd)


# ---------------------------------------------------------------------- #
# bug sweep: cross-handle staleness through the API
# ---------------------------------------------------------------------- #


class TestCrossHandleStaleness:
    def test_getattr_sees_other_handles_flush(self, container_path):
        fd1 = plfs_open(container_path, os.O_CREAT | os.O_RDWR, pid=1)
        fd2 = plfs_open(container_path, os.O_RDWR, pid=2)
        plfs_write(fd1, b"x" * 100, offset=0, pid=1)
        from repro.plfs.api import plfs_sync

        plfs_sync(fd1)
        # fd2 never wrote; its stat must still see fd1's flushed bytes.
        assert plfs_getattr(fd2).st_size == 100
        plfs_write(fd1, b"y" * 50, offset=100, pid=1)
        plfs_sync(fd1)
        assert plfs_getattr(fd2).st_size == 150
        plfs_close(fd1, pid=1)
        plfs_close(fd2, pid=2)

    def test_read_sees_other_handles_flush(self, container_path):
        fd1 = plfs_open(container_path, os.O_CREAT | os.O_RDWR, pid=1)
        fd2 = plfs_open(container_path, os.O_RDWR, pid=2)
        plfs_write(fd1, b"first", offset=0, pid=1)
        from repro.plfs.api import plfs_sync

        plfs_sync(fd1)
        assert plfs_read(fd2, 5, 0) == b"first"
        plfs_write(fd1, b"SECOND", offset=0, pid=1)
        plfs_sync(fd1)
        assert plfs_read(fd2, 6, 0) == b"SECOND"
        plfs_close(fd1, pid=1)
        plfs_close(fd2, pid=2)


# ---------------------------------------------------------------------- #
# tools: the compact verb, check awareness
# ---------------------------------------------------------------------- #


class TestTooling:
    def test_compact_verb(self, container, capsys):
        from repro.plfs.tools import main

        write_stripes(container, droppings=3)
        assert main(["compact", container.path]) == 0
        out = capsys.readouterr().out
        assert "segments" in out
        assert os.path.exists(container.global_index_path())
        assert load_index(container).source == "compacted"

    def test_check_warns_on_stale_compacted(self, container):
        from repro.plfs.tools import plfs_check

        write_stripes(container, droppings=2)
        compact(container)
        w = WriteFile(container)
        w.write(b"new", 1000, pid=42)
        w.close()
        report = plfs_check(container.path)
        assert report.ok  # staleness is a warning, never a problem
        assert any("stale" in w for w in report.warnings)

    def test_check_warns_on_corrupt_compacted(self, container):
        from repro.plfs.tools import plfs_check

        write_stripes(container, droppings=2)
        compact(container)
        with open(container.global_index_path(), "wb") as fh:
            fh.write(b"garbage")
        report = plfs_check(container.path)
        assert report.ok
        assert any("unreadable" in w for w in report.warnings)

    def test_check_silent_on_fresh_compacted(self, container):
        from repro.plfs.tools import plfs_check

        write_stripes(container, droppings=2)
        compact(container)
        report = plfs_check(container.path)
        assert report.ok and not report.warnings
