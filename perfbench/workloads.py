"""The three benchmark workloads, written as unmodified POSIX applications.

Each workload is a closed loop from one application thread: it issues one
``os.*`` call, waits for it, and issues the next.  A workload is a pair of
functions:

- ``spec(seed, round_no)`` builds one round's op stream from the seed alone
  (sizes, offsets, payload bytes), so the same seed always yields the same
  stream and :func:`digest` of it;
- ``run(spec, rec, root, tamper)`` performs that round against the logical
  directory *root* (under the PLFS mount) and checks every byte it reads
  back, every ``stat`` size and every ``listdir`` count through *rec*.

Every round also creates, appends, writes, reads and stats, so each
end-to-end metric is measured on every workload; the workloads differ in
which of those calls dominate and therefore which layers they stress.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from collections import defaultdict
from dataclasses import dataclass

_CREATE = os.O_WRONLY | os.O_CREAT
_APPEND = os.O_WRONLY | os.O_CREAT | os.O_APPEND

# small_posix: one round of a BT-style / log-writing application
SMALL_WRITES = 512  # cursor writes plus appends per round
SMALL_APPEND_SHARE = 0.2
SMALL_FILES = 16  # closed one-dropping files per round
SMALL_MIN, SMALL_MAX = 64, 4096

# n1_checkpoint: R ranks x S steps reopenings -> R*S = 64 droppings
N1_RANKS = 8
N1_STEPS = 8
N1_RECORDS = 4  # records per rank per step
N1_RECORD = 64 * 1024
N1_JITTER = 4 * 1024
N1_READ = 1 << 20

# create_storm_plfsd: tiny files created through the daemon's metadata path
STORM_FILES = 128
STORM_BATCH = 16  # files per manifest append

TINY_MIN, TINY_MAX = 16, 512  # tiny files and checkpoint markers


class CallFailed(Exception):
    """An application call raised; the round stops at that call."""


class Recorder:
    """Times and counts every application call, and every check's outcome.

    Latencies are kept per call kind; calls, time and bytes are also kept
    per round so throughput can be reported as a median over rounds.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.samples: dict[str, list[int]] = defaultdict(list)
        self.rounds: list[dict] = []
        self.last_ns = 0
        self._round: dict | None = None

    def start_round(self) -> None:
        self._round = {
            "calls": 0,
            "ns": 0,
            "bytes": defaultdict(int),
            "kind_ns": defaultdict(int),
            "first": {kind: len(v) for kind, v in self.samples.items()},
        }

    def end_round(self) -> None:
        self._round["last"] = {kind: len(v) for kind, v in self.samples.items()}
        self.rounds.append(self._round)
        self._round = None

    def round_samples(self, rnd: dict, kind: str) -> list[int]:
        """The *kind* latencies recorded during round *rnd*."""
        return self.samples[kind][rnd["first"].get(kind, 0) : rnd["last"].get(kind, 0)]

    def call(self, kind: str, fn, *args, tag=None):
        """Run one application call, timing it under *kind*."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(kind, tag)
        clock = time.perf_counter_ns
        start = clock()
        try:
            out = fn(*args)
        except OSError as exc:
            self.failed += 1
            self.mismatches.append(f"{kind}: {exc!r}")
            raise CallFailed(kind) from exc
        elapsed = clock() - start
        self.last_ns = elapsed
        self.samples[kind].append(elapsed)
        rnd = self._round
        rnd["calls"] += 1
        rnd["ns"] += elapsed
        rnd["kind_ns"][kind] += elapsed
        return out

    def moved(self, kind: str, nbytes: int) -> None:
        """Credit *nbytes* of payload to the last *kind* call."""
        self._round["bytes"][kind] += nbytes

    def check(self, ok: bool, what: str, calls: int = 1) -> None:
        """Count *calls* as failed when a result is wrong."""
        if not ok:
            self.failed += calls
            self.mismatches.append(what)

    # -- composite calls ------------------------------------------------ #

    def write(self, kind: str, fd: int, data, offset: int | None = None) -> None:
        if offset is None:
            n = self.call(kind, os.write, fd, data)
        else:
            n = self.call(kind, os.pwrite, fd, data, offset)
        self.moved(kind, n)
        self.check(n == len(data), f"{kind}: short write {n} of {len(data)}")

    def create(self, path: str, data) -> None:
        """open(O_CREAT) + write + close, also timed as one ``create``."""
        fd = self.call("open", os.open, path, _CREATE, 0o644)
        elapsed = self.last_ns
        self.write("write", fd, data)
        elapsed += self.last_ns
        self.call("close", os.close, fd)
        self.samples["create"].append(elapsed + self.last_ns)

    def read_all(self, fd: int, sizes: list[int], expect: bytes, what: str) -> None:
        """``os.read`` with the given chunk sizes until EOF; sha256-check."""
        got = hashlib.sha256()
        total = 0
        calls = 0
        while True:
            chunk = self.call("read", os.read, fd, sizes[calls % len(sizes)])
            calls += 1
            if not chunk:
                break
            self.moved("read", len(chunk))
            got.update(chunk)
            total += len(chunk)
            if total > len(expect):
                break
        self.check(
            total == len(expect) and got.digest() == hashlib.sha256(expect).digest(),
            f"{what}: read back {total} bytes that differ from the {len(expect)} written",
            calls,
        )

    def stat_size(self, path_or_fd, expect: int, what: str) -> None:
        fn = os.fstat if isinstance(path_or_fd, int) else os.stat
        st = self.call("stat", fn, path_or_fd)
        self.check(st.st_size == expect, f"{what}: st_size {st.st_size} != {expect}")

    def listdir_count(self, path: str, expect: int) -> None:
        names = self.call("listdir", os.listdir, path)
        self.check(len(names) == expect, f"listdir {path}: {len(names)} entries != {expect}")


def digest(spec) -> str:
    """sha256 of a round's op stream: its layout and its payload bytes."""
    h = hashlib.sha256()
    h.update(repr(spec.layout()).encode())
    for blob in spec.payloads():
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def _rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


# ---------------------------------------------------------------------- #
# small_posix
# ---------------------------------------------------------------------- #


@dataclass
class SmallSpec:
    ops: list[tuple[bool, int]]  # (is_append, size)
    read_sizes: list[int]
    file_sizes: list[int]
    data: bytes
    log: bytes
    files: bytes

    def layout(self):
        return (self.ops, self.read_sizes, self.file_sizes)

    def payloads(self):
        return (self.data, self.log, self.files)

    def write_stream(self):
        """(file key, offset or None for the cursor, bytes) per cursor write."""
        view, pos = memoryview(self.data), 0
        for is_append, size in self.ops:
            if not is_append:
                yield "data", None, view[pos : pos + size]
                pos += size


def small_spec(seed: int, round_no: int) -> SmallSpec:
    rng = _rng("small_posix", seed, round_no)
    ops = [
        (rng.random() < SMALL_APPEND_SHARE, rng.randint(SMALL_MIN, SMALL_MAX))
        for _ in range(SMALL_WRITES)
    ]
    data_len = sum(size for is_append, size in ops if not is_append)
    log_len = sum(size for is_append, size in ops if is_append)
    read_sizes = [rng.randint(SMALL_MIN, SMALL_MAX) for _ in range(64)]
    file_sizes = [rng.randint(SMALL_MIN, SMALL_MAX) for _ in range(SMALL_FILES)]
    return SmallSpec(
        ops,
        read_sizes,
        file_sizes,
        rng.randbytes(data_len),
        rng.randbytes(log_len),
        rng.randbytes(sum(file_sizes)),
    )


def small_run(spec: SmallSpec, rec: Recorder, root: str, tamper=None) -> None:
    rec.call("mkdir", os.mkdir, root)
    data_path, log_path = f"{root}/data", f"{root}/log"
    fd = rec.call("open", os.open, data_path, os.O_RDWR | os.O_CREAT, 0o644)
    log = rec.call("open", os.open, log_path, _APPEND, 0o644)
    data, logbuf = memoryview(spec.data), memoryview(spec.log)
    pos_data = pos_log = 0
    for is_append, size in spec.ops:
        if is_append:
            rec.write("append", log, logbuf[pos_log : pos_log + size])
            pos_log += size
        else:
            rec.write("write", fd, data[pos_data : pos_data + size])
            pos_data += size
    if tamper is not None:
        tamper()
    rec.call("seek", os.lseek, fd, 0, os.SEEK_SET)
    rec.read_all(fd, spec.read_sizes, spec.data, data_path)
    rec.call("close", os.close, fd)
    rec.call("close", os.close, log)
    log = rec.call("open", os.open, log_path, os.O_RDONLY)
    rec.read_all(log, spec.read_sizes, spec.log, log_path)
    rec.call("close", os.close, log)
    files, pos = memoryview(spec.files), 0
    for j, size in enumerate(spec.file_sizes):
        rec.create(f"{root}/f{j}", files[pos : pos + size])
        pos += size
    for j, size in enumerate(spec.file_sizes):
        rec.stat_size(f"{root}/f{j}", size, f"{root}/f{j}")
    rec.listdir_count(root, 2 + len(spec.file_sizes))


# ---------------------------------------------------------------------- #
# n1_checkpoint
# ---------------------------------------------------------------------- #


@dataclass
class N1Spec:
    #: per step, per record round, the rank issue order and each rank's
    #: (offset, size) slot of the shared file
    steps: list[list[list[tuple[int, int, int]]]]
    marker_sizes: list[int]
    data: bytes
    markers: bytes

    def layout(self):
        return (self.steps, self.marker_sizes)

    def payloads(self):
        return (self.data, self.markers)

    def log_lines(self) -> list[bytes]:
        return [f"step {s} committed\n".encode() for s in range(len(self.steps))]

    def write_stream(self):
        view = memoryview(self.data)
        for step in self.steps:
            for record_round in step:
                for _, offset, size in record_round:
                    yield "ckpt", offset, view[offset : offset + size]


def n1_spec(seed: int, round_no: int) -> N1Spec:
    rng = _rng("n1_checkpoint", seed, round_no)
    steps, offset = [], 0
    for _ in range(N1_STEPS):
        step = []
        for _ in range(N1_RECORDS):
            slots = []
            for rank in range(N1_RANKS):
                size = N1_RECORD + 8 * rng.randint(-N1_JITTER // 8, N1_JITTER // 8)
                slots.append((rank, offset, size))
                offset += size
            rng.shuffle(slots)  # ranks reach the write in a seeded order
            step.append(slots)
        steps.append(step)
    marker_sizes = [rng.randint(TINY_MIN, TINY_MAX) for _ in range(N1_STEPS)]
    return N1Spec(steps, marker_sizes, rng.randbytes(offset), rng.randbytes(sum(marker_sizes)))


def n1_run(spec: N1Spec, rec: Recorder, root: str, tamper=None) -> None:
    rec.call("mkdir", os.mkdir, root)
    path, log_path = f"{root}/ckpt", f"{root}/restart.log"
    log = rec.call("open", os.open, log_path, _APPEND, 0o644)
    data = memoryview(spec.data)
    markers, marker_pos = memoryview(spec.markers), 0
    lines = spec.log_lines()
    end_before = 0
    for s, step in enumerate(spec.steps):
        flags = os.O_WRONLY | (os.O_CREAT if s == 0 else 0)
        fds = [rec.call("open", os.open, path, flags, 0o644) for _ in range(N1_RANKS)]
        own_end = [end_before] * N1_RANKS
        for record_round in step:
            for rank, offset, size in record_round:
                rec.write("write", fds[rank], data[offset : offset + size], offset)
                own_end[rank] = max(own_end[rank], offset + size)
        step_end = max(own_end)
        for rank, fd in enumerate(fds):
            # HDF5-style EOF query with every writer still open: a handle
            # must see at least its own writes plus all closed steps, and
            # never more than the file holds.
            st = rec.call("stat", os.fstat, fd, tag=s)
            rec.check(
                own_end[rank] <= st.st_size <= step_end,
                f"{path} step {s} rank {rank}: fstat size {st.st_size} outside "
                f"[{own_end[rank]}, {step_end}]",
            )
        for fd in fds:
            rec.call("close", os.close, fd)
        end_before = step_end
        rec.write("append", log, lines[s])
        size = spec.marker_sizes[s]
        rec.create(f"{root}/ckpt.{s}.done", markers[marker_pos : marker_pos + size])
        marker_pos += size
    rec.call("close", os.close, log)
    if tamper is not None:
        tamper()
    fd = rec.call("open", os.open, path, os.O_RDONLY)
    rec.read_all(fd, [N1_READ], spec.data, path)
    rec.call("close", os.close, fd)
    rec.stat_size(path, len(spec.data), path)
    for s, size in enumerate(spec.marker_sizes):
        rec.stat_size(f"{root}/ckpt.{s}.done", size, f"marker {s}")
    fd = rec.call("open", os.open, log_path, os.O_RDONLY)
    rec.read_all(fd, [4096], b"".join(lines), log_path)
    rec.call("close", os.close, fd)
    rec.listdir_count(root, 2 + len(spec.steps))


# ---------------------------------------------------------------------- #
# create_storm_plfsd
# ---------------------------------------------------------------------- #


@dataclass
class StormSpec:
    sizes: list[int]
    data: bytes

    def layout(self):
        return (self.sizes, STORM_BATCH)

    def payloads(self):
        return (self.data,)

    def files(self):
        view, pos = memoryview(self.data), 0
        for size in self.sizes:
            yield view[pos : pos + size]
            pos += size

    def manifest(self) -> list[bytes]:
        names = [f"f{j}" for j in range(len(self.sizes))]
        return [
            (" ".join(names[i : i + STORM_BATCH]) + "\n").encode()
            for i in range(0, len(names), STORM_BATCH)
        ]

    def write_stream(self):
        for j, data in enumerate(self.files()):
            yield f"f{j}", None, data


def storm_spec(seed: int, round_no: int) -> StormSpec:
    rng = _rng("create_storm_plfsd", seed, round_no)
    sizes = [rng.randint(TINY_MIN, TINY_MAX) for _ in range(STORM_FILES)]
    return StormSpec(sizes, rng.randbytes(sum(sizes)))


def storm_run(spec: StormSpec, rec: Recorder, root: str, tamper=None) -> None:
    rec.call("mkdir", os.mkdir, root)
    manifest_path = f"{root}/manifest"
    lines = spec.manifest()
    manifest = rec.call("open", os.open, manifest_path, _APPEND, 0o644)
    for j, data in enumerate(spec.files()):
        rec.create(f"{root}/f{j}", data)
        if (j + 1) % STORM_BATCH == 0:
            rec.write("append", manifest, lines[j // STORM_BATCH])
    rec.call("close", os.close, manifest)
    if tamper is not None:
        tamper()
    for j, size in enumerate(spec.sizes):
        rec.stat_size(f"{root}/f{j}", size, f"{root}/f{j}")
    for j, data in enumerate(spec.files()):
        fd = rec.call("open", os.open, f"{root}/f{j}", os.O_RDONLY)
        got = rec.call("read", os.read, fd, TINY_MAX)
        rec.moved("read", len(got))
        rec.check(
            hashlib.sha256(got).digest() == hashlib.sha256(data).digest(),
            f"{root}/f{j}: read back differs from what was written",
        )
        rec.call("close", os.close, fd)
    fd = rec.call("open", os.open, manifest_path, os.O_RDONLY)
    rec.read_all(fd, [4096], b"".join(lines), manifest_path)
    rec.call("close", os.close, fd)
    rec.listdir_count(root, len(spec.sizes) + 1)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: object
    run: object
    #: route the mount through a plfsd daemon
    daemon: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small_posix", small_spec, small_run, daemon=False),
        Workload("n1_checkpoint", n1_spec, n1_run, daemon=False),
        Workload("create_storm_plfsd", storm_spec, storm_run, daemon=True),
    )
}
