"""PLFS index records, droppings and the global (flattened) index.

Every write into a PLFS container appends the payload to a *data dropping*
and one fixed-size record to the sibling *index dropping*.  A record maps a
logical extent of the file onto a physical extent of one data dropping:

    [logical_offset, logical_offset + length)
        -> data dropping ``dropping`` at [physical_offset, physical_offset + length)

Reads require the *global index*: the union of all records from all index
droppings, with overlaps resolved in favour of the most recent write (by the
record's completion timestamp).  This module stores records as a NumPy
structured array, resolves overlaps with a sweep over an ordered extent map,
and answers range queries with ``np.searchsorted`` over the flattened,
non-overlapping extents — the vectorised formulation recommended by the
project's performance guides.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import constants
from .errors import CorruptIndexError

#: On-disk/in-memory layout of one index record.  ``dropping`` is the id of
#: the data dropping *within one index dropping's scope* when on disk (always
#: 0 today: one index dropping describes exactly one data dropping, as in
#: PLFS); after loading, it is rewritten to a global dropping id.
INDEX_DTYPE = np.dtype(
    [
        ("logical_offset", "<u8"),
        ("physical_offset", "<u8"),
        ("length", "<u8"),
        ("dropping", "<i8"),
        ("pid", "<i8"),
        ("timestamp", "<f8"),
    ]
)

RECORD_SIZE = INDEX_DTYPE.itemsize


def pack_records(records: np.ndarray) -> bytes:
    """Serialise a structured record array to the on-disk byte format."""
    if records.dtype != INDEX_DTYPE:
        records = records.astype(INDEX_DTYPE)
    return records.tobytes()


def parse_records(data: bytes, *, source: str = "<memory>") -> np.ndarray:
    """Parse raw index dropping bytes into a structured record array.

    Raises :class:`CorruptIndexError` if the byte count is not a whole number
    of records.
    """
    if len(data) % RECORD_SIZE:
        raise CorruptIndexError(
            f"index dropping {source} is {len(data)} bytes, "
            f"not a multiple of the {RECORD_SIZE}-byte record size"
        )
    # Copy so the result owns its memory (the input buffer may be mmapped or
    # reused by the caller).
    return np.frombuffer(data, dtype=INDEX_DTYPE).copy()


def split_torn(data: bytes) -> tuple[np.ndarray, int]:
    """Parse as many whole records as *data* holds, tolerating a torn tail.

    A crash mid-flush (or mid-WAL-append) leaves an index dropping whose
    byte count is not a multiple of the record size; the prefix of whole
    records is still sound because records are appended atomically in
    memory and sequentially on disk.  Returns ``(records, torn_bytes)``
    where *torn_bytes* is the length of the discarded partial tail.
    """
    torn = len(data) % RECORD_SIZE
    whole = data[: len(data) - torn] if torn else data
    return np.frombuffer(whole, dtype=INDEX_DTYPE).copy(), torn


def clip_to_physical(records: np.ndarray, data_size: int) -> tuple[np.ndarray, int]:
    """Clip *records* to the bytes a data dropping actually holds.

    Recovery reconciliation: a record (from a WAL or an index dropping)
    may promise bytes past the end of its data dropping — the write was
    torn, or never happened before the crash.  Records are physically
    sequential within one dropping, so each record's true extent is
    bounded below by the next record's start and by *data_size*.  Returns
    ``(clipped_records, lost_bytes)`` where *lost_bytes* counts promised
    bytes that never reached the dropping.
    """
    if records.shape[0] == 0:
        return records, 0
    out = records.copy()
    lost = 0
    keep = np.ones(out.shape[0], dtype=bool)
    for i in range(out.shape[0]):
        start = int(out[i]["physical_offset"])
        promised = int(out[i]["length"])
        if i + 1 < out.shape[0]:
            bound = min(int(out[i + 1]["physical_offset"]), data_size)
        else:
            bound = data_size
        actual = max(0, min(promised, bound - start))
        if actual < promised:
            lost += promised - actual
        if actual == 0:
            keep[i] = False
        else:
            out[i]["length"] = actual
    return out[keep], lost


def read_index_dropping(path: str) -> np.ndarray:
    """Read and parse one index dropping file."""
    with open(path, "rb") as fh:
        return parse_records(fh.read(), source=path)


@dataclass(frozen=True)
class ReadSlice:
    """One contiguous piece of a read plan.

    ``dropping`` is a global data-dropping id, or :data:`constants.HOLE` for
    a region no write ever covered (reads back as zeros).
    """

    logical_offset: int
    length: int
    dropping: int
    physical_offset: int

    @property
    def is_hole(self) -> bool:
        return self.dropping == constants.HOLE


class ExtentMap:
    """Ordered map of non-overlapping logical extents.

    Supports "assign" semantics: inserting an extent overwrites any part of
    older extents it overlaps, splitting them as needed — exactly the
    resolution rule of the PLFS global index (later writes shadow earlier
    ones).  Backed by three parallel Python lists kept sorted by start
    offset; inserts are O(log n + k) for k displaced segments.
    """

    __slots__ = ("_starts", "_ends", "_payloads")

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        # payload = (dropping, physical_offset at segment start)
        self._payloads: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._starts)

    def assign(self, start: int, end: int, dropping: int, physical_offset: int) -> None:
        """Map [start, end) to *dropping* at *physical_offset*, shadowing
        whatever was there before."""
        if end <= start:
            return
        starts, ends, payloads = self._starts, self._ends, self._payloads

        # Find the window of existing segments that overlap [start, end).
        # First segment whose end is > start:
        lo = bisect_right(ends, start)
        # First segment whose start is >= end:
        hi = bisect_left(starts, end, lo=lo)

        replacement_starts: list[int] = []
        replacement_ends: list[int] = []
        replacement_payloads: list[tuple[int, int]] = []

        if lo < hi:
            # Left fragment of the first overlapped segment survives.
            if starts[lo] < start:
                replacement_starts.append(starts[lo])
                replacement_ends.append(start)
                replacement_payloads.append(payloads[lo])
            # Right fragment of the last overlapped segment survives, with
            # its physical offset advanced by the clipped amount.
            last = hi - 1
            if ends[last] > end:
                drop, phys = payloads[last]
                replacement_starts.append(end)
                replacement_ends.append(ends[last])
                replacement_payloads.append((drop, phys + (end - starts[last])))

        # Insert the new segment in order.
        insert_at = len(replacement_starts) - (1 if replacement_starts and replacement_starts[-1] == end else 0)
        replacement_starts.insert(insert_at, start)
        replacement_ends.insert(insert_at, end)
        replacement_payloads.insert(insert_at, (dropping, physical_offset))

        starts[lo:hi] = replacement_starts
        ends[lo:hi] = replacement_ends
        payloads[lo:hi] = replacement_payloads

    def extent_end(self) -> int:
        """Logical size implied by the map (end of the last extent)."""
        return self._ends[-1] if self._ends else 0

    def segments(self) -> list[tuple[int, int, int, int]]:
        """All segments as (start, end, dropping, physical_offset) tuples."""
        return [
            (s, e, p[0], p[1])
            for s, e, p in zip(self._starts, self._ends, self._payloads)
        ]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Segments as parallel NumPy arrays (starts, ends, droppings, phys)."""
        n = len(self._starts)
        starts = np.fromiter(self._starts, dtype=np.int64, count=n)
        ends = np.fromiter(self._ends, dtype=np.int64, count=n)
        drops = np.fromiter((p[0] for p in self._payloads), dtype=np.int64, count=n)
        phys = np.fromiter((p[1] for p in self._payloads), dtype=np.int64, count=n)
        return starts, ends, drops, phys


class GlobalIndex:
    """The flattened, queryable index of one logical PLFS file.

    Built from any number of record arrays (one per index dropping, plus any
    not-yet-flushed in-memory records of open writers).  Records are merged
    in timestamp order so later writes shadow earlier ones, then frozen into
    sorted NumPy arrays for O(log n) range queries.
    """

    def __init__(self, record_arrays: list[np.ndarray] | None = None):
        self._map = ExtentMap()
        self._frozen: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        if record_arrays:
            self.add_records(np.concatenate(record_arrays) if len(record_arrays) > 1 else record_arrays[0])

    @classmethod
    def from_flat_segments(
        cls,
        starts: np.ndarray,
        ends: np.ndarray,
        droppings: np.ndarray,
        physical_offsets: np.ndarray,
    ) -> "GlobalIndex":
        """Build directly from already-flattened, sorted, non-overlapping
        segments (a compacted global index), skipping the merge sweep.

        The caller guarantees the invariants the sweep would otherwise
        establish; nothing here re-checks them beyond monotonicity.
        """
        idx = cls()
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        droppings = np.asarray(droppings, dtype=np.int64)
        physical_offsets = np.asarray(physical_offsets, dtype=np.int64)
        if starts.size and (
            np.any(starts[1:] < ends[:-1]) or np.any(ends <= starts)
        ):
            raise CorruptIndexError(
                "compacted segments are not sorted and non-overlapping"
            )
        m = idx._map
        m._starts = starts.tolist()
        m._ends = ends.tolist()
        m._payloads = list(zip(droppings.tolist(), physical_offsets.tolist()))
        idx._frozen = (starts, ends, droppings, physical_offsets)
        return idx

    def add_records(self, records: np.ndarray) -> None:
        """Merge *records* (with global dropping ids) into the index."""
        if records.size == 0:
            return
        self._frozen = None
        # Stable sort by completion timestamp: later records must be applied
        # last so they shadow earlier ones.  kind="stable" preserves the
        # append order of records with equal timestamps from one dropping.
        order = np.argsort(records["timestamp"], kind="stable")
        recs = records[order]
        assign = self._map.assign
        lo = recs["logical_offset"].astype(np.int64)
        ln = recs["length"].astype(np.int64)
        po = recs["physical_offset"].astype(np.int64)
        dr = recs["dropping"]
        for i in range(recs.shape[0]):
            assign(int(lo[i]), int(lo[i] + ln[i]), int(dr[i]), int(po[i]))

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._frozen is None:
            self._frozen = self._map.as_arrays()
        return self._frozen

    @property
    def logical_size(self) -> int:
        """Size of the logical file: one past the last written byte."""
        return self._map.extent_end()

    def __len__(self) -> int:
        return len(self._map)

    def query(self, offset: int, length: int) -> list[ReadSlice]:
        """Plan a read of [offset, offset+length).

        Returns contiguous :class:`ReadSlice` pieces covering the requested
        range up to the logical file size; regions never written are returned
        as holes.  The plan never extends past ``logical_size`` (a read at or
        beyond EOF returns an empty plan, mirroring ``read(2)``).
        """
        if length <= 0:
            return []
        size = self.logical_size
        if offset >= size:
            return []
        end = min(offset + length, size)

        starts, ends, drops, phys = self._arrays()
        # Batched lookup: locate the whole window of overlapping segments
        # with two bisections, clip them against [offset, end) vectorised,
        # and convert to Python ints in bulk — the per-slice loop below
        # only assembles ReadSlice objects and interleaves holes.
        lo = int(np.searchsorted(ends, offset, side="right"))
        hi = int(np.searchsorted(starts, end, side="left"))
        clip_s = np.maximum(starts[lo:hi], offset).tolist()
        clip_e = np.minimum(ends[lo:hi], end).tolist()
        adj_p = (phys[lo:hi] + (np.maximum(starts[lo:hi], offset) - starts[lo:hi])).tolist()
        drop_l = drops[lo:hi].tolist()

        plan: list[ReadSlice] = []
        pos = offset
        for s, e, d, p in zip(clip_s, clip_e, drop_l, adj_p):
            if s > pos:
                plan.append(ReadSlice(pos, s - pos, constants.HOLE, 0))
            plan.append(ReadSlice(s, e - s, d, p))
            pos = e
        if pos < end:
            plan.append(ReadSlice(pos, end - pos, constants.HOLE, 0))
        return plan

    def segments(self) -> list[tuple[int, int, int, int]]:
        """Expose the flattened extents (for compaction and inspection)."""
        return self._map.segments()


def load_global_index(
    droppings: list[tuple[str, str]],
    extra_records: list[tuple[np.ndarray, int]] | None = None,
) -> tuple[GlobalIndex, list[str]]:
    """Build a :class:`GlobalIndex` from container droppings.

    ``droppings`` is a list of (index_path, data_path) pairs; ``data_path``
    receives global dropping id = its position in the returned list.
    ``extra_records`` optionally supplies in-memory record arrays (from open
    writers) already tagged with a data path index into the same list via the
    accompanying int.

    Returns (index, data_paths) where ``data_paths[i]`` is the file to pread
    for slices with ``dropping == i``.
    """
    arrays: list[np.ndarray] = []
    data_paths: list[str] = []
    for global_id, (index_path, data_path) in enumerate(droppings):
        data_paths.append(data_path)
        if not os.path.exists(index_path):
            continue
        recs = read_index_dropping(index_path)
        if recs.size:
            recs["dropping"] = global_id
            arrays.append(recs)
    if extra_records:
        for recs, global_id in extra_records:
            if recs.size:
                recs = recs.copy()
                recs["dropping"] = global_id
                arrays.append(recs)
    return GlobalIndex(arrays), data_paths


# ---------------------------------------------------------------------- #
# persistent compacted global index
# ---------------------------------------------------------------------- #

def pack_compacted(
    segments: list[tuple[int, int, int, int]],
    droppings: int,
    epoch: str,
    logical_size: int,
) -> bytes:
    """Serialise a flattened global index to the ``global.index`` format.

    Layout: one JSON header line (magic, version, container epoch, record
    count, dropping count, logical size), then ``records`` packed
    :data:`INDEX_DTYPE` entries holding the non-overlapping segments
    sorted by logical offset.  ``pid`` and ``timestamp`` are zeroed: a
    compacted index has no recency to resolve.  A record's ``dropping``
    is a position in the container's ordered dropping list
    (:meth:`~repro.plfs.container.Container.droppings`): the epoch fixes
    that list, so the file names no path, host or pid and stays valid
    when the container is renamed.
    """
    recs = np.zeros(len(segments), dtype=INDEX_DTYPE)
    for i, (start, end, dropping, phys) in enumerate(segments):
        recs[i]["logical_offset"] = start
        recs[i]["length"] = end - start
        recs[i]["dropping"] = dropping
        recs[i]["physical_offset"] = phys
    header = json.dumps(
        {
            "magic": constants.GLOBAL_INDEX_MAGIC,
            "version": constants.GLOBAL_INDEX_VERSION,
            "epoch": epoch,
            "records": len(segments),
            "droppings": droppings,
            "logical_size": logical_size,
        },
        sort_keys=True,
    )
    return header.encode() + b"\n" + pack_records(recs)


def parse_compacted(
    data: bytes, *, source: str = "<memory>"
) -> tuple[np.ndarray, int, str, int]:
    """Parse a compacted global index; the inverse of :func:`pack_compacted`.

    Returns ``(records, droppings, epoch, logical_size)``.  Raises
    :class:`CorruptIndexError` on any malformation — callers treat that as
    "no compacted index" and fall back to merging droppings.
    """
    head, sep, body = data.partition(b"\n")
    if not sep:
        raise CorruptIndexError(f"compacted index {source}: missing header")
    try:
        header = json.loads(head.decode())
    except (UnicodeDecodeError, ValueError) as exc:
        raise CorruptIndexError(
            f"compacted index {source}: unparsable header ({exc})"
        ) from None
    if (
        not isinstance(header, dict)
        or header.get("magic") != constants.GLOBAL_INDEX_MAGIC
        or header.get("version") != constants.GLOBAL_INDEX_VERSION
    ):
        raise CorruptIndexError(
            f"compacted index {source}: bad magic or unsupported version"
        )
    count = header.get("records")
    droppings = header.get("droppings")
    epoch = header.get("epoch")
    size = header.get("logical_size", 0)
    if (
        not isinstance(count, int)
        or not isinstance(droppings, int)
        or not isinstance(epoch, str)
        or not isinstance(size, int)
    ):
        raise CorruptIndexError(f"compacted index {source}: malformed header")
    if len(body) != count * RECORD_SIZE:
        raise CorruptIndexError(
            f"compacted index {source}: body is {len(body)} bytes, "
            f"expected {count} records of {RECORD_SIZE} bytes"
        )
    records = parse_records(body, source=source)
    if records.size and int(records["dropping"].max()) >= droppings:
        raise CorruptIndexError(
            f"compacted index {source}: record references a dropping id "
            "past the dropping count"
        )
    return records, droppings, epoch, size


def index_from_compacted(records: np.ndarray) -> GlobalIndex:
    """Rehydrate a :class:`GlobalIndex` from compacted records."""
    starts = records["logical_offset"].astype(np.int64)
    ends = starts + records["length"].astype(np.int64)
    return GlobalIndex.from_flat_segments(
        starts, ends, records["dropping"].astype(np.int64),
        records["physical_offset"].astype(np.int64),
    )


def make_record(
    logical_offset: int,
    physical_offset: int,
    length: int,
    pid: int,
    timestamp: float,
    dropping: int = 0,
) -> np.ndarray:
    """Build a single-record array (convenience for writers and tests)."""
    rec = np.zeros(1, dtype=INDEX_DTYPE)
    rec["logical_offset"] = logical_offset
    rec["physical_offset"] = physical_offset
    rec["length"] = length
    rec["dropping"] = dropping
    rec["pid"] = pid
    rec["timestamp"] = timestamp
    return rec
