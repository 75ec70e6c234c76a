"""Layer spans for the traced benchmark run.

The traced run measures each layer from outside the program: it wraps the
public entry points of every layer (the ``os`` functions the interposer bound
to its ``Shim``, ``plfs.api``, the writer, reader, index cache, container,
backing store and plfsd client) and records one span per call.  A span is
``(id, layer, name, start_ns, end_ns, parent_id, op_id, failed)``; spans of
one application call share its op id.  Spans stay in memory and are written
out once, when the run ends.

Install order matters and is enforced: the shim wrappers wrap what the
interposer put into ``os``, so :meth:`Tracer.install` must run after the
interposer is installed and :meth:`Tracer.remove` before it uninstalls.
"""

from __future__ import annotations

import builtins
import gzip
import io
import os
import time
from collections import Counter

#: layer names, in the order the ledger reports them
LAYERS = ("shim", "api", "writer", "reader", "cache", "container", "backing", "plfsd")

#: span tuple field positions
ID, LAYER, NAME, START, END, PARENT, OP, FAILED = range(8)

NO_PARENT = -1

_WRITER_METHODS = ("write", "append_many", "sync", "flush_indexes", "close")
_READER_METHODS = ("read", "read_into", "close")
_CONTAINER_METHODS = ("index_epoch", "getattr", "create")
_CLIENT_METHODS = (
    "open",
    "open_delegated",
    "create",
    "unlink",
    "write",
    "write_many",
    "read",
    "sync",
    "getattr",
    "trunc",
    "close_handle",
)
_REMOTE_FD_METHODS = ("write", "writev", "read", "read_into", "sync", "getattr", "trunc", "close")
#: client calls that are exactly one request/reply on the daemon socket
RTT_CALLS = frozenset(
    f"PlfsdClient.{m}"
    for m in ("open", "create", "unlink", "read", "sync", "getattr", "trunc", "close_handle")
)


def _nbytes(buf) -> int:
    return memoryview(buf).nbytes


#: BackingStore method -> bytes it persists, from its arguments
_BACKING_BYTES = {
    "write_data": lambda a: _nbytes(a[2]),
    "write_datav": lambda a: sum(_nbytes(b) for b in a[2]),
    "append_index": lambda a: _nbytes(a[2]),
    "write_wal": lambda a: _nbytes(a[2]),
    "write_global_index": lambda a: _nbytes(a[2]),
    "put_blob": lambda a: _nbytes(a[2]),
    "write_part": lambda a: _nbytes(a[2]),
    "commit_key": lambda a: _nbytes(a[2]),
}


def _public_methods(cls, names=None):
    if names is None:
        names = [n for n, v in vars(cls).items() if callable(v) and not n.startswith("_")]
    return [n for n in names if callable(vars(cls).get(n))]


class Tracer:
    """Records spans at layer boundaries while :attr:`active` is true."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.active = False
        #: op id -> (kind, tag) of the application call it belongs to
        self.ops: list[tuple[str, object]] = []
        self.op_id = -1
        #: bytes handed to BackingStore write methods
        self.backing_bytes = 0
        #: WriteFile / ReadFile ``stats`` summed over handles, taken after close
        self.writer_stats: Counter = Counter()
        self.reader_stats: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------------ #
    # application ops
    # ------------------------------------------------------------------ #

    def begin_op(self, kind: str, tag=None) -> None:
        """Mark the start of one application call; later spans carry its id."""
        self.ops.append((kind, tag))
        self.op_id = len(self.ops) - 1

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #

    def wrap(self, layer: str, name: str, fn, pre=None):
        """A function that calls *fn* and records a span around it.

        *pre*, when given, sees the call's positional arguments first (for
        byte and stats accounting) and may return a function to run once the
        call has returned; neither is timed.
        """
        tracer = self
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            post = pre(args) if pre is not None else None
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else NO_PARENT
            stack.append(sid)
            failed = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, layer, name, start, end, parent, tracer.op_id, failed))
                if post is not None:
                    post()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, layer: str, name: str, pre=None) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self.wrap(layer, name, original, pre)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def install(self, interposer) -> "Tracer":
        """Wrap every layer's public entry points (interposer installed)."""
        if not interposer.installed:
            raise RuntimeError("install the interposer before the tracer")
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.plfs import api, backing, cache, container, reader, writer
        from repro.plfsd import client

        shim = interposer.shim
        for attr in sorted(dir(os)):
            if getattr(getattr(os, attr), "__self__", None) is shim:
                self._patch(os, attr, "shim", f"os.{attr}")
        for owner in (builtins, io):
            if getattr(owner.open, "__self__", None) is shim:
                self._patch(owner, "open", "shim", "open")
        for attr in sorted(dir(api)):
            fn = getattr(api, attr)
            if attr.startswith("plfs_") and getattr(fn, "__module__", None) == api.__name__:
                self._patch(api, attr, "api", attr)
        groups = [
            ("writer", writer.WriteFile, _WRITER_METHODS),
            ("reader", reader.ReadFile, _READER_METHODS),
            ("cache", cache.IndexCache, ("get",)),
            ("container", container.Container, _CONTAINER_METHODS),
            ("backing", backing.BackingStore, None),
            ("plfsd", client.PlfsdClient, _CLIENT_METHODS),
            ("plfsd", client.RemoteFd, _REMOTE_FD_METHODS),
        ]
        for layer, cls, names in groups:
            for attr in _public_methods(cls, names):
                self._patch(cls, attr, layer, f"{cls.__name__}.{attr}", self._pre_hook(cls, attr))
        return self

    def _pre_hook(self, cls, attr):
        name = cls.__name__
        if name == "BackingStore" and attr in _BACKING_BYTES:
            size_of = _BACKING_BYTES[attr]

            def count_bytes(args):
                self.backing_bytes += size_of(args)

            return count_bytes
        if attr == "close" and name in ("WriteFile", "ReadFile"):
            totals = self.writer_stats if name == "WriteFile" else self.reader_stats

            def take_stats(args):
                handle = args[0]
                if handle.closed:
                    return None  # idempotent re-close: already counted
                return lambda: totals.update(handle.stats)

            return take_stats
        return None

    def remove(self) -> None:
        """Restore every wrapped entry point (before the interposer leaves)."""
        self.active = False
        for owner, attr, original, wrapper in reversed(self._patches):
            if getattr(owner, attr) is not wrapper:
                raise RuntimeError(
                    f"{attr} was rebound under the tracer: remove the tracer "
                    "before the interposer uninstalls"
                )
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #

    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tlayer\tname\tstart_ns\tend_ns\tparent\top\tfailed\top_kind\n")
            for span in self.spans:
                kind = self.ops[span[OP]][0] if span[OP] >= 0 else ""
                fh.write("\t".join(str(v) for v in span) + f"\t{kind}\n")


def self_times(spans) -> dict[int, int]:
    """Span id -> self time: duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] != NO_PARENT:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span[ID], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span[ID]] = (end - start) - covered
    return out
