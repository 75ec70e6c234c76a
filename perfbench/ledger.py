"""Per-layer metrics from the traced run's spans and counter diffs.

Each metric names the end-to-end metric it should move (see README.md).
Layers that a workload never reaches report zero calls, zero time and zero
errors: the traced run measured that they were not crossed.
"""

from __future__ import annotations

import math
from collections import Counter

from .spans import (
    END,
    FAILED,
    ID,
    LAYER,
    LAYERS,
    NAME,
    NO_PARENT,
    OP,
    PARENT,
    RTT_CALLS,
    START,
    self_times,
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered) - 1e-9) - 1)])


def counter_diff(after: dict, before: dict) -> dict:
    """Numeric fields of *after* minus *before*."""
    return {
        key: after[key] - before.get(key, 0)
        for key in after
        if isinstance(after[key], (int, float)) and not isinstance(after[key], bool)
    }


def _us(ns_values) -> float:
    return percentile(ns_values, 0.5) / 1000.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, counters: dict, *, write_over_raw: float, overhead: float) -> dict:
    """Every per-layer metric, keyed by name, as ``(value, unit)``.

    *counters* holds the traced pass's diffs of ``Shim.stats``
    (``shim``), ``shared_cache().stats`` (``cache``) and the plfsd
    ``OP_STATS`` aggregate (``plfsd``, empty without a daemon).
    """
    spans = tracer.spans
    by_id = {span[ID]: span for span in spans}
    self_ns = self_times(spans)

    def ancestors(span):
        parent = span[PARENT]
        while parent != NO_PARENT:
            span = by_id[parent]
            yield span
            parent = span[PARENT]

    out: dict[str, tuple[float, str]] = {}
    per_layer = {layer: [] for layer in LAYERS}
    for span in spans:
        per_layer[span[LAYER]].append(span)
    for layer in LAYERS:
        mine = per_layer[layer]
        out[f"{layer}.calls"] = (len(mine), "count")
        out[f"{layer}.self_s"] = (sum(self_ns[s[ID]] for s in mine) / 1e9, "s")
        out[f"{layer}.errors"] = (sum(1 for s in mine if s[FAILED]), "count")

    def named(*names):
        return [s for s in spans if s[NAME] in names]

    def durations(items):
        return [s[END] - s[START] for s in items]

    # -- shim ----------------------------------------------------------- #
    shim = per_layer["shim"]
    app_calls = [s for s in shim if s[PARENT] == NO_PARENT]
    reentries = sum(1 for s in shim if any(a[LAYER] != "shim" for a in ancestors(s)))
    out["shim.self_us_p50"] = (_us([self_ns[s[ID]] for s in app_calls]), "us")
    out["shim.backend_reentries_per_call"] = (_ratio(reentries, len(app_calls)), "ratio")
    out["shim.write_over_raw_p50"] = (write_over_raw, "ratio")
    out["shim.transient_retries"] = (counters["shim"].get("transient_retries", 0), "count")

    # -- api ------------------------------------------------------------ #
    appends = {i for i, (kind, _) in enumerate(tracer.ops) if kind == "append"}
    append_getattrs = sum(1 for s in named("plfs_getattr") if s[OP] in appends)
    out["api.getattr_per_append"] = (_ratio(append_getattrs, len(appends)), "ratio")

    # -- writer --------------------------------------------------------- #
    writes = named("WriteFile.write", "WriteFile.append_many")
    out["writer.self_us_p50"] = (_us([self_ns[s[ID]] for s in writes]), "us")
    out["writer.close_us_p50"] = (_us(durations(named("WriteFile.close"))), "us")
    out["writer.index_flushes"] = (tracer.writer_stats.get("index_flushes", 0), "count")

    # -- reader --------------------------------------------------------- #
    reads = named("ReadFile.read")
    out["reader.self_us_p50"] = (_us([self_ns[s[ID]] for s in reads]), "us")
    out["reader.preads_per_read"] = (
        _ratio(tracer.reader_stats.get("preads", 0), len(reads)),
        "ratio",
    )

    # -- cache ---------------------------------------------------------- #
    cache = counters["cache"]
    out["cache.get_us_p50"] = (_us(durations(named("IndexCache.get"))), "us")
    out["cache.hit_ratio"] = (
        _ratio(cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)),
        "ratio",
    )
    out["cache.merged_builds"] = (cache.get("merged_builds", 0), "count")

    # -- container ------------------------------------------------------ #
    epochs = named("Container.index_epoch")
    epoch_ids = {s[ID] for s in epochs}
    epoch_stats = [
        s
        for s in shim
        if s[NAME] == "os.stat" and any(a[ID] in epoch_ids for a in ancestors(s))
    ]
    out["container.index_epoch_us_p50"] = (_us(durations(epochs)), "us")
    out["container.epoch_stats_per_call"] = (_ratio(len(epoch_stats), len(epochs)), "ratio")
    out["container.create_us_p50"] = (_us(durations(named("Container.create"))), "us")

    # -- backing -------------------------------------------------------- #
    backing = per_layer["backing"]
    out["backing.self_us_p50"] = (_us([self_ns[s[ID]] for s in backing]), "us")
    out["backing.bytes_per_call"] = (_ratio(tracer.backing_bytes, len(backing)), "B")

    # -- plfsd ---------------------------------------------------------- #
    plfsd = counters["plfsd"]
    daemon_ops = sum(plfsd.get(k, 0) for k in ("opens", "creates", "closes", "appends", "reads"))
    out["plfsd.rtt_us_p50"] = (_us(durations(s for s in spans if s[NAME] in RTT_CALLS)), "us")
    out["plfsd.queue_wait_us_per_op"] = (
        _ratio(plfsd.get("queue_wait_seconds", 0.0) * 1e6, daemon_ops),
        "us",
    )

    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def epoch_stats_by_tag(tracer) -> dict:
    """Mean ``os.stat`` calls per ``index_epoch``, grouped by the op tag of
    the application call that caused them (the step, on n1_checkpoint)."""
    spans = tracer.spans
    by_id = {span[ID]: span for span in spans}
    calls: Counter = Counter()
    stats: Counter = Counter()
    for span in spans:
        if span[OP] < 0:
            continue
        tag = tracer.ops[span[OP]][1]
        if tag is None:
            continue
        if span[NAME] == "Container.index_epoch":
            calls[tag] += 1
        elif span[NAME] == "os.stat":
            parent = span[PARENT]
            while parent != NO_PARENT:
                if by_id[parent][NAME] == "Container.index_epoch":
                    stats[tag] += 1
                    break
                parent = by_id[parent][PARENT]
    return {str(tag): round(stats[tag] / calls[tag], 3) for tag in sorted(calls)}
