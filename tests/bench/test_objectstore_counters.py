"""The objectstore config's byte counters must not depend on where the
benchmark runs: the creator file and the compacted global index are both
uploaded, so neither may carry a variable-width host name or pid."""

from __future__ import annotations

import os
import socket

from repro.bench.runner import run_scenario

SCENARIOS = ("hot_cold_mix", "crash_soak")


def _counters(monkeypatch, pid: int, host: str) -> dict:
    with monkeypatch.context() as m:
        m.setattr(os, "getpid", lambda: pid)
        m.setattr(socket, "gethostname", lambda: host)
        return {
            name: run_scenario(name, profile="short", config="objectstore")["counters"]
            for name in SCENARIOS
        }


def test_counters_independent_of_pid_width_and_hostname(monkeypatch):
    runs = {
        (pid, host): _counters(monkeypatch, pid, host)
        for pid in (1234, 4194301)
        for host in ("vm", "compute-node7")
    }
    reference = runs[(1234, "vm")]
    assert reference["hot_cold_mix"]["object_put_bytes"] > 0
    for key, counters in runs.items():
        assert counters == reference, key
