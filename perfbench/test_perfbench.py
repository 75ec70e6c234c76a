"""Tests of the benchmark itself (not collected by the tier-1 suite).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from perfbench import bench, ledger, spans, workloads
from perfbench.workloads import WORKLOADS, Recorder

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_op_stream(name):
    spec = WORKLOADS[name].spec
    assert workloads.digest(spec(7, 0)) == workloads.digest(spec(7, 0))
    assert workloads.digest(spec(7, 3)) == workloads.digest(spec(7, 3))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_op_stream(name):
    spec = WORKLOADS[name].spec
    assert workloads.digest(spec(7, 0)) != workloads.digest(spec(8, 0))
    assert workloads.digest(spec(7, 0)) != workloads.digest(spec(7, 1))


def _span(sid, start, end, parent=spans.NO_PARENT, layer="api"):
    return (sid, layer, f"s{sid}", start, end, parent, 0, False)


def test_self_time_subtracts_child_coverage_once():
    tree = [
        _span(0, 0, 100),
        _span(1, 10, 40, parent=0),  # overlaps child 2 on [30, 40)
        _span(2, 30, 60, parent=0),
        _span(3, 90, 120, parent=0),  # clipped to the parent's end
        _span(4, 15, 20, parent=1),
        _span(5, 200, 210),  # a second root without children
    ]
    got = spans.self_times(tree)
    assert got == {0: 100 - 50 - 10, 1: 30 - 5, 2: 30, 3: 30, 4: 5, 5: 10}


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert ledger.percentile(values, 0.5) == 50
    assert ledger.percentile(values, 0.99) == 99
    assert ledger.percentile([], 0.5) == 0.0


def _env(tmp_path, monkeypatch, name):
    monkeypatch.chdir(ROOT)
    return bench.Env(ROOT, tmp_path, "env", WORKLOADS[name].daemon).open()


def _flip_one_data_byte(tree: str) -> None:
    for dirpath, _, names in os.walk(tree):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            if name.startswith("dropping.data.") and os.path.getsize(path):
                fd = os.open(path, os.O_RDWR)
                try:
                    byte = os.pread(fd, 1, 0)
                    os.pwrite(fd, bytes([byte[0] ^ 0xFF]), 0)
                finally:
                    os.close(fd)
                return
    raise AssertionError(f"no data dropping under {tree}")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_round_is_correct_and_a_flipped_backend_byte_fails_it(tmp_path, monkeypatch, name):
    wl = WORKLOADS[name]
    env = _env(tmp_path, monkeypatch, name)
    try:
        clean = Recorder()
        bench.run_rounds(wl, env, clean, 1, [0], "r")
        assert (clean.failed, clean.mismatches) == (0, [])

        tampered = Recorder()
        tampered.start_round()
        wl.run(
            wl.spec(1, 1),
            tampered,
            f"{env.mount}/t1",
            tamper=lambda: _flip_one_data_byte(f"{env.backend}/t1"),
        )
        tampered.end_round()
    finally:
        env.close()
    assert tampered.failed > 0
    assert any("differ" in m for m in tampered.mismatches)


def test_tracer_requires_the_interposer_around_it(tmp_path, monkeypatch):
    env = _env(tmp_path, monkeypatch, "small_posix")
    tracer = spans.Tracer()
    try:
        tracer.install(env.interposer)
        with pytest.raises(RuntimeError, match="already installed"):
            tracer.install(env.interposer)
        tracer.remove()
        assert os.write.__self__ is env.interposer.shim
        tracer.install(env.interposer)
        env.interposer.uninstall()
        with pytest.raises(RuntimeError, match="before the interposer uninstalls"):
            tracer.remove()
    finally:
        env.close()
    with pytest.raises(RuntimeError, match="before the tracer"):
        spans.Tracer().install(env.interposer)


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_traced_round_reports_every_per_layer_metric(tmp_path, monkeypatch):
    wl = WORKLOADS["small_posix"]
    env = _env(tmp_path, monkeypatch, "small_posix")
    tracer = spans.Tracer()
    rec = Recorder(tracer)
    try:
        counters = bench.Counters(env)
        tracer.install(env.interposer)
        try:
            bench.run_rounds(wl, env, rec, 1, [0], "t", tracer=tracer, counters=counters)
        finally:
            tracer.remove()
    finally:
        env.close()
    assert rec.failed == 0
    metrics = ledger.layer_metrics(tracer, counters.totals, write_over_raw=1.0, overhead=1.0)
    assert sorted(metrics) == sorted(m["name"] for m in _benchmark_json()["per_layer"])
    # the defects the layer ledger exists to expose
    assert metrics["shim.backend_reentries_per_call"][0] > 1
    assert metrics["api.getattr_per_append"][0] == 1
    assert metrics["writer.calls"][0] > 0 and metrics["backing.calls"][0] > 0


def test_end_to_end_metrics_match_the_benchmark_file(tmp_path, monkeypatch):
    wl = WORKLOADS["small_posix"]
    env = _env(tmp_path, monkeypatch, "small_posix")
    rec = Recorder()
    try:
        bench.run_rounds(wl, env, rec, 1, [0], "r")
    finally:
        env.close()
    metrics = bench.end_to_end(rec, setup_s=0.5)
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    assert all(value > 0 for value, _ in metrics.values())
    assert {w["name"] for w in _benchmark_json()["workloads"]} == set(WORKLOADS)
