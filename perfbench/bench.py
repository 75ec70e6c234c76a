"""Set-up, the measured loop, the traced run and the metrics they report.

The untraced run measures the end-to-end metrics.  The traced run replays
rounds with every layer wrapped by a :class:`~perfbench.spans.Tracer`, each
followed by the same round untraced, and derives the per-layer metrics from
the spans; the ratio of the pairs' call time is the tracing overhead.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import ledger, workloads
from .spans import Tracer
from .workloads import CallFailed, Recorder

#: set-ups per untraced run, spread over it; setup_s is their median
SETUPS = 9
#: share of --seconds the traced run spends on its untraced pass
TRACE_SHARE = 0.5
#: the traced pass stops replaying rounds once it holds this many spans
SPAN_BUDGET = 150_000
DAEMON_READY_S = 30.0


def remove_tree(real, path: str) -> None:
    """``rmtree`` through the interposer's saved originals, so clean-up
    between rounds never touches the shim, its counters or the tracer."""
    with real.scandir(path) as entries:
        found = list(entries)
    for entry in found:
        if entry.is_dir(follow_symlinks=False):
            remove_tree(real, entry.path)
        else:
            real.unlink(entry.path)
    real.rmdir(path)


class Env:
    """One set-up: a fresh backend, the mount, the installed interposer and,
    for daemon workloads, a running plfsd answering on its socket."""

    def __init__(self, root: Path, work: Path, label: str, daemon: bool):
        self.root = root
        self.dir = work / label
        self.backend = str(self.dir / "backend")
        self.mount = str(self.dir / "mnt")
        # Relative to the checkout root (the working directory), which
        # keeps the socket path inside the AF_UNIX length limit.
        self.socket = os.path.relpath(self.dir / "plfsd.sock", root) if daemon else None
        self.proc: subprocess.Popen | None = None
        self.interposer = None

    def open(self) -> "Env":
        from repro.core.interpose import Interposer

        os.makedirs(self.backend)
        spec = self.backend
        try:
            if self.socket is not None:
                self._start_daemon()
                spec = f"{self.backend}?daemon={self.socket}"
            self.interposer = Interposer([(self.mount, spec)]).install()
            self._probe()
        except BaseException:
            self.close()
            raise
        return self

    def _start_daemon(self) -> None:
        from repro.plfsd.client import PlfsdClient, PlfsdUnavailable

        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with open(self.dir / "plfsd.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.plfsd.cli", "--socket", self.socket, "--no-shm"],
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + DAEMON_READY_S
        while True:
            try:
                with PlfsdClient(self.socket, timeout=1.0) as probe:
                    probe.ping()
                return
            except (OSError, PlfsdUnavailable):
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(
                        f"plfsd did not start: {(self.dir / 'plfsd.log').read_text()[-2000:]}"
                    ) from None
                time.sleep(0.005)

    def _probe(self) -> None:
        """One create/write/read/unlink through the mount, so lazy set-up
        (imports, the daemon connection) is done before anything is timed."""
        path = f"{self.mount}/probe"
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            os.write(fd, b"probe")
            back = os.pread(fd, 5, 0)
        finally:
            os.close(fd)
        os.unlink(path)
        if back != b"probe":
            raise RuntimeError(f"set-up probe read back {back!r}")

    def daemon_stats(self) -> dict:
        if self.socket is None:
            return {}
        from repro.plfsd.client import connect

        with connect(self.socket, name="perfbench-stats") as ctl:
            return ctl.stats()["aggregate"]

    def close(self) -> None:
        if self.interposer is not None and self.interposer.installed:
            self.interposer.uninstall()
        if self.proc is not None:
            from repro.plfsd.client import PlfsdUnavailable, connect

            try:
                with connect(self.socket, name="perfbench-stop") as ctl:
                    ctl.shutdown_server()
            except (OSError, PlfsdUnavailable):
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
            self.proc = None


class Counters:
    """Per-round diffs of the program's own public counters, summed."""

    def __init__(self, env: Env):
        #: the set-up whose counters the next rounds read (replaceable)
        self.env = env
        self.totals = {"shim": {}, "cache": {}, "plfsd": {}}

    def snapshot(self) -> dict:
        from repro.plfs.cache import shared_cache

        return {
            "shim": dict(self.env.interposer.shim.stats),
            "cache": dict(shared_cache().stats),
            "plfsd": self.env.daemon_stats(),
        }

    def add(self, before: dict) -> None:
        after = self.snapshot()
        for key, total in self.totals.items():
            for name, delta in ledger.counter_diff(after[key], before[key]).items():
                total[name] = total.get(name, 0) + delta


def until(deadline: float):
    return lambda: time.perf_counter() >= deadline


def run_rounds(wl, env, rec, seed, rounds, label, *, stop=None, tracer=None, counters=None):
    """Run *rounds* of *wl*, at least one, until *stop()* holds after a
    round; returns the round numbers run."""
    done = []
    for r in rounds:
        spec = wl.spec(seed, r)
        before = counters.snapshot() if counters is not None else None
        rec.start_round()
        if tracer is not None:
            tracer.active = True
        try:
            wl.run(spec, rec, f"{env.mount}/{label}{r}")
        except CallFailed:
            pass
        finally:
            if tracer is not None:
                tracer.active = False
            rec.end_round()
        if counters is not None:
            counters.add(before)
        remove_tree(env.interposer.real, f"{env.backend}/{label}{r}")
        done.append(r)
        if stop is not None and stop():
            break
    return done


def end_to_end(rec: Recorder, setup_s: float) -> dict:
    p = ledger.percentile
    s = rec.samples

    def per_round(fn) -> float:
        return statistics.median(fn(r) for r in rec.rounds)

    def mbps(kind):
        return per_round(lambda r: 1e3 * r["bytes"][kind] / r["kind_ns"][kind])

    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (per_round(lambda r: 1e9 * r["calls"] / r["ns"]), "1/s"),
        "write_p50_us": (p(s["write"], 0.5) / 1e3, "us"),
        # p99 within each round, median over rounds: one round that shares
        # the machine with a burst elsewhere moves the pooled tail, not this
        "write_p99_us": (per_round(lambda r: p(rec.round_samples(r, "write"), 0.99)) / 1e3, "us"),
        "append_p50_us": (p(s["append"], 0.5) / 1e3, "us"),
        "read_p50_us": (p(s["read"], 0.5) / 1e3, "us"),
        "stat_p50_us": (p(s["stat"], 0.5) / 1e3, "us"),
        "create_p50_us": (p(s["create"], 0.5) / 1e3, "us"),
        "write_MBps": (mbps("write"), "MB/s"),
        "read_MBps": (mbps("read"), "MB/s"),
    }


def raw_write_p50(wl, seed, rounds, raw_dir: str) -> float:
    """p50 of the same write stream against a plain directory, no interposer."""
    samples = []
    clock = time.perf_counter_ns
    for r in rounds:
        os.makedirs(raw_dir)
        fds: dict[str, int] = {}
        try:
            for key, offset, data in wl.spec(seed, r).write_stream():
                fd = fds.get(key)
                if fd is None:
                    fd = fds[key] = os.open(f"{raw_dir}/{key}", os.O_WRONLY | os.O_CREAT, 0o644)
                start = clock()
                if offset is None:
                    os.write(fd, data)
                else:
                    os.pwrite(fd, data, offset)
                samples.append(clock() - start)
        finally:
            for fd in fds.values():
                os.close(fd)
        shutil.rmtree(raw_dir)
    return ledger.percentile(samples, 0.5)


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, work: Path):
    """One benchmark run: ``(result object, details dict)``."""
    wl = workloads.WORKLOADS[workload]
    setup_times = []

    def set_up(old=None) -> Env:
        if old is not None:
            old.close()
        start = time.perf_counter()
        env = Env(root, work, f"setup{len(setup_times)}", wl.daemon).open()
        setup_times.append(time.perf_counter() - start)
        return env

    env = set_up()
    details = {
        "workload": workload,
        "seed": seed,
        "op_digest": workloads.digest(wl.spec(seed, 0)),
        "setup_times_s": setup_times,
    }
    try:
        warm = Recorder()
        run_rounds(wl, env, warm, seed, [0], "warm")
        if trace:
            rec, metrics = _traced(wl, env, seed, seconds, root, work, details)
        else:
            rec = Recorder()
            counters = Counters(env)
            done = [0]
            start = time.perf_counter()
            for segment in range(1, SETUPS + 1):
                # Set-ups are spread over the run, so their median samples
                # the machine at as many moments as the rounds do.
                if segment > 1:
                    env = counters.env = set_up(env)
                done += run_rounds(
                    wl, env, rec, seed, range(done[-1] + 1, 1 << 30), "r",
                    stop=until(start + seconds * segment / SETUPS),
                    counters=counters,
                )
            metrics = end_to_end(rec, statistics.median(setup_times))
            details["counters"] = counters.totals
            details["rounds"] = len(done) - 1
            details["create_p99_us"] = ledger.percentile(rec.samples["create"], 0.99) / 1e3
    finally:
        env.close()
    attempted = warm.attempted + rec.attempted
    failed = warm.failed + rec.failed
    details["error_rate"] = failed / attempted
    details["samples"] = {kind: len(v) for kind, v in sorted(rec.samples.items())}
    details["mismatches"] = (warm.mismatches + rec.mismatches)[:20]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }, details


def _traced(wl, env, seed, seconds, root, work, details):
    start = time.perf_counter()
    plain = Recorder()
    rounds = run_rounds(
        wl, env, plain, seed, range(1, 1 << 30), "u", stop=until(start + TRACE_SHARE * seconds)
    )
    env.interposer.uninstall()
    try:
        raw_p50 = raw_write_p50(wl, seed, rounds, str(work / "raw"))
    finally:
        env.interposer.install()
    tracer = Tracer()
    rec = Recorder(tracer)
    counters = Counters(env)
    deadline = until(start + seconds)
    # Each traced round is followed by the same round untraced, wrappers
    # out, so the overhead ratio compares the two at the same moment.
    paired = Recorder()
    traced = []
    for r in rounds:
        tracer.install(env.interposer)
        try:
            traced += run_rounds(wl, env, rec, seed, [r], "t", tracer=tracer, counters=counters)
        finally:
            tracer.remove()
        run_rounds(wl, env, paired, seed, [r], "p")
        if len(tracer.spans) >= SPAN_BUDGET or deadline():
            break
    for other in (plain, paired):
        rec.attempted += other.attempted
        rec.failed += other.failed
        rec.mismatches += other.mismatches
    overhead = sum(r["ns"] for r in rec.rounds) / sum(r["ns"] for r in paired.rounds)
    metrics = ledger.layer_metrics(
        tracer,
        counters.totals,
        write_over_raw=ledger.percentile(plain.samples["write"], 0.5) / raw_p50,
        overhead=overhead,
    )
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    dump = out_dir / f"spans-{wl.name}-{seed}.tsv.gz"
    tracer.dump(str(dump))
    details.update(
        rounds=len(rounds),
        traced_rounds=len(traced),
        spans=len(tracer.spans),
        span_dump=os.path.relpath(dump, root),
        counters=counters.totals,
        writer_stats=dict(tracer.writer_stats),
        reader_stats=dict(tracer.reader_stats),
        epoch_stats_per_call_by_tag=ledger.epoch_stats_by_tag(tracer),
    )
    return rec, metrics
