"""Benchmark entry point.

    python3 perfbench/run.py --workload small_posix --seed 1 --seconds 10 --trace 0

Prints a details line and then, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits 0 only when every call succeeded and every check
passed.  Everything it writes stays under the checkout: the run's working
tree in ``.perfbench_work/`` (removed at exit) and span dumps in
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TMPFS_OPTIONS = b"size=256m,mode=0700"

_CLONE_NEWNS = 0x00020000
_MS_REC = 0x4000
_MS_PRIVATE = 1 << 18
_MNT_DETACH = 2


def _libc():
    libc = ctypes.CDLL(None, use_errno=True)
    libc.unshare.argtypes = [ctypes.c_int]
    libc.mount.argtypes = [ctypes.c_char_p] * 3 + [ctypes.c_ulong, ctypes.c_char_p]
    libc.umount2.argtypes = [ctypes.c_char_p, ctypes.c_int]
    return libc


def private_tmpfs(path: Path) -> bool:
    """Mount a tmpfs over *path*, visible to this process and its children
    only, and gone when they exit.  Returns False where that is not
    permitted; the run then keeps its files on the checkout's own disk.

    The backend belongs in memory: on a disk file system the cost of
    creating an inode depends on what was deleted there in the last minutes,
    which would make every create-path figure depend on earlier runs.  Must
    run before any thread starts.
    """
    libc = _libc()
    if libc.unshare(_CLONE_NEWNS) != 0:
        return False
    if libc.mount(b"none", b"/", None, _MS_REC | _MS_PRIVATE, None) != 0:
        return False
    return libc.mount(b"tmpfs", os.fsencode(path), b"tmpfs", 0, TMPFS_OPTIONS) == 0


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    # A terminated run still stops its daemon and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "core" / "interpose.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    # One CPU for the application thread and the daemon.  A closed loop
    # never needs both at once, and on a shared VM a wake-up sent to the
    # other virtual CPU waits whenever the host has descheduled it, which
    # adds milliseconds at random to every daemon round trip.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.chdir(ROOT)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    backing = "tmpfs" if private_tmpfs(work) else "disk"
    (work / "tmp").mkdir()
    # The shim's shadow descriptors are temporary files: keep them here too.
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    sys.path.insert(0, str(src))
    from perfbench import bench

    try:
        result, details = bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT, work
        )
    finally:
        for entry in work.iterdir():
            if entry.is_dir():
                shutil.rmtree(entry)
            else:
                entry.unlink()
        if backing == "tmpfs":
            _libc().umount2(os.fsencode(work), _MNT_DETACH)
        work.rmdir()
    details["backing"] = backing
    print(json.dumps({"details": details}, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
