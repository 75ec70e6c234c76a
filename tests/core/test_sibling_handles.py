"""Several descriptors on one mount file in one process: each sees the
bytes its siblings wrote, flushed or not, when it asks for the end of
file (O_APPEND, fstat) or truncates."""

from __future__ import annotations

import os


def _read_all(path: str) -> bytes:
    fd = os.open(path, os.O_RDONLY)
    try:
        out = b""
        while chunk := os.read(fd, 4096):
            out += chunk
        return out
    finally:
        os.close(fd)


def test_o_append_through_sibling_fds_keeps_every_write(interposer, mnt):
    path = f"{mnt}/log"
    flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
    fd1, fd2, fd3 = (os.open(path, flags, 0o644) for _ in range(3))
    a, b, c = b"A" * 100, b"B" * 100, b"C" * 100
    os.write(fd1, a)
    os.write(fd2, b)  # must land after fd1's unflushed record
    os.close(fd1)
    os.write(fd3, c)
    os.close(fd2)
    os.close(fd3)
    assert _read_all(path) == a + b + c
    assert os.stat(path).st_size == 300


def test_fstat_sees_sibling_unflushed_writes(interposer, mnt):
    path = f"{mnt}/ckpt"
    fd1 = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    fd2 = os.open(path, os.O_WRONLY)
    os.pwrite(fd1, b"x" * 4096, 0)
    assert os.fstat(fd2).st_size == 4096
    os.close(fd1)
    os.close(fd2)


def test_ftruncate_through_one_fd_shrinks_its_sibling(interposer, mnt):
    path = f"{mnt}/shrink"
    fd1 = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    fd2 = os.open(path, os.O_WRONLY)
    os.write(fd1, b"z" * 1000)
    os.fsync(fd1)
    os.ftruncate(fd2, 10)
    assert os.fstat(fd1).st_size == 10
    os.close(fd1)
    os.close(fd2)
    assert os.stat(path).st_size == 10
    assert _read_all(path) == b"z" * 10
