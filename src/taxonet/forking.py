"""Run two independent calls at once: one here, one in a forked child.

`run_pair(first, second)` forks, runs `second` in the child and `first` in
this process, and returns both results. Nothing is pickled on the way in:
the child inherits a copy-on-write image of this process, graph and models
included, so it computes exactly what this process would have computed;
the same code runs on the same data in the same order. Only the child's
result travels back, pickled through a pipe as `(ok, value_or_exception)`.
Floats pickle losslessly, so the result is bit-for-bit the in-process one.

The child always leaves through `os._exit`: it never returns into the
caller, never runs `atexit` handlers and never flushes the stdio buffers it
inherited, so nothing it does is seen twice. Anything it prints is lost.

Needs `os.fork`, so POSIX only, and assumes a single-threaded caller: a
child forked from a multi-threaded process holds only the forking thread
and may find a lock held forever. `multiprocessing` is not used: importing
it alone costs about 1 MiB of resident memory, and its Linux default start
method changes to forkserver in Python 3.14, which would pickle the inputs.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, TypeVar

A = TypeVar("A")
B = TypeVar("B")


def run_pair(first: Callable[[], A], second: Callable[[], B]) -> tuple[A, B]:
    """Return `(first(), second())`, running `second` in a forked child.

    If `first` raises, the child is still waited for and reaped, then
    `first`'s exception propagates; otherwise an exception raised by
    `second` re-raises here as itself. `RuntimeError` if the child died
    without sending a result.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _child(second, write_fd)  # never returns
    os.close(write_fd)
    try:
        here = first()
    finally:
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()
        _, status = os.waitpid(pid, 0)
    if not payload:
        code = os.waitstatus_to_exitcode(status)  # -N: killed by signal N
        raise RuntimeError(f"forked child died without a result (exit code {code})")
    ok, there = pickle.loads(payload)
    if not ok:
        raise there
    return here, there


def _child(fn: Callable[[], object], write_fd: int) -> None:
    code = 1  # also when the result cannot be pickled: the parent reads nothing
    try:
        try:
            result = (True, fn())
        except BaseException as exc:  # re-raised in the parent
            result = (False, exc)
        payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)
