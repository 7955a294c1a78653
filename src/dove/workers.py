"""Chunk workers: the chunks of one call, run on threads, started in order.

``run_in_order`` is the one way the engine uses more than one core: the
encoders' chunks, the backward's per-chunk walks and Adam's parameters
all go through it.  NumPy releases the GIL in BLAS and in large ufuncs,
so wide chunks overlap; ``dove/__init__.py`` pins BLAS to one thread so
that the chunks, not BLAS, use the cores.

The calling thread runs a share of the chunks itself, next to a pool of
min(chunks, usable CPUs) - 1 threads that lives for the call only.  The
runners take chunks in index order, one at a time, so a chunk starts
only once every lower chunk has started; the backward's turn order
(``autograd``) relies on that to never wait on a chunk that no thread
holds.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_in_order(fn, n: int, parallel: bool) -> list:
    """``[fn(i) for i in range(n)]``, on worker threads when ``parallel``.

    The results come back in index order.  The lowest chunk to raise, in
    index order, raises here once the chunks already running end; chunks
    not yet started are dropped.  With one usable CPU, one chunk, or
    ``parallel`` false, the chunks run in the calling thread.
    """
    workers = min(n, usable_cpus()) if parallel else 1
    if workers <= 1:
        return [fn(i) for i in range(n)]
    results = [None] * n
    errors = {}
    lock = threading.Lock()
    indices = iter(range(n))

    def runner():
        while True:
            with lock:
                i = None if errors else next(indices, None)
            if i is None:
                return
            try:
                results[i] = fn(i)
            except BaseException as exc:  # raised by the caller below
                with lock:
                    errors[i] = exc

    pool = ThreadPoolExecutor(max_workers=workers - 1)
    try:
        for _ in range(workers - 1):
            pool.submit(runner)
        runner()
    finally:
        pool.shutdown(wait=True)
    if errors:
        raise errors[min(errors)]
    return results
