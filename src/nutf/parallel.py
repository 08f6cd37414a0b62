"""Thread fan-out for the support kernels, the subspace products and generation.

The per-block projection, the per-entry materialization, the row
chunks of both sparse products, the row blocks of the QR's panel
products and Grams, the blocks of the fit's long dot products and the
user chunks of the synthetic generator split their input at chunk
boundaries fixed by the input alone and hand the chunks to
:func:`run_chunks`. Numpy and scipy's sparse routines release the
interpreter lock inside the random draws, sorts, gathers and products
of each chunk, so threads overlap. Each chunk writes its own slice of
the output, or a partial sum its caller adds in chunk order, so the
output does not depend on the worker count.

The chunks run on one long-lived pool per worker count, built on first
use. ``nutf fit --threads N`` caps the workers at N (:func:`capped`).

This pool owns every thread of a multi-chunk kernel: each BLAS call in
it stays small enough that OpenBLAS computes it on the calling thread
(:func:`row_blocks` for panel products and Grams,
:func:`nutf.core.sum_dots` for dot products). A call that OpenBLAS threads leaves its idle
workers spinning for tens of milliseconds, which takes cores from the
pool's next chunks, and a threaded dot product adds its threads'
halves in an order that depends on the BLAS thread count.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterator, Sequence

import numpy as np

# OpenBLAS runs a GEMM of m*n*k <= 2**18 on the calling thread (2048 rows
# of a panel at r = 10).
GEMM_SERIAL = 1 << 18
# Row blocks per pool chunk of a panel product or Gram. A panel of one
# chunk (up to 8192 rows at r = 10) is one plain product.
PANEL_BLOCKS = 4

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()
_worker_cap = 0
_in_worker = threading.local()


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def capped(workers: int) -> Iterator[None]:
    """Run at most ``workers`` pool threads inside the block; 0 leaves no cap."""
    global _worker_cap
    outer, _worker_cap = _worker_cap, workers
    try:
        yield
    finally:
        _worker_cap = outer


def _mark_worker() -> None:
    _in_worker.active = True


def _pool(workers: int) -> ThreadPoolExecutor:
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = _pools[workers] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="nutf", initializer=_mark_worker)
        return pool


def _forget_pools() -> None:
    """In a forked child: the parent's pool threads do not exist here."""
    global _pools_lock
    _pools.clear()
    _pools_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)


def run_chunks(work: Callable[[int, int], None], bounds: Sequence[int]) -> None:
    """Call ``work(lo, hi)`` for each consecutive pair of ``bounds``.

    A single chunk runs inline in the caller's thread, and so does every
    chunk when one worker is usable or when the caller is itself a pool
    worker (a nested call cannot wait on its own pool). More chunks share
    the long-lived pool of min(usable CPUs, cap) threads, at most one
    thread per chunk busy, each chunk under the caller's numpy error
    state. The call returns once every chunk has finished; the first
    exception, in chunk order, reaches the caller.
    """
    los, his = list(bounds[:-1]), list(bounds[1:])
    workers = _usable_cpus()
    if _worker_cap > 0:
        workers = min(workers, _worker_cap)
    if len(los) <= 1 or workers <= 1 or getattr(_in_worker, "active", False):
        for lo, hi in zip(los, his):
            work(lo, hi)
        return
    errors = np.geterr()

    def chunk(lo: int, hi: int) -> None:
        with np.errstate(**errors):
            work(lo, hi)

    pool = _pool(workers)
    futures = [pool.submit(chunk, lo, hi) for lo, hi in zip(los, his)]
    wait(futures)
    for future in futures:
        future.result()


def row_blocks(n_rows: int, width: int) -> list[int] | None:
    """Cuts of a tall panel into row blocks for a product whose m*n*k is ``width`` per row.

    Blocks hold a power of two of rows with rows * width within
    GEMM_SERIAL, so BLAS computes each block's product on the calling
    thread. A one-row block would run as a matrix-vector product, whose
    bits differ from the matrix product's, so a one-row tail joins the
    block before it. None when the panel fits in one chunk of
    PANEL_BLOCKS blocks, or a block would hold fewer than two rows: the
    caller then makes one plain product.
    """
    per_block = GEMM_SERIAL // width
    rows = 1 << (per_block.bit_length() - 1) if per_block else 0
    if rows < 2 or n_rows <= rows * PANEL_BLOCKS:
        return None
    cuts = [*range(0, n_rows, rows), n_rows]
    if cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return cuts


def run_blocks(work: Callable[[int, int], object], cuts: Sequence[int], per_chunk: int) -> list:
    """``[work(lo, hi) for each block [lo, hi) of cuts]``, in block order.

    ``per_chunk`` consecutive blocks make one chunk of :func:`run_chunks`.
    """
    results = [None] * (len(cuts) - 1)

    def blocks(b0: int, b1: int) -> None:
        for b in range(b0, b1):
            results[b] = work(cuts[b], cuts[b + 1])

    run_chunks(blocks, [*range(0, len(results), per_chunk), len(results)])
    return results
