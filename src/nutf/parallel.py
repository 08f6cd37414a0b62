"""Thread fan-out for the support kernels, the subspace products, generation and scoring.

The solver's pass over the support (Y, its per-block projection and
the iteration's dot products), the row chunks of both sparse products,
the row blocks of the QR's panel products and Grams, the user chunks of
the synthetic generator and the pair chunks of top-k scoring split
their input at chunk boundaries fixed by the input alone and hand
the chunks, one or many, to :func:`run_chunks`. Numpy and scipy's
sparse routines release the interpreter lock inside the random draws,
sorts, gathers and products of each chunk, so threads overlap. Each
chunk writes its own slice of the output, or a partial sum that
:func:`sum_blocks` adds in block order, so the output does not depend
on the worker count.

The chunks run on one long-lived pool per worker count, built on first
use: one thread per CPU in the affinity mask (``taskset`` narrows it).

This pool owns every thread of a multi-chunk kernel: each BLAS call in
it stays small enough that OpenBLAS computes it on the calling thread
(:func:`row_blocks` for panel products, Grams and the per-slot score
products, :func:`nutf.core.dot_blocks` for dot products). A call that
OpenBLAS threads leaves its idle workers spinning for tens of
milliseconds, which takes cores from the pool's next chunks, and a
threaded dot product adds its threads' halves in an order that depends
on the BLAS thread count.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

import numpy as np

# OpenBLAS runs a GEMM of m*n*k <= 2**18 on the calling thread (2048 rows
# of a panel at r = 10).
GEMM_SERIAL = 1 << 18
# OpenBLAS runs a dot product of at most this many entries on the calling
# thread; a longer one it threads adds its threads' halves in an order that
# depends on the BLAS thread count.
DOT_SERIAL = 10_000
# Row blocks per pool chunk of a panel product or Gram. A panel of one
# chunk (up to 8192 rows at r = 10) is one block, one plain product.
PANEL_BLOCKS = 4

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()
_in_worker = threading.local()


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    A single chunk runs inline in the caller's thread, with no affinity
    call, and so does every chunk when one worker is usable or when the
    caller is itself a pool worker (a nested call cannot wait on its own
    pool). More chunks share the long-lived pool of one thread per usable
    CPU, at most one thread per chunk busy, each chunk under the caller's
    numpy error state. The call returns once every chunk has
    finished; the first exception, in chunk order, reaches the caller.
    """
    los, his = list(bounds[:-1]), list(bounds[1:])
    workers = _usable_cpus() if len(los) > 1 else 1
    if workers <= 1 or getattr(_in_worker, "active", False):
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


def chunk_bounds(ptr: np.ndarray, step: int) -> list[int]:
    """Cuts of the blocks ``ptr`` delimits (block b holds entries ``ptr[b]:ptr[b+1]``)
    into chunks, each starting at the first block at or past a multiple of ``step`` entries."""
    cuts = np.searchsorted(ptr[:-1], np.arange(step, int(ptr[-1]), step))
    return np.unique(np.concatenate(([0], cuts, [len(ptr) - 1]))).tolist()


def row_blocks(n_rows: int, width: int, per_chunk: int = PANEL_BLOCKS) -> list[int]:
    """Cuts of a tall panel into row blocks for a product whose m*n*k is ``width`` per row.

    Blocks hold a power of two of rows with rows * width within
    GEMM_SERIAL, so BLAS computes each block's product on the calling
    thread. A one-row block would run as a matrix-vector product, whose
    bits differ from the matrix product's, so a one-row tail joins the
    block before it. A panel that fits in one chunk of ``per_chunk``
    blocks, or whose blocks would hold fewer than two rows, is the one
    block ``[0, n_rows]``: one plain product.
    """
    per_block = GEMM_SERIAL // width
    rows = 1 << (per_block.bit_length() - 1) if per_block else 0
    if rows < 2 or n_rows <= rows * per_chunk:
        return [0, n_rows]
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


def sum_blocks(work: Callable[[int, int], np.ndarray], cuts: Sequence[int], per_chunk: int):
    """The sum of ``work(lo, hi)`` over the blocks of ``cuts``, run by :func:`run_blocks`
    and added in place in block order, so its bits do not depend on the CPU count.
    One block is one call."""
    if len(cuts) == 2:
        return work(cuts[0], cuts[1])
    partials = run_blocks(work, cuts, per_chunk)
    total = partials[0]
    for partial in partials[1:]:
        total += partial
    return total
