"""Thread fan-out for the support kernels, the subspace products and generation.

The per-block projection, the per-entry materialization, the row
chunks of both sparse products, the row blocks of the QR's panel
products and the user chunks of the synthetic generator split their
input at chunk boundaries fixed by the input alone and hand the chunks
to :func:`run_chunks`. Numpy and scipy's sparse routines release the
interpreter lock inside the random draws, sorts, gathers and products
of each chunk, so threads overlap. Each chunk writes its
own slice of the output, or a partial sum its caller adds in chunk
order, so the output does not depend on the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chunks(work: Callable[[int, int], None], bounds: Sequence[int]) -> None:
    """Call ``work(lo, hi)`` for each consecutive pair of ``bounds``.

    A single chunk runs inline in the caller's thread. More chunks share
    a pool of min(usable CPUs, chunks) threads that lives for this call
    only; with one usable CPU they run inline too. Every chunk's result
    is read, so an exception raised in a chunk reaches the caller.
    """
    los, his = list(bounds[:-1]), list(bounds[1:])
    workers = min(_usable_cpus(), len(los)) if len(los) > 1 else 1
    if workers <= 1:
        for lo, hi in zip(los, his):
            work(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(work, los, his))
