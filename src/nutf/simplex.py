"""Exact Euclidean projection onto the probability simplex.

The projection of v is ``max(v - theta, 0)`` for the unique water level
theta that makes the result sum to one. Sorting v descending and scanning
prefixes finds theta in O(d log d): take the largest j such that
``v_sorted[j] - (sum(v_sorted[:j+1]) - 1) / (j+1) > 0`` and set
``theta = (sum(v_sorted[:k]) - 1) / k`` for that prefix length k.
"""

from __future__ import annotations

import numpy as np

from .parallel import run_chunks

# Entries per projection chunk: a chunk's values and its sort, cumsum and
# mask temporaries stay in cache between the passes over them.
_PROJECT_CHUNK = 1 << 16

# A vector counts as already on the simplex when it is non-negative and its
# sum is within this multiple of d from one.
_FEAS_TOL = 1e-12


def _project_rows(block: np.ndarray, out: np.ndarray) -> None:
    """Write the projection of each row of ``block`` (n x d) into ``out``.

    A row already on the simplex is copied unchanged, so the projection is
    exactly idempotent instead of drifting by roundoff.
    """
    d = block.shape[1]
    if d == 1:
        out[...] = 1.0
        return
    # min(row) >= 0, one column at a time: a per-row reduction is far slower
    feas = block[:, 0] >= 0.0
    for col in range(1, d):
        feas &= block[:, col] >= 0.0
    feas &= np.abs(block.sum(axis=1) - 1.0) <= _FEAS_TOL * d
    if feas.all():
        out[...] = block
        return
    rows = block
    if feas.any():
        out[feas] = block[feas]
        rows = block[~feas]
    # rows sorted descending, as -sort(-rows) with the sort done in place
    s = np.negative(rows)
    s.sort(axis=1)
    np.negative(s, out=s)
    prefix = np.cumsum(s, axis=1)
    j = np.arange(1, d + 1)[None, :]
    positive = s - (prefix - 1.0) / j > 0.0
    # last positive prefix per row; column 0 is always positive
    k = d - 1 - np.argmax(positive[:, ::-1], axis=1)
    theta = (prefix[np.arange(rows.shape[0]), k] - 1.0) / (k + 1)
    if rows is block:
        np.maximum(rows - theta[:, None], 0.0, out=out)
    else:
        out[~feas] = np.maximum(rows - theta[:, None], 0.0)


def project_blocks(values: np.ndarray, block_ptr: np.ndarray) -> np.ndarray:
    """Project each contiguous block of ``values`` onto the simplex.

    Block b is ``values[block_ptr[b]:block_ptr[b+1]]``. The blocks are cut
    into chunks of about ``_PROJECT_CHUNK`` entries, which run on
    :func:`nutf.parallel.run_chunks`. When all blocks share one size d, a
    chunk is a (blocks x d) view of ``values``; otherwise its blocks are
    gathered per size. Each group of rows runs as one vectorized
    sort/cumsum pass, and each row's arithmetic is its own, so the output
    does not depend on the chunking. ``values`` must be 1-D with finite
    entries and every block non-empty; output entries are >= 0 and each
    block sums to 1 up to roundoff (~1e-12 * d).
    """
    values = np.asarray(values, dtype=np.float64)
    block_ptr = np.asarray(block_ptr)
    if values.ndim != 1:
        raise ValueError("values must be a 1-D vector")
    if len(block_ptr) == 0 or block_ptr[0] != 0 or block_ptr[-1] != len(values):
        raise ValueError("block_ptr must run from 0 to len(values)")
    out = np.empty(len(values))
    sizes = np.diff(block_ptr)
    present = np.nonzero(np.bincount(sizes))[0]
    if len(present) and present[0] == 0:
        raise ValueError("blocks must be non-empty")
    # each chunk starts at the first block at or past a multiple of the chunk size
    cuts = np.searchsorted(block_ptr[:-1], np.arange(_PROJECT_CHUNK, len(values), _PROJECT_CHUNK))
    bounds = np.unique(np.concatenate(([0], cuts, [len(sizes)])))

    def project_chunk(b0: int, b1: int) -> None:
        lo, hi = block_ptr[b0], block_ptr[b1]
        if not np.all(np.isfinite(values[lo:hi])):
            raise ValueError("entries must be finite")
        if len(present) == 1:
            d = present[0]
            _project_rows(values[lo:hi].reshape(-1, d), out[lo:hi].reshape(-1, d))
            return
        chunk_sizes = sizes[b0:b1]
        for d in np.nonzero(np.bincount(chunk_sizes))[0]:
            starts = block_ptr[b0:b1][chunk_sizes == d]
            gather = starts[:, None] + np.arange(d)[None, :]
            projected = np.empty((len(starts), d))
            _project_rows(values[gather], projected)
            out[gather] = projected

    run_chunks(project_chunk, bounds)
    return out
