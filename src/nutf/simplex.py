"""Exact Euclidean projection onto the probability simplex.

The projection of v is ``max(v - theta, 0)`` for the unique water level
theta that makes the result sum to one (Duchi et al., ICML 2008). With v
sorted descending into s and prefix sums p, theta is
``(p[k] - 1) / (k+1)`` for the last k with ``s[k] - (p[k] - 1) / (k+1) > 0``.

A group of same-size rows runs column by column: for d <= 8 a fixed
comparator network of ``np.maximum``/``np.minimum`` over whole columns
sorts the rows (Batcher's odd-even merge sort, 5 comparators at d = 4),
beyond that ``np.sort`` of the rows does; the prefix sums and the test
then run one column at a time, in ``np.cumsum``'s order. Each row's
arithmetic is its own, so the result does not depend on the grouping.
"""

from __future__ import annotations

import numpy as np

from .core import row_sums
from .parallel import chunk_bounds, run_chunks

# Entries per projection chunk: a chunk's values and its sorted columns
# stay in cache between the passes over them.
_PROJECT_CHUNK = 1 << 16

# A vector counts as already on the simplex when it is non-negative and its
# sum is within this multiple of d from one.
_FEAS_TOL = 1e-12


def _odd_even_merge_network(d: int) -> list[tuple[int, int]]:
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort on d
    wires, with those that reach past wire d - 1 dropped."""
    pairs = []
    p = 1
    while p < d:
        k = p
        while k >= 1:
            for j in range(k % p, d - k, 2 * k):
                for i in range(min(k, d - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return pairs


# Largest row length sorted by a comparator network; longer rows use np.sort.
_NETWORK_MAX_D = 8
_NETWORKS = {d: _odd_even_merge_network(d) for d in range(2, _NETWORK_MAX_D + 1)}


def _sorted_columns(rows: np.ndarray) -> list[np.ndarray]:
    """Column j of the descending sort of the rows of ``rows`` (n x d), for
    j = 0, ..., d - 1, each as a contiguous vector."""
    d = rows.shape[1]
    if d > _NETWORK_MAX_D:
        s = np.negative(rows)
        s.sort(axis=1)
        np.negative(s, out=s)
        return list(np.ascontiguousarray(s.T))
    buf = np.empty((d + 1, len(rows)))
    buf[:d] = rows.T
    # comparator (i, j) leaves the larger entry in column i and the smaller
    # in column j; col[d] is scratch
    col = list(buf)
    for i, j in _NETWORKS[d]:
        np.maximum(col[i], col[j], out=col[d])
        np.minimum(col[i], col[j], out=col[j])
        col[i], col[d] = col[d], col[i]
    return col[:d]


def _project_rows(block: np.ndarray, out: np.ndarray) -> None:
    """Write the projection of each row of ``block`` (n x d) into ``out``.

    A row already on the simplex is copied unchanged, so the projection is
    exactly idempotent instead of drifting by roundoff. When no prefix
    tests positive, or the prefix sums overflow, the largest entry is at
    least about 2**53 in magnitude and ``s[0] - 1`` rounds to ``s[0]``;
    such a row is projected from ``max(v - max(v), -2)`` instead, which
    has the same projection (entries more than 1 below the largest get 0)
    and no huge entries.
    """
    n, d = block.shape
    if d == 1:
        out[...] = 1.0
        return
    with np.errstate(over="ignore", invalid="ignore"):
        s = _sorted_columns(block)
        # on the simplex: the smallest entry >= 0 and the sum within tolerance
        feas = s[-1] >= 0.0
        feas &= np.abs(row_sums(block) - 1.0) <= _FEAS_TOL * d
        # level[j] = (prefix_j - 1) / (j+1), the prefix sums in np.cumsum's order
        level = np.empty((d, n))
        level[0] = s[0]
        for j in range(1, d):
            np.add(level[j - 1], s[j], out=level[j])
        level -= 1.0
        level /= np.arange(1.0, d + 1)[:, None]
        # NaN until a prefix tests positive; the last positive one wins.
        # s - level > 0 exactly when s > level, for finite s.
        theta = np.full(n, np.nan)
        for j in range(d):
            np.copyto(theta, level[j], where=s[j] > level[j])
        np.subtract(block, theta[:, None], out=out)
        np.maximum(out, 0.0, out=out)
        huge = ~np.isfinite(theta)
        if huge.any():
            shifted = block[huge] - block[huge].max(axis=1, keepdims=True)
            np.maximum(shifted, -2.0, out=shifted)
            projected = np.empty_like(shifted)
            _project_rows(shifted, projected)
            out[huge] = projected
    if feas.any():
        out[feas] = block[feas]


def project_into(values: np.ndarray, block_ptr: np.ndarray, out: np.ndarray) -> None:
    """Write the projection of each block of ``values`` into ``out``, on the calling thread.

    Block b is ``values[block_ptr[b]:block_ptr[b+1]]``; ``block_ptr`` runs
    from 0 to len(values), every block is non-empty and every entry
    finite. When all blocks share one size d, they are a (blocks x d) view
    of ``values``; otherwise they are gathered per size. Each group of
    rows runs as one column-wise pass, and each row's arithmetic is its
    own, so a block's projection does not depend on the blocks around it.
    """
    sizes = np.diff(block_ptr)
    counts = np.bincount(sizes)
    if len(sizes) and counts[sizes[0]] == len(sizes):
        d = int(sizes[0])
        _project_rows(values.reshape(-1, d), out.reshape(-1, d))
        return
    for d in np.nonzero(counts)[0]:
        starts = block_ptr[:-1][sizes == d]
        gather = starts[:, None] + np.arange(d)[None, :]
        projected = np.empty((len(starts), d))
        _project_rows(values[gather], projected)
        out[gather] = projected


def project_blocks(values: np.ndarray, block_ptr: np.ndarray) -> np.ndarray:
    """Project each contiguous block of ``values`` onto the simplex.

    Block b is ``values[block_ptr[b]:block_ptr[b+1]]``. The blocks are cut
    into chunks of about ``_PROJECT_CHUNK`` entries
    (:func:`nutf.parallel.chunk_bounds`), which run
    :func:`project_into` on :func:`nutf.parallel.run_chunks`, so the
    output does not depend on the chunking. ``values`` must be 1-D with
    finite entries and every block non-empty; output entries are >= 0 and
    each block sums to 1 up to roundoff (~1e-12 * d).
    """
    values = np.asarray(values, dtype=np.float64)
    block_ptr = np.asarray(block_ptr)
    if values.ndim != 1:
        raise ValueError("values must be a 1-D vector")
    if len(block_ptr) == 0 or block_ptr[0] != 0 or block_ptr[-1] != len(values):
        raise ValueError("block_ptr must run from 0 to len(values)")
    if (np.diff(block_ptr) < 1).any():
        raise ValueError("blocks must be non-empty")
    out = np.empty(len(values))

    def project_chunk(b0: int, b1: int) -> None:
        lo, hi = block_ptr[b0], block_ptr[b1]
        if not np.all(np.isfinite(values[lo:hi])):
            raise ValueError("entries must be finite")
        project_into(values[lo:hi], block_ptr[b0:b1 + 1] - lo, out[lo:hi])

    run_chunks(project_chunk, chunk_bounds(block_ptr, _PROJECT_CHUNK))
    return out
