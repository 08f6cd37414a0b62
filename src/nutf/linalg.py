"""Randomized sparse low-rank approximation.

Subspace iteration against the block-sparse unfolding: start from a
seeded Gaussian test matrix multiplied through X, or from a given basis
(the solver passes the previous outer iteration's Q), re-orthonormalize
with a reduced QR after every pass, then read off the coefficient factor
C = Q^T X. A warm start stops as soon as the basis stops turning. The
result is the model's two factors: nothing here is as large as the full
matrix, so the cost per pass stays O(|Omega| * r) plus the O(rows * r^2)
QR. The solver reads the completion on the support chunk by chunk.

The QR runs CholeskyQR2 (Fukaya et al., 2014): two passes of an r x r
Gram, its Cholesky factor and one panel product, both products in place
on B, so Q takes B's panel. It is accurate while the panel's condition
number stays below about 1e8 (Yamamoto et al., ETNA 2015). Past that, or
on a rank-deficient or non-finite panel, the QR falls back to
Householder reflections (LAPACK) on B and fills deficient columns. When
CholeskyQR2 gives up after its first product has written B, B is
rebuilt first, from the short-side operand that made it.

Subspace iteration needs only a fixed workspace of long-side panels
(max(N, T*C) x r; Halko, Martinsson & Tropp, 2011), and every pass
reuses the same two: the basis Q, and the basis from two passes back,
over which the pass writes B = A (A^T Q) and then, in place, its new Q;
the principal angle compares the two. (``X^T @ v``, the transposed
orientation's B, adds its chunks' partial sums into a new panel and
copies it there.) A warm call's start basis is the panel two passes
back from its second pass on, so the caller's ``start`` is written over.

Both sparse products, the QR's panel products and its Grams, and the
Gram of the principal angle run in chunks on nutf's pool
(:mod:`nutf.parallel`), one chunk or many. The sparse products split X's
CSR into row chunks: ``X @ v`` writes each chunk's rows of the output,
so its bits are scipy's serial ones; ``X^T @ v`` adds the chunks'
partial sums in chunk order, so its bits depend on the chunking but not
on the CPU count. Panel products and Grams run in row blocks small
enough that OpenBLAS computes each on the pool thread that calls it, and
a Gram adds its blocks' products in block order (:func:`nutf.core.gram`);
so no BLAS call of the fit is threaded, and its bits depend on neither
the CPU count nor the BLAS thread count. One chunk is the plain
``X @ v``, ``X^T @ v``, ``q @ m`` or ``q^T @ q``.
"""

from __future__ import annotations

import time
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np
# here, not in core (which synth loads), and not inside the first timed spmm
from scipy.sparse import csc_matrix, csr_matrix

from .core import BlockSparseMatrix, LowRankModel, gram
# unused here since the solver reads the completion chunk by chunk; perfbench's
# traced run spans it under this module's name
from .core import model_support_values  # noqa: F401
from .parallel import PANEL_BLOCKS, chunk_bounds, row_blocks, run_blocks, run_chunks, sum_blocks

if TYPE_CHECKING:
    from .solver import SolverConfig

# Salt separating the rank-deficiency fill stream from the test matrix stream.
_FILL_SALT = 0x9E3779B97F4A7C15
# A warm-started iteration stops at the first pass whose basis lies within
# this sine of the largest principal angle of the previous pass's basis.
_SUBSPACE_TOL = 1e-5
# reduced_qr keeps its CholeskyQR2 result only when max|Q^T Q - I| is within this.
_CHOLQR_TOL = 1e-12
# Support entries per row chunk of the sparse products.
_SPMM_CHUNK = 1 << 19


class NumericalError(ArithmeticError):
    """Raised when a kernel produces non-finite results."""


def _view(matrix, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
    """``matrix``, an empty CSR or CSC matrix, set to hold the given arrays.

    scipy's constructor copies an array that is a view of less than half
    of its base, which every chunk of X's layout is.
    """
    matrix.data, matrix.indices, matrix.indptr = data, indices, indptr
    return matrix


def _sparse_products(x: BlockSparseMatrix, rank: int) -> tuple[Callable, Callable]:
    """The products ``v -> X @ v`` and ``v -> X^T @ v`` for x's CSR view.

    X's rows are cut into chunks (:func:`nutf.parallel.chunk_bounds`) of
    max(_SPMM_CHUNK, T*C * rank) support entries; the second term keeps
    the partial sums of X^T @ v, which hold T*C * rank floats per chunk,
    within the size of x's values. Each chunk gets a CSR view and a CSC
    view (its transpose) over slices of x's layout and values, built once
    and copying nothing, and the chunks run on
    :func:`nutf.parallel.run_chunks`. ``X @ v`` writes each chunk's rows
    of the output, so its bits are scipy's serial product's; ``X^T @ v``
    adds the chunks' partial products in chunk order
    (:func:`nutf.parallel.sum_blocks`). Either writes ``out`` when given,
    else a new panel. One chunk gives scipy's plain products.
    """
    dims = x.dims
    indptr, indices = x.support.csr_structure(dims)
    bounds = chunk_bounds(indptr, max(_SPMM_CHUNK, dims.n_cols * rank))
    chunks, chunks_t = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        s, e = indptr[lo], indptr[hi]
        arrays = (x.values[s:e], indices[s:e], indptr[lo:hi + 1] - s)
        chunks.append(_view(csr_matrix((hi - lo, dims.n_cols)), *arrays))
        chunks_t.append(_view(csc_matrix((dims.n_cols, hi - lo)), *arrays))
    each_chunk = range(len(chunks) + 1)

    def product(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        v = np.ascontiguousarray(v)
        if out is None:
            out = np.empty((dims.n_users, v.shape[1]))

        def chunk_rows(i: int, _: int) -> None:
            out[bounds[i]:bounds[i + 1]] = chunks[i] @ v

        run_chunks(chunk_rows, each_chunk)
        return out

    def adjoint_product(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        v = np.ascontiguousarray(v)
        total = sum_blocks(lambda i, _: chunks_t[i] @ v[bounds[i]:bounds[i + 1]], each_chunk, 1)
        if out is None:
            return total
        out[...] = total
        return out

    return product, adjoint_product


def _panel_product(q: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """q @ m for a tall panel q and a small matrix m, written into ``out``.

    The rows run in the blocks of :func:`nutf.parallel.row_blocks`, so
    BLAS computes each block on its thread, on the pool. The blocks do
    not depend on the CPU count, so neither do the bits; they are one
    plain product's wherever BLAS computes a row the same way at every
    block height (OpenBLAS 0.3.31 on x86-64 does up to r = 16). A panel
    of one block is one plain product. ``out`` may be q itself: a block
    reads only its own rows, and numpy copies a block's input that
    overlaps its output.
    """
    cuts = row_blocks(len(q), q.shape[1] * m.shape[1])
    run_blocks(lambda lo, hi: np.matmul(q[lo:hi], m, out=out[lo:hi]), cuts, PANEL_BLOCKS)
    return out


def _fix_column_signs(q: np.ndarray) -> np.ndarray:
    """Flip columns so each column's first largest-magnitude entry is positive."""
    # one column at a time: an axis-0 argmax over a C-ordered panel is ~3x slower
    for j in range(q.shape[1]):
        col = q[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            col *= -1.0
    return q


def _deficient(diag: np.ndarray, n: int) -> np.ndarray:
    """Indices of the columns whose |R| diagonal entry is numerically zero."""
    tol = max(n, len(diag)) * np.finfo(np.float64).eps * diag.max()
    return np.nonzero(diag <= tol)[0]


def _cholesky_qr2(q: np.ndarray) -> tuple[bool, bool]:
    """CholeskyQR2 in place: whether q now holds its own orthonormal factor,
    and whether q was written.

    Two passes of G = Q^T Q, R = chol(G)^T, Q <- Q inv(R), each product
    over q itself. It gives up when a Gram is non-finite (q holds a NaN or
    an inf, or its Gram overflows), a Cholesky fails, the diagonal of
    R2 R1 has a column the Householder path would call deficient, or
    max|Q^T Q - I| > _CHOLQR_TOL; q is then unwritten only if the first
    Gram or Cholesky failed.
    """
    n, r = q.shape
    diag = np.ones(r)
    with np.errstate(over="ignore", invalid="ignore"):
        for written in (False, True):
            g = gram(q, q)
            if not np.all(np.isfinite(g)):
                return False, written
            try:
                rr = np.linalg.cholesky(g).T
            except np.linalg.LinAlgError:
                return False, written
            _panel_product(q, np.linalg.inv(rr), q)
            diag *= rr.diagonal()
        if len(_deficient(diag, n)):
            return False, True
        # written so that a NaN error also rejects
        return bool(np.abs(gram(q, q) - np.eye(r)).max() <= _CHOLQR_TOL), True


def reduced_qr(b: np.ndarray, fill_rng: np.random.Generator,
               rebuild: Callable[[np.ndarray], object] | None = None) -> np.ndarray:
    """Orthonormal factor of the reduced QR of a tall matrix.

    Without ``rebuild``, b is left as it is and the factor is a new panel.
    With it, the factor is written over b, a C-contiguous float64 panel,
    and returned; ``rebuild(b)`` must write b's entries back into b, which
    CholeskyQR2 has overwritten when it gives up after its first product.

    Runs CholeskyQR2 first, which draws nothing from ``fill_rng``. When
    it gives up (see :func:`_cholesky_qr2`; from a condition number of
    about 1e9 on, or on a non-finite or rank-deficient b), Householder
    reflections (LAPACK) take over on b's entries, so orthonormality
    holds to ~1e-14 regardless of conditioning. There, non-finite input
    raises NumericalError, and columns whose R diagonal is numerically
    zero carry no information about range(b); they are replaced by
    Gaussian directions from ``fill_rng``, re-orthonormalized against the
    remaining columns, so the output always has exactly b.shape[1]
    orthonormal columns. Column signs follow a fixed convention (first
    largest-magnitude entry positive) to remove the QR sign ambiguity.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n, r = b.shape
    if not 1 <= r <= n:
        raise ValueError(f"need n >= r >= 1, got {n} x {r}")
    if rebuild is None:
        out = b.copy()
        rebuild = partial(np.copyto, src=b)
    else:
        out = b
    done, written = _cholesky_qr2(out)
    if done:
        return _fix_column_signs(out)
    if written:
        rebuild(out)
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite entries in QR input")
    q, rr = np.linalg.qr(out, mode="reduced")
    deficient = _deficient(np.abs(np.diag(rr)), n)
    if len(deficient):
        keep = np.setdiff1d(np.arange(r), deficient)
        basis = q[:, keep]
        for idx in deficient:
            while True:
                v = fill_rng.standard_normal(n)
                for _ in range(2):  # twice-is-enough re-orthogonalization
                    v -= basis @ (basis.T @ v)
                norm = np.linalg.norm(v)
                if norm > np.sqrt(np.finfo(np.float64).eps):
                    break
            q[:, idx] = v / norm
            basis = np.column_stack([basis, q[:, idx]])
    out[...] = q
    return _fix_column_signs(out)


def _principal_sine(q_old: np.ndarray, q_new: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal bases."""
    cos_min = np.linalg.svd(gram(q_old, q_new), compute_uv=False)[-1]
    return float(np.sqrt(max(0.0, 1.0 - cos_min * cos_min)))


def sparse_lowrank_approx(
    x: BlockSparseMatrix,
    cfg: SolverConfig,
    start: np.ndarray | None = None,
) -> tuple[LowRankModel, dict[str, float], int, float | None]:
    """Rank-r approximation of x, as the factors of a LowRankModel.

    Runs subspace iteration on A, x's unfolding, transposed when
    dims.transposed (N < T*C) so that the test matrix and C sit on the
    shorter side. Each pass is B = A (A^T Q), Q = QR(B); finally C = Q^T A.

    - Cold (``start`` is None): Q = QR(A R) for a Gaussian R drawn from
      cfg.seed, then exactly cfg.power_iters passes.
    - Warm: Q starts as ``start``, an orthonormal max(N, T*C) x r basis
      such as the previous model's ``q``; no Gaussian is drawn. Passes
      stop at the first whose new Q is within the module's subspace
      tolerance of the one before (the sine of the largest principal
      angle between them), after 1 to max(1, cfg.power_iters) passes.
      From its second pass on, a pass writes over ``start`` (a C-contiguous
      writable float64 one; any other is copied first), so the model's
      ``q`` may be ``start``'s panel.

    Returns the model; the seconds spent in its steps, ``spmm`` (the
    sparse products, including the CSR views of x) and ``qr`` (with the
    principal angles); the number of passes run; and the sine of the last
    pass's principal angle, None when no pass ran.
    """
    dims = x.dims
    min_side = min(dims.n_users, dims.n_cols)
    if cfg.rank > min_side:
        raise ValueError(f"rank {cfg.rank} exceeds min(N, T*C) = {min_side}")
    if start is not None:
        shape = (max(dims.n_users, dims.n_cols), cfg.rank)
        if start.shape != shape:
            raise ValueError(f"start basis has shape {start.shape}, expected {shape}")
        if not np.all(np.isfinite(start)):
            raise ValueError("start basis has non-finite entries")
        start = np.require(start, np.float64, ("C", "W"))
    fill_rng = np.random.Generator(np.random.Philox(key=cfg.seed ^ _FILL_SALT))

    seconds = {"spmm": 0.0, "qr": 0.0}
    t0 = time.perf_counter()
    product, adjoint_product = _sparse_products(x, cfg.rank)
    # the operator A is X, or X^T when dims.transposed
    a_times, a_t_times = (adjoint_product, product) if dims.transposed \
        else (product, adjoint_product)
    seconds["spmm"] += time.perf_counter() - t0

    def basis(w: np.ndarray, panel: np.ndarray | None) -> np.ndarray:
        """The orthonormal factor of B = A w, written over ``panel`` (a new
        one when None); a QR that gives up after writing B rebuilds it from w."""
        t0 = time.perf_counter()
        b = a_times(w, panel)
        t1 = time.perf_counter()
        q = reduced_qr(b, fill_rng, rebuild=partial(a_times, w))
        seconds["spmm"] += t1 - t0
        seconds["qr"] += time.perf_counter() - t1
        return q

    if start is None:
        rng = np.random.Generator(np.random.Philox(key=cfg.seed))
        q = basis(rng.standard_normal((min_side, cfg.rank)), None)
        max_passes = cfg.power_iters
    else:
        q, max_passes = start, max(1, cfg.power_iters)
    passes, angle, q_prev = 0, None, None
    while passes < max_passes:
        t0 = time.perf_counter()
        w = a_t_times(q)
        seconds["spmm"] += time.perf_counter() - t0
        # the new basis takes the panel of the one from two passes back
        q_prev, q = q, basis(w, q_prev)
        passes += 1
        t0 = time.perf_counter()
        # a cold call runs all its passes, so only its last angle is read
        if start is not None or passes == max_passes:
            angle = _principal_sine(q_prev, q)
        seconds["qr"] += time.perf_counter() - t0
        if start is not None and angle <= _SUBSPACE_TOL:
            break
    t0 = time.perf_counter()
    c = np.ascontiguousarray(a_t_times(q).T)
    seconds["spmm"] += time.perf_counter() - t0
    return LowRankModel(dims, q=q, c=c), seconds, passes, angle
