"""Randomized sparse low-rank approximation.

Subspace iteration against the block-sparse unfolding: multiply a seeded
Gaussian test matrix through X, re-orthonormalize with a reduced QR after
every pass, then read off the coefficient factor C = Q^T X. The result is
materialized only on the candidate support, so the cost per pass stays
O(|Omega| * r) plus the O(rows * r^2) QR.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np
# here, not in core (which synth loads), and not inside the first timed spmm
from scipy.sparse import csr_matrix

from .core import BlockSparseMatrix, LowRankModel, model_support_values

if TYPE_CHECKING:
    from .solver import SolverConfig

# Salt separating the rank-deficiency fill stream from the test matrix stream.
_FILL_SALT = 0x9E3779B97F4A7C15


class NumericalError(ArithmeticError):
    """Raised when a kernel produces non-finite results."""


def to_csr(x: BlockSparseMatrix) -> csr_matrix:
    """Zero-copy scipy CSR view over x's (dims, support, values)."""
    indptr, indices, _ = x.support.csr_structure(x.dims)
    return csr_matrix((x.values, indices, indptr), shape=(x.dims.n_users, x.dims.n_cols))


def _fix_column_signs(q: np.ndarray) -> np.ndarray:
    """Flip columns so each column's first largest-magnitude entry is positive."""
    lead = np.argmax(np.abs(q), axis=0)
    signs = np.sign(q[lead, np.arange(q.shape[1])])
    signs[signs == 0] = 1.0
    q *= signs
    return q


def reduced_qr(b: np.ndarray, fill_rng: np.random.Generator) -> np.ndarray:
    """Orthonormal factor of the reduced QR of a tall matrix.

    Uses Householder reflections (LAPACK), so orthonormality holds to
    ~1e-14 regardless of conditioning. Columns whose R diagonal is
    numerically zero carry no information about range(b); they are
    replaced by Gaussian directions from ``fill_rng``, re-orthonormalized
    against the remaining columns, so the output always has exactly
    b.shape[1] orthonormal columns. Column signs follow a fixed convention
    (first largest-magnitude entry positive) to remove the QR sign ambiguity.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n, r = b.shape
    if not 1 <= r <= n:
        raise ValueError(f"need n >= r >= 1, got {n} x {r}")
    if not np.all(np.isfinite(b)):
        raise NumericalError("non-finite entries in QR input")
    q, rr = np.linalg.qr(b, mode="reduced")
    diag = np.abs(np.diag(rr))
    tol = max(n, r) * np.finfo(np.float64).eps * diag.max()
    deficient = np.nonzero(diag <= tol)[0]
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
    return _fix_column_signs(q)


def sparse_lowrank_approx(
    x: BlockSparseMatrix,
    cfg: SolverConfig,
) -> tuple[LowRankModel, np.ndarray, dict[str, float]]:
    """Rank-r approximation of x, materialized only on its support.

    Runs the sketch-and-iterate loop (Gaussian R, B = A R, Q = QR(B),
    then power_iters rounds of B = A (A^T Q), Q = QR(B), finally
    C = Q^T A) where A is x's unfolding, transposed when dims.transposed
    (N < T*C) so that the test matrix and C sit on the shorter side. Uses
    cfg's rank, power_iters and seed. Returns the model, the completion values on
    x's support (aligned with the support order), and the seconds spent
    in its steps: ``spmm`` (the sparse products, including the CSR view
    of x), ``qr`` and ``materialize`` (the values on the support).
    """
    dims = x.dims
    min_side = min(dims.n_users, dims.n_cols)
    if cfg.rank > min_side:
        raise ValueError(f"rank {cfg.rank} exceeds min(N, T*C) = {min_side}")

    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    fill_rng = np.random.Generator(np.random.Philox(key=cfg.seed ^ _FILL_SALT))
    r_test = rng.standard_normal((min_side, cfg.rank))

    seconds = {"spmm": 0.0, "qr": 0.0}
    t0 = time.perf_counter()
    csr = to_csr(x)
    a = csr.T if dims.transposed else csr
    b = np.asarray(a @ r_test)
    seconds["spmm"] += time.perf_counter() - t0
    t0 = time.perf_counter()
    q = reduced_qr(b, fill_rng)
    seconds["qr"] += time.perf_counter() - t0
    for _ in range(cfg.power_iters):
        t0 = time.perf_counter()
        b = np.asarray(a @ np.asarray(a.T @ q))
        seconds["spmm"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        q = reduced_qr(b, fill_rng)
        seconds["qr"] += time.perf_counter() - t0
    t0 = time.perf_counter()
    c = np.ascontiguousarray(np.asarray(a.T @ q).T)
    seconds["spmm"] += time.perf_counter() - t0

    model = LowRankModel(dims, q=q, c=c)
    t0 = time.perf_counter()
    y_support = model_support_values(model, x.support)
    seconds["materialize"] = time.perf_counter() - t0
    if not np.all(np.isfinite(y_support)):
        raise NumericalError("non-finite completion values")
    return model, y_support, seconds
