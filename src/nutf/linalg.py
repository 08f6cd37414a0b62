"""Randomized sparse low-rank approximation.

Subspace iteration against the block-sparse unfolding: multiply a seeded
Gaussian test matrix through X, re-orthonormalize with a reduced QR after
every pass, then read off the coefficient factor C = Q^T X. The result is
materialized only on the candidate support, so the cost per pass stays
O(|Omega| * r) plus the O(rows * r^2) QR.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import BlockSparseMatrix, LowRankModel, model_support_values

# Salt separating the rank-deficiency fill stream from the test matrix stream.
_FILL_SALT = 0x9E3779B97F4A7C15


class NumericalError(RuntimeError):
    """Raised when a kernel produces non-finite results."""


@dataclass(frozen=True)
class PowerIterConfig:
    """Knobs for the randomized subspace iteration.

    power_iters counts the re-multiplication passes after the initial
    range sketch; 0 means sketch + QR only.
    """

    rank: int
    power_iters: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.power_iters < 0:
            raise ValueError("power_iters must be >= 0")


def _record(timings: dict | None, key: str, t0: float) -> None:
    if timings is not None:
        timings[key] = timings.get(key, 0.0) + (time.perf_counter() - t0)


def _fix_column_signs(q: np.ndarray) -> np.ndarray:
    """Flip columns so each column's first largest-magnitude entry is positive."""
    if q.shape[1] == 0:
        return q
    lead = np.argmax(np.abs(q), axis=0)
    signs = np.sign(q[lead, np.arange(q.shape[1])])
    signs[signs == 0] = 1.0
    q *= signs
    return q


def reduced_qr(b: np.ndarray, fill_rng: np.random.Generator | None = None) -> np.ndarray:
    """Orthonormal factor of the reduced QR of a tall matrix.

    Uses Householder reflections (LAPACK), so orthonormality holds to
    ~1e-14 regardless of conditioning. Columns whose R diagonal is
    numerically zero carry no information about range(b); they are
    replaced by seeded Gaussian directions re-orthonormalized against the
    remaining columns, so the output always has exactly b.shape[1]
    orthonormal columns. Column signs follow a fixed convention (first
    largest-magnitude entry positive) to remove the QR sign ambiguity.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n, r = b.shape
    if n < r:
        raise ValueError(f"need n >= r, got {n} x {r}")
    if r == 0:
        return np.empty((n, 0))
    if not np.all(np.isfinite(b)):
        raise NumericalError("non-finite entries in QR input")
    q, rr = np.linalg.qr(b, mode="reduced")
    diag = np.abs(np.diag(rr))
    tol = max(n, r) * np.finfo(np.float64).eps * (diag.max() if diag.size else 0.0)
    deficient = np.nonzero(diag <= tol)[0]
    if len(deficient):
        if fill_rng is None:
            fill_rng = np.random.Generator(np.random.Philox(key=_FILL_SALT))
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
    cfg: PowerIterConfig,
    timings: dict | None = None,
) -> tuple[LowRankModel, np.ndarray]:
    """Rank-r approximation of x, materialized only on its support.

    Runs the sketch-and-iterate loop (Gaussian R, B = A R, Q = QR(B),
    then power_iters rounds of B = A (A^T Q), Q = QR(B), finally
    C = Q^T A) where A is x's unfolding, transposed when N < T*C so the
    test matrix always has min(N, T*C) rows. Returns the model and the
    completion values on x's support, aligned with the support order.
    """
    dims = x.dims
    min_side = min(dims.n_users, dims.n_cols)
    if cfg.rank > min_side:
        raise ValueError(f"rank {cfg.rank} exceeds min(N, T*C) = {min_side}")
    transposed = dims.n_users < dims.n_cols

    csr = x.to_csr()
    a = csr.T if transposed else csr
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    fill_rng = np.random.Generator(np.random.Philox(key=cfg.seed ^ _FILL_SALT))
    r_test = rng.standard_normal((min_side, cfg.rank))

    t0 = time.perf_counter()
    b = np.asarray(a @ r_test)
    _record(timings, "spmm", t0)
    t0 = time.perf_counter()
    q = reduced_qr(b, fill_rng)
    _record(timings, "qr", t0)
    for _ in range(cfg.power_iters):
        t0 = time.perf_counter()
        b = np.asarray(a @ np.asarray(a.T @ q))
        _record(timings, "spmm", t0)
        t0 = time.perf_counter()
        q = reduced_qr(b, fill_rng)
        _record(timings, "qr", t0)
    t0 = time.perf_counter()
    c = np.ascontiguousarray(np.asarray(a.T @ q).T)
    _record(timings, "spmm", t0)

    model = LowRankModel(dims, q=q, c=c, transposed=transposed)
    t0 = time.perf_counter()
    y_support = model_support_values(model, x.support)
    _record(timings, "materialize", t0)
    if not np.all(np.isfinite(y_support)):
        raise NumericalError("non-finite completion values")
    return model, y_support
