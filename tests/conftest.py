import time

import hypothesis
import numpy as np
import pytest

from nutf.core import BlockSparseMatrix, CandidateSets, LowRankModel, ProblemDims
from nutf.simplex import project_blocks
from nutf.solver import SolverConfig, SolverTrace, _relative_change, init_x

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=100
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def small_dims():
    return ProblemDims(5, 4, 3)


@pytest.fixture
def small_omega():
    # hand-picked blocks on the 5 x (4*3) instance, all sizes represented
    return CandidateSets.from_dict({
        (0, 0): [0, 2],
        (0, 3): [1],
        (1, 1): [0, 1, 2],
        (2, 0): [1, 2],
        (3, 2): [0],
        (4, 1): [2],
        (4, 3): [0, 1],
    })


def full_support(n_users: int, n_slots: int, n_categories: int) -> CandidateSets:
    """Every (user, slot) block present with every category."""
    users = np.repeat(np.arange(n_users), n_slots)
    slots = np.tile(np.arange(n_slots), n_users)
    ptr = np.arange(0, n_users * n_slots * n_categories + 1, n_categories)
    cats = np.tile(np.arange(n_categories), n_users * n_slots)
    return CandidateSets(users, slots, ptr, cats)


def dense_reference_fit(
    omega: CandidateSets,
    dims: ProblemDims,
    cfg: SolverConfig,
) -> tuple[np.ndarray, SolverTrace]:
    """Exact-SVD reference for small instances (N*T*C <= 1e5).

    Identical update rules, but the Y half-step is the exact best rank-r
    truncation U_r S_r V_r^T of a dense copy, and objectives are computed
    densely. Returns the final feasible X as a dense matrix.
    """
    if dims.n_users * dims.n_slots * dims.n_categories > 100_000:
        raise ValueError("instance too large for the dense reference solver")
    x = init_x(omega, dims).to_dense()
    if cfg.rank > min(dims.n_users, dims.n_cols):
        raise ValueError("rank exceeds min(N, T*C)")

    _, cols, rows = omega.csr_structure(dims)
    trace = SolverTrace()
    prev_obj: float | None = None
    for _ in range(cfg.outer_iters):
        t0 = time.perf_counter()
        u, s, vt = np.linalg.svd(x, full_matrices=False)
        y = (u[:, :cfg.rank] * s[:cfg.rank]) @ vt[:cfg.rank]
        new_x = np.zeros_like(x)
        new_x[rows, cols] = project_blocks(y[rows, cols], omega.block_ptr)
        objective = float(np.linalg.norm(new_x - y) ** 2)
        x_delta = float(np.linalg.norm(new_x - x))
        x = new_x
        basis = u[:, :cfg.rank]
        q_error = float(np.abs(basis.T @ basis - np.eye(cfg.rank)).max())
        sum_error = BlockSparseMatrix(dims, omega, x[rows, cols]).max_block_sum_error()
        # none of fit's kernels run here: no passes, no angle, an empty kernel split
        trace.append(objective, time.perf_counter() - t0, x_delta, 0, None, q_error, sum_error, {})
        if prev_obj is not None and _relative_change(prev_obj, objective) < cfg.tol:
            break
        prev_obj = objective
    return x, trace


def random_omega(rng, n_users, n_slots, n_categories, p_block=0.5):
    """Random support with block sizes uniform in [1, C]."""
    blocks = []
    for i in range(n_users):
        for j in range(n_slots):
            if rng.random() < p_block:
                size = int(rng.integers(1, n_categories + 1))
                cats = rng.choice(n_categories, size=size, replace=False)
                blocks.append((i, j, sorted(int(c) for c in cats)))
    return CandidateSets.from_blocks(blocks)


def random_model(rng, dims, rank):
    """Random orthonormal Q and Gaussian C, shaped as the solver shapes them for dims."""
    short_side, long_side = sorted((dims.n_users, dims.n_cols))
    q, _ = np.linalg.qr(rng.standard_normal((long_side, rank)))
    return LowRankModel(dims, q=q, c=rng.standard_normal((rank, short_side)))


def zero_model(dims):
    """Rank-1 model with C = 0: every score is 0, so every ranking is a tie."""
    short_side, long_side = sorted((dims.n_users, dims.n_cols))
    q = np.zeros((long_side, 1))
    q[0, 0] = 1.0
    return LowRankModel(dims, q=q, c=np.zeros((1, short_side)))


def exact_model(dims, dense):
    """Model whose completion is dense (N x T*C), up to rounding: its SVD
    truncated at the numerical rank, in the solver's orientation."""
    u, s, vt = np.linalg.svd(dense.T if dims.transposed else dense, full_matrices=False)
    r = int((s > 1e-12).sum())
    return LowRankModel(dims, q=u[:, :r], c=s[:r, None] * vt[:r])


def dense_completion(model):
    """The completion as an N x (T*C) matrix, straight from the stored factors."""
    y = model.q @ model.c
    return y.T if model.dims.transposed else y
