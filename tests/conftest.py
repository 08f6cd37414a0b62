import time

import hypothesis
import numpy as np
import pytest
from scipy.sparse import csr_matrix

from nutf import parallel
from nutf.core import (BlockSparseMatrix, CandidateSets, LowRankModel, ProblemDims,
                       frobenius_gap, model_support_values, sum_dots)
from nutf.harness import GroundTruth, SynthConfig
from nutf.linalg import NumericalError
from nutf.simplex import _FEAS_TOL, project_blocks
from nutf.solver import SolverConfig, SolverTrace, _relative_change, init_x

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=100
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def fresh_pools(monkeypatch):
    """Two usable CPUs and no pool left from an earlier test; the pools
    built here are shut down afterwards."""
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "_pools", {})
    yield parallel._pools
    for pool in parallel._pools.values():
        pool.shutdown()


@pytest.fixture
def no_pool(monkeypatch):
    """Eight usable CPUs and a pool that fails the test when asked for: a
    kernel whose input is one chunk must run it inline."""
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 8)

    def forbidden(workers):
        raise AssertionError(f"a one-chunk input asked for a pool of {workers} workers")

    monkeypatch.setattr(parallel, "_pool", forbidden)


@pytest.fixture
def small_dims():
    return ProblemDims(5, 4, 3)


@pytest.fixture
def small_omega():
    # hand-picked blocks on the 5 x (4*3) instance, all sizes represented
    return CandidateSets.from_blocks([
        (0, 0, [0, 2]),
        (0, 3, [1]),
        (1, 1, [0, 1, 2]),
        (2, 0, [1, 2]),
        (3, 2, [0]),
        (4, 1, [2]),
        (4, 3, [0, 1]),
    ])


def block_dict(omega: CandidateSets) -> dict[tuple[int, int], list[int]]:
    """{(user, slot): categories} of every block."""
    return {key: cats.tolist() for key, cats in omega.items()}


def block_sizes(omega: CandidateSets) -> np.ndarray:
    """Candidate count of every block."""
    return np.diff(omega.block_ptr)


def entry_rows(omega: CandidateSets) -> np.ndarray:
    """Row (user) index of every support entry, in support order."""
    return np.repeat(omega.block_users, block_sizes(omega))


def to_csr(x: BlockSparseMatrix) -> csr_matrix:
    """Zero-copy scipy CSR view over x's (dims, support, values): the
    plain ``X @ v`` and ``X^T @ v`` the chunked products are checked against."""
    indptr, indices = x.support.csr_structure(x.dims)
    return csr_matrix((x.values, indices, indptr), shape=(x.dims.n_users, x.dims.n_cols))


def to_dense(x: BlockSparseMatrix) -> np.ndarray:
    """The full N x (T*C) matrix of a small instance; zero off the support."""
    out = np.zeros((x.dims.n_users, x.dims.n_cols))
    _, cols = x.support.csr_structure(x.dims)
    out[entry_rows(x.support), cols] = x.values
    return out


def project_simplex(v) -> np.ndarray:
    """Project one vector onto {u : u >= 0, sum(u) = 1}, by the sort-based
    algorithm of nutf.simplex: the byte-level oracle for project_blocks.

    The input must be non-empty with all entries finite.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a non-empty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("entries must be finite")
    d = v.size
    if d == 1:
        return np.ones(1)
    # feasible points are fixed points; returning them unchanged makes the
    # projection exactly idempotent instead of drifting by roundoff. The sum
    # is reduceat's, v0 + (tail sum), as in nutf.core.row_sums.
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduceat(v, [0])[0]
        if v.min() >= 0.0 and abs(total - 1.0) <= _FEAS_TOL * d:
            return v.copy()
        s = np.sort(v)[::-1]
        prefix = np.cumsum(s)
        j = np.arange(1, d + 1)
        positive = np.nonzero(s - (prefix - 1.0) / j > 0.0)[0]
        theta = np.nan
        if len(positive):
            k = positive[-1]
            theta = (prefix[k] - 1.0) / (k + 1)
        if not np.isfinite(theta):
            # |max(v)| >~ 2**53, so s[0] - (s[0] - 1) rounds to 0, or the
            # prefix sums overflow: project the shifted row, whose entries
            # more than 1 below its maximum 0 get 0 either way
            return project_simplex(np.maximum(v - v.max(), -2.0))
    return np.maximum(v - theta, 0.0)


def update_x(y_on_support, omega: CandidateSets, dims: ProblemDims) -> BlockSparseMatrix:
    """Nearest feasible X to Y: per-block simplex projection of Y's values."""
    y_on_support = np.asarray(y_on_support, dtype=np.float64)
    if y_on_support.shape != (omega.total_size,):
        raise ValueError(
            f"got {y_on_support.shape} values for a support of size {omega.total_size}"
        )
    return BlockSparseMatrix(dims, omega, project_blocks(y_on_support, omega.block_ptr))


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||, summed in blocks (see :func:`nutf.core.sum_dots`)."""

    def block(lo: int, hi: int) -> tuple[float]:
        diff = a[lo:hi] - b[lo:hi]
        return (float(diff @ diff),)

    (squares,) = sum_dots(len(a), block)
    return float(np.sqrt(squares))


def serial_support_pass(x: BlockSparseMatrix, model: LowRankModel):
    """The X half-step as one whole-vector sweep per step: Y on the support,
    its finiteness check, the projection, the objective, the change in X and
    the block-sum audit. The byte-level oracle for nutf.solver._support_pass;
    returns the same (X+, objective, ||X+ - X||, max |block sum - 1|)."""
    y = model_support_values(model, x.support)
    if not np.all(np.isfinite(y)):
        raise NumericalError("non-finite completion values")
    new_x = update_x(y, x.support, x.dims)
    return (new_x, frobenius_gap(new_x, model, y), distance(new_x.values, x.values),
            new_x.max_block_sum_error())


def serial_generate(cfg: SynthConfig):
    """nutf.harness.generate as one serial pass over one generator: the
    byte-level oracle for the chunked, jump-ahead generate.

    Returns the six arrays (block_users, block_slots, block_ptr, cats,
    true_cats, user_classes).
    """
    rng = np.random.default_rng(cfg.seed)
    n, t, c = cfg.n_users, cfg.n_slots, cfg.n_categories
    k_slots = cfg.slots_per_user
    n_cand = cfg.candidates_per_update

    schedule = rng.integers(0, c, size=(cfg.n_classes, t), dtype=np.int64)
    user_classes = rng.integers(0, cfg.n_classes, size=n, dtype=np.int64)

    draws = rng.random((n, t))
    slots = np.sort(np.argpartition(draws, k_slots - 1, axis=1)[:, :k_slots], axis=1)
    obs_users = np.repeat(np.arange(n, dtype=np.int64), k_slots)
    obs_slots = slots.astype(np.int64).ravel()
    true_cats = schedule[user_classes[obs_users], obs_slots]

    n_obs = len(obs_users)
    cats = np.empty((n_obs, n_cand), dtype=np.int64)
    cats[:, 0] = true_cats
    if n_cand > 1:
        scratch = rng.random((n_obs, c - 1))
        decoys = np.argpartition(scratch, n_cand - 2, axis=1)[:, : n_cand - 1]
        decoys += decoys >= true_cats[:, None]
        cats[:, 1:] = decoys
    cats.sort(axis=1)

    ptr = np.arange(0, (n_obs + 1) * n_cand, n_cand, dtype=np.int64)
    return obs_users, obs_slots, ptr, cats.ravel(), true_cats, user_classes


def replace_blocks_with_full(
    omega: CandidateSets,
    dims: ProblemDims,
    block_ids: np.ndarray,
) -> CandidateSets:
    """Copy omega with the given blocks' candidate sets widened to [0, C)."""
    c = dims.n_categories
    masked = np.zeros(omega.n_blocks, dtype=bool)
    masked[block_ids] = True
    sizes = np.where(masked, c, block_sizes(omega))
    ptr = np.zeros(omega.n_blocks + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    widened = np.repeat(masked, sizes)
    cats = np.empty(ptr[-1], dtype=np.int64)
    # a widened block's entries are its positions 0..C-1; the others keep theirs
    cats[widened] = np.tile(np.arange(c, dtype=np.int64), np.count_nonzero(masked))
    cats[~widened] = omega.cats[np.repeat(~masked, block_sizes(omega))]
    return CandidateSets(omega.block_users.copy(), omega.block_slots.copy(), ptr, cats)


def mask_validation(
    omega: CandidateSets,
    truth: GroundTruth,
    fraction: float,
    dims: ProblemDims,
    seed: int = 0,
) -> tuple[CandidateSets, list[tuple[int, int, int]]]:
    """Hide a random fraction of observations behind all-C candidate sets.

    The selected blocks keep their (user, slot) position but their
    candidate set becomes the full category range, so the solver sees them
    as maximally uncertain; their true categories move to the returned
    validation list. The sample size is round-half-up(fraction * n_obs).
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    n_obs = len(truth.obs_users)
    if n_obs != omega.n_blocks:
        raise ValueError("truth is not aligned with the candidate sets")
    n_mask = int(np.floor(fraction * n_obs + 0.5))
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(n_obs, size=n_mask, replace=False))
    masked = replace_blocks_with_full(omega, dims, chosen)
    validation = [
        (int(truth.obs_users[b]), int(truth.obs_slots[b]), int(truth.true_cats[b]))
        for b in chosen
    ]
    return masked, validation


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
    x = to_dense(init_x(omega, dims))
    if cfg.rank > min(dims.n_users, dims.n_cols):
        raise ValueError("rank exceeds min(N, T*C)")

    _, cols = omega.csr_structure(dims)
    rows = entry_rows(omega)
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
