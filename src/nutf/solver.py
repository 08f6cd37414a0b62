"""Alternating minimization under negative-unlabeled constraints.

Each outer iteration fixes X and replaces Y with a rank-r approximation,
then fixes Y and projects every candidate block of Y back onto the
probability simplex (off-support entries stay zero by representation).
Both half-steps exactly minimize ||X - Y||_F^2 over their own variable,
so no step sizes or learning rates are involved. The second half-step
reads Y on the support chunk by chunk, in the same pass that projects it
and takes the iteration's sums, so Y is never stored whole.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .core import (
    BlockSparseMatrix,
    CandidateSets,
    LowRankModel,
    ProblemDims,
    as_int,
    check_indices,
    completion_values,
    dot_blocks,
    gap_from_support,
)
from .linalg import NumericalError, sparse_lowrank_approx
from .parallel import run_chunks
from .simplex import project_into
# fit calls neither since the support pass took their place; perfbench's
# traced run spans them under this module's names
from .core import frobenius_gap  # noqa: F401
from .simplex import project_blocks  # noqa: F401

IterationCallback = Callable[[int, BlockSparseMatrix, LowRankModel, float], None]

# Dot blocks per chunk of the support pass. A smaller chunk spends more of
# its time in per-call Python, under the interpreter lock that the pool's
# threads share; a larger one holds more scratch, 2 * r floats of factor
# gathers per entry.
_PASS_BLOCKS = 4
# Blocks per slice of the uniform start.
_INIT_BLOCKS = 1 << 16


@dataclass(frozen=True)
class SolverConfig:
    rank: int
    outer_iters: int = 100
    power_iters: int = 8
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("rank", "outer_iters", "power_iters", "seed"):
            as_int(getattr(self, name), name)
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be >= 1")
        # written so that a NaN fails it too
        if not 0 <= self.tol < np.inf:
            raise ValueError(f"tol must be a finite number >= 0, got {self.tol}")
        if self.power_iters < 0:
            raise ValueError("power_iters must be >= 0")


@dataclass
class SolverTrace:
    """``init_seconds``, the uniform start's wall time, and ``records``,
    one dict per completed outer iteration.

    A record's keys, in ``trace.jsonl``'s order: ``iter``, ``objective``,
    ``seconds`` (wall time), ``x_delta`` (||X+ - X||), ``passes`` (of the
    subspace iteration), ``subspace_angle`` (the sine of the largest
    principal angle the last pass turned the basis by, None when no pass
    ran), ``q_ortho_error`` (max|Q^T Q - I|) and ``block_sum_error`` (max
    |block sum - 1| of X+). Last, ``kernels`` holds the seconds of
    ``spmm`` and ``qr`` (the low-rank half-step), ``support_pass`` (Y on
    the support, its projection and the iteration's sums) and ``audit``
    (Q's orthonormality); ``trace.jsonl`` omits it, and ``nutf fit`` sums
    it into its wall-clock file.
    """

    init_seconds: float = 0.0
    records: list[dict] = field(default_factory=list)


def init_x(omega: CandidateSets, dims: ProblemDims) -> BlockSparseMatrix:
    """Uniform-on-support start: each block gets 1/|Omega_ij| per entry.

    X is filled _INIT_BLOCKS blocks at a time, so no per-block array as
    long as the blocks is held next to it.
    """
    # builds the cached layout first, so the dims check scans the support once
    omega.csr_structure(dims)
    ptr = omega.block_ptr
    values = np.empty(omega.total_size)
    cuts = [*range(0, omega.n_blocks, _INIT_BLOCKS), omega.n_blocks]
    for b0, b1 in zip(cuts, cuts[1:]):
        sizes = np.diff(ptr[b0:b1 + 1])
        values[ptr[b0]:ptr[b1]] = np.repeat(1.0 / sizes, sizes)
    return BlockSparseMatrix(dims, omega, values)


def _support_pass(
    x: BlockSparseMatrix,
    model: LowRankModel,
) -> tuple[float, float, float]:
    """The X half-step and the iteration's sums, in one pass over the support.

    Writes X+, the completion Y's candidate blocks projected onto the
    simplex, over x's values, and returns the objective ||X+ - Y||_F^2
    over the full matrix; ||X+ - X||; and X+'s max |block sum - 1|, whose
    sums :func:`nutf.simplex.project_into` returns with the projection. A
    non-finite value of Y raises NumericalError and leaves x partly
    written.

    Each chunk of :func:`nutf.parallel.run_chunks` owns _PASS_BLOCKS dot
    blocks (:func:`nutf.core.dot_blocks`). It computes and projects Y on
    every candidate block that meets its entries, so a block that crosses
    a chunk edge is done by both chunks, with the same bits. It reads X
    on its own entries only: it keeps its dot blocks' dots, which are
    added in block order, and then writes X+ over X there. So the results
    have the bits of :func:`nutf.core.model_support_values`,
    :func:`nutf.simplex.project_blocks`, :func:`nutf.core.frobenius_gap`
    and a blocked ||X+ - X|| run one after another, for any CPU count,
    while X alone spans the whole support. A chunk rebuilds its entries'
    rows from its blocks' users, so the layout stores no row per entry.
    """
    support, dims = x.support, x.dims
    _, cols = support.csr_structure(dims)
    users, ptr, values = support.block_users, support.block_ptr, x.values
    needle = ptr.dtype.type
    cuts = dot_blocks(len(values))
    n_dots = len(cuts) - 1
    # per dot block: ||X+ - Y||^2, ||Y||^2 and ||X+ - X||^2 on its entries
    dots = np.empty((n_dots, 3))
    # per chunk, at its first dot block: max |block sum - 1| of its blocks
    errors = np.zeros(n_dots)

    def chunk(k0: int, k1: int) -> None:
        lo, hi = cuts[k0], cuts[k1]
        # blocks b0 to b1 - 1 meet entries [lo, hi) and span [s, e); needles of
        # ptr's dtype, or numpy converts all of ptr on every search
        b0 = int(np.searchsorted(ptr, needle(lo), side="right")) - 1
        b1 = int(np.searchsorted(ptr, needle(hi)))
        s, e = int(ptr[b0]), int(ptr[b1])
        local_ptr = ptr[b0:b1 + 1] - s
        y = np.empty(e - s)
        rows = np.repeat(users[b0:b1], np.diff(local_ptr))
        completion_values(model, rows, cols[s:e], y)
        if not np.all(np.isfinite(y)):
            raise NumericalError("non-finite completion values")
        projected = np.empty(e - s)
        sums = project_into(y, local_ptr, projected)
        for k in range(k0, k1):
            a, b = cuts[k], cuts[k + 1]
            y_k, new_k = y[a - s:b - s], projected[a - s:b - s]
            gap, step = new_k - y_k, new_k - values[a:b]
            dots[k] = gap @ gap, y_k @ y_k, step @ step
        # the dots above are the last read of X on these entries
        values[lo:hi] = projected[lo - s:hi - s]
        owned = int(np.searchsorted(ptr, needle(lo))) - b0
        errors[k0] = np.abs(sums[owned:] - 1.0).max(initial=0.0)

    run_chunks(chunk, [*range(0, n_dots, _PASS_BLOCKS), n_dots])
    # cumsum adds in block order, the order of nutf.parallel.sum_blocks
    on_support, y_on, squares = np.cumsum(dots, axis=0)[-1].tolist()
    objective = gap_from_support(model, on_support, y_on)
    return objective, float(np.sqrt(squares)), float(errors.max())


def _relative_change(prev: float, cur: float) -> float:
    return abs(prev - cur) / max(prev, np.finfo(np.float64).tiny)


def fit(
    omega: CandidateSets,
    dims: ProblemDims,
    cfg: SolverConfig,
    on_iteration: IterationCallback | None = None,
) -> tuple[BlockSparseMatrix, LowRankModel, SolverTrace]:
    """Run the alternation from the uniform start.

    Stops after cfg.outer_iters iterations or as soon as the relative
    objective change drops below cfg.tol. The returned X is always
    feasible: zero off support, non-negative, block sums 1. Iteration 1
    starts its subspace iteration cold, from a Gaussian test matrix drawn
    from seed XOR 1, and runs cfg.power_iters passes. Every later
    iteration starts from the previous iteration's basis ``model.q``,
    draws no Gaussian, and stops once the basis stops turning, after 1
    to max(1, cfg.power_iters) passes. Rank-deficiency fills in the QR
    come from a stream keyed by seed XOR the 1-based iteration counter.

    The trace holds one :class:`SolverTrace` record per completed
    iteration, and ``on_iteration(iter, x, model, objective)`` is invoked
    after each (instrumentation, e.g. feasibility audits). Its x and its
    model's basis are live iterates, which the next iteration overwrites:
    copy ``x.values`` or ``model.q`` to keep them. Each iteration writes
    X+ over X, and from its second subspace pass on, the new basis over
    a panel of the previous one (see
    :func:`nutf.linalg.sparse_lowrank_approx`). The first X is fit's own,
    so no caller's array is written.
    """
    t0 = time.perf_counter()
    x = init_x(omega, dims)
    trace = SolverTrace(init_seconds=time.perf_counter() - t0)
    prev_obj: float | None = None
    start: np.ndarray | None = None
    for it in range(1, cfg.outer_iters + 1):
        t0 = time.perf_counter()
        model, kernels, passes, angle = sparse_lowrank_approx(
            x, replace(cfg, seed=cfg.seed ^ it), start=start
        )
        start = model.q
        t1 = time.perf_counter()
        objective, x_delta, sum_error = _support_pass(x, model)
        t2 = time.perf_counter()
        q_error = model.orthonormality_error()
        t3 = time.perf_counter()
        trace.records.append({
            "iter": it, "objective": objective, "seconds": t3 - t0, "x_delta": x_delta,
            "passes": passes, "subspace_angle": angle, "q_ortho_error": q_error,
            "block_sum_error": sum_error,
            "kernels": {**kernels, "support_pass": t2 - t1, "audit": t3 - t2}})
        if not np.isfinite(objective):
            raise NumericalError(f"objective diverged at iteration {it}")
        if on_iteration is not None:
            on_iteration(it, x, model, objective)
        if prev_obj is not None and _relative_change(prev_obj, objective) < cfg.tol:
            break
        prev_obj = objective
    return x, model, trace


def predict_topk(
    model: LowRankModel,
    i: int,
    j: int,
    k_top: int,
    restrict: Sequence[int] | None = None,
) -> np.ndarray:
    """Top-k categories for user i at slot j, highest score first.

    Scores every category of the slot through the completion and keeps
    only ``restrict`` when given. ``i``, ``j``, ``k_top`` and the entries of
    ``restrict`` must be integers, and all but k_top within the dims
    (:func:`nutf.core.check_indices`), else ValueError; ties are broken by
    ascending category index so evaluation metrics are deterministic.
    """
    i, j, k_top = as_int(i, "user index"), as_int(j, "slot index"), as_int(k_top, "k_top")
    entries = None if restrict is None else [as_int(c, "restrict entry") for c in restrict]
    if entries == []:
        raise ValueError("restrict set is empty")
    check_indices(model.dims, i, j, entries or ())
    cats = np.arange(model.dims.n_categories, dtype=np.int64) if entries is None \
        else np.unique(np.array(entries, dtype=np.int64))
    if not 1 <= k_top <= len(cats):
        raise ValueError(f"k_top {k_top} out of range [1, {len(cats)}]")
    scores = model.slot_scores(i, j)[cats]
    order = np.argsort(-scores, kind="stable")
    return cats[order[:k_top]]
