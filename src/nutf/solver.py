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
    block_sums,
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


@dataclass(frozen=True)
class SolverConfig:
    rank: int
    outer_iters: int = 100
    power_iters: int = 8
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
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
    """One record per completed outer iteration.

    Each record holds the objective, the iteration's wall seconds, the
    norm of the change in X, the number of subspace-iteration passes of
    its low-rank half-step, the sine of the largest principal angle its
    last pass turned the basis by (None when it ran no pass), two audits
    of the iterate (``q_ortho_error``, max|Q^T Q - I| of the model's basis,
    and ``block_sum_error``, max |block sum - 1| of the new X), and in
    ``kernel_seconds`` the seconds of each of its kernels: ``spmm`` and
    ``qr`` from the low-rank half-step, then ``support_pass`` (Y on the
    support, its projection, the objective, the change in X and the block
    sums, in one pass) and ``audit`` (Q's orthonormality). ``init_seconds``
    is the uniform start, run once before the first iteration.
    ``trace.jsonl`` gets every field but the kernel split; ``nutf fit``
    writes the split, summed over the iterations, to its wall-clock file.
    """

    init_seconds: float = 0.0
    objectives: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    x_deltas: list[float] = field(default_factory=list)
    passes: list[int] = field(default_factory=list)
    subspace_angles: list[float | None] = field(default_factory=list)
    q_ortho_errors: list[float] = field(default_factory=list)
    block_sum_errors: list[float] = field(default_factory=list)
    kernel_seconds: list[dict[str, float]] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.objectives)

    def append(
        self,
        objective: float,
        seconds: float,
        x_delta: float,
        passes: int,
        subspace_angle: float | None,
        q_ortho_error: float,
        block_sum_error: float,
        kernels: dict[str, float],
    ) -> None:
        self.objectives.append(float(objective))
        self.seconds.append(float(seconds))
        self.x_deltas.append(float(x_delta))
        self.passes.append(int(passes))
        self.subspace_angles.append(None if subspace_angle is None else float(subspace_angle))
        self.q_ortho_errors.append(float(q_ortho_error))
        self.block_sum_errors.append(float(block_sum_error))
        self.kernel_seconds.append(kernels)

    def to_records(self, zero_seconds: bool = False) -> list[dict]:
        return [
            {
                "iter": t + 1,
                "objective": self.objectives[t],
                "seconds": 0.0 if zero_seconds else self.seconds[t],
                "x_delta": self.x_deltas[t],
                "passes": self.passes[t],
                "subspace_angle": self.subspace_angles[t],
                "q_ortho_error": self.q_ortho_errors[t],
                "block_sum_error": self.block_sum_errors[t],
            }
            for t in range(self.n_iterations)
        ]


def init_x(omega: CandidateSets, dims: ProblemDims) -> BlockSparseMatrix:
    """Uniform-on-support start: each block gets 1/|Omega_ij| per entry."""
    # builds the cached layout first, so the dims check scans the support once
    omega.csr_structure(dims)
    sizes = omega.block_sizes
    return BlockSparseMatrix(dims, omega, np.repeat(1.0 / sizes, sizes))


def _support_pass(
    x: BlockSparseMatrix,
    model: LowRankModel,
) -> tuple[BlockSparseMatrix, float, float, float]:
    """The X half-step and the iteration's sums, in one pass over the support.

    Returns X+, the completion Y's candidate blocks projected onto the
    simplex; the objective ||X+ - Y||_F^2 over the full matrix; ||X+ - X||;
    and X+'s max |block sum - 1|. A non-finite value of Y raises
    NumericalError.

    Each chunk of :func:`nutf.parallel.run_chunks` owns _PASS_BLOCKS dot
    blocks (:func:`nutf.core.dot_blocks`). It computes and projects Y on
    every candidate block that meets its entries, so a block that crosses
    a chunk edge is done by both chunks, with the same bits; it writes X+
    on its own entries only and keeps its dot blocks' dots, which are
    added in block order. So the results have the bits of
    :func:`nutf.core.model_support_values`,
    :func:`nutf.simplex.project_blocks`, :func:`nutf.core.frobenius_gap`
    and a blocked ||X+ - X|| run one after another, for any CPU count,
    while only X and X+ span the whole support.
    """
    support, dims = x.support, x.dims
    _, cols, rows = support.csr_structure(dims)
    ptr, old = support.block_ptr, x.values
    new = np.empty(len(old))
    cuts = dot_blocks(len(old))
    n_dots = len(cuts) - 1
    # per dot block: ||X+ - Y||^2, ||Y||^2 and ||X+ - X||^2 on its entries
    dots = np.empty((n_dots, 3))
    # per chunk, at its first dot block: max |block sum - 1| of its blocks
    errors = np.zeros(n_dots)

    def chunk(k0: int, k1: int) -> None:
        lo, hi = cuts[k0], cuts[k1]
        # blocks b0 to b1 - 1 meet entries [lo, hi) and span [s, e)
        b0 = int(np.searchsorted(ptr, lo, side="right")) - 1
        b1 = int(np.searchsorted(ptr, hi))
        s, e = int(ptr[b0]), int(ptr[b1])
        y = np.empty(e - s)
        completion_values(model, rows[s:e], cols[s:e], y)
        if not np.all(np.isfinite(y)):
            raise NumericalError("non-finite completion values")
        local_ptr = ptr[b0:b1 + 1] - s
        projected = np.empty(e - s)
        project_into(y, local_ptr, projected)
        new[lo:hi] = projected[lo - s:hi - s]
        for k in range(k0, k1):
            a, b = cuts[k], cuts[k + 1]
            y_k = y[a - s:b - s]
            gap, step = new[a:b] - y_k, new[a:b] - old[a:b]
            dots[k] = gap @ gap, y_k @ y_k, step @ step
        owned = int(np.searchsorted(ptr, lo)) - b0
        errors[k0] = np.abs(block_sums(projected, local_ptr)[owned:] - 1.0).max(initial=0.0)

    run_chunks(chunk, [*range(0, n_dots, _PASS_BLOCKS), n_dots])
    # cumsum adds in block order, the order of nutf.parallel.sum_blocks
    on_support, y_on, squares = np.cumsum(dots, axis=0)[-1].tolist()
    objective = gap_from_support(model, on_support, y_on)
    new_x = BlockSparseMatrix(dims, support, new)
    return new_x, objective, float(np.sqrt(squares)), float(errors.max())


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

    ``on_iteration(iter, x, model, objective)`` is invoked after every
    completed iteration (instrumentation, e.g. feasibility audits).
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
        x, objective, x_delta, sum_error = _support_pass(x, model)
        t2 = time.perf_counter()
        q_error = model.orthonormality_error()
        t3 = time.perf_counter()
        kernels.update(support_pass=t2 - t1, audit=t3 - t2)
        trace.append(objective, t3 - t0, x_delta, passes, angle, q_error, sum_error, kernels)
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
    only ``restrict`` when given; ties are broken by ascending category
    index so evaluation metrics are deterministic.
    """
    dims = model.dims
    if not 0 <= i < dims.n_users:
        raise ValueError(f"user index {i} out of range [0, {dims.n_users})")
    if not 0 <= j < dims.n_slots:
        raise ValueError(f"slot index {j} out of range [0, {dims.n_slots})")
    if restrict is None:
        cats = np.arange(dims.n_categories, dtype=np.int64)
    else:
        cats = np.unique(np.asarray(list(restrict), dtype=np.int64))
        if len(cats) == 0:
            raise ValueError("restrict set is empty")
        if cats[0] < 0 or cats[-1] >= dims.n_categories:
            raise ValueError("restrict contains out-of-range categories")
    if not 1 <= k_top <= len(cats):
        raise ValueError(f"k_top {k_top} out of range [1, {len(cats)}]")
    scores = model.slot_scores(i, j)[cats]
    order = np.argsort(-scores, kind="stable")
    return cats[order[:k_top]]
