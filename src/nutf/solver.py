"""Alternating minimization under negative-unlabeled constraints.

Each outer iteration fixes X and replaces Y with a rank-r approximation,
then fixes Y and projects every candidate block of Y back onto the
probability simplex (off-support entries stay zero by representation).
Both half-steps exactly minimize ||X - Y||_F^2 over their own variable,
so no step sizes or learning rates are involved.
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
    frobenius_gap,
)
from .linalg import NumericalError, sparse_lowrank_approx
from .simplex import project_blocks

IterationCallback = Callable[[int, BlockSparseMatrix, LowRankModel, float], None]


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
        if self.tol < 0:
            raise ValueError("tol must be >= 0")
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
    ``kernel_seconds`` the seconds of each of its kernels: ``spmm``,
    ``qr`` and ``materialize`` from the low-rank half-step, then
    ``project``, ``gap`` (the objective), ``delta`` and ``audit`` (the two
    audits). ``init_seconds`` is the uniform start, run once before the
    first iteration.
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


def update_x(
    y_on_support: np.ndarray,
    omega: CandidateSets,
    dims: ProblemDims,
) -> BlockSparseMatrix:
    """Nearest feasible X to Y: per-block simplex projection of Y's values."""
    y_on_support = np.asarray(y_on_support, dtype=np.float64)
    if y_on_support.shape != (omega.total_size,):
        raise ValueError(
            f"got {y_on_support.shape} values for a support of size {omega.total_size}"
        )
    return BlockSparseMatrix(dims, omega, project_blocks(y_on_support, omega.block_ptr))


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
        model, y_support, kernels, passes, angle = sparse_lowrank_approx(
            x, replace(cfg, seed=cfg.seed ^ it), start=start
        )
        start = model.q
        t1 = time.perf_counter()
        new_x = update_x(y_support, omega, dims)
        t2 = time.perf_counter()
        objective = frobenius_gap(new_x, model, y_support)
        t3 = time.perf_counter()
        x_delta = float(np.linalg.norm(new_x.values - x.values))
        x = new_x
        t4 = time.perf_counter()
        q_error, sum_error = model.orthonormality_error(), x.max_block_sum_error()
        t5 = time.perf_counter()
        kernels.update(project=t2 - t1, gap=t3 - t2, delta=t4 - t3, audit=t5 - t4)
        trace.append(objective, t5 - t0, x_delta, passes, angle, q_error, sum_error, kernels)
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
