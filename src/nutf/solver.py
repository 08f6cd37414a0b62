"""Alternating minimization under negative-unlabeled constraints.

Each outer iteration fixes X and replaces Y with a rank-r approximation,
then fixes Y and projects every candidate block of Y back onto the
probability simplex (off-support entries stay zero by representation).
Both half-steps exactly minimize ||X - Y||_F^2 over their own variable,
so no step sizes or learning rates are involved.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    BlockSparseMatrix,
    CandidateSets,
    LowRankModel,
    ProblemDims,
    frobenius_gap,
)
from .linalg import NumericalError, PowerIterConfig, sparse_lowrank_approx
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
    """One record per completed outer iteration."""

    objectives: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    x_deltas: list[float] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.objectives)

    def append(self, objective: float, seconds: float, x_delta: float) -> None:
        self.objectives.append(float(objective))
        self.seconds.append(float(seconds))
        self.x_deltas.append(float(x_delta))

    def to_records(self, zero_seconds: bool = False) -> list[dict]:
        return [
            {
                "iter": t + 1,
                "objective": self.objectives[t],
                "seconds": 0.0 if zero_seconds else self.seconds[t],
                "x_delta": self.x_deltas[t],
            }
            for t in range(self.n_iterations)
        ]

    def to_jsonl(self, zero_seconds: bool = False) -> str:
        return "".join(json.dumps(r) + "\n" for r in self.to_records(zero_seconds))


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
    timings: dict | None = None,
) -> tuple[BlockSparseMatrix, LowRankModel, SolverTrace]:
    """Run the alternation from the uniform start.

    Stops after cfg.outer_iters iterations or as soon as the relative
    objective change drops below cfg.tol. The returned X is always
    feasible: zero off support, non-negative, block sums 1. The Gaussian
    test matrix is re-drawn each outer iteration from seed XOR the
    1-based iteration counter.

    ``on_iteration(iter, x, model, objective)`` is invoked after every
    completed iteration (instrumentation, e.g. feasibility audits).
    """
    t0 = time.perf_counter()
    x = init_x(omega, dims)
    if timings is not None:
        timings["init"] = timings.get("init", 0.0) + (time.perf_counter() - t0)
    trace = SolverTrace()
    prev_obj: float | None = None
    for it in range(1, cfg.outer_iters + 1):
        t0 = time.perf_counter()
        lr_cfg = PowerIterConfig(
            rank=cfg.rank, power_iters=cfg.power_iters, seed=cfg.seed ^ it
        )
        model, y_support = sparse_lowrank_approx(x, lr_cfg, timings)
        t1 = time.perf_counter()
        new_x = update_x(y_support, omega, dims)
        t2 = time.perf_counter()
        objective = frobenius_gap(new_x, model, y_support=y_support)
        t3 = time.perf_counter()
        x_delta = float(np.linalg.norm(new_x.values - x.values))
        x = new_x
        t4 = time.perf_counter()
        trace.append(objective, t4 - t0, x_delta)
        if timings is not None:
            for key, seconds in (("project", t2 - t1), ("gap", t3 - t2), ("delta", t4 - t3)):
                timings[key] = timings.get(key, 0.0) + seconds
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
