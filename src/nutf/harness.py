"""Synthetic data generation, validation-set construction, and scoring.

The generator plants lifestyle classes: every user of a class visits the
same category at the same slot, so the fully observed probability tensor
has rank at most the class count. Observed slots get a candidate set
containing the true category plus uniform decoys, which is exactly the
negative-unlabeled observation structure the solver consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CandidateSets, LowRankModel, ProblemDims

# Per-observation decoy sampling works on chunks of this many rows to keep
# the (rows x categories) scratch matrix small.
_OBS_CHUNK = 200_000

ValidationPair = tuple[int, int, int]  # (user, slot, true category)


@dataclass(frozen=True)
class SynthConfig:
    n_users: int
    n_slots: int
    n_categories: int
    n_classes: int = 10
    slot_density: float = 0.2
    candidates_per_update: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        dims = ProblemDims(self.n_users, self.n_slots, self.n_categories)
        if not 1 <= self.n_classes <= self.n_users:
            raise ValueError("n_classes must be in [1, n_users]")
        if not 1 <= self.candidates_per_update <= self.n_categories:
            raise ValueError("candidates_per_update must be in [1, n_categories]")
        if not 0.0 < self.slot_density <= 1.0:
            raise ValueError("slot_density must be in (0, 1]")
        if int(np.floor(self.slot_density * dims.n_slots + 0.5)) < 1:
            raise ValueError("slot_density rounds to zero observed slots per user")

    @property
    def dims(self) -> ProblemDims:
        return ProblemDims(self.n_users, self.n_slots, self.n_categories)

    @property
    def slots_per_user(self) -> int:
        return int(np.floor(self.slot_density * self.n_slots + 0.5))


@dataclass
class GroundTruth:
    """True category per generated observation plus per-user class labels.

    Observation arrays are aligned with the generated CandidateSets block
    order (sorted by user, then slot).
    """

    obs_users: np.ndarray
    obs_slots: np.ndarray
    true_cats: np.ndarray
    user_classes: np.ndarray

    @property
    def n_observations(self) -> int:
        return len(self.obs_users)

    def pairs(self) -> list[ValidationPair]:
        return list(
            zip(
                self.obs_users.tolist(),
                self.obs_slots.tolist(),
                self.true_cats.tolist(),
            )
        )


@dataclass
class EvalReport:
    """Top-k accuracies for k = 1..k_max over a validation list."""

    accuracies: np.ndarray
    n_pairs: int

    @property
    def k_max(self) -> int:
        return len(self.accuracies)

    def accuracy_at(self, k: int) -> float:
        return float(self.accuracies[k - 1])

    def to_dict(self) -> dict:
        return {
            "n_pairs": self.n_pairs,
            "accuracy_at_k": {str(k + 1): float(a) for k, a in enumerate(self.accuracies)},
        }

    def format_table(self) -> str:
        lines = ["  k  accuracy", "  -  --------"]
        for k, acc in enumerate(self.accuracies, start=1):
            lines.append(f"  {k:<2d} {acc:8.4f}")
        lines.append(f"  ({self.n_pairs} validation pairs)")
        return "\n".join(lines)


def generate(cfg: SynthConfig) -> tuple[CandidateSets, GroundTruth, ProblemDims]:
    """Draw a class-structured instance.

    Each class gets a uniform random schedule (slot -> category); users are
    assigned to classes uniformly. Every user observes ``slots_per_user``
    distinct random slots; each observation's candidate set is its true
    category plus ``candidates_per_update - 1`` distinct decoys drawn
    uniformly from the other C-1 categories.
    """
    dims = cfg.dims
    rng = np.random.default_rng(cfg.seed)
    n, t, c = cfg.n_users, cfg.n_slots, cfg.n_categories
    k_slots = cfg.slots_per_user
    n_cand = cfg.candidates_per_update

    schedule = rng.integers(0, c, size=(cfg.n_classes, t), dtype=np.int64)
    user_classes = rng.integers(0, cfg.n_classes, size=n, dtype=np.int64)

    # k distinct slots per user: top-k of a uniform draw, then sorted so the
    # resulting blocks are already in (user, slot) order
    draws = rng.random((n, t))
    slots = np.sort(np.argpartition(draws, k_slots - 1, axis=1)[:, :k_slots], axis=1)
    obs_users = np.repeat(np.arange(n, dtype=np.int64), k_slots)
    obs_slots = slots.astype(np.int64).ravel()
    true_cats = schedule[user_classes[obs_users], obs_slots]

    n_obs = len(obs_users)
    cats = np.empty((n_obs, n_cand), dtype=np.int64)
    cats[:, 0] = true_cats
    if n_cand > 1:
        for start in range(0, n_obs, _OBS_CHUNK):
            sl = slice(start, min(start + _OBS_CHUNK, n_obs))
            rows = sl.stop - sl.start
            scratch = rng.random((rows, c - 1))
            decoys = np.argpartition(scratch, n_cand - 2, axis=1)[:, : n_cand - 1]
            # decoys index the C-1 categories with the truth removed
            decoys += decoys >= true_cats[sl, None]
            cats[sl, 1:] = decoys
    cats.sort(axis=1)

    ptr = np.arange(0, (n_obs + 1) * n_cand, n_cand, dtype=np.int64)
    omega = CandidateSets(obs_users, obs_slots, ptr, cats.ravel())
    truth = GroundTruth(obs_users, obs_slots, true_cats, user_classes)
    return omega, truth, dims


def _replace_blocks_with_full(
    omega: CandidateSets,
    dims: ProblemDims,
    block_ids: np.ndarray,
) -> CandidateSets:
    """Copy omega with the given blocks' candidate sets widened to [0, C)."""
    c = dims.n_categories
    masked = np.zeros(omega.n_blocks, dtype=bool)
    masked[block_ids] = True
    sizes = np.where(masked, c, omega.block_sizes)
    ptr = np.zeros(omega.n_blocks + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    widened = np.repeat(masked, sizes)
    cats = np.empty(ptr[-1], dtype=np.int64)
    # a widened block's entries are its positions 0..C-1; the others keep theirs
    cats[widened] = np.tile(np.arange(c, dtype=np.int64), np.count_nonzero(masked))
    cats[~widened] = omega.cats[np.repeat(~masked, omega.block_sizes)]
    return CandidateSets(omega.block_users.copy(), omega.block_slots.copy(), ptr, cats)


def mask_validation(
    omega: CandidateSets,
    truth: GroundTruth,
    fraction: float,
    dims: ProblemDims,
    seed: int = 0,
) -> tuple[CandidateSets, list[ValidationPair]]:
    """Hide a random fraction of observations behind all-C candidate sets.

    The selected blocks keep their (user, slot) position but their
    candidate set becomes the full category range, so the solver sees them
    as maximally uncertain; their true categories move to the returned
    validation list. The sample size is round-half-up(fraction * n_obs).
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    if truth.n_observations != omega.n_blocks:
        raise ValueError("truth is not aligned with the candidate sets")
    n_mask = int(np.floor(fraction * truth.n_observations + 0.5))
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(truth.n_observations, size=n_mask, replace=False))
    masked = _replace_blocks_with_full(omega, dims, chosen)
    validation = [
        (int(truth.obs_users[b]), int(truth.obs_slots[b]), int(truth.true_cats[b]))
        for b in chosen
    ]
    return masked, validation


def certain_validation(
    omega: CandidateSets,
    dims: ProblemDims,
) -> tuple[CandidateSets, list[ValidationPair]]:
    """Turn every singleton block into a hidden validation pair.

    Blocks with exactly one candidate are the certain observations; their
    single category becomes the ground truth and the block is widened to
    all C categories so the solver must rediscover it.
    """
    sizes = omega.block_sizes
    singles = np.nonzero(sizes == 1)[0]
    validation = [
        (
            int(omega.block_users[b]),
            int(omega.block_slots[b]),
            int(omega.cats[omega.block_ptr[b]]),
        )
        for b in singles
    ]
    if len(singles) == 0:
        return omega, []
    return _replace_blocks_with_full(omega, dims, singles), validation


def score_topk(
    model: LowRankModel,
    validation: Sequence[ValidationPair],
    k_max: int,
) -> EvalReport:
    """Top-k accuracy of the model on (user, slot, true category) pairs.

    Equivalent to calling predict_topk per pair with k = k_max and
    checking membership of the truth among the first k predictions, with
    the same tie rule (equal scores rank by ascending category index);
    implemented as a vectorized rank computation.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if len(validation) == 0:
        raise ValueError("validation list is empty")
    dims = model.dims
    c = dims.n_categories
    if k_max > c:
        raise ValueError("k_max exceeds the category count")
    users = np.asarray([p[0] for p in validation], dtype=np.int64)
    slots = np.asarray([p[1] for p in validation], dtype=np.int64)
    truths = np.asarray([p[2] for p in validation], dtype=np.int64)
    if users.min() < 0 or users.max() >= dims.n_users:
        raise ValueError("validation user index out of range")
    if slots.min() < 0 or slots.max() >= dims.n_slots:
        raise ValueError("validation slot index out of range")
    if truths.min() < 0 or truths.max() >= c:
        raise ValueError("validation category out of range")

    n = len(users)
    ranks = np.empty(n, dtype=np.int64)
    chunk = max(1, _OBS_CHUNK // max(c, 1))
    cat_range = np.arange(c, dtype=np.int64)
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        scores = model.slot_scores(users[sl], slots[sl])
        true_scores = scores[np.arange(sl.stop - sl.start), truths[sl]]
        better = (scores > true_scores[:, None]).sum(axis=1)
        tied_before = (
            (scores == true_scores[:, None]) & (cat_range[None, :] < truths[sl, None])
        ).sum(axis=1)
        ranks[sl] = better + tied_before
    accuracies = np.array([(ranks < k).mean() for k in range(1, k_max + 1)])
    return EvalReport(accuracies=accuracies, n_pairs=n)
