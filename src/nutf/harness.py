"""Synthetic data generation and top-k scoring.

The generator plants lifestyle classes: every user of a class visits the
same category at the same slot, so the fully observed probability tensor
has rank at most the class count. Observed slots get a candidate set
containing the true category plus uniform decoys, which is exactly the
negative-unlabeled observation structure the solver consumes.

Generation and top-k scoring run their chunks on nutf's long-lived
thread pool (:mod:`nutf.parallel`); chunk bounds depend on the input
alone and scoring makes no threaded BLAS call, so both give the same
output for any CPU count and BLAS thread count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (BLOCK_DTYPES, CAT_DTYPES, CandidateSets, LowRankModel, ProblemDims, as_int,
                   narrowest_dtype)
from .parallel import run_chunks

# score_topk scores its pairs in chunks of about this many (pair, category) scores
_OBS_CHUNK = 200_000
# generate cuts its users into chunks that draw at most this many slot and
# decoy doubles (2 MiB, 4 MiB with their argpartition indices), or one user
_DRAW_CHUNK = 1 << 18

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
        for name in ("n_classes", "candidates_per_update", "seed"):
            as_int(getattr(self, name), name)
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
    order (sorted by user, then slot); from :func:`generate` they are the
    candidate sets' own narrow user and slot arrays, and the true
    categories share the dtype of their categories.
    """

    obs_users: np.ndarray
    obs_slots: np.ndarray
    true_cats: np.ndarray
    user_classes: np.ndarray

    def pairs(self) -> np.ndarray:
        """The (user, slot, true category) triples in observation order, as
        one C-contiguous (n, 3) int64 array that score_topk and
        serialize.write_pairs_jsonl take without conversion."""
        return np.stack((self.obs_users, self.obs_slots, self.true_cats), axis=1,
                        dtype=np.int64)


@dataclass
class EvalReport:
    """Top-k accuracies for k = 1..k_max over a validation list."""

    accuracies: np.ndarray
    n_pairs: int

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

    The schedule and the classes come first from one PCG64 generator
    seeded with ``cfg.seed``. Its next N*T doubles pick the slots, T per
    user, and the n_obs*(C-1) doubles after them the decoys, C-1 per
    observation. Users are cut into chunks of about ``_DRAW_CHUNK``
    doubles, fixed by the config alone, that run on
    :func:`nutf.parallel.run_chunks`. Each chunk jumps a copy of the
    generator ahead to its first slot double, then to its first decoy
    double (:meth:`numpy.random.PCG64.advance`), so the output is the
    same bytes for any chunking and any CPU count.
    """
    dims = cfg.dims
    rng = np.random.default_rng(cfg.seed)
    n, t, c = cfg.n_users, cfg.n_slots, cfg.n_categories
    k_slots = cfg.slots_per_user
    n_cand = cfg.candidates_per_update

    schedule = rng.integers(0, c, size=(cfg.n_classes, t), dtype=np.int64)
    user_classes = rng.integers(0, cfg.n_classes, size=n, dtype=np.int64)
    state = rng.bit_generator.state

    # the index dtypes CandidateSets keeps, so the arrays are drawn into
    # once and shared with the ground truth, never copied
    n_obs = n * k_slots
    cat_dtype = narrowest_dtype(CAT_DTYPES, 0, c - 1)
    obs_slots = np.empty(n_obs, dtype=narrowest_dtype(CAT_DTYPES, 0, t - 1))
    true_cats = np.empty(n_obs, dtype=cat_dtype)
    cats = np.empty((n_obs, n_cand), dtype=cat_dtype)

    def draw_users(lo: int, hi: int) -> None:
        # Generator.random takes one 64-bit output per double, so advancing a
        # copy of the state by d outputs skips exactly d doubles
        bit_gen = np.random.PCG64(0)  # any seed: the state is replaced
        bit_gen.state = state
        gen = np.random.Generator(bit_gen.advance(lo * t))
        obs = slice(lo * k_slots, hi * k_slots)
        # k distinct slots per user: top-k of a uniform draw, then sorted so
        # the blocks come out in (user, slot) order
        slots = np.argpartition(gen.random((hi - lo, t)), k_slots - 1, axis=1)[:, :k_slots]
        slots.sort(axis=1)
        chunk_truth = schedule[user_classes[lo:hi, None], slots].ravel()
        obs_slots[obs] = slots.ravel()
        true_cats[obs] = chunk_truth
        block = cats[obs]
        block[:, 0] = chunk_truth
        if n_cand > 1:
            # from slot double hi*T to decoy double N*T + lo*k*(C-1)
            bit_gen.advance((n - hi) * t + obs.start * (c - 1))
            scratch = gen.random((len(chunk_truth), c - 1))
            decoys = np.argpartition(scratch, n_cand - 2, axis=1)[:, : n_cand - 1]
            # decoys index the C-1 categories with the truth removed
            decoys += decoys >= chunk_truth[:, None]
            block[:, 1:] = decoys
        block.sort(axis=1)

    users_per_chunk = max(1, _DRAW_CHUNK // (t + k_slots * (c - 1)))
    run_chunks(draw_users, [*range(0, n, users_per_chunk), n])

    obs_users = np.repeat(np.arange(n, dtype=narrowest_dtype(BLOCK_DTYPES, 0, n - 1)), k_slots)
    ptr = np.arange(0, (n_obs + 1) * n_cand, n_cand,
                    dtype=narrowest_dtype(BLOCK_DTYPES, 0, n_obs * n_cand))
    omega = CandidateSets(obs_users, obs_slots, ptr, cats.ravel())
    truth = GroundTruth(obs_users, obs_slots, true_cats, user_classes)
    return omega, truth, dims


def score_topk(
    model: LowRankModel,
    validation: Sequence[ValidationPair] | np.ndarray,
    k_max: int,
) -> EvalReport:
    """Top-k accuracy of the model on (user, slot, true category) pairs.

    ``validation`` is a sequence of triples or an aligned (n, 3) integer
    array; an int64 array, such as :meth:`GroundTruth.pairs` returns, is
    read in place with no conversion. Equivalent to calling predict_topk
    per pair with k = k_max and checking membership of the truth among the
    first k predictions, with the same tie rule (equal scores rank by
    ascending category index).
    The pairs are grouped by slot and scored with one matrix product per
    slot (:meth:`LowRankModel.slot_scores`), so the scores agree with
    predict_topk's up to rounding; the report does not depend on the
    order of the pairs.
    Chunks of about ``_OBS_CHUNK`` scores run on
    :func:`nutf.parallel.run_chunks`, each writing its own slice of the
    ranks; a call of one chunk runs inline. Every product stays within
    :func:`nutf.parallel.row_blocks`' blocks, so BLAS makes no threaded
    call, and the report is the same for any CPU count and BLAS thread
    count.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if isinstance(validation, np.ndarray):
        if validation.ndim != 2 or validation.shape[1] != 3:
            raise ValueError(f"validation array must be (n, 3), got {validation.shape}")
        if not np.issubdtype(validation.dtype, np.integer):
            raise ValueError(f"validation array must hold integers, got {validation.dtype}")
        triples = validation.astype(np.int64, copy=False)
    else:
        triples = np.fromiter(itertools.chain.from_iterable(validation), np.int64,
                              count=3 * len(validation)).reshape(-1, 3)
    if len(triples) == 0:
        raise ValueError("validation list is empty")
    dims = model.dims
    c = dims.n_categories
    if k_max > c:
        raise ValueError("k_max exceeds the category count")
    users, slots, truths = triples.T
    if users.min() < 0 or users.max() >= dims.n_users:
        raise ValueError("validation user index out of range")
    if slots.min() < 0 or slots.max() >= dims.n_slots:
        raise ValueError("validation slot index out of range")
    if truths.min() < 0 or truths.max() >= c:
        raise ValueError("validation category out of range")

    # ranks are kept in slot order; the accuracies do not depend on it. A
    # stable argsort of 8- or 16-bit keys is a radix sort, of int64 a timsort;
    # both give the one stable permutation.
    keys = slots
    if dims.n_slots <= 1 << 16:
        keys = slots.astype(np.uint8 if dims.n_slots <= 1 << 8 else np.uint16)
    order = np.argsort(keys, kind="stable")
    n = len(order)
    ranks = np.empty(n, dtype=np.int64)
    chunk = max(1, _OBS_CHUNK // c)
    cat_range = np.arange(c, dtype=np.int64)

    def rank_chunk(start: int, stop: int) -> None:
        idx = order[start:stop]
        scores = model.slot_scores(users[idx], slots[idx])
        truth = truths[idx]
        true_scores = scores[np.arange(len(idx)), truth][:, None]
        rank = np.count_nonzero(scores > true_scores, axis=1)
        # equal scores rank by ascending category; the truth always ties itself
        tied = np.flatnonzero(np.count_nonzero(scores == true_scores, axis=1) > 1)
        rank[tied] += np.count_nonzero(
            (scores[tied] == true_scores[tied]) & (cat_range < truth[tied, None]), axis=1)
        ranks[start:stop] = rank

    run_chunks(rank_chunk, [*range(0, n, chunk), n])
    accuracies = np.array([(ranks < k).mean() for k in range(1, k_max + 1)])
    return EvalReport(accuracies=accuracies, n_pairs=n)
