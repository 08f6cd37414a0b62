"""Core data structures for negative-unlabeled tensor completion.

The observations form a 3-way array over (user, time slot, category).
Everything downstream works on its mode-1 unfolding: an N x (T*C) matrix
whose column index merges (slot, category) as ``j*C + k``. Only entries
inside the per-(user, slot) candidate sets are ever materialized; the
rest are zero by representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .parallel import run_chunks

_I64_MAX = np.iinfo(np.int64).max
_I32_MAX = np.iinfo(np.int32).max

# Entries per materialization chunk: the chunk's two (entries x rank)
# gathers are still in cache when the inner products read them.
_ENTRY_CHUNK = 1 << 15

# Largest matrix, in entries, that BlockSparseMatrix.to_dense materializes.
_MAX_DENSE_ENTRIES = 10_000_000


@dataclass(frozen=True)
class ProblemDims:
    """Problem sizes: N users, T time slots, C location categories."""

    n_users: int
    n_slots: int
    n_categories: int

    def __post_init__(self) -> None:
        for name in ("n_users", "n_slots", "n_categories"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v <= 0:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.n_slots > _I64_MAX // self.n_categories:
            raise ValueError("n_slots * n_categories overflows 64-bit column indices")

    @property
    def n_cols(self) -> int:
        """Column count of the unfolded matrix, T*C."""
        return self.n_slots * self.n_categories


class CandidateSets:
    """Per-(user, slot) sets of admissible category indices.

    Blocks are stored in block-CSR form, sorted by (user, slot), with the
    category indices of each block strictly increasing. A (user, slot)
    pair with no location update is simply absent, which means "no
    information", not "impossible everywhere".

    Attributes:
        block_users: int64 array, user index per block.
        block_slots: int64 array, slot index per block.
        block_ptr: int64 array of length n_blocks+1; block b owns
            ``cats[block_ptr[b]:block_ptr[b+1]]``.
        cats: int64 array of category indices, concatenated per block.
        block_sizes: int64 array, candidate count per block.
    """

    __slots__ = ("block_users", "block_slots", "block_ptr", "cats", "block_sizes", "_csr_cache")

    def __init__(self, block_users, block_slots, block_ptr, cats):
        self.block_users = np.ascontiguousarray(block_users, dtype=np.int64)
        self.block_slots = np.ascontiguousarray(block_slots, dtype=np.int64)
        self.block_ptr = np.ascontiguousarray(block_ptr, dtype=np.int64)
        self.cats = np.ascontiguousarray(cats, dtype=np.int64)
        self._csr_cache: tuple = (None,)  # (dims, indptr, cols, rows) once built
        self._check_structure()

    def _check_structure(self) -> None:
        nb = self.n_blocks
        if self.block_users.shape != (nb,) or self.block_slots.shape != (nb,):
            raise ValueError("block index arrays have inconsistent lengths")
        if self.block_ptr[0] != 0 or self.block_ptr[-1] != len(self.cats):
            raise ValueError("block_ptr does not cover the category array")
        self.block_sizes = sizes = np.diff(self.block_ptr)
        if nb and sizes.min() < 1:
            raise ValueError("empty candidate sets are not representable; drop the block")
        if nb:
            if self.block_users.min() < 0 or self.block_slots.min() < 0:
                raise ValueError("negative user or slot index")
            # strict (user, slot) ordering also rules out duplicate blocks
            du = np.diff(self.block_users)
            dj = np.diff(self.block_slots)
            if not np.all((du > 0) | ((du == 0) & (dj > 0))):
                raise ValueError("blocks must be strictly sorted by (user, slot)")
        if len(self.cats):
            if self.cats.min() < 0:
                raise ValueError("negative category index")
            inner = np.ones(len(self.cats), dtype=bool)
            inner[self.block_ptr[:-1]] = False
            if not np.all(np.diff(self.cats)[inner[1:]] > 0):
                raise ValueError("category indices within a block must be strictly increasing")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_blocks(cls, blocks: Iterable[tuple[int, int, Sequence[int]]]) -> "CandidateSets":
        """Build from (user, slot, categories) triples, in any order."""
        triples = sorted(blocks, key=lambda b: (b[0], b[1]))
        users = np.fromiter((b[0] for b in triples), dtype=np.int64, count=len(triples))
        slots = np.fromiter((b[1] for b in triples), dtype=np.int64, count=len(triples))
        cat_arrays = [np.asarray(sorted(b[2]), dtype=np.int64) for b in triples]
        sizes = np.fromiter((len(c) for c in cat_arrays), dtype=np.int64, count=len(cat_arrays))
        ptr = np.zeros(len(triples) + 1, dtype=np.int64)
        np.cumsum(sizes, out=ptr[1:])
        cats = np.concatenate(cat_arrays) if cat_arrays else np.empty(0, dtype=np.int64)
        return cls(users, slots, ptr, cats)

    @classmethod
    def from_dict(cls, entries: Mapping[tuple[int, int], Sequence[int]]) -> "CandidateSets":
        return cls.from_blocks((i, j, cats) for (i, j), cats in entries.items())

    # -- basic accessors ------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return len(self.block_users)

    @property
    def total_size(self) -> int:
        """Total number of candidate entries, |Omega|."""
        return len(self.cats)

    def items(self) -> Iterator[tuple[tuple[int, int], np.ndarray]]:
        """Yield ((user, slot), categories) per block, in storage order."""
        for b in range(self.n_blocks):
            yield (
                (int(self.block_users[b]), int(self.block_slots[b])),
                self.cats[self.block_ptr[b]:self.block_ptr[b + 1]],
            )

    def to_dict(self) -> dict[tuple[int, int], list[int]]:
        return {key: cats.tolist() for key, cats in self.items()}

    def validate_dims(self, dims: ProblemDims) -> None:
        """Raise ValueError if an index falls outside dims.

        Free for the dims of the cached layout, which were checked when it
        was built.
        """
        if self._csr_cache[0] == dims:
            return
        if self.block_users.max(initial=-1) >= dims.n_users:
            raise ValueError("user index exceeds n_users")
        if self.block_slots.max(initial=-1) >= dims.n_slots:
            raise ValueError("slot index exceeds n_slots")
        if self.cats.max(initial=-1) >= dims.n_categories:
            raise ValueError("category index exceeds n_categories")

    # -- flattened views ------------------------------------------------

    def csr_structure(self, dims: ProblemDims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, unfolded column indices, row index per entry).

        Built and checked against dims once, then cached: the support is
        shared by every iterate of a solve. The arrays are int32 when N,
        T*C and |Omega| all fit, else int64, the index dtype scipy keeps
        as-is, so CSR views over them copy nothing.
        """
        if self._csr_cache[0] == dims:
            return self._csr_cache[1:]
        self.validate_dims(dims)
        idx = np.int32 if max(dims.n_users, dims.n_cols, self.total_size) <= _I32_MAX \
            else np.int64
        sizes = self.block_sizes
        entry_rows = np.repeat(self.block_users.astype(idx), sizes)
        entry_cols = np.repeat((self.block_slots * dims.n_categories).astype(idx), sizes)
        entry_cols += self.cats
        indptr = np.zeros(dims.n_users + 1, dtype=idx)
        np.cumsum(np.bincount(entry_rows, minlength=dims.n_users), out=indptr[1:])
        self._csr_cache = (dims, indptr, entry_cols, entry_rows)
        return indptr, entry_cols, entry_rows


@dataclass
class BlockSparseMatrix:
    """Unfolded N x (T*C) matrix, nonzero only on the candidate support.

    ``values`` holds one non-negative float per support entry, in the
    same order as ``support.cats``. Off-support entries are identically
    zero because they are never stored.
    """

    dims: ProblemDims
    support: CandidateSets
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (self.support.total_size,):
            raise ValueError(
                f"value count {self.values.shape} does not match support size "
                f"{self.support.total_size}"
            )
        self.support.validate_dims(self.dims)
        # written so that a NaN fails it too
        if not self.values.min(initial=0.0) >= 0.0:
            raise ValueError("negative or NaN entries violate the non-negativity constraint")

    def to_csr(self):
        """Zero-copy scipy CSR view over (dims, support, values)."""
        from scipy.sparse import csr_matrix

        indptr, indices, _ = self.support.csr_structure(self.dims)
        return csr_matrix(
            (self.values, indices, indptr),
            shape=(self.dims.n_users, self.dims.n_cols),
        )

    def block_sums(self) -> np.ndarray:
        return np.add.reduceat(self.values, self.support.block_ptr[:-1])

    def max_block_sum_error(self) -> float:
        """max_b |sum(block b) - 1|; 0.0 when there are no blocks."""
        return float(np.abs(self.block_sums() - 1.0).max(initial=0.0))

    def to_dense(self) -> np.ndarray:
        """Materialize the full matrix; guarded against large instances."""
        if self.dims.n_users * self.dims.n_cols > _MAX_DENSE_ENTRIES:
            raise ValueError("instance too large to densify")
        out = np.zeros((self.dims.n_users, self.dims.n_cols))
        _, cols, rows = self.support.csr_structure(self.dims)
        out[rows, cols] = self.values
        return out


@dataclass
class LowRankModel:
    """Rank-r completion Y = Q @ C with orthonormal Q.

    In normal orientation Q is N x r and C is r x (T*C). When the solve
    ran on the transposed unfolding (N < T*C), ``transposed`` is set, Q
    is (T*C) x r, C is r x N, and the completion is Y = (Q @ C)^T.

    Either way Y = user_factor @ col_factor^T, with user_factor N x r and
    col_factor (T*C) x r. Readers of Y go through these two views (or the
    methods below), so they need not know the orientation.
    """

    dims: ProblemDims
    q: np.ndarray
    c: np.ndarray
    transposed: bool = False
    user_factor: np.ndarray = field(init=False, repr=False, compare=False)
    col_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.q = np.ascontiguousarray(self.q, dtype=np.float64)
        self.c = np.ascontiguousarray(self.c, dtype=np.float64)
        n_rows = self.dims.n_cols if self.transposed else self.dims.n_users
        n_cols = self.dims.n_users if self.transposed else self.dims.n_cols
        r = self.q.shape[1] if self.q.ndim == 2 else -1
        if self.q.ndim != 2 or self.q.shape[0] != n_rows:
            raise ValueError(f"q must be {n_rows} x r, got {self.q.shape}")
        if self.c.shape != (r, n_cols):
            raise ValueError(f"c must be {r} x {n_cols}, got {self.c.shape}")
        if r > min(self.dims.n_users, self.dims.n_cols):
            raise ValueError("rank exceeds min(N, T*C)")
        # the solver puts C on the smaller side, so this copy is O(min(N, T*C) * r)
        c_t = np.ascontiguousarray(self.c.T)
        self.user_factor, self.col_factor = (c_t, self.q) if self.transposed else (self.q, c_t)

    @property
    def rank(self) -> int:
        return self.q.shape[1]

    def orthonormality_error(self) -> float:
        """max |Q^T Q - I|; 0.0 for rank 0."""
        if self.rank == 0:
            return 0.0
        g = self.q.T @ self.q
        return float(np.abs(g - np.eye(self.rank)).max())

    def validate(self, tol: float = 1e-8) -> None:
        if not (np.isfinite(self.q).all() and np.isfinite(self.c).all()):
            raise ValueError("model factors hold non-finite values")
        # orthonormal columns hold no entry above 1; a larger one could overflow Q^T Q
        if np.abs(self.q).max(initial=0.0) > 1.0 + tol:
            raise ValueError("Q columns are not orthonormal: an entry exceeds 1 in magnitude")
        err = self.orthonormality_error()
        if err > tol:
            raise ValueError(f"Q columns are not orthonormal: max deviation {err:.3e}")

    def slot_scores(self, users, slots) -> np.ndarray:
        """Completion values of every category at each (user, slot) pair.

        ``users`` and ``slots`` are equal-length index arrays, or two
        scalars. The result has shape (len(users), C), or (C,) for
        scalars; entry k is Y at column ``slot*C + k``. Indices are not
        range-checked.
        """
        dims = self.dims
        by_slot = self.col_factor.reshape(dims.n_slots, dims.n_categories, self.rank)
        return (by_slot[slots] @ self.user_factor[users][..., None])[..., 0]


def model_support_values(model: LowRankModel, support: CandidateSets) -> np.ndarray:
    """Completion values at every support entry, in support order.

    Works in chunks of ``_ENTRY_CHUNK`` entries on
    :func:`nutf.parallel.run_chunks`; each entry is one inner product, so
    the output does not depend on the chunking.
    """
    _, cols, rows = support.csr_structure(model.dims)
    n = len(cols)
    out = np.empty(n, dtype=np.float64)
    u, v = model.user_factor, model.col_factor

    def materialize_chunk(lo: int, hi: int) -> None:
        # without optimize=True the low bits of the sums change, and with
        # them the bytes fit writes
        np.einsum("er,er->e", np.take(u, rows[lo:hi], axis=0), np.take(v, cols[lo:hi], axis=0),
                  out=out[lo:hi], optimize=True)

    run_chunks(materialize_chunk, [*range(0, n, _ENTRY_CHUNK), n])
    return out


def frobenius_gap(
    x: BlockSparseMatrix,
    model: LowRankModel,
    y_support: np.ndarray | None = None,
) -> float:
    """Exact squared Frobenius distance ||X - Y||_F^2 over the full matrix.

    Splits the sum into on-support and off-support parts; the latter is
    ||C||_F^2 - ||Y_support||^2 because Q has orthonormal columns, so the
    off-support entries of Y are never materialized.

    ``y_support`` may pass in precomputed completion values (same order
    as the support) to avoid recomputing them.
    """
    if model.dims != x.dims:
        raise ValueError("model and matrix dimensions do not match")
    if y_support is None:
        y_support = model_support_values(model, x.support)
    elif y_support.shape != x.values.shape:
        raise ValueError("y_support misaligned with the matrix support")
    diff = x.values - y_support
    on_support = float(diff @ diff)
    total_y = float(np.vdot(model.c, model.c))
    y_on = float(y_support @ y_support)
    # rounding can drive the off-support part slightly negative when Y ~ X
    return max(on_support + (total_y - y_on), 0.0)
