"""Core data structures for negative-unlabeled tensor completion.

The observations form a 3-way array over (user, time slot, category).
Everything downstream works on its mode-1 unfolding: an N x (T*C) matrix
whose column index merges (slot, category) as ``j*C + k``. Only entries
inside the per-(user, slot) candidate sets are ever materialized; the
rest are zero by representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .parallel import DOT_SERIAL, GEMM_SERIAL, PANEL_BLOCKS, row_blocks, sum_blocks

_I64_MAX = np.iinfo(np.int64).max
_I32_MAX = np.iinfo(np.int32).max

# Index dtypes of CandidateSets, narrowest first: categories and slots, then
# users and block pointers.
CAT_DTYPES = (np.uint8, np.uint16, np.int32, np.int64)
BLOCK_DTYPES = (np.int32, np.int64)

# Dot-product blocks per pool chunk.
_DOT_BLOCKS = 16

# Largest deviation from orthonormality that LowRankModel.validate accepts.
_ORTHONORMAL_TOL = 1e-8


@dataclass(frozen=True)
class ProblemDims:
    """Problem sizes: N users, T time slots, C location categories. They
    also fix the orientation of the low-rank solve (:attr:`transposed`)."""

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

    @property
    def transposed(self) -> bool:
        """True when N < T*C: the solver then factors the transposed unfolding,
        so its test matrix and its C factor sit on the shorter side."""
        return self.n_users < self.n_cols


def narrowest_dtype(dtypes: Sequence[type], lo: int, hi: int) -> type:
    """The first of ``dtypes`` whose range holds [lo, hi], else the last one."""
    for dtype in dtypes:
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return dtype
    return dtypes[-1]


def _narrowest(values, dtypes: Sequence[type]) -> np.ndarray:
    """``values`` as a contiguous array of the narrowest of ``dtypes`` that
    holds them; a copy only when that dtype differs."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.int64)
    lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
    return np.ascontiguousarray(arr, dtype=narrowest_dtype(dtypes, lo, hi))


class CandidateSets:
    """Per-(user, slot) sets of admissible category indices.

    Blocks are stored in block-CSR form, sorted by (user, slot), with the
    category indices of each block strictly increasing. A (user, slot)
    pair with no location update is simply absent, which means "no
    information", not "impossible everywhere".

    Each index array is stored in the narrowest of its dtypes that holds
    all of its values, so the bytes per support entry follow the largest
    index, not the platform's integer. Every index keeps its value, so
    what is computed or written from them does not depend on the dtype;
    files store them as int64 whatever their dtype in memory. A search of
    ``block_ptr`` passes a needle of its own dtype (``ptr.dtype.type(lo)``):
    numpy converts the whole array to a needle's wider dtype on every call.

    Attributes:
        block_users: user index per block; int32, or int64 past 2**31 - 1.
        block_slots: slot index per block; uint8 up to 255, then uint16,
            int32 and int64.
        block_ptr: array of length n_blocks+1; block b owns
            ``cats[block_ptr[b]:block_ptr[b+1]]``, so its size is
            ``np.diff(block_ptr)[b]``; int32 while |Omega| <= 2**31 - 1,
            else int64.
        cats: category indices, concatenated per block; uint8 up to 255,
            then uint16, int32 and int64.
    """

    __slots__ = ("block_users", "block_slots", "block_ptr", "cats", "_csr_cache")

    def __init__(self, block_users, block_slots, block_ptr, cats):
        self.block_users = _narrowest(block_users, BLOCK_DTYPES)
        self.block_slots = _narrowest(block_slots, CAT_DTYPES)
        self.block_ptr = _narrowest(block_ptr, BLOCK_DTYPES)
        self.cats = _narrowest(cats, CAT_DTYPES)
        self._csr_cache: tuple = (None,)  # (dims, indptr, cols) once built
        self._check_structure()

    def _check_structure(self) -> None:
        nb = self.n_blocks
        if self.block_users.shape != (nb,) or self.block_slots.shape != (nb,):
            raise ValueError("block index arrays have inconsistent lengths")
        ptr = self.block_ptr
        if ptr[0] != 0 or ptr[-1] != len(self.cats):
            raise ValueError("block_ptr does not cover the category array")
        if not np.all(ptr[1:] > ptr[:-1]):
            raise ValueError("empty candidate sets are not representable; drop the block")
        if nb:
            if self.block_users.min() < 0 or self.block_slots.min() < 0:
                raise ValueError("negative user or slot index")
            # strict (user, slot) ordering also rules out duplicate blocks;
            # comparisons, not np.diff, which wraps on unsigned slots
            users, slots = self.block_users, self.block_slots
            same_user = users[1:] == users[:-1]
            ordered = (users[1:] > users[:-1]) | (same_user & (slots[1:] > slots[:-1]))
            if not ordered.all():
                b = int(np.argmin(ordered))
                pair = (int(users[b + 1]), int(slots[b + 1]))
                fault = "is given twice" if same_user[b] and slots[b + 1] == slots[b] \
                    else "is out of order"
                raise ValueError(f"blocks must be strictly sorted by (user, slot): {pair} {fault}")
        if len(self.cats):
            cats = self.cats
            if cats.min() < 0:
                raise ValueError("negative category index")
            # a comparison, not np.diff, which wraps on unsigned cats
            increasing = cats[1:] > cats[:-1]
            increasing[ptr[1:-1] - 1] = True  # pairs that cross into the next block
            if not increasing.all():
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

    # -- basic accessors ------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return len(self.block_users)

    @property
    def total_size(self) -> int:
        """Total number of candidate entries, |Omega|."""
        return len(self.cats)

    def validate_dims(self, dims: ProblemDims) -> None:
        """Raise ValueError if an index falls outside dims.

        Free for the dims of the cached layout, which were checked when it
        was built.
        """
        if self._csr_cache[0] == dims or not self.n_blocks:
            return
        if int(self.block_users.max()) >= dims.n_users:
            raise ValueError("user index exceeds n_users")
        if int(self.block_slots.max()) >= dims.n_slots:
            raise ValueError("slot index exceeds n_slots")
        if int(self.cats.max()) >= dims.n_categories:
            raise ValueError("category index exceeds n_categories")

    # -- flattened views ------------------------------------------------

    def csr_structure(self, dims: ProblemDims) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, unfolded column index per entry) of the support's CSR layout.

        Built and checked against dims once, then cached: the support is
        shared by every iterate of a solve. Both arrays are int32 when N,
        T*C and |Omega| all fit, else int64, the index dtype scipy keeps
        as-is, so CSR views over them copy nothing. The row of each entry
        is not stored: blocks b0 to b1 - 1 have the rows
        ``np.repeat(block_users[b0:b1], np.diff(block_ptr[b0:b1 + 1]))``.
        """
        if self._csr_cache[0] == dims:
            return self._csr_cache[1:]
        self.validate_dims(dims)
        idx = np.int32 if max(dims.n_users, dims.n_cols, self.total_size) <= _I32_MAX \
            else np.int64
        # slot * C in the layout's dtype, which holds T*C
        entry_cols = np.repeat(self.block_slots.astype(idx) * dims.n_categories,
                               np.diff(self.block_ptr))
        entry_cols += self.cats
        # row u starts at the first block of a user >= u
        starts = np.searchsorted(self.block_users, np.arange(dims.n_users + 1, dtype=idx))
        indptr = self.block_ptr[starts].astype(idx)
        self._csr_cache = (dims, indptr, entry_cols)
        return indptr, entry_cols


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


@dataclass
class LowRankModel:
    """Rank-r completion Y = Q @ C with orthonormal Q, 1 <= r <= min(N, T*C).

    Q is max(N, T*C) x r and C is r x min(N, T*C), the shapes the solver
    produces. When ``dims.transposed`` (N < T*C) the solve ran on the
    transposed unfolding and Y = (Q @ C)^T; otherwise Y = Q @ C.

    Either way Y = user_factor @ col_factor^T, with user_factor N x r and
    col_factor (T*C) x r. Readers of Y go through these two views (or the
    methods below), so they need not know the orientation.
    """

    dims: ProblemDims
    q: np.ndarray
    c: np.ndarray
    user_factor: np.ndarray = field(init=False, repr=False, compare=False)
    col_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.q = np.ascontiguousarray(self.q, dtype=np.float64)
        self.c = np.ascontiguousarray(self.c, dtype=np.float64)
        short_side, long_side = sorted((self.dims.n_users, self.dims.n_cols))
        if self.q.ndim != 2 or self.q.shape[0] != long_side:
            raise ValueError(f"q must be {long_side} x r, got {self.q.shape}")
        if not 1 <= self.rank <= short_side:
            raise ValueError(f"rank {self.rank} outside [1, min(N, T*C) = {short_side}]")
        if self.c.shape != (self.rank, short_side):
            raise ValueError(f"c must be {self.rank} x {short_side}, got {self.c.shape}")
        # C is on the shorter side, so this copy is O(min(N, T*C) * r)
        c_t = np.ascontiguousarray(self.c.T)
        self.user_factor, self.col_factor = (c_t, self.q) if self.dims.transposed else (self.q, c_t)

    @property
    def rank(self) -> int:
        return self.q.shape[1]

    def orthonormality_error(self) -> float:
        """max |Q^T Q - I|."""
        return float(np.abs(gram(self.q, self.q) - np.eye(self.rank)).max())

    def validate(self) -> None:
        if not (np.isfinite(self.q).all() and np.isfinite(self.c).all()):
            raise ValueError("model factors hold non-finite values")
        # orthonormal columns hold no entry above 1; a larger one could overflow Q^T Q
        if np.abs(self.q).max() > 1.0 + _ORTHONORMAL_TOL:
            raise ValueError("Q columns are not orthonormal: an entry exceeds 1 in magnitude")
        err = self.orthonormality_error()
        if err > _ORTHONORMAL_TOL:
            raise ValueError(f"Q columns are not orthonormal: max deviation {err:.3e}")

    def slot_scores(self, users, slots) -> np.ndarray:
        """Completion values of every category at each (user, slot) pair.

        ``users`` and ``slots`` are equal-length index arrays, or two
        scalars. The result has shape (len(users), C), or (C,) for
        scalars; entry k is Y at column ``slot*C + k``. Indices are not
        range-checked.

        Arrays are scored with one matrix product per run of equal
        consecutive slots, so any order is correct and input grouped by
        slot is fastest. A run whose product is past ``GEMM_SERIAL`` is
        cut into the blocks of :func:`nutf.parallel.row_blocks`, so BLAS
        computes every product on the calling thread; a row's scores have
        the same bits either way. Those scores agree with the scalar path,
        which :func:`nutf.solver.predict_topk` takes, up to rounding.
        """
        dims = self.dims
        by_slot = self.col_factor.reshape(dims.n_slots, dims.n_categories, self.rank)
        if np.isscalar(slots):
            return (by_slot[slots] @ self.user_factor[users][..., None])[..., 0]
        slots = np.asarray(slots)
        out = np.empty((len(slots), dims.n_categories))
        if len(slots) == 0:
            return out
        rows = self.user_factor[users]
        bounds = [0, *(np.flatnonzero(slots[1:] != slots[:-1]) + 1).tolist(), len(slots)]
        # cut each run whose product BLAS would thread into row blocks, the last
        # run first so that the bounds before it keep their places
        width = dims.n_categories * self.rank
        for i in reversed(np.flatnonzero(np.diff(bounds) * width > GEMM_SERIAL).tolist()):
            cuts = row_blocks(bounds[i + 1] - bounds[i], width, 1)
            bounds[i + 1:i + 1] = [bounds[i] + cut for cut in cuts[1:-1]]
        # np.dot: less call overhead than np.matmul, which matters for short runs
        for lo, hi, j in zip(bounds, bounds[1:], slots[bounds[:-1]].tolist()):
            np.dot(rows[lo:hi], by_slot[j].T, out=out[lo:hi])
        return out


def model_support_values(model: LowRankModel, support: CandidateSets) -> np.ndarray:
    """Completion values at every support entry, in support order.

    The serial reference for the Y step of :func:`nutf.solver._support_pass`:
    one :func:`completion_values` call over the whole support, which holds
    its two factor gathers, 16 * r bytes per entry, at once. Each entry is
    one inner product, so the values have the pass's bits.
    """
    _, cols = support.csr_structure(model.dims)
    rows = np.repeat(support.block_users, np.diff(support.block_ptr))
    out = np.empty(len(cols), dtype=np.float64)
    completion_values(model, rows, cols, out)
    return out


def completion_values(model: LowRankModel, rows: np.ndarray, cols: np.ndarray,
                      out: np.ndarray) -> None:
    """Write the completion's value at each (rows[e], cols[e]) of the unfolding into out[e].

    Each value is one inner product of two gathered factor rows, so its
    bits do not depend on which entries share the call.
    """
    # without optimize=True the low bits of the sums change, and with them
    # the bytes fit writes
    np.einsum("er,er->e", np.take(model.user_factor, rows, axis=0),
              np.take(model.col_factor, cols, axis=0), out=out, optimize=True)


def gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^T @ b for two tall panels of equal height.

    The rows run in the blocks of :func:`nutf.parallel.row_blocks` on the
    pool, each block's product on its thread, and
    :func:`nutf.parallel.sum_blocks` adds them in block order; so the bits
    depend on the height but not on the CPU or BLAS thread count.
    """
    cuts = row_blocks(len(a), a.shape[1] * b.shape[1])
    return sum_blocks(lambda lo, hi: a[lo:hi].T @ b[lo:hi], cuts, PANEL_BLOCKS)


def sum_dots(n: int, dots: Callable[[int, int], tuple[float, ...]]) -> tuple[float, ...]:
    """Sums over n entries of the dot products ``dots(lo, hi)`` takes of entries [lo, hi).

    The entries run in blocks of DOT_SERIAL on the pool, each block's dots
    on its thread, and :func:`nutf.parallel.sum_blocks` adds them in block
    order. Up to DOT_SERIAL entries, 0 included, this is ``dots(0, n)``.
    """
    return tuple(sum_blocks(lambda lo, hi: np.array(dots(lo, hi)), dot_blocks(n),
                            _DOT_BLOCKS).tolist())


def dot_blocks(n: int) -> list[int]:
    """Cuts of n entries into the blocks of DOT_SERIAL entries that every long
    dot product runs in; n = 0 is one empty block."""
    return [0, *range(DOT_SERIAL, n, DOT_SERIAL), n]


def frobenius_gap(
    x: BlockSparseMatrix,
    model: LowRankModel,
    y_support: np.ndarray,
) -> float:
    """Exact squared Frobenius distance ||X - Y||_F^2 over the full matrix.

    Splits the sum into on-support and off-support parts; the latter is
    ||C||_F^2 - ||Y_support||^2 because Q has orthonormal columns, so the
    off-support entries of Y are never materialized. ``y_support`` holds
    the completion's values on x's support, in support order (see
    :func:`model_support_values`). The dot products run in blocks (see
    :func:`sum_dots`), with no temporary longer than a block.
    """
    if model.dims != x.dims:
        raise ValueError("model and matrix dimensions do not match")
    if y_support.shape != x.values.shape:
        raise ValueError("y_support misaligned with the matrix support")
    values = x.values

    def on_support_dots(lo: int, hi: int) -> tuple[float, float]:
        diff, y = values[lo:hi] - y_support[lo:hi], y_support[lo:hi]
        return float(diff @ diff), float(y @ y)

    return gap_from_support(model, *sum_dots(len(values), on_support_dots))


def gap_from_support(model: LowRankModel, on_support: float, y_on: float) -> float:
    """||X - Y||_F^2 from its on-support part and ||Y_support||^2 (see
    :func:`frobenius_gap`): the off-support part is ||C||_F^2 - ||Y_support||^2."""
    c = model.c.ravel()
    (total_y,) = sum_dots(len(c), lambda lo, hi: (float(c[lo:hi] @ c[lo:hi]),))
    # rounding can drive the off-support part slightly negative when Y ~ X
    return max(on_support + (total_y - y_on), 0.0)
