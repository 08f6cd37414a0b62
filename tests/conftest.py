import datetime as dt
import math
import time
from bisect import bisect_right
from dataclasses import dataclass

import hypothesis
import numpy as np
import pytest
from scipy.sparse import csr_matrix

from nutf import linalg, parallel, serialize
from nutf.core import (BlockSparseMatrix, CandidateSets, LowRankModel, ProblemDims,
                       frobenius_gap, model_support_values, sum_dots)
from nutf.harness import GroundTruth, SynthConfig
from nutf.ingest import (_LOCAL_MAX_S, _LOCAL_MIN_S, EARTH_RADIUS_M, UPDATES_HEADER,
                         VENUES_HEADER, IngestResult, Updates, Venues, _open_rows,
                         _unit_vectors, haversine_m, read_category_map_csv)
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


def block_items(omega: CandidateSets):
    """Yield ((user, slot), categories) per block, in storage order."""
    for b in range(omega.n_blocks):
        yield ((int(omega.block_users[b]), int(omega.block_slots[b])),
               omega.cats[omega.block_ptr[b]:omega.block_ptr[b + 1]])


def block_dict(omega: CandidateSets) -> dict[tuple[int, int], list[int]]:
    """{(user, slot): categories} of every block."""
    return {key: cats.tolist() for key, cats in block_items(omega)}


def block_sum_error(x: BlockSparseMatrix) -> float:
    """max_b |sum(block b) - 1| of x, each sum by np.add.reduceat; 0.0 when
    there are no blocks."""
    if not x.support.n_blocks:
        return 0.0
    sums = np.add.reduceat(x.values, x.support.block_ptr[:-1])
    return float(np.abs(sums - 1.0).max())


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
    # is reduceat's, v0 + (tail sum), as in nutf.simplex.row_sums.
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
    returns X+, a new matrix, and the pass's (objective, ||X+ - X||,
    max |block sum - 1|)."""
    y = model_support_values(model, x.support)
    if not np.all(np.isfinite(y)):
        raise NumericalError("non-finite completion values")
    new_x = update_x(y, x.support, x.dims)
    return (new_x, frobenius_gap(new_x, model, y), distance(new_x.values, x.values),
            block_sum_error(new_x))


def allocating_lowrank_approx(x: BlockSparseMatrix, cfg: SolverConfig, start=None):
    """nutf.linalg.sparse_lowrank_approx with a new long-side panel for every
    sparse product and QR result: the byte-level oracle for its reused panels.
    Returns (model, passes, angle)."""
    dims = x.dims
    fill_rng = np.random.Generator(np.random.Philox(key=cfg.seed ^ linalg._FILL_SALT))
    product, adjoint_product = linalg._sparse_products(x, cfg.rank)
    a_times, a_t_times = (adjoint_product, product) if dims.transposed \
        else (product, adjoint_product)
    if start is None:
        rng = np.random.Generator(np.random.Philox(key=cfg.seed))
        b = a_times(rng.standard_normal((min(dims.n_users, dims.n_cols), cfg.rank)))
        q, max_passes = linalg.reduced_qr(b, fill_rng), cfg.power_iters
    else:
        q, max_passes = start, max(1, cfg.power_iters)
    passes, angle = 0, None
    while passes < max_passes:
        b = a_times(a_t_times(q))
        q_prev, q = q, linalg.reduced_qr(b, fill_rng)
        passes += 1
        if start is not None or passes == max_passes:
            angle = linalg._principal_sine(q_prev, q)
        if start is not None and angle <= linalg._SUBSPACE_TOL:
            break
    c = np.ascontiguousarray(a_t_times(q).T)
    return LowRankModel(dims, q=q, c=c), passes, angle


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
    for it in range(1, cfg.outer_iters + 1):
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
        sum_error = block_sum_error(BlockSparseMatrix(dims, omega, x[rows, cols]))
        # none of fit's kernels run here: no passes, no angle, an empty kernel split
        trace.records.append({
            "iter": it, "objective": objective,
            "seconds": time.perf_counter() - t0, "x_delta": x_delta, "passes": 0,
            "subspace_angle": None, "q_ortho_error": q_error, "block_sum_error": sum_error,
            "kernels": {}})
        if prev_obj is not None and _relative_change(prev_obj, objective) < cfg.tol:
            break
        prev_obj = objective
    return x, trace


def column(trace: SolverTrace, key: str) -> list:
    """One key of every record of a trace, in iteration order."""
    return [record[key] for record in trace.records]


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


def assert_one_short_side_factor(model: LowRankModel) -> None:
    """The model holds Q and one C-contiguous min(N, T*C) x r array, the
    short-side factor (user_factor when transposed, else col_factor), whose
    buffer ``model.c``, its transposed view, is a view of; no other array
    of the model has that shape."""
    dims, rank = model.dims, model.rank
    short, long_side = (model.user_factor, model.col_factor) if dims.transposed \
        else (model.col_factor, model.user_factor)
    assert long_side is model.q
    assert short.flags.c_contiguous and short.shape == (min(dims.n_users, dims.n_cols), rank)
    buffer = short if short.base is None else short.base
    assert model.c.base is buffer and buffer.nbytes == short.nbytes
    assert model.c.ctypes.data == short.ctypes.data and model.c.T.strides == short.strides
    arrays = [a for a in vars(model).values() if isinstance(a, np.ndarray)]
    assert all(a is model.q or a.base is buffer or a is buffer for a in arrays)


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


# -- the per-update ingest pipeline: the byte oracle for nutf.ingest ---------


@dataclass(frozen=True)
class LocationUpdate:
    user_id: str
    timestamp_utc: float
    lat: float
    lon: float
    error_radius_m: float
    utc_offset_minutes: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp_utc):
            raise ValueError(f"timestamp {self.timestamp_utc} must be finite")
        local = self.timestamp_utc + self.utc_offset_minutes * 60.0
        if not _LOCAL_MIN_S <= local <= _LOCAL_MAX_S:
            raise ValueError(f"local time {local:g} s (timestamp {self.timestamp_utc:g} plus "
                             f"offset {self.utc_offset_minutes} min) falls outside the years "
                             "1 to 9999")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} out of bounds")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} out of bounds")
        if not (math.isfinite(self.error_radius_m) and self.error_radius_m >= 0):
            raise ValueError(f"error radius {self.error_radius_m} must be finite and >= 0")


@dataclass(frozen=True)
class Venue:
    venue_id: str
    category: str
    lat: float
    lon: float
    radius_m: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} out of bounds")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} out of bounds")
        if not (math.isfinite(self.radius_m) and self.radius_m > 0):
            raise ValueError(f"venue radius {self.radius_m} must be finite and > 0")


def update_columns(updates) -> Updates:
    """The LocationUpdate objects as the CSV reader's columns (floats by repr, so exact)."""
    return Updates.from_rows("updates.csv", enumerate(
        ([u.user_id, repr(u.timestamp_utc), repr(u.lat), repr(u.lon), repr(u.error_radius_m),
          str(u.utc_offset_minutes)] for u in updates), start=2))


def venue_columns(venues) -> Venues:
    """The Venue objects as the CSV reader's columns (floats by repr, so exact)."""
    return Venues.from_rows("venues.csv", enumerate(
        ([v.venue_id, v.category, repr(v.lat), repr(v.lon), repr(v.radius_m)]
         for v in venues), start=2))


class VenueIndex:
    """Venue catalog sorted by latitude, with each venue's unit vector.

    A query's reach is its radius plus the largest venue radius. It
    scans the latitude band that reach allows, keeps the venues within the
    matching unit-sphere chord, and confirms each with the exact haversine
    test.
    """

    def __init__(self, venues):
        self.venues = list(venues)
        self.max_radius_m = max((v.radius_m for v in self.venues), default=0.0)
        lat = np.array([v.lat for v in self.venues], dtype=float)
        lon = np.array([v.lon for v in self.venues], dtype=float)
        self._order = np.argsort(lat, kind="stable")
        self._lats = lat[self._order]
        self._xyz = _unit_vectors(self._lats, lon[self._order])

    def query(self, lat: float, lon: float, radius_m: float) -> list[int]:
        """Indices of venues whose circle intersects the query circle."""
        angle = min(math.pi, (radius_m + self.max_radius_m) / EARTH_RADIUS_M)
        chord = 2.0 * math.sin(angle / 2.0) + 1e-9
        band = math.degrees(2.0 * math.asin(min(1.0, chord / 2.0)))
        lo = np.searchsorted(self._lats, lat - band, side="left")
        hi = np.searchsorted(self._lats, lat + band, side="right")
        diff = self._xyz[lo:hi] - _unit_vectors(lat, lon)
        near = self._order[lo:hi][np.einsum("ij,ij->i", diff, diff) <= chord * chord]
        venues = self.venues
        return sorted(
            i for i in near.tolist()
            if haversine_m(lat, lon, venues[i].lat, venues[i].lon) <= radius_m + venues[i].radius_m
        )


_DAYPART_EDGES = (1, 7, 9, 11, 13, 15, 17, 19, 21, 23)


def oracle_slot_of(timestamp_utc: float, utc_offset_minutes: int, scheme) -> int:
    """nutf.ingest.slot_of for one update, in Python floats and ints."""
    local = timestamp_utc + utc_offset_minutes * 60.0
    day = math.floor(local / 86400.0)
    sec_of_day = local - day * 86400.0
    hour = sec_of_day / 3600.0
    if scheme.mode == "hourly":
        binned = int(hour)
    else:
        if hour < 1.0:
            # [0, 1) belongs to the previous day's last bin
            day -= 1
            binned = 9
        elif hour >= 23.0:
            binned = 9
        else:
            binned = bisect_right(_DAYPART_EDGES, hour) - 1
    epoch_days = (scheme.epoch_day - dt.date(1970, 1, 1)).days
    return (day - epoch_days) * scheme.bins_per_day + binned


def oracle_build_candidate_sets(updates, venues, scheme, category_map, min_dwell_s,
                                other_category=None) -> IngestResult:
    """nutf.ingest.build_candidate_sets one update at a time, over LocationUpdate
    and Venue objects: the byte oracle for the column pipeline."""
    other = set() if other_category is None else {other_category}
    canonical = sorted(set(category_map.values()) | other)
    cat_index = {name: i for i, name in enumerate(canonical)}

    ordered = sorted(updates, key=lambda u: (u.user_id, u.timestamp_utc))
    best: dict = {}
    funnel = dict.fromkeys(("rows_read", "dwell_dropped", "before_window", "dedup_dropped",
                            "no_venue_dropped", "blocks_kept"), 0)
    funnel["rows_read"] = len(ordered)
    funnel["dwell_dropped"] = len(ordered)
    for upd, nxt in zip(ordered, ordered[1:]):
        dwell = nxt.timestamp_utc - upd.timestamp_utc
        if nxt.user_id != upd.user_id or not dwell >= min_dwell_s:
            continue
        funnel["dwell_dropped"] -= 1
        slot = oracle_slot_of(upd.timestamp_utc, upd.utc_offset_minutes, scheme)
        if slot < 0:
            funnel["before_window"] += 1
            continue
        key = (upd.user_id, slot)
        cur = best.get(key)
        if cur is not None:
            funnel["dedup_dropped"] += 1
        if cur is None or dwell > cur[1]:
            best[key] = (upd, dwell)

    index = VenueIndex(venues)
    blocks: dict = {}
    for (uid, slot), (upd, _) in best.items():
        cats: set[int] = set()
        for i in index.query(upd.lat, upd.lon, upd.error_radius_m):
            v = index.venues[i]
            name = category_map.get(v.category)
            if name is None:
                if other_category is None:
                    raise ValueError(
                        f"unmapped category {v.category!r} of venue {v.venue_id!r}")
                name = other_category
            cats.add(cat_index[name])
        if cats:
            blocks[(uid, slot)] = cats
    funnel["no_venue_dropped"] = len(best) - len(blocks)
    funnel["blocks_kept"] = len(blocks)

    user_ids = sorted({uid for uid, _ in blocks})
    user_index = {uid: i for i, uid in enumerate(user_ids)}
    omega = CandidateSets.from_blocks(
        (user_index[uid], slot, cats) for (uid, slot), cats in blocks.items())
    dims = ProblemDims(len(user_ids), max(slot for _, slot in blocks) + 1,
                       len(canonical)) if blocks else None
    return IngestResult(omega=omega, dims=dims, user_ids=user_ids, category_names=canonical,
                        funnel=funnel)


def oracle_read_updates(path) -> list[LocationUpdate]:
    """The updates CSV as LocationUpdate objects, one per row."""
    return [LocationUpdate(row[0], float(row[1]), float(row[2]), float(row[3]),
                           float(row[4]), int(row[5]))
            for _, row in _open_rows(path, UPDATES_HEADER)]


def oracle_read_venues(path) -> list[Venue]:
    """The venues CSV as Venue objects, one per row."""
    return [Venue(row[0], row[1], float(row[2]), float(row[3]), float(row[4]))
            for _, row in _open_rows(path, VENUES_HEADER)]


def oracle_preprocess(updates_csv, venues_csv, catmap_csv, scheme, min_dwell_s, out) -> None:
    """``nutf preprocess``'s omega.jsonl and index_maps.json by the oracle pipeline."""
    result = oracle_build_candidate_sets(
        oracle_read_updates(updates_csv), oracle_read_venues(venues_csv), scheme,
        read_category_map_csv(catmap_csv), min_dwell_s)
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_candidate_sets_jsonl(out / "omega.jsonl", result.omega)
    dims = result.dims
    serialize.write_index_maps(
        out / "index_maps.json", dims.n_users if dims else 0, dims.n_slots if dims else 0,
        len(result.category_names), user_ids=result.user_ids,
        category_names=result.category_names)
