import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nutf import simplex
from nutf.parallel import chunk_bounds
from nutf.simplex import project_blocks, project_into

from conftest import project_simplex


def grid_qp_oracle(v, step=1e-3):
    """Brute-force search of the simplex on a coarse grid (d = 2 or 3)."""
    v = np.asarray(v, dtype=np.float64)
    d = v.size
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    best, best_cost = None, np.inf
    if d == 2:
        candidates = ((a, 1.0 - a) for a in ticks)
    elif d == 3:
        candidates = ((a, b, 1.0 - a - b) for a, b in itertools.product(ticks, ticks)
                      if a + b <= 1.0 + 1e-12)
    else:
        raise ValueError("grid oracle only supports d in {2, 3}")
    for u in candidates:
        u = np.asarray(u)
        cost = float(((u - v) ** 2).sum())
        if cost < best_cost:
            best, best_cost = u, cost
    return best


def dykstra_oracle(v, iters=4000):
    """Alternating projections (with Dykstra corrections) between the
    sum-to-one hyperplane and the non-negative orthant. Independent of the
    sort-based algorithm; converges to the exact simplex projection."""
    v = np.asarray(v, dtype=np.float64)
    x = v.copy()
    p = np.zeros_like(v)
    q = np.zeros_like(v)
    for _ in range(iters):
        y = x + p
        y = y - (y.sum() - 1.0) / y.size  # hyperplane projection
        p = (x + p) - y
        x_new = np.maximum(y + q, 0.0)  # orthant projection
        q = (y + q) - x_new
        if np.max(np.abs(x_new - x)) < 1e-14:
            x = x_new
            break
        x = x_new
    return x


def project_one(v):
    """project_blocks on v as one block: the solver's own path."""
    v = np.asarray(v, dtype=np.float64)
    return project_blocks(v, [0, len(v)])


finite_vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12,
).map(np.asarray)


class TestFrozenExamples:
    def test_vertex_unchanged(self):
        assert project_one([1.0, 0.0, 0.0]).tolist() == [1.0, 0.0, 0.0]

    def test_uniform_unchanged(self):
        out = project_one([0.25, 0.25, 0.25, 0.25])
        assert np.allclose(out, 0.25, atol=1e-15)

    def test_two_equal_above(self):
        # water level (1.8 - 1) / 2 = 0.4
        out = project_one([0.9, 0.9])
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)
        assert np.allclose(grid_qp_oracle([0.9, 0.9]), [0.5, 0.5], atol=1e-9)

    def test_single_dominant(self):
        # only the top coordinate survives: level 1.0
        out = project_one([2.0, 0.0])
        assert np.allclose(out, [1.0, 0.0], atol=1e-15)
        assert np.allclose(grid_qp_oracle([2.0, 0.0]), [1.0, 0.0], atol=1e-9)

    def test_grid_oracle_d3(self):
        v = [0.3, -0.2, 0.6]
        assert np.allclose(project_one(v), grid_qp_oracle(v), atol=2e-3)

    def test_d1_short_circuit(self):
        assert project_one([17.0]).tolist() == [1.0]
        assert project_one([-3.0]).tolist() == [1.0]

    @pytest.mark.parametrize("v, expected", [
        # s[0] - (s[0] - 1) rounds to 0, so no prefix tests positive
        ([1e17, 3e16, -5.0, 2.0], [1.0, 0.0, 0.0, 0.0]),
        ([-1e17] * 4, [0.25] * 4),
        ([1e300, 1e300, 1e299, -1e300], [0.5, 0.5, 0.0, 0.0]),
        # the prefix sums overflow, or the shift by the largest entry does
        ([1e308, 1e308, 1.0], [0.5, 0.5, 0.0]),
        ([-1e308] * 4, [0.25] * 4),
        ([1e308, -1e308], [1.0, 0.0]),
        ([1e308, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ])
    def test_huge_entries(self, v, expected):
        assert project_one(v).tolist() == expected
        assert project_simplex(v).tolist() == expected


class TestErrors:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            project_one(np.empty(0))
        with pytest.raises(ValueError, match="non-empty"):
            project_blocks([0.5, 0.5], [0, 0, 2])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            project_one([0.5, np.nan])

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            project_one([np.inf, 0.0])

    def test_matrix_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            project_one(np.ones((2, 2)))
        with pytest.raises(ValueError, match="1-D"):
            project_blocks(np.ones((2, 2)), [0, 1, 2])


class TestProperties:
    @given(finite_vectors)
    def test_output_on_simplex(self, v):
        u = project_one(v)
        assert np.all(u >= 0.0)
        assert abs(u.sum() - 1.0) <= 1e-12 * v.size

    @given(finite_vectors)
    def test_idempotent_bitwise(self, v):
        once = project_one(v)
        twice = project_one(once)
        assert np.array_equal(once, twice)

    @given(finite_vectors)
    def test_matches_reference_bytes(self, v):
        assert project_one(v).tobytes() == project_simplex(v).tobytes()

    @given(finite_vectors, st.floats(-100, 100, allow_nan=False))
    def test_shift_invariance(self, v, t):
        base = project_one(v)
        shifted = project_one(v + t)
        assert np.allclose(base, shifted, atol=1e-10)

    @given(finite_vectors, st.randoms(use_true_random=False))
    def test_permutation_equivariance(self, v, rnd):
        perm = np.asarray(rnd.sample(range(v.size), v.size))
        direct = project_one(v[perm])
        permuted = project_one(v)[perm]
        assert np.allclose(direct, permuted, atol=1e-12)

    @settings(max_examples=200)
    @given(st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_matches_dykstra_oracle(self, d, seed):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-3, 3, size=d)
        assert np.linalg.norm(project_one(v) - dykstra_oracle(v)) <= 1e-6


class TestProjectBlocks:
    def test_matches_per_block_projection(self):
        rng = np.random.default_rng(123)
        sizes = rng.integers(1, 9, size=60)
        ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=ptr[1:])
        values = rng.uniform(-2, 2, size=int(ptr[-1]))
        out = project_blocks(values, ptr)
        for b in range(len(sizes)):
            blk = values[ptr[b]:ptr[b + 1]]
            assert np.allclose(out[ptr[b]:ptr[b + 1]], project_simplex(blk), atol=1e-14)

    def test_singletons(self):
        ptr = np.array([0, 1, 2, 3])
        out = project_blocks(np.array([-5.0, 0.0, 9.0]), ptr)
        assert out.tolist() == [1.0, 1.0, 1.0]

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_blocks(np.array([1.0, np.nan]), np.array([0, 2]))

    @pytest.mark.parametrize("ptr", [[], [0, 2], [1, 3], [0, 4]])
    def test_rejects_ptr_not_covering_values(self, ptr):
        # an uncovered entry would be returned uninitialized
        with pytest.raises(ValueError, match="block_ptr"):
            project_blocks(np.full(3, 0.5), np.array(ptr, dtype=np.int64))


def per_block_reference(values, ptr):
    """project_simplex applied block by block: the byte-level oracle."""
    return np.concatenate([project_simplex(values[ptr[b]:ptr[b + 1]])
                           for b in range(len(ptr) - 1)])


def with_edge_blocks(values, ptr, rng):
    """Plant already-feasible blocks, signed zeros and negatives."""
    values = values.copy()
    for b in range(0, len(ptr) - 1, 3):
        blk = slice(ptr[b], ptr[b + 1])
        kind = b // 3 % 4
        if kind == 0:  # feasible: kept as is
            values[blk] = rng.dirichlet(np.ones(ptr[b + 1] - ptr[b]))
        elif kind == 1:  # feasible with a -0.0 that must survive
            values[blk] = 0.0
            values[ptr[b]] = 1.0
            values[ptr[b + 1] - 1] = -0.0 if ptr[b + 1] - ptr[b] > 1 else 1.0
        elif kind == 2:  # infeasible with signed zeros
            values[blk] = np.where(rng.random(ptr[b + 1] - ptr[b]) < 0.5, -0.0, 0.0)
        else:  # all negative
            values[blk] = -rng.uniform(0.1, 3.0, ptr[b + 1] - ptr[b])
    return values


class TestProjectBlocksChunked:
    """Projection of thousands of blocks in one call equals the per-block loop
    byte for byte."""

    def test_uniform_blocks_over_several_chunks(self):
        rng = np.random.default_rng(41)
        ptr = np.arange(0, 4 * 2001 + 1, 4, dtype=np.int64)
        values = with_edge_blocks(rng.uniform(-1.0, 1.5, size=int(ptr[-1])), ptr, rng)
        out = project_blocks(values, ptr)
        assert out.tobytes() == per_block_reference(values, ptr).tobytes()
        assert np.signbit(out).any()  # a planted feasible -0.0 came through

    def test_mixed_sizes_over_several_chunks(self):
        rng = np.random.default_rng(42)
        sizes = rng.integers(1, 13, size=1500)
        ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=ptr[1:])
        values = with_edge_blocks(rng.uniform(-2.0, 2.0, size=int(ptr[-1])), ptr, rng)
        assert (sizes == 1).sum() > 50
        out = project_blocks(values, ptr)
        assert out.tobytes() == per_block_reference(values, ptr).tobytes()

    def test_nonfinite_in_a_later_chunk_rejected(self):
        values = np.full(40, 0.25)
        values[37] = np.inf
        with pytest.raises(ValueError, match="finite"):
            project_blocks(values, np.arange(0, 41, 4))


def edge_rows(n, d, rng):
    """n rows of length d: random rows of mixed scale, and in turn rows with
    exact ties, with +-0.0 among their top entries, already on the simplex
    (with and without -0.0), all negative, or with entries near 1e17."""
    rows = rng.uniform(-1.5, 1.5, size=(n, d)) * 10.0 ** rng.integers(-2, 3, size=(n, 1))
    for r in range(n):
        kind = r % 8
        if kind == 1:
            rows[r] = rng.integers(-2, 3, size=d) / 4.0
        elif kind == 2:
            rows[r] = -rng.uniform(0.1, 2.0, size=d)
            top = rng.integers(1, d + 1)
            rows[r, :top] = np.where(rng.random(top) < 0.5, -0.0, 0.0)
            rng.shuffle(rows[r])
        elif kind == 3:
            rows[r] = rng.dirichlet(np.ones(d))
        elif kind == 4:
            rows[r] = -0.0
            rows[r, rng.integers(d)] = 1.0
        elif kind == 5:
            rows[r] = -rng.uniform(0.1, 3.0, size=d)
        elif kind == 6:
            rows[r] *= 1e17
    return rows


class TestColumnKernel:
    """The column-wise kernel against the per-vector oracle, byte for byte."""

    @pytest.mark.parametrize("chunk", [None, 256])
    @pytest.mark.parametrize("d", [*range(1, 13), 50])
    def test_uniform_groups_bytes_equal_oracle(self, d, chunk):
        rng = np.random.default_rng(100 + d)
        n = 640
        values = edge_rows(n, d, rng).ravel()
        ptr = np.arange(0, n * d + 1, d)
        if chunk is None:
            out = project_blocks(values, ptr)
        else:  # project_into on runs of blocks, each rebased to start at 0
            out = np.empty(len(values))
            cuts = chunk_bounds(ptr, chunk)
            for b0, b1 in zip(cuts, cuts[1:]):
                lo, hi = ptr[b0], ptr[b1]
                project_into(values[lo:hi], ptr[b0:b1 + 1] - lo, out[lo:hi])
            assert len(cuts) > 2
        assert out.tobytes() == per_block_reference(values, ptr).tobytes()

    def test_mixed_groups_bytes_equal_oracle(self):
        rng = np.random.default_rng(7)
        blocks = [row for d in [*range(1, 13), 50] for row in edge_rows(80, d, rng)]
        blocks = [blocks[b] for b in rng.permutation(len(blocks))]
        ptr = np.concatenate(([0], np.cumsum([len(b) for b in blocks])))
        values = np.concatenate(blocks)
        out = project_blocks(values, ptr)
        assert out.tobytes() == per_block_reference(values, ptr).tobytes()

    @pytest.mark.parametrize("d", [3, 4, 8, 12])
    def test_feasibility_boundary_uses_reduceat_sums(self, d):
        # non-negative rows whose sum lies within a few ulps of the tolerance,
        # kept only where reduceat's order and sum(axis=1)'s disagree on it
        rng = np.random.default_rng(d)
        n = 4000
        rows = rng.dirichlet(np.ones(d), size=n)
        rows *= 1.0 + simplex._FEAS_TOL * d + rng.uniform(-8, 8, size=(n, 1)) * 2.0 ** -52
        by_reduceat = np.add.reduceat(rows.ravel(), np.arange(0, n * d, d))
        inside = np.abs(by_reduceat - 1.0) <= simplex._FEAS_TOL * d
        rows = rows[inside != (np.abs(rows.sum(axis=1) - 1.0) <= simplex._FEAS_TOL * d)]
        assert len(rows) > 10
        values, ptr = rows.ravel(), np.arange(0, rows.size + 1, d)
        out = project_blocks(values, ptr)
        assert out.tobytes() == per_block_reference(values, ptr).tobytes()

    @pytest.mark.parametrize("d", range(2, simplex._NETWORK_MAX_D + 1))
    def test_network_sorts_every_0_1_row(self, d):
        # 0-1 principle: a comparator network that sorts every 0/1 input
        # sorts every input
        rows = np.array(list(itertools.product([0.0, 1.0], repeat=d)))
        cols = simplex._sorted_columns(rows)
        assert np.array_equal(np.column_stack(cols), -np.sort(-rows, axis=1))

    def test_network_sizes(self):
        # Batcher's networks are the smallest known up to 8 wires
        sizes = [len(simplex._NETWORKS[d]) for d in range(2, simplex._NETWORK_MAX_D + 1)]
        assert sizes == [1, 3, 5, 9, 12, 16, 19]
