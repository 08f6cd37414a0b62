import numpy as np
import pytest
from hypothesis import given, strategies as st

from nutf import core
from nutf.core import (
    BlockSparseMatrix,
    CandidateSets,
    LowRankModel,
    ProblemDims,
    frobenius_gap,
    model_support_values,
)

from conftest import full_support, random_omega


class TestProblemDims:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            ProblemDims(0, 4, 3)
        with pytest.raises(ValueError):
            ProblemDims(5, -1, 3)
        with pytest.raises(ValueError):
            ProblemDims(5, 4, 0)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            ProblemDims(10, 2**40, 2**40)

    def test_large_but_valid(self):
        d = ProblemDims(3_000_000, 500, 200)
        assert d.n_cols == 100_000


def col_index(j, k, dims):
    """Unfolded column that csr_structure assigns to (slot j, category k)."""
    return int(CandidateSets.from_blocks([(0, j, [k])]).csr_structure(dims)[1][0])


class TestColIndex:
    def test_first_cell(self):
        assert col_index(0, 0, ProblemDims(1, 2, 42)) == 0

    def test_second_slot_start(self):
        assert col_index(1, 0, ProblemDims(1, 2, 42)) == 42

    def test_row_major_merge(self):
        # 3*10 + 7, cross-checked by enumerating the inverse below
        assert col_index(3, 7, ProblemDims(1, 5, 10)) == 37

    def test_bijective_with_inverse(self):
        dims = ProblemDims(1, 5, 10)
        omega = full_support(1, 5, 10)
        _, cols, _ = omega.csr_structure(dims)
        slots = np.repeat(omega.block_slots, omega.block_sizes)
        assert np.array_equal(cols // dims.n_categories, slots)
        assert np.array_equal(cols % dims.n_categories, omega.cats)
        assert sorted(cols.tolist()) == list(range(dims.n_cols))

    def test_out_of_range(self):
        dims = ProblemDims(1, 5, 10)
        with pytest.raises(ValueError):
            col_index(5, 0, dims)
        with pytest.raises(ValueError):
            col_index(0, 10, dims)

    @given(st.integers(1, 50), st.integers(1, 50), st.data())
    def test_injective_property(self, t, c, data):
        dims = ProblemDims(1, t, c)
        j1 = data.draw(st.integers(0, t - 1))
        k1 = data.draw(st.integers(0, c - 1))
        j2 = data.draw(st.integers(0, t - 1))
        k2 = data.draw(st.integers(0, c - 1))
        if (j1, k1) != (j2, k2):
            assert col_index(j1, k1, dims) != col_index(j2, k2, dims)


class TestCandidateSets:
    def test_basic_accessors(self, small_omega):
        assert small_omega.n_blocks == 7
        assert small_omega.total_size == 12
        blocks = small_omega.to_dict()
        assert blocks[(0, 0)] == [0, 2]
        assert (0, 1) not in blocks
        assert blocks[(4, 3)] == [0, 1]

    def test_rejects_duplicate_blocks(self):
        with pytest.raises(ValueError):
            CandidateSets.from_blocks([(0, 0, [1]), (0, 0, [2])])

    def test_rejects_duplicate_cats(self):
        with pytest.raises(ValueError):
            CandidateSets.from_blocks([(0, 0, [1, 1])])

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            CandidateSets.from_blocks([(0, 0, [])])

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            CandidateSets.from_blocks([(-1, 0, [0])])

    def test_dims_validation(self, small_omega):
        small_omega.validate_dims(ProblemDims(5, 4, 3))
        with pytest.raises(ValueError):
            small_omega.validate_dims(ProblemDims(5, 4, 2))
        with pytest.raises(ValueError):
            small_omega.validate_dims(ProblemDims(4, 4, 3))

    def test_sorted_storage_any_input_order(self):
        omega = CandidateSets.from_blocks([(2, 1, [2, 0]), (0, 3, [1]), (2, 0, [1])])
        assert list(omega.block_users) == [0, 2, 2]
        assert list(omega.block_slots) == [3, 0, 1]
        assert omega.to_dict()[(2, 1)] == [0, 2]

    def test_csr_structure(self, small_omega, small_dims):
        indptr, cols, rows = small_omega.csr_structure(small_dims)
        assert indptr.tolist() == [0, 3, 6, 8, 9, 12]
        # block (0,0) cats [0,2] -> cols 0,2 ; block (0,3) cat 1 -> col 10
        assert cols[:3].tolist() == [0, 2, 10]
        assert rows[:3].tolist() == [0, 0, 0]
        # cached: same objects on second call
        again = small_omega.csr_structure(small_dims)
        assert again[0] is indptr


class TestSupportLayout:
    def test_cache_keyed_on_whole_dims(self):
        # both dims have N = 2 and T*C = 12, but C differs
        omega = CandidateSets.from_blocks([(0, 1, [0, 1]), (1, 3, [1])])
        assert omega.csr_structure(ProblemDims(2, 4, 3))[1].tolist() == [3, 4, 10]
        assert omega.csr_structure(ProblemDims(2, 6, 2))[1].tolist() == [2, 3, 7]
        wide = CandidateSets.from_blocks([(0, 1, [0, 2])])
        wide.csr_structure(ProblemDims(2, 4, 3))
        with pytest.raises(ValueError, match="category"):
            wide.csr_structure(ProblemDims(2, 6, 2))
        with pytest.raises(ValueError, match="category"):
            wide.validate_dims(ProblemDims(2, 6, 2))

    def test_to_csr_is_a_view_of_the_layout(self, small_omega, small_dims):
        x = BlockSparseMatrix(small_dims, small_omega, np.ones(small_omega.total_size))
        indptr, cols, _ = small_omega.csr_structure(small_dims)
        csr = x.to_csr()
        assert indptr.dtype == cols.dtype == np.int32
        assert np.shares_memory(csr.indptr, indptr)
        assert np.shares_memory(csr.indices, cols)
        assert np.shares_memory(csr.data, x.values)

    def test_int64_layout_when_columns_exceed_int32(self):
        dims = ProblemDims(1, 2**31 + 1, 1)
        omega = CandidateSets.from_blocks([(0, 2**31, [0])])
        x = BlockSparseMatrix(dims, omega, np.ones(1))
        indptr, cols, rows = omega.csr_structure(dims)
        assert indptr.dtype == cols.dtype == rows.dtype == np.int64
        assert cols.tolist() == [2**31]
        assert np.shares_memory(x.to_csr().indices, cols)

    def test_empty_support(self):
        omega = CandidateSets.from_blocks([])
        dims = ProblemDims(3, 2, 2)
        indptr, cols, rows = omega.csr_structure(dims)
        assert indptr.tolist() == [0, 0, 0, 0]
        assert len(cols) == len(rows) == 0
        x = BlockSparseMatrix(dims, omega, np.empty(0))
        assert x.max_block_sum_error() == 0.0
        assert np.array_equal(x.to_dense(), np.zeros((3, 4)))


class TestBlockSparseMatrix:
    def test_value_alignment_enforced(self, small_omega, small_dims):
        with pytest.raises(ValueError):
            BlockSparseMatrix(small_dims, small_omega, np.ones(5))

    def test_negativity_rejected(self, small_omega, small_dims):
        vals = np.ones(small_omega.total_size)
        vals[3] = -0.1
        with pytest.raises(ValueError):
            BlockSparseMatrix(small_dims, small_omega, vals)

    def test_off_support_zero_by_representation(self, small_omega, small_dims):
        x = BlockSparseMatrix(small_dims, small_omega, np.ones(small_omega.total_size))
        dense = x.to_dense()
        _, cols, rows = small_omega.csr_structure(small_dims)
        mask = np.zeros(dense.shape, dtype=bool)
        mask[rows, cols] = True
        assert np.all(dense[~mask] == 0.0)
        assert np.count_nonzero(dense) == small_omega.total_size

    def test_block_sums(self, small_omega, small_dims):
        sizes = small_omega.block_sizes
        x = BlockSparseMatrix(small_dims, small_omega, np.repeat(1.0 / sizes, sizes))
        assert x.max_block_sum_error() <= 1e-9

    def test_nan_rejected(self, small_omega, small_dims):
        vals = np.ones(small_omega.total_size)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            BlockSparseMatrix(small_dims, small_omega, vals)

    def test_csr_round_trip(self, small_omega, small_dims):
        rng = np.random.default_rng(0)
        vals = rng.random(small_omega.total_size)
        x = BlockSparseMatrix(small_dims, small_omega, vals)
        assert np.allclose(x.to_csr().toarray(), x.to_dense())


def _random_model(rng, dims, rank, transposed=False):
    n_rows = dims.n_cols if transposed else dims.n_users
    n_cols = dims.n_users if transposed else dims.n_cols
    q, _ = np.linalg.qr(rng.standard_normal((n_rows, rank)))
    c = rng.standard_normal((rank, n_cols))
    return LowRankModel(dims, q=q, c=c, transposed=transposed)


def _dense(model):
    """The completion as an N x (T*C) matrix, straight from the stored factors."""
    return (model.q @ model.c).T if model.transposed else model.q @ model.c


def _all_slot_scores(model):
    """slot_scores for every (user, slot), laid out as an N x (T*C) matrix."""
    dims = model.dims
    users = np.repeat(np.arange(dims.n_users), dims.n_slots)
    slots = np.tile(np.arange(dims.n_slots), dims.n_users)
    return model.slot_scores(users, slots).reshape(dims.n_users, dims.n_cols)


class TestLowRankModel:
    def test_rank_zero_value(self, small_dims):
        model = LowRankModel(
            small_dims, q=np.empty((small_dims.n_users, 0)), c=np.empty((0, small_dims.n_cols))
        )
        assert model.rank == 0
        assert model.slot_scores([2], [1]).tolist() == [[0.0, 0.0, 0.0]]

    def test_constant_rank_one(self):
        dims = ProblemDims(4, 2, 3)
        q = np.full((4, 1), 1.0 / 2.0)  # ones / sqrt(N)
        c = np.ones((1, 6))
        model = LowRankModel(dims, q=q, c=c)
        assert np.allclose(_all_slot_scores(model), 0.5, rtol=0, atol=1e-15)

    def test_matches_naive_triple_loop(self):
        dims = ProblemDims(5, 4, 2)
        rng = np.random.default_rng(42)
        model = _random_model(rng, dims, 3)
        scores = _all_slot_scores(model)
        for i in range(dims.n_users):
            for col in range(dims.n_cols):
                naive = sum(model.q[i, r] * model.c[r, col] for r in range(3))
                assert abs(scores[i, col] - naive) <= 1e-12

    def test_transposed_orientation(self):
        dims = ProblemDims(3, 2, 4)  # N=3 < TC=8
        rng = np.random.default_rng(1)
        model = _random_model(rng, dims, 2, transposed=True)
        full = (model.q @ model.c).T  # N x TC
        assert np.allclose(_all_slot_scores(model), full, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("rank", [0, 1, 3])
    def test_slot_scores_match_dense(self, transposed, rank):
        rng = np.random.default_rng(10 * rank + transposed)
        dims = ProblemDims(6, 4, 5)
        model = _random_model(rng, dims, rank, transposed=transposed)
        y = _dense(model)
        assert np.allclose(model.user_factor @ model.col_factor.T, y, rtol=0, atol=1e-12)
        users = rng.integers(0, dims.n_users, size=30)
        slots = rng.integers(0, dims.n_slots, size=30)
        expected = y.reshape(dims.n_users, dims.n_slots, dims.n_categories)[users, slots]
        assert np.allclose(model.slot_scores(users, slots), expected, rtol=0, atol=1e-12)
        # scalar indices, as predict_topk passes them, give one row
        assert np.allclose(model.slot_scores(int(users[0]), int(slots[0])), expected[0],
                           rtol=0, atol=1e-12)

    def test_shape_validation(self, small_dims):
        with pytest.raises(ValueError):
            LowRankModel(small_dims, q=np.ones((small_dims.n_users, 2)), c=np.ones((3, small_dims.n_cols)))
        with pytest.raises(ValueError):
            LowRankModel(small_dims, q=np.ones((2, 2)), c=np.ones((2, small_dims.n_cols)))

    def test_rank_cap(self):
        dims = ProblemDims(3, 2, 2)
        with pytest.raises(ValueError):
            LowRankModel(dims, q=np.ones((3, 4)), c=np.ones((4, 4)))

    def test_orthonormality_check(self, small_dims):
        rng = np.random.default_rng(3)
        model = _random_model(rng, small_dims, 2)
        model.validate()
        bad = LowRankModel(small_dims, q=np.ones((small_dims.n_users, 2)),
                           c=np.zeros((2, small_dims.n_cols)))
        with pytest.raises(ValueError):
            bad.validate()

    @pytest.mark.parametrize("factor,value", [("q", np.nan), ("c", np.nan), ("c", np.inf)])
    def test_validate_rejects_non_finite(self, small_dims, factor, value):
        model = _random_model(np.random.default_rng(3), small_dims, 2)
        getattr(model, factor)[0, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            model.validate()

    def test_support_values_match_scalar_op(self, small_omega, small_dims):
        rng = np.random.default_rng(7)
        for transposed in (False, True):
            model = _random_model(rng, small_dims, 2, transposed=transposed)
            y = _dense(model)
            vals = model_support_values(model, small_omega)
            k = 0
            for (i, j), cats in small_omega.items():
                for cat in cats:
                    expected = y[i, j * small_dims.n_categories + int(cat)]
                    assert vals[k] == pytest.approx(expected, abs=1e-12)
                    k += 1


    @pytest.mark.parametrize("transposed", [False, True])
    def test_support_values_over_chunks_match_dot_bytes(self, monkeypatch, transposed):
        # 7-entry chunks: the support spans dozens of them, run on the pool
        monkeypatch.setattr(core, "_ENTRY_CHUNK", 7)
        dims = ProblemDims(12 if transposed else 40, 6, 5)
        rng = np.random.default_rng(17)
        omega = random_omega(rng, dims.n_users, dims.n_slots, dims.n_categories, p_block=0.7)
        model = _random_model(rng, dims, 3, transposed=transposed)
        assert model.transposed == (dims.n_users < dims.n_cols)
        _, cols, rows = omega.csr_structure(dims)
        assert len(cols) > 20 * core._ENTRY_CHUNK
        expected = np.array([np.dot(model.col_factor[c], model.user_factor[r])
                             for r, c in zip(rows, cols)])
        assert model_support_values(model, omega).tobytes() == expected.tobytes()


class TestFrobeniusGap:
    def test_exact_factorization_gives_zero(self):
        # one-hot blocks; model is an exact SVD factorization of the dense matrix
        dims = ProblemDims(4, 3, 2)
        omega = CandidateSets.from_dict({
            (0, 0): [0], (0, 2): [1], (1, 0): [0], (2, 1): [1], (3, 2): [0],
        })
        x = BlockSparseMatrix(dims, omega, np.ones(omega.total_size))
        dense = x.to_dense()
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        r = int((s > 1e-12).sum())
        model = LowRankModel(dims, q=u[:, :r], c=(s[:r, None] * vt[:r]))
        assert frobenius_gap(x, model) <= 1e-8

    def test_zero_rank_model_gives_frob_sq(self):
        dims = ProblemDims(4, 3, 2)
        omega = CandidateSets.from_dict({(0, 0): [0], (1, 2): [1], (3, 1): [0]})
        x = BlockSparseMatrix(dims, omega, np.ones(3))
        model = LowRankModel(dims, q=np.empty((4, 0)), c=np.empty((0, 6)))
        assert frobenius_gap(x, model) == pytest.approx(3.0, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n, t, c = rng.integers(2, 7), rng.integers(2, 5), rng.integers(2, 5)
            dims = ProblemDims(int(n), int(t), int(c))
            omega = random_omega(rng, dims.n_users, dims.n_slots, dims.n_categories)
            if omega.n_blocks == 0:
                continue
            x = BlockSparseMatrix(dims, omega, rng.random(omega.total_size))
            rank = int(rng.integers(1, min(dims.n_users, dims.n_cols) + 1))
            transposed = bool(rng.integers(0, 2)) and dims.n_users != dims.n_cols
            model = _random_model(rng, dims, rank, transposed=transposed)
            oracle = float(np.linalg.norm(x.to_dense() - _dense(model)) ** 2)
            assert frobenius_gap(x, model) == pytest.approx(oracle, abs=1e-8, rel=1e-8)

    def test_dimension_mismatch_rejected(self, small_dims):
        omega = CandidateSets.from_dict({(0, 0): [0]})
        x = BlockSparseMatrix(small_dims, omega, np.ones(1))
        other = ProblemDims(5, 4, 4)
        model = LowRankModel(other, q=np.ones((5, 1)), c=np.ones((1, 16)))
        with pytest.raises(ValueError):
            frobenius_gap(x, model)

    def test_precomputed_support_values(self, small_omega, small_dims):
        rng = np.random.default_rng(5)
        x = BlockSparseMatrix(small_dims, small_omega, rng.random(small_omega.total_size))
        model = _random_model(rng, small_dims, 2)
        ys = model_support_values(model, small_omega)
        assert frobenius_gap(x, model, y_support=ys) == pytest.approx(
            frobenius_gap(x, model), abs=1e-12
        )
        with pytest.raises(ValueError):
            frobenius_gap(x, model, y_support=ys[:-1])
