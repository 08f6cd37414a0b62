import numpy as np
import pytest
from hypothesis import given, strategies as st

from nutf import core, parallel, simplex
from nutf.harness import SynthConfig, generate
from nutf.core import (
    BlockSparseMatrix,
    CandidateSets,
    LowRankModel,
    ProblemDims,
    frobenius_gap,
    model_support_values,
)

from conftest import (assert_one_short_side_factor, block_dict, block_items, block_sizes,
                      block_sum_error, dense_completion, entry_rows, exact_model, full_support,
                      random_model, random_omega, to_csr, to_dense)


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

    def test_transposed_iff_fewer_users_than_columns(self):
        assert ProblemDims(11, 4, 3).transposed
        assert not ProblemDims(12, 4, 3).transposed  # square: normal orientation
        assert not ProblemDims(13, 4, 3).transposed
        with pytest.raises(AttributeError):
            ProblemDims(11, 4, 3).transposed = False


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
        _, cols = omega.csr_structure(dims)
        slots = np.repeat(omega.block_slots, block_sizes(omega))
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
        blocks = block_dict(small_omega)
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

    # each was once cast with astype(int64): users [0], slots [1], cats [0, 1]
    @pytest.mark.parametrize("name,arrays", [
        ("block_users", ([0.7], [1], [0, 2], [0, 1])),
        ("block_slots", ([0], [1.9], [0, 2], [0, 1])),
        ("block_ptr", ([0], [1], [0.0, 2.0], [0, 1])),
        ("cats", ([0], [1], [0, 2], [0.2, 1.5])),
        ("cats", ([0], [1], [0, 1], [True])),
        ("block_users", (np.array([False]), [1], [0, 1], [0])),
    ])
    def test_rejects_non_integer_arrays(self, name, arrays):
        with pytest.raises(ValueError, match=f"{name} must hold integers, got dtype"):
            CandidateSets(*arrays)

    def test_empty_arrays_of_any_dtype(self):
        omega = CandidateSets([], np.empty(0, dtype=bool), [0], np.array([]))
        assert omega.n_blocks == omega.total_size == 0

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
        assert block_dict(omega)[(2, 1)] == [0, 2]

    def test_csr_structure(self, small_omega, small_dims):
        indptr, cols = small_omega.csr_structure(small_dims)
        assert indptr.tolist() == [0, 3, 6, 8, 9, 12]
        # block (0,0) cats [0,2] -> cols 0,2 ; block (0,3) cat 1 -> col 10
        assert cols[:3].tolist() == [0, 2, 10]
        assert entry_rows(small_omega)[:3].tolist() == [0, 0, 0]
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
        indptr, cols = small_omega.csr_structure(small_dims)
        csr = to_csr(x)
        assert indptr.dtype == cols.dtype == np.int32
        assert np.shares_memory(csr.indptr, indptr)
        assert np.shares_memory(csr.indices, cols)
        assert np.shares_memory(csr.data, x.values)

    def test_int64_layout_when_columns_exceed_int32(self):
        dims = ProblemDims(1, 2**31 + 1, 1)
        omega = CandidateSets.from_blocks([(0, 2**31, [0])])
        x = BlockSparseMatrix(dims, omega, np.ones(1))
        indptr, cols = omega.csr_structure(dims)
        assert indptr.dtype == cols.dtype == np.int64
        assert cols.tolist() == [2**31]
        assert np.shares_memory(to_csr(x).indices, cols)

    def test_empty_support(self):
        omega = CandidateSets.from_blocks([])
        dims = ProblemDims(3, 2, 2)
        indptr, cols = omega.csr_structure(dims)
        assert indptr.tolist() == [0, 0, 0, 0]
        assert len(cols) == 0
        x = BlockSparseMatrix(dims, omega, np.empty(0))
        assert block_sum_error(x) == 0.0
        assert np.array_equal(to_dense(x), np.zeros((3, 4)))


class TestNarrowIndices:
    @pytest.mark.parametrize("top,dtype", [
        (0, np.uint8), (255, np.uint8), (256, np.uint16), (65535, np.uint16),
        (65536, np.int32), (2**31 - 1, np.int32), (2**31, np.int64),
    ])
    def test_cats_take_the_narrowest_dtype(self, top, dtype):
        omega = CandidateSets.from_blocks([(0, 0, [0, top] if top else [0])])
        assert omega.cats.dtype == dtype
        assert omega.cats.tolist() == sorted({0, top})

    @pytest.mark.parametrize("top,dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
    def test_users_and_slots_int32_until_they_overflow(self, top, dtype):
        by_user = CandidateSets.from_blocks([(0, 0, [0]), (top, 0, [0])])
        by_slot = CandidateSets.from_blocks([(0, 0, [0]), (0, top, [0])])
        assert by_user.block_users.dtype == by_slot.block_slots.dtype == dtype
        # the other index is 0: users stay int32, slots narrow to uint8
        assert by_user.block_slots.dtype == np.uint8 and by_slot.block_users.dtype == np.int32
        assert by_user.block_users.tolist() == by_slot.block_slots.tolist() == [0, top]

    @pytest.mark.parametrize("top,dtype", [
        (255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.int32),
    ])
    def test_slots_take_the_narrowest_dtype(self, top, dtype):
        omega = CandidateSets.from_blocks([(0, 0, [0]), (0, top, [1]), (1, top - 1, [2])])
        assert omega.block_slots.dtype == dtype
        assert omega.block_slots.tolist() == [0, top, top - 1]

    def test_block_ptr_int32_while_omega_fits(self):
        assert core.narrowest_dtype(core.BLOCK_DTYPES, 0, 2**31 - 1) == np.int32
        assert core.narrowest_dtype(core.BLOCK_DTYPES, 0, 2**31) == np.int64
        omega = CandidateSets.from_blocks([(0, 0, [0, 1]), (0, 3, [2])])
        assert omega.block_ptr.dtype == np.int32 and omega.block_ptr.tolist() == [0, 2, 3]

    @pytest.mark.parametrize("slots,fault", [([3, 1], "is out of order"),
                                             ([3, 3], "is given twice")])
    def test_unsigned_slot_order_by_comparison(self, slots, fault):
        # np.diff of uint8 [3, 1] wraps to 254, which would read as increasing
        slots = np.array([0, *slots], dtype=np.uint8)
        with pytest.raises(ValueError, match=f"\\(1, {slots[2]}\\) {fault}"):
            CandidateSets(np.array([0, 1, 1], dtype=np.int32), slots, [0, 1, 2, 3],
                          np.zeros(3, dtype=np.uint8))
        assert CandidateSets([0, 1, 2], slots, [0, 1, 2, 3], [0, 0, 0]).block_slots.dtype \
            == np.uint8

    def test_decreasing_uint8_block_rejected(self):
        # np.diff of [3, 1] wraps to 254 in uint8
        cats = np.array([0, 3, 1], dtype=np.uint8)
        with pytest.raises(ValueError, match="strictly increasing"):
            CandidateSets(np.array([0, 1], dtype=np.int32), np.zeros(2, dtype=np.int32),
                          [0, 1, 3], cats)

    def test_negative_index_rejected_not_wrapped(self):
        with pytest.raises(ValueError, match="negative category"):
            CandidateSets([0], [0], [0, 2], np.array([-1, 3], dtype=np.int64))

    def test_validate_dims_on_empty_and_uint8_supports(self):
        empty = CandidateSets.from_blocks([])
        assert empty.cats.dtype == np.uint8 and empty.block_users.dtype == np.int32
        empty.validate_dims(ProblemDims(1, 1, 1))
        small = CandidateSets.from_blocks([(1, 2, [0, 255])])
        small.validate_dims(ProblemDims(2, 3, 256))
        # 255 >= 255 in uint8, with no wrap of the bound
        with pytest.raises(ValueError, match="category"):
            small.validate_dims(ProblemDims(2, 3, 255))
        with pytest.raises(ValueError, match="category"):
            CandidateSets.from_blocks([(0, 0, [7])]).validate_dims(ProblemDims(1, 1, 7))

    def test_slot_times_c_past_int32_from_int32_slots(self):
        # slot and C fit int32 but slot * C does not: int32 * int wraps under NEP 50
        dims = ProblemDims(1, 2**30, 4)
        omega = CandidateSets.from_blocks([(0, 2**30 - 1, [3])])
        assert omega.block_slots.dtype == np.int32
        assert omega.csr_structure(dims)[1].tolist() == [(2**30 - 1) * 4 + 3]

    def test_support_and_layout_byte_budget(self):
        """The support plus its cached layout: 1 byte of category and 4 of
        column per entry, 9 bytes per block (4 of user, 1 of slot, 4 of
        pointer) plus block_ptr's closing entry, and a 4-byte indptr per row
        and one more."""
        omega, _, dims = generate(SynthConfig(2000, 30, 50, n_classes=4, seed=3))
        layout = omega.csr_structure(dims)
        support = (omega.block_users, omega.block_slots, omega.block_ptr, omega.cats)
        used = sum(a.nbytes for a in (*support, *layout))
        budget = 5 * omega.total_size + 9 * omega.n_blocks + 4 + 4 * (dims.n_users + 1)
        assert used <= budget

    @pytest.mark.parametrize("dims", [ProblemDims(7, 4, 3), ProblemDims(5, 9, 300)])
    def test_indptr_counts_each_users_entries(self, dims):
        rng = np.random.default_rng(dims.n_categories)
        omega = random_omega(rng, dims.n_users, dims.n_slots, dims.n_categories, p_block=0.4)
        indptr, _ = omega.csr_structure(dims)
        counts = np.bincount(entry_rows(omega), minlength=dims.n_users)
        assert indptr.tolist() == [0, *np.cumsum(counts).tolist()]


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
        dense = to_dense(x)
        _, cols = small_omega.csr_structure(small_dims)
        mask = np.zeros(dense.shape, dtype=bool)
        mask[entry_rows(small_omega), cols] = True
        assert np.all(dense[~mask] == 0.0)
        assert np.count_nonzero(dense) == small_omega.total_size

    def test_block_sums(self, small_omega, small_dims):
        sizes = block_sizes(small_omega)
        x = BlockSparseMatrix(small_dims, small_omega, np.repeat(1.0 / sizes, sizes))
        assert block_sum_error(x) <= 1e-9

    @pytest.mark.parametrize("d", range(1, 13))
    def test_block_sums_bytes_equal_reduceat(self, d):
        rng = np.random.default_rng(d)
        n = 300
        values = rng.standard_normal(n * d) * 10.0 ** rng.integers(-8, 9, size=n * d)
        values[rng.random(n * d) < 0.2] = -0.0
        values[rng.random(n * d) < 0.1] = 0.0
        values[:4 * d] = -0.0  # whole blocks of -0.0 and one +0.0 per block
        values[d:4 * d:d] = 0.0
        # blocks already on the simplex, which the projection copies: a one
        # under -0.0 tails
        values[4 * d:8 * d] = -0.0
        values[4 * d:8 * d:d] = 1.0
        block_ptr = np.arange(0, n * d + 1, d)
        out = np.empty(n * d)
        sums = simplex.project_into(values, block_ptr, out)
        expected = np.add.reduceat(out, block_ptr[:-1])
        assert sums.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", range(1, 13))
    def test_row_sums_bytes_equal_reduceat(self, d):
        rng = np.random.default_rng(50 + d)
        n = 400
        rows = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, d))
        rows[rng.random((n, d)) < 0.2] = -0.0
        rows[:40, 1:] = -0.0  # -0.0 tails under -0.0, +0.0 and nonzero heads
        rows[:10, 0] = -0.0
        rows[10:20, 0] = 0.0
        expected = np.add.reduceat(rows.ravel(), np.arange(0, n * d, d))
        assert simplex.row_sums(rows).tobytes() == expected.tobytes()
        # a strided view, as a gathered group or a chunk of a larger array
        assert simplex.row_sums(rows[::3]).tobytes() == expected[::3].tobytes()

    def test_block_sums_mixed_sizes_bytes_equal_reduceat(self):
        rng = np.random.default_rng(30)
        sizes = rng.integers(1, 13, size=500)
        block_ptr = np.concatenate(([0], np.cumsum(sizes)))
        values = rng.standard_normal(block_ptr[-1])
        values[rng.random(len(values)) < 0.3] = -0.0
        # blocks already on the simplex, which the projection copies: a one
        # under -0.0 tails
        for b in range(0, 500, 7):
            values[block_ptr[b]:block_ptr[b + 1]] = -0.0
            values[block_ptr[b]] = 1.0
        out = np.empty(len(values))
        sums = simplex.project_into(values, block_ptr, out)
        expected = np.add.reduceat(out, block_ptr[:-1])
        assert sums.tobytes() == expected.tobytes()

    def test_nan_rejected(self, small_omega, small_dims):
        vals = np.ones(small_omega.total_size)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            BlockSparseMatrix(small_dims, small_omega, vals)

    def test_csr_round_trip(self, small_omega, small_dims):
        rng = np.random.default_rng(0)
        vals = rng.random(small_omega.total_size)
        x = BlockSparseMatrix(small_dims, small_omega, vals)
        assert np.allclose(to_csr(x).toarray(), to_dense(x))


def _all_slot_scores(model):
    """slot_scores for every (user, slot), laid out as an N x (T*C) matrix."""
    dims = model.dims
    users = np.repeat(np.arange(dims.n_users), dims.n_slots)
    slots = np.tile(np.arange(dims.n_slots), dims.n_users)
    return model.slot_scores(users, slots).reshape(dims.n_users, dims.n_cols)


class TestLowRankModel:
    def test_constant_rank_one(self):
        dims = ProblemDims(4, 2, 2)
        q = np.full((4, 1), 1.0 / 2.0)  # ones / sqrt(N)
        c = np.ones((1, 4))
        model = LowRankModel(dims, q=q, c=c)
        assert np.allclose(_all_slot_scores(model), 0.5, rtol=0, atol=1e-15)

    def test_matches_naive_triple_loop(self):
        dims = ProblemDims(9, 4, 2)  # N >= T*C: Y = Q @ C
        rng = np.random.default_rng(42)
        model = random_model(rng, dims, 3)
        scores = _all_slot_scores(model)
        for i in range(dims.n_users):
            for col in range(dims.n_cols):
                naive = sum(model.q[i, r] * model.c[r, col] for r in range(3))
                assert abs(scores[i, col] - naive) <= 1e-12

    def test_transposed_orientation(self):
        dims = ProblemDims(3, 2, 4)  # N=3 < TC=8
        rng = np.random.default_rng(1)
        model = random_model(rng, dims, 2)
        assert model.q.shape == (8, 2) and model.c.shape == (2, 3)
        full = (model.q @ model.c).T  # N x TC
        assert np.allclose(_all_slot_scores(model), full, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("rank", [1, 3])
    def test_slot_scores_match_dense(self, transposed, rank):
        rng = np.random.default_rng(10 * rank + transposed)
        dims = ProblemDims(6 if transposed else 26, 4, 5)
        assert dims.transposed == transposed
        model = random_model(rng, dims, rank)
        y = dense_completion(model)
        assert np.allclose(model.user_factor @ model.col_factor.T, y, rtol=0, atol=1e-12)
        users = rng.integers(0, dims.n_users, size=30)
        slots = rng.integers(0, dims.n_slots, size=30)
        expected = y.reshape(dims.n_users, dims.n_slots, dims.n_categories)[users, slots]
        assert np.allclose(model.slot_scores(users, slots), expected, rtol=0, atol=1e-12)
        # scalar indices, as predict_topk passes them, give one row
        assert np.allclose(model.slot_scores(int(users[0]), int(slots[0])), expected[0],
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_slot_scores_unsorted_array_matches_scalar(self, transposed):
        rng = np.random.default_rng(20 + transposed)
        dims = ProblemDims(6 if transposed else 26, 4, 5)
        assert dims.transposed == transposed
        model = random_model(rng, dims, 3)
        # unsorted slots with repeats, so runs of equal slots are short and scattered
        users = rng.integers(0, dims.n_users, size=60)
        slots = rng.integers(0, dims.n_slots, size=60)
        scores = model.slot_scores(users, slots)
        assert scores.shape == (60, dims.n_categories)
        for row, u, j in zip(scores, users.tolist(), slots.tolist()):
            assert np.allclose(row, model.slot_scores(u, j), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rank", [3, 10])
    def test_tall_slot_run_keeps_plain_product_bits(self, rank, monkeypatch):
        rng = np.random.default_rng(30 + rank)
        dims = ProblemDims(3000, 2, 50)
        model = random_model(rng, dims, rank)
        width = dims.n_categories * rank
        block = 1 << ((parallel.GEMM_SERIAL // width).bit_length() - 1)  # 1024 or 512 rows
        # slot 0 ends in a partial block, slot 1 in a one-row tail
        slots = np.repeat([0, 1], [2 * block + 7, 3 * block + 1])
        users = rng.integers(0, dims.n_users, size=len(slots))

        class RecordingNumpy:
            """numpy, with np.dot recording each product's m*n*k."""

            def __init__(self):
                self.mnk = []

            def __getattr__(self, name):
                return getattr(np, name)

            def dot(self, a, b, out=None):
                self.mnk.append(a.shape[0] * b.shape[0] * b.shape[1])
                return np.dot(a, b, out=out)

        recording = RecordingNumpy()
        monkeypatch.setattr(core, "np", recording)
        scores = model.slot_scores(users, slots)
        monkeypatch.undo()
        # blocks of `block` rows, the one-row tail joined to the block before it
        assert recording.mnk == [w * width for w in (block, block, 7, block, block, block + 1)]
        assert max(recording.mnk) <= parallel.GEMM_SERIAL
        by_slot = model.col_factor.reshape(dims.n_slots, dims.n_categories, rank)
        rows = model.user_factor[users]
        plain = np.concatenate([rows[slots == j] @ by_slot[j].T for j in (0, 1)])
        assert scores.tobytes() == plain.tobytes()
        for i in range(0, len(slots), 97):
            assert np.allclose(scores[i], model.slot_scores(int(users[i]), int(slots[i])),
                               rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims", [ProblemDims(3, 2, 4), ProblemDims(9, 2, 2)])
    def test_c_is_the_transposed_view_of_one_short_side_factor(self, dims):
        rng = np.random.default_rng(5)
        short_side, long_side = sorted((dims.n_users, dims.n_cols))
        q, _ = np.linalg.qr(rng.standard_normal((long_side, 2)))
        s = rng.standard_normal((short_side, 2))
        model = LowRankModel(dims, q=q, c=s.T)  # taken with no copy
        assert model.c.base is s
        assert (model.user_factor if dims.transposed else model.col_factor).base is s
        assert_one_short_side_factor(model)
        # a C-contiguous c, or one of another dtype, is copied once
        for c in (s.T.copy(), s.T.astype(np.float32)):
            model = LowRankModel(dims, q=q, c=c)
            short = model.user_factor if dims.transposed else model.col_factor
            assert model.c.base is short and not np.shares_memory(short, c)
            assert_one_short_side_factor(model)
        # writes through c reach the factor that scores read
        model.c[0, 0] = 7.0
        assert short[0, 0] == 7.0

    def test_shape_validation(self, small_dims):
        # small_dims has N=5 < T*C=12, so Q is 12 x r and C is r x 5
        LowRankModel(small_dims, q=np.ones((12, 2)), c=np.ones((2, 5)))
        with pytest.raises(ValueError, match="c must be"):
            LowRankModel(small_dims, q=np.ones((12, 2)), c=np.ones((3, 5)))
        with pytest.raises(ValueError, match="q must be"):
            LowRankModel(small_dims, q=np.ones((2, 2)), c=np.ones((2, 5)))
        # the other orientation's shapes do not fit these dims
        with pytest.raises(ValueError, match="q must be"):
            LowRankModel(small_dims, q=np.ones((5, 2)), c=np.ones((2, 12)))

    def test_rank_cap(self):
        dims = ProblemDims(3, 2, 2)
        with pytest.raises(ValueError, match="rank"):
            LowRankModel(dims, q=np.ones((4, 4)), c=np.ones((4, 3)))
        with pytest.raises(ValueError, match="rank"):
            LowRankModel(dims, q=np.ones((4, 0)), c=np.ones((0, 3)))

    def test_orthonormality_check(self, small_dims):
        rng = np.random.default_rng(3)
        model = random_model(rng, small_dims, 2)
        model.validate()
        bad = LowRankModel(small_dims, q=np.ones((12, 2)), c=np.zeros((2, 5)))
        with pytest.raises(ValueError):
            bad.validate()

    @pytest.mark.parametrize("factor,value", [("q", np.nan), ("c", np.nan), ("c", np.inf)])
    def test_validate_rejects_non_finite(self, small_dims, factor, value):
        model = random_model(np.random.default_rng(3), small_dims, 2)
        getattr(model, factor)[0, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            model.validate()

    def test_support_values_match_scalar_op(self, small_omega, small_dims):
        rng = np.random.default_rng(7)
        # small_omega fits both: N=5 < T*C=12 and N=15 > T*C
        for dims in (small_dims, ProblemDims(15, 4, 3)):
            model = random_model(rng, dims, 2)
            y = dense_completion(model)
            vals = model_support_values(model, small_omega)
            k = 0
            for (i, j), cats in block_items(small_omega):
                for cat in cats:
                    expected = y[i, j * dims.n_categories + int(cat)]
                    assert vals[k] == pytest.approx(expected, abs=1e-12)
                    k += 1


    @pytest.mark.parametrize("transposed", [False, True])
    def test_support_values_over_chunks_match_dot_bytes(self, transposed):
        dims = ProblemDims(12 if transposed else 40, 6, 5)
        rng = np.random.default_rng(17)
        omega = random_omega(rng, dims.n_users, dims.n_slots, dims.n_categories, p_block=0.7)
        model = random_model(rng, dims, 3)
        assert dims.transposed == transposed
        _, cols = omega.csr_structure(dims)
        rows = entry_rows(omega)
        expected = np.array([np.dot(model.col_factor[c], model.user_factor[r])
                             for r, c in zip(rows, cols)])
        assert model_support_values(model, omega).tobytes() == expected.tobytes()


class TestFrobeniusGap:
    def test_exact_factorization_gives_zero(self):
        # one-hot blocks; model is an exact SVD factorization of the dense matrix
        dims = ProblemDims(4, 3, 2)
        omega = CandidateSets.from_blocks([
            (0, 0, [0]), (0, 2, [1]), (1, 0, [0]), (2, 1, [1]), (3, 2, [0]),
        ])
        x = BlockSparseMatrix(dims, omega, np.ones(omega.total_size))
        model = exact_model(dims, to_dense(x))
        ys = model_support_values(model, x.support)
        assert frobenius_gap(x, model, ys) <= 1e-8

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
            model = random_model(rng, dims, rank)
            oracle = float(np.linalg.norm(to_dense(x) - dense_completion(model)) ** 2)
            ys = model_support_values(model, x.support)
            assert frobenius_gap(x, model, ys) == pytest.approx(oracle, abs=1e-8, rel=1e-8)

    def test_dimension_mismatch_rejected(self, small_dims):
        omega = CandidateSets.from_blocks([(0, 0, [0])])
        x = BlockSparseMatrix(small_dims, omega, np.ones(1))
        other = ProblemDims(5, 4, 4)
        model = LowRankModel(other, q=np.ones((16, 1)), c=np.ones((1, 5)))
        with pytest.raises(ValueError):
            frobenius_gap(x, model, model_support_values(model, x.support))

    def test_precomputed_support_values(self, small_omega, small_dims):
        rng = np.random.default_rng(5)
        x = BlockSparseMatrix(small_dims, small_omega, rng.random(small_omega.total_size))
        model = random_model(rng, small_dims, 2)
        ys = model_support_values(model, small_omega)
        oracle = float(np.linalg.norm(to_dense(x) - dense_completion(model)) ** 2)
        assert frobenius_gap(x, model, ys) == pytest.approx(oracle, abs=1e-12)
        with pytest.raises(ValueError):
            frobenius_gap(x, model, ys[:-1])
