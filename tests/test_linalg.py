import numpy as np
import pytest

from nutf.core import BlockSparseMatrix, CandidateSets, ProblemDims
from nutf.linalg import PowerIterConfig, reduced_qr, sparse_lowrank_approx

from conftest import full_support, random_omega


def make_x(dims, omega, values):
    return BlockSparseMatrix(dims, omega, values)


def empty_x(dims):
    return BlockSparseMatrix(dims, CandidateSets.from_blocks([]), np.empty(0))


def spmm(x, dense):
    """X @ dense through the CSR operator the range finder multiplies by."""
    return np.asarray(x.to_csr() @ dense)


def spmm_t(x, dense):
    """X^T @ dense through the CSR transpose used in transposed mode."""
    return np.asarray(x.to_csr().T @ dense)


class TestSpmm:
    def test_empty_support_gives_zero(self):
        dims = ProblemDims(4, 2, 3)
        x = empty_x(dims)
        out = spmm(x, np.ones((dims.n_cols, 2)))
        assert out.shape == (4, 2)
        assert np.all(out == 0.0)

    def test_identity_columns_select(self, small_omega, small_dims):
        rng = np.random.default_rng(0)
        x = make_x(small_dims, small_omega, rng.random(small_omega.total_size))
        eye = np.eye(small_dims.n_cols)
        assert np.array_equal(spmm(x, eye), x.to_dense())

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        dims = ProblemDims(6, 4, 2)  # 6 x 8
        omega = random_omega(rng, 6, 4, 2, p_block=0.6)
        x = make_x(dims, omega, rng.random(omega.total_size))
        dense = rng.standard_normal((8, 3))
        naive = x.to_dense() @ dense
        assert np.allclose(spmm(x, dense), naive, atol=1e-12)


class TestSpmmT:
    def test_empty_support_gives_zero(self):
        dims = ProblemDims(4, 2, 3)
        out = spmm_t(empty_x(dims), np.ones((4, 2)))
        assert out.shape == (dims.n_cols, 2)
        assert np.all(out == 0.0)

    def test_basis_vector_extracts_row(self, small_omega, small_dims):
        rng = np.random.default_rng(2)
        x = make_x(small_dims, small_omega, rng.random(small_omega.total_size))
        e1 = np.zeros((small_dims.n_users, 1))
        e1[1, 0] = 1.0
        assert np.array_equal(spmm_t(x, e1)[:, 0], x.to_dense()[1])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        dims = ProblemDims(6, 4, 2)
        omega = random_omega(rng, 6, 4, 2, p_block=0.6)
        x = make_x(dims, omega, rng.random(omega.total_size))
        dense = rng.standard_normal((6, 3))
        naive = x.to_dense().T @ dense
        assert np.allclose(spmm_t(x, dense), naive, atol=1e-12)


class TestReducedQr:
    def test_orthonormal_input_reproduced_up_to_sign(self):
        rng = np.random.default_rng(4)
        b, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        q = reduced_qr(b)
        assert np.allclose(np.abs(q), np.abs(b), atol=1e-13)
        # sign convention: largest-magnitude entry of each column positive
        lead = np.argmax(np.abs(q), axis=0)
        assert np.all(q[lead, np.arange(3)] > 0)

    def test_single_column_normalized(self):
        v = np.array([[3.0], [0.0], [-4.0]])
        q = reduced_qr(v)
        # convention flips the sign so the -4 entry becomes positive
        assert np.allclose(q, np.array([[-0.6], [0.0], [0.8]]), atol=1e-15)
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-14)

    def test_random_orthonormality_and_span(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((10, 4))
        q = reduced_qr(b)
        assert np.abs(q.T @ q - np.eye(4)).max() <= 1e-10
        assert np.allclose(q @ (q.T @ b), b, atol=1e-8)

    def test_rank_deficient_filled(self):
        rng = np.random.default_rng(6)
        col = rng.standard_normal((9, 1))
        b = np.hstack([col, 2 * col, -col])  # rank 1
        q = reduced_qr(b)
        assert q.shape == (9, 3)
        assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-10
        # the genuine direction is preserved
        assert np.allclose(q @ (q.T @ col), col, atol=1e-10)

    def test_zero_matrix_filled(self):
        q = reduced_qr(np.zeros((6, 2)))
        assert np.abs(q.T @ q - np.eye(2)).max() <= 1e-10

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            reduced_qr(np.ones((2, 5)))


def gapped_instance(rng, n=20, t=6, c=5, rank=5, noise=0.01):
    """Non-negative matrix = rank-`rank` product plus small uniform noise,
    so the spectrum has a wide gap at the target rank."""
    dims = ProblemDims(n, t, c)
    omega = full_support(n, t, c)
    dense = rng.random((n, rank)) @ rng.random((rank, t * c)) + noise * rng.random((n, t * c))
    return make_x(dims, omega, dense.ravel()), dense


class TestSparseLowRankApprox:
    def test_exact_rank_one_recovered(self):
        rng = np.random.default_rng(7)
        dims = ProblemDims(7, 2, 3)
        omega = full_support(7, 2, 3)
        dense = np.outer(rng.random(7) + 0.1, rng.random(6) + 0.1)
        x = make_x(dims, omega, dense.ravel())
        model, ys = sparse_lowrank_approx(x, PowerIterConfig(rank=1, power_iters=3, seed=0))
        assert np.linalg.norm(ys - x.values) <= 1e-8 * np.linalg.norm(x.values)

    def test_zero_matrix(self):
        dims = ProblemDims(5, 2, 2)
        omega = full_support(5, 2, 2)
        x = make_x(dims, omega, np.zeros(omega.total_size))
        model, ys = sparse_lowrank_approx(x, PowerIterConfig(rank=2, power_iters=2, seed=1))
        assert np.all(ys == 0.0)
        assert np.all(model.c == 0.0)
        model.validate()

    def test_residual_matches_svd_optimum(self):
        rng = np.random.default_rng(8)
        x, dense = gapped_instance(rng)
        model, _ = sparse_lowrank_approx(x, PowerIterConfig(rank=5, power_iters=20, seed=2))
        y = (model.q @ model.c).T if model.transposed else model.q @ model.c
        res = np.linalg.norm(dense - y)
        s = np.linalg.svd(dense, compute_uv=False)
        res_opt = float(np.sqrt((s[5:] ** 2).sum()))
        assert abs(res - res_opt) <= 1e-6
        assert model.orthonormality_error() <= 1e-8

    def test_rank_too_large_rejected(self):
        dims = ProblemDims(3, 2, 2)
        x = make_x(dims, full_support(3, 2, 2), np.ones(12))
        with pytest.raises(ValueError):
            sparse_lowrank_approx(x, PowerIterConfig(rank=4, power_iters=1, seed=0))

    def test_monotone_residual_in_power_iters(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            x, _ = gapped_instance(rng, noise=0.3)
            seed = 100 + trial
            residuals = []
            for m in (1, 6, 11):
                _, ys = sparse_lowrank_approx(x, PowerIterConfig(rank=3, power_iters=m, seed=seed))
                residuals.append(float(((x.values - ys) ** 2).sum()))
            assert residuals[1] <= residuals[0] + 1e-9
            assert residuals[2] <= residuals[1] + 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        x, _ = gapped_instance(rng)
        m1, y1 = sparse_lowrank_approx(x, PowerIterConfig(rank=4, power_iters=5, seed=33))
        m2, y2 = sparse_lowrank_approx(x, PowerIterConfig(rank=4, power_iters=5, seed=33))
        assert np.array_equal(m1.q, m2.q)
        assert np.array_equal(m1.c, m2.c)
        assert np.array_equal(y1, y2)

    def test_transposed_mode_flag(self):
        rng = np.random.default_rng(11)
        dims = ProblemDims(4, 3, 4)  # N=4 < TC=12
        omega = full_support(4, 3, 4)
        x = make_x(dims, omega, rng.random(omega.total_size))
        model, _ = sparse_lowrank_approx(x, PowerIterConfig(rank=2, power_iters=4, seed=0))
        assert model.transposed
        assert model.q.shape == (12, 2)
        assert model.c.shape == (2, 4)

    def test_transposition_equivalence(self):
        # the same underlying matrix presented in both orientations: a
        # 12 x 6 instance runs directly; its 6 x 12 transpose triggers the
        # transposed path, which flips back to the identical 12 x 6 sweep.
        rng = np.random.default_rng(12)
        dims_a = ProblemDims(12, 2, 3)  # 12 x 6, direct
        omega_a = full_support(12, 2, 3)
        vals_a = rng.random(omega_a.total_size)
        xa = make_x(dims_a, omega_a, vals_a)

        dims_b = ProblemDims(6, 4, 3)  # 6 x 12, transposed internally
        omega_b = full_support(6, 4, 3)
        dense_a = xa.to_dense()
        xb = make_x(dims_b, omega_b, dense_a.T.ravel())

        cfg = PowerIterConfig(rank=3, power_iters=4, seed=77)
        model_a, ys_a = sparse_lowrank_approx(xa, cfg)
        model_b, ys_b = sparse_lowrank_approx(xb, cfg)
        assert not model_a.transposed and model_b.transposed

        ya = np.empty((12, 6))
        ya.ravel()[:] = ys_a  # full support, row-major
        yb = np.empty((6, 12))
        yb.ravel()[:] = ys_b
        assert np.abs(ya - yb.T).max() <= 1e-8
