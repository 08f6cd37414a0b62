import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import nutf
from nutf import linalg, parallel
from nutf.core import (BlockSparseMatrix, CandidateSets, LowRankModel, ProblemDims,
                       model_support_values)
from nutf.harness import SynthConfig, generate
from nutf.linalg import NumericalError, reduced_qr, sparse_lowrank_approx
from nutf.solver import SolverConfig

from conftest import (allocating_lowrank_approx, dense_completion, full_support, random_omega,
                      to_csr, to_dense)


def make_x(dims, omega, values):
    return BlockSparseMatrix(dims, omega, values)


def empty_x(dims):
    return BlockSparseMatrix(dims, CandidateSets.from_blocks([]), np.empty(0))


def spmm(x, dense):
    """X @ dense through the CSR operator the range finder multiplies by."""
    return np.asarray(to_csr(x) @ dense)


def spmm_t(x, dense):
    """X^T @ dense through the CSR transpose used in transposed mode."""
    return np.asarray(to_csr(x).T @ dense)


def test_scipy_sparse_loads_with_the_solver_only():
    """The solver loads scipy.sparse at import, so no timed spmm pays for it,
    while synth's modules leave it unloaded."""
    src = str(Path(nutf.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def loads_scipy_sparse(modules):
        code = f"import sys, {modules}; print('scipy.sparse' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        return out.strip() == "True"

    assert loads_scipy_sparse("nutf.solver")
    assert not loads_scipy_sparse("nutf.harness, nutf.ingest, nutf.serialize, nutf.cli")


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
        assert np.array_equal(spmm(x, eye), to_dense(x))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        dims = ProblemDims(6, 4, 2)  # 6 x 8
        omega = random_omega(rng, 6, 4, 2, p_block=0.6)
        x = make_x(dims, omega, rng.random(omega.total_size))
        dense = rng.standard_normal((8, 3))
        naive = to_dense(x) @ dense
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
        assert np.array_equal(spmm_t(x, e1)[:, 0], to_dense(x)[1])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        dims = ProblemDims(6, 4, 2)
        omega = random_omega(rng, 6, 4, 2, p_block=0.6)
        x = make_x(dims, omega, rng.random(omega.total_size))
        dense = rng.standard_normal((6, 3))
        naive = to_dense(x).T @ dense
        assert np.allclose(spmm_t(x, dense), naive, atol=1e-12)


def fill_rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


def householder_qr_reference(b, fill_rng):
    """reduced_qr as it was before CholeskyQR2: Householder, then fill."""
    n, r = b.shape
    if not np.all(np.isfinite(b)):
        raise NumericalError("non-finite entries in QR input")
    q, rr = np.linalg.qr(b, mode="reduced")
    diag = np.abs(np.diag(rr))
    tol = max(n, r) * np.finfo(np.float64).eps * diag.max()
    deficient = np.nonzero(diag <= tol)[0]
    if len(deficient):
        keep = np.setdiff1d(np.arange(r), deficient)
        basis = q[:, keep]
        for idx in deficient:
            while True:
                v = fill_rng.standard_normal(n)
                for _ in range(2):
                    v -= basis @ (basis.T @ v)
                norm = np.linalg.norm(v)
                if norm > np.sqrt(np.finfo(np.float64).eps):
                    break
            q[:, idx] = v / norm
            basis = np.column_stack([basis, q[:, idx]])
    lead = np.argmax(np.abs(q), axis=0)
    signs = np.sign(q[lead, np.arange(r)])
    signs[signs == 0] = 1.0
    return q * signs


def conditioned_panel(rng, n, r, kappa):
    """n x r panel with singular values spread log-uniformly from 1 to 1/kappa."""
    u, _ = np.linalg.qr(rng.standard_normal((n, r)))
    v, _ = np.linalg.qr(rng.standard_normal((r, r)))
    return (u * np.logspace(0, -np.log10(kappa), r)) @ v.T


def assert_sign_convention(q):
    """Each column's first largest-magnitude entry is positive."""
    lead = np.argmax(np.abs(q), axis=0)
    assert np.all(q[lead, np.arange(q.shape[1])] > 0)


@pytest.fixture
def householder_calls(monkeypatch):
    """Counts np.linalg.qr calls, the Householder fallback of reduced_qr."""
    calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


@pytest.fixture
def second_cholesky_fails(monkeypatch):
    """Every second np.linalg.cholesky call fails, so each CholeskyQR2 gives up
    after its first panel product; returns the list of calls."""
    calls = []
    cholesky = np.linalg.cholesky

    def failing(g):
        calls.append(1)
        if len(calls) % 2 == 0:
            raise np.linalg.LinAlgError("failed on purpose")
        return cholesky(g)

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    return calls


class TestReducedQr:
    def test_orthonormal_input_reproduced_up_to_sign(self):
        rng = np.random.default_rng(4)
        b, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        q = reduced_qr(b, fill_rng())
        assert np.allclose(np.abs(q), np.abs(b), atol=1e-13)
        # sign convention: largest-magnitude entry of each column positive
        lead = np.argmax(np.abs(q), axis=0)
        assert np.all(q[lead, np.arange(3)] > 0)

    def test_single_column_normalized(self):
        v = np.array([[3.0], [0.0], [-4.0]])
        q = reduced_qr(v, fill_rng())
        # convention flips the sign so the -4 entry becomes positive
        assert np.allclose(q, np.array([[-0.6], [0.0], [0.8]]), atol=1e-15)
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-14)

    def test_random_orthonormality_and_span(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((10, 4))
        q = reduced_qr(b, fill_rng())
        assert np.abs(q.T @ q - np.eye(4)).max() <= 1e-10
        assert np.allclose(q @ (q.T @ b), b, atol=1e-8)

    def test_rank_deficient_filled(self):
        rng = np.random.default_rng(6)
        col = rng.standard_normal((9, 1))
        b = np.hstack([col, 2 * col, -col])  # rank 1
        q = reduced_qr(b, fill_rng())
        assert q.shape == (9, 3)
        assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-10
        # the genuine direction is preserved
        assert np.allclose(q @ (q.T @ col), col, atol=1e-10)

    def test_zero_matrix_filled(self):
        q = reduced_qr(np.zeros((6, 2)), fill_rng())
        assert np.abs(q.T @ q - np.eye(2)).max() <= 1e-10

    @pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8])
    def test_cholesky_path_up_to_kappa_1e8(self, monkeypatch, kappa):
        rng = np.random.default_rng(20)
        panels = [1e3 * conditioned_panel(rng, n, r, kappa) for n, r in ((2800, 10), (40, 6))]

        def no_householder(*args, **kwargs):
            raise AssertionError("fell back to Householder")

        monkeypatch.setattr(np.linalg, "qr", no_householder)
        for b in panels:
            r = b.shape[1]
            q = reduced_qr(b, fill_rng())
            assert np.abs(q.T @ q - np.eye(r)).max() <= 1e-12
            assert np.linalg.norm(b - q @ (q.T @ b)) <= 1e-13 * np.linalg.norm(b)
            assert_sign_convention(q)

    def test_orthonormal_to_1e12_across_the_fallback_boundary(self, householder_calls):
        # past kappa ~1e9 the Cholesky can still succeed with max|Q^T Q - I| > 1e-12
        rng = np.random.default_rng(27)
        panels = [conditioned_panel(rng, 200, 6, kappa)
                  for kappa in (1e9, 1e10, 3e10, 1e12) for _ in range(20)]
        householder_calls.clear()
        for b in panels:
            q = reduced_qr(b, fill_rng())
            assert np.abs(q.T @ q - np.eye(6)).max() <= 1e-12
            assert np.linalg.norm(b - q @ (q.T @ b)) <= 1e-13 * np.linalg.norm(b)
        assert 0 < len(householder_calls) < len(panels)

    def test_fast_path_draws_no_fill(self):
        b = np.random.default_rng(21).standard_normal((50, 4))
        rng = fill_rng(3)
        reduced_qr(b, rng)
        assert rng.standard_normal(4).tobytes() == fill_rng(3).standard_normal(4).tobytes()

    def test_fallback_bytes_match_householder(self, householder_calls):
        rng = np.random.default_rng(22)
        col = rng.standard_normal((9, 1))
        panels = {
            "multiples": np.hstack([col, 2 * col, -col]),
            "repeated": np.hstack([col, col]),
            "zero column": np.hstack([col, np.zeros((9, 1)), 3 * col + 1]),
            "zero": np.zeros((6, 2)),
            "kappa 1e14": conditioned_panel(rng, 40, 6, 1e14),
        }
        householder_calls.clear()
        for name, b in panels.items():
            before = len(householder_calls)
            q = reduced_qr(b, fill_rng(5))
            assert len(householder_calls) == before + 1, name
            expected = householder_qr_reference(b, fill_rng(5))
            assert q.tobytes() == expected.tobytes(), name
            assert np.abs(q.T @ q - np.eye(b.shape[1])).max() <= 1e-10, name
            assert_sign_convention(q)

    def test_rank_deficient_up_to_rounding_falls_back(self, householder_calls):
        # such panels can pass the Cholesky; the R diagonal test must still catch them
        rng = np.random.default_rng(23)
        for _ in range(50):
            b = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 5))
            before = len(householder_calls)
            q = reduced_qr(b, fill_rng(6))
            assert len(householder_calls) == before + 1
            assert q.tobytes() == householder_qr_reference(b, fill_rng(6)).tobytes()

    def test_overflowing_gram_falls_back(self, householder_calls):
        b = 1e160 * np.random.default_rng(24).standard_normal((30, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = reduced_qr(b, fill_rng())
        assert householder_calls == [1]
        assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-12
        assert_sign_convention(q)

    def test_overflowing_multi_chunk_gram_falls_back(self, householder_calls, monkeypatch):
        # 8-row blocks, so the Grams run on the pool, under the caller's error state
        monkeypatch.setattr(parallel, "GEMM_SERIAL", 8 * 3 * 3)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        b = 1e160 * np.random.default_rng(24).standard_normal((300, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = reduced_qr(b, fill_rng())
        assert householder_calls == [1]
        assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        b = np.random.default_rng(25).standard_normal((20, 3))
        b[7, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                reduced_qr(b, fill_rng())

    def test_sign_convention_both_paths(self, householder_calls):
        rng = np.random.default_rng(26)
        col = rng.standard_normal((12, 1))
        q_fast = reduced_qr(-rng.standard_normal((12, 4)), fill_rng())
        assert householder_calls == []
        q_slow = reduced_qr(np.hstack([-col, col, rng.standard_normal((12, 2))]), fill_rng())
        assert householder_calls == [1]
        for q in (q_fast, q_slow):
            assert_sign_convention(q)
        # a tie in magnitude goes to the first entry
        q = reduced_qr(np.array([[-1.0], [1.0], [0.0]]), fill_rng())
        assert q[0, 0] > 0 and q[1, 0] < 0

    def test_out_holds_the_factor_on_both_paths(self, householder_calls):
        rng = np.random.default_rng(28)
        col = rng.standard_normal((40, 1))
        for b in (rng.standard_normal((40, 5)), np.hstack([col, 2 * col, -col])):
            before = b.tobytes()
            out = np.full(b.shape, np.nan)
            q = reduced_qr(b, fill_rng(5), out=out)
            assert q is out and q.tobytes() == reduced_qr(b, fill_rng(5)).tobytes()
            assert b.tobytes() == before
        assert householder_calls == [1, 1]  # the rank-1 panel, twice

    def test_householder_after_the_first_product_sees_b(self, householder_calls,
                                                        second_cholesky_fails):
        b = np.random.default_rng(29).standard_normal((40, 5))
        before = b.tobytes()
        expected = householder_qr_reference(b.copy(), fill_rng(5))
        householder_calls.clear()
        out = np.empty_like(b)
        q = reduced_qr(b, fill_rng(5), out=out)
        # the first product wrote out before the second Cholesky failed
        assert second_cholesky_fails == [1, 1] and householder_calls == [1]
        assert q is out and q.tobytes() == expected.tobytes()
        assert b.tobytes() == before

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            reduced_qr(np.ones((2, 5)), fill_rng())
        with pytest.raises(ValueError):
            reduced_qr(np.ones((5, 0)), fill_rng())


def gapped_instance(rng, n=20, t=6, c=5, rank=5, noise=0.01):
    """Non-negative matrix = rank-`rank` product plus small uniform noise,
    so the spectrum has a wide gap at the target rank."""
    dims = ProblemDims(n, t, c)
    omega = full_support(n, t, c)
    dense = rng.random((n, rank)) @ rng.random((rank, t * c)) + noise * rng.random((n, t * c))
    return make_x(dims, omega, dense.ravel()), dense


def lowrank_on_support(x, cfg, start=None):
    """sparse_lowrank_approx's (model, seconds, passes, angle), with the
    completion's values on x's support inserted second."""
    model, seconds, passes, angle = sparse_lowrank_approx(x, cfg, start=start)
    return model, model_support_values(model, x.support), seconds, passes, angle


class TestSparseLowRankApprox:
    def test_exact_rank_one_recovered(self):
        rng = np.random.default_rng(7)
        dims = ProblemDims(7, 2, 3)
        omega = full_support(7, 2, 3)
        dense = np.outer(rng.random(7) + 0.1, rng.random(6) + 0.1)
        x = make_x(dims, omega, dense.ravel())
        model, ys, *_ = lowrank_on_support(x, SolverConfig(rank=1, power_iters=3, seed=0))
        assert np.linalg.norm(ys - x.values) <= 1e-8 * np.linalg.norm(x.values)

    def test_zero_matrix(self):
        dims = ProblemDims(5, 2, 2)
        omega = full_support(5, 2, 2)
        x = make_x(dims, omega, np.zeros(omega.total_size))
        model, ys, *_ = lowrank_on_support(x, SolverConfig(rank=2, power_iters=2, seed=1))
        assert np.all(ys == 0.0)
        assert np.all(model.c == 0.0)
        model.validate()

    def test_residual_matches_svd_optimum(self):
        rng = np.random.default_rng(8)
        x, dense = gapped_instance(rng)
        model, *_ = sparse_lowrank_approx(x, SolverConfig(rank=5, power_iters=20, seed=2))
        res = np.linalg.norm(dense - dense_completion(model))
        s = np.linalg.svd(dense, compute_uv=False)
        res_opt = float(np.sqrt((s[5:] ** 2).sum()))
        assert abs(res - res_opt) <= 1e-6
        assert model.orthonormality_error() <= 1e-8

    def test_rank_too_large_rejected(self):
        dims = ProblemDims(3, 2, 2)
        x = make_x(dims, full_support(3, 2, 2), np.ones(12))
        with pytest.raises(ValueError):
            sparse_lowrank_approx(x, SolverConfig(rank=4, power_iters=1, seed=0))

    def test_monotone_residual_in_power_iters(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            x, _ = gapped_instance(rng, noise=0.3)
            seed = 100 + trial
            residuals = []
            for m in (1, 6, 11):
                _, ys, *_ = lowrank_on_support(x, SolverConfig(rank=3, power_iters=m, seed=seed))
                residuals.append(float(((x.values - ys) ** 2).sum()))
            assert residuals[1] <= residuals[0] + 1e-9
            assert residuals[2] <= residuals[1] + 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        x, _ = gapped_instance(rng)
        m1, y1, *_ = lowrank_on_support(x, SolverConfig(rank=4, power_iters=5, seed=33))
        m2, y2, *_ = lowrank_on_support(x, SolverConfig(rank=4, power_iters=5, seed=33))
        assert np.array_equal(m1.q, m2.q)
        assert np.array_equal(m1.c, m2.c)
        assert np.array_equal(y1, y2)

    def test_transposed_mode_flag(self):
        rng = np.random.default_rng(11)
        dims = ProblemDims(4, 3, 4)  # N=4 < TC=12
        omega = full_support(4, 3, 4)
        x = make_x(dims, omega, rng.random(omega.total_size))
        model, *_ = sparse_lowrank_approx(x, SolverConfig(rank=2, power_iters=4, seed=0))
        assert dims.transposed
        assert model.q.shape == (12, 2)
        assert model.c.shape == (2, 4)
        assert model.user_factor.shape == (4, 2)

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
        dense_a = to_dense(xa)
        xb = make_x(dims_b, omega_b, dense_a.T.ravel())

        cfg = SolverConfig(rank=3, power_iters=4, seed=77)
        model_a, ys_a, *_ = lowrank_on_support(xa, cfg)
        model_b, ys_b, *_ = lowrank_on_support(xb, cfg)
        assert not dims_a.transposed and dims_b.transposed
        assert model_a.q.shape == model_b.q.shape == (12, 3)

        ya = np.empty((12, 6))
        ya.ravel()[:] = ys_a  # full support, row-major
        yb = np.empty((6, 12))
        yb.ravel()[:] = ys_b
        assert np.abs(ya - yb.T).max() <= 1e-8


def low_rank_instance(rng, dims, rank):
    """Full-support x whose unfolding has rank exactly `rank`."""
    dense = rng.random((dims.n_users, rank)) @ rng.random((rank, dims.n_cols))
    omega = full_support(dims.n_users, dims.n_slots, dims.n_categories)
    return make_x(dims, omega, dense.ravel()), dense


class TestWarmStart:
    def test_bad_start_rejected(self):
        rng = np.random.default_rng(13)
        x, _ = gapped_instance(rng)  # 20 x 30, transposed: q is 30 x r
        cfg = SolverConfig(rank=3, power_iters=2, seed=0)
        good, _ = np.linalg.qr(rng.standard_normal((30, 3)))
        for bad_shape in ((20, 3), (30, 2), (30, 4), (30,)):
            with pytest.raises(ValueError, match="shape"):
                sparse_lowrank_approx(x, cfg, start=np.ones(bad_shape))
        for bad in (np.nan, np.inf):
            start = good.copy()
            start[4, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                sparse_lowrank_approx(x, cfg, start=start)

    @pytest.mark.parametrize("dims", [ProblemDims(20, 3, 4), ProblemDims(6, 4, 3)])
    def test_exact_subspace_stops_after_one_pass(self, dims):
        rng = np.random.default_rng(14)
        x, dense = low_rank_instance(rng, dims, 3)
        u, _, vt = np.linalg.svd(dense, full_matrices=False)
        start = np.ascontiguousarray(vt[:3].T if dims.transposed else u[:, :3])
        cfg = SolverConfig(rank=3, power_iters=8, seed=5)
        _, y_warm, _, passes, angle = lowrank_on_support(x, cfg, start=start)
        _, y_cold, *_ = lowrank_on_support(x, cfg)
        # sqrt(1 - cos^2) resolves no angle below about sqrt(eps) = 1.5e-8
        assert passes == 1 and angle <= 1e-7
        assert np.abs(y_warm - y_cold).max() <= 1e-10
        assert np.abs(y_warm - x.values).max() <= 1e-10

    def test_passes_capped_by_power_iters(self):
        rng = np.random.default_rng(15)
        x, _ = gapped_instance(rng, noise=0.5)
        start, _ = np.linalg.qr(rng.standard_normal((30, 4)))  # far from the top subspace
        for m, cap in ((0, 1), (1, 1), (3, 3)):
            cfg = SolverConfig(rank=4, power_iters=m, seed=0)
            _, _, passes, angle = sparse_lowrank_approx(x, cfg, start=start)
            assert passes == cap
            assert angle > 1e-5

    def test_warm_start_draws_no_gaussian(self):
        rng = np.random.default_rng(16)
        x, _ = gapped_instance(rng)
        start, _ = np.linalg.qr(rng.standard_normal((30, 4)))
        m1, y1, *_ = lowrank_on_support(x, SolverConfig(rank=4, power_iters=5, seed=1),
                                           start=start)
        m2, y2, *_ = lowrank_on_support(x, SolverConfig(rank=4, power_iters=5, seed=2),
                                           start=start)
        assert m1.q.tobytes() == m2.q.tobytes()
        assert y1.tobytes() == y2.tobytes()


def random_x(seed, dims, p_block=0.7):
    rng = np.random.default_rng(seed)
    omega = random_omega(rng, dims.n_users, dims.n_slots, dims.n_categories, p_block=p_block)
    return make_x(dims, omega, rng.random(omega.total_size))


def with_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


class TestChunkedProducts:
    """The row-chunked sparse products and the row-blocked panel product."""

    @pytest.mark.parametrize("chunk", [1, 7, 50, 400, 1 << 19])
    def test_product_bytes_equal_scipy(self, monkeypatch, chunk):
        monkeypatch.setattr(linalg, "_SPMM_CHUNK", chunk)
        # rank 1 keeps the scatter's floor (T*C * rank = 20 entries) below most chunkings
        x = random_x(21, ProblemDims(60, 5, 4), p_block=0.5)
        v = np.random.default_rng(0).standard_normal((x.dims.n_cols, 3))
        product, _ = linalg._sparse_products(x, rank=1)
        assert product(v).tobytes() == np.asarray(to_csr(x) @ v).tobytes()
        # a Fortran-ordered operand gives the same bytes
        assert product(np.asfortranarray(v)).tobytes() == product(v).tobytes()

    def test_chunks_start_at_multiples_of_the_chunk_size(self, monkeypatch):
        monkeypatch.setattr(linalg, "_SPMM_CHUNK", 50)
        x = random_x(22, ProblemDims(60, 5, 4))
        views = []
        view = linalg._view

        def recording(matrix, *arrays):
            views.append(view(matrix, *arrays))
            return views[-1]

        monkeypatch.setattr(linalg, "_view", recording)
        linalg._sparse_products(x, rank=1)
        heights = [m.shape[0] for m in views if m.format == "csr"]
        starts = np.cumsum([0, *heights[:-1]]).tolist()
        indptr = x.support.csr_structure(x.dims)[0].tolist()
        # the first row at or past each multiple of 50 entries, by a plain scan
        expected = sorted({0} | {next(r for r in range(60) if indptr[r] >= k)
                                 for k in range(50, indptr[-1], 50) if indptr[-2] >= k})
        assert sum(heights) == 60 and starts == expected

    def test_chunk_operators_copy_nothing(self, monkeypatch):
        monkeypatch.setattr(linalg, "_SPMM_CHUNK", 50)
        x = random_x(27, ProblemDims(60, 5, 4))
        _, cols = x.support.csr_structure(x.dims)
        views = []
        view = linalg._view

        def recording(*args):
            views.append(view(*args))
            return views[-1]

        monkeypatch.setattr(linalg, "_view", recording)
        product, adjoint_product = linalg._sparse_products(x, rank=1)
        product(np.ones((x.dims.n_cols, 2)))
        adjoint_product(np.ones((x.dims.n_users, 2)))
        assert len(views) > 4  # a CSR and a CSC view per chunk
        for m in views:
            assert np.shares_memory(m.data, x.values) and np.shares_memory(m.indices, cols)

    @pytest.mark.parametrize("chunk", [1, 7, 50, 400])
    def test_adjoint_close_to_scipy_and_same_bytes_on_any_cpu_count(self, monkeypatch, chunk):
        monkeypatch.setattr(linalg, "_SPMM_CHUNK", chunk)
        x = random_x(23, ProblemDims(60, 5, 4))
        v = np.random.default_rng(1).standard_normal((x.dims.n_users, 3))
        expected = np.asarray(to_csr(x).T @ v)
        runs = []
        for cpus in (1, 2, 8):
            with_cpus(monkeypatch, cpus)
            _, adjoint_product = linalg._sparse_products(x, rank=1)
            runs.append(adjoint_product(v).tobytes())
        assert runs[0] == runs[1] == runs[2]
        got = np.frombuffer(runs[0]).reshape(expected.shape)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_one_chunk_products_are_scipy_products(self, no_pool):
        # a normal and a transposed instance, at three ranks
        for dims in (ProblemDims(60, 5, 4), ProblemDims(12, 5, 4)):
            x = random_x(24, dims)
            rng = np.random.default_rng(2)
            for r in (1, 3, 10):
                v = rng.standard_normal((dims.n_cols, r))
                w = rng.standard_normal((dims.n_users, r))
                product, adjoint_product = linalg._sparse_products(x, rank=r)
                assert product(v).tobytes() == np.asarray(to_csr(x) @ v).tobytes()
                assert adjoint_product(w).tobytes() == np.asarray(to_csr(x).T @ w).tobytes()

    def test_scatter_floor_bounds_the_partial_sums(self, monkeypatch):
        # T*C * rank = 200 entries per chunk at least, whatever _SPMM_CHUNK says
        monkeypatch.setattr(linalg, "_SPMM_CHUNK", 1)
        x = random_x(25, ProblemDims(60, 5, 4))
        chunks = []
        monkeypatch.setattr(linalg, "run_chunks",
                            lambda work, bounds: chunks.append(len(bounds) - 1))
        product, _ = linalg._sparse_products(x, rank=10)
        product(np.ones((x.dims.n_cols, 10)))
        assert 1 < chunks[0] <= x.support.total_size // 200 + 1

    @pytest.mark.parametrize("r", [1, 4, 10])
    @pytest.mark.parametrize("extra", [0, 1, 2, 37])
    def test_panel_product_bytes_equal_matmul(self, monkeypatch, r, extra):
        # blocks of 8 rows, 4 blocks per chunk: 600 rows + extra span 19 or 20 chunks
        monkeypatch.setattr(parallel, "GEMM_SERIAL", 8 * r * r)
        rng = np.random.default_rng(r + extra)
        q = rng.standard_normal((600 + extra, r))
        m = rng.standard_normal((r, r))
        runs = []
        for cpus in (1, 8):
            with_cpus(monkeypatch, cpus)
            runs.append(linalg._panel_product(q, m, np.empty((len(q), r))).tobytes())
        assert runs[0] == runs[1] == (q @ m).tobytes()

    def test_panel_blocks_stay_on_the_calling_thread(self, monkeypatch):
        heights = []
        matmul = np.matmul

        def recording(a, b, out):
            heights.append(len(a))
            return matmul(a, b, out=out)

        monkeypatch.setattr(linalg.np, "matmul", recording)
        q = np.random.default_rng(3).standard_normal((49 * 2048 + 1, 10))
        m = np.eye(10)
        assert linalg._panel_product(q, m, np.empty_like(q)).tobytes() == q.tobytes()
        # blocks of 2048 rows (2048 * 10 * 10 <= 2**18), the one-row tail joined to the last
        assert sorted(heights) == [2048] * 48 + [2049]

    @pytest.mark.parametrize("r", [1, 4, 10])
    @pytest.mark.parametrize("gemm_serial", [8, 1 << 18])  # 8-row blocks, or one block
    def test_panel_product_in_place_bytes_equal_matmul(self, monkeypatch, r, gemm_serial):
        monkeypatch.setattr(parallel, "GEMM_SERIAL", gemm_serial * r * r)
        rng = np.random.default_rng(r)
        q = rng.standard_normal((637, r))
        m = rng.standard_normal((r, r))
        expected = (q @ m).tobytes()
        for cpus in (1, 8):
            with_cpus(monkeypatch, cpus)
            panel = q.copy()
            assert linalg._panel_product(panel, m, out=panel) is panel
            assert panel.tobytes() == expected

    def test_one_chunk_panel_is_one_product(self, no_pool):
        q = np.random.default_rng(4).standard_normal((2780, 10))
        m = np.random.default_rng(5).standard_normal((10, 10))
        assert linalg._panel_product(q, m, np.empty_like(q)).tobytes() == (q @ m).tobytes()


def serial_lowrank_reference(x, cfg, start=None):
    """sparse_lowrank_approx with scipy's plain products and one-product QR
    panels: the code path every support and panel of one chunk takes."""
    dims = x.dims
    fill_rng = np.random.Generator(np.random.Philox(key=cfg.seed ^ linalg._FILL_SALT))
    csr = to_csr(x)
    a = csr.T if dims.transposed else csr
    if start is None:
        rng = np.random.Generator(np.random.Philox(key=cfg.seed))
        q = reduced_qr(np.asarray(a @ rng.standard_normal((min(dims.n_users, dims.n_cols),
                                                          cfg.rank))), fill_rng)
        max_passes = cfg.power_iters
    else:
        q, max_passes = start, max(1, cfg.power_iters)
    for passes in range(1, max_passes + 1):
        q_prev, q = q, reduced_qr(np.asarray(a @ np.asarray(a.T @ q)), fill_rng)
        if start is not None and linalg._principal_sine(q_prev, q) <= linalg._SUBSPACE_TOL:
            break
    model = LowRankModel(dims, q=q, c=np.ascontiguousarray(np.asarray(a.T @ q).T))
    return model, model_support_values(model, x.support)


class TestOneChunkPath:
    @pytest.mark.parametrize("dims", [ProblemDims(300, 6, 5), ProblemDims(40, 8, 6)])
    def test_matches_plain_products(self, no_pool, dims):
        x = random_x(26, dims)
        cfg = SolverConfig(rank=4, power_iters=3, seed=8)
        cold, y_cold, *_ = lowrank_on_support(x, cfg)
        ref_cold, y_ref = serial_lowrank_reference(x, cfg)
        assert cold.q.tobytes() == ref_cold.q.tobytes()
        assert cold.c.tobytes() == ref_cold.c.tobytes()
        assert y_cold.tobytes() == y_ref.tobytes()
        warm, y_warm, *_ = lowrank_on_support(x, cfg, start=cold.q)
        ref_warm, y_ref = serial_lowrank_reference(x, cfg, start=cold.q)
        assert warm.q.tobytes() == ref_warm.q.tobytes()
        assert y_warm.tobytes() == y_ref.tobytes()


class TestReusedPanels:
    """sparse_lowrank_approx writes its long-side panels into a fixed set of
    buffers: the bytes of conftest.allocating_lowrank_approx, which allocates
    every panel anew."""

    @staticmethod
    def assert_bytes_equal(x, cfg, start=None):
        model, _, passes, angle = sparse_lowrank_approx(x, cfg, start=start)
        ref, ref_passes, ref_angle = allocating_lowrank_approx(x, cfg, start=start)
        assert model.q.tobytes() == ref.q.tobytes()
        assert model.c.tobytes() == ref.c.tobytes()
        assert (passes, angle) == (ref_passes, ref_angle)
        return model, passes

    @pytest.mark.parametrize("dims", [ProblemDims(600, 8, 6), ProblemDims(60, 12, 10)])
    def test_bytes_equal_allocating_loop(self, fresh_pools, monkeypatch, dims):
        # 64-entry product chunks and 8-row panel blocks, on two CPUs
        monkeypatch.setattr(linalg, "_SPMM_CHUNK", 64)
        monkeypatch.setattr(parallel, "GEMM_SERIAL", 8 * 4 * 4)
        x = random_x(28, dims)
        _, passes = self.assert_bytes_equal(x, SolverConfig(rank=4, power_iters=3, seed=6))
        assert passes == 3
        # a basis one pass from cold: the warm call runs enough passes to reuse its panels
        rough, _ = self.assert_bytes_equal(x, SolverConfig(rank=4, power_iters=1, seed=6))
        start = rough.q.copy()
        warm, passes = self.assert_bytes_equal(x, SolverConfig(rank=4, power_iters=8, seed=6),
                                               start=start)
        assert passes >= 3
        # start is never written
        assert start.tobytes() == rough.q.tobytes() and not np.shares_memory(warm.q, start)

    def test_householder_after_the_first_product_gets_b(self, fresh_pools, monkeypatch,
                                                         householder_calls,
                                                         second_cholesky_fails):
        monkeypatch.setattr(linalg, "_SPMM_CHUNK", 64)
        monkeypatch.setattr(parallel, "GEMM_SERIAL", 8 * 4 * 4)
        x = random_x(29, ProblemDims(600, 8, 6))
        cfg = SolverConfig(rank=4, power_iters=3, seed=7)
        cold, _ = self.assert_bytes_equal(x, cfg)
        self.assert_bytes_equal(x, cfg, start=cold.q)
        # every QR of both runs fell back after its first product
        assert len(householder_calls) == len(second_cholesky_fails) // 2 > 0

    def test_call_holds_fewer_than_four_and_a_half_panels(self, monkeypatch):
        """One call's traced peak stays below 4.5 long-side panels, cold and warm:
        B, the new basis and the one before it, and the sparse products' chunk
        scratch. A new B and two new QR panels on every pass, as the allocating
        loop makes them, break this."""
        omega, _, dims = generate(SynthConfig(20000, 50, 20, seed=3))
        assert not dims.transposed
        x = BlockSparseMatrix(dims, omega, np.random.default_rng(3).random(omega.total_size))
        omega.csr_structure(dims)  # the cached layout, built before tracing
        cfg = SolverConfig(rank=10, power_iters=3, seed=1)
        panel = max(dims.n_users, dims.n_cols) * cfg.rank * 8
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        start = None
        for _ in ("cold", "warm"):
            tracemalloc.start()  # numpy reports its buffers to tracemalloc
            try:
                model, _, passes, _ = sparse_lowrank_approx(x, cfg, start=start)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert passes >= 2 and peak < 4.5 * panel
            start = model.q
