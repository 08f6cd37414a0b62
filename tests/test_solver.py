import math
import os
import sys

import numpy as np
import pytest

from nutf import core, parallel
from nutf.core import BlockSparseMatrix, CandidateSets, LowRankModel, ProblemDims
from nutf.solver import (
    SolverConfig,
    SolverTrace,
    fit,
    init_x,
    predict_topk,
    update_x,
)

from conftest import dense_reference_fit, random_omega


def planted_instance(seed, n=6, t=4, c=3, classes=2, p_single=0.5):
    """Class-structured candidate sets with a mix of forced singletons and
    two-candidate blocks; the fully observed tensor has rank <= classes."""
    g = np.random.default_rng(seed)
    schedule = g.integers(0, c, size=(classes, t))
    ucls = g.integers(0, classes, size=n)
    blocks = []
    for i in range(n):
        for j in range(t):
            true = int(schedule[ucls[i], j])
            if g.random() < p_single:
                blocks.append((i, j, [true]))
            else:
                decoy = int((true + 1 + g.integers(0, c - 1)) % c)
                blocks.append((i, j, sorted({true, decoy})))
    return CandidateSets.from_blocks(blocks), ProblemDims(n, t, c)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(rank=0)
        with pytest.raises(ValueError):
            SolverConfig(rank=1, outer_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(rank=1, tol=-1.0)


class TestInitX:
    def test_uniform_blocks(self, small_omega, small_dims):
        x = init_x(small_omega, small_dims)
        blocks = dict(zip(small_omega.to_dict(), np.split(x.values, small_omega.block_ptr[1:-1])))
        assert blocks[(0, 3)].tolist() == [1.0]  # singleton
        assert np.allclose(blocks[(1, 1)], 1.0 / 3.0)

    def test_size_four_block(self):
        omega = CandidateSets.from_dict({(0, 0): [0, 1, 2, 3]})
        x = init_x(omega, ProblemDims(1, 1, 4))
        assert x.values.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_total_mass_equals_block_count(self, small_omega, small_dims):
        x = init_x(small_omega, small_dims)
        assert x.values.sum() == pytest.approx(small_omega.n_blocks, abs=1e-9)


class TestUpdateX:
    def test_symmetric_block_projects_to_barycenter(self):
        omega = CandidateSets.from_dict({(0, 0): [0, 1, 2]})
        x = update_x(np.zeros(3), omega, ProblemDims(1, 1, 3))
        assert np.allclose(x.values, 1.0 / 3.0, atol=1e-15)

    def test_two_equal_candidates(self):
        omega = CandidateSets.from_dict({(0, 0): [0, 1]})
        x = update_x(np.array([0.9, 0.9]), omega, ProblemDims(1, 1, 2))
        assert np.allclose(x.values, [0.5, 0.5], atol=1e-15)

    def test_one_hot_fixed_point(self):
        omega = CandidateSets.from_dict({(0, 0): [0, 1, 2]})
        x = update_x(np.array([0.0, 1.0, 0.0]), omega, ProblemDims(1, 1, 3))
        assert x.values.tolist() == [0.0, 1.0, 0.0]

    def test_misaligned_rejected(self, small_omega, small_dims):
        with pytest.raises(ValueError):
            update_x(np.zeros(small_omega.total_size - 1), small_omega, small_dims)

    def test_feasible_output_for_arbitrary_y(self, small_omega, small_dims):
        rng = np.random.default_rng(0)
        x = update_x(rng.standard_normal(small_omega.total_size), small_omega, small_dims)
        assert x.max_block_sum_error() <= 1e-9
        assert x.values.min() >= 0.0


class TestFit:
    def test_singleton_instance_forced_one_hot(self):
        omega = CandidateSets.from_dict({
            (0, 0): [2], (0, 1): [0], (1, 0): [1], (2, 1): [2],
        })
        dims = ProblemDims(3, 2, 3)
        seen = []
        x, model, trace = fit(
            omega, dims, SolverConfig(rank=2, outer_iters=6, tol=0.0, seed=0),
            on_iteration=lambda it, xi, mi, obj: seen.append(xi.values.copy()),
        )
        assert np.array_equal(x.values, np.ones(4))
        for vals in seen:
            assert np.array_equal(vals, np.ones(4))

    def test_feasible_after_every_iteration(self):
        omega, dims = planted_instance(3, n=10, t=5, c=4, classes=3, p_single=0.3)
        audits = []

        def audit(it, x, model, obj):
            audits.append((x.max_block_sum_error(), float(x.values.min())))

        fit(omega, dims, SolverConfig(rank=3, outer_iters=8, tol=0.0, seed=1),
            on_iteration=audit)
        assert len(audits) == 8
        assert all(err <= 1e-9 for err, _ in audits)
        assert all(mn >= 0.0 for _, mn in audits)

    def test_matches_dense_reference_on_tiny_planted(self):
        for seed in range(4):
            omega, dims = planted_instance(seed)
            cfg = SolverConfig(rank=2, outer_iters=8, power_iters=50, tol=0.0, seed=seed)
            _, _, trace = fit(omega, dims, cfg)
            _, dtrace = dense_reference_fit(omega, dims, cfg)
            assert trace.objectives[-1] == pytest.approx(dtrace.objectives[-1], abs=1e-6)

    def test_early_stopping(self):
        omega, dims = planted_instance(1, n=8, t=4, c=3)
        cfg = SolverConfig(rank=2, outer_iters=200, power_iters=10, tol=1e-9, seed=0)
        _, _, trace = fit(omega, dims, cfg)
        assert trace.n_iterations < 200

    def test_trace_shape(self):
        omega, dims = planted_instance(2)
        _, _, trace = fit(omega, dims, SolverConfig(rank=2, outer_iters=5, tol=0.0, seed=0))
        assert trace.n_iterations == 5
        recs = trace.to_records()
        assert [r["iter"] for r in recs] == [1, 2, 3, 4, 5]
        assert all(set(r) == {"iter", "objective", "seconds", "x_delta"} for r in recs)
        zeroed = trace.to_records(zero_seconds=True)
        assert all(r["seconds"] == 0.0 for r in zeroed)

    def test_rank_error_propagates(self):
        omega = CandidateSets.from_dict({(0, 0): [0]})
        dims = ProblemDims(1, 1, 2)
        with pytest.raises(ValueError):
            fit(omega, dims, SolverConfig(rank=2, outer_iters=1))

    def test_deterministic_reruns(self):
        omega, dims = planted_instance(5, n=12, t=5, c=4, classes=3)
        cfg = SolverConfig(rank=3, outer_iters=6, tol=0.0, seed=9)
        x1, m1, t1 = fit(omega, dims, cfg)
        x2, m2, t2 = fit(omega, dims, cfg)
        assert np.array_equal(x1.values, x2.values)
        assert np.array_equal(m1.q, m2.q)
        assert t1.objectives == t2.objectives


    def test_support_checked_against_dims_once(self):
        def dims_scans(outer_iters):
            omega, dims = planted_instance(6, n=12, t=5, c=4, classes=3)
            omega.block_users = omega.block_users.view(_CountingMax)
            _CountingMax.calls = 0
            fit(omega, dims, SolverConfig(rank=2, outer_iters=outer_iters, tol=0.0))
            return _CountingMax.calls

        assert dims_scans(1) == 1
        assert dims_scans(5) == 1

    def test_empty_support(self):
        omega, dims = CandidateSets.from_blocks([]), ProblemDims(3, 2, 2)
        cfg = SolverConfig(rank=1, outer_iters=2, tol=0.0)
        x, _, trace = fit(omega, dims, cfg)
        assert len(x.values) == 0 and trace.objectives == [0.0, 0.0]
        dense, _ = dense_reference_fit(omega, dims, cfg)
        assert np.array_equal(dense, np.zeros((3, 4)))


class _CountingMax(np.ndarray):
    """Index array counting calls of its max(), the scan of a dims check."""

    calls = 0

    def max(self, *args, **kwargs):
        _CountingMax.calls += 1
        return super().max(*args, **kwargs)


class TestDenseReferenceFit:
    def test_guard_on_large_instances(self):
        omega = CandidateSets.from_dict({(0, 0): [0]})
        dims = ProblemDims(100, 100, 11)  # > 1e5 entries
        with pytest.raises(ValueError):
            dense_reference_fit(omega, dims, SolverConfig(rank=1, outer_iters=1))

    def test_agrees_with_fit_on_singletons(self):
        omega = CandidateSets.from_dict({(0, 1): [1], (1, 0): [0], (2, 1): [1]})
        dims = ProblemDims(3, 2, 2)
        cfg = SolverConfig(rank=1, outer_iters=4, tol=0.0, seed=0)
        x, _, _ = fit(omega, dims, cfg)
        xd, _ = dense_reference_fit(omega, dims, cfg)
        _, cols, rows = omega.csr_structure(dims)
        assert np.allclose(xd[rows, cols], x.values, atol=1e-12)
        mask = np.zeros(xd.shape, dtype=bool)
        mask[rows, cols] = True
        assert np.all(xd[~mask] == 0.0)

    def test_objectives_non_increasing_on_planted(self):
        for seed in range(5):
            omega, dims = planted_instance(seed, n=9, t=5, c=4, classes=2)
            cfg = SolverConfig(rank=2, outer_iters=10, tol=0.0, seed=seed)
            _, trace = dense_reference_fit(omega, dims, cfg)
            diffs = np.diff(trace.objectives)
            assert np.all(diffs <= 1e-12)

    def test_per_iteration_match_at_high_m(self):
        # randomized path with m = 50 tracks the exact path iterate by iterate
        for seed in (0, 5, 6, 7):
            g = np.random.default_rng(200 + seed)
            blocks = []
            for i in range(8):
                for j in range(5):
                    if g.random() < 0.7:
                        size = int(g.integers(1, 4))
                        cats = sorted(int(cc) for cc in g.choice(4, size=size, replace=False))
                        blocks.append((i, j, cats))
            omega = CandidateSets.from_blocks(blocks)
            dims = ProblemDims(8, 5, 4)
            cfg = SolverConfig(rank=2, outer_iters=5, power_iters=50, tol=0.0, seed=seed)
            _, _, trace = fit(omega, dims, cfg)
            _, dtrace = dense_reference_fit(omega, dims, cfg)
            for a, b in zip(trace.objectives, dtrace.objectives):
                assert a == pytest.approx(b, abs=1e-5)


class TestPredictTopk:
    def _one_hot_model(self):
        # exact factorization of a one-hot X of rank <= 2
        dims = ProblemDims(4, 2, 3)
        omega = CandidateSets.from_dict({
            (0, 0): [2], (1, 0): [2], (2, 0): [1], (3, 1): [0],
        })
        x = BlockSparseMatrix(dims, omega, np.ones(4))
        dense = x.to_dense()
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        r = int((s > 1e-12).sum())
        model = LowRankModel(dims, q=u[:, :r], c=s[:r, None] * vt[:r])
        return model, omega, x

    def test_rank_zero_tie_rule(self):
        dims = ProblemDims(2, 2, 5)
        model = LowRankModel(dims, q=np.empty((2, 0)), c=np.empty((0, 10)))
        assert predict_topk(model, 0, 1, 3).tolist() == [0, 1, 2]

    def test_one_hot_recovery(self):
        model, omega, x = self._one_hot_model()
        for (i, j), cats in omega.items():
            assert predict_topk(model, i, j, 1)[0] == cats[0]

    def test_restrict_singleton(self):
        model, _, _ = self._one_hot_model()
        assert predict_topk(model, 0, 0, 1, restrict=[1])[0] == 1

    def test_restrict_validated(self):
        model, _, _ = self._one_hot_model()
        with pytest.raises(ValueError):
            predict_topk(model, 0, 0, 1, restrict=[5])
        with pytest.raises(ValueError):
            predict_topk(model, 0, 0, 1, restrict=[])

    def test_k_bounds(self):
        model, _, _ = self._one_hot_model()
        with pytest.raises(ValueError):
            predict_topk(model, 0, 0, 0)
        with pytest.raises(ValueError):
            predict_topk(model, 0, 0, 4)  # C = 3

    def test_descending_scores(self):
        rng = np.random.default_rng(13)
        dims = ProblemDims(6, 3, 5)
        q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        qt, _ = np.linalg.qr(rng.standard_normal((15, 2)))
        models = [
            LowRankModel(dims, q=q, c=rng.standard_normal((2, 15))),
            LowRankModel(dims, q=qt, c=rng.standard_normal((2, 6)), transposed=True),
            LowRankModel(dims, q=np.empty((6, 0)), c=np.empty((0, 15))),
        ]
        for model in models:
            y = (model.q @ model.c).T if model.transposed else model.q @ model.c
            cats = predict_topk(model, 2, 1, 5)
            assert sorted(cats.tolist()) == list(range(5))
            scores = [y[2, 1 * 5 + k] for k in cats]
            assert all(s1 >= s2 - 1e-15 for s1, s2 in zip(scores, scores[1:]))

    def test_index_validation(self):
        model, _, _ = self._one_hot_model()
        with pytest.raises(ValueError):
            predict_topk(model, 4, 0, 1)
        with pytest.raises(ValueError):
            predict_topk(model, 0, 2, 1)


def multi_chunk_instance(seed, n=5000, t=8, c=6):
    """Every (user, slot) with 1..c random categories: |Omega| ~ 140k, which
    spans several projection and materialization chunks."""
    rng = np.random.default_rng(seed)
    nb = n * t
    sizes = rng.integers(1, c + 1, size=nb)
    taken = np.arange(c)[None, :] < sizes[:, None]
    perm = np.argsort(rng.random((nb, c)), axis=1)
    chosen = np.sort(np.where(taken, perm, c), axis=1)  # picks first, ascending
    ptr = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    omega = CandidateSets(np.repeat(np.arange(n), t), np.tile(np.arange(t), n), ptr,
                          chosen[taken])
    return omega, ProblemDims(n, t, c)


class TestThreadedKernels:
    def test_fit_bytes_independent_of_cpu_count(self, monkeypatch):
        omega, dims = multi_chunk_instance(5)
        cfg = SolverConfig(rank=4, outer_iters=3, power_iters=2, tol=0.0, seed=9)
        pools = []

        class RecordingPool(parallel.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingPool)

        def fit_bytes(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            x, model, _ = fit(omega, dims, cfg)
            return x.values.tobytes(), model.q.tobytes(), model.c.tobytes()

        one_cpu = fit_bytes(1)
        assert pools == []  # one usable CPU: every chunk ran inline
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            eight_cpus = fit_bytes(8)  # more workers than this machine has cores
        finally:
            sys.setswitchinterval(interval)
        assert one_cpu == eight_cpus
        materialize_chunks = math.ceil(omega.total_size / core._ENTRY_CHUNK)
        assert min(8, materialize_chunks) in pools
        assert max(pools) <= 8
