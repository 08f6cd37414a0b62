import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nutf
from nutf import core, linalg, parallel, solver
from nutf.core import BlockSparseMatrix, CandidateSets, LowRankModel, ProblemDims
from nutf.harness import SynthConfig, generate
from nutf.linalg import NumericalError, sparse_lowrank_approx
from nutf.simplex import project_blocks
from nutf.serialize import load_model, save_model, write_trace_jsonl
from nutf.solver import (
    SolverConfig,
    fit,
    init_x,
    predict_topk,
)

from conftest import (
    assert_one_short_side_factor,
    block_dict,
    block_items,
    block_sum_error,
    column,
    dense_completion,
    dense_reference_fit,
    entry_rows,
    exact_model,
    random_model,
    serial_support_pass,
    to_dense,
    update_x,
    zero_model,
)


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
        with pytest.raises(ValueError):
            SolverConfig(rank=1, power_iters=-1)

    @pytest.mark.parametrize("field,value", [
        ("rank", 2.5), ("rank", True), ("outer_iters", 3.0), ("power_iters", False),
        ("seed", 1.5), ("seed", np.True_), ("seed", "1"),
    ])
    def test_non_integer_counts_and_seed_rejected(self, field, value):
        kwargs = {"rank": 1, field: value}
        with pytest.raises(ValueError, match=re.escape(f"{field} {value!r} is not an integer")):
            SolverConfig(**kwargs)
        # integers of any integer type are taken
        SolverConfig(**{**kwargs, field: np.int64(2)})

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite number"):
            SolverConfig(rank=1, tol=tol)


class TestInitX:
    def test_uniform_blocks(self, small_omega, small_dims):
        x = init_x(small_omega, small_dims)
        values = np.split(x.values, small_omega.block_ptr[1:-1])
        blocks = dict(zip(block_dict(small_omega), values))
        assert blocks[(0, 3)].tolist() == [1.0]  # singleton
        assert np.allclose(blocks[(1, 1)], 1.0 / 3.0)

    def test_size_four_block(self):
        omega = CandidateSets.from_blocks([(0, 0, [0, 1, 2, 3])])
        x = init_x(omega, ProblemDims(1, 1, 4))
        assert x.values.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_slices_give_the_whole_repeat(self, monkeypatch):
        omega, dims = multi_chunk_instance(3, n=50)  # 400 blocks: 57 slices of 7, then 1
        monkeypatch.setattr(solver, "_INIT_BLOCKS", 7)
        sizes = np.diff(omega.block_ptr)
        assert init_x(omega, dims).values.tobytes() == np.repeat(1.0 / sizes, sizes).tobytes()

    def test_total_mass_equals_block_count(self, small_omega, small_dims):
        x = init_x(small_omega, small_dims)
        assert x.values.sum() == pytest.approx(small_omega.n_blocks, abs=1e-9)


class TestUpdateX:
    def test_symmetric_block_projects_to_barycenter(self):
        omega = CandidateSets.from_blocks([(0, 0, [0, 1, 2])])
        x = update_x(np.zeros(3), omega, ProblemDims(1, 1, 3))
        assert np.allclose(x.values, 1.0 / 3.0, atol=1e-15)

    def test_two_equal_candidates(self):
        omega = CandidateSets.from_blocks([(0, 0, [0, 1])])
        x = update_x(np.array([0.9, 0.9]), omega, ProblemDims(1, 1, 2))
        assert np.allclose(x.values, [0.5, 0.5], atol=1e-15)

    def test_one_hot_fixed_point(self):
        omega = CandidateSets.from_blocks([(0, 0, [0, 1, 2])])
        x = update_x(np.array([0.0, 1.0, 0.0]), omega, ProblemDims(1, 1, 3))
        assert x.values.tolist() == [0.0, 1.0, 0.0]

    def test_misaligned_rejected(self, small_omega, small_dims):
        with pytest.raises(ValueError):
            update_x(np.zeros(small_omega.total_size - 1), small_omega, small_dims)

    def test_feasible_output_for_arbitrary_y(self, small_omega, small_dims):
        rng = np.random.default_rng(0)
        x = update_x(rng.standard_normal(small_omega.total_size), small_omega, small_dims)
        assert block_sum_error(x) <= 1e-9
        assert x.values.min() >= 0.0


class TestFit:
    def test_singleton_instance_forced_one_hot(self):
        omega = CandidateSets.from_blocks([
            (0, 0, [2]), (0, 1, [0]), (1, 0, [1]), (2, 1, [2]),
        ])
        dims = ProblemDims(3, 2, 3)
        seen = []
        x, model, trace = fit(
            omega, dims, SolverConfig(rank=2, outer_iters=6, tol=0.0, seed=0),
            on_iteration=lambda it, xi, mi, obj: seen.append(xi.values.copy()),
        )
        assert np.array_equal(x.values, np.ones(4))
        for vals in seen:
            assert np.array_equal(vals, np.ones(4))

    def test_on_iteration_model_holds_the_live_basis(self):
        """From its second subspace pass on, each iteration writes over the
        previous iteration's basis, so the model handed to on_iteration holds
        a live iterate: a copy of model.q keeps it."""
        omega, _, dims = generate(SynthConfig(300, 12, 9, n_classes=3, seed=5))
        seen = []
        _, model, trace = fit(omega, dims, SolverConfig(rank=3, outer_iters=3, tol=0.0, seed=2),
                              on_iteration=lambda it, x, m, obj: seen.append((m.q, m.q.copy())))
        assert trace.records[1]["passes"] >= 2
        (first, kept), *_, (last, last_kept) = seen
        assert first.tobytes() != kept.tobytes()
        # the returned model is the last one handed over, and nothing follows it
        assert model.q is last and last.tobytes() == last_kept.tobytes()

    def test_feasible_after_every_iteration(self):
        omega, dims = planted_instance(3, n=10, t=5, c=4, classes=3, p_single=0.3)
        audits = []

        def audit(it, x, model, obj):
            audits.append((block_sum_error(x), float(x.values.min())))

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
            assert trace.records[-1]["objective"] == pytest.approx(
                dtrace.records[-1]["objective"], abs=1e-6)

    def test_early_stopping(self):
        omega, dims = planted_instance(1, n=8, t=4, c=3)
        cfg = SolverConfig(rank=2, outer_iters=200, power_iters=10, tol=1e-9, seed=0)
        _, _, trace = fit(omega, dims, cfg)
        assert len(trace.records) < 200

    def test_trace_shape(self, tmp_path):
        omega, dims = planted_instance(2)
        _, _, trace = fit(omega, dims, SolverConfig(rank=2, outer_iters=5, tol=0.0, seed=0))
        recs = trace.records
        assert [r["iter"] for r in recs] == [1, 2, 3, 4, 5]
        fields = ["iter", "objective", "seconds", "x_delta", "passes", "subspace_angle",
                  "q_ortho_error", "block_sum_error"]
        assert all(list(r) == [*fields, "kernels"] for r in recs)
        assert all(0.0 <= r["q_ortho_error"] <= 1e-12 for r in recs)
        assert all(0.0 <= r["block_sum_error"] <= 1e-12 for r in recs)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, trace, zero_seconds=True)
        zeroed = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(list(r) == fields for r in zeroed)
        assert all(r["seconds"] == 0.0 for r in zeroed)

    def test_trace_records_kernel_split(self):
        omega, dims = planted_instance(2)
        _, _, trace = fit(omega, dims, SolverConfig(rank=2, outer_iters=4, tol=0.0, seed=0))
        assert trace.init_seconds > 0.0
        assert len(trace.records) == 4
        for record in trace.records:
            kernels = record["kernels"]
            assert set(kernels) == {"spmm", "qr", "support_pass", "audit"}
            assert all(v >= 0.0 for v in kernels.values())
            assert sum(kernels.values()) <= record["seconds"]

    def test_warm_passes_within_cap(self):
        omega, dims = planted_instance(4, n=12, t=5, c=4, classes=3)
        for m in (0, 1, 8):
            _, _, trace = fit(omega, dims,
                              SolverConfig(rank=3, outer_iters=6, power_iters=m, tol=0.0))
            passes, angles = column(trace, "passes"), column(trace, "subspace_angle")
            assert passes[0] == m
            assert (angles[0] is None) == (m == 0)
            assert all(1 <= p <= max(1, m) for p in passes[1:])
            assert all(0.0 <= a <= 1.0 for a in angles[1:])

    def test_one_iteration_is_a_cold_approximation(self):
        omega, dims = planted_instance(7, n=12, t=5, c=4, classes=3)
        cfg = SolverConfig(rank=3, outer_iters=1, power_iters=4, seed=11)
        _, model, trace = fit(omega, dims, cfg)
        cold, *_ = sparse_lowrank_approx(init_x(omega, dims), replace(cfg, seed=cfg.seed ^ 1))
        assert model.q.tobytes() == cold.q.tobytes()
        assert model.c.tobytes() == cold.c.tobytes()
        assert column(trace, "passes") == [4]

    @pytest.mark.parametrize("transposed", [False, True])
    def test_model_keeps_one_short_side_factor(self, tmp_path, transposed):
        """The solve's A^T Q becomes the model's short-side factor as it is,
        and a loaded model copies the file's C once into its own."""
        omega, dims = planted_instance(5, n=8 if transposed else 40, t=5, c=4, classes=3)
        assert dims.transposed == transposed
        _, model, _ = fit(omega, dims, SolverConfig(rank=3, outer_iters=3, tol=0.0))
        assert_one_short_side_factor(model)
        save_model(tmp_path / "model.nutf", model)
        loaded = load_model(tmp_path / "model.nutf")
        assert_one_short_side_factor(loaded)
        assert loaded.c.base is (loaded.user_factor if transposed else loaded.col_factor)
        assert loaded.c.tobytes() == model.c.tobytes()

    def test_rank_error_propagates(self):
        omega = CandidateSets.from_blocks([(0, 0, [0])])
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
        assert column(t1, "objective") == column(t2, "objective")


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
        assert len(x.values) == 0 and column(trace, "objective") == [0.0, 0.0]
        dense, _ = dense_reference_fit(omega, dims, cfg)
        assert np.array_equal(dense, np.zeros((3, 4)))


class _CountingMax(np.ndarray):
    """Index array counting calls of its max(), the scan of a dims check."""

    calls = 0

    def max(self, *args, **kwargs):
        _CountingMax.calls += 1
        return super().max(*args, **kwargs)


class TestSupportPass:
    """solver._support_pass against the separate sweeps of
    conftest.serial_support_pass, bit for bit."""

    @staticmethod
    def inputs(instance):
        if instance == "uniform":  # blocks of 4: none crosses a 10,000-entry edge
            omega, _, dims = generate(SynthConfig(2000, 20, 10, n_classes=4, slot_density=0.5,
                                                  seed=3))
        else:  # sizes 1 to 6
            omega, dims = multi_chunk_instance(8, n=3000)
        rng = np.random.default_rng(4)
        x = BlockSparseMatrix(dims, omega, rng.random(omega.total_size))
        return x, random_model(rng, dims, 3)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dot_serial", [10_000, 999])
    @pytest.mark.parametrize("instance", ["uniform", "mixed"])
    def test_bytes_equal_separate_sweeps(self, fresh_pools, monkeypatch, instance, dot_serial,
                                         workers):
        # at 999 entries per dot block and one block per chunk, candidate
        # blocks cross chunk edges in both instances
        monkeypatch.setattr(core, "DOT_SERIAL", dot_serial)
        monkeypatch.setattr(solver, "_PASS_BLOCKS", 1 if dot_serial < 10_000 else 4)
        x, model = self.inputs(instance)
        assert x.support.total_size > 3 * dot_serial
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: workers)
        # the pass writes X+ over x, so the reference gets its own copy of X
        x_ref = BlockSparseMatrix(x.dims, x.support, x.values.copy())
        values = x.values
        objective, delta, sum_error = solver._support_pass(x, model)
        ref_x, ref_objective, ref_delta, ref_sum_error = serial_support_pass(x_ref, model)
        assert x.values is values and x.values.tobytes() == ref_x.values.tobytes()
        assert (objective, delta, sum_error) == (ref_objective, ref_delta, ref_sum_error)
        assert sum_error <= 1e-12

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_completion_raises(self, fresh_pools, monkeypatch, workers):
        monkeypatch.setattr(core, "DOT_SERIAL", 999)
        monkeypatch.setattr(solver, "_PASS_BLOCKS", 1)
        x, model = self.inputs("mixed")
        c = model.c.copy()
        c[0, -1] = np.nan  # the last column's entries, in the last chunks
        bad = LowRankModel(model.dims, q=model.q, c=c)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: workers)
        with pytest.raises(NumericalError, match="non-finite"):
            solver._support_pass(x, bad)

    @pytest.mark.parametrize("instance", ["uniform", "mixed"])
    def test_same_bytes_with_an_int64_block_ptr(self, fresh_pools, monkeypatch, instance):
        """The pass searches block_ptr with needles of its dtype, so an int32
        block_ptr (the support's, while |Omega| < 2**31) is never converted
        whole, and gives the bytes of an int64 one."""
        monkeypatch.setattr(core, "DOT_SERIAL", 999)
        monkeypatch.setattr(solver, "_PASS_BLOCKS", 1)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        x, model = self.inputs(instance)
        support = x.support
        wide = CandidateSets(support.block_users, support.block_slots, support.block_ptr,
                             support.cats)
        wide.block_ptr = support.block_ptr.astype(np.int64)
        x_wide = BlockSparseMatrix(x.dims, wide, x.values.copy())
        searches = []
        searchsorted = np.searchsorted

        def recording(a, v, *args, **kwargs):
            searches.append((a.dtype, np.asarray(v).dtype))
            return searchsorted(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", recording)
        narrow_out = solver._support_pass(x, model)
        wide_out = solver._support_pass(x_wide, model)
        assert support.block_ptr.dtype == np.int32
        assert len(searches) > 6 and all(a == v for a, v in searches)
        assert x.values.tobytes() == x_wide.values.tobytes()
        assert narrow_out == wide_out

    def test_fit_keeps_two_support_vectors(self, monkeypatch):
        """While fit runs, X and X+ are the only vectors as long as the support
        alive at once: the traced peak stays below the layout plus 2.5 of them.
        Y held whole next to both, as the separate sweeps hold it, breaks this."""
        omega, _, dims = generate(SynthConfig(8000, 100, 50, n_classes=5, slot_density=0.5,
                                              seed=1))
        assert omega.total_size == 1_600_000 and not dims.transposed
        cfg = SolverConfig(rank=2, outer_iters=2, power_iters=2, tol=0.0)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            fit(omega, dims, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        layout = sum(a.nbytes for a in omega.csr_structure(dims))
        assert peak < layout + 2.5 * 8 * omega.total_size

    def test_fit_keeps_one_support_vector(self, monkeypatch):
        """The pass writes X+ over X, so while fit runs X is the only vector as
        long as the support: the traced peak stays below the layout plus 1.5 of
        them. A separate X+, or the uniform start's per-block arrays held whole
        next to X, breaks this."""
        omega, _, dims = generate(SynthConfig(8000, 100, 50, n_classes=5, slot_density=0.5,
                                              seed=1))
        assert omega.total_size == 1_600_000 and not dims.transposed
        cfg = SolverConfig(rank=2, outer_iters=2, power_iters=2, tol=0.0)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            fit(omega, dims, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        layout = sum(a.nbytes for a in omega.csr_structure(dims))
        assert peak < layout + 1.5 * 8 * omega.total_size

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_partway_through_the_pass_leaves_fit(self, fresh_pools, monkeypatch, workers):
        """A non-finite C in the last chunks of iteration 2 raises after earlier
        chunks have written X+ over X; fit still raises the NumericalError."""
        monkeypatch.setattr(core, "DOT_SERIAL", 999)
        monkeypatch.setattr(solver, "_PASS_BLOCKS", 1)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: workers)
        omega, dims = multi_chunk_instance(8, n=200, t=40)
        # transposed, so C has one column per user
        assert dims.transposed and omega.total_size > 10 * 999
        approx = solver.sparse_lowrank_approx

        def poisoned(x, cfg, start=None):
            model, *rest = approx(x, cfg, start=start)
            if start is not None:  # iteration 2 on
                c = model.c.copy()
                c[:, -1] = np.nan  # the last user's entries, in the last chunks
                model = LowRankModel(model.dims, q=model.q, c=c)
            return (model, *rest)

        monkeypatch.setattr(solver, "sparse_lowrank_approx", poisoned)
        seen = []
        with pytest.raises(NumericalError, match="non-finite"):
            fit(omega, dims, SolverConfig(rank=3, outer_iters=3, tol=0.0),
                on_iteration=lambda it, x, *_: seen.append((x, x.values.copy())))
        [(x, after_first)] = seen
        if workers == 1:  # the chunks ran in order: the first wrote, the last did not
            assert x.values[:999].tobytes() != after_first[:999].tobytes()
            assert x.values[-1] == after_first[-1]

    def test_references_run_inline(self, no_pool):
        """The serial references run on the calling thread: over a support
        of more than 2**17 entries, none of them asks for a pool."""
        omega, dims = multi_chunk_instance(8)
        rng = np.random.default_rng(4)
        x = BlockSparseMatrix(dims, omega, rng.random(omega.total_size))
        model = random_model(rng, dims, 3)
        assert omega.total_size > 2 * (1 << 16)
        y = core.model_support_values(model, x.support)
        project_blocks(y, x.support.block_ptr)
        block_sum_error(x)
        serial_support_pass(x, model)


class TestDenseReferenceFit:
    def test_guard_on_large_instances(self):
        omega = CandidateSets.from_blocks([(0, 0, [0])])
        dims = ProblemDims(100, 100, 11)  # > 1e5 entries
        with pytest.raises(ValueError):
            dense_reference_fit(omega, dims, SolverConfig(rank=1, outer_iters=1))

    def test_agrees_with_fit_on_singletons(self):
        omega = CandidateSets.from_blocks([(0, 1, [1]), (1, 0, [0]), (2, 1, [1])])
        dims = ProblemDims(3, 2, 2)
        cfg = SolverConfig(rank=1, outer_iters=4, tol=0.0, seed=0)
        x, _, _ = fit(omega, dims, cfg)
        xd, _ = dense_reference_fit(omega, dims, cfg)
        _, cols = omega.csr_structure(dims)
        rows = entry_rows(omega)
        assert np.allclose(xd[rows, cols], x.values, atol=1e-12)
        mask = np.zeros(xd.shape, dtype=bool)
        mask[rows, cols] = True
        assert np.all(xd[~mask] == 0.0)

    def test_objectives_non_increasing_on_planted(self):
        for seed in range(5):
            omega, dims = planted_instance(seed, n=9, t=5, c=4, classes=2)
            cfg = SolverConfig(rank=2, outer_iters=10, tol=0.0, seed=seed)
            _, trace = dense_reference_fit(omega, dims, cfg)
            diffs = np.diff(column(trace, "objective"))
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
            for a, b in zip(column(trace, "objective"), column(dtrace, "objective")):
                assert a == pytest.approx(b, abs=1e-5)


class TestPredictTopk:
    def _one_hot_model(self):
        # exact factorization of a one-hot X of rank <= 2
        dims = ProblemDims(4, 2, 3)
        omega = CandidateSets.from_blocks([
            (0, 0, [2]), (1, 0, [2]), (2, 0, [1]), (3, 1, [0]),
        ])
        x = BlockSparseMatrix(dims, omega, np.ones(4))
        return exact_model(dims, to_dense(x)), omega, x

    def test_zero_scores_tie_rule(self):
        model = zero_model(ProblemDims(2, 2, 5))
        assert predict_topk(model, 0, 1, 3).tolist() == [0, 1, 2]

    def test_one_hot_recovery(self):
        model, omega, x = self._one_hot_model()
        for (i, j), cats in block_items(omega):
            assert predict_topk(model, i, j, 1)[0] == cats[0]

    def test_restrict_singleton(self):
        model, _, _ = self._one_hot_model()
        assert predict_topk(model, 0, 0, 1, restrict=[1])[0] == 1

    def test_restrict_validated(self):
        model, _, _ = self._one_hot_model()
        for bad in ([5], [3], [-1], [0, 2**64]):  # C = 3
            with pytest.raises(ValueError, match=rf"category index {max(bad, key=abs)} out of "
                                                 r"range \[0, 3\)"):
                predict_topk(model, 0, 0, 1, restrict=bad)
        with pytest.raises(ValueError):
            predict_topk(model, 0, 0, 1, restrict=[])
        # a float or a bool is not truncated or read as 0 or 1, but named
        for bad in (2.9, 1.0, np.float64(2.0), True, np.True_, "1", None):
            with pytest.raises(ValueError, match=re.escape(f"restrict entry {bad!r} is not")):
                predict_topk(model, 0, 0, 1, restrict=[0, bad])
        # integers of any integer type are taken
        for good in ([np.uint8(2), 0], np.array([2, 0], dtype=np.int16), range(3)):
            assert predict_topk(model, 0, 0, 1, restrict=good).tolist() == [2]

    def test_k_bounds(self):
        model, _, _ = self._one_hot_model()
        with pytest.raises(ValueError):
            predict_topk(model, 0, 0, 0)
        with pytest.raises(ValueError):
            predict_topk(model, 0, 0, 4)  # C = 3
        for bad in (2.5, True):  # once a TypeError from a slice, and top-1
            with pytest.raises(ValueError, match=re.escape(f"k_top {bad!r} is not an integer")):
                predict_topk(model, 0, 0, bad)

    def test_descending_scores(self):
        rng = np.random.default_rng(13)
        models = []
        for dims in (ProblemDims(6, 3, 5), ProblemDims(20, 3, 5)):  # N < T*C, N > T*C
            models += [random_model(rng, dims, 2), zero_model(dims)]
        for model in models:
            y = dense_completion(model)
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
        # a float or a bool user or slot is named, not an IndexError
        for bad in (2.5, 1.0, True, np.float64(0.0), "1", None):
            with pytest.raises(ValueError, match=re.escape(f"user index {bad!r} is not")):
                predict_topk(model, bad, 0, 1)
            with pytest.raises(ValueError, match=re.escape(f"slot index {bad!r} is not")):
                predict_topk(model, 0, bad, 1)
        assert predict_topk(model, np.int64(0), np.uint8(0), 1).tolist() == [2]


def multi_chunk_instance(seed, n=5000, t=8, c=6):
    """Every (user, slot) with 1..c random categories: |Omega| ~ 140k, which
    spans several chunks of the support pass."""
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


def shrink_linalg_chunks(monkeypatch):
    """Cut the sparse products into 4096-entry row chunks, the QR panel
    products and Grams into 32-row blocks (128-row chunks) at rank 4, and
    the long dot products, the support pass's included, into 1000-entry
    blocks."""
    monkeypatch.setattr(linalg, "_SPMM_CHUNK", 1 << 12)
    monkeypatch.setattr(parallel, "GEMM_SERIAL", 1 << 9)
    monkeypatch.setattr(core, "DOT_SERIAL", 1000)  # the name dot_blocks reads


def assert_fit_bytes_independent_of_cpu_count(monkeypatch, omega, dims):
    """One and eight usable CPUs give the same fit bytes, with every threaded
    kernel, the sparse products, QR panels, Grams and the support pass
    included, run in several chunks, and the fit builds at most one pool per
    worker count."""
    cfg = SolverConfig(rank=4, outer_iters=3, power_iters=2, tol=0.0, seed=9)
    shrink_linalg_chunks(monkeypatch)
    pools, linalg_chunks, block_chunks, pass_chunks = [], [], [], []

    class RecordingPool(parallel.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(parallel, "_pools", {})  # no pool left from an earlier test

    def recording(owner, counts):
        run_chunks = owner.run_chunks

        def recording_run_chunks(work, bounds):
            counts.append(len(bounds) - 1)
            run_chunks(work, bounds)

        monkeypatch.setattr(owner, "run_chunks", recording_run_chunks)

    recording(linalg, linalg_chunks)  # the sparse products
    recording(parallel, block_chunks)  # row blocks of panels and Grams
    recording(solver, pass_chunks)  # the support pass

    def fit_bytes(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        x, model, trace = fit(omega, dims, cfg)
        return (x.values.tobytes(), model.q.tobytes(), model.c.tobytes(),
                column(trace, "objective"), column(trace, "x_delta"))

    try:
        one_cpu = fit_bytes(1)
        assert pools == []  # one usable CPU: every chunk ran inline
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            eight_cpus = fit_bytes(8)  # more workers than this machine has cores
            again = fit_bytes(8)
        finally:
            sys.setswitchinterval(interval)
    finally:
        for pool in parallel._pools.values():
            pool.shutdown()
    assert one_cpu == eight_cpus == again
    # one long-lived pool of 8 workers served both 8-CPU fits
    assert pools == [8]
    # the sparse products ran split, in one chunk count
    assert len(set(linalg_chunks)) == 1 and min(linalg_chunks) > 1
    # the QR panels and Grams ran split
    panel_chunks = math.ceil(max(dims.n_users, dims.n_cols) / 128)
    assert panel_chunks > 1 and panel_chunks in block_chunks
    # the support pass ran split, in chunks of _PASS_BLOCKS 1000-entry dot blocks
    dot_chunks = math.ceil(math.ceil(omega.total_size / 1000) / solver._PASS_BLOCKS)
    assert dot_chunks > 1 and set(pass_chunks) == {dot_chunks}


def run_with_blas_threads(code, threads):
    """stdout of ``python -c code`` with nutf from this checkout and BLAS on ``threads``."""
    src = str(Path(nutf.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=300).stdout


class TestThreadedKernels:
    def test_fit_bytes_independent_of_cpu_count(self, monkeypatch):
        omega, dims = multi_chunk_instance(5)
        assert not dims.transposed
        assert_fit_bytes_independent_of_cpu_count(monkeypatch, omega, dims)

    def test_fit_bytes_independent_of_cpu_count_transposed(self, monkeypatch):
        omega, dims = multi_chunk_instance(5, n=300, t=60, c=8)
        assert dims.transposed
        assert_fit_bytes_independent_of_cpu_count(monkeypatch, omega, dims)

    def test_fit_bytes_independent_of_blas_threads(self):
        """X, Q and C, the objectives and the x_deltas are the same with BLAS on
        one thread and on two. Q has 20k rows, past the one-chunk Gram of 8192
        rows at r = 10, and |Omega| is past the 10,000-entry dot, so the Grams
        and dots take the blocked path; a dot BLAS threads would add its halves
        in another order."""
        code = textwrap.dedent("""
            import hashlib, json
            from nutf import harness, solver
            omega, _, dims = harness.generate(harness.SynthConfig(20_000, 50, 20, seed=3))
            cfg = solver.SolverConfig(rank=10, outer_iters=4, tol=0.0, seed=3)
            x, model, trace = solver.fit(omega, dims, cfg)
            h = hashlib.sha256()
            for a in (x.values, model.q, model.c):
                h.update(a.tobytes())
            print(json.dumps([h.hexdigest(), [r["objective"] for r in trace.records],
                              [r["x_delta"] for r in trace.records],
                              len(model.q), omega.total_size]))
        """)
        one, two = (json.loads(run_with_blas_threads(code, n)) for n in (1, 2))
        assert one[3] > 8192 and one[4] > 10_000
        assert one == two

    def test_kernel_split_covers_the_fit(self, monkeypatch):
        """The kernel keys plus init, as ``nutf fit`` writes them, account for
        at least 95% of its fit_total_s, the wall time of solver.fit."""
        omega, dims = multi_chunk_instance(6)
        shrink_linalg_chunks(monkeypatch)
        cfg = SolverConfig(rank=4, outer_iters=4, power_iters=4, tol=0.0, seed=3)
        t0 = time.perf_counter()
        _, _, trace = fit(omega, dims, cfg)
        fit_total_s = time.perf_counter() - t0
        covered = trace.init_seconds + sum(sum(r["kernels"].values()) for r in trace.records)
        assert 0.95 * fit_total_s <= covered <= fit_total_s
