"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavyweight
criteria (1 and 2) generate hundreds of thousands to millions of
observations; the whole module finishes in a few minutes on two cores.
"""

import time

import numpy as np

from nutf.core import BlockSparseMatrix, CandidateSets, ProblemDims
from nutf.harness import SynthConfig, generate, score_topk
from nutf.ingest import SlotScheme, candidate_venues, haversine_m, slot_of
from nutf.linalg import sparse_lowrank_approx
from nutf.simplex import project_blocks
from nutf.solver import SolverConfig, fit

from conftest import (Venue, block_sum_error, column, dense_completion, dense_reference_fit,
                      full_support, mask_validation, venue_columns)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


class checked:
    """Prints the criterion verdict even when the body assertion fails."""

    def __init__(self, criterion: int, detail_fn):
        self.criterion = criterion
        self.detail_fn = detail_fn

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        report(self.criterion, exc_type is None, self.detail_fn())
        return False


def test_criterion_1_synthetic_perfect_recovery():
    """10,000 users x 100 slots x 50 categories, 10 lifestyle classes,
    20% slot density, 4 candidates: rank-10 fit recovers every true
    category exactly (top-1 accuracy 100%)."""
    state = {}

    def detail():
        return (f"top-1 accuracy {state.get('acc', float('nan')):.4%} "
                f"(need exactly 100%), fit {state.get('secs', float('nan')):.1f}s "
                f"(< 60s), {state.get('iters', '?')} iterations")

    with checked(1, detail):
        cfg = SynthConfig(
            n_users=10_000, n_slots=100, n_categories=50, n_classes=10,
            slot_density=0.2, candidates_per_update=4, seed=20_260_809,
        )
        omega, truth, dims = generate(cfg)
        t0 = time.perf_counter()
        x, model, trace = fit(
            omega, dims,
            SolverConfig(rank=10, outer_iters=20, power_iters=8, seed=42),
        )
        state["secs"] = time.perf_counter() - t0
        state["iters"] = len(trace.records)
        rep = score_topk(model, truth.pairs(), 1)
        state["acc"] = rep.accuracy_at(1)
        assert len(trace.records) <= 20
        assert state["acc"] == 1.0
        assert state["secs"] < 60.0


def test_criterion_2_near_linear_scaling():
    """Doubling users 50K -> 100K (T=100, C=50, r=10, m=8) scales the
    per-iteration wall time by a factor inside [1.4, 2.6]."""
    state = {}

    def detail():
        return (f"per-iteration medians {state.get('t1', 0):.3f}s -> "
                f"{state.get('t2', 0):.3f}s, ratio {state.get('ratio', float('nan')):.2f} "
                f"(need within [1.4, 2.6])")

    def instance(n_users: int):
        omega, _, dims = generate(SynthConfig(
            n_users=n_users, n_slots=100, n_categories=50, n_classes=10,
            slot_density=0.2, candidates_per_update=4, seed=3,
        ))
        return omega, dims

    # one timed iteration per fit, alternating between the two scales, so
    # a change in host load during the run lands on both sides of the ratio
    cfg = SolverConfig(rank=10, outer_iters=1, power_iters=8, tol=0.0, seed=3)
    with checked(2, detail):
        scales = [instance(50_000), instance(100_000)]
        for omega, dims in scales:
            fit(omega, dims, cfg)  # warmup
        seconds = [[], []]
        for _ in range(5):
            for timed, (omega, dims) in zip(seconds, scales):
                timed += column(fit(omega, dims, cfg)[2], "seconds")
        state["t1"], state["t2"] = (float(np.median(timed)) for timed in seconds)
        state["ratio"] = state["t2"] / state["t1"]
        assert 1.4 <= state["ratio"] <= 2.6


def _pinned_instance(seed: int):
    """Small class-structured instance, mostly forced singleton blocks."""
    g = np.random.default_rng(seed)
    n = int(g.integers(15, 40))
    t = int(g.integers(6, 12))
    c = int(g.integers(5, 10))
    while n * t * c > 10_000:
        n -= 3
    classes = int(g.integers(2, 5))
    schedule = g.integers(0, c, size=(classes, t))
    ucls = g.integers(0, classes, size=n)
    blocks = []
    for i in range(n):
        for j in range(t):
            if g.random() >= 0.5:
                continue
            true = int(schedule[ucls[i], j])
            if g.random() < 0.7:
                blocks.append((i, j, [true]))
            else:
                decoys = g.choice(
                    np.setdiff1d(np.arange(c), [true]), size=min(3, c - 1), replace=False
                )
                blocks.append((i, j, sorted({true, *map(int, decoys)})))
    return CandidateSets.from_blocks(blocks), ProblemDims(n, t, c), classes


def test_criterion_3_randomized_matches_exact_oracle():
    """On 50 instances with N*T*C <= 1e4, the m=50 randomized solve ends
    within 1e-4 relative of the dense exact-SVD reference."""
    state = {"worst": 0.0, "count": 0}

    def detail():
        return (f"{state['count']} instances, worst relative objective gap "
                f"{state['worst']:.3e} (need <= 1e-4)")

    with checked(3, detail):
        for trial in range(50):
            seed = 5000 + trial
            omega, dims, classes = _pinned_instance(seed)
            assert dims.n_users * dims.n_slots * dims.n_categories <= 10_000
            cfg = SolverConfig(rank=classes, outer_iters=8, power_iters=50,
                               tol=0.0, seed=seed)
            _, _, trace = fit(omega, dims, cfg)
            _, dtrace = dense_reference_fit(omega, dims, cfg)
            a, b = trace.records[-1]["objective"], dtrace.records[-1]["objective"]
            rel = abs(a - b) / max(b, np.finfo(np.float64).tiny)
            state["worst"] = max(state["worst"], rel)
            state["count"] += 1
            assert rel <= 1e-4, f"instance seed {seed}: relative gap {rel:.3e}"


def _dykstra_batch(vectors: np.ndarray, iters: int = 20_000) -> np.ndarray:
    """Projected-gradient style oracle: alternating projections between the
    sum-to-one hyperplane and the non-negative orthant with Dykstra
    corrections, vectorized over rows. Independent of the sort-based path."""
    x = vectors.copy()
    d = x.shape[1]
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(iters):
        y = x + p
        y -= (y.sum(axis=1, keepdims=True) - 1.0) / d
        p = (x + p) - y
        x_new = np.maximum(y + q, 0.0)
        q = (y + q) - x_new
        if np.max(np.abs(x_new - x)) < 1e-15:
            return x_new
        x = x_new
    return x


def test_criterion_4_simplex_projection_optimality():
    """1000 random vectors with d in [1, 6], each projected as one block by
    the solver's ``project_blocks``: within 1e-6 of the alternating-
    projection oracle; idempotence exact; shift invariance within 1e-12."""
    state = {"worst": 0.0, "worst_shift": 0.0}

    def detail():
        return (f"worst oracle distance {state['worst']:.3e} (<= 1e-6), "
                f"idempotence bitwise on 1000/1000, "
                f"worst shift deviation {state['worst_shift']:.3e} (<= 1e-12)")

    with checked(4, detail):
        rng = np.random.default_rng(99)
        vectors_by_d: dict[int, list[np.ndarray]] = {}
        for _ in range(1000):
            d = int(rng.integers(1, 7))
            vectors_by_d.setdefault(d, []).append(rng.uniform(-3.0, 3.0, size=d))
        for d, vecs in sorted(vectors_by_d.items()):
            batch = np.vstack(vecs)
            oracle = _dykstra_batch(batch)
            one_block = np.array([0, d])
            for row in range(batch.shape[0]):
                v = batch[row]
                u = project_blocks(v, one_block)
                state["worst"] = max(
                    state["worst"], float(np.linalg.norm(u - oracle[row]))
                )
                again = project_blocks(u, one_block)
                assert np.array_equal(u, again), "idempotence violated"
                shift = rng.uniform(-10, 10)
                u_shift = project_blocks(v + shift, one_block)
                state["worst_shift"] = max(
                    state["worst_shift"], float(np.abs(u - u_shift).max())
                )
        assert state["worst"] <= 1e-6
        assert state["worst_shift"] <= 1e-12


def test_criterion_5_lowrank_approximation_optimality():
    """Random 20x30 instances (rank-5 structure + noise), r=5, m=20:
    residual within 1e-6 of the truncated-SVD optimum, Q orthonormal to
    1e-8."""
    state = {"worst_res": 0.0, "worst_q": 0.0}

    def detail():
        return (f"worst residual excess {state['worst_res']:.3e} (<= 1e-6), "
                f"worst orthonormality error {state['worst_q']:.3e} (<= 1e-8)")

    with checked(5, detail):
        dims = ProblemDims(20, 6, 5)
        omega = full_support(20, 6, 5)
        for trial in range(25):
            rng = np.random.default_rng(9000 + trial)
            dense = (rng.random((20, 5)) @ rng.random((5, 30))
                     + 0.01 * rng.random((20, 30)))
            x = BlockSparseMatrix(dims, omega, dense.ravel())
            model, *_ = sparse_lowrank_approx(
                x, SolverConfig(rank=5, power_iters=20, seed=trial)
            )
            res = float(np.linalg.norm(dense - dense_completion(model)))
            s = np.linalg.svd(dense, compute_uv=False)
            res_opt = float(np.sqrt((s[5:] ** 2).sum()))
            state["worst_res"] = max(state["worst_res"], res - res_opt)
            state["worst_q"] = max(state["worst_q"], model.orthonormality_error())
        assert state["worst_res"] <= 1e-6
        assert state["worst_q"] <= 1e-8


def test_criterion_6_nu_feasibility_every_iteration():
    """After every outer iteration on a battery of instances, X is zero
    off support by representation, non-negative, and block-stochastic to
    1e-9."""
    state = {"audits": 0, "worst_sum": 0.0, "min_val": 0.0}

    def detail():
        return (f"{state['audits']} iteration audits, worst block-sum error "
                f"{state['worst_sum']:.2e} (<= 1e-9), min value {state['min_val']:.2e}"
                f" (>= 0), off-support entries never materialized")

    with checked(6, detail):
        instances = []
        for seed in (0, 1, 2):
            omega, dims, classes = _pinned_instance(7000 + seed)
            instances.append((omega, dims, SolverConfig(rank=classes, outer_iters=10,
                                                        tol=0.0, seed=seed)))
        synth = SynthConfig(500, 40, 20, n_classes=5, slot_density=0.25,
                            candidates_per_update=4, seed=8)
        omega, truth, dims = generate(synth)
        masked, _ = mask_validation(omega, truth, 0.1, dims, seed=9)
        instances.append((masked, dims, SolverConfig(rank=5, outer_iters=10,
                                                     tol=0.0, seed=10)))

        def audit(it, x, model, obj):
            state["audits"] += 1
            state["worst_sum"] = max(state["worst_sum"], block_sum_error(x))
            state["min_val"] = min(state["min_val"], float(x.values.min()))
            # off-support zero by representation: only |Omega| values exist
            assert x.values.shape == (x.support.total_size,)

        for omega_i, dims_i, cfg_i in instances:
            fit(omega_i, dims_i, cfg_i, on_iteration=audit)
        assert state["audits"] == 40
        assert state["worst_sum"] <= 1e-9
        assert state["min_val"] >= 0.0


def test_criterion_7_ingestion_oracle():
    """The batched venue query equals brute force on a
    1000-update / 500-venue fixture; the daypart bins partition all 1440
    minutes of a day with the documented non-uniform edges."""
    state = {}

    def detail():
        return (f"{state.get('checked', 0)} queries identical to brute force; "
                f"bin histogram {state.get('bins', [])} over 1440 minutes")

    with checked(7, detail):
        rng = np.random.default_rng(77)
        venues = [
            Venue(
                f"v{i}", "c",
                float(40.0 + rng.uniform(-0.08, 0.08)),
                float(-73.5 + rng.uniform(-0.08, 0.08)),
                float(rng.uniform(5.0, 150.0)),
            )
            for i in range(500)
        ]
        lat = 40.0 + rng.uniform(-0.1, 0.1, 1000)
        lon = -73.5 + rng.uniform(-0.1, 0.1, 1000)
        err = rng.uniform(0.0, 1200.0, 1000)
        pairs = candidate_venues(lat, lon, err, venue_columns(venues))
        state["checked"] = 0
        for k in range(1000):
            brute = [
                i for i, v in enumerate(venues)
                if haversine_m(lat[k], lon[k], v.lat, v.lon) <= err[k] + v.radius_m
            ]
            assert pairs[pairs[:, 0] == k, 1].tolist() == brute
            state["checked"] += 1

        import datetime as dt

        scheme = SlotScheme(mode="daypart", epoch_day=dt.date(1970, 1, 1))
        # minute-level sweep of one full local day (day 1 avoids the window
        # edge at hour 0 of the epoch day)
        binned = [slot_of(float(86400 + m * 60), 0, scheme) % 10 for m in range(1440)]
        counts = np.bincount(binned, minlength=10)
        state["bins"] = counts.tolist()
        # edges: 1-7 then every two hours; the straddle bin gets
        # 23:00-24:00 plus 00:00-01:00
        assert counts.tolist() == [360, 120, 120, 120, 120, 120, 120, 120, 120, 120]
        for hour, expect in [(1.5, 0), (8.25, 1), (9.0, 2), (22.5, 8), (23.0, 9)]:
            assert slot_of(86400 + hour * 3600, 0, scheme) % 10 == expect
        # 00:30 of day 2 shares day 1's last bin
        assert slot_of(2 * 86400 + 1800, 0, scheme) == 19


def test_criterion_8_masked_completion():
    """With 10% of observations widened to all-C candidate sets, top-1
    accuracy on the hidden pairs stays >= 90% and beats the 1/C random
    baseline by at least 10x."""
    state = {}

    def detail():
        return (f"masked top-1 accuracy {state.get('acc', float('nan')):.4f} "
                f"(need >= 0.90 and >= {state.get('bar', float('nan')):.3f} "
                f"= 10x random baseline)")

    with checked(8, detail):
        cfg = SynthConfig(
            n_users=3000, n_slots=60, n_categories=30, n_classes=10,
            slot_density=0.3, candidates_per_update=4, seed=13,
        )
        omega, truth, dims = generate(cfg)
        masked, validation = mask_validation(omega, truth, 0.10, dims, seed=14)
        x, model, trace = fit(
            masked, dims, SolverConfig(rank=10, outer_iters=30, power_iters=8, seed=15)
        )
        rep = score_topk(model, validation, 1)
        state["acc"] = rep.accuracy_at(1)
        state["bar"] = 10.0 / dims.n_categories
        assert state["acc"] >= 0.90
        assert state["acc"] >= state["bar"]
