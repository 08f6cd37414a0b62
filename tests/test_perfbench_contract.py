"""The names and arguments the traced benchmark relies on.

``perfbench/tracing.py`` wraps program functions by name and reads the
solver's config from the low-rank call's arguments. Building its
``Tracer`` looks every wrapped name up, so a renamed or deleted function
fails here rather than in a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from nutf import harness, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_traced_fit_reports_solver_shape(tracing):
    omega, _, dims = harness.generate(
        harness.SynthConfig(n_users=300, n_slots=10, n_categories=6, n_classes=3, seed=1)
    )
    cfg = solver.SolverConfig(rank=3, power_iters=2, outer_iters=2, tol=0.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        solver.fit(omega, dims, cfg)
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer)
    assert m["solver.rank"] == 3
    assert m["solver.power_iters"] == 2
    assert m["solver.outer_iters"] == 2
    # iteration 1: one QR after the sketch and one per power iteration (1 + 2);
    # iteration 2 starts from iteration 1's basis, with no sketch, and on this
    # instance runs all 2 passes its cap allows before the basis settles
    assert m["linalg.reduced_qr_calls"] == 5
    # Y, its projection and the objective run inside the support pass, whose
    # pool threads call no wrapped name, so their spans read 0 on a fit
    assert m["simplex.entries_projected"] == 0
    assert m["core.model_support_values_s"] == m["core.frobenius_gap_s"] == 0.0
