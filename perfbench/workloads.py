"""The benchmark workloads, their timed chains and output checks.

Each workload is one seeded, single-process batch job. It prepares its
inputs (repeated for ``setup_s``), then repeats its timed chain through
the program's public functions or in-process through ``nutf.cli.main``
for the run's time, checking the outputs of every repetition, and ends
with a closed loop of single ``predict_topk`` queries. README.md says
why each workload was chosen.

Program functions are always looked up through their module at call
time (``solver.fit``, not a local alias) so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np
import scipy.sparse  # noqa: F401 - loaded here so no timed call pays for the import

from nutf import cli, harness, serialize, solver

import city
from tracing import Tracer, layer_metrics

SETUP_REPEATS = 3
PREDICT_QUERIES = 20_000
K = 5
RANK = 10
POWER_ITERS = 8
FEAS_TOL = 1e-9
ORTHO_TOL = 1e-8


class Run:
    """What one benchmark run measured and which checks failed."""

    def __init__(self, seed: int, workdir: Path, statedir: Path, tracer: Tracer | None):
        self.seed = seed
        self.workdir = workdir
        self.statedir = statedir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        # one entry per fit: (wall seconds, its outer-iteration seconds)
        self.fits: list[tuple[float, list[float]]] = []
        # one entry per score_topk call: (pairs, seconds)
        self.scores: list[tuple[int, float]] = []
        self.top1: list[float] = []

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a violated check makes it a failed one."""
        self.fail_some(1, 0 if ok else 1, what)

    def fail_some(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.messages.append(what)

    def untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()


# -- shared steps ----------------------------------------------------------


def timed_fit(run: Run, omega, dims, cfg: solver.SolverConfig):
    """``solver.fit``; iteration times are the gaps between its callbacks."""
    ends: list[float] = []
    t0 = time.perf_counter()
    x, model, _ = solver.fit(omega, dims, cfg,
                             on_iteration=lambda *_: ends.append(time.perf_counter()))
    fit_s = time.perf_counter() - t0
    run.fits.append((fit_s, np.diff([t0] + ends).tolist()))
    return x, model


def timed_score(run: Run, model, pairs) -> float:
    """One ``score_topk`` call, recorded with its pair count; returns top-1."""
    t0 = time.perf_counter()
    report = harness.score_topk(model, pairs, K)
    run.scores.append((len(pairs), time.perf_counter() - t0))
    return report.accuracy_at(1)


def check_fit(run: Run, x, model) -> None:
    """X is block-stochastic and non-negative; Q is orthonormal."""
    sums = np.add.reduceat(x.values, x.support.block_ptr[:-1])
    feasible = bool(x.values.min() >= 0.0 and np.abs(sums - 1.0).max() <= FEAS_TOL)
    gram = model.q.T @ model.q
    ortho = float(np.abs(gram - np.eye(model.rank)).max())
    run.check(feasible and ortho <= ORTHO_TOL,
              f"fit output: feasible={feasible}, |QtQ - I|max={ortho:.3e}")


def check_top1(run: Run, top1: float, bar: float) -> None:
    run.top1.append(top1)
    run.check(top1 >= bar, f"top-1 accuracy {top1:.4f} below {bar:.4f}")


def array_digest(x, model) -> str:
    h = hashlib.sha256()
    for arr in (x.values, model.q, model.c):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def file_digest(base: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update((base / name).read_bytes())
    return h.hexdigest()


def run_cli(run: Run, argv: list) -> str:
    """``nutf <argv>`` in-process; a non-zero exit counts as a failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    run.check(code == 0, f"nutf {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def predict_loop(run: Run, model) -> list[float]:
    """Closed loop, one client: seeded single queries, each timed alone."""
    dims = model.dims
    rng = np.random.default_rng([run.seed, 0x9E7])
    users = rng.integers(0, dims.n_users, PREDICT_QUERIES).tolist()
    slots = rng.integers(0, dims.n_slots, PREDICT_QUERIES).tolist()
    top = np.empty((PREDICT_QUERIES, K), dtype=np.int64)
    latency = [0.0] * PREDICT_QUERIES
    clock = time.perf_counter
    for q in range(PREDICT_QUERIES):
        t0 = clock()
        top[q] = solver.predict_topk(model, users[q], slots[q], K)
        latency[q] = clock() - t0
    srt = np.sort(top, axis=1)
    valid = ((srt[:, 0] >= 0) & (srt[:, -1] < dims.n_categories)
             & np.all(np.diff(srt, axis=1) > 0, axis=1))
    bad = np.nonzero(~valid)[0]
    run.fail_some(PREDICT_QUERIES, len(bad), "predict_topk returned an invalid top-k for "
                  f"{len(bad)} queries, e.g. {top[bad[:1]].tolist()}")
    return latency


# -- workloads -------------------------------------------------------------


class Fit100k:
    """Normal orientation at the baseline scale: the solver dominates."""

    synth = dict(n_users=100_000, n_slots=100, n_categories=50, n_classes=10,
                 slot_density=0.2, candidates_per_update=4)
    top1_bar = 1.0
    min_reps = 2
    # the truth pairs are scored in slices, each call timed on its own
    score_slice = 25_000

    def prepare(self, run: Run):
        omega, truth, dims = harness.generate(harness.SynthConfig(**self.synth, seed=run.seed))
        pairs = truth.pairs()
        return omega, dims, [pairs[i:i + self.score_slice]
                             for i in range(0, len(pairs), self.score_slice)]

    def chain(self, run: Run, inputs, rep: int):
        omega, dims, slices = inputs
        # The default tol stops after 4 to 6 iterations depending on the seed,
        # which alone would spread fit_s by half across seeds; run a fixed count.
        cfg = solver.SolverConfig(rank=RANK, power_iters=POWER_ITERS, outer_iters=4,
                                  tol=0.0, seed=run.seed)
        x, model = timed_fit(run, omega, dims, cfg)
        hits = sum(timed_score(run, model, pairs) * len(pairs) for pairs in slices)
        return x, model, hits / sum(map(len, slices))

    def finish(self, run: Run, inputs, out):
        x, model, top1 = out
        check_fit(run, x, model)
        check_top1(run, top1, self.top1_bar)
        return model, array_digest(x, model)


class IngestCity:
    """Raw CSV updates through preprocess, fit and eval via ``nutf.cli.main``."""

    # outputs that must be byte-identical for one seed, relative to a repetition's directory
    outputs = ("omega/omega.jsonl", "fit/model.nutf", "fit/x.nutf", "fit/trace.jsonl")
    spec = city.CitySpec()
    top1_bar = 10 / spec.n_categories
    min_reps = 3
    # a fixed iteration count keeps fit_s comparable across seeds
    fit_iters = 50
    # score_topk calls on the planted visits after each repetition, outside its chain
    score_calls = 100

    def prepare(self, run: Run):
        data = run.workdir / "city"
        planted = city.write_city(data, run.seed, self.spec)
        pairs = [(u, j, k) for (u, j), k in planted.truth.items()]
        serialize.write_pairs_jsonl(data / "truth.jsonl", pairs)
        return data, planted, pairs

    def chain(self, run: Run, inputs, rep: int):
        data = inputs[0]
        rep_dir = run.workdir / f"rep{rep}"
        omega, fit = rep_dir / "omega", rep_dir / "fit"
        run_cli(run, ["preprocess", "--updates", data / "updates.csv",
                      "--venues", data / "venues.csv", "--catmap", data / "categories.csv",
                      "--slot-mode", "daypart", "--epoch-day", city.EPOCH_DAY,
                      "--min-dwell-min", 20, "--out", omega])
        run_cli(run, ["fit", "--omega", omega, "--rank", RANK, "--power-iters", POWER_ITERS,
                      "--iters", self.fit_iters, "--tol", 0, "--seed", run.seed,
                      "--deterministic", "--out", fit])
        return rep_dir, run_cli(run, ["eval", "--model", fit / "model.nutf",
                                      "--validation", data / "truth.jsonl", "--k", K])

    def finish(self, run: Run, inputs, out):
        _, planted, pairs = inputs
        rep_dir, eval_out = out
        blocks = [json.loads(line) for line in
                  (rep_dir / "omega" / "omega.jsonl").read_text(encoding="utf-8").splitlines()]
        missing = sum(planted.truth.get((b["u"], b["j"])) not in b["cats"] for b in blocks)
        expected = self.spec.n_updates - self.spec.n_users
        run.check(len(blocks) == expected and missing == 0,
                  f"preprocess kept {len(blocks)} blocks (expected {expected}); "
                  f"{missing} lack their planted category")

        # fit_s and iteration times as the CLI's fit recorded them
        fit_dir = rep_dir / "fit"
        timings = json.loads((fit_dir / "timings.json").read_text(encoding="utf-8"))
        run.fits.append((timings["fit_total_s"], timings["per_iteration_s"]))
        with run.untraced():
            model = serialize.load_model(fit_dir / "model.nutf")
            x = serialize.load_block_sparse(fit_dir / "x.nutf")
        check_fit(run, x, model)
        eval_top1 = json.loads(eval_out.strip().splitlines()[-1])["accuracy_at_k"]["1"]
        top1 = [timed_score(run, model, pairs) for _ in range(self.score_calls)]
        run.check(set(top1) == {eval_top1},
                  f"score_topk top-1 {sorted(set(top1))} differs from eval's {eval_top1}")
        check_top1(run, top1[0], self.top1_bar)
        return model, file_digest(rep_dir, self.outputs)


WORKLOADS = {
    "fit-100k": Fit100k,
    "ingest-city": IngestCity,
}


# -- one run ---------------------------------------------------------------


def check_reproducible(run: Run, name: str, digests: list[str]) -> None:
    """Outputs agree across this run's repetitions (traced and untraced)
    and with every earlier run of the same workload at the same seed."""
    if len(digests) > 1:
        run.check(len(set(digests)) == 1, f"outputs differ between repetitions: {digests}")
    record = run.statedir / "digests" / f"{name}-seed{run.seed}.txt"
    if record.exists():
        before = record.read_text(encoding="ascii").strip()
        run.check(before == digests[0],
                  f"outputs differ from an earlier run at seed {run.seed}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(digests[0] + "\n", encoding="ascii")
        os.replace(tmp, record)


def run_workload(name: str, seed: int, seconds: float, trace: bool, t_start: float,
                 workdir: Path, statedir: Path, units: dict[str, str]) -> dict:
    """One run; ``units`` maps every metric the run must report to its unit."""
    import_s = time.perf_counter() - t_start
    wl = WORKLOADS[name]()
    tracer = Tracer() if trace else None
    run = Run(seed, workdir, statedir, tracer)
    if tracer:
        tracer.install()

    prepare_s = []
    inputs = None
    for _ in range(1 if trace else SETUP_REPEATS):
        inputs = None  # drop the previous copy before building the next
        t0 = time.perf_counter()
        inputs = wl.prepare(run)
        prepare_s.append(time.perf_counter() - t0)

    chain_s: list[float] = []
    # chain plus output checks, to decide whether another repetition fits
    rep_s: list[float] = []
    digests: list[str] = []
    model = None

    def repetition(rep: int) -> None:
        nonlocal model
        t0 = time.perf_counter()
        out = wl.chain(run, inputs, rep)
        chain_s.append(time.perf_counter() - t0)
        model, digest = wl.finish(run, inputs, out)
        digests.append(digest)
        rep_s.append(time.perf_counter() - t0)

    if trace:
        # the same chain untraced first, as the reference for the overhead
        with tracer.paused():
            repetition(0)
        untraced_fit = run.fits[-1][0]
        repetition(1)
    else:
        t_first = time.perf_counter()
        while (len(chain_s) < wl.min_reps
               or time.perf_counter() - t_first + statistics.median(rep_s) <= seconds):
            repetition(len(chain_s))

    latency = predict_loop(run, model)
    check_reproducible(run, name, digests)

    if trace:
        tracer.uninstall()
        tracer.dump(statedir / "spans" / f"{name}-seed{seed}.jsonl")
        metrics = layer_metrics(tracer)
        metrics["bench.trace_overhead_pipeline"] = chain_s[1] / chain_s[0]
        metrics["bench.trace_overhead_fit"] = run.fits[-1][0] / untraced_fit
    else:
        metrics = {
            "setup_s": import_s + statistics.median(prepare_s),
            "fit_s": statistics.median(fit_s for fit_s, _ in run.fits),
            "iter_s.p50": statistics.median(t for _, iters in run.fits for t in iters),
            "pipeline_s": statistics.median(chain_s),
            "score_pairs_per_s": sum(n for n, _ in run.scores) / sum(s for _, s in run.scores),
            "top1_acc": statistics.median(run.top1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        lat_us = np.percentile(np.asarray(latency) * 1e6, [50, 99])
        print(f"samples: setup {len(prepare_s)}, fits {len(run.fits)}, "
              f"pipeline {len(chain_s)}, score calls {len(run.scores)}, "
              f"predict queries {len(latency)}")
        # printed only: single-query percentiles are bimodal across runs on a
        # host whose speed switches between regimes (README.md)
        print(f"predict_topk latency: p50 {lat_us[0]:.2f} us, p99 {lat_us[1]:.2f} us")
    for what in run.messages[:20]:
        print(f"check failed: {what}")
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {metrics.keys() ^ units.keys()}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }

