"""Pass-through span wrappers for the traced benchmark run.

The wrappers are installed from the benchmark's own files, under the
name each caller looks up at call time (``nutf.solver.project_blocks``
for the solver's call into the simplex layer, ``nutf.linalg.reduced_qr``
for the linear-algebra layer's own call, and so on); the program's
source is not edited. Each span keeps its name, start, end and parent in
memory until the run ends. Calls too frequent to span individually
(``haversine_m``, ``candidate_venues``) are only counted.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import nutf.cli
import nutf.core
import nutf.harness
import nutf.ingest
import nutf.linalg
import nutf.serialize
import nutf.solver

_SERIALIZE_WRITERS = (
    "write_candidate_sets_jsonl", "write_pairs_jsonl", "save_model",
    "save_block_sparse", "write_index_maps", "write_trace_jsonl",
)
_SERIALIZE_READERS = (
    "read_candidate_sets_jsonl", "read_pairs_jsonl", "load_model",
    "load_block_sparse", "read_index_maps",
)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Records spans and counts at the program's layer boundaries."""

    def __init__(self):
        # one [name, start, end, parent index, attrs] per completed or open call
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._installed = False

        def spmm_units(args, kwargs, result):
            x, cfg = args[0], args[1]
            return {"omega": x.support.total_size, "rank": cfg.rank,
                    "power_iters": cfg.power_iters}

        def entries(args, kwargs, result):
            return {"entries": len(args[0])}

        def pairs(args, kwargs, result):
            return {"pairs": len(args[1])}

        def blocks(args, kwargs, result):
            return {"blocks": result.omega.n_blocks}

        def rows(args, kwargs, result):
            return {"rows": len(result)}

        def written(args, kwargs, result):
            return {"bytes_written": _file_size(args[0])}

        def read(args, kwargs, result):
            return {"bytes_read": _file_size(args[0])}

        self._span("cli.main", nutf.cli, "main")
        self._span("solver.fit", nutf.solver, "fit")
        self._span("solver.predict_topk", nutf.solver, "predict_topk")
        self._span("linalg.sparse_lowrank_approx", nutf.solver,
                   "sparse_lowrank_approx", spmm_units)
        self._span("linalg.reduced_qr", nutf.linalg, "reduced_qr")
        self._span("core.model_support_values", nutf.linalg, "model_support_values")
        self._span("core.frobenius_gap", nutf.solver, "frobenius_gap")
        self._span("core.csr_structure", nutf.core.CandidateSets, "csr_structure")
        self._span("simplex.project_blocks", nutf.solver, "project_blocks", entries)
        self._span("harness.generate", nutf.harness, "generate")
        self._span("harness.pairs", nutf.harness.GroundTruth, "pairs")
        self._span("harness.score_topk", nutf.harness, "score_topk", pairs)
        for fn in _SERIALIZE_WRITERS:
            self._span(f"serialize.{fn}", nutf.serialize, fn, written)
        for fn in _SERIALIZE_READERS:
            self._span(f"serialize.{fn}", nutf.serialize, fn, read)
        for fn in ("read_updates_csv", "read_venues_csv", "read_category_map_csv"):
            self._span(f"ingest.{fn}", nutf.ingest, fn, rows)
        self._span("ingest.build_candidate_sets", nutf.ingest, "build_candidate_sets", blocks)
        self._count("ingest.haversine_calls", nutf.ingest, "haversine_m")
        self._count("ingest.candidate_venues", nutf.ingest, "candidate_venues",
                    lambda result: len(result))

    # -- wrappers ---------------------------------------------------------

    def _patch(self, owner, attr, make_wrapper) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original, make_wrapper(original)))

    def _span(self, name, owner, attr, attrs_of=None) -> None:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append([name, clock(), None, stack[-1] if stack else -1, None])
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = clock()
                if attrs_of is not None:
                    spans[idx][4] = attrs_of(args, kwargs, result)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        self._patch(owner, attr, make)

    def _count(self, name, owner, attr, hits_of=None) -> None:
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if hits_of is not None:
                    counts[name + ".hits"] += hits_of(result)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> None:
        if not self._installed:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)
            self._installed = False

    @contextmanager
    def paused(self):
        """Run a block with the original functions in place."""
        was_installed = self._installed
        self.uninstall()
        try:
            yield
        finally:
            if was_installed:
                self.install()

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, attrs."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}) + "\n")


def l3_bytes() -> int:
    """Size of the level-3 cache from sysfs, or 0 when it cannot be read."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
                return int(size.rstrip("KMG")) * scale
    except (OSError, ValueError):
        pass
    return 0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer busy times, counts and computed cost-model figures.

    A span's self time is its duration minus its direct children's;
    children of one call never overlap because the run is single-threaded.
    Layers the workload never calls report 0.
    """
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    children: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    attr_sum: Counter = Counter()
    child_sum = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child_sum[parent] += end - start
    spmm_units = 0
    last_solve: dict = {}
    predict_us = []
    for idx, (name, start, end, _, attrs) in enumerate(tracer.spans):
        dur = end - start
        total[name] += dur
        self_time[name] += dur - child_sum[idx]
        children[name] += child_sum[idx]
        calls[name] += 1
        if attrs:
            attr_sum.update(attrs)
        if name == "linalg.sparse_lowrank_approx":
            spmm_units += attrs["omega"] * attrs["rank"] * (2 * attrs["power_iters"] + 2)
            last_solve = attrs
        elif name == "solver.predict_topk":
            predict_us.append(dur * 1e6)

    def ratio(num, den):
        return num / den if den else 0.0

    omega = last_solve.get("omega", 0)
    # entry column indices, entry row indices and values: 8 bytes each per entry
    support_bytes = 3 * 8 * omega
    l3 = l3_bytes()
    haversine = tracer.counts["ingest.haversine_calls"]
    m = {
        "linalg.sparse_lowrank_approx_s": total["linalg.sparse_lowrank_approx"],
        "linalg.spmm_self_s": self_time["linalg.sparse_lowrank_approx"],
        "linalg.reduced_qr_s": total["linalg.reduced_qr"],
        "linalg.reduced_qr_calls": calls["linalg.reduced_qr"],
        "linalg.spmm_flops": 2 * spmm_units,
        "linalg.ns_per_unit": ratio(self_time["linalg.sparse_lowrank_approx"] * 1e9, spmm_units),
        "core.model_support_values_s": total["core.model_support_values"],
        "core.frobenius_gap_s": total["core.frobenius_gap"],
        "core.csr_structure_s": total["core.csr_structure"],
        "core.support_mib_computed": support_bytes / (1 << 20),
        "core.l3_mib": l3 / (1 << 20),
        "core.support_over_l3": ratio(support_bytes, l3),
        "simplex.project_blocks_s": total["simplex.project_blocks"],
        "simplex.entries_projected": attr_sum["entries"],
        "simplex.ns_per_entry": ratio(total["simplex.project_blocks"] * 1e9, attr_sum["entries"]),
        "solver.fit_self_s": self_time["solver.fit"],
        "solver.fit_coverage": ratio(children["solver.fit"], total["solver.fit"]),
        "solver.outer_iters": calls["linalg.sparse_lowrank_approx"],
        "solver.omega_entries": omega,
        "solver.rank": last_solve.get("rank", 0),
        "solver.power_iters": last_solve.get("power_iters", 0),
        "solver.predict_topk_calls": calls["solver.predict_topk"],
        "solver.predict_topk_us.p50": float(np.percentile(predict_us, 50)) if predict_us else 0.0,
        "solver.predict_topk_us.p99": float(np.percentile(predict_us, 99)) if predict_us else 0.0,
        "harness.generate_s": total["harness.generate"],
        "harness.pairs_s": total["harness.pairs"],
        "harness.score_topk_s": total["harness.score_topk"],
        "harness.score_pairs": attr_sum["pairs"],
    }
    for fn in ("write_candidate_sets_jsonl", "read_candidate_sets_jsonl",
               "write_pairs_jsonl", "read_pairs_jsonl", "save_model", "load_model",
               "save_block_sparse"):
        m[f"serialize.{fn}_s"] = total[f"serialize.{fn}"]
    m["serialize.bytes_written"] = attr_sum["bytes_written"]
    m["serialize.bytes_read"] = attr_sum["bytes_read"]
    m.update({
        "ingest.read_updates_csv_s": total["ingest.read_updates_csv"],
        "ingest.read_venues_csv_s": total["ingest.read_venues_csv"],
        "ingest.build_candidate_sets_s": total["ingest.build_candidate_sets"],
        "ingest.rows_read": attr_sum["rows"],
        "ingest.blocks_kept": attr_sum["blocks"],
        "ingest.haversine_calls": haversine,
        "ingest.venue_hits_per_test": ratio(tracer.counts["ingest.candidate_venues.hits"],
                                            haversine),
        "cli.self_s": self_time["cli.main"],
        "cli.coverage": ratio(children["cli.main"], total["cli.main"]),
    })
    return m
