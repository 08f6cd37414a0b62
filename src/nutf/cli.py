"""Command-line entry point.

Subcommands: synth, preprocess, fit, predict, eval. Every run
writes its resolved configuration into the output directory so runs are
diffable; wall-clock numbers go to a separate timings.json, which is the
only output file allowed to differ between identical runs.

Exit codes: 0 success, 2 usage error, 3 input validation error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import platform
import sys
import time
from pathlib import Path

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

_DEFAULTS = {
    "synth": {
        "users": 1000, "slots": 50, "categories": 20, "classes": 10,
        "density": 0.2, "cands": 4, "seed": 0, "out": "synth_out",
    },
    "preprocess": {
        "slot_mode": "daypart", "epoch_day": "1970-01-01",
        "min_dwell_min": 20.0, "venue_radius_m": None,
        "other_category": None, "out": "preprocess_out",
    },
    "fit": {
        "rank": 20, "iters": 100, "power_iters": 8, "tol": 1e-6,
        "seed": 0, "deterministic": False, "threads": 0, "out": "fit_out",
    },
    "predict": {"k": 5, "restrict": None},
    "eval": {"k": 5, "out": None},
}


def _apply_thread_env(threads: int) -> None:
    # Caps BLAS; cmd_fit caps nutf's own pool. Effective only before the
    # numerical libraries load; the command functions import them lazily
    # for exactly this reason.
    if threads and threads > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Defaults, then config file, then explicit command-line flags."""
    cfg = dict(_DEFAULTS[command])
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"config file {args.config}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {args.config}: must hold a JSON object")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ValueError(f"config file {args.config}: unknown keys {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in cfg:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            cfg[key] = cli_val
    return cfg


def _versions() -> dict:
    import numpy
    import scipy

    from . import __version__

    return {
        "nutf": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _write_manifest(out_dir: Path, command: str, cfg: dict) -> None:
    manifest = {"command": command, "config": cfg, "versions": _versions()}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _write_timings(out_dir: Path, timings: dict) -> None:
    (out_dir / "timings.json").write_text(
        json.dumps(timings, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands ----------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "synth")
    from . import serialize
    from .harness import SynthConfig, generate

    synth_cfg = SynthConfig(
        n_users=cfg["users"], n_slots=cfg["slots"], n_categories=cfg["categories"],
        n_classes=cfg["classes"], slot_density=cfg["density"],
        candidates_per_update=cfg["cands"], seed=cfg["seed"],
    )
    t0 = time.perf_counter()
    omega, truth, dims = generate(synth_cfg)
    t1 = time.perf_counter()
    out = _out_dir(cfg)
    serialize.write_candidate_sets_jsonl(out / "omega.jsonl", omega)
    serialize.write_index_maps(
        out / "index_maps.json", dims.n_users, dims.n_slots, dims.n_categories
    )
    serialize.write_pairs_jsonl(out / "truth.jsonl", truth.pairs())
    (out / "user_classes.json").write_text(
        json.dumps(truth.user_classes.tolist()) + "\n", encoding="utf-8"
    )
    _write_manifest(out, "synth", cfg)
    _write_timings(out, {"generate_s": t1 - t0, "write_s": time.perf_counter() - t1})
    print(f"wrote {omega.n_blocks} observations (|Omega| = {omega.total_size}) to {out}")
    return EXIT_OK


def cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "preprocess")
    from . import serialize
    from .ingest import (SlotScheme, build_candidate_sets, read_category_map_csv,
                         read_updates_csv, read_venues_csv)

    t_read = time.perf_counter()
    updates = read_updates_csv(args.updates)
    venues = read_venues_csv(args.venues)
    catmap = read_category_map_csv(args.catmap)
    if cfg["venue_radius_m"] is not None:
        # fixed-radius venue model: one radius for the whole catalog
        from dataclasses import replace

        venues = [replace(v, radius_m=float(cfg["venue_radius_m"])) for v in venues]
    scheme = SlotScheme(
        mode=cfg["slot_mode"],
        epoch_day=dt.date.fromisoformat(cfg["epoch_day"]),
    )
    t0 = time.perf_counter()
    read_s = t0 - t_read
    result = build_candidate_sets(
        updates, venues, scheme, catmap,
        min_dwell_s=float(cfg["min_dwell_min"]) * 60.0,
        other_category=cfg["other_category"],
    )
    if result.before_window:
        print(f"warning: dropped {result.before_window} update(s) before the window start "
              f"{scheme.epoch_day}", file=sys.stderr)
    out = _out_dir(cfg)
    serialize.write_candidate_sets_jsonl(out / "omega.jsonl", result.omega)
    dims = result.dims
    n_users, n_slots = (dims.n_users, dims.n_slots) if dims else (0, 0)
    serialize.write_index_maps(
        out / "index_maps.json", n_users, n_slots, len(result.category_names),
        user_ids=result.user_ids, category_names=result.category_names,
    )
    _write_manifest(out, "preprocess", cfg)
    _write_timings(out, {"read_s": read_s, "preprocess_s": time.perf_counter() - t0})
    if dims is None:
        print("warning: no update produced a candidate set; omega is empty", file=sys.stderr)
    else:
        print(
            f"N={n_users} T={n_slots} C={dims.n_categories} |Omega|={result.omega.total_size} "
            f"mean|Omega_ij|={result.omega.block_sizes.mean():.2f}"
        )
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "fit")
    threads = int(cfg["threads"])
    _apply_thread_env(threads)
    from . import parallel, serialize
    from .core import ProblemDims
    from .solver import SolverConfig, fit

    omega_dir = Path(args.omega)
    omega_path = omega_dir / "omega.jsonl" if omega_dir.is_dir() else omega_dir
    maps_path = omega_path.parent / "index_maps.json"
    if not omega_path.exists():
        raise ValueError(f"candidate-set file {omega_path} does not exist")
    if not maps_path.exists():
        raise ValueError(f"index map sidecar {maps_path} does not exist")
    t_read = time.perf_counter()
    omega = serialize.read_candidate_sets_jsonl(omega_path)
    maps = serialize.read_index_maps(maps_path)
    dims = ProblemDims(maps["n_users"], maps["n_slots"], maps["n_categories"])
    read_s = time.perf_counter() - t_read
    try:
        omega.validate_dims(dims)
    except ValueError as exc:
        raise ValueError(f"{omega_path}: {exc} of {maps_path}") from None

    solver_cfg = SolverConfig(
        rank=int(cfg["rank"]), outer_iters=int(cfg["iters"]),
        power_iters=int(cfg["power_iters"]), tol=float(cfg["tol"]), seed=int(cfg["seed"]),
    )
    t0 = time.perf_counter()
    with parallel.capped(threads):
        x, model, trace = fit(omega, dims, solver_cfg)
    t_write = time.perf_counter()
    total = t_write - t0

    out = _out_dir(cfg)
    serialize.save_model(out / "model.nutf", model)
    serialize.save_block_sparse(out / "x.nutf", x)
    serialize.write_trace_jsonl(out / "trace.jsonl", trace,
                                zero_seconds=bool(cfg["deterministic"]))
    _write_manifest(out, "fit", cfg)
    timings = {"read_s": read_s, "write_s": time.perf_counter() - t_write,
               "init": trace.init_seconds}
    for kernels in trace.kernel_seconds:
        for key, seconds in kernels.items():
            timings[key] = timings.get(key, 0.0) + seconds
    timings["fit_total_s"] = total
    timings["per_iteration_s"] = trace.seconds
    _write_timings(out, timings)
    print(
        f"fit: {trace.n_iterations} iterations, final objective "
        f"{trace.objectives[-1]:.6g}, {total:.2f}s -> {out}"
    )
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "predict")
    from . import serialize
    from .solver import predict_topk

    model = serialize.load_model(args.model)
    restrict = None
    if cfg["restrict"]:
        restrict = [int(s) for s in str(cfg["restrict"]).split(",") if s != ""]
    cats = predict_topk(model, args.user, args.slot, int(cfg["k"]), restrict=restrict)
    print(json.dumps({"user": args.user, "slot": args.slot, "topk": cats.tolist()}))
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "eval")
    from . import serialize
    from .harness import score_topk

    model = serialize.load_model(args.model)
    pairs = serialize.read_pairs_jsonl(args.validation)
    k, n_categories = int(cfg["k"]), model.dims.n_categories
    if not 1 <= k <= n_categories:
        raise ValueError(f"--k {k} outside [1, C = {n_categories}]")
    try:
        report = score_topk(model, pairs, k)
    except ValueError as exc:  # k is in range, so the pairs are at fault
        raise ValueError(f"{args.validation}: {exc}") from None
    print(report.format_table())
    print(json.dumps(report.to_dict()))
    if cfg["out"]:
        Path(cfg["out"]).write_text(json.dumps(report.to_dict(), indent=2) + "\n",
                                    encoding="utf-8")
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nutf",
        description="Negative-unlabeled tensor factorization for location categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="JSON file supplying any flag; "
                                        "command-line values override it")

    p = sub.add_parser("synth", help="generate a class-structured synthetic instance")
    add_config(p)
    p.add_argument("--users", type=int)
    p.add_argument("--slots", type=int)
    p.add_argument("--categories", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--density", type=float)
    p.add_argument("--cands", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="build candidate sets from raw CSV files")
    add_config(p)
    p.add_argument("--updates", required=True)
    p.add_argument("--venues", required=True)
    p.add_argument("--catmap", required=True)
    p.add_argument("--slot-mode", dest="slot_mode", choices=["daypart", "hourly"])
    p.add_argument("--epoch-day", dest="epoch_day", help="ISO date of the window start")
    p.add_argument("--min-dwell-min", dest="min_dwell_min", type=float)
    p.add_argument("--venue-radius-m", dest="venue_radius_m", type=float)
    p.add_argument("--other-category", dest="other_category",
                   help="canonical bucket for unmapped raw categories")
    p.add_argument("--out")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("fit", help="run the alternating solver on candidate sets")
    add_config(p)
    p.add_argument("--omega", required=True,
                   help="omega.jsonl file or a directory containing it")
    p.add_argument("--rank", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--power-iters", dest="power_iters", type=int,
                   help="subspace-iteration passes of the first outer iteration, and "
                        "the most passes of each later, warm-started one")
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--deterministic", action=argparse.BooleanOptionalAction)
    p.add_argument("--threads", type=int,
                   help="thread cap of nutf's pool and of BLAS; 0 keeps the defaults "
                        "(the usable CPUs, and the BLAS environment)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="top-k categories for one (user, slot)")
    add_config(p)
    p.add_argument("--model", required=True)
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--slot", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--restrict", help="comma-separated candidate categories")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="top-k accuracy on a validation file")
    add_config(p)
    p.add_argument("--model", required=True)
    p.add_argument("--validation", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
