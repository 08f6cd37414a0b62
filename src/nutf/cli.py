"""Command-line entry point.

Subcommands: synth, preprocess, fit, predict, eval. Every run
writes its resolved configuration into the output directory so runs are
diffable; wall-clock numbers go to a separate timings.json, which is the
only output file allowed to differ between identical runs.

Exit codes: 0 success, 2 usage error, 3 input validation error (also
when the inputs ask for more memory than the machine has), 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import math
import platform
import sys
import time
from pathlib import Path

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


def _options(subparser: argparse.ArgumentParser) -> dict:
    """A subcommand's optional flags by dest: what --config sets, what the manifest records."""
    return {a.dest: a for a in subparser._actions
            if a.option_strings and not a.required and a.dest not in ("help", "config")}


def _finite(value) -> bool:
    """False for a float NaN or infinity; an integer is finite at any size."""
    return not isinstance(value, float) or math.isfinite(value)


def _accepts(action: argparse.Action, value) -> bool:
    """Whether a JSON value fits the flag's declaration; a float flag takes integers
    too, but no NaN or infinity."""
    if value is None:
        return action.default is None
    if isinstance(action, argparse.BooleanOptionalAction):
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if action.type in (int, float):
        return isinstance(value, (int, action.type)) and _finite(value)
    return isinstance(value, str) and (action.choices is None or value in action.choices)


def _check_finite(args: argparse.Namespace) -> None:
    """Reject a float flag given as nan or inf: no command has a use for one."""
    for dest, action in _options(args.subparser).items():
        value = getattr(args, dest)
        if action.type is float and not _finite(value):
            raise ValueError(f"{action.option_strings[0]} {value}: must be a finite number")


def _read_config(path: str, options: dict) -> dict:
    """A --config file's values, each checked against its flag's declaration."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ValueError(f"config file {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path}: must hold a JSON object")
    unknown = set(cfg) - set(options)
    if unknown:
        raise ValueError(f"config file {path}: unknown keys {sorted(unknown)}")
    for key, value in cfg.items():
        if not _accepts(options[key], value):
            raise ValueError(f"config file {path}: {key} cannot be {json.dumps(value)}")
    return cfg


def _versions() -> dict:
    import numpy
    import scipy

    from . import __version__

    try:  # the BLAS build without its directories; mode= needs numpy 1.25
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    return {
        "nutf": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "blas": blas,
    }


def _write_json(path: Path, payload: dict) -> None:
    """Strict JSON (no NaN or infinity) with sorted keys: manifest.json and timings.json."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
                    encoding="utf-8")


def _write_manifest(out_dir: Path, args: argparse.Namespace) -> None:
    cfg = {dest: getattr(args, dest) for dest in _options(args.subparser)}
    _write_json(out_dir / "manifest.json",
                {"command": args.command, "config": cfg, "versions": _versions()})


def _out_dir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- subcommands ----------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    from . import serialize
    from .harness import SynthConfig, generate

    synth_cfg = SynthConfig(
        n_users=args.users, n_slots=args.slots, n_categories=args.categories,
        n_classes=args.classes, slot_density=args.density,
        candidates_per_update=args.cands, seed=args.seed,
    )
    t0 = time.perf_counter()
    omega, truth, dims = generate(synth_cfg)
    t1 = time.perf_counter()
    out = _out_dir(args.out)
    serialize.write_candidate_sets_jsonl(out / "omega.jsonl", omega)
    serialize.write_index_maps(
        out / "index_maps.json", dims.n_users, dims.n_slots, dims.n_categories
    )
    serialize.write_pairs_jsonl(out / "truth.jsonl", truth.pairs())
    (out / "user_classes.json").write_text(
        json.dumps(truth.user_classes.tolist()) + "\n", encoding="utf-8"
    )
    _write_manifest(out, args)
    _write_json(out / "timings.json", {"generate_s": t1 - t0, "write_s": time.perf_counter() - t1})
    print(f"wrote {omega.n_blocks} observations (|Omega| = {omega.total_size}) to {out}")
    return EXIT_OK


def cmd_preprocess(args: argparse.Namespace) -> int:
    from . import serialize
    from .ingest import (SlotScheme, build_candidate_sets, read_category_map_csv,
                         read_updates_csv, read_venues_csv)

    if args.venue_radius_m is not None and not args.venue_radius_m > 0:
        raise ValueError(f"--venue-radius-m {args.venue_radius_m}: must be > 0")
    if args.min_dwell_min < 0:
        raise ValueError(f"--min-dwell-min {args.min_dwell_min}: must be >= 0")
    if args.other_category == "":
        raise ValueError("--other-category '': must not be empty")
    t_read = time.perf_counter()
    updates = read_updates_csv(args.updates)
    venues = read_venues_csv(args.venues)
    catmap = read_category_map_csv(args.catmap)
    if args.venue_radius_m is not None:
        venues.radius_m[:] = args.venue_radius_m  # fixed-radius venue model
    try:
        epoch_day = dt.date.fromisoformat(args.epoch_day)
    except ValueError as exc:
        raise ValueError(f"--epoch-day {args.epoch_day}: {exc}") from None
    scheme = SlotScheme(mode=args.slot_mode, epoch_day=epoch_day)
    t0 = time.perf_counter()
    read_s = t0 - t_read
    try:
        result = build_candidate_sets(
            updates, venues, scheme, catmap,
            min_dwell_s=args.min_dwell_min * 60.0, other_category=args.other_category,
        )
    except ValueError as exc:  # the records are valid one by one; a venue's category is unmapped
        raise ValueError(f"{args.catmap}: {exc}") from None
    before_window = result.funnel["before_window"]
    if before_window:
        print(f"warning: dropped {before_window} update(s) before the window start "
              f"{scheme.epoch_day}", file=sys.stderr)
    out = _out_dir(args.out)
    serialize.write_candidate_sets_jsonl(out / "omega.jsonl", result.omega)
    dims = result.dims
    n_users, n_slots = (dims.n_users, dims.n_slots) if dims else (0, 0)
    serialize.write_index_maps(
        out / "index_maps.json", n_users, n_slots, len(result.category_names),
        user_ids=result.user_ids, category_names=result.category_names,
    )
    (out / "report.json").write_text(json.dumps(result.funnel, indent=2) + "\n",
                                     encoding="utf-8")
    _write_manifest(out, args)
    _write_json(out / "timings.json", {"read_s": read_s, "preprocess_s": time.perf_counter() - t0})
    if dims is None:
        print("warning: no update produced a candidate set; omega is empty", file=sys.stderr)
    else:
        print(
            f"N={n_users} T={n_slots} C={dims.n_categories} |Omega|={result.omega.total_size} "
            f"mean|Omega_ij|={result.omega.total_size / result.omega.n_blocks:.2f}"
        )
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    from . import serialize
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
        rank=args.rank, outer_iters=args.iters, power_iters=args.power_iters,
        tol=args.tol, seed=args.seed,
    )
    t0 = time.perf_counter()
    x, model, trace = fit(omega, dims, solver_cfg, on_iteration=lambda it, _x, _m, obj: print(
        f"fit: iteration {it}/{args.iters}, objective {obj:.6g}", file=sys.stderr))
    t_write = time.perf_counter()
    total = t_write - t0

    out = _out_dir(args.out)
    serialize.save_model(out / "model.nutf", model)
    serialize.save_block_sparse(out / "x.nutf", x)
    serialize.write_trace_jsonl(out / "trace.jsonl", trace, zero_seconds=args.deterministic)
    _write_manifest(out, args)
    timings = {"read_s": read_s, "write_s": time.perf_counter() - t_write,
               "init": trace.init_seconds}
    for record in trace.records:
        for key, seconds in record["kernels"].items():
            timings[key] = timings.get(key, 0.0) + seconds
    timings["fit_total_s"] = total
    timings["per_iteration_s"] = [record["seconds"] for record in trace.records]
    _write_json(out / "timings.json", timings)
    print(
        f"fit: {len(trace.records)} iterations, final objective "
        f"{trace.records[-1]['objective']:.6g}, {total:.2f}s -> {out}"
    )
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    from . import serialize
    from .solver import predict_topk

    model = serialize.load_model(args.model)
    restrict = None
    if args.restrict:
        try:
            restrict = [int(s) for s in args.restrict.split(",") if s != ""]
        except ValueError as exc:
            raise ValueError(f"--restrict {args.restrict}: {exc}") from None
    cats = predict_topk(model, args.user, args.slot, args.k, restrict=restrict)
    print(json.dumps({"user": args.user, "slot": args.slot, "topk": cats.tolist()}))
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    from . import serialize
    from .harness import score_topk

    model = serialize.load_model(args.model)
    pairs = serialize.read_pairs_jsonl(args.validation)
    k, n_categories = args.k, model.dims.n_categories
    if not 1 <= k <= n_categories:
        raise ValueError(f"--k {k} outside [1, C = {n_categories}]")
    try:
        report = score_topk(model, pairs, k)
    except ValueError as exc:  # k is in range, so the pairs are at fault
        raise ValueError(f"{args.validation}: {exc}") from None
    print(report.format_table())
    print(json.dumps(report.to_dict()))
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), indent=2) + "\n",
                                  encoding="utf-8")
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The one declaration of every option: its flag, type and default."""
    parser = argparse.ArgumentParser(
        prog="nutf",
        description="Negative-unlabeled tensor factorization for location categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON object of flag values by dest; explicit flags "
                       "win. Each value has its flag's type (an integer, a number, true/false "
                       "or a listed string), and is null only where the default is none")
        p.set_defaults(func=func, subparser=p)
        return p

    p = command("synth", cmd_synth, "generate a class-structured synthetic instance")
    p.add_argument("--users", type=int, default=1000)
    p.add_argument("--slots", type=int, default=50)
    p.add_argument("--categories", type=int, default=20)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--density", type=float, default=0.2)
    p.add_argument("--cands", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="synth_out")

    p = command("preprocess", cmd_preprocess, "build candidate sets from raw CSV files")
    p.add_argument("--updates", required=True)
    p.add_argument("--venues", required=True)
    p.add_argument("--catmap", required=True)
    p.add_argument("--slot-mode", choices=["daypart", "hourly"], default="daypart")
    # no type=: argparse would pass the default through it, and the manifest wants a string
    p.add_argument("--epoch-day", default="1970-01-01", help="ISO date of the window start")
    p.add_argument("--min-dwell-min", type=float, default=20.0)
    p.add_argument("--venue-radius-m", type=float)
    p.add_argument("--other-category", help="canonical bucket for unmapped raw categories")
    p.add_argument("--out", default="preprocess_out")

    p = command("fit", cmd_fit, "run the alternating solver on candidate sets")
    p.add_argument("--omega", required=True,
                   help="omega.jsonl file or a directory containing it")
    p.add_argument("--rank", type=int, default=20)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--power-iters", type=int, default=8,
                   help="subspace-iteration passes of the first outer iteration, and "
                        "the most passes of each later, warm-started one")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deterministic", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--out", default="fit_out")

    p = command("predict", cmd_predict, "top-k categories for one (user, slot)")
    p.add_argument("--model", required=True)
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--slot", type=int, required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--restrict", help="comma-separated candidate categories")

    p = command("eval", cmd_eval, "top-k accuracy on a validation file")
    p.add_argument("--model", required=True)
    p.add_argument("--validation", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args.subparser.set_defaults(**_read_config(args.config, _options(args.subparser)))
            args = parser.parse_args(argv)  # explicit flags beat the file's defaults
        _check_finite(args)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # sizes are read from the inputs, and no count has a limit
        print(f"error: nutf {args.command} ran out of memory: {str(exc) or 'MemoryError'}",
              file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
