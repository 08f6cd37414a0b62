"""Run one nutf benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit-100k --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
beside this directory, never from an installed copy. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones. See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# scratch files of a run, spans of traced runs and output digests per seed
STATE_DIR = ROOT / ".perfbench"


def pin_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at min(2, usable CPUs) before numpy loads."""
    n = min(2, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def main(argv=None) -> int:
    # workload names and the unit of every metric come from BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="after the workload's minimum repetitions of its timed "
                             "chain, keep repeating while the next one fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nutf" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import nutf

    if Path(nutf.__file__).resolve().parent != SRC / "nutf":
        print(f"error: imported nutf from {nutf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workdir = STATE_DIR / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), T_START,
            workdir, STATE_DIR, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, BLAS threads {threads}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
