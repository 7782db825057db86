"""Benchmark of cekit: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 bench/run.py --workload pure-grid --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload roof-mixed --seed 0 --seconds 25 --trace 1
    python3 bench/run.py --self-test

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. This launcher pins the BLAS thread count to one and
unsets CEKIT_THREADS before numpy is imported, then imports cekit from the
checkout's src/ directory and times that import. See bench/README.md.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("pure-grid", "roof-mixed", "suites-small")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0, help="workload seed; all inputs derive from it")
    p.add_argument("--seconds", type=float, default=25.0, help="how long the run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    p.add_argument("--ops", type=int, default=None,
                   help="measure exactly this many ops (and one set-up sample) instead of --seconds")
    p.add_argument("--self-test", action="store_true", help="check the benchmark itself, one op per workload")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    if args.ops is not None and args.ops < 1:
        p.error("--ops must be at least 1")
    return args


def main() -> int:
    args = parse_args()
    os.environ.update(PINNED_ENV)
    os.environ.pop("CEKIT_THREADS", None)
    src = ROOT / "src"
    if not (src / "cekit" / "__init__.py").is_file():
        print(f"error: no cekit sources under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.self_test:
        import selftest

        return selftest.main()

    t0 = perf_counter()
    import cekit.cli  # noqa: F401  (timed: part of set-up)

    import_s = perf_counter() - t0
    import cekit

    if not Path(cekit.__file__).resolve().is_relative_to(src):
        print(f"error: imported cekit from {cekit.__file__}, not from {src}", file=sys.stderr)
        return 2
    import harness

    return harness.main(args, import_s, Path(__file__).resolve(), ROOT, PINNED_ENV)


if __name__ == "__main__":
    sys.exit(main())
