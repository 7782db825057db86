"""Command-line surface: benchmark tables, sweeps, property suites.

Exit codes: 0 success, 2 validation or parse error, 3 property-suite
failure, 4 resource guard. Tables are emitted as CSV (fixed column order,
15 significant digits) or JSON; rows come in grid order, so a fixed seed
yields byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from math import prod
from typing import Iterable, Sequence

from .entropy import EntropyParams
from .errors import ResourceLimitError
from .measures import BENCHMARKS, MAX_SUBSET_SIZE, ORDER_TOL, cut_plan, named_measures, spectra_table, table_values
from .states import StateRecipe, dicke, ghz, ghz_w_closed_forms, star, w
from .suites import DEFAULT_TRIALS, SUITES, run_suite
from .swaptest import (
    bounds_from_estimate,
    cce_from_distribution,
    estimate_from_shots,
    register_size,
    sample_shots,
    swap_test_distribution,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SUITE_FAILURE = 3
EXIT_RESOURCE = 4

MAX_GRID_STEPS = 10_000
MAX_GRID_POINTS = 1_000_000
MAX_STATE_DIM = 1 << MAX_SUBSET_SIZE  # amplitudes of a built state: every state of up to 20 qubits


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def _emit(rows: list[dict], columns: Sequence[str], fmt: str, out: str | None) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"columns": list(columns), "rows": rows}, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_grid(text: str) -> list[float]:
    """Either a single float or 'start:stop:steps' inclusive of both ends."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"grid must be a number or start:stop:steps, got {text!r}")
    start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1:
        raise ValueError(f"grid needs at least one step, got {steps}")
    if steps > MAX_GRID_STEPS:
        raise ResourceLimitError(f"grid of {steps} steps exceeds the guard of {MAX_GRID_STEPS} per axis")
    if steps == 1:
        return [start]
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def _parse_subset(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def cmd_compute(args: argparse.Namespace) -> int:
    rows = []
    columns = ["state", "subset", "alpha", "beta", "value"]
    if args.named:
        columns += ["e", "r2", "t3", "c"]
    alphas, betas = _parse_grid(args.alpha), _parse_grid(args.beta)
    if len(alphas) * len(betas) > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"grid of {len(alphas)} x {len(betas)} points exceeds the guard of {MAX_GRID_POINTS}"
        )
    grid = [(a, b) for a in alphas for b in betas]
    points = [EntropyParams(a, b) for a, b in grid] + (list(BENCHMARKS.values()) if args.named else [])
    for recipe_text in args.state:
        recipe = StateRecipe.parse(recipe_text)
        if recipe.family == "mixed-random":  # rejected unbuilt: building one takes O(d^3) time
            raise ValueError(f"compute needs a pure-state recipe, got {recipe_text!r}")
        dims = recipe.local_dims
        subset = _parse_subset(args.s) if args.s else tuple(range(1, len(dims) + 1))
        plan = cut_plan(dims, subset)  # checks the labels and the power-set guard before the state is built
        if prod(dims) > MAX_STATE_DIM:
            raise ResourceLimitError(f"state of dimension {prod(dims)} exceeds the guard of {MAX_STATE_DIM}")
        psi = recipe.build()
        if len(subset) > 12:
            print(
                f"note: subset of {len(subset)} labels means {plan.n_eigensolves} reduced-state eigensolves per state",
                file=sys.stderr,
            )
        values = table_values(spectra_table(psi, subset), points)
        named = dict(zip(BENCHMARKS, values[len(grid) :]))
        state, joined = recipe.label(), "+".join(str(i) for i in subset)
        for (a, b), value in zip(grid, values):
            rows.append({"state": state, "subset": joined, "alpha": a, "beta": b, "value": value, **named})
    _emit(rows, columns, args.format, args.out)
    return EXIT_OK


def cmd_ghz_w_sweep(args: argparse.Namespace) -> int:
    if not 2 <= args.nmin <= args.nmax <= 30:
        raise ValueError(f"need 2 <= nmin <= nmax <= 30, got {args.nmin}..{args.nmax}")
    rows = []
    ok = True
    for n in range(args.nmin, args.nmax + 1):
        sizes = range(1, n + 1) if args.sizes == "all" else _parse_subset(args.sizes)
        exact = n <= 10  # statevectors up to n = 10, closed forms beyond
        if exact:
            psi_g, psi_w = ghz(n), w(n)
        for size in sizes:
            if not 1 <= size <= n:
                raise ValueError(f"subset size {size} out of range for n={n}")
            if exact:
                subset = tuple(range(1, size + 1))
                g = named_measures(psi_g, subset)._asdict()
                wv = named_measures(psi_w, subset)._asdict()
            else:
                g, wv = ghz_w_closed_forms(n, size)
            for measure in ("e", "r2", "t3", "c"):
                delta = g[measure] - wv[measure]
                rows.append(
                    {
                        "n": n,
                        "size": size,
                        "measure": measure,
                        "ghz": g[measure],
                        "w": wv[measure],
                        "delta": delta,
                    }
                )
                if n >= 3 and delta <= 0:
                    ok = False
                    print(f"separation violated at n={n}, size={size}, {measure}", file=sys.stderr)
    _emit(rows, ["n", "size", "measure", "ghz", "w", "delta"], args.format, args.out)
    return EXIT_OK if ok else EXIT_SUITE_FAILURE


def cmd_star_sweep(args: argparse.Namespace) -> int:
    thetas = _parse_grid(args.grid)
    if any(t < 0 or t > math.pi / 2 + 1e-12 for t in thetas):
        raise ValueError("star sweep grid must lie within [0, pi/2]")

    rows = [{"theta": theta, **named_measures(star(theta), (1, 2, 3, 4))._asdict()} for theta in thetas]
    ok = True
    for row in rows:
        e, r2, t3, c = (row[m] for m in ("e", "r2", "t3", "c"))
        if not (e >= r2 - ORDER_TOL and r2 >= c - ORDER_TOL and c >= t3 - ORDER_TOL):
            ok = False
            print(f"ordering chain violated at theta={row['theta']}", file=sys.stderr)
    nearest = min(range(len(thetas)), key=lambda i: abs(thetas[i] - math.pi / 4))
    for measure in ("e", "r2", "t3", "c"):
        peak = max(range(len(rows)), key=lambda i: rows[i][measure])
        if rows[peak][measure] > rows[nearest][measure] + ORDER_TOL:
            ok = False
            print(f"{measure} peaks away from pi/4 (theta={thetas[peak]})", file=sys.stderr)
    _emit(rows, ["theta", "e", "r2", "t3", "c"], args.format, args.out)
    return EXIT_OK if ok else EXIT_SUITE_FAILURE


def cmd_dicke_table(args: argparse.Namespace) -> int:
    rows = []
    for k in range(5):
        rows.append({"k": k, **named_measures(dicke(4, k), (1, 2, 3, 4))._asdict()})
    ok = True
    for measure in ("e", "r2", "t3", "c"):
        for k in range(5):
            if abs(rows[k][measure] - rows[4 - k][measure]) > ORDER_TOL:
                ok = False
                print(f"k <-> 4-k symmetry violated for {measure} at k={k}", file=sys.stderr)
            if k != 2 and rows[k][measure] >= rows[2][measure] + ORDER_TOL:
                ok = False
                print(f"k=2 is not maximal for {measure} (k={k})", file=sys.stderr)
    _emit(rows, ["k", "e", "r2", "t3", "c"], args.format, args.out)
    return EXIT_OK if ok else EXIT_SUITE_FAILURE


def cmd_verify(args: argparse.Namespace) -> int:
    result = run_suite(args.suite, seed=args.seed, trials=args.trials)
    print(f"suite {result.name}: {result.trials} trials, {len(result.failures)} failures")
    for failure in result.failures:
        print(f"  FAIL {failure}")
    print("PASS" if result.passed else "FAIL")
    return EXIT_OK if result.passed else EXIT_SUITE_FAILURE


def cmd_swaptest(args: argparse.Namespace) -> int:
    recipe = StateRecipe.parse(args.state)
    if recipe.family == "mixed-random":  # as in `cmd_compute`
        raise ValueError("swaptest needs a pure-state recipe")
    dims = recipe.local_dims
    subset = _parse_subset(args.s) if args.s else tuple(range(1, len(dims) + 1))
    register_size(dims)  # before the state is built: its statevector alone takes 2^n amplitudes
    psi = recipe.build()
    dist = swap_test_distribution(psi)
    exact = cce_from_distribution(dist, subset)
    record = sample_shots(dist, args.shots, args.seed)
    estimate, sigma = estimate_from_shots(record, psi.n_subsystems, subset)
    bounds = bounds_from_estimate(estimate)
    print(f"state {recipe.label()}  subset {'+'.join(str(i) for i in subset)}")
    print(f"exact C = {_fmt(exact)}")
    print(f"estimate C = {_fmt(estimate)} +- {_fmt(sigma)}  ({args.shots} shots, seed {args.seed})")
    print(f"E lower bound  = {_fmt(bounds.e_lower)}")
    print(f"R2 lower bound = {_fmt(bounds.r2_lower)}")
    print(f"T3 upper bound = {_fmt(bounds.t3_upper)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cekit",
        description="Concentratable-entanglement tables, sweeps, SWAP-test estimates, and property suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="measure values for a state over an (alpha, beta) grid")
    p.add_argument("--state", action="append", required=True, help="recipe, e.g. ghz:3 or dicke:4:2")
    p.add_argument("--s", default=None, help="comma-separated subsystem labels, default all")
    p.add_argument("--alpha", default="1", help="value or start:stop:steps")
    p.add_argument("--beta", default="1", help="value or start:stop:steps")
    p.add_argument("--named", action="store_true", help="append the four benchmark measures")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("ghz-w-sweep", help="benchmark separation of GHZ and W states")
    p.add_argument("--nmin", type=int, default=3)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--sizes", default="all", help="comma-separated subset sizes, default all")
    p.set_defaults(func=cmd_ghz_w_sweep)

    p = sub.add_parser("star-sweep", help="four benchmark measures along the star-network angle")
    p.add_argument("--grid", default=f"0:{math.pi / 2}:100", help="theta grid start:stop:steps")
    p.set_defaults(func=cmd_star_sweep)

    p = sub.add_parser("dicke-table", help="four-qubit Dicke-state benchmark table")
    p.set_defaults(func=cmd_dicke_table)

    p = sub.add_parser("verify", help="run a randomized property suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--trials", type=int, default=None, help=f"default per suite: {DEFAULT_TRIALS}")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("swaptest", help="simulate the parallelized SWAP test and derived bounds")
    p.add_argument("--state", required=True, help=f"qubit recipe, n <= {MAX_SUBSET_SIZE}")
    p.add_argument("--s", default=None, help="comma-separated subsystem labels, default all")
    p.add_argument("--shots", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_swaptest)

    for name, cmd in sub.choices.items():
        if name in ("compute", "ghz-w-sweep", "star-sweep", "dicke-table"):
            cmd.add_argument("--format", choices=("csv", "json"), default="csv")
            cmd.add_argument("--out", default=None, help="output path, default stdout")

    return parser


def main(argv: Iterable[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
