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
from .measures import _chain_checks, symmetric_values
from .states import StateRecipe, star, symmetric_coefficients
from .suites import DEFAULT_TRIALS, SUITES, run_suite
from .swaptest import (
    MAX_SWAP_QUBITS,
    bounds_from_estimate,
    cce_from_distribution,
    estimate_from_shots,
    register_size,
    sample_shots,
    swap_test_distribution,
)
from .tensor import normalize_subset

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SUITE_FAILURE = 3
EXIT_RESOURCE = 4

MAX_GRID_STEPS = 10_000
MAX_GRID_POINTS = 1_000_000
MAX_STATE_DIM = 1 << MAX_SUBSET_SIZE  # amplitudes of a built state: every state of up to 20 qubits


def _fmt(value) -> str:
    return format(value, ".15g") if isinstance(value, float) else str(value)


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
    """Either a single finite number or 'start:stop:steps' inclusive of both ends."""
    start, stop, steps = text.split(":") if ":" in text else (text, text, "1")  # a ValueError if not 3 fields
    start, stop, steps = float(start), float(stop), int(steps)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("grid ends must be finite")
    if steps < 1:
        raise ValueError(f"grid needs at least one step, got {steps}")
    if steps > MAX_GRID_STEPS:
        raise ResourceLimitError(f"grid of {steps} steps exceeds the guard of {MAX_GRID_STEPS} per axis")
    if steps == 1:
        return [start]
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def _parse_option(option: str, text: str, grid: bool) -> list[float] | tuple[int, ...]:
    """An option's grid (`_parse_grid`) or integers; a ValueError names the option and its form."""
    try:
        return _parse_grid(text) if grid else tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        form = "a finite number or start:stop:steps" if grid else "comma-separated integers"
        raise ValueError(f"{option} takes {form}, got {text!r}: {exc}") from None


def _intake(args: argparse.Namespace, text: str) -> tuple[StateRecipe, tuple[int, ...], tuple[int, ...]]:
    """A pure-state recipe, its dims and its labels `--s` (default all), checked unbuilt. A ghz, w or dicke recipe
    past an array's index range (2^n amplitudes) is refused by n alone; below that, each command's guards apply."""
    recipe = StateRecipe.parse(text)
    if recipe.family == "mixed-random":  # rejected unbuilt: building one takes O(d^3) time
        raise ValueError(f"{args.command} needs a pure-state recipe, got {text!r}")
    if (recipe.n or 0) >= sys.maxsize.bit_length():
        raise ResourceLimitError(f"state of 2^{recipe.n} amplitudes exceeds an array's index range")
    dims = recipe.local_dims
    subset = _parse_option("--s", args.s, False) if args.s is not None else tuple(range(1, len(dims) + 1))
    normalize_subset(subset, len(dims))
    return recipe, dims, subset


def cmd_compute(args: argparse.Namespace) -> int:
    rows = []
    columns = ["state", "subset", "alpha", "beta", "value"]
    if args.named:
        columns += list(BENCHMARKS)
    alphas, betas = _parse_option("--alpha", args.alpha, True), _parse_option("--beta", args.beta, True)
    if len(alphas) * len(betas) > MAX_GRID_POINTS:
        raise ResourceLimitError(f"grid of {len(alphas)} x {len(betas)} points exceeds the guard of {MAX_GRID_POINTS}")
    grid = [(a, b) for a in alphas for b in betas]
    points = [EntropyParams(a, b) for a, b in grid] + (list(BENCHMARKS.values()) if args.named else [])
    for recipe_text in args.state:
        recipe, dims, subset = _intake(args, recipe_text)
        plan = cut_plan(dims, subset)  # the power-set guard, before the state is built
        if (size := prod(dims)) > MAX_STATE_DIM:  # past 2^64 as a power of 2: decimal may pass 4 300 digits
            shown = size if size.bit_length() <= 64 else f"at least 2^{size.bit_length() - 1}"
            raise ResourceLimitError(f"state of dimension {shown} exceeds the guard of {MAX_STATE_DIM}")
        psi = recipe.build()
        if len(subset) > 12:
            note = f"{plan.n_eigensolves} reduced-state eigensolves per state"
            print(f"note: subset of {len(subset)} labels means {note}", file=sys.stderr)
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
    points = list(BENCHMARKS.values())
    for n in range(args.nmin, args.nmax + 1):
        sizes = range(1, n + 1) if args.sizes == "all" else _parse_option("--sizes", args.sizes, False)
        g, wv = (symmetric_values(symmetric_coefficients(family, n), sizes, points) for family in ("ghz", "w"))
        for size, g_row, w_row in zip(sizes, g, wv):
            for measure, g_val, w_val in zip(BENCHMARKS, g_row, w_row):
                delta = g_val - w_val
                rows.append({"n": n, "size": size, "measure": measure, "ghz": g_val, "w": w_val, "delta": delta})
                if n >= 3 and delta <= 0:
                    ok = False
                    print(f"separation violated at n={n}, size={size}, {measure}", file=sys.stderr)
    _emit(rows, ["n", "size", "measure", "ghz", "w", "delta"], args.format, args.out)
    return EXIT_OK if ok else EXIT_SUITE_FAILURE


def cmd_star_sweep(args: argparse.Namespace) -> int:
    thetas = _parse_option("--grid", args.grid, True)
    if not all(0 <= t <= math.pi / 2 + 1e-12 for t in thetas):
        raise ValueError("star sweep grid must lie within [0, pi/2]")
    rows = [{"theta": theta, **named_measures(star(theta), (1, 2, 3, 4))._asdict()} for theta in thetas]
    ok = True
    for row in rows:
        for relation, holds in _chain_checks(*(row[m] for m in BENCHMARKS)).items():
            if not holds:
                ok = False
                print(f"ordering chain: {relation} violated at theta={row['theta']}", file=sys.stderr)
    nearest = min(range(len(thetas)), key=lambda i: abs(thetas[i] - math.pi / 4))
    for measure in BENCHMARKS:
        peak = max(range(len(rows)), key=lambda i: rows[i][measure])
        if rows[peak][measure] > rows[nearest][measure] + ORDER_TOL:
            ok = False
            print(f"{measure} peaks away from pi/4 (theta={thetas[peak]})", file=sys.stderr)
    _emit(rows, ["theta", *BENCHMARKS], args.format, args.out)
    return EXIT_OK if ok else EXIT_SUITE_FAILURE


def cmd_dicke_table(args: argparse.Namespace) -> int:
    points = list(BENCHMARKS.values())
    values = [symmetric_values(symmetric_coefficients("dicke", 4, k), [4], points)[0] for k in range(5)]
    rows = [{"k": k, **dict(zip(BENCHMARKS, row))} for k, row in enumerate(values)]
    ok = True
    for measure in BENCHMARKS:
        for k in range(5):
            if abs(rows[k][measure] - rows[4 - k][measure]) > ORDER_TOL:
                ok = False
                print(f"k <-> 4-k symmetry violated for {measure} at k={k}", file=sys.stderr)
            if k != 2 and rows[k][measure] >= rows[2][measure] + ORDER_TOL:
                ok = False
                print(f"k=2 is not maximal for {measure} (k={k})", file=sys.stderr)
    _emit(rows, ["k", *BENCHMARKS], args.format, args.out)
    return EXIT_OK if ok else EXIT_SUITE_FAILURE


def cmd_verify(args: argparse.Namespace) -> int:
    result = run_suite(args.suite, seed=args.seed, trials=args.trials)
    print(f"suite {result.name}: {result.trials} trials, {len(result.failures)} failures")
    for failure in result.failures:
        print(f"  FAIL {failure}")
    print("PASS" if result.passed else "FAIL")
    return EXIT_OK if result.passed else EXIT_SUITE_FAILURE


def cmd_swaptest(args: argparse.Namespace) -> int:
    recipe, dims, subset = _intake(args, args.state)
    register_size(dims)  # before the state is built: its statevector alone takes 2^n amplitudes
    psi = recipe.build()
    dist = swap_test_distribution(psi)
    exact = cce_from_distribution(dist, subset)
    record = sample_shots(dist, args.shots, args.seed)
    estimate, sigma = estimate_from_shots(record, subset)
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
    p.add_argument("--state", required=True, help=f"qubit recipe, n <= {MAX_SWAP_QUBITS}")
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
        if getattr(args, "seed", 0) < 0:  # `verify` and `swaptest`: before any draw
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
