"""The three benchmark workloads: inputs from a seed, one op, and its check.

Every workload is a closed loop with one client: the next op starts when the
previous one returns. Ops are grouped in passes, a fixed list of ops whose
wall time is the workload's `wall_s`; each op of a pass gets fresh inputs.
`make_input(seed, slot)` builds the inputs of the op at position `slot` of a
pass from its program seed; the warm-up op is slot 0.

The program receives only generated inputs (recipe strings, random_density
seeds, suite seeds) and is reached through its public entry points at call
time, so the traced run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass

import numpy as np

import cekit.cli
import cekit.convex_roof
import cekit.entropy
import cekit.states
import cekit.suites

#: Seed stride per --seed value; see op_seed.
SEED_STRIDE = 1_000_003
#: Offset of the inputs of the untraced passes inside a traced run.
UNTRACED_OFFSET = 500_000
#: Index of the warm-up op's inputs.
WARMUP_INDEX = 999_999


def op_seed(seed: int, index: int) -> int:
    """Program seed of op `index` of a run started with --seed `seed`."""
    return (seed % (1 << 32)) * SEED_STRIDE + index


def _cli(argv: list[str]) -> tuple[int, str]:
    """Call the CLI in-process with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cekit.cli.main(argv)
    return code, buf.getvalue()


# --- pure-grid --------------------------------------------------------------

N_QUBITS = 10
ALPHA_GRID = "0.5:3:6"
BETA_GRID = "0:2:6"
ALPHAS = [0.5 + 2.5 * i / 5 for i in range(6)]
BETAS = [2.0 * i / 5 for i in range(6)]
NAMED = {"e": (1.0, 1.0), "r2": (2.0, 0.0), "t3": (3.0, 1.0), "c": (2.0, 1.0)}
GRID_COLUMNS = "state,subset,alpha,beta,value,e,r2,t3,c"
GRID_TOL = 1e-12
# README conventions: branch thresholds and the numerically-zero floor.
VN_ATOL = 1e-9
RENYI_ATOL = 1e-12
ZERO_FLOOR = 1e-12


def schmidt_table(amplitudes: np.ndarray, n: int) -> np.ndarray:
    """Squared singular values of every cut, one padded row per mask.

    Bit j of a mask selects label j+1; label 1 is the most significant axis.
    """
    t = np.asarray(amplitudes).reshape((2,) * n)
    width = 1 << (n // 2)
    table = np.zeros((1 << n, width))
    for mask in range(1 << n):
        chi = [j for j in range(n) if (mask >> j) & 1]
        mat = np.moveaxis(t, chi, list(range(len(chi)))).reshape(1 << len(chi), -1)
        sv = np.linalg.svd(mat, compute_uv=False)
        table[mask, : sv.size] = sv**2
    return table


def oracle_value(table: np.ndarray, alpha: float, beta: float) -> float:
    """Measure over all labels from the README branch formulas."""
    keep = table > ZERO_FLOOR
    lam = np.where(keep, table, 1.0)
    if abs(alpha - 1.0) < VN_ATOL:
        terms = -np.where(keep, lam * np.log2(lam), 0.0).sum(axis=1)
    else:
        tr = np.where(keep, lam**alpha, 0.0).sum(axis=1)
        if beta < RENYI_ATOL:
            terms = np.log2(tr) / (1.0 - alpha)
        else:
            terms = (tr**beta - 1.0) / ((1.0 - alpha) * beta)
    return math.fsum(terms.tolist()) / table.shape[0]


class PureGrid:
    name = "pure-grid"
    ops_per_pass = 2

    def make_input(self, seed: int, slot: int) -> str:
        return f"haar:{'x'.join(['2'] * N_QUBITS)}:{seed}"

    def run(self, recipe: str) -> tuple[int, str]:
        return _cli(["compute", "--state", recipe, "--named", "--alpha", ALPHA_GRID, "--beta", BETA_GRID])

    def check(self, recipe: str, out: tuple[int, str]) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        lines = text.splitlines()
        if not lines or lines[0] != GRID_COLUMNS:
            return f"unexpected header {lines[:1]}"
        grid = [(a, b) for a in ALPHAS for b in BETAS]
        if len(lines) != 1 + len(grid):
            return f"expected {len(grid)} rows, got {len(lines) - 1}"
        seed = int(recipe.rsplit(":", 1)[1])
        psi = cekit.states.haar_random((2,) * N_QUBITS, seed)
        table = schmidt_table(psi.amplitudes, N_QUBITS)
        named = {k: oracle_value(table, *p) for k, p in NAMED.items()}
        subset = "+".join(str(i) for i in range(1, N_QUBITS + 1))
        for line, (a, b) in zip(lines[1:], grid):
            fields = line.split(",")
            if len(fields) != 9 or fields[0] != recipe or fields[1] != subset:
                return f"malformed row {line!r}"
            got = [float(x) for x in fields[2:]]
            want = [a, b, oracle_value(table, a, b)] + [named[k] for k in NAMED]
            worst = max(abs(g - w) for g, w in zip(got, want))
            if not worst <= GRID_TOL:
                return f"row {line!r} differs from the oracle by {worst}"
        return None


# --- roof-mixed -------------------------------------------------------------

ROOF_POINTS = ((1.0, 1.0), (2.0, 1.0), (1.7, 0.4))
ROOF_BUDGET = (6, 1000)
ROOF_SUBSET = (1,)
EOF_TOL = 5e-3
RECONSTRUCTION_TOL = 1e-8
# Float slack for "bound <= eigendecomposition value": restart 0 starts at
# that ensemble and only accepts improvements, so any excess is rounding.
EIGEN_SLACK = 1e-12


@dataclass(frozen=True)
class RoofInput:
    rho: object
    point: tuple[float, float]
    seed: int


class RoofMixed:
    name = "roof-mixed"
    ops_per_pass = len(ROOF_POINTS)

    def make_input(self, seed: int, slot: int) -> RoofInput:
        rho = cekit.states.random_density((2, 2), rank=2, seed=seed)
        return RoofInput(rho, ROOF_POINTS[slot], seed)

    def run(self, inp: RoofInput):
        params = cekit.entropy.EntropyParams(*inp.point)
        return cekit.convex_roof.cce_mixed_upper(
            inp.rho, ROOF_SUBSET, params, budget=ROOF_BUDGET, seed=inp.seed
        )

    def eof_error(self, inp: RoofInput, result) -> float:
        return abs(result.upper_bound - 0.5 * cekit.suites.wootters_eof(inp.rho))

    def check(self, inp: RoofInput, result) -> str | None:
        bound = result.upper_bound
        rank = int((np.linalg.eigvalsh(inp.rho.matrix) > 1e-12).sum())
        eigen = cekit.convex_roof.mixing_ensemble(inp.rho, np.eye(rank)).average(
            ROOF_SUBSET, cekit.entropy.EntropyParams(*inp.point)
        )
        if not 0.0 <= bound <= eigen + EIGEN_SLACK:
            return f"bound {bound} outside [0, eigendecomposition value {eigen}]"
        err = result.best_ensemble.reconstruction_error(inp.rho)
        if not err <= RECONSTRUCTION_TOL:
            return f"best ensemble reconstructs rho only to {err}"
        if inp.point == (1.0, 1.0) and not self.eof_error(inp, result) <= EOF_TOL:
            return f"bound {bound} is {self.eof_error(inp, result)} from EOF/2"
        return None

    def stats(self, inputs: list[RoofInput], results: list) -> dict[str, float]:
        errs = [self.eof_error(i, r) for i, r in zip(inputs, results) if i.point == (1.0, 1.0)]
        return {
            "convex_roof.restarts": sum(r.restarts_used for r in results) / len(results),
            "convex_roof.converged_frac": sum(bool(r.converged) for r in results) / len(results),
            "convex_roof.max_err_vs_eof": max(errs, default=0.0),
        }


# --- suites-small -----------------------------------------------------------

#: (suite, trials): trial counts chosen so that each op takes a similar time.
SUITE_OPS = (
    ("ordering", 130),
    ("swap-consistency", 420),
    ("locc", 770),
    ("subadd", 1090),
    ("schur", 4500),
)


class SuitesSmall:
    name = "suites-small"
    ops_per_pass = len(SUITE_OPS)

    def make_input(self, seed: int, slot: int) -> tuple[str, int, int]:
        suite, trials = SUITE_OPS[slot]
        return suite, trials, seed

    def run(self, inp: tuple[str, int, int]) -> tuple[int, str]:
        suite, trials, seed = inp
        return _cli(["verify", suite, "--trials", str(trials), "--seed", str(seed)])

    def check(self, inp, out: tuple[int, str]) -> str | None:
        code, text = out
        if code != 0 or not text.rstrip().endswith("PASS"):
            return f"exit code {code}, output ends {text.rstrip()[-60:]!r}"
        return None


WORKLOADS = {w.name: w for w in (PureGrid(), RoofMixed(), SuitesSmall())}
