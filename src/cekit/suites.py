"""Randomized property sweeps behind `cekit verify`, with reproduction seeds.

Each suite draws its cases from a seeded generator and reports every
violation as a string carrying enough detail to replay it. Tolerances are
fixed here, not configurable, because they are part of what is being
verified.

All ten suites run through one draw-then-check loop, `_run`: a suite is a
per-trial draw and a batch check. The loop draws the cases of a batch from
one generator, in trial order, then checks them together, most suites in
stacked kernel calls (one eigensolve per cut dimension, one entropy call
per cut plan). A batch holds 64 trials (`_BATCH`), or fewer when a trial
evaluates many points: at most 512 (state, point) evaluations
(`_BATCH_POINTS`), so `ordering`, at 44 points a trial, takes 11. No check
draws from the suite's generator, so outputs are the trial-by-trial ones,
bit for bit, and memory is bounded by the batch.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convex_roof import Ensemble, _eigen_support, cce_mixed_upper
from .entropy import EntropyParams, binary_entropy, majorizes_rows, unified_entropy_rows
from .measures import (
    BENCHMARKS,
    _groups,
    cce_values,
    continuity_gap,
    locc_monotonicity_gaps,
    ordering_reports,
    subadditivity_gaps,
    tensor_identity_residual,
)
from .states import dicke, ghz, haar_random, random_density, random_product, w
from .swaptest import cce_from_rows, swap_test_rows
from .tensor import DensityOperator, PureState

__all__ = [
    "SuiteResult",
    "SUITES",
    "DEFAULT_TRIALS",
    "run_suite",
    "concurrence",
    "wootters_eof",
    "sample_concavity_params",
    "nearby_state",
]

GAP_TOL = 1e-10
SWAP_TOL = 1e-10  # |C from the SWAP-test distribution - C direct| a swap-consistency case may show
_BATCH = 64  # trials drawn, then evaluated together
_BATCH_POINTS = 512  # and the (state, point) evaluations they may hold: bounds a batch's memory
ALPHA_PAIRS = 20  # (lo, hi) alpha pairs an `ordering` trial checks the measure at


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def _batches(trials: int, points_per_trial: int = 1) -> list[range]:
    step = max(1, min(_BATCH, _BATCH_POINTS // points_per_trial))
    return [range(lo, min(lo + step, trials)) for lo in range(0, trials, step)]


def sample_concavity_params(rng: np.random.Generator) -> EntropyParams:
    """Draw (alpha, beta) from the concavity region, capped at alpha 4, beta 3."""
    branch = int(rng.integers(3))
    if branch == 0:
        a = float(rng.uniform(0.05, 1.0))
        b = float(rng.uniform(0.0, min(3.0, 1.0 / a)))
    elif branch == 1:
        a = float(rng.uniform(1.0, 4.0))
        b = float(rng.uniform(1.0 / a, 3.0))
    else:
        a = float(rng.uniform(0.05, 1.0))
        b = float(rng.uniform(0.0, 1.0))
    return EntropyParams(a, b)


def _run(
    name: str, seed: int, trials: int, draw: Callable, check: Callable, points: int = 1,
    label: Callable | None = None,
) -> SuiteResult:
    """The one suite loop. `draw(rng, trial)` makes each trial's case, in trial order from one generator;
    `check(cases)` yields (index in the batch, message) for each failure of a batch, in case order, so a
    message is built only for a failing case (messages print arrays, which costs more than the check).
    Each gets the prefix `trial {t} seed {s}: `, or `{label(case)} seed {s}: ` where `label` is given."""
    rng = np.random.default_rng(seed)
    failures = []
    for batch in _batches(trials, points):
        cases = [draw(rng, trial) for trial in batch]
        for j, message in check(cases):
            tag = label(cases[j]) if label else f"trial {batch[j]}"
            failures.append(f"{tag} seed {seed}: {message}")
    return SuiteResult(name, trials, failures)


def _averaged(mus: np.ndarray, steps: list[list[tuple[int, int, float]]]) -> np.ndarray:
    """lam of each row of `mus`: step by step, (1 - t) lam + t lam' with lam' = lam swapped at i, j."""
    lam, at = mus, np.arange(len(mus))
    for step in zip(*steps):  # the k-th step of every row
        i, j, t = (np.array(x) for x in zip(*step))
        swapped = lam.copy()
        swapped[at, i], swapped[at, j] = lam[at, j], lam[at, i]
        lam = (1.0 - t[:, None]) * lam + t[:, None] * swapped
    return lam


def nearby_state(psi: PureState, rng: np.random.Generator, eps: float) -> PureState:
    """Pure state at exact trace distance eps from psi (eps = sin of the angle)."""
    z = rng.standard_normal(psi.dim) + 1j * rng.standard_normal(psi.dim)
    z = z - np.vdot(psi.amplitudes, z) * psi.amplitudes
    z = z / np.linalg.norm(z)
    angle = math.asin(eps)
    return PureState(math.cos(angle) * psi.amplitudes + math.sin(angle) * z, psi.dims)


def concurrence(rho: DensityOperator) -> float:
    """Wootters' concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit state: the l_i are the singular
    values of W^T (Y x Y) W, W = vecs sqrt(vals) on rho's eigen support, padded with zeros to 4, so a
    rank-deficient state's zero l_i are exact."""
    if rho.dims != (2, 2):
        raise ValueError(f"concurrence formula needs a two-qubit state, got dims {rho.dims}")
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    vals, vecs = _eigen_support(rho)
    roots = vecs * np.sqrt(vals)
    lam = np.zeros(4)
    lam[: vals.size] = np.linalg.svd(roots.T @ np.kron(sy, sy) @ roots, compute_uv=False)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def wootters_eof(rho: DensityOperator) -> float:
    """Two-qubit entanglement of formation from the concurrence closed form."""
    conc = concurrence(rho)
    return binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - conc * conc))) if conc > 0.0 else 0.0


def suite_schur(seed: int = 0, trials: int = 10_000) -> SuiteResult:
    """Entropy never increases along a majorization: S(lam) >= S(mu) when lam < mu."""
    def draw(rng, trial):
        # mu ~ Dirichlet(1, ..., 1) of size 2-6 and 1-3 transpositions (i, j, weight t), padded to 3 by
        # no-ops (0, 1, 0.0); lam averages mu along them. mu is zero-padded to 6 entries, which changes no
        # bit of an average, a majorization test or an entropy: the entropy kernel drops entries at or
        # below the zero floor and sums a row of at most 7 entries left to right, so trailing zeros add 0.0s.
        size = int(rng.integers(2, 7))
        mu = np.zeros(6)
        mu[:size] = rng.dirichlet(np.ones(size))
        steps = [(0, 1, 0.0)] * 3
        for k in range(int(rng.integers(1, 4))):
            i, j = rng.choice(size, size=2, replace=False)
            steps[k] = (i, j, float(rng.uniform(0.0, 1.0)))
        return mu, size, steps, EntropyParams(float(rng.uniform(0.05, 4.0)), float(rng.uniform(0.0, 3.0)))

    def check(cases):
        mus = np.array([mu for mu, *_ in cases])
        lams = _averaged(mus, [steps for _, _, steps, _ in cases])
        ok = majorizes_rows(mus, lams).tolist()  # also validates both blocks as probability vectors
        points = np.array([p for *_, p in cases], dtype=object)[:, None]
        vals = unified_entropy_rows(np.stack([lams, mus], axis=1), points)
        gaps = (vals[:, 0] - vals[:, 1]).tolist()
        for j, (lam, (mu, size, _, p), good, gap) in enumerate(zip(lams, cases, ok, gaps)):
            if not good:
                yield j, "generated pair fails majorization"
            elif gap < -GAP_TOL:
                yield j, f"gap {gap} at alpha={p.alpha}, beta={p.beta}, lam={lam[:size]}, mu={mu[:size]}"

    return _run("schur", seed, trials, draw, check)


def suite_alpha_mono(seed: int = 0, trials: int = 10_000) -> SuiteResult:
    """Entropy is nonincreasing in alpha for beta >= 1."""
    dims_pool = [(2,), (3,), (4,), (2, 2), (2, 3)]

    def draw(rng, trial):
        dims = dims_pool[int(rng.integers(len(dims_pool)))]
        rank = int(rng.integers(1, math.prod(dims) + 1))
        lam = np.zeros(6)  # zero-padded as in `suite_schur`
        lam[: math.prod(dims)] = random_density(dims, rank=rank, seed=seed * 100_003 + trial).spectrum
        a_lo, a_hi = np.sort(rng.uniform(0.05, 4.0, size=2)).tolist()
        return lam, a_lo, a_hi, float(rng.uniform(1.0, 3.0))

    def check(cases):
        pairs = [[EntropyParams(a, beta) for a in (a_lo, a_hi)] for _, a_lo, a_hi, beta in cases]
        spectra = np.array([lam for lam, *_ in cases])
        vals = unified_entropy_rows(spectra[:, None], np.array(pairs, dtype=object))
        for j, ((_, a_lo, a_hi, beta), gap) in enumerate(zip(cases, (vals[:, 0] - vals[:, 1]).tolist())):
            if gap < -GAP_TOL:
                yield j, f"gap {gap} at alpha_lo={a_lo}, alpha_hi={a_hi}, beta={beta}"

    return _run("alpha-mono", seed, trials, draw, check)


def suite_ordering(seed: int = 0, trials: int = 1000) -> SuiteResult:
    """Lower-bound chain plus alpha-monotonicity of the measure on Haar states."""
    def draw(rng, trial):
        points = []  # alpha pairs (lo, hi) at a shared beta
        for _ in range(ALPHA_PAIRS):
            a_lo, a_hi = np.sort(rng.uniform(0.3, 3.5, size=2))
            beta = float(rng.uniform(1.0, 3.0))
            points += [EntropyParams(float(a_lo), beta), EntropyParams(float(a_hi), beta)]
        return haar_random((2, 2, 2, 2), seed=seed * 100_003 + trial), (1, 2, 3, 4), points

    def check(cases):
        for j, ((*_, points), (report, values)) in enumerate(zip(cases, ordering_reports(cases))):
            yield from ((j, f"{name} violated") for name, ok in report.checks.items() if not ok)
            for lo, hi, v_lo, v_hi in zip(points[::2], points[1::2], values[::2], values[1::2]):
                if v_lo < v_hi - GAP_TOL:
                    yield j, f"measure increased from alpha {lo.alpha} to {hi.alpha} at beta {lo.beta}"

    return _run("ordering", seed, trials, draw, check, 4 + 2 * ALPHA_PAIRS)  # 4 points of an ordering report


def suite_subadd(seed: int = 0, trials: int = 1000) -> SuiteResult:
    """E(s) + E(s') >= E(s u s') for disjoint subsets on the subadditive region."""
    alphas = (1.0, 1.5, 2.0, 3.0)

    def draw(rng, trial):
        psi = haar_random((2,) * 5, seed=seed * 100_003 + trial)
        labels = rng.permutation(5) + 1
        k1 = int(rng.integers(1, 4))
        k2 = int(rng.integers(1, 6 - k1))
        s = tuple(int(x) for x in labels[:k1])
        s2 = tuple(int(x) for x in labels[k1 : k1 + k2])
        return psi, s, s2, EntropyParams(alphas[int(rng.integers(len(alphas)))], 1.0)

    def check(cases):
        for j, ((_, s, s2, params), gap) in enumerate(zip(cases, subadditivity_gaps(cases))):
            if gap < -GAP_TOL:
                yield j, f"gap {gap} for s={s}, s'={s2}, alpha={params.alpha}"

    return _run("subadd", seed, trials, draw, check)


def suite_tensor_id(seed: int = 0, trials: int = 200) -> SuiteResult:
    """Composition identity across a tensor factorization, all branches."""
    def draw(rng, trial):
        dims_a = (2, 2) if rng.integers(2) else (2,)
        dims_b = (2, 2) if rng.integers(2) else (3,)
        psi_a = haar_random(dims_a, seed=seed * 100_003 + 2 * trial)
        psi_b = haar_random(dims_b, seed=seed * 100_003 + 2 * trial + 1)
        n = len(dims_a) + len(dims_b)
        labels = [int(x) for x in rng.permutation(n) + 1]
        s = tuple(sorted(labels[: int(rng.integers(1, n + 1))]))
        cycle = trial % 4
        if cycle == 0:
            params = EntropyParams.von_neumann()
        elif cycle == 1:
            params = EntropyParams.renyi(float(rng.uniform(0.3, 3.0)))
        elif cycle == 2:
            params = EntropyParams.linear()
        else:
            params = EntropyParams(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.2, 3.0)))
        return psi_a, psi_b, s, params

    def check(cases):
        for j, (psi_a, psi_b, s, p) in enumerate(cases):
            residual = tensor_identity_residual(psi_a, psi_b, s, p)
            if residual >= 1e-10:
                yield j, f"residual {residual} at alpha={p.alpha}, beta={p.beta}, s={s}"

    return _run("tensor-id", seed, trials, draw, check)


def suite_continuity(seed: int = 0, trials: int = 500) -> SuiteResult:
    """Both continuity bounds on random nearby pure-state pairs."""
    def draw(rng, trial):
        psi = haar_random((2, 2, 2), seed=seed * 100_003 + trial)
        eps = float(rng.uniform(0.01, 0.399))
        phi = nearby_state(psi, rng, eps)
        if trial % 2 == 0:
            return psi, phi, eps, EntropyParams(float(rng.uniform(1.2, 4.0)), float(rng.uniform(1.0, 3.0)))
        return psi, phi, eps, EntropyParams.von_neumann()

    def check(cases):
        for j, (psi, phi, eps, p) in enumerate(cases):
            lhs, bound = continuity_gap(psi, phi, (1, 2, 3), p)
            if lhs > bound + GAP_TOL:
                yield j, f"|dE| {lhs} exceeds bound {bound} at alpha={p.alpha}, beta={p.beta}, eps={eps}"

    return _run("continuity", seed, trials, draw, check)


def suite_locc(seed: int = 0, trials: int = 500) -> SuiteResult:
    """Average measure never increases under rank-1 local instruments."""
    def draw(rng, trial):
        # z, then two vectors a_i, each normed on its own: a stacked norm differs in the last bits
        psi = haar_random((2, 2, 2), seed=seed * 100_003 + trial)
        site = int(rng.integers(1, 4))
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2)]
        return psi, site, z, [v / np.linalg.norm(v) for v in a], sample_concavity_params(rng)

    def check(cases):
        # Measure-and-prepare instruments: K_i = |a_i><b_i|, b_i the i-th column of z's QR basis.
        basis, _ = np.linalg.qr(np.stack([z for _, _, z, _, _ in cases]))
        a = np.array([a for *_, a, _ in cases])
        kraus = a[..., :, None] * basis.conj().swapaxes(-1, -2)[..., None, :]
        jobs = [(psi, (1, 2, 3), params, site, k) for (psi, site, _, _, params), k in zip(cases, kraus)]
        for j, ((_, _, p, site, _), gap) in enumerate(zip(jobs, locc_monotonicity_gaps(jobs))):
            if gap < -GAP_TOL:
                yield j, f"gap {gap} at site {site}, alpha={p.alpha}, beta={p.beta}"

    return _run("locc", seed, trials, draw, check)


def suite_swap_consistency(seed: int = 0, trials: int = 100) -> SuiteResult:
    """Exact SWAP-test distribution reproduces the linear-entropy measure."""
    fixed = [(f"{name}:{n}", make(n)) for n in (3, 4, 5) for name, make in (("ghz", ghz), ("w", w))]
    fixed += [(f"dicke:4:{k}", dicke(4, k)) for k in range(5)]

    def draw(rng, i):
        if i < len(fixed):
            return fixed[i]
        trial = i - len(fixed)
        n = 2 + trial % 4
        return f"haar:{n}q:{trial}", haar_random((2,) * n, seed=seed * 100_003 + trial)

    def check(cases):
        # Only C is compared, so only the linear point is evaluated; both sides make one stacked call per n.
        jobs = [(psi, tuple(range(1, psi.n_subsystems + 1)), BENCHMARKS["c"]) for _, psi in cases]
        got = {}
        for idx in _groups(psi.dims for psi, _, _ in jobs):
            probs = swap_test_rows(np.stack([jobs[i][0].amplitudes for i in idx]), jobs[idx[0]][0].dims)
            got.update(zip(idx, cce_from_rows(probs, jobs[idx[0]][1]).tolist()))
        for j, want in enumerate(cce_values(jobs)):
            if abs(got[j] - want) > SWAP_TOL:
                yield j, f"swap-test {got[j]} vs direct {want}"

    return _run("swap-consistency", seed, len(fixed) + trials, draw, check, label=lambda case: case[0])


def suite_roof_separable(seed: int = 0, trials: int = 20) -> SuiteResult:
    """Roof upper bound collapses on constructed fully separable states."""
    def draw(rng, trial):
        probs = rng.dirichlet(np.ones(int(rng.integers(2, 5))))
        base = seed * 100_003 + 10 * trial
        members = tuple((float(p), random_product((2, 2), seed=base + i)) for i, p in enumerate(probs))
        return trial, Ensemble(members)

    def check(cases):
        for j, (trial, ens) in enumerate(cases):
            result = cce_mixed_upper(
                ens.density(), (1, 2), EntropyParams.von_neumann(),
                budget=(2, 400), seed=seed + trial, seed_ensembles=[ens],
            )
            if result.upper_bound > 1e-3:
                yield j, f"upper bound {result.upper_bound} > 1e-3"

    return _run("roof-separable", seed, trials, draw, check)


def suite_roof_eof(seed: int = 0, trials: int = 20) -> SuiteResult:
    """Roof at s={1}, von Neumann branch, against the concurrence closed form.

    The measure averages over P({1}) = {empty, {1}}, so its roof equals half
    the entanglement of formation.
    """
    def draw(rng, trial):
        return trial, random_density((2, 2), rank=2, seed=seed * 100_003 + trial)

    def check(cases):
        for j, (trial, rho) in enumerate(cases):
            result = cce_mixed_upper(
                rho, (1,), EntropyParams.von_neumann(), budget=(6, 1000), seed=seed + trial
            )
            target = 0.5 * wootters_eof(rho)
            err = result.upper_bound - target
            if abs(err) > 5e-3:
                yield j, f"upper bound {result.upper_bound} vs EOF/2 {target} (err {err})"

    return _run("roof-eof", seed, trials, draw, check)


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "schur": suite_schur,
    "alpha-mono": suite_alpha_mono,
    "ordering": suite_ordering,
    "subadd": suite_subadd,
    "tensor-id": suite_tensor_id,
    "continuity": suite_continuity,
    "locc": suite_locc,
    "swap-consistency": suite_swap_consistency,
    "roof-separable": suite_roof_separable,
    "roof-eof": suite_roof_eof,
}

#: Trial counts of a full run: each suite's own default.
DEFAULT_TRIALS: dict[str, int] = {
    name: inspect.signature(suite).parameters["trials"].default for name, suite in SUITES.items()
}


def run_suite(name: str, seed: int = 0, trials: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    trials = trials if trials is not None else DEFAULT_TRIALS[name]
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return SUITES[name](seed=seed, trials=trials)
