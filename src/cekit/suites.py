"""Randomized property sweeps behind `cekit verify`, with reproduction seeds.

Each suite draws its cases from a seeded generator and reports every
violation as a string carrying enough detail to replay it. Tolerances are
fixed here, not configurable, because they are part of what is being
verified.

The `schur`, `alpha-mono`, `ordering`, `subadd`, `locc` and
`swap-consistency` suites draw the inputs of a batch of trials first, in
the generator order of a trial-by-trial loop, then evaluate the batch in
stacked kernel calls: one eigensolve per cut dimension and one entropy
call per cut plan. `schur` and `alpha-mono` make one entropy call per
batch on vectors zero-padded to 6 entries, and `schur` one majorization
test. `subadd` evaluates a batch on one plan over the cover of its
subsets (all five qubits). `locc` builds a batch's instruments with one
stacked QR, applies them in one stacked `local_kraus_branches` call, and
evaluates the states and their kept branches on one plan. A batch holds
64 trials (`_BATCH`), or fewer when a trial evaluates many points: at
most 512 (state, point) evaluations (`_BATCH_POINTS`), so `ordering`, at
44 points a trial, takes 11. Outputs are the trial-by-trial ones, bit for
bit, and memory is bounded by the batch.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convex_roof import Ensemble, cce_mixed_upper
from .entropy import EntropyParams, binary_entropy, majorizes_rows, unified_entropy_rows
from .measures import (
    BENCHMARKS,
    cce_values,
    continuity_gap,
    locc_monotonicity_gaps,
    ordering_reports,
    subadditivity_gaps,
    tensor_identity_residual,
)
from .states import dicke, ghz, haar_random, random_density, random_product, w
from .swaptest import cce_from_distribution, swap_test_distribution
from .tensor import DensityOperator, PureState

__all__ = [
    "SuiteResult",
    "SUITES",
    "DEFAULT_TRIALS",
    "run_suite",
    "wootters_eof",
    "sample_concavity_params",
    "random_majorization_pair",
    "random_rank1_instrument",
    "nearby_state",
]

GAP_TOL = 1e-10
_BATCH = 64  # trials drawn, then evaluated together
_BATCH_POINTS = 512  # and the (state, point) evaluations they may hold: bounds a batch's memory


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


def _transposition_draws(rng: np.random.Generator, size: int) -> tuple[np.ndarray, list[tuple[int, int, float]]]:
    """mu ~ Dirichlet(1, ..., 1) and 1-3 transpositions (i, j, weight t), padded to 3 by no-ops (0, 1, 0.0)."""
    mu = rng.dirichlet(np.ones(size))
    steps = [(0, 1, 0.0)] * 3
    for k in range(int(rng.integers(1, 4))):
        i, j = rng.choice(size, size=2, replace=False)
        steps[k] = (i, j, float(rng.uniform(0.0, 1.0)))
    return mu, steps


def _averaged(mus: np.ndarray, steps: list[list[tuple[int, int, float]]]) -> np.ndarray:
    """lam of each row of `mus`: step by step, (1 - t) lam + t lam' with lam' = lam swapped at i, j."""
    lam, at = mus, np.arange(len(mus))
    for step in zip(*steps):  # the k-th step of every row
        i, j, t = (np.array(x) for x in zip(*step))
        swapped = lam.copy()
        swapped[at, i], swapped[at, j] = lam[at, j], lam[at, i]
        lam = (1.0 - t[:, None]) * lam + t[:, None] * swapped
    return lam


def random_majorization_pair(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(lam, mu) with mu majorizing lam, built by averaging transpositions."""
    mu, steps = _transposition_draws(rng, size)
    return _averaged(mu[None], [steps])[0], mu


def _instrument_draws(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """One instrument's draws: a d x d complex Gaussian z, then d complex
    Gaussian vectors a_i scaled to unit norm, the rows of a."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = np.empty((d, d), dtype=complex)
    for row in a:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        row[:] = v / np.linalg.norm(v)  # per vector: a stacked norm differs in the last bits
    return z, a


def _instruments(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Kraus sets (N, d, d, d) from stacked draws z and a, (N, d, d) each:
    K_i = |a_i><b_i|, b_i the i-th column of z's QR basis."""
    basis, _ = np.linalg.qr(z)
    return a[..., :, None] * basis.conj().swapaxes(-1, -2)[..., None, :]


def random_rank1_instrument(rng: np.random.Generator, d: int = 2) -> list[np.ndarray]:
    """Measure-and-prepare channel: K_i = |a_i><b_i| over an orthonormal {b_i}."""
    z, a = _instrument_draws(rng, d)
    return list(_instruments(z[None], a[None])[0])


def nearby_state(psi: PureState, rng: np.random.Generator, eps: float) -> PureState:
    """Pure state at exact trace distance eps from psi (eps = sin of the angle)."""
    z = rng.standard_normal(psi.dim) + 1j * rng.standard_normal(psi.dim)
    z = z - np.vdot(psi.amplitudes, z) * psi.amplitudes
    z = z / np.linalg.norm(z)
    angle = math.asin(eps)
    return PureState(math.cos(angle) * psi.amplitudes + math.sin(angle) * z, psi.dims)


def wootters_eof(rho: DensityOperator) -> float:
    """Two-qubit entanglement of formation from the concurrence closed form."""
    if rho.dims != (2, 2):
        raise ValueError(f"concurrence formula needs a two-qubit state, got dims {rho.dims}")
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    rho_tilde = yy @ rho.matrix.conj() @ yy
    evals = np.linalg.eigvals(rho.matrix @ rho_tilde)
    lam = np.sort(np.sqrt(np.clip(evals.real, 0.0, None)))[::-1]
    conc = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
    if conc == 0.0:
        return 0.0
    x = 0.5 * (1.0 + math.sqrt(1.0 - conc * conc))
    return binary_entropy(x)


def suite_schur(seed: int = 0, trials: int = 10_000) -> SuiteResult:
    """Entropy never increases along a majorization: S(lam) >= S(mu) when lam < mu."""
    rng = np.random.default_rng(seed)
    failures = []
    for batch in _batches(trials):
        # Sizes 2-6, stacked with zero padding, which changes no bit of an average, a majorization
        # test or an entropy: the entropy kernel drops entries at or below the zero floor and sums
        # a row of at most 7 entries left to right, so trailing zeros add exact 0.0s.
        mus, drawn = np.zeros((len(batch), 6)), []
        for row in mus:
            mu, steps = _transposition_draws(rng, int(rng.integers(2, 7)))
            row[: mu.size] = mu
            drawn.append((mu, steps, EntropyParams(float(rng.uniform(0.05, 4.0)), float(rng.uniform(0.0, 3.0)))))
        lams = _averaged(mus, [steps for _, steps, _ in drawn])
        ok = majorizes_rows(mus, lams).tolist()  # also validates both blocks as probability vectors
        points = np.array([p for _, _, p in drawn], dtype=object)[:, None]
        vals = unified_entropy_rows(np.stack([lams, mus], axis=1), points)
        gaps = (vals[:, 0] - vals[:, 1]).tolist()
        for trial, lam, (mu, _, p), good, gap in zip(batch, lams, drawn, ok, gaps):
            if not good:
                failures.append(f"trial {trial} seed {seed}: generated pair fails majorization")
            elif gap < -GAP_TOL:
                failures.append(
                    f"trial {trial} seed {seed}: gap {gap} at alpha={p.alpha}, beta={p.beta}, "
                    f"lam={lam[: mu.size]}, mu={mu}"
                )
    return SuiteResult("schur", trials, failures)


def suite_alpha_mono(seed: int = 0, trials: int = 10_000) -> SuiteResult:
    """Entropy is nonincreasing in alpha for beta >= 1."""
    rng = np.random.default_rng(seed)
    dims_pool = [(2,), (3,), (4,), (2, 2), (2, 3)]
    failures = []
    for batch in _batches(trials):
        spectra, cases = np.zeros((len(batch), 6)), []  # zero-padded as in `suite_schur`
        for trial, row in zip(batch, spectra):
            dims = dims_pool[int(rng.integers(len(dims_pool)))]
            rho = random_density(dims, rank=int(rng.integers(1, math.prod(dims) + 1)), seed=seed * 100_003 + trial)
            row[: rho.spectrum.size] = rho.spectrum
            a_lo, a_hi = np.sort(rng.uniform(0.05, 4.0, size=2)).tolist()
            cases.append((a_lo, a_hi, float(rng.uniform(1.0, 3.0))))
        pairs = [[EntropyParams(a, beta) for a in (a_lo, a_hi)] for a_lo, a_hi, beta in cases]
        vals = unified_entropy_rows(spectra[:, None], np.array(pairs, dtype=object))
        for trial, (a_lo, a_hi, beta), gap in zip(batch, cases, (vals[:, 0] - vals[:, 1]).tolist()):
            if gap < -GAP_TOL:
                failures.append(
                    f"trial {trial} seed {seed}: gap {gap} at alpha_lo={a_lo}, alpha_hi={a_hi}, beta={beta}"
                )
    return SuiteResult("alpha-mono", trials, failures)


def suite_ordering(seed: int = 0, trials: int = 1000, alpha_pairs: int = 20) -> SuiteResult:
    """Lower-bound chain plus alpha-monotonicity of the measure on Haar states."""
    rng = np.random.default_rng(seed)
    failures = []
    for batch in _batches(trials, 4 + 2 * alpha_pairs):  # 4 points of an ordering report
        cases, drawn = [], []
        for trial in batch:
            pairs = [
                (*np.sort(rng.uniform(0.3, 3.5, size=2)), float(rng.uniform(1.0, 3.0))) for _ in range(alpha_pairs)
            ]
            points = [EntropyParams(float(a), beta) for a_lo, a_hi, beta in pairs for a in (a_lo, a_hi)]
            cases.append((haar_random((2, 2, 2, 2), seed=seed * 100_003 + trial), (1, 2, 3, 4), points))
            drawn.append(pairs)
        for trial, pairs, (report, values) in zip(batch, drawn, ordering_reports(cases)):
            for name, ok in report.checks.items():
                if not ok:
                    failures.append(f"trial {trial} seed {seed}: {name} violated")
            for (a_lo, a_hi, beta), lo, hi in zip(pairs, values[::2], values[1::2]):
                if lo < hi - GAP_TOL:
                    failures.append(
                        f"trial {trial} seed {seed}: measure increased from alpha {a_lo} to {a_hi} at beta {beta}"
                    )
    return SuiteResult("ordering", trials, failures)


def suite_subadd(seed: int = 0, trials: int = 1000) -> SuiteResult:
    """E(s) + E(s') >= E(s u s') for disjoint subsets on the subadditive region."""
    rng = np.random.default_rng(seed)
    alphas = (1.0, 1.5, 2.0, 3.0)
    failures = []
    for batch in _batches(trials):
        cases = []
        for trial in batch:
            psi = haar_random((2,) * 5, seed=seed * 100_003 + trial)
            labels = rng.permutation(5) + 1
            k1 = int(rng.integers(1, 4))
            k2 = int(rng.integers(1, 6 - k1))
            s = tuple(int(x) for x in labels[:k1])
            s2 = tuple(int(x) for x in labels[k1 : k1 + k2])
            cases.append((psi, s, s2, EntropyParams(alphas[int(rng.integers(len(alphas)))], 1.0)))
        for trial, (_, s, s2, params), gap in zip(batch, cases, subadditivity_gaps(cases)):
            if gap < -GAP_TOL:
                failures.append(
                    f"trial {trial} seed {seed}: gap {gap} for s={s}, s'={s2}, alpha={params.alpha}"
                )
    return SuiteResult("subadd", trials, failures)


def suite_tensor_id(seed: int = 0, trials: int = 200) -> SuiteResult:
    """Composition identity across a tensor factorization, all branches."""
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(trials):
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
        residual = tensor_identity_residual(psi_a, psi_b, s, params)
        if residual >= 1e-10:
            failures.append(
                f"trial {trial} seed {seed}: residual {residual} at alpha={params.alpha}, "
                f"beta={params.beta}, s={s}"
            )
    return SuiteResult("tensor-id", trials, failures)


def suite_continuity(seed: int = 0, trials: int = 500) -> SuiteResult:
    """Both continuity bounds on random nearby pure-state pairs."""
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(trials):
        psi = haar_random((2, 2, 2), seed=seed * 100_003 + trial)
        eps = float(rng.uniform(0.01, 0.399))
        phi = nearby_state(psi, rng, eps)
        if trial % 2 == 0:
            params = EntropyParams(float(rng.uniform(1.2, 4.0)), float(rng.uniform(1.0, 3.0)))
        else:
            params = EntropyParams.von_neumann()
        lhs, bound = continuity_gap(psi, phi, (1, 2, 3), params)
        if lhs > bound + GAP_TOL:
            failures.append(
                f"trial {trial} seed {seed}: |dE| {lhs} exceeds bound {bound} at "
                f"alpha={params.alpha}, beta={params.beta}, eps={eps}"
            )
    return SuiteResult("continuity", trials, failures)


def suite_locc(seed: int = 0, trials: int = 500) -> SuiteResult:
    """Average measure never increases under rank-1 local instruments."""
    rng = np.random.default_rng(seed)
    failures = []
    for batch in _batches(trials):
        drawn, zs, avecs = [], [], []
        for trial in batch:
            psi = haar_random((2, 2, 2), seed=seed * 100_003 + trial)
            site = int(rng.integers(1, 4))
            z, a = _instrument_draws(rng, 2)
            zs.append(z)
            avecs.append(a)
            drawn.append((psi, (1, 2, 3), sample_concavity_params(rng), site))
        cases = [(*case, kraus) for case, kraus in zip(drawn, _instruments(np.stack(zs), np.stack(avecs)))]
        for trial, (_, _, params, site, _), gap in zip(batch, cases, locc_monotonicity_gaps(cases)):
            if gap < -GAP_TOL:
                failures.append(
                    f"trial {trial} seed {seed}: gap {gap} at site {site}, "
                    f"alpha={params.alpha}, beta={params.beta}"
                )
    return SuiteResult("locc", trials, failures)


def suite_swap_consistency(seed: int = 0, trials: int = 100) -> SuiteResult:
    """Exact SWAP-test distribution reproduces the linear-entropy measure."""
    fixed: list[tuple[str, PureState]] = []
    for n in (3, 4, 5):
        fixed.append((f"ghz:{n}", ghz(n)))
        fixed.append((f"w:{n}", w(n)))
    for k in range(5):
        fixed.append((f"dicke:4:{k}", dicke(4, k)))
    failures = []
    for batch in _batches(len(fixed) + trials):
        cases = [fixed[i] for i in batch if i < len(fixed)]
        for trial in (i - len(fixed) for i in batch if i >= len(fixed)):
            n = 2 + trial % 4
            cases.append((f"haar:{n}q:{trial}", haar_random((2,) * n, seed=seed * 100_003 + trial)))
        # Only C is compared, so only the linear point is evaluated, grouped by n.
        jobs = [(psi, tuple(range(1, psi.n_subsystems + 1)), BENCHMARKS["c"]) for _, psi in cases]
        for (label, psi), (_, s, _), want in zip(cases, jobs, cce_values(jobs)):
            got = cce_from_distribution(swap_test_distribution(psi), s)
            if abs(got - want) > 1e-10:
                failures.append(f"{label} seed {seed}: swap-test {got} vs direct {want}")
    return SuiteResult("swap-consistency", len(fixed) + trials, failures)


def suite_roof_separable(seed: int = 0, trials: int = 20) -> SuiteResult:
    """Roof upper bound collapses on constructed fully separable states."""
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(trials):
        k = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(k))
        members = tuple(
            (float(p), random_product((2, 2), seed=seed * 100_003 + 10 * trial + i))
            for i, p in enumerate(probs)
        )
        ens = Ensemble(members)
        rho = ens.density()
        result = cce_mixed_upper(
            rho, (1, 2), EntropyParams.von_neumann(),
            budget=(2, 400), seed=seed + trial, seed_ensembles=[ens],
        )
        if result.upper_bound > 1e-3:
            failures.append(f"trial {trial} seed {seed}: upper bound {result.upper_bound} > 1e-3")
    return SuiteResult("roof-separable", trials, failures)


def suite_roof_eof(seed: int = 0, trials: int = 20) -> SuiteResult:
    """Roof at s={1}, von Neumann branch, against the concurrence closed form.

    The measure averages over P({1}) = {empty, {1}}, so its roof equals half
    the entanglement of formation.
    """
    failures = []
    for trial in range(trials):
        rho = random_density((2, 2), rank=2, seed=seed * 100_003 + trial)
        result = cce_mixed_upper(
            rho, (1,), EntropyParams.von_neumann(), budget=(6, 1000), seed=seed + trial
        )
        target = 0.5 * wootters_eof(rho)
        err = result.upper_bound - target
        if abs(err) > 5e-3:
            failures.append(
                f"trial {trial} seed {seed}: upper bound {result.upper_bound} vs EOF/2 {target} (err {err})"
            )
    return SuiteResult("roof-eof", trials, failures)


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
    return SUITES[name](seed=seed, trials=trials)
