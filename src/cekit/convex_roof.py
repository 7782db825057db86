"""Mixed-state measure as a convex-roof upper bound over decompositions.

Every pure-state decomposition of a rank-r state rho arises from an
isometry ("mixer") applied to the square-rooted eigenvectors, so the
minimization runs over mixers. The search is a seeded, restart-based
pattern search over Givens angles and phases of the mixer, applied as row
phases and two-row rotations; it returns the best ensemble average found,
which upper-bounds the true roof but is never claimed to attain it.

Restarts are independent in their results but advance in lockstep: each
round evaluates the pending candidates of every live restart in one batched
objective call, whose values are bit-identical to evaluating each alone.
A restart's pending candidates are the whole rest of its current compass
sweep; it reads their values in order up to the first accepted move and
discards the rest, so no result depends on them, and its evaluation budget
counts the consumed values only.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .entropy import EntropyParams
from .errors import ResourceLimitError
from .measures import (
    BENCHMARKS,
    CutPlan,
    _chain_checks,
    cce_values,
    cut_plan,
    member_spectra,
    normalize_subset,
    ordering_reports,
    table_terms,
)
from .tensor import DensityOperator, PureState

__all__ = [
    "MAX_ROOF_RANK",
    "Ensemble",
    "RestartTrace",
    "RoofResult",
    "MixedOrderingResult",
    "mixing_ensemble",
    "mixer_for_ensemble",
    "cce_mixed_upper",
    "mixed_ordering_spotcheck",
]

MAX_ROOF_RANK = 6
RANK_EIG_TOL = 1e-12
MEMBER_DROP_TOL = 1e-12
ISOMETRY_ATOL = 1e-10


@dataclass(frozen=True)
class Ensemble:
    """Finite pure-state decomposition: positive weights summing to one."""

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("ensemble must have at least one member")
        if not all(p > 0 for p, _ in self.members):  # `not >`: also NaN
            raise ValueError("member probabilities must be positive")
        total = math.fsum(p for p, _ in self.members)
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"probabilities must sum to 1 within 1e-10, got {total}")

    def _matrix(self) -> np.ndarray:
        return sum(p * np.outer(s.amplitudes, s.amplitudes.conj()) for p, s in self.members)

    def density(self) -> DensityOperator:
        return DensityOperator(self._matrix(), self.members[0][1].dims)

    def reconstruction_error(self, rho: DensityOperator) -> float:
        return float(np.linalg.norm(self._matrix() - rho.matrix))

    def average(self, subset: Iterable[int], params: EntropyParams) -> float:
        s = normalize_subset(subset, self.members[0][1].n_subsystems)  # raises on (), which `cce_values` takes as 0
        values = cce_values([(psi, s, params) for _, psi in self.members])
        return math.fsum(p * value for (p, _), value in zip(self.members, values))

    def to_dict(self) -> dict:
        return {
            "members": [
                {
                    "p": p,
                    "amplitudes": [[float(a.real), float(a.imag)] for a in s.amplitudes],
                    "dims": list(s.dims),
                }
                for p, s in self.members
            ]
        }


@dataclass(frozen=True)
class RestartTrace:
    """How one roof restart went: its start (`eigen`, `seed` or `random`),
    the objective evaluations its search consumed, the values computed for
    it (consumed plus discarded speculative ones), its final ensemble
    average and whether its step fell below tolerance."""

    start: str
    evals: int
    computed: int
    value: float
    converged: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RoofResult:
    upper_bound: float
    best_ensemble: Ensemble
    restarts_used: int
    converged: bool
    restarts: tuple[RestartTrace, ...] = ()

    def to_dict(self) -> dict:
        return {
            "upper_bound": self.upper_bound,
            "restarts_used": self.restarts_used,
            "converged": self.converged,
            "restarts": [t.to_dict() for t in self.restarts],
            "best_ensemble": self.best_ensemble.to_dict(),
        }


def _eigen_support(rho: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(rho.matrix)
    keep = vals > RANK_EIG_TOL
    order = np.argsort(vals[keep])[::-1]
    return vals[keep][order], vecs[:, keep][:, order]


def _roof_support(rho: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """`_eigen_support` of a state whose rank the roof guard admits."""
    vals, vecs = _eigen_support(rho)
    if vals.size > MAX_ROOF_RANK:
        raise ResourceLimitError(f"rank {vals.size} exceeds the roof guard of {MAX_ROOF_RANK}")
    return vals, vecs


def _members(raws: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, normalized columns and matrix indices of the member columns,
    not lighter than 1e-12, of every matrix in the stacks `raws` (n, D, m)."""
    cols = [raw.swapaxes(-1, -2) for raw in raws]
    # One BLAS dot product per column, read in place along its stride: that
    # fixes the summation order, which a contiguous copy would change for D >= 8.
    p = np.concatenate([np.matmul(c.conj()[..., None, :], c[..., :, None]).real.reshape(-1) for c in cols])
    owner = np.repeat(np.arange(sum(map(len, cols))), [c.shape[1] for c in cols for _ in c])
    kept = np.flatnonzero(p >= MEMBER_DROP_TOL)
    rows = np.concatenate([c.reshape(-1, c.shape[-1]) for c in cols])[kept]
    return p[kept], rows / np.sqrt(p[kept])[:, None], owner[kept]


def _raw_averages(raws: Sequence[np.ndarray], plan: CutPlan, params: EntropyParams) -> list[float]:
    """Ensemble average of the measure for every matrix of unnormalized member
    columns in the stacks `raws`, from one spectra table over all members.

    Skips the dataclass layer; used only inside the optimizer's inner loop,
    the reported result is always re-evaluated through the public path.
    Each member's terms are summed in mask order, then weighted, in member
    order per matrix, so a value does not depend on the other matrices.
    """
    p, members, owner = _members(raws)
    spectra = member_spectra(plan, members.reshape((-1,) + plan.dims))
    # A plan without cuts (one subsystem) yields one row of zeros for all members.
    terms = np.broadcast_to(table_terms(spectra, params), (p.size, plan.n_masks))
    acc = np.zeros(p.size)
    for column in terms.T:
        acc += column
    totals = np.zeros(sum(map(len, raws)))
    # Unbuffered: adds each member's share to its matrix's total in member order.
    np.add.at(totals, owner, p * acc * (1.0 / plan.n_masks))
    return totals.tolist()


def mixing_ensemble(rho: DensityOperator, mixer: np.ndarray) -> Ensemble:
    """Decomposition of rho induced by an isometric mixer on its support.

    Row i of the m x r mixer combines the square-rooted eigenvectors into
    the unnormalized member |psi_i>; members lighter than 1e-12 are dropped.
    """
    return _support_ensemble(rho, *_eigen_support(rho), mixer)


def _support_ensemble(rho: DensityOperator, vals, vecs, mixer: np.ndarray) -> Ensemble:
    """`mixing_ensemble` given the eigen support (vals, vecs) of rho."""
    mixer = np.asarray(mixer, dtype=complex)
    r = vals.size
    if mixer.ndim != 2 or mixer.shape[1] != r:
        raise ValueError(f"mixer must have shape (m, {r}), got {mixer.shape}")
    m = mixer.shape[0]
    if m < r:
        raise ValueError(f"mixer needs at least {r} rows, got {m}")
    if m > r * r:
        raise ValueError(f"mixer rows capped at r^2 = {r * r}, got {m}")
    # The finite check first: a NaN or inf entry would warn in the product and pass a `> atol` test.
    if not (np.isfinite(mixer).all() and np.abs(mixer.conj().T @ mixer - np.eye(r)).max() <= ISOMETRY_ATOL):
        raise ValueError("mixer columns are not orthonormal")
    roots = vecs * np.sqrt(vals)
    weights, rows, _ = _members([(roots @ mixer.T)[None]])
    total = math.fsum(weights.tolist())
    return Ensemble(tuple((p / total, PureState(v, rho.dims)) for p, v in zip(weights.tolist(), rows)))


def mixer_for_ensemble(rho: DensityOperator, ensemble: Ensemble) -> np.ndarray:
    """Mixer that reproduces a known decomposition of rho (e.g. a constructed
    separable one), used to seed a restart."""
    return _support_mixer(rho, *_eigen_support(rho), ensemble)


def _support_mixer(rho: DensityOperator, vals, vecs, ensemble: Ensemble) -> np.ndarray:
    """`mixer_for_ensemble` given the eigen support (vals, vecs) of rho."""
    r = vals.size
    if ensemble.reconstruction_error(rho) > 1e-8:
        raise ValueError("ensemble does not reconstruct rho")
    weighted = [math.sqrt(p) * s.amplitudes for p, s in ensemble.members]
    mixer = np.array([(vecs.conj().T @ wk) / np.sqrt(vals) for wk in weighted])
    # Scrub the tiny non-isometry left by the eigenbasis projection.
    u, _, vh = np.linalg.svd(mixer, full_matrices=False)
    mixer = u @ vh
    if mixer.shape[0] > r * r:
        raise ValueError(f"ensemble size {mixer.shape[0]} exceeds the r^2 cap {r * r}")
    return mixer


def _mixers(theta: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Mixers (n, m, r), one per row of theta (n, n_params(m)), applied to
    the start mixers `kept` (n, m, r): m diagonal phases scale the rows, then
    each Givens (angle, phase) pair, in order, updates its two rows. Only the
    r columns are touched; no m x m unitary is formed."""
    m = kept.shape[1]
    # Angles and rows first, mixers last: a row update is one pass over all mixers.
    t = np.ascontiguousarray(theta.T)
    cos, sin = np.cos(t), np.sin(t)
    phase = cos + 1j * sin  # exp(1j * t), bit for bit
    w = np.ascontiguousarray(kept.transpose(1, 2, 0)) * phase[:m, None]
    c, s, e = cos[m::2], sin[m::2], phase[m + 1 :: 2]
    # Rows (i, j) become (c w_i - e s w_j, conj(e) s w_i + c w_j).
    coef = np.stack([c, e.conj() * s, -e * s, c], axis=1)[:, :, None]
    for pos, (i, j) in enumerate(itertools.combinations(range(m), 2)):
        w[i : j + 1 : j - i] = coef[pos, :2] * w[i] + coef[pos, 2:] * w[j]
    return np.ascontiguousarray(w.transpose(2, 0, 1))


def _n_params(m: int) -> int:
    return m + m * (m - 1)


def _compass(x0: np.ndarray, max_evals: int, step0: float = 0.5, step_tol: float = 1e-4):
    """Compass search: sweep coordinates, halve the step on stalled sweeps.

    A speculative generator: it yields the rest of the current sweep from
    the current point as candidate rows (k, +step), (k, -step), ... for k
    from k0 on, cut to the remaining budget, and is sent their values. It
    consumes them in order up to the first accepted one and discards the
    rest, so the path and the evaluation count (consumed values only) are
    those of trying one candidate at a time. Returns (x, fx, converged, evals).
    """
    x = x0.copy()
    (fx,) = yield x[None]
    evals = 1
    step = step0
    converged = False
    # Sweep slot j moves coordinate j // 2 by signs[j] * step.
    signs = np.tile((1.0, -1.0), x.size)
    coords = np.arange(2 * x.size) // 2
    while evals < max_evals:
        improved = False
        k0 = 0
        while k0 < x.size and evals < max_evals:
            slots = slice(2 * k0, min(2 * x.size, 2 * k0 + max_evals - evals))
            ks = coords[slots]
            cands = np.repeat(x[None], ks.size, axis=0)
            cands[np.arange(ks.size), ks] += signs[slots] * step
            values = yield cands
            k0 = x.size
            for j, fc in enumerate(values):
                evals += 1
                if fc < fx - 1e-14:
                    x, fx, improved = cands[j], fc, True
                    k0 = int(ks[j]) + 1
                    break
        if not improved:
            step *= 0.5
            if step < step_tol:
                converged = True
                break
    return x, fx, converged, evals


def cce_mixed_upper(
    rho: DensityOperator,
    subset: Iterable[int],
    params: EntropyParams,
    *,
    budget: tuple[int, int] = (50, 500),
    seed: int = 0,
    seed_ensembles: Sequence[Ensemble] = (),
) -> RoofResult:
    """Upper bound on the convex-roof measure of a mixed state.

    `budget` is (restarts, objective evaluations per restart). Restart 0
    always starts from the eigendecomposition ensemble; any seed ensembles
    follow; remaining restarts start from seeded random mixer angles. The
    reduction takes the minimum with ties broken by lowest restart index,
    so results are reproducible under a fixed seed.

    Each round evaluates, for every live restart, the rest of its current
    coordinate sweep (cut to its remaining budget) in one batch. A restart
    consumes those values in order up to its first accepted move; only
    consumed values count against the budget, and the values past that
    move are discarded without affecting any result. `RoofResult.restarts`
    reports both counts per restart.
    """
    s = normalize_subset(subset, rho.n_subsystems)
    vals, vecs = _roof_support(rho)
    r = int(vals.size)
    restarts, max_evals = budget
    if restarts < 1 or max_evals < 1:
        raise ValueError(f"budget must be positive, got {budget}")

    if r == 1:
        ens = _support_ensemble(rho, vals, vecs, np.eye(1))
        return RoofResult(ens.average(s, params), ens, restarts_used=0, converged=True)

    m = min(r * r, r + 2)

    # (start mixer, start angles) per restart; the search multiplies the mixer by unitaries.
    starts: list[tuple[np.ndarray, np.ndarray]] = [(np.eye(m, r, dtype=complex), np.zeros(_n_params(m)))]
    for ens in seed_ensembles:
        v0 = _support_mixer(rho, vals, vecs, ens)
        m_k = max(m, v0.shape[0])
        starts.append((np.vstack([v0, np.zeros((m_k - v0.shape[0], r), dtype=complex)]), np.zeros(_n_params(m_k))))
    children = np.random.SeedSequence(seed).spawn(max(0, restarts - len(starts)))
    for child in children:
        rng = np.random.default_rng(child)
        starts.append((np.eye(m, r, dtype=complex), rng.uniform(-math.pi, math.pi, size=_n_params(m))))

    roots = vecs * np.sqrt(vals)
    # Unpaired plan: pairing would halve the eigensolves on full subsets but
    # move objective values, and with them the search path, in the last bits.
    plan = cut_plan(rho.dims, s, use_symmetry=False)
    # Restarts are independent searches advanced in lockstep: each round
    # evaluates the pending candidates of every live restart in one batch.
    searches = [_compass(x0, max_evals) for _, x0 in starts]
    points = [next(search) for search in searches]
    converged = [False] * len(starts)
    evals = [0] * len(starts)
    computed = [0] * len(starts)
    sizes = sorted({base.shape[0] for base, _ in starts})

    def batches(idx: Iterable[int]):
        """(restarts, mixers of all their candidate rows) per mixer size among restarts idx."""
        for group in ([i for i in idx if starts[i][0].shape[0] == m_k] for m_k in sizes):
            if group:
                kept = np.repeat(np.stack([starts[i][0] for i in group]), [len(points[i]) for i in group], axis=0)
                yield group, _mixers(np.concatenate([points[i] for i in group]), kept)

    live = list(range(len(starts)))
    while live:
        order, mixers = zip(*batches(live))
        values = _raw_averages([roots @ mix.swapaxes(-1, -2) for mix in mixers], plan, params)
        live, hi = [], 0
        for i in itertools.chain(*order):
            lo, hi = hi, hi + len(points[i])
            computed[i] += hi - lo
            try:
                points[i] = searches[i].send(values[lo:hi])
                live.append(i)
            except StopIteration as stop:
                x, _, converged[i], evals[i] = stop.value
                points[i] = x[None]

    ensembles = {i: _support_ensemble(rho, vals, vecs, mix) for group, mixers in batches(range(len(starts)))
                 for i, mix in zip(group, mixers)}
    values = [ensembles[i].average(s, params) for i in range(len(starts))]
    best = min(range(len(values)), key=values.__getitem__)  # first index among equal values
    kinds = ["eigen"] + ["seed"] * len(seed_ensembles) + ["random"] * len(children)
    trace = tuple(RestartTrace(*row) for row in zip(kinds, evals, computed, values, converged))
    return RoofResult(values[best], ensembles[best], restarts_used=len(values), converged=converged[best],
                      restarts=trace)


@dataclass(frozen=True)
class MixedOrderingResult:
    ensembles_checked: int
    failures: list[str]

    @property
    def all_hold(self) -> bool:
        return not self.failures


def mixed_ordering_spotcheck(
    rho: DensityOperator,
    subset: Iterable[int],
    *,
    n_mixers: int = 100,
    seed: int = 0,
) -> MixedOrderingResult:
    """Chain relations on matched ensembles of a mixed state.

    Evaluating one and the same ensemble under all four benchmark entropies,
    the per-member pure-state chain transfers to the ensemble averages:
    E >= C/ln2, E >= 2C - 1/2, R2 >= C/ln2, C >= T3.
    """
    s = normalize_subset(subset, rho.n_subsystems)
    vals, vecs = _roof_support(rho)
    r = int(vals.size)
    m = min(r * r, r + 2)
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    for trial in range(n_mixers):
        if r == 1:
            mixer = np.eye(1)
        else:
            z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            q, _ = np.linalg.qr(z)
            mixer = q[:, :r]
        ens = _support_ensemble(rho, vals, vecs, mixer)
        avg = dict.fromkeys(BENCHMARKS, 0.0)
        for (p, _), (report, _) in zip(ens.members, ordering_reports([(psi, s, ()) for _, psi in ens.members])):
            for k in avg:
                avg[k] += p * getattr(report, k)
        for name, ok in _chain_checks(**avg).items():
            if not ok:
                failures.append(f"mixer {trial}: {name} violated with averages {avg}")
    return MixedOrderingResult(ensembles_checked=n_mixers, failures=failures)
