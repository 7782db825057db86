"""Mixed-state measure as a convex-roof upper bound over decompositions.

Every pure-state decomposition of a rank-r state rho arises from an
isometry ("mixer") applied to the square-rooted eigenvectors, so the
minimization runs over mixers. The search is seeded, restarted Riemannian
conjugate gradient over the unitaries acting on a mixer, driven by the
analytic gradient of the ensemble average (Rothlisberger, Rotzer & Lehmann,
PRA 80, 042301 (2009)) and stepping along a Cayley retraction (Wen & Yin,
Math. Program. 142, 397 (2013)); `_search` states the rules. It returns the
best ensemble average found, which upper-bounds the true roof but is never
claimed to attain it.

Restarts are independent in their results but advance in lockstep: each
round evaluates the gradients of the restarts that moved in one batched
call per mixer size, then the step ladders of every live restart in one
more, and each call gives a matrix the bits it gets alone.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .entropy import EntropyParams, _slopes
from .errors import ResourceLimitError
from .measures import (
    BENCHMARKS,
    CutPlan,
    _chain_checks,
    _qubit_moments,
    _reduced_chunks,
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
LADDER = 8  # step sizes per search iteration, halving from the first
GRAD_TOL = 1e-7  # Riemannian gradient norm at which a restart has converged
STEP_TOL = 1e-12  # a failed steepest ladder this short (|t H|) ends a restart


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
    """How one roof restart went: its start (`eigen`, `seed` or `random`), the
    objective evaluations its search spent, the values computed for it (each
    counts, so this equals `evals`), its final ensemble average and whether
    it converged before its budget ran out (`_search`)."""

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


def _members(raws: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weights, normalized columns, matrix indices and flat column indices of
    the member columns, not lighter than 1e-12, of the stacks `raws` (n, D, m)."""
    cols = [raw.swapaxes(-1, -2) for raw in raws]
    # One BLAS dot product per column, read in place along its stride: that
    # fixes the summation order, which a contiguous copy would change for D >= 8.
    p = np.concatenate([np.matmul(c.conj()[..., None, :], c[..., :, None]).real.reshape(-1) for c in cols])
    owner = np.repeat(np.arange(sum(map(len, cols))), [c.shape[1] for c in cols for _ in c])
    kept = np.flatnonzero(p >= MEMBER_DROP_TOL)
    rows = np.concatenate([c.reshape(-1, c.shape[-1]) for c in cols])[kept]
    return p[kept], rows / np.sqrt(p[kept])[:, None], owner[kept], kept


def _raw_averages(raws: Sequence[np.ndarray], plan: CutPlan, params: EntropyParams, grad: bool = False):
    """Ensemble average of the measure for every matrix of unnormalized member
    columns in the stacks `raws`, from one spectra table over all members.

    Skips the dataclass layer; used only inside the optimizer's inner loop,
    the reported result is always re-evaluated through the public path.
    Each member's terms are summed in mask order, then weighted, in member
    order per matrix, so a value does not depend on the other matrices.
    With `grad` and one stack, also returns the gradient of each value by the
    conjugate of its matrix, shaped like the stack (`_cut_gradients`);
    members lighter than 1e-12 get 0.
    """
    p, members, owner, kept = _members(raws)
    tensors = members.reshape((-1,) + plan.dims)
    spectra = member_spectra(plan, tensors)
    # A plan without cuts (one subsystem) yields one row of zeros for all members.
    terms = np.broadcast_to(table_terms(spectra, params), (p.size, plan.n_masks))
    acc = np.zeros(p.size)
    for column in terms.T:
        acc += column
    totals = np.zeros(sum(map(len, raws)))
    # Unbuffered: adds each member's share to its matrix's total in member order.
    np.add.at(totals, owner, p * acc * (1.0 / plan.n_masks))
    if not grad:
        return totals.tolist()
    (raw,) = raws  # the gradient takes one stack
    cols = np.zeros((raw.shape[0] * raw.shape[-1], raw.shape[1]), dtype=complex)
    cols[kept] = _cut_gradients(plan, params, tensors, terms).reshape(p.size, -1) * (np.sqrt(p) / plan.n_masks)[:, None]
    return totals.tolist(), cols.reshape(raw.shape[0], raw.shape[-1], -1).swapaxes(-1, -2)


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
    weights, rows = _members([(roots @ mixer.T)[None]])[:2]
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


def _random_isometry(rng: np.random.Generator, m: int, r: int) -> np.ndarray:
    """First r columns of the unitary QR factor of an m x m complex Gaussian."""
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return np.linalg.qr(z)[0][:, :r]


def _cut_gradients(plan: CutPlan, params: EntropyParams, tensors: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Sum over the cuts of an unpaired plan of (S'(rho_chi) (x) 1) psi +
    (S(rho_chi) - Tr rho_chi S'(rho_chi)) psi, for each normalized member
    tensor psi of a stack (k,) + dims: rho_chi is the cut's smaller side and
    S its term in `terms` (k, n_masks). Times sqrt(p), this is the Wirtinger
    gradient of p S(rho_chi) at the member sqrt(p) psi. Qubit cuts take S' as
    a 2 x 2 function of rho from its two eigenvalues, larger cuts from one
    stacked `eigh` per chunk."""
    k = tensors.shape[0]
    out = np.zeros(tensors.shape, dtype=complex)
    for block in plan.blocks:
        chunks = []
        if block.d == 2:
            # S' = even I + odd (rho - mid I) takes the values s at the eigenvalues lam.
            h, off, lam = _qubit_moments(block, tensors)
            s, width = _slopes(lam, params), lam[..., 1] - lam[..., 0]
            even, odd = 0.5 * (s[..., 1] + s[..., 0]), np.zeros_like(width)
            np.divide(s[..., 1] - s[..., 0], width, out=odd, where=width > 0.0)
            deriv = np.stack([even + odd * h, odd * off, odd * off.conj(), even - odd * h], axis=-1)
            chunks.append((0, lam, s, deriv.reshape(lam.shape + (2,))))
        else:
            for lo, rho in _reduced_chunks(block, tensors):
                lam, u = np.linalg.eigh(rho)
                s = _slopes(lam, params)
                chunks.append((lo, lam, s, (u * s[..., None, :]) @ u.conj().swapaxes(-1, -2)))
        for lo, lam, s, deriv in chunks:
            shift = terms[:, block.masks[lo : lo + lam.shape[1]]] - (lam * s).sum(-1)
            for j, perm in enumerate(block.perms[lo : lo + lam.shape[1]]):
                a = tensors.transpose(perm)
                psi = a.reshape(k, block.d, -1)
                out += (deriv[:, j] @ psi + shift[:, j, None, None] * psi).reshape(a.shape).transpose(np.argsort(perm))
    return out


def _cayley(mix: np.ndarray, direction: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cayley retraction (I - tH/2)^-1 (I + tH/2) V of mixers V (..., m, r)
    along skew-Hermitian directions H (..., m, m), at steps t (...)."""
    half = 0.5 * t[..., None, None] * direction
    return np.linalg.solve(np.eye(mix.shape[-2]) - half, mix + half @ mix)


def _search(roots: np.ndarray, plan: CutPlan, params: EntropyParams, starts: list[np.ndarray], max_evals: int):
    """Riemannian conjugate gradient over unitary mixers from each start, in
    lockstep. Returns (mixers, evaluations, converged), one entry a start.

    With G the members' gradient (`_raw_averages`) and Gamma = G^T conj(roots),
    Omega = Gamma V^dag - V Gamma^dag is the gradient on the unitaries acting
    on a mixer V: the slope along V -> exp(tH) V is Re Tr(Omega^dag H).
    Directions are Polak-Ribiere+, reset to -Omega where that slope is not
    negative. An iteration evaluates (one evaluation each) a ladder of steps
    t0 2^-j, j < LADDER, along `_cayley` and moves to its lowest value if
    lower; the next ladder starts at twice that step. A failed ladder is
    retried along -Omega, then below its last step. A restart has converged
    at |Omega| <= GRAD_TOL, or when a failed ladder along -Omega stepped by
    less than STEP_TOL.
    """
    n = len(starts)
    mix, value, step, evals = list(starts), [0.0] * n, [1.0] * n, [0] * n
    grad, sq = [np.zeros((len(v), len(v))) for v in starts], [math.inf] * n
    direction, steepest, converged = [None] * n, [True] * n, [False] * n
    sizes = sorted({v.shape[0] for v in starts})

    def groups(idx):  # restarts idx by mixer size, a group to a stack
        return [g for g in ([i for i in idx if mix[i].shape[0] == m] for m in sizes) if g]

    live = pending = list(range(n))  # pending: the restarts that need a gradient
    while True:
        for g in groups(pending):
            v = np.stack([mix[i] for i in g])
            values, grads = _raw_averages([roots @ v.swapaxes(-1, -2)], plan, params, grad=True)
            x = grads.swapaxes(-1, -2) @ roots.conj() @ v.conj().swapaxes(-1, -2)
            for i, f, omega in zip(g, values, x - x.conj().swapaxes(-1, -2)):
                prev, sq[i] = sq[i], np.vdot(omega, omega).real
                beta = max(0.0, (sq[i] - np.vdot(grad[i], omega).real) / prev)  # 0 at a first gradient
                steepest[i] = not (beta > 0.0 and beta * np.vdot(omega, direction[i]).real < sq[i])
                d = -omega if steepest[i] else beta * direction[i] - omega
                value[i], grad[i], direction[i], converged[i] = f, omega, d, bool(sq[i] <= GRAD_TOL**2)
                evals[i] += 1
        live = [i for i in live if not converged[i] and evals[i] < max_evals]
        if not live:
            return mix, evals, converged
        stacks, moves = [], []
        for g in groups(live):
            t = np.array([step[i] for i in g])[:, None] * 0.5 ** np.arange(LADDER)
            cands = _cayley(np.stack([mix[i] for i in g])[:, None], np.stack([direction[i] for i in g])[:, None], t)
            cut = [min(LADDER, max_evals - evals[i]) for i in g]  # a last ladder takes what budget is left
            moves += [(i, t[k, :size], cands[k, :size]) for k, (i, size) in enumerate(zip(g, cut))]
            stacks.append(np.concatenate([c for _, _, c in moves[-len(g):]]))
        values = _raw_averages([roots @ c.swapaxes(-1, -2) for c in stacks], plan, params)
        pending, hi = [], 0
        for i, t, cands in moves:
            lo, hi = hi, hi + len(t)
            j = int(np.argmin(values[lo:hi]))  # the first of equal values
            evals[i] += len(t)
            if values[lo + j] < value[i]:
                mix[i], value[i], step[i] = cands[j], values[lo + j], 2.0 * t[j]
                pending += [i] if evals[i] < max_evals else []
            elif not steepest[i]:
                direction[i], steepest[i] = -grad[i], True
            elif t[-1] * math.sqrt(sq[i]) < STEP_TOL:
                converged[i] = True
            else:
                step[i] = 0.5 * t[-1]


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

    `budget` is (restarts, objective evaluations per restart), an evaluation
    being a gradient or a ladder value of `_search`. Restart 0 starts from
    the eigendecomposition ensemble, seed ensembles follow, and remaining
    restarts start from seeded random isometries. The minimum is taken with
    ties broken by lowest restart index, so a fixed seed reproduces results.
    `RoofResult.converged` is the best restart's flag from `_search`.
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
    starts = [np.eye(m, r, dtype=complex)]
    for ens in seed_ensembles:
        v0 = _support_mixer(rho, vals, vecs, ens)
        starts.append(np.vstack([v0, np.zeros((max(m, v0.shape[0]) - v0.shape[0], r), dtype=complex)]))
    children = np.random.SeedSequence(seed).spawn(max(0, restarts - len(starts)))
    starts += [_random_isometry(np.random.default_rng(child), m, r) for child in children]

    # Unpaired plan: pairing would halve the eigensolves on full subsets but
    # move objective values, and with them the search path, in the last bits.
    plan = cut_plan(rho.dims, s, use_symmetry=False)
    mixers, evals, converged = _search(vecs * np.sqrt(vals), plan, params, starts, max_evals)
    ensembles = [_support_ensemble(rho, vals, vecs, mix) for mix in mixers]
    values = [ens.average(s, params) for ens in ensembles]
    best = min(range(len(values)), key=values.__getitem__)  # first index among equal values
    kinds = ["eigen"] + ["seed"] * len(seed_ensembles) + ["random"] * len(children)
    trace = tuple(RestartTrace(*row) for row in zip(kinds, evals, evals, values, converged))
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
        mixer = np.eye(1) if r == 1 else _random_isometry(rng, m, r)
        ens = _support_ensemble(rho, vals, vecs, mixer)
        avg = dict.fromkeys(BENCHMARKS, 0.0)
        for (p, _), (report, _) in zip(ens.members, ordering_reports([(psi, s, ()) for _, psi in ens.members])):
            for k in avg:
                avg[k] += p * getattr(report, k)
        for name, ok in _chain_checks(**avg).items():
            if not ok:
                failures.append(f"mixer {trial}: {name} violated with averages {avg}")
    return MixedOrderingResult(ensembles_checked=n_mixers, failures=failures)
