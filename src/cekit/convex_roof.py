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

Restarts are independent in their results but advance in lockstep over
mixers of one size (zero rows pad a shorter start): each round evaluates
the gradients of the restarts that moved as one stack in one call that
forms each cut's reduced state once, then the step ladders of every live
restart as one more stack; each call gives a matrix the bits it gets alone.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .entropy import EntropyParams, _slopes, unified_entropy_rows
from .errors import ResourceLimitError
from .measures import (
    BENCHMARKS,
    CutPlan,
    _chain_checks,
    _ensemble_averages,
    _qubit_moments,
    _reduced_chunks,
    cut_plan,
    member_spectra,
    table_terms,
)
from .tensor import DensityOperator, PureState, clamped_spectra

__all__ = [
    "MAX_ROOF_RANK",
    "Ensemble",
    "RestartTrace",
    "RoofResult",
    "MixedOrderingResult",
    "mixing_ensemble",
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
        if len({psi.dims for _, psi in self.members}) != 1:  # `average` evaluates all members on one plan
            raise ValueError("ensemble must have at least one member, all with the same dims")
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
        p, amps = np.array([w for w, _ in self.members]), np.stack([psi.amplitudes for _, psi in self.members])
        return _ensemble_averages(cut_plan(self.members[0][1].dims, subset), p, amps, [0] * p.size, [params])[0]

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
    objective evaluations its search spent, its final ensemble average and
    whether it converged before its budget ran out (`_search`)."""

    start: str
    evals: int
    value: float
    converged: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RoofResult:
    upper_bound: float
    best_ensemble: Ensemble
    converged: bool
    restarts: tuple[RestartTrace, ...] = ()

    @property
    def restarts_used(self) -> int:
        return len(self.restarts)

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


def _roof_support(rho: DensityOperator, subset: Iterable[int]) -> tuple[CutPlan, np.ndarray, np.ndarray, int]:
    """Plan of P(subset), `_eigen_support` of a rho of rank r <= MAX_ROOF_RANK, and min(r^2, r + 2) mixer rows."""
    plan, (vals, vecs) = cut_plan(rho.dims, subset), _eigen_support(rho)
    if vals.size > MAX_ROOF_RANK:
        raise ResourceLimitError(f"rank {vals.size} exceeds the roof guard of {MAX_ROOF_RANK}")
    return plan, vals, vecs, min(vals.size**2, vals.size + 2)


def _members(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weights, normalized columns, matrix indices and flat column indices of
    the member columns, not lighter than 1e-12, of the stack `raw` (n, D, m)."""
    cols = raw.swapaxes(-1, -2)
    # One BLAS dot product per column, read in place along its stride: that
    # fixes the summation order, which a contiguous copy would change for D >= 8.
    p = np.matmul(cols.conj()[..., None, :], cols[..., :, None]).real.reshape(-1)
    kept = np.flatnonzero(p >= MEMBER_DROP_TOL)
    p, rows = p[kept], cols.reshape(-1, cols.shape[-1])[kept]
    return p, rows / np.sqrt(p)[:, None], kept // raw.shape[-1], kept


def _raw_averages(raw: np.ndarray, plan: CutPlan, params: EntropyParams, grad: bool = False):
    """Ensemble average of the measure for every matrix of unnormalized member
    columns in the stack `raw` (n, D, m), from one spectra table over all members.

    Skips the dataclass layer; used only inside the optimizer's inner loop,
    the reported result is always re-evaluated through the public path.
    Each member's terms are summed in mask order, then weighted, in member
    order per matrix, so a value does not depend on the other matrices.
    With `grad`, also returns the gradient of each value by the conjugate of
    its matrix, shaped like the stack (`_cut_gradients`); members lighter
    than 1e-12 get 0.
    """
    p, members, owner, kept = _members(raw)
    tensors = members.reshape((-1,) + plan.dims)
    if grad:
        terms, gradients = _cut_gradients(plan, params, tensors)
    else:  # a plan without cuts (one subsystem) yields one row of zeros for all members
        terms = table_terms(member_spectra(plan, tensors), params)
    acc = np.zeros(p.size)
    for column in terms.T:
        acc += column
    totals = np.zeros(len(raw))
    # Unbuffered: adds each member's share to its matrix's total in member order.
    np.add.at(totals, owner, p * acc * (1.0 / plan.n_masks))
    if not grad:
        return totals.tolist()
    cols = np.zeros((raw.shape[0] * raw.shape[-1], raw.shape[1]), dtype=complex)
    cols[kept] = gradients.reshape(p.size, -1) * (np.sqrt(p) * plan.weight)[:, None]
    return totals.tolist(), cols.reshape(raw.shape[0], raw.shape[-1], -1).swapaxes(-1, -2)


def _mixed_members(roots: np.ndarray, mixers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_members` (p, rows, owner) of roots @ mixer^T for the stack `mixers` (n, m, r), weights normalized per mixer."""
    p, rows, owner = _members(roots @ mixers.swapaxes(-1, -2))[:3]
    totals = np.array([math.fsum(p[owner == i].tolist()) for i in range(len(mixers))])
    return p / totals[owner], rows, owner


def mixing_ensemble(rho: DensityOperator, mixer: np.ndarray) -> Ensemble:
    """Decomposition of rho induced by an isometric mixer on its support.

    Row i of the m x r mixer combines the square-rooted eigenvectors into
    the unnormalized member |psi_i>; members lighter than 1e-12 are dropped.
    """
    vals, vecs = _eigen_support(rho)
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
    p, rows, _ = _mixed_members(vecs * np.sqrt(vals), mixer[None])
    return Ensemble(tuple((w, PureState(v, rho.dims)) for w, v in zip(p.tolist(), rows)))


def _support_mixer(rho: DensityOperator, vals, vecs, ensemble: Ensemble) -> np.ndarray:
    """Mixer that reproduces a known decomposition of rho (e.g. a constructed
    separable one), given the eigen support (vals, vecs) of rho; seeds a restart,
    so it has at most min(r^2, r + 2) rows, the search's mixer size."""
    r = vals.size
    if ensemble.reconstruction_error(rho) > 1e-8:
        raise ValueError("ensemble does not reconstruct rho")
    weighted = [math.sqrt(p) * s.amplitudes for p, s in ensemble.members]
    mixer = np.array([(vecs.conj().T @ wk) / np.sqrt(vals) for wk in weighted])
    # Scrub the tiny non-isometry left by the eigenbasis projection.
    u, _, vh = np.linalg.svd(mixer, full_matrices=False)
    mixer = u @ vh
    if mixer.shape[0] > min(r * r, r + 2):
        raise ValueError(f"ensemble size {mixer.shape[0]} exceeds the min(r^2, r + 2) cap {min(r * r, r + 2)}")
    return mixer


def _random_isometry(rng: np.random.Generator, m: int, r: int) -> np.ndarray:
    """First r columns of the unitary QR factor of an m x m complex Gaussian."""
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return np.linalg.qr(z)[0][:, :r]


def _cut_gradients(plan: CutPlan, params: EntropyParams, tensors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`table_terms` (k, n_masks) of a plan for a stack of normalized member tensors
    psi (k,) + dims, and the sum over its rows of (S'(rho_chi) (x) 1) psi
    + (S(rho_chi) - Tr rho_chi S'(rho_chi)) psi, rho_chi the row's reduced side and S its
    term: times sqrt(p), the Wirtinger gradient of p S(rho_chi) at the member sqrt(p) psi.
    Every mask a row serves has that gradient: `CutPlan.weight` counts them.
    A block's reduced states are formed once, for spectra and slopes. Qubit cuts take S'
    from rho's two eigenvalues, larger ones from one `eigh` per chunk beside its `eigvalsh`."""
    k = tensors.shape[0]
    terms, out = np.zeros((k, plan.n_masks)), np.zeros(tensors.shape, dtype=complex)
    for block in plan.blocks:
        chunks = []
        if block.d == 2:
            # S' = even I + odd (rho - mid I) takes the values s at the eigenvalues lam.
            h, off, lam = _qubit_moments(block, tensors)
            spectra, s, width = clamped_spectra(lam), _slopes(lam, params), lam[..., 1] - lam[..., 0]
            even, odd = 0.5 * (s[..., 1] + s[..., 0]), np.zeros(width.shape)
            np.divide(s[..., 1] - s[..., 0], width, out=odd, where=width > 0.0)
            deriv, tilt = np.empty(lam.shape + (2,), dtype=complex), odd * h
            deriv[..., 0, 0], deriv[..., 0, 1] = even + tilt, odd * off
            deriv[..., 1, 0], deriv[..., 1, 1] = odd * off.conj(), even - tilt
            chunks.append((0, lam, s, deriv))
        else:
            spectra = np.empty((k, len(block.masks), block.d))
            for lo, rho in _reduced_chunks(block, tensors):
                spectra[:, lo : lo + rho.shape[1]] = clamped_spectra(np.linalg.eigvalsh(rho))
                lam, u = np.linalg.eigh(rho)
                s = _slopes(lam, params)
                chunks.append((lo, lam, s, (u * s[..., None, :]) @ u.conj().swapaxes(-1, -2)))
        vals = unified_entropy_rows(spectra, params)
        terms[:, block.masks] = vals[..., None]
        for lo, lam, s, deriv in chunks:
            shift = vals[:, lo : lo + lam.shape[1]] - (lam * s).sum(-1)
            for j, perm in enumerate(block.perms[lo : lo + lam.shape[1]]):
                a, into = tensors.transpose(perm), out.transpose(perm)  # `into` writes to `out`
                psi = a.reshape(k, block.d, -1)
                into += (deriv[:, j] @ psi + shift[:, j, None, None] * psi).reshape(a.shape)
    return terms, out


def _cayley(mix: np.ndarray, direction: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cayley retraction (I - tH/2)^-1 (I + tH/2) V of mixers V (..., m, r)
    along skew-Hermitian directions H (..., m, m), at steps t (...)."""
    half = 0.5 * t[..., None, None] * direction
    return np.linalg.solve(np.eye(mix.shape[-2]) - half, mix + half @ mix)


def _search(roots: np.ndarray, plan: CutPlan, params: EntropyParams, starts: np.ndarray, max_evals: int):
    """Riemannian conjugate gradient over unitary mixers from each start of the
    stack `starts` (n, m, r), in lockstep. Returns (mixers (n, m, r),
    evaluations, converged), one entry a start.

    With G the members' gradient (`_raw_averages`) and Gamma = G^T conj(roots),
    Omega = Gamma V^dag - V Gamma^dag is the gradient on the unitaries acting
    on a mixer V: the slope along V -> exp(tH) V is Re Tr(Omega^dag H).
    Directions are Polak-Ribiere+, reset to -Omega where that slope is not
    negative. An iteration evaluates (one evaluation each) a ladder of steps
    t0 2^-j, j < LADDER, along `_cayley` and moves to its lowest value if
    lower; the next ladder starts at twice that step. A failed ladder is
    retried along -Omega, then below its last step. A restart has converged
    at |Omega| <= GRAD_TOL, or when a failed ladder along -Omega stepped by
    less than STEP_TOL. A zero row of V is a member of weight 0: its rows of
    G and Gamma, so its row and column of Omega, are 0, and no step fills it.
    """
    n, m = len(starts), starts.shape[1]
    mix, value, step, evals = list(starts), [0.0] * n, [1.0] * n, [0] * n
    grad, sq = [np.zeros((m, m))] * n, [math.inf] * n
    direction, steepest, converged = [None] * n, [True] * n, [False] * n
    live = pending = list(range(n))  # pending: the restarts that need a gradient
    while True:
        if pending:
            v = np.array([mix[i] for i in pending])
            values, grads = _raw_averages(roots @ v.swapaxes(-1, -2), plan, params, grad=True)
            x = grads.swapaxes(-1, -2) @ roots.conj() @ v.conj().swapaxes(-1, -2)
            for i, f, omega in zip(pending, values, x - x.conj().swapaxes(-1, -2)):
                prev, sq[i] = sq[i], np.vdot(omega, omega).real
                beta = max(0.0, (sq[i] - np.vdot(grad[i], omega).real) / prev)  # 0 at a first gradient
                steepest[i] = not (beta > 0.0 and beta * np.vdot(omega, direction[i]).real < sq[i])
                d = -omega if steepest[i] else beta * direction[i] - omega
                value[i], grad[i], direction[i], converged[i] = f, omega, d, bool(sq[i] <= GRAD_TOL**2)
                evals[i] += 1
        live = [i for i in live if not converged[i] and evals[i] < max_evals]
        if not live:
            return np.array(mix), evals, converged
        t = np.array([step[i] for i in live])[:, None] * 0.5 ** np.arange(LADDER)
        cands = _cayley(np.array([mix[i] for i in live])[:, None], np.array([direction[i] for i in live])[:, None], t)
        cut = [min(LADDER, max_evals - evals[i]) for i in live]  # a last ladder takes what budget is left
        moves = [(i, t[k, :size], cands[k, :size]) for k, (i, size) in enumerate(zip(live, cut))]
        values = _raw_averages(roots @ np.concatenate([c for _, _, c in moves]).swapaxes(-1, -2), plan, params)
        pending, hi = [], 0
        for i, t, cands in moves:
            lo, hi = hi, hi + len(t)
            j = values.index(min(values[lo:hi]), lo) - lo  # the first of equal values
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
    restarts start from seeded random isometries. Every search mixer has
    min(r^2, r + 2) rows, so a seed ensemble may not have more members; a
    shorter start gets zero rows, members of weight 0 that the search never
    fills. The minimum is taken with ties broken by lowest restart index,
    so a fixed seed reproduces results.
    `RoofResult.converged` is the best restart's flag from `_search`.
    """
    plan, vals, vecs, m = _roof_support(rho, subset)
    r, roots = vals.size, vecs * np.sqrt(vals)
    restarts, max_evals = budget
    if restarts < 1 or max_evals < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    mixers, evals, converged, kinds = np.ones((1, 1, 1), dtype=complex), [], [True], []  # rank 1: no search
    if r > 1:
        starts = [np.eye(m, r)] + [_support_mixer(rho, vals, vecs, ens) for ens in seed_ensembles]
        children = np.random.SeedSequence(seed).spawn(max(0, restarts - len(starts)))
        starts += [_random_isometry(np.random.default_rng(child), m, r) for child in children]
        # A shorter start gets zero rows: members of weight 0.
        stack = np.array([np.pad(v, ((0, m - len(v)), (0, 0))) for v in starts], dtype=complex)
        mixers, evals, converged = _search(roots, plan, params, stack, max_evals)
        kinds = ["eigen"] + ["seed"] * len(seed_ensembles) + ["random"] * len(children)
    p, rows, owner = _mixed_members(roots, mixers)
    values = _ensemble_averages(plan, p, rows, owner, [params] * len(mixers))
    best = min(range(len(values)), key=values.__getitem__)  # first index among equal values
    trace = tuple(RestartTrace(*row) for row in zip(kinds, evals, values, converged))
    ens = Ensemble(tuple((w, PureState(v, rho.dims)) for w, v in zip(p[owner == best].tolist(), rows[owner == best])))
    return RoofResult(values[best], ens, converged[best], trace)


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
    E >= C/ln2, E >= 2C - 1/2, R2 >= C/ln2, C >= T3, E >= R2.
    """
    plan, vals, vecs, m = _roof_support(rho, subset)
    r, roots = vals.size, vecs * np.sqrt(vals)
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    for trial in range(n_mixers):  # one mixer at a time: memory does not grow with n_mixers
        mixer = np.eye(1, dtype=complex) if r == 1 else _random_isometry(rng, m, r)
        averages = _ensemble_averages(plan, *_mixed_members(roots, mixer[None]), [list(BENCHMARKS.values())])[0]
        avg = dict(zip(BENCHMARKS, averages))
        for name, ok in _chain_checks(**avg).items():
            if not ok:
                failures.append(f"mixer {trial}: {name} violated with averages {avg}")
    return MixedOrderingResult(ensembles_checked=n_mixers, failures=failures)
