"""Concentratable entanglement over the power set of a subsystem subset.

For a pure state and a subset s of its subsystems, the measure is the
average unified entropy of the reduced states over all subsets of s,
with the empty subset contributing zero:

    E(s; alpha, beta) = 2^{-|s|} * sum_{chi in P(s)} S_{alpha,beta}(psi_chi)

Subsets are enumerated by binary counting on the sorted labels of s, so
bit j of a mask selects the j-th smallest label. The spectrum of a reduced
state always equals that of its complementary cut, so the average runs
over bipartitions: each is reduced on its smaller side, and on a tie on the
side without the state's last subsystem, a rule of the bipartition alone.

A cut plan lists those bipartitions once per (dims, subset), each row
serving the masks it stands for: a cut and its complement when s = [n],
which halves the work, else the one cut. A spectra table holds each row's
spectrum once per state, in one dense block per cut dimension, and every
(alpha, beta) point is evaluated from it; points that share alpha share
one power pass over it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import prod
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .entropy import (
    EntropyParams,
    _from_traces,
    _traces,
    fannes_audenaert_bound,
    in_concavity_region,
    in_subadditivity_region,
    max_entropy_value,
    unified_entropy_rows,
)
from .errors import ResourceLimitError
from .tensor import (
    PureState,
    _kraus_set,
    _reduced_matrices,
    clamped_spectra,
    local_kraus_branches,
    normalize_subset,
    trace_distance,
)

__all__ = [
    "MAX_SUBSET_SIZE",
    "BENCHMARKS",
    "MeasureReport",
    "NamedMeasures",
    "OrderingReport",
    "GmeCertificate",
    "CutBlock",
    "CutPlan",
    "SpectraTable",
    "cut_plan",
    "cut_purity_rows",
    "member_spectra",
    "spectra_table",
    "table_terms",
    "table_values",
    "symmetric_values",
    "cce_pure",
    "named_measures",
    "cce_values",
    "ordering_reports",
    "tensor_identity_residual",
    "subadditivity_gaps",
    "gme_certificate",
    "continuity_gap",
    "locc_monotonicity_gaps",
]

MAX_SUBSET_SIZE = 20
GME_MARGIN = 1e-9
ORDER_TOL = 1e-10  # slack of every ordering relation checked here
LN2 = math.log(2.0)
_CHUNK_ENTRIES = 1 << 14  # entries per stack of reduced matrices: bounds its memory

#: The four benchmark parameter points: von Neumann, Renyi-2, Tsallis-3, linear.
BENCHMARKS = {
    "e": EntropyParams.von_neumann(),
    "r2": EntropyParams.renyi(2.0),
    "t3": EntropyParams.tsallis(3.0),
    "c": EntropyParams.linear(),
}


class NamedMeasures(NamedTuple):
    e: float
    r2: float
    t3: float
    c: float


@dataclass(frozen=True)
class MeasureReport:
    """Value of one measure evaluation plus its per-subset entropy terms.

    Terms are keyed by subset bitmask over the sorted labels of `subset`.
    """

    value: float
    terms: dict[int, float]
    params: EntropyParams
    subset: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "subset": list(self.subset),
            "terms": {hex(mask): term for mask, term in sorted(self.terms.items())},
        }


@dataclass(frozen=True)
class OrderingReport:
    e: float
    r2: float
    t3: float
    c: float
    checks: dict[str, bool]

    @property
    def all_hold(self) -> bool:
        return all(self.checks.values())


@dataclass(frozen=True)
class GmeCertificate:
    value: float
    threshold: float
    certified: bool


class CutBlock(NamedTuple):
    """Bipartitions whose reduced side has dimension d, first masks ascending; closed-form
    spectra for qubit cuts (d = 2), else one stacked eigensolve per chunk of them."""

    d: int
    masks: np.ndarray  # (rows, masks served): the masks each row's spectrum is the spectrum of
    perms: tuple[tuple[int, ...], ...]  # per row: stacked-tensor axes (stack, kept..., traced...)


class CutPlan(NamedTuple):
    """The bipartitions of P(subset) to eigensolve, each on its reduced side.

    Masks whose reduced state is trivial (dimension 1) carry entropy 0 and
    appear in no block. Every row serves as many masks as every other.
    Plans are cached and shared between callers, so their arrays must not
    be written to.
    """

    dims: tuple[int, ...]
    subset: tuple[int, ...]
    blocks: tuple[CutBlock, ...]

    @property
    def n_masks(self) -> int:
        return 1 << len(self.subset)

    @property
    def weight(self) -> float:
        """Share of the measure one row's term carries: the masks it serves over all masks."""
        return self.blocks[0].masks.shape[1] / self.n_masks if self.blocks else 0.0

    @property
    def n_eigensolves(self) -> int:
        """Cuts whose spectrum takes an eigensolve: qubit cuts take the closed form."""
        return sum(len(block.masks) for block in self.blocks if block.d > 2)


class SpectraTable(NamedTuple):
    """Spectra of a plan's rows: blocks[b][..., i, :] is the descending,
    clamped spectrum of each mask in plan.blocks[b].masks[i]; any leading
    axes index the states the table was built from."""

    plan: CutPlan
    blocks: tuple[np.ndarray, ...]


@lru_cache(maxsize=64)
def _build_plan(dims: tuple[int, ...], subset: tuple[int, ...]) -> CutPlan:
    m, last = len(subset), len(dims) - 1
    full, whole = (1 << m) - 1, m == len(dims)  # on a whole subset a row serves a cut and its complement
    by_dim: dict[int, tuple[list[tuple[int, ...]], list[tuple[int, ...]]]] = {}
    for mask in range(1 << m):
        chi = tuple(subset[j] - 1 for j in range(m) if (mask >> j) & 1)
        comp = tuple(ax for ax in range(len(dims)) if ax not in chi)
        # A whole subset's mask holding the last label is served by its complement's row.
        if not chi or not comp or (whole and last in chi):
            continue
        d_chi = prod(dims[ax] for ax in chi)
        d_comp = prod(dims[ax] for ax in comp)
        # The smaller side; on a tie, the side without the last subsystem.
        d, kept, traced = (d_chi, chi, comp) if (d_chi, last in chi) < (d_comp, last in comp) else (d_comp, comp, chi)
        masks, perms = by_dim.setdefault(d, ([], []))
        masks.append((mask, full ^ mask) if whole else (mask,))
        perms.append((0,) + tuple(ax + 1 for ax in kept + traced))
    blocks = tuple(
        CutBlock(d, np.array(masks, dtype=np.int64), tuple(perms))
        for d, (masks, perms) in sorted(by_dim.items())
    )
    return CutPlan(dims, subset, blocks)


def cut_plan(dims: tuple[int, ...], subset: Iterable[int]) -> CutPlan:
    """Cut plan of P(subset) for a pure state with local dimensions `dims`.

    A row is one bipartition, eigensolved on its smaller side (on a tie, the
    side without the last subsystem). When `subset` covers all subsystems,
    a row serves a subset and its complement, which halves the eigensolves.
    """
    dims = tuple(dims)
    s = normalize_subset(subset, len(dims))
    if len(s) > MAX_SUBSET_SIZE:
        raise ResourceLimitError(f"power set of {len(s)} labels exceeds the enumeration guard of {MAX_SUBSET_SIZE}")
    return _build_plan(dims, s)


def _reduced_chunks(block: CutBlock, tensors: np.ndarray):
    """Reduced matrices of one block's cuts for a stack of state tensors,
    shaped (k,) + dims. Yields (first row, matrices (k, c, d, d)) for
    chunks of the block's rows, in row order."""
    k, d = tensors.shape[0], block.d
    step = max(1, _CHUNK_ENTRIES // (k * d * d))
    for lo in range(0, len(block.perms), step):
        perms = block.perms[lo : lo + step]
        rho = np.empty((k, len(perms), d, d), dtype=complex)
        for j, perm in enumerate(perms):
            _reduced_matrices(tensors, perm, d, out=rho[:, j])
        yield lo, rho


def _qubit_moments(block: CutBlock, tensors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced matrices mid I + [[h, off], [conj(off), -h]] of a block of qubit
    cuts (d = 2) from each state's 2 x q slice (a0; a1): with p_i = sum |a_i|^2,
    h = (p0 - p1)/2, mid = (p0 + p1)/2 and off = sum a0 conj(a1). Returns h and
    off (k, c) and the ascending spectra (k, c, 2), mid -+ hypot(h, |off|)."""
    k = tensors.shape[0]
    p = np.empty((2, k, len(block.perms)))
    off = np.empty((k, len(block.perms)), dtype=complex)
    for j, perm in enumerate(block.perms):
        a = np.ascontiguousarray(tensors.transpose(perm).reshape(k, 2, -1), dtype=complex)
        x = a.view(float)  # (re, im) pairs: a row's sum of squares is sum |a_i|^2
        p[:, :, j] = (x * x).sum(-1).T  # pairwise sums: about 1 ulp at any q
        # Not `*`, which may swap operands on a large temporary: complex products' bits depend on order.
        off[:, j] = np.multiply(a[:, 0], a[:, 1].conj()).sum(-1)
    h, mid = 0.5 * (p[0] - p[1]), 0.5 * (p[0] + p[1])
    rad = np.hypot(h, np.abs(off))
    lam = np.empty(h.shape + (2,))
    lam[..., 0], lam[..., 1] = mid - rad, mid + rad
    return h, off, lam


def member_spectra(plan: CutPlan, tensors: np.ndarray) -> SpectraTable:
    """Spectra of every planned cut for a stack of state tensors, shaped
    (k,) + plan.dims: qubit cuts in closed form (`_qubit_moments`), larger
    ones by one stacked eigensolve per chunk of a cut dimension."""
    blocks = []
    for block in plan.blocks:
        if block.d == 2:
            blocks.append(clamped_spectra(_qubit_moments(block, tensors)[2]))
            continue
        blocks.append(np.empty((tensors.shape[0], len(block.masks), block.d)))
        for lo, rho in _reduced_chunks(block, tensors):
            blocks[-1][:, lo : lo + rho.shape[1]] = clamped_spectra(np.linalg.eigvalsh(rho))
    return SpectraTable(plan, tuple(blocks))


def cut_purity_rows(amps: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Tr rho_chi^2 (k, 2^n) of every subset chi of all subsystems, indexed by mask (bit j selects
    label j+1), for each row of amplitudes (k, D): squared Frobenius norms, no eigensolve, from one
    `_reduced_chunks` pass over the stack. A row has the bits it gets alone."""
    plan = cut_plan(dims, range(1, len(dims) + 1))
    out = np.ones((len(amps), plan.n_masks))  # the empty and the full cut are pure
    for block in plan.blocks:
        for lo, rho in _reduced_chunks(block, amps.reshape((-1,) + plan.dims)):
            out[:, block.masks[lo : lo + rho.shape[1]]] = (rho.real**2 + rho.imag**2).sum(axis=(2, 3))[..., None]
    return out


def spectra_table(psi: PureState, subset: Iterable[int]) -> SpectraTable:
    """Spectra of every cut of P(subset) for one pure state, each computed once."""
    plan = cut_plan(psi.dims, subset)
    table = member_spectra(plan, psi.amplitudes.reshape((1,) + psi.dims))
    return SpectraTable(plan, tuple(b[0] for b in table.blocks))


def table_terms(table: SpectraTable, params: EntropyParams | Sequence[EntropyParams]) -> np.ndarray:
    """Entropy of every mask of P(subset) in the last axis, trivial masks 0.

    `params` is one point, or (the many-points form) an array-like of points
    broadcast against the table's leading axes, with the mask axis after them:
    points (P,) on one table, (k,) on a stack of k, (k, P) on leading axes (k, 1).
    """
    plan = table.plan
    lead = table.blocks[0].shape[:-2] if table.blocks else ()
    if not isinstance(params, EntropyParams):
        params = np.asarray(params, dtype=object)
        lead = np.broadcast_shapes(lead, params.shape)
        params = params[..., None]  # pairs each point with every cut of a block
    out = np.zeros(lead + (plan.n_masks,))
    for block, spectra in zip(plan.blocks, table.blocks):
        out[..., block.masks] = unified_entropy_rows(spectra, params)[..., None]
    return out


def _mean(terms: list[float]) -> float:
    """The measure from the 2^|s| terms of P(s). The sum is exactly rounded,
    so it does not depend on the order of the terms."""
    return math.fsum(terms) / len(terms)


def table_values(table: SpectraTable, points: Sequence[EntropyParams]) -> list[float]:
    """The measure of a one-state table at each point, with the bits of a
    one-point call: one `_traces` power per block and one zero-trace scan for
    each distinct alpha (all von Neumann points share one), held while the
    points at that alpha are finished from it. A point's sum is exactly
    rounded, so it does not depend on the order of the blocks, and every
    row's term counts once per mask it serves, so that sum is scaled exactly
    by the plan's weight."""
    plan = table.plan
    out = [0.0] * len(points)
    for idx in _groups(None if p.is_von_neumann else p.alpha for p in points):
        traces = list(chain.from_iterable(_traces(spectra, points[idx[0]].alpha).tolist() for spectra in table.blocks))
        nonzero = points[idx[0]].is_von_neumann or all(traces)  # one zero-trace scan per alpha
        for i in idx:
            p = points[i]
            terms = traces if p.is_von_neumann else _from_traces(traces, p.alpha, p.beta, nonzero)
            out[i] = math.fsum(terms) * plan.weight
    return out


def symmetric_values(
    coeffs: Sequence[complex], sizes: Iterable[int], points: Sequence[EntropyParams]
) -> list[list[float]]:
    """The measure of the n-qubit state sum_j c_j |D_n^j> on any `size` of its
    qubits, for each of `sizes` (rows) at each of `points` (columns).

    The state is permutation symmetric, so a size-k cut's spectrum depends
    only on k: the squared singular values of the (k+1) x (n-k+1) matrix
    M_il = c_{i+l} sqrt(C(k,i) C(n-k,l) / C(n,i+l)) (Stockton et al., PRA 67,
    022112 (2003)), formed once per k on the smaller side. Then
    E(s) = 2^-|s| sum_k C(|s|,k) S_k, one exactly rounded sum.
    """
    n, sizes = len(coeffs) - 1, list(sizes)
    for size in sizes:
        if not 1 <= size <= n:
            raise ValueError(f"subset size {size} out of range for n={n}")
    half = min(max(sizes, default=0), n // 2)
    spectra = np.zeros((half + 1, half + 1))  # row k: the size-k cut; the empty cut is pure
    spectra[0, 0] = 1.0
    for k in range(1, half + 1):
        m = np.zeros((k + 1, n - k + 1), dtype=complex)
        for j, c in enumerate(coeffs):
            if c:
                for i in range(max(0, j - n + k), min(k, j) + 1):
                    m[i, j - i] = c * math.sqrt(math.comb(k, i) * math.comb(n - k, j - i) / math.comb(n, j))
        spectra[k, : k + 1] = np.linalg.svd(m, compute_uv=False) ** 2
    side = [min(k, n - k) for k in range(n + 1)]
    terms = [unified_entropy_rows(spectra, p).tolist() for p in points]
    return [
        [math.fsum(math.comb(size, k) * t[side[k]] for k in range(size + 1)) / (1 << size) for t in terms]
        for size in sizes
    ]


def cce_pure(psi: PureState, subset: Iterable[int], params: EntropyParams) -> MeasureReport:
    """Concentratable entanglement of a pure state over P(subset)."""
    table = spectra_table(psi, subset)
    terms = table_terms(table, params).tolist()
    return MeasureReport(_mean(terms), dict(enumerate(terms)), params, table.plan.subset)


def _groups(keys: Iterable) -> list[list[int]]:
    """Positions of each distinct key in `keys`, in order of first appearance."""
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return list(out.values())


def _stack_terms(plan: CutPlan, amps: np.ndarray, points: Sequence) -> np.ndarray:
    """`table_terms` of each row of a stack of amplitudes (k, D) at its
    point or points, (k,) or (k, P): one `member_spectra` call, one terms call."""
    table = member_spectra(plan, amps.reshape((-1,) + plan.dims))
    points = np.asarray(points, dtype=object)
    lead = (len(points),) + (1,) * (points.ndim - 1)  # a row's points share its table
    return table_terms(SpectraTable(plan, tuple(b.reshape(lead + b.shape[1:]) for b in table.blocks)), points)


def _grouped_terms(jobs: Sequence[tuple]) -> list[np.ndarray]:
    """`table_terms` of each (state, subset, point or points) job, [0.0] on
    an empty subset: one `_stack_terms` call per group of jobs with equal
    dims, subset and number of points."""
    jobs = [(psi, tuple(s), p) for psi, s, p in jobs]  # `cut_plan` validates a subset
    out = [np.zeros(1)] * len(jobs)
    for idx in _groups((psi.dims, s, np.shape(p)) for psi, s, p in jobs):
        psi, subset, _ = jobs[idx[0]]
        if subset:
            amps = np.stack([jobs[i][0].amplitudes for i in idx])
            for i, terms in zip(idx, _stack_terms(cut_plan(psi.dims, subset), amps, [jobs[i][2] for i in idx])):
                out[i] = terms
    return out


def cce_values(jobs: Sequence[tuple[PureState, Iterable[int], EntropyParams]]) -> list[float]:
    """The measure of each (state, subset, point) job, 0 on an empty subset:
    one spectra call and one terms call per group of jobs with equal dims and
    subset."""
    return [_mean(terms.tolist()) for terms in _grouped_terms(jobs)]


def _ensemble_averages(plan: CutPlan, p: np.ndarray, amps: np.ndarray, owner: Sequence[int], points: Sequence) -> list:
    """The measure averaged over each ensemble at its point, or at its list of points (one length for all): member
    i of the stack amps (k, D) has weight p[i] and ensemble owner[i], ascending. One `_stack_terms` call; a member's
    value is the `_mean` of its terms, as in `cce_values`, and an average is one fsum in member order."""
    points = np.asarray(points, dtype=object)
    terms = _stack_terms(plan, amps, points.reshape(len(points), -1)[owner]).tolist()  # (k, P, masks)
    weighted = (p[:, None] * [[_mean(t) for t in row] for row in terms]).T.tolist()  # (P, k)
    bounds = np.searchsorted(owner, np.arange(len(points) + 1)).tolist()
    sums = [[math.fsum(w[lo:hi]) for w in weighted] for lo, hi in zip(bounds, bounds[1:])]
    return np.reshape(sums, points.shape).tolist()


def named_measures(psi: PureState, subset: Iterable[int]) -> NamedMeasures:
    """The four benchmark measures (von Neumann, Renyi-2, Tsallis-3, linear)
    from one spectra table."""
    return NamedMeasures(*table_values(spectra_table(psi, subset), list(BENCHMARKS.values())))


def _chain_checks(e: float, r2: float, t3: float, c: float) -> dict[str, bool]:
    """The chain of relations among the four benchmark values (of one state,
    or averaged over one ensemble), each within ORDER_TOL. Renyi order 1 is von
    Neumann, so alpha-monotonicity from order 1 to 2 reads e >= r2."""
    return {
        "e_ge_c_over_ln2": e >= c / LN2 - ORDER_TOL,
        "e_ge_2c_minus_half": e >= 2.0 * c - 0.5 - ORDER_TOL,
        "r2_ge_c_over_ln2": r2 >= c / LN2 - ORDER_TOL,
        "c_ge_t3": c >= t3 - ORDER_TOL,
        "renyi_alpha_monotone": e >= r2 - ORDER_TOL,
    }


def ordering_reports(
    cases: Sequence[tuple[PureState, Iterable[int], Sequence[EntropyParams]]],
) -> list[tuple[OrderingReport, list[float]]]:
    """Benchmark values plus the chain of lower-bound relations among them, for
    every (psi, subset, extra points) case, with the measure at the case's
    extra points: one spectra call and one terms call per group of cases with
    equal dims, subset and number of extra points."""
    base = list(BENCHMARKS.values())
    out = []
    jobs = [(psi, normalize_subset(s, psi.n_subsystems), base + list(extra)) for psi, s, extra in cases]
    for terms in _grouped_terms(jobs):
        values = [_mean(row) for row in terms.tolist()]
        named = values[: len(base)]
        out.append((OrderingReport(*named, _chain_checks(*named)), values[len(base) :]))
    return out


def tensor_identity_residual(
    psi_a: PureState, psi_b: PureState, subset: Iterable[int], params: EntropyParams
) -> float:
    """Absolute defect of the tensor-product composition identity.

    For psi = psi_a (x) psi_b and s split across the factor boundary,

        E(s) = E(s&A) + E(s&B) + (1-alpha)*beta * E(s&A) * E(s&B)

    with the cross term vanishing on the von Neumann and Renyi branches.
    """
    n_a = psi_a.n_subsystems
    n = n_a + psi_b.n_subsystems
    s = normalize_subset(subset, n)
    s_a = tuple(i for i in s if i <= n_a)
    s_b = tuple(i - n_a for i in s if i > n_a)
    joint = PureState(np.kron(psi_a.amplitudes, psi_b.amplitudes), psi_a.dims + psi_b.dims)
    e_joint, e_a, e_b = cce_values([(joint, s, params), (psi_a, s_a, params), (psi_b, s_b, params)])
    cross = 0.0 if params.is_von_neumann or params.is_renyi else (1.0 - params.alpha) * params.beta
    return abs(e_joint - e_a - e_b - cross * e_a * e_b)


def _plan_subsets(unions: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The subset whose plan evaluates each union of one dims group: the
    cover (the union of all of them) when its power set is no larger than the
    unions' together, else the union itself. A cut's reduced side depends on
    its bipartition alone, so each term keeps the bits of the union's own plan."""
    cover = tuple(sorted(set().union(*unions)))
    distinct = set(unions)
    if len(distinct) == 1 or len(cover) > MAX_SUBSET_SIZE or 1 << len(cover) > sum(1 << len(u) for u in distinct):
        return unions
    return [cover] * len(unions)


@lru_cache(maxsize=1024)
def _submasks(subset: tuple[int, ...], labels: tuple[int, ...]) -> np.ndarray:
    """Masks over `subset` of the subsets of `labels`, ascending."""
    sub = sum(1 << subset.index(i) for i in labels)
    return np.flatnonzero(np.arange(1 << len(subset)) & ~sub == 0)


def subadditivity_gaps(
    cases: Sequence[tuple[PureState, Iterable[int], Iterable[int], EntropyParams]],
) -> list[float]:
    """E(s) + E(s') - E(s u s') of every (psi, s, s', params) case, for
    disjoint subsets on the subadditive region: one spectra call and one terms
    call per group of cases with equal dims, on one plan over the union of the
    group's unions where that plan costs no more than theirs (see
    `_plan_subsets`), else per union."""
    splits = []
    for psi, s, s_prime, params in cases:
        if not in_subadditivity_region(params):
            raise ValueError(
                f"subadditivity holds on alpha >= 1 at beta = 1 (or the von Neumann limit), "
                f"got alpha={params.alpha}, beta={params.beta}"
            )
        a, b = normalize_subset(s, psi.n_subsystems), normalize_subset(s_prime, psi.n_subsystems)
        if set(a) & set(b):
            raise ValueError(f"subsets overlap: {a} and {b}")
        splits.append((a, b, tuple(sorted(a + b))))
    planned = [()] * len(cases)
    for idx in _groups(c[0].dims for c in cases):
        for i, subset in zip(idx, _plan_subsets([splits[i][2] for i in idx])):
            planned[i] = subset

    def part(terms: np.ndarray, subset: tuple[int, ...], labels: tuple[int, ...]) -> float:
        return _mean(terms[_submasks(subset, labels)].tolist())

    all_terms = _grouped_terms([(c[0], p, c[3]) for c, p in zip(cases, planned)])
    return [part(t, p, a) + part(t, p, b) - part(t, p, u) for (a, b, u), p, t in zip(splits, planned, all_terms)]


def gme_certificate(psi: PureState, params: EntropyParams) -> GmeCertificate:
    """Sufficient test for genuine tripartite entanglement on equal qudits.

    The threshold is the largest value any biseparable three-qudit pure state
    can reach; certification requires clearing it by more than floating-point
    noise, since biseparable states can sit exactly on the threshold.
    """
    if psi.n_subsystems != 3:
        raise ValueError(f"certificate needs exactly 3 subsystems, got {psi.n_subsystems}")
    d = psi.dims[0]
    if any(dim != d for dim in psi.dims):
        raise ValueError(f"certificate needs equal local dimensions, got {psi.dims}")
    value = cce_pure(psi, (1, 2, 3), params).value
    threshold = max_entropy_value(d, params) / 2.0
    return GmeCertificate(value=value, threshold=threshold, certified=value > threshold + GME_MARGIN)


def continuity_gap(
    psi: PureState, phi: PureState, subset: Iterable[int], params: EntropyParams
) -> tuple[float, float]:
    """(|E(psi) - E(phi)|, continuity bound) for nearby pure states.

    The bound is 2*alpha*eps/(alpha-1) for alpha > 1, beta >= 1, and the
    Fannes-Audenaert envelope eps*log2(d-1) + h(eps) on the von Neumann
    branch, with eps the trace distance of the two states.
    """
    if psi.dims != phi.dims:
        raise ValueError(f"dimension mismatch: {psi.dims} vs {phi.dims}")
    eps = trace_distance(psi.density(), phi.density())
    if eps >= 0.5:
        raise ValueError(f"trace distance {eps} is outside the hypothesis eps < 1/2")
    s = normalize_subset(subset, psi.n_subsystems)
    e_psi, e_phi = cce_values([(psi, s, params), (phi, s, params)])
    lhs = abs(e_psi - e_phi)
    if params.is_von_neumann:
        bound = fannes_audenaert_bound(eps, psi.dim) if eps > 0.0 else 0.0
    elif params.alpha > 1 and params.beta >= 1:
        bound = 2.0 * params.alpha * eps / (params.alpha - 1.0)
    else:
        raise ValueError(
            f"no continuity bound for alpha={params.alpha}, beta={params.beta}; "
            "need alpha > 1 with beta >= 1, or the von Neumann limit"
        )
    return lhs, bound


def locc_monotonicity_gaps(
    cases: Sequence[tuple[PureState, Iterable[int], EntropyParams, int, list[np.ndarray]]],
) -> list[float]:
    """E(psi) minus the branch-averaged measure after a local operation, for
    every (psi, subset, params, site, kraus) case.

    Restricted to rank-1 Kraus elements so each outcome branch is pure and
    the pure-state formula applies directly; nonnegative (within tolerance)
    for parameters in the concavity region. Each group of equal dims, subset
    and Kraus-set shape takes one `local_kraus_branches` call, one rank check
    and one `_ensemble_averages` call on its states and their kept branches.
    """
    checked = []
    for psi, subset, params, site, kraus in cases:
        if not in_concavity_region(params):
            raise ValueError(
                f"average monotonicity requires the concavity region, got "
                f"alpha={params.alpha}, beta={params.beta}"
            )
        checked.append((psi, tuple(subset), params, site, _kraus_set(kraus)))
    gaps = [0.0] * len(checked)
    for idx in _groups((psi.dims, s, ops.shape) for psi, s, _, _, ops in checked):
        psi, subset = checked[idx[0]][:2]
        amps = np.stack([checked[i][0].amplitudes for i in idx])
        kraus = np.stack([checked[i][4] for i in idx])
        probs, states, kept = local_kraus_branches(amps, psi.dims, [checked[i][3] for i in idx], kraus)
        # A single-element set is unitary by completeness; multi-outcome sets are
        # restricted to rank-1 elements.
        if kraus.shape[1] > 1:
            sv = np.linalg.svd(kraus, compute_uv=False)
            if (sv[..., 1] > 1e-10 * np.maximum(1.0, sv[..., 0])).any():
                raise ValueError("non-rank-1 Kraus element rejected for this check")
        # Ensemble j < n is state j alone, ensemble n + j its kept branches in order.
        n, points = len(idx), [checked[i][2] for i in idx]
        rows, p = np.concatenate([amps, states[kept]]), np.concatenate([np.ones(n), probs[kept]])
        owner = np.concatenate([np.arange(n), n + np.nonzero(kept)[0]])
        values = _ensemble_averages(cut_plan(psi.dims, subset), p, rows, owner, points + points)
        for i, before, after in zip(idx, values, values[n:]):
            gaps[i] = before - after
    return gaps
