"""The two-parameter unified entropy, its named limits, and order oracles.

Branch conventions (base 2 wherever a logarithm appears):

    alpha != 1, beta > 0:  [ (Tr rho^alpha)^beta - 1 ] / ((1 - alpha) * beta)
    beta  == 0 (Renyi):    log2(Tr rho^alpha) / (1 - alpha)
    alpha == 1 (von Neumann):  -Tr rho log2 rho, with 0 log 0 := 0

The prefactor 1/((1-alpha)*beta) is numerically unstable near the limits,
so dispatch happens on explicit thresholds rather than on the raw formula.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .tensor import ZERO_EIG_FLOOR, DensityOperator, hermitian_eigenvalues

__all__ = [
    "EntropyParams",
    "unified_entropy",
    "unified_entropy_spectrum",
    "unified_entropy_rows",
    "binary_entropy",
    "majorizes",
    "schur_concavity_witness",
    "schur_concavity_witnesses",
    "alpha_monotonicity_gap",
    "fannes_audenaert_bound",
    "in_concavity_region",
    "in_subadditivity_region",
    "max_entropy_value",
]

VON_NEUMANN_ALPHA_ATOL = 1e-9
RENYI_BETA_ATOL = 1e-12
PROB_SUM_ATOL = 1e-10


@dataclass(frozen=True)
class EntropyParams:
    """Entropy order pair (alpha, beta); alpha=1 and beta=0 select limit branches."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"alpha and beta must be finite, got alpha={self.alpha}, beta={self.beta}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")

    @property
    def is_von_neumann(self) -> bool:
        return abs(self.alpha - 1.0) < VON_NEUMANN_ALPHA_ATOL

    @property
    def is_renyi(self) -> bool:
        return self.beta < RENYI_BETA_ATOL

    @classmethod
    def von_neumann(cls) -> "EntropyParams":
        return cls(1.0, 1.0)

    @classmethod
    def renyi(cls, alpha: float) -> "EntropyParams":
        return cls(alpha, 0.0)

    @classmethod
    def tsallis(cls, alpha: float) -> "EntropyParams":
        return cls(alpha, 1.0)

    @classmethod
    def linear(cls) -> "EntropyParams":
        return cls(2.0, 1.0)


def in_concavity_region(p: EntropyParams) -> bool:
    """Parameter region on which the entropy is concave (and the measure an
    average-monotone): {0<a<=1, ab<=1} u {a>=1, ab>=1} u {0<a<1, 0<=b<=1}."""
    a, b = p.alpha, p.beta
    if 0 < a <= 1 and a * b <= 1:
        return True
    if a >= 1 and a * b >= 1:
        return True
    if 0 < a < 1 and 0 <= b <= 1:
        return True
    return False


def in_subadditivity_region(p: EntropyParams) -> bool:
    """Parameters with a subadditive entropy: alpha >= 1 at beta = 1, plus the
    von Neumann limit."""
    if p.is_von_neumann:
        return True
    return p.alpha >= 1 and p.beta == 1.0


def _check_prob(lo: float, total: float) -> None:
    """Checks on a probability vector's least entry and sum."""
    if lo < -1e-10:
        raise ValueError(f"negative probability {lo}")
    if not abs(total - 1.0) <= PROB_SUM_ATOL:  # also rejects a NaN or infinite entry
        raise ValueError(f"probabilities must sum to 1 within {PROB_SUM_ATOL}, got {total}")


def _as_prob_rows(arr: np.ndarray) -> np.ndarray:
    """Validated probability vectors along the last axis, clamped at 0 (which
    also turns -0.0 into 0.0). A block with no entry to clamp may come back as `arr`."""
    if arr.shape[-1] == 0:
        raise ValueError("probability vector must be nonempty")
    if arr.ndim == 1:  # one vector, as `majorizes` validates them: no per-row loop
        lo = float(np.minimum.reduce(arr))
        _check_prob(lo, float(np.add.reduce(arr)))
    else:
        flat = arr.reshape(-1, arr.shape[-1])
        lows = np.minimum.reduce(flat, 1)
        for row_lo, total in zip(lows.tolist(), np.add.reduce(flat, 1).tolist()):
            _check_prob(row_lo, total)
        lo = float(lows.min())
    return arr if lo > 0.0 else np.clip(arr, 0.0, None)


def _groups(keys: Iterable) -> list[list[int]]:
    """Positions of each distinct key in `keys`, in order of first appearance."""
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return list(out.values())


def _as_vector(v: Iterable[float]) -> np.ndarray:
    return np.asarray(v if isinstance(v, np.ndarray) else list(v), dtype=float).reshape(-1)


def _traces(lam: np.ndarray, alpha: float) -> np.ndarray:
    """Tr rho^alpha of spectra, entries at or below the numerically-zero floor
    dropped, or their entropy on the von Neumann branch."""
    keep = lam > ZERO_EIG_FLOOR
    if abs(alpha - 1.0) < VON_NEUMANN_ALPHA_ATOL:
        lam = np.where(keep, lam, 1.0)  # 1 log 1 = 0 stands in for a dropped entry
        return -(lam * np.log2(lam)).sum(axis=-1) + 0.0
    # A scalar exponent: numpy takes alpha = 0.5 and 2 as sqrt and square.
    return (np.where(keep, lam, 0.0) ** alpha).sum(axis=-1)


def _runs(keys: np.ndarray) -> list[tuple[int, int]]:
    """(lo, hi) of each run of equal values in `keys`."""
    starts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()][: keys.size]
    return list(zip(starts, starts[1:] + [keys.size]))


def _from_traces(traces: list[float], a: float, b: float) -> list[float]:
    """Entropies at (a, b) off the von Neumann branch, from Tr rho^a."""
    if b < RENYI_BETA_ATOL:
        return [math.log2(t) / (1.0 - a) + 0.0 for t in traces]
    scale = (1.0 - a) * b
    return [(t**b - 1.0) / scale + 0.0 for t in traces]


def unified_entropy_rows(rows: np.ndarray, p: EntropyParams | Sequence[EntropyParams]) -> np.ndarray:
    """Unified entropy of every spectrum along the last axis of `rows`.

    `p` is one point, or (the many-points form) an array-like of points whose
    shape broadcasts against rows.shape[:-1], each entry of the result taken
    at its own point: points (P, 1) evaluate one block of rows (c, d) at P
    points, and points (N,) evaluate N rows at one point each. The entries
    are grouped by alpha, each group's power is taken with one scalar
    exponent and the steps after it run once per point, so every value has
    the bits of a one-point call.

    Entries at or below the numerically-zero floor are dropped under the
    0^alpha := 0 and 0 log 0 := 0 conventions. The steps after the trace
    run on Python floats (libm), which numpy's vectorised loops can miss by
    an ulp.
    """
    lam = np.asarray(rows, dtype=float)
    if isinstance(p, EntropyParams):
        traces = _traces(lam, p.alpha)
        if p.is_von_neumann:
            return traces
        return np.array(_from_traces(traces.ravel().tolist(), p.alpha, p.beta)).reshape(traces.shape)
    points = np.asarray(p, dtype=object)
    shape = np.broadcast(lam[..., 0], points).shape
    given = points.ravel().tolist()
    if given and all(q is given[0] for q in given):  # one point after all
        return np.broadcast_to(unified_entropy_rows(lam, given[0]), shape).copy()
    # Entry e of the result reads row rows_of[e] at point given[points_of[e]].
    grid = np.zeros(shape, dtype=np.intp)
    rows_of, points_of = ((grid + np.arange(a.size).reshape(a.shape)).ravel() for a in (lam[..., 0], points))
    alphas = np.array([q.alpha for q in given], dtype=float)[points_of]
    # Entries sorted by alpha (stably), so each run of equal alpha takes one power.
    order = np.argsort(alphas, kind="stable")
    sorted_alphas = alphas[order]
    lam = lam.reshape(-1, lam.shape[-1])[rows_of[order]]
    by_alpha = np.empty(order.size)
    for lo, hi in _runs(sorted_alphas):
        by_alpha[lo:hi] = _traces(lam[lo:hi], float(sorted_alphas[lo]))
    vals = np.empty(order.size)
    vals[order] = by_alpha  # von Neumann entries already hold the entropy
    # The rest are finished once per run of entries that share a point.
    for lo, hi in _runs(np.array([id(q) for q in given])[points_of]):
        q = given[points_of[lo]]
        if not q.is_von_neumann:
            vals[lo:hi] = _from_traces(vals[lo:hi].tolist(), q.alpha, q.beta)
    return vals.reshape(shape)


def unified_entropy_spectrum(spectrum: Iterable[float], p: EntropyParams) -> float:
    """Unified entropy of one clamped eigenvalue vector: the one-row case of
    `unified_entropy_rows`."""
    lam = _as_vector(spectrum)
    if not np.isfinite(lam).all():
        raise ValueError(f"spectrum must be finite, got {lam}")
    return float(unified_entropy_rows(lam, p))


def unified_entropy(rho: DensityOperator | np.ndarray, p: EntropyParams) -> float:
    """Unified entropy of a density operator."""
    return unified_entropy_spectrum(hermitian_eigenvalues(rho), p)


def binary_entropy(eps: float) -> float:
    """-e log2 e - (1-e) log2 (1-e), zero at both endpoints."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"argument must lie in [0, 1], got {eps}")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    return float(-eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps))


def majorizes(lam: Iterable[float], mu: Iterable[float], *, atol: float = 1e-10) -> bool:
    """True iff lam majorizes mu: descending partial sums of lam dominate mu's."""
    a = list(itertools.accumulate(sorted(_as_prob_rows(_as_vector(lam)).tolist(), reverse=True)))
    b = list(itertools.accumulate(sorted(_as_prob_rows(_as_vector(mu)).tolist(), reverse=True)))
    # Zero padding would repeat the shorter vector's last partial sum.
    a += a[-1:] * (len(b) - len(a))
    b += b[-1:] * (len(a) - len(b))
    return all(x >= y - atol for x, y in zip(a, b))


def schur_concavity_witnesses(
    cases: Sequence[tuple[Iterable[float], Iterable[float], EntropyParams]],
) -> list[float]:
    """`schur_concavity_witness` of every (lam, mu, p) case: the vectors are
    validated and evaluated in one many-points kernel call per length."""
    vecs = [_as_vector(v) for case in cases for v in case[:2]]
    vals = np.empty(len(vecs))
    for idx in _groups(v.size for v in vecs):
        rows = _as_prob_rows(np.array([vecs[i] for i in idx]))
        vals[idx] = unified_entropy_rows(rows, [cases[i // 2][2] for i in idx])
    return (vals[::2] - vals[1::2]).tolist()


def schur_concavity_witness(lam: Iterable[float], mu: Iterable[float], p: EntropyParams) -> float:
    """Signed gap S(diag lam) - S(diag mu); nonnegative whenever mu majorizes lam."""
    return schur_concavity_witnesses([(lam, mu, p)])[0]


def alpha_monotonicity_gap(
    rho: DensityOperator | np.ndarray, alpha_lo: float, alpha_hi: float, beta: float
) -> float:
    """S_{alpha_lo,beta}(rho) - S_{alpha_hi,beta}(rho) for alpha_lo <= alpha_hi, beta >= 1."""
    if not 0 < alpha_lo <= alpha_hi:
        raise ValueError(f"need 0 < alpha_lo <= alpha_hi, got {alpha_lo}, {alpha_hi}")
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    lam = hermitian_eigenvalues(rho)
    return unified_entropy_spectrum(lam, EntropyParams(alpha_lo, beta)) - unified_entropy_spectrum(
        lam, EntropyParams(alpha_hi, beta)
    )


def fannes_audenaert_bound(eps: float, d: int) -> float:
    """Continuity envelope eps*log2(d-1) + h(eps) for the von Neumann branch.

    Only defined on 0 <= eps < 1/2; larger eps falls outside the hypothesis
    and is flagged rather than computed.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if not 0.0 <= eps:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if eps >= 0.5:
        raise ValueError(f"eps must be < 1/2, got {eps}")
    return eps * math.log2(d - 1) + binary_entropy(eps)


def max_entropy_value(d: int, p: EntropyParams) -> float:
    """Entropy of the d-dimensional maximally mixed state."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if p.is_von_neumann or p.is_renyi:
        return math.log2(d)
    e = (1.0 - p.alpha) * p.beta
    return (d**e - 1.0) / e
