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
from typing import Iterable

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


def _as_prob_vector(v: Iterable[float]) -> np.ndarray:
    """Validated probability vector, clamped at 0 (which also turns -0.0
    into 0.0). A vector with no entry to clamp may come back as a view of `v`."""
    arr = np.asarray(v if isinstance(v, np.ndarray) else list(v), dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("probability vector must be nonempty")
    lo = float(arr.min())
    if lo < -1e-10:
        raise ValueError(f"negative probability {arr.min()}")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_SUM_ATOL:
        raise ValueError(f"probabilities must sum to 1 within {PROB_SUM_ATOL}, got {total}")
    return arr if lo > 0.0 else np.clip(arr, 0.0, None)


def unified_entropy_rows(rows: np.ndarray, p: EntropyParams) -> np.ndarray:
    """Unified entropy of every spectrum along the last axis of `rows`.

    Entries at or below the numerically-zero floor are dropped under the
    0^alpha := 0 and 0 log 0 := 0 conventions. The steps after the trace
    run on Python floats (libm), which numpy's vectorised loops can miss by
    an ulp.
    """
    lam = np.asarray(rows, dtype=float)
    keep = lam > ZERO_EIG_FLOOR
    if p.is_von_neumann:
        lam = np.where(keep, lam, 1.0)  # 1 log 1 = 0 stands in for a dropped entry
        return -(lam * np.log2(lam)).sum(axis=-1) + 0.0
    traces = (np.where(keep, lam, 0.0) ** p.alpha).sum(axis=-1)
    if p.is_renyi:
        vals = [math.log2(t) / (1.0 - p.alpha) + 0.0 for t in traces.ravel().tolist()]
    else:
        scale = (1.0 - p.alpha) * p.beta
        vals = [(t**p.beta - 1.0) / scale + 0.0 for t in traces.ravel().tolist()]
    return np.array(vals).reshape(traces.shape)


def unified_entropy_spectrum(spectrum: Iterable[float], p: EntropyParams) -> float:
    """Unified entropy of one clamped eigenvalue vector: the one-row case of
    `unified_entropy_rows`."""
    return float(unified_entropy_rows(spectrum, p))


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
    a = list(itertools.accumulate(sorted(_as_prob_vector(lam).tolist(), reverse=True)))
    b = list(itertools.accumulate(sorted(_as_prob_vector(mu).tolist(), reverse=True)))
    # Zero padding would repeat the shorter vector's last partial sum.
    a += a[-1:] * (len(b) - len(a))
    b += b[-1:] * (len(a) - len(b))
    return all(x >= y - atol for x, y in zip(a, b))


def schur_concavity_witness(lam: Iterable[float], mu: Iterable[float], p: EntropyParams) -> float:
    """Signed gap S(diag lam) - S(diag mu); nonnegative whenever mu majorizes lam."""
    return unified_entropy_spectrum(_as_prob_vector(lam), p) - unified_entropy_spectrum(
        _as_prob_vector(mu), p
    )


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
