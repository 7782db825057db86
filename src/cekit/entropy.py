"""The two-parameter unified entropy, its named limits, and the majorization order.

Branch conventions (base 2 wherever a logarithm appears):

    alpha != 1, beta > 0:  [ (Tr rho^alpha)^beta - 1 ] / ((1 - alpha) * beta)
    beta  == 0 (Renyi):    log2(Tr rho^alpha) / (1 - alpha)
    alpha == 1 (von Neumann):  -Tr rho log2 rho, with 0 log 0 := 0

The prefactor 1/((1-alpha)*beta) is numerically unstable near the limits,
so dispatch happens on explicit thresholds rather than on the raw formula.
"""
from __future__ import annotations

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
    "majorizes_rows",
    "fannes_audenaert_bound",
    "in_concavity_region",
    "in_subadditivity_region",
    "max_entropy_value",
]

VON_NEUMANN_ALPHA_ATOL = 1e-9
RENYI_BETA_ATOL = 1e-12
PROB_SUM_ATOL = 1e-10
MAJORIZATION_ATOL = 1e-10  # slack of every partial-sum comparison in `majorizes_rows`


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
    return (0 < a <= 1 and a * b <= 1) or (a >= 1 and a * b >= 1) or (0 < a < 1 and 0 <= b <= 1)


def in_subadditivity_region(p: EntropyParams) -> bool:
    """Parameters with a subadditive entropy: alpha >= 1 at beta = 1, plus the
    von Neumann limit."""
    return p.is_von_neumann or (p.alpha >= 1 and p.beta == 1.0)


def _as_prob_rows(arr: np.ndarray, floor: float = -1e-10, top: float | None = None) -> np.ndarray:
    """Validated probability vectors along the last axis (no entry below `floor`), clamped at 0, which also
    turns -0.0 into 0.0, and at `top` if given. A block with no entry to clamp may come back as `arr`."""
    if arr.shape[-1] == 0:
        raise ValueError("probability vector must be nonempty")
    flat = arr.reshape(-1, arr.shape[-1])
    lows, totals = np.minimum.reduce(flat, 1), np.add.reduce(flat, 1)
    bad = (lows < floor) | ~(np.abs(totals - 1.0) <= PROB_SUM_ATOL)  # `not <=`: also NaN and inf
    if bad.any():  # the first bad vector raises
        lo, total = float(lows[bad.argmax()]), float(totals[bad.argmax()])
        if lo < floor:
            raise ValueError(f"negative probability {lo}")
        raise ValueError(f"probabilities must sum to 1 within {PROB_SUM_ATOL}, got {total}")
    return np.clip(arr, 0.0, top) if top is not None or (lows <= 0.0).any() else arr


def _traces(lam: np.ndarray, alpha: float) -> np.ndarray:
    """Tr rho^alpha of spectra, entries at or below the numerically-zero floor
    dropped, or their entropy on the von Neumann branch."""
    keep = lam > ZERO_EIG_FLOOR
    if abs(alpha - 1.0) < VON_NEUMANN_ALPHA_ATOL:
        lam = np.where(keep, lam, 1.0)  # 1 log 1 = 0 stands in for a dropped entry
        return -(lam * np.log2(lam)).sum(axis=-1) + 0.0
    # A scalar exponent: numpy takes 0.5 and 2 as sqrt and square, which an
    # array exponent does not, so the many-points form sends those alphas here.
    return (np.where(keep, lam, 0.0) ** alpha).sum(axis=-1)


def _from_traces(traces: list[float], a: float, b: float, nonzero: bool | None = None) -> list[float]:
    """Entropies at (a, b) off the von Neumann branch, from Tr rho^a. A trace
    that underflows to 0 (no spectrum's is 0: its largest eigenvalue is above
    the zero floor) or a power (Tr rho^a)^b that overflows raises ValueError.
    `nonzero` is a caller's `all(traces)`: points finished from one list scan it once."""
    what = "Tr rho^alpha underflows to 0"
    if all(traces) if nonzero is None else nonzero:  # a truth scan: the fastest test for a 0 in a list of floats
        try:
            if b < RENYI_BETA_ATOL:
                return [math.log2(t) / (1.0 - a) + 0.0 for t in traces]
            scale = (1.0 - a) * b
            return [(t**b - 1.0) / scale + 0.0 for t in traces]
        except OverflowError:
            what = "(Tr rho^alpha)^beta overflows"
    raise ValueError(f"entropy at alpha={a}, beta={b} is outside double range: {what}")


def _slopes(lam: np.ndarray, params: EntropyParams) -> np.ndarray:
    """S'(lambda) at every eigenvalue of the spectra rows `lam`: the entropy's
    derivative at rho = U diag(lam) U^dag is U diag(S'(lam)) U^dag. Entries
    at or below the numerically-zero floor, which the entropy drops, get 0."""
    keep = lam > ZERO_EIG_FLOOR
    lam, a = np.where(keep, lam, 1.0), params.alpha  # no log or negative power of a dropped entry
    if params.is_von_neumann:
        return np.where(keep, -(np.log2(lam) + 1.0 / math.log(2.0)), 0.0)
    trace = np.where(keep, lam**a, 0.0).sum(axis=-1, keepdims=True)
    if params.is_renyi:
        return np.where(keep, a / ((1.0 - a) * math.log(2.0) * trace) * lam ** (a - 1.0), 0.0)
    return np.where(keep, a * trace ** (params.beta - 1.0) / (1.0 - a) * lam ** (a - 1.0), 0.0)


def unified_entropy_rows(rows: np.ndarray, p: EntropyParams | Sequence[EntropyParams]) -> np.ndarray:
    """Unified entropy of every spectrum along the last axis of `rows`.

    `p` is one point, or (the many-points form) an array-like of points whose
    shape broadcasts against rows.shape[:-1], each entry of the result taken
    at its own point: points (P, 1) evaluate one block of rows (c, d) at P
    points, and points (N,) evaluate N rows at one point each. One
    array-exponent power serves every entry but the von Neumann ones and
    those at alpha exactly 0.5 or 2, which take `_traces`' scalar exponent;
    the steps after the power run once per point, so every value has the
    bits of a one-point call. A last axis of length 0, or a NaN or infinite
    entry, raises ValueError.

    Entries at or below the numerically-zero floor are dropped under the
    0^alpha := 0 and 0 log 0 := 0 conventions. The steps after the trace
    run on Python floats (libm), which numpy's vectorised loops can miss by
    an ulp.
    """
    lam = np.asarray(rows, dtype=float)
    if lam.shape[-1:] in ((), (0,)):
        raise ValueError("spectrum must be nonempty")
    if not np.isfinite(lam).all():  # one pass for every form; the zero floor would drop NaN and -inf
        raise ValueError(f"spectrum must be finite, got {lam}")
    points = None if isinstance(p, EntropyParams) else np.asarray(p, dtype=object)
    given = [p] if points is None else points.ravel().tolist()
    if points is None or (given and all(q is given[0] for q in given)):  # one point, alone or repeated
        q, traces = given[0], _traces(lam, given[0].alpha)
        if not q.is_von_neumann:
            traces = np.array(_from_traces(traces.ravel().tolist(), q.alpha, q.beta)).reshape(traces.shape)
        return traces if points is None else np.broadcast_to(traces, np.broadcast(lam[..., 0], points).shape).copy()
    shape = np.broadcast(lam[..., 0], points).shape
    # Entry e of the result reads row rows_of[e] at point given[points_of[e]].
    grid = np.zeros(shape, dtype=np.intp)
    rows_of, points_of = ((grid + np.arange(a.size).reshape(a.shape)).ravel() for a in (lam[..., 0], points))
    lam = lam.reshape(-1, lam.shape[-1])[rows_of]
    alphas = np.array([q.alpha for q in given], dtype=float)[points_of]
    # One power for every entry: an array exponent gives a scalar one's bits,
    # except where numpy takes a scalar 0.5 or 2 as sqrt or square.
    vals = (np.where(lam > ZERO_EIG_FLOOR, lam, 0.0) ** alphas[:, None]).sum(axis=-1)
    vn = np.abs(alphas - 1.0) < VON_NEUMANN_ALPHA_ATOL
    for a, own in ((1.0, vn), (0.5, alphas == 0.5), (2.0, alphas == 2.0)):
        if own.any():  # von Neumann entries then hold the entropy
            vals[own] = _traces(lam[own], a)
    # The rest are finished once per run of entries that share a point.
    ids = np.array([id(q) for q in given])[points_of]
    starts = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()][: ids.size]
    out, owners = vals.tolist(), points_of.tolist()
    for lo, hi in zip(starts, starts[1:] + [ids.size]):
        q = given[owners[lo]]
        if not q.is_von_neumann:
            out[lo:hi] = _from_traces(out[lo:hi], q.alpha, q.beta)
    return np.array(out).reshape(shape)


def unified_entropy_spectrum(spectrum: Iterable[float], p: EntropyParams) -> float:
    """Unified entropy of one clamped eigenvalue vector: the one-row case of `unified_entropy_rows`."""
    return float(unified_entropy_rows(np.ravel(spectrum if isinstance(spectrum, np.ndarray) else list(spectrum)), p))


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


def majorizes_rows(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Whether each vector along the last axis of `lam` majorizes `mu`'s at the same leading index (lengths
    may differ), by descending partial sums added left to right, as `itertools.accumulate` adds them."""
    a, b = (np.cumsum(np.sort(_as_prob_rows(np.asarray(v, dtype=float)))[..., ::-1], axis=-1) for v in (lam, mu))
    # Zero padding would repeat the shorter vector's last partial sum.
    n = max(a.shape[-1], b.shape[-1])
    a, b = (np.concatenate([s] + [s[..., -1:]] * (n - s.shape[-1]), axis=-1) for s in (a, b))
    return (a >= b - MAJORIZATION_ATOL).all(axis=-1)


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
    try:
        return (d**e - 1.0) / e
    except OverflowError:
        raise ValueError(
            f"entropy at alpha={p.alpha}, beta={p.beta} is outside double range: (Tr rho^alpha)^beta overflows"
        ) from None
