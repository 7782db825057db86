"""Exact and shot-sampled n-qubit parallelized SWAP test.

Control i swaps qubit i of two copies of the state between two Hadamard
layers; a control bitstring z is read with control 1 as the most
significant bit. Its exact probability is a Walsh-Hadamard transform of the
cut purities (Beckey, Gigena, Coles & Cerezo, PRL 127, 140501, 2021):

    p(z) = 2^{-n} * sum_{chi in P([n])} (-1)^{|z & chi|} Tr rho_chi^2

The event "every control in s reads 0" gives the linear-entropy measure
C(s) = 1 - sum_{z in Z0(s)} p(z), where Z0(s) is the set of bitstrings
with 0 at every index in s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ResourceLimitError
from .measures import MAX_SUBSET_SIZE, cut_purities
from .tensor import PureState, normalize_subset

__all__ = [
    "ControlDistribution",
    "ShotRecord",
    "BoundTriplet",
    "register_size",
    "swap_test_distribution",
    "cce_from_distribution",
    "sample_shots",
    "estimate_from_shots",
    "bounds_from_estimate",
]

@dataclass(frozen=True)
class ControlDistribution:
    """Exact outcome distribution of the control register."""

    probs: np.ndarray
    n: int

    def __post_init__(self) -> None:
        p = np.array(self.probs, dtype=float).reshape(-1)
        if p.size != 1 << self.n:
            raise ValueError(f"need 2^{self.n} probabilities, got {p.size}")
        if not float(p.min()) >= -1e-12:  # `not >=`: also NaN
            raise ValueError(f"negative probability {p.min()}")
        total = float(p.sum())
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"probabilities must sum to 1 within 1e-10, got {total}")
        p = np.clip(p, 0.0, 1.0)  # rounding can leave an entry just outside [0, 1]
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def bitstring(self, z: int) -> str:
        return format(z, f"0{self.n}b")

    def as_dict(self) -> dict[str, float]:
        return {self.bitstring(z): float(p) for z, p in enumerate(self.probs)}

    def to_dict(self) -> dict:
        return {"n": self.n, "probs": self.as_dict()}


@dataclass(frozen=True)
class ShotRecord:
    """Multinomial counts over control bitstrings."""

    counts: dict[str, int]
    shots: int
    seed: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to the number of shots")

    def to_dict(self) -> dict:
        return {"counts": dict(self.counts), "shots": self.shots, "seed": self.seed}


def register_size(dims: tuple[int, ...]) -> int:
    """Qubit count of a register the SWAP test takes: qubits only, at most MAX_SUBSET_SIZE of them."""
    if any(d != 2 for d in dims):
        raise ValueError(f"SWAP test is defined for qubit registers, got dims {dims}")
    if len(dims) > MAX_SUBSET_SIZE:
        raise ResourceLimitError(f"SWAP test of {len(dims)} qubits exceeds the n <= {MAX_SUBSET_SIZE} guard")
    return len(dims)


def swap_test_distribution(psi: PureState) -> ControlDistribution:
    """Exact control distribution of the parallelized SWAP test on two
    copies of a qubit state, by a fast Walsh-Hadamard transform of its cut
    purities."""
    n = register_size(psi.dims)
    # Mask bit j selects label j+1; reversed axes put control 1 on axis 0.
    t = cut_purities(psi).reshape((2,) * n).transpose(range(n - 1, -1, -1))
    for axis in range(n):
        u = np.moveaxis(t, axis, 0)
        u[0], u[1] = u[0] + u[1], u[0] - u[1]
    return ControlDistribution(t.reshape(-1) / (1 << n), n)


def _zero_mask(n: int, subset: Iterable[int]) -> int:
    return sum(1 << (n - i) for i in normalize_subset(subset, n))


def cce_from_distribution(dist: ControlDistribution, subset: Iterable[int]) -> float:
    """Linear-entropy measure estimate 1 - sum over Z0(subset) of p(z)."""
    mask = _zero_mask(dist.n, subset)
    return 1.0 - float(np.sum(dist.probs[np.arange(1 << dist.n) & mask == 0]))


def sample_shots(dist: ControlDistribution, shots: int, seed: int) -> ShotRecord:
    """Multinomial draw from the exact distribution, reproducible under seed.

    Probabilities below n * 2^-52, a bound on the rounding error of the
    purity transform, are drawn as exact zeros: numpy's multinomial consumes
    a random number for every outcome with p > 0, so a rounding residue on
    an impossible outcome would otherwise shift the draws that follow it.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, np.where(dist.probs < dist.n * 2.0**-52, 0.0, dist.probs))
    record = {
        dist.bitstring(z): int(c) for z, c in enumerate(counts) if c > 0
    }
    return ShotRecord(counts=record, shots=shots, seed=seed)


def estimate_from_shots(record: ShotRecord, n: int, subset: Iterable[int]) -> tuple[float, float]:
    """(estimate, binomial standard error) of C(subset) from sampled counts."""
    mask = _zero_mask(n, subset)
    hits = sum(c for z, c in record.counts.items() if int(z, 2) & mask == 0)
    c_hat = 1.0 - hits / record.shots
    sigma = math.sqrt(max(c_hat * (1.0 - c_hat), 0.0) / record.shots)
    return c_hat, sigma


@dataclass(frozen=True)
class BoundTriplet:
    e_lower: float
    r2_lower: float
    t3_upper: float

    def to_dict(self) -> dict:
        return {"e_lower": self.e_lower, "r2_lower": self.r2_lower, "t3_upper": self.t3_upper}


def bounds_from_estimate(c: float) -> BoundTriplet:
    """Measure bounds implied by a linear-entropy value c.

    The von Neumann measure is bounded below by max(c/ln2, 2c - 1/2), the
    Renyi-2 measure by c/ln2, and the Tsallis-3 measure above by c.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"estimate must lie in [0, 1], got {c}")
    return BoundTriplet(
        e_lower=max(c / math.log(2.0), 2.0 * c - 0.5),
        r2_lower=c / math.log(2.0),
        t3_upper=c,
    )
