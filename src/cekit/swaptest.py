"""Exact and shot-sampled n-qubit parallelized SWAP test.

Control i swaps qubit i of two copies of the state between two Hadamard
layers; a control bitstring z is read with control 1 as the most
significant bit. Its exact probability is a Walsh-Hadamard transform of the
cut purities (Beckey, Gigena, Coles & Cerezo, PRL 127, 140501, 2021):

    p(z) = 2^{-n} * sum_{chi in P([n])} (-1)^{|z & chi|} Tr rho_chi^2

The event "every control in s reads 0" gives the linear-entropy measure
C(s) = 1 - sum_{z in Z0(s)} p(z), where Z0(s) is the set of bitstrings
with 0 at every index in s.

`swap_test_rows` is stacked: amplitudes (k, 2^n) take one purity pass, one
transform and one row-wise check; `cce_from_rows` reads C(s) of every row in
one sum. A row has the bits it gets alone, so `swap_test_distribution` and
`cce_from_distribution` are their one-row cases.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .entropy import _as_prob_rows
from .errors import ResourceLimitError
from .measures import cut_purity_rows
from .tensor import PureState, normalize_subset

__all__ = [
    "MAX_SWAP_QUBITS",
    "ControlDistribution",
    "ShotRecord",
    "BoundTriplet",
    "register_size",
    "swap_test_rows",
    "swap_test_distribution",
    "cce_from_rows",
    "cce_from_distribution",
    "sample_shots",
    "estimate_from_shots",
    "bounds_from_estimate",
]

MAX_SWAP_QUBITS = 16  # an exact distribution takes about a minute at 16 qubits and grows about x4 per qubit

@dataclass(frozen=True)
class ControlDistribution:
    """Exact outcome distribution of the control register."""

    probs: np.ndarray
    n: int

    def __post_init__(self) -> None:
        p = np.array(self.probs, dtype=float).reshape(-1)
        if p.size != 1 << self.n:
            raise ValueError(f"need 2^{self.n} probabilities, got {p.size}")
        p = _as_prob_rows(p, -1e-12, 1.0)  # rounding can leave an entry just outside [0, 1]
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
    """Qubit count of a register the SWAP test takes: qubits only, at most MAX_SWAP_QUBITS of them."""
    if any(d != 2 for d in dims):
        raise ValueError(f"SWAP test is defined for qubit registers, got dims {dims}")
    if len(dims) > MAX_SWAP_QUBITS:
        raise ResourceLimitError(f"SWAP test of {len(dims)} qubits exceeds the n <= {MAX_SWAP_QUBITS} guard")
    return len(dims)


def swap_test_rows(amps: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Exact control distributions (k, 2^n) of the parallelized SWAP test on two copies of each row
    of qubit amplitudes (k, 2^n), by one fast Walsh-Hadamard transform of their cut purities."""
    n = register_size(dims)
    # Mask bit j selects label j+1; reversed axes put control 1 on axis 1, after the stack axis.
    t = cut_purity_rows(amps, dims).reshape((-1,) + (2,) * n).transpose(0, *range(n, 0, -1))
    for axis in range(1, n + 1):
        u = np.moveaxis(t, axis, 0)
        u[0], u[1] = u[0] + u[1], u[0] - u[1]
    return _as_prob_rows(t.reshape(len(t), -1) / (1 << n), -1e-12, 1.0)  # as `ControlDistribution` checks


def swap_test_distribution(psi: PureState) -> ControlDistribution:
    """Exact control distribution of the parallelized SWAP test on two
    copies of a qubit state: `swap_test_rows` of one state."""
    return ControlDistribution(swap_test_rows(psi.amplitudes[None], psi.dims)[0], len(psi.dims))


def _zero_mask(n: int, subset: Iterable[int]) -> int:
    return sum(1 << (n - i) for i in normalize_subset(subset, n))


def cce_from_rows(probs: np.ndarray, subset: Iterable[int]) -> np.ndarray:
    """Linear-entropy measure 1 - sum over Z0(subset) of p(z) of every control distribution along the last
    axis of `probs` (..., 2^n). `compress` keeps each row contiguous, so its sum has the bits of a row alone."""
    n = probs.shape[-1].bit_length() - 1
    return 1.0 - np.compress(np.arange(1 << n) & _zero_mask(n, subset) == 0, probs, axis=-1).sum(axis=-1)


def cce_from_distribution(dist: ControlDistribution, subset: Iterable[int]) -> float:
    """Linear-entropy measure estimate 1 - sum over Z0(subset) of p(z): `cce_from_rows` of one distribution."""
    return float(cce_from_rows(dist.probs, subset))


def sample_shots(dist: ControlDistribution, shots: int, seed: int) -> ShotRecord:
    """Multinomial draw from the exact distribution, reproducible under seed.

    Probabilities below n * 2^-52, a bound on the rounding error of the
    purity transform, are drawn as exact zeros: numpy's multinomial consumes
    a random number for every outcome with p > 0, so a rounding residue on
    an impossible outcome would otherwise shift the draws that follow it.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
