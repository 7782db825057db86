"""Factories for the benchmark state families and seeded random generators."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from math import prod
from typing import Sequence

import numpy as np

from .entropy import unified_entropy_spectrum
from .measures import BENCHMARKS
from .tensor import DensityOperator, PureState, _as_dims, reduced_state

__all__ = [
    "ghz",
    "w",
    "dicke",
    "star",
    "haar_random",
    "random_density",
    "random_product",
    "ghz_w_closed_forms",
    "StateRecipe",
]


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValueError(f"GHZ needs n >= 2, got {n}")
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return PureState(amp, (2,) * n)


def w(n: int) -> PureState:
    """Uniform superposition of all weight-1 computational basis strings."""
    if n < 2:
        raise ValueError(f"W needs n >= 2, got {n}")
    amp = np.zeros(2**n, dtype=complex)
    for i in range(n):
        amp[1 << (n - 1 - i)] = 1.0 / math.sqrt(n)
    return PureState(amp, (2,) * n)


def dicke(n: int, k: int) -> PureState:
    """Symmetric superposition of all n-qubit strings with exactly k ones.

    Amplitudes come from ranked enumeration of the k-subsets, so no basis
    string is accumulated twice.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if n < 2:
        raise ValueError(f"Dicke needs n >= 2, got {n}")
    amp = np.zeros(2**n, dtype=complex)
    coeff = 1.0 / math.sqrt(math.comb(n, k))
    for ones in combinations(range(n), k):
        idx = sum(1 << (n - 1 - pos) for pos in ones)
        amp[idx] = coeff
    return PureState(amp, (2,) * n)


def star(theta: float) -> PureState:
    """Three EPR-like pairs cos(t)|00> + sin(t)|11>, regrouped as a dim-8 hub
    plus three leaf qubits.

    The hub holds the three first registers; basis state |j, bits(j)> carries
    amplitude a^(3-w) b^w with a=cos(t), b=sin(t) and w the Hamming weight of j.
    """
    a, b = math.cos(theta), math.sin(theta)
    amp = np.zeros(64, dtype=complex)
    for j in range(8):
        weight = bin(j).count("1")
        amp[j * 8 + j] = a ** (3 - weight) * b**weight
    return PureState(amp, (8, 2, 2, 2))


def haar_random(dims: Sequence[int], seed: int) -> PureState:
    """Haar-distributed pure state from a normalized complex Gaussian vector."""
    rng = np.random.default_rng(seed)
    d = prod(int(x) for x in dims)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(z / np.linalg.norm(z), tuple(int(x) for x in dims))


def random_density(dims: Sequence[int], rank: int, seed: int) -> DensityOperator:
    """Random density operator of rank <= rank, via partial trace of a Haar
    state on an auxiliary space of dimension rank."""
    dims = tuple(int(x) for x in dims)
    d = prod(dims)
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in 1..{d}, got {rank}")
    if rank == 1:
        return haar_random(dims, seed).density()
    return reduced_state(haar_random(dims + (rank,), seed), range(1, len(dims) + 1))


def random_product(dims: Sequence[int], seed: int) -> PureState:
    """Tensor product of independent Haar-random single-site states."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(x) for x in dims)
    amp = np.ones(1, dtype=complex)
    for d in dims:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        amp = np.kron(amp, z / np.linalg.norm(z))
    return PureState(amp, dims)


def ghz_w_closed_forms(n: int, size: int) -> tuple[dict[str, float], dict[str, float]]:
    """Benchmark measures of GHZ and W states on {1..size} without statevectors.

    Every nonempty proper cut of the GHZ state has spectrum (1/2, 1/2); a
    size-k cut of the W state has spectrum (k/n, 1-k/n). Exact for any n, so
    this is both the large-n path and the dual-path oracle for the exact
    evaluation.
    """
    if not 1 <= size <= n:
        raise ValueError(f"need 1 <= size <= n, got size={size}, n={n}")
    ghz_vals: dict[str, float] = {}
    w_vals: dict[str, float] = {}
    nonzero = (1 << size) - (1 if size < n else 2)
    for key, params in BENCHMARKS.items():
        ghz_vals[key] = nonzero * unified_entropy_spectrum([0.5, 0.5], params) / (1 << size)
        w_vals[key] = (
            math.fsum(
                math.comb(size, k)
                * unified_entropy_spectrum([k / n, (n - k) / n], params)
                for k in range(size + 1)
            )
            / (1 << size)
        )
    return ghz_vals, w_vals


_FAMILIES = ("ghz", "w", "dicke", "star", "product", "haar", "mixed-random")


@dataclass(frozen=True)
class StateRecipe:
    """Parsed description of a state family plus its parameters.

    Shorthand grammar: ghz:N, w:N, dicke:N:K, star:THETA, haar:DIMS[:SEED],
    product:DIMS[:SEED], mixed-random:DIMS:RANK[:SEED], with DIMS like 2x2x2.
    """

    family: str
    n: int | None = None
    k: int | None = None
    theta: float | None = None
    dims: tuple[int, ...] | None = None
    rank: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {_FAMILIES}")
        if self.family in ("ghz", "w") and (self.n is None or self.n < 2):
            raise ValueError(f"{self.family} needs n >= 2")
        if self.family == "dicke":
            if self.n is None or self.k is None or not 0 <= self.k <= self.n:
                raise ValueError("dicke needs 0 <= k <= n")
        if self.family == "star" and self.theta is None:
            raise ValueError("star needs a real angle theta")
        if self.family in ("product", "haar") and not self.dims:
            raise ValueError(f"{self.family} needs local dimensions")
        if self.family == "mixed-random" and (not self.dims or self.rank is None):
            raise ValueError("mixed-random needs local dimensions and a rank")

    @classmethod
    def parse(cls, text: str) -> "StateRecipe":
        parts = text.strip().split(":")
        family = parts[0].lower()
        args = parts[1:]
        try:
            if family in ("ghz", "w"):
                return cls(family, n=int(args[0]))
            if family == "dicke":
                return cls(family, n=int(args[0]), k=int(args[1]))
            if family == "star":
                return cls(family, theta=float(args[0]))
            if family in ("product", "haar"):
                dims = _parse_dims(args[0])
                seed = int(args[1]) if len(args) > 1 else 0
                return cls(family, dims=dims, seed=seed)
            if family == "mixed-random":
                dims = _parse_dims(args[0])
                rank = int(args[1])
                seed = int(args[2]) if len(args) > 2 else 0
                return cls(family, dims=dims, rank=rank, seed=seed)
        except (IndexError, ValueError) as exc:
            raise ValueError(f"cannot parse state recipe {text!r}: {exc}") from exc
        raise ValueError(f"unknown family {family!r}; choose from {_FAMILIES}")

    @classmethod
    def from_json(cls, obj: str | dict) -> "StateRecipe":
        data = json.loads(obj) if isinstance(obj, str) else dict(obj)
        family = data.pop("family", None)
        if family is None:
            raise ValueError("recipe JSON needs a 'family' key")
        dims = data.pop("dims", None)
        if dims is not None:
            data["dims"] = tuple(int(d) for d in dims)
        return cls(family=family, **data)

    def build(self) -> PureState | DensityOperator:
        if self.family == "ghz":
            return ghz(self.n)
        if self.family == "w":
            return w(self.n)
        if self.family == "dicke":
            return dicke(self.n, self.k)
        if self.family == "star":
            return star(self.theta)
        if self.family == "haar":
            return haar_random(self.dims, self.seed)
        if self.family == "product":
            return random_product(self.dims, self.seed)
        return random_density(self.dims, self.rank, self.seed)

    @property
    def local_dims(self) -> tuple[int, ...]:
        """Local dimensions of the state `build()` makes, read and validated without building it."""
        return _as_dims((8, 2, 2, 2) if self.family == "star" else self.dims or (2,) * self.n)

    def label(self) -> str:
        if self.family in ("ghz", "w"):
            return f"{self.family}:{self.n}"
        if self.family == "dicke":
            return f"dicke:{self.n}:{self.k}"
        if self.family == "star":
            return f"star:{self.theta:.6g}"
        dims = "x".join(str(d) for d in self.dims)
        if self.family == "mixed-random":
            return f"mixed-random:{dims}:{self.rank}:{self.seed}"
        return f"{self.family}:{dims}:{self.seed}"


def _parse_dims(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.lower().split("x"))
