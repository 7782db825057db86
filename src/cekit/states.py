"""Factories for the benchmark state families and seeded random generators."""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import prod
from typing import Sequence

import numpy as np

from .tensor import DensityOperator, PureState, _as_dims, reduced_state

__all__ = [
    "ghz",
    "w",
    "dicke",
    "symmetric_coefficients",
    "star",
    "haar_random",
    "random_density",
    "random_product",
    "StateRecipe",
]


_SYMMETRIC = ("ghz", "w", "dicke")  # the permutation-symmetric families


def symmetric_coefficients(family: str, n: int, k: int | None = None) -> list[float]:
    """Dicke coefficients c_0..c_n of a permutation-symmetric family on n
    qubits, the state sum_j c_j |D_n^j>: ghz c_0 = c_n = 1/sqrt(2), w c_1 = 1,
    dicke (weight k) c_k = 1."""
    if family not in _SYMMETRIC:
        raise ValueError(f"{family!r} is not a symmetric family; choose from {_SYMMETRIC}")
    if family == "dicke" and not (k is not None and 0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if n < 2:
        raise ValueError(f"{family} needs n >= 2, got {n}")
    c = [0.0] * (n + 1)
    if family == "ghz":
        c[0] = c[n] = 1.0 / math.sqrt(2.0)
    else:
        c[1 if family == "w" else k] = 1.0
    return c


def _symmetric(c: Sequence[float]) -> PureState:
    """The n-qubit state sum_j c_j |D_n^j>: a basis string of Hamming weight j gets c_j / sqrt(C(n, j))."""
    n = len(c) - 1
    weight = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        weight = np.concatenate([weight, weight + 1])
    amp = np.array([cj / math.sqrt(math.comb(n, j)) for j, cj in enumerate(c)], dtype=complex)[weight]
    return PureState(amp, (2,) * n)


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    return _symmetric(symmetric_coefficients("ghz", n))


def w(n: int) -> PureState:
    """Uniform superposition of all weight-1 computational basis strings."""
    return _symmetric(symmetric_coefficients("w", n))


def dicke(n: int, k: int) -> PureState:
    """Symmetric superposition of all n-qubit strings with exactly k ones."""
    return _symmetric(symmetric_coefficients("dicke", n, k))


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


#: Each family and the most fields its shorthand takes after the family name.
_MAX_FIELDS = {"ghz": 1, "w": 1, "dicke": 2, "star": 1, "product": 2, "haar": 2, "mixed-random": 3}
_FAMILIES = tuple(_MAX_FIELDS)


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
        if self.family == "dicke" and (self.n is None or self.k is None or not 0 <= self.k <= self.n):
            raise ValueError("dicke needs 0 <= k <= n")
        if self.family == "star" and not (self.theta is not None and math.isfinite(self.theta)):
            raise ValueError(f"star needs a finite angle theta, got {self.theta}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.family in ("product", "haar") and not self.dims:
            raise ValueError(f"{self.family} needs local dimensions")
        if self.family == "mixed-random" and (not self.dims or self.rank is None):
            raise ValueError("mixed-random needs local dimensions and a rank")

    @classmethod
    def parse(cls, text: str) -> "StateRecipe":
        parts = text.strip().split(":")
        family = parts[0].lower()
        args = parts[1:]
        most = _MAX_FIELDS.get(family, len(args))
        if len(args) > most:
            raise ValueError(f"cannot parse state recipe {text!r}: {family} takes at most {most} field(s)")
        try:
            if family in ("ghz", "w"):
                return cls(family, n=int(args[0]))
            if family == "dicke":
                return cls(family, n=int(args[0]), k=int(args[1]))
            if family == "star":
                return cls(family, theta=float(args[0]))
            if family in ("product", "haar"):
                return cls(family, dims=_parse_dims(args[0]), seed=int(args[1]) if len(args) > 1 else 0)
            if family == "mixed-random":
                dims, rank, seed = _parse_dims(args[0]), int(args[1]), int(args[2]) if len(args) > 2 else 0
                return cls(family, dims=dims, rank=rank, seed=seed)
        except (IndexError, ValueError) as exc:
            raise ValueError(f"cannot parse state recipe {text!r}: {exc}") from exc
        raise ValueError(f"unknown family {family!r}; choose from {_FAMILIES}")

    def build(self) -> PureState | DensityOperator:
        if self.family in _SYMMETRIC:
            return _symmetric(symmetric_coefficients(self.family, self.n, self.k))
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
