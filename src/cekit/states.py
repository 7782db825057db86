"""Factories for the benchmark state families and seeded random generators."""
from __future__ import annotations

import dataclasses
import math
import operator
from functools import lru_cache
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
    "haar_rows",
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


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Each vector along the last axis of z over its norm, bit for bit `v / np.linalg.norm(v)`: both take the
    squared norm as BLAS `ddot` of the real parts plus that of the imaginary parts (a stacked (1, D) @ (D, 1)
    `matmul` is one `ddot` per row), then divide by its `sqrt`."""
    rows = z.reshape(-1, 1, z.shape[-1])
    sq = rows.real @ rows.real.swapaxes(-1, -2) + rows.imag @ rows.imag.swapaxes(-1, -2)
    return z / np.sqrt(sq).reshape(z.shape[:-1] + (1,))


# numpy's SeedSequence (O'Neill's seed_seq_fe) over a stack of seeds. Its hash constants do not depend on
# the data: each `hashmix` call in order xors one constant and multiplies by the next, so the calls' (xor,
# multiply) pairs are fixed. `_FILL` hashes the pool's words, `_MIX[src]` pool word src into the other
# three, `_extra_pairs(width)` each word past the pool into all four, and `_OUT` the pool into
# `generate_state(4, uint64)`'s eight 32-bit words.
_POOL = 4
_MASK32, _MASK128 = 0xFFFF_FFFF, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _hash_pairs(init: int, mult: int, count: int) -> np.ndarray:
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array([consts[:-1], consts[1:]], dtype=np.uint32)[..., None]  # (xor or multiply, call, 1)


_IN = _hash_pairs(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_FILL, _MIX = _IN[:, :_POOL], _IN[:, _POOL:].reshape(2, _POOL, _POOL - 1, 1)
_OTHERS = [[dst for dst in range(_POOL) if dst != src] for src in range(_POOL)]
_OUT = _hash_pairs(0x8B51F9DD, 0x58F38DED, 2 * _POOL)


@lru_cache(maxsize=None)
def _extra_pairs(width: int) -> np.ndarray:
    pairs = _hash_pairs(0x43B0D7E5, 0x931E8875, _POOL * width)[:, _POOL * _POOL :]
    return pairs.reshape(2, width - _POOL, _POOL, 1).swapaxes(0, 1)  # (word past the pool, 2, dst, 1)


def _hashmix(x: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    x = (x ^ pairs[0]) * pairs[1]
    return x ^ x >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return x ^ x >> np.uint32(16)


def _pcg64_seeds(seeds: Sequence[int]) -> list[tuple[int, int]]:
    """(state, inc) of `PCG64(SeedSequence(seed))` for each seed, by numpy's seeding: one pass of the
    SeedSequence hash over the stack, then PCG64's two-step seeding of each seed's 128-bit state."""
    seeds = [operator.index(s) for s in seeds]  # a float raises TypeError, as SeedSequence does
    if any(s < 0 for s in seeds):
        raise ValueError(f"expected non-negative integer seeds, got {min(seeds)}")
    # A seed's entropy is its little-endian 32-bit words (0 is one word). An absent word of the pool hashes
    # as 0, so pool words are zero-padded; a word past the pool is mixed in only for a seed that has it.
    n_words = np.array([max(1, -(-s.bit_length() // 32)) for s in seeds], dtype=int)
    width = max(_POOL, int(n_words.max(initial=0)))
    words = np.frombuffer(b"".join(s.to_bytes(4 * width, "little") for s in seeds), "<u4")
    words = words.reshape(len(seeds), width).T.astype(np.uint32)  # (word, seed)
    pool = _hashmix(words[:_POOL], _FILL)
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _MIX[:, src]))
    for src, pairs in enumerate(_extra_pairs(width), _POOL):
        pool = np.where(n_words > src, _mix(pool, _hashmix(words[src], pairs)), pool)
    out = _hashmix(np.tile(pool, (2, 1)), _OUT).astype(np.uint64)
    state = (out[0::2] | out[1::2] << np.uint64(32)).tolist()  # generate_state(4, uint64), word by word
    pcg = []
    for hi, lo, inc_hi, inc_lo in zip(*state):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        pcg.append((((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128, inc))  # state 0: step, add, step
    return pcg


def haar_rows(dims: Sequence[int], seeds: Sequence[int]) -> np.ndarray:
    """The amplitudes of `haar_random(dims, seed)` for each seed, as one (k, D) stack, bit for bit: each
    seed's generator state comes from one SeedSequence pass over the stack, its 2D normals from one call of
    one generator (the D real parts, then the D imaginary ones), and the norms from `_unit_rows`."""
    d = prod(_as_dims(dims))
    rng = np.random.Generator(np.random.PCG64(0))
    normals = np.empty((len(seeds), 2 * d))
    for row, (state, inc) in zip(normals, _pcg64_seeds(seeds)):
        rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0,
        }
        rng.standard_normal(out=row)
    return _unit_rows(normals[:, :d] + 1j * normals[:, d:])


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


#: Each family: the factory that builds it, looked up when `build` runs, then its fields after the family
#: name in recipe order, which are the factory's arguments. A recipe may leave out a last `seed` (0).
_FAMILIES = {
    "ghz": ("ghz", "n"),
    "w": ("w", "n"),
    "dicke": ("dicke", "n", "k"),
    "star": ("star", "theta"),
    "product": ("random_product", "dims", "seed"),
    "haar": ("haar_random", "dims", "seed"),
    "mixed-random": ("random_density", "dims", "rank", "seed"),
}
#: Reader and writer of each recipe field that is not an int: `float` and `.6g`, `2x3` and back.
_FORMS = {
    "theta": (float, "{:.6g}".format),
    "dims": (lambda text: tuple(int(part) for part in text.lower().split("x")), lambda d: "x".join(map(str, d))),
}


def _fields(family: str) -> tuple[str, ...]:
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {tuple(_FAMILIES)}")
    return _FAMILIES[family][1:]


@dataclasses.dataclass(frozen=True)
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
        fields = _fields(self.family)
        missing = [f for f in fields if getattr(self, f) in (None, ())]  # empty dims are missing too
        if missing:
            raise ValueError(f"{self.family} is missing field(s) {', '.join(missing)}")
        extra = [f.name for f in dataclasses.fields(self)[1:]
                 if f.name not in fields and getattr(self, f.name) != f.default]
        if extra:
            raise ValueError(f"{self.family} takes no field(s) {', '.join(extra)}")
        if self.n is not None and self.n < 2:  # checked on n alone: O(1) however large n is
            raise ValueError(f"{self.family} needs n >= 2")
        if self.k is not None and not 0 <= self.k <= self.n:
            raise ValueError(f"{self.family} needs 0 <= k <= n")
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError(f"{self.family} needs a finite angle theta, got {self.theta}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def parse(cls, text: str) -> "StateRecipe":
        family, *args = text.strip().split(":")
        family = family.lower()
        fields = _fields(family)
        if len(args) > len(fields):
            raise ValueError(f"cannot parse state recipe {text!r}: {family} takes at most {len(fields)} field(s)")
        try:
            return cls(family, **{f: _FORMS.get(f, (int, str))[0](arg) for f, arg in zip(fields, args)})
        except ValueError as exc:
            raise ValueError(f"cannot parse state recipe {text!r}: {exc}") from exc

    def build(self) -> PureState | DensityOperator:
        factory, *fields = _FAMILIES[self.family]
        return globals()[factory](*(getattr(self, f) for f in fields))

    @property
    def local_dims(self) -> tuple[int, ...]:
        """Local dimensions of the state `build()` makes, read and validated without building it."""
        return _as_dims((8, 2, 2, 2) if self.family == "star" else self.dims or (2,) * self.n)

    def label(self) -> str:
        return ":".join([self.family] + [_FORMS.get(f, (int, str))[1](getattr(self, f)) for f in _fields(self.family)])
