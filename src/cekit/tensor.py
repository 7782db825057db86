"""Dense complex linear algebra on small tensor-product Hilbert spaces.

Subsystems carry 1-based labels and subsystem 1 is the slowest-varying
(most significant) tensor index. Every operation is a pure function of
immutable inputs, so values are safe to share.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PureState",
    "DensityOperator",
    "normalize_subset",
    "reduced_state",
    "hermitian_eigenvalues",
    "clamped_spectra",
    "trace_distance",
    "local_kraus_branches",
]

NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-10
NEGATIVE_EIG_TOL = 1e-10
# Eigenvalues at or below this floor are numerically-zero dust and take the
# continuous-extension value 0^alpha := 0; without the floor, small-alpha
# powers amplify 1e-17 noise into order-one entropy errors.
ZERO_EIG_FLOOR = 1e-12
KRAUS_COMPLETENESS_ATOL = 1e-10
BRANCH_FLOOR = 1e-12  # outcome branches less probable than this are dropped


def _as_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out:
        raise ValueError("dims must be nonempty")
    if any(d < 2 for d in out):
        raise ValueError(f"every local dimension must be >= 2, got {out}")
    return out


def normalize_subset(subset: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate 1-based subsystem labels and return them sorted ascending."""
    idx = tuple(sorted(int(i) for i in subset))
    if not idx:
        raise ValueError("subset must be nonempty")
    if idx[0] < 1 or idx[-1] > n:
        raise ValueError(f"subsystem labels must lie in 1..{n}, got {idx}")
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate subsystem labels in {idx}")
    return idx


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector with an explicit tensor-product structure."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = _as_dims(self.dims)
        amp = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != prod(dims):
            raise ValueError(f"amplitude length {amp.size} does not match dims {dims}")
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= NORM_ATOL:  # `not <=`: also NaN
            raise ValueError(f"squared norm must be 1 within {NORM_ATOL}, got norm {norm}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "dims", dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    def density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive-semidefinite, unit-trace matrix with dimension
    structure, and the clamped spectrum its validating eigensolve gave."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dims = _as_dims(self.dims)
        mat = np.array(self.matrix, dtype=complex)
        d = prod(dims)
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        spectrum = _spectrum(mat, 1e-12)
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= 1e-12:
            raise ValueError(f"trace must be 1 within 1e-12, got {tr}")
        for arr in (mat, spectrum):
            arr.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


def clamped_spectra(vals: np.ndarray) -> np.ndarray:
    """Descending spectra from ascending `eigvalsh` output (any leading axes).

    Negative eigenvalues within -1e-10 (finite-arithmetic drift) are clamped
    to zero so that downstream entropies stay real; anything more negative,
    or NaN, is rejected.
    """
    lo = float(vals.min())
    if not lo >= -NEGATIVE_EIG_TOL:
        raise ValueError(f"spectrum must be finite and >= -{NEGATIVE_EIG_TOL}, got {lo}; input is not PSD")
    return np.ascontiguousarray(np.where(vals < 0.0, 0.0, vals)[..., ::-1])


def _spectrum(mat: np.ndarray, atol: float) -> np.ndarray:
    """`clamped_spectra` of a square matrix, which must be Hermitian within atol."""
    if not np.abs(mat - mat.conj().T).max() <= atol:  # `not <=`: a NaN or inf entry fails too
        raise ValueError(f"matrix must be finite and Hermitian within {atol}")
    return clamped_spectra(np.linalg.eigvalsh(mat))


def hermitian_eigenvalues(m: np.ndarray | DensityOperator) -> np.ndarray:
    """Descending, clamped (`clamped_spectra`) real spectrum of a Hermitian
    PSD matrix; a `DensityOperator`'s is the one its validation computed."""
    if isinstance(m, DensityOperator):
        return m.spectrum
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("input must be a square matrix")
    return _spectrum(mat, HERMITIAN_ATOL)


def _reduced_matrices(
    tensors: np.ndarray, perm: Sequence[int], d: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Reduced matrices A A^dag (k, d, d) of a stack of state tensors shaped
    (k,) + dims, A each state's kept-side slice (d x rest) once `perm` puts
    the axes in the order (stack, kept..., traced...)."""
    a = tensors.transpose(perm).reshape(tensors.shape[0], d, -1)
    return np.matmul(a, a.conj().swapaxes(-1, -2), out=out)


def reduced_state(psi: PureState, subset: Iterable[int]) -> DensityOperator:
    """Reduced density matrix of `psi` on `subset`, complement traced out.

    Kept subsystems appear in ascending original order.
    """
    kept = tuple(i - 1 for i in normalize_subset(subset, psi.n_subsystems))
    traced = tuple(ax for ax in range(psi.n_subsystems) if ax not in kept)
    dims = tuple(psi.dims[ax] for ax in kept)
    perm = (0,) + tuple(ax + 1 for ax in kept + traced)
    rho = _reduced_matrices(psi.amplitudes.reshape((1,) + psi.dims), perm, prod(dims))
    return DensityOperator(rho[0], dims)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Half the trace norm of the difference of two equal-dimension states."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    diff_eigs = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.abs(diff_eigs).sum())


def _embeddings(ops: np.ndarray, sites: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """I (x) op (x) I of every operator of a stack (N, K, d, d), row n's at
    sites[n]: (N, K, D, D). Entry (r, c) is op[digit of r, digit of c] where
    r and c agree off the site, else 0, so the entries are exact copies."""
    full = np.arange(prod(dims))
    stride = np.array([prod(dims[site:]) for site in sites.tolist()])[:, None]  # of the site's digit
    digit = full // stride % ops.shape[-1]
    rest = full - digit * stride
    n, k = np.ogrid[: ops.shape[0], : ops.shape[1]]
    vals = ops[n[..., None, None], k[..., None, None], digit[:, None, :, None], digit[:, None, None, :]]
    return np.where((rest[:, :, None] == rest[:, None, :])[:, None], vals, 0.0)


def _kraus_set(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """A nonempty Kraus set of d x d operators as one (K, d, d) array; `local_kraus_branches` checks d."""
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    if not ops:
        raise ValueError("empty Kraus set")
    for k in ops:
        if k.ndim != 2 or k.shape != (len(ops[0]),) * 2:
            raise ValueError(f"Kraus operators must be square matrices of one shape, got shape {k.shape}")
    return np.stack(ops)


def _check_complete(kraus: np.ndarray) -> None:
    """sum_k K_k^dag K_k = I for every Kraus set of a stack (..., K, d, d)."""
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or inf entry fails the test below
        total = np.matmul(kraus.conj().swapaxes(-1, -2), kraus).sum(axis=-3)
    if not np.abs(total - np.eye(kraus.shape[-1])).max() <= KRAUS_COMPLETENESS_ATOL:  # `not <=`: also NaN
        raise ValueError("Kraus set violates completeness on the site")


def local_kraus_branches(
    amps: np.ndarray, dims: Sequence[int], sites: Sequence[int], kraus: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pure-state branches of one local operation on each of a stack of states.

    `amps` (N, D) holds the states' amplitudes, all with local dimensions
    `dims`; row n is acted on at sites[n] by the Kraus set kraus[n], a stack
    (N, K, d, d) whose d is the local dimension at every site. Returns the
    outcome probabilities (N, K), the normalized branch amplitudes (N, K, D)
    and which branches are kept (N, K): a branch with probability below
    1e-12 is dropped, and its amplitudes are zeros.
    """
    dims = _as_dims(dims)
    amps = np.asarray(amps, dtype=complex)
    sites = np.asarray(sites, dtype=np.intp)
    kraus = np.asarray(kraus, dtype=complex)
    for site in sites.tolist():
        if not 1 <= site <= len(dims):
            raise ValueError(f"site must lie in 1..{len(dims)}, got {site}")
        d = dims[site - 1]
        if kraus.shape[-2:] != (d, d):
            raise ValueError(f"Kraus operator shape {kraus.shape[-2:]} does not match local dimension {d}")
    _check_complete(kraus)
    v = np.matmul(_embeddings(kraus, sites, dims), amps[:, None, :, None])[..., 0]
    probs = np.matmul(v.conj()[..., None, :], v[..., :, None])[..., 0, 0].real
    kept = ~(probs < BRANCH_FLOOR)
    states = np.zeros_like(v)
    states[kept] = v[kept] / np.sqrt(probs[kept])[:, None]
    norms = np.linalg.norm(states[kept], axis=-1)
    off = norms[~(np.abs(norms - 1.0) <= NORM_ATOL)]  # `~ <=`: also NaN
    if off.size:
        raise ValueError(f"squared norm must be 1 within {NORM_ATOL}, got norm {off[0]}")
    return probs, states, kept
