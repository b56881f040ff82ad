"""Dense complex-matrix kernel.

Everything downstream (states, channels, assignment maps, domain geometry)
reduces to a handful of operations on small dense complex matrices: Kronecker
products, partial trace/transpose over a bipartition, Hermitian
eigendecomposition, and matrix functions of Hermitian generators.

Every Hermitian eigenproblem is solved here, by LAPACK: :func:`herm_eig`,
:func:`min_eigpair_batch` and :func:`eigh_batch` through ``eigh``,
:func:`min_eig` and :func:`min_eig_batch` through stacked ``eigvalsh``.
Verdicts compare a minimum eigenvalue with the absolute threshold
``-tol * max(1, |m|_inf)``, far above LAPACK's backward error. The one exception is the 2x2 minimum
eigenvalue, which the qubit searches ask for thousands of times: its
cancellation-free closed form is exact to rounding and an order of
magnitude faster than a stacked solver call. Input with a NaN or infinite
entry raises ``ValueError`` instead of yielding a spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import psd_threshold, tolerance

__all__ = [
    "kron",
    "partial_trace",
    "partial_transpose",
    "herm_eig",
    "unitary_at",
    "HermEig",
    "dag",
    "is_hermitian",
    "hermiticity_residual",
    "min_eig",
    "min_eig_batch",
    "min_eigpair_batch",
    "eigh_batch",
    "trace_norm",
    "mat_close",
]


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, block structure a[i, j] * b."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def hermiticity_residual(m: np.ndarray) -> float:
    """Max-entry distance from m to its conjugate transpose."""
    return float(np.abs(m - dag(m)).max()) if m.size else 0.0


def is_hermitian(m: np.ndarray) -> bool:
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    return hermiticity_residual(m) <= tolerance() * scale


def mat_close(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Tolerance-based equality; never compare matrices bit-exactly."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return float(np.abs(a - b).max()) <= tol


def _check_bipartite(m: np.ndarray, dims: tuple[int, int]) -> None:
    d_s, d_r = dims
    n = d_s * d_r
    if m.shape != (n, n):
        raise ValueError(
            f"matrix shape {m.shape} incompatible with bipartition dims {dims}"
        )


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: int = 0) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``keep=0`` keeps the first (system) factor, tracing over the second;
    ``keep=1`` keeps the second. Basis ordering is S (x) R throughout.
    """
    m = np.asarray(m, dtype=complex)
    _check_bipartite(m, dims)
    d_s, d_r = dims
    t = m.reshape(d_s, d_r, d_s, d_r)
    if keep == 0:
        return np.einsum("ikjk->ij", t)
    if keep == 1:
        return np.einsum("kikj->ij", t)
    raise ValueError(f"keep must be 0 or 1, got {keep}")


def partial_transpose(m: np.ndarray, dims: tuple[int, int], subsystem: int = 1) -> np.ndarray:
    """Transpose one factor of a bipartite operator. Involutive."""
    m = np.asarray(m, dtype=complex)
    _check_bipartite(m, dims)
    d_s, d_r = dims
    t = m.reshape(d_s, d_r, d_s, d_r)
    if subsystem == 0:
        t = t.transpose(2, 1, 0, 3)
    elif subsystem == 1:
        t = t.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"subsystem must be 0 or 1, got {subsystem}")
    return t.reshape(d_s * d_r, d_s * d_r)


@dataclass(frozen=True, eq=False)
class HermEig:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` ascend; ``eigenvectors`` is unitary with the k-th column
    the eigenvector of ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dag(v)

    def propagator(self, t: float) -> np.ndarray:
        """exp(-i m t) = V exp(-i Lambda t) V^dag; unitary up to rounding for any t."""
        v = self.eigenvectors
        return (v * np.exp(-1j * self.eigenvalues * t)) @ dag(v)


def require_finite(m) -> np.ndarray:
    """m as a complex array; raises ValueError if any entry is NaN or +-inf.

    Eigensolvers do not fail closed on such input (LAPACK returns a spectrum
    for diag(nan, 1, 1)), so every eigenvalue in the package passes this guard.
    """
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def herm_eig(m: np.ndarray) -> HermEig:
    """Eigendecomposition of a Hermitian matrix; raises if m is not Hermitian."""
    m = require_finite(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not is_hermitian(m):
        raise ValueError(
            f"matrix is not Hermitian within tolerance "
            f"(residual {hermiticity_residual(m):.3e})"
        )
    w, v = np.linalg.eigh((m + dag(m)) / 2.0)
    return HermEig(eigenvalues=w, eigenvectors=v)


def min_eig(m: np.ndarray) -> float:
    """Minimum eigenvalue of the Hermitian part of m."""
    return float(min_eig_batch(np.asarray(m)[None])[0])


def _herm_part_batch(ms) -> np.ndarray:
    """Hermitian parts of a stacked (N, d, d) array, after the finiteness guard."""
    ms = require_finite(ms)
    return (ms + np.conj(np.swapaxes(ms, -1, -2))) / 2.0


def min_eig_batch(ms: np.ndarray) -> np.ndarray:
    """Minimum eigenvalues of the Hermitian parts of a stacked (N, d, d) array.

    2x2 matrices use the closed form (a+d)/2 - hypot((a-d)/2, |b|), which
    has no cancellation; every other size goes to the stacked LAPACK solver.
    """
    sym = _herm_part_batch(ms)
    if sym.shape[-1] == 2:
        a = sym[..., 0, 0].real
        d = sym[..., 1, 1].real
        return (a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs(sym[..., 0, 1]))
    return np.linalg.eigvalsh(sym)[..., 0]


def min_eigpair_batch(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bottom eigenpairs of the Hermitian parts of a stacked (N, d, d) array:
    the (N,) minimum eigenvalues and the (N, d) unit eigenvectors, row k
    belonging to matrix k, by one stacked ``eigh``."""
    w, v = np.linalg.eigh(_herm_part_batch(ms))
    return w[:, 0], v[:, :, 0]


def eigh_batch(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectra of the Hermitian parts of a stacked (N, d, d) array: the
    (N, d) ascending eigenvalues and the (N, d, d) eigenvectors, column m of
    matrix k belonging to eigenvalue m, by one stacked ``eigh``."""
    return np.linalg.eigh(_herm_part_batch(ms))


def psd_verdict(m: np.ndarray) -> tuple[bool, float]:
    """(m is PSD within tolerance, its minimum eigenvalue): the one PSD
    decision, lmin >= -tol * max(1, |m|_inf)."""
    m = np.asarray(m)
    lmin = min_eig(m)
    return lmin >= psd_threshold(float(np.abs(m).max())), lmin


def psd_verdict_batch(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`psd_verdict` over a stacked (N, d, d) array, by one
    :func:`min_eig_batch` call: (boolean verdicts, minimum eigenvalues).

    ``psd_verdict`` stays scalar: a batch of one costs the audits, which
    decide one matrix at a time, several microseconds per call.
    """
    ms = np.asarray(ms)
    lmin = min_eig_batch(ms)
    return lmin >= -tolerance() * np.maximum(1.0, np.abs(ms).max(axis=(1, 2))), lmin


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values; the distance used throughout the package."""
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.svd(m, compute_uv=False).sum())


def unitary_at(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h; see :meth:`HermEig.propagator`."""
    return herm_eig(h).propagator(t)
