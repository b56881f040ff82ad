"""Density matrices, Bloch parameterization, Bell states, validation.

Conventions (fixed; every worked case depends on them): computational basis
with sigma_z diagonal and |0> = (1, 0); bipartite ordering S (x) R; singlet
fixed as (|01> - |10>)/sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .config import tolerance

__all__ = [
    "I2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "ket",
    "projector",
    "from_bloch",
    "from_bloch_batch",
    "to_bloch",
    "purity",
    "expectation",
    "bell_state",
    "bell_projector",
    "singlet",
    "Diagnostic",
    "validate",
    "random_density",
    "matrix_to_json",
    "matrix_from_json",
]

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def ket(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def projector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def from_bloch(r) -> np.ndarray:
    """Qubit density matrix (I + r . sigma)/2; r must lie in the closed ball."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got shape {r.shape}")
    return from_bloch_batch(r[None])[0]


def from_bloch_batch(rs) -> np.ndarray:
    """Stacked (N, 2, 2) qubit density matrices of an (N, 3) array of Bloch
    vectors, each of which must lie in the closed ball."""
    rs = np.asarray(rs, dtype=float)
    if rs.ndim != 2 or rs.shape[1] != 3:
        raise ValueError(f"Bloch vectors must form an (N, 3) array, got shape {rs.shape}")
    norms = np.linalg.norm(rs, axis=1)
    outside = ~(norms <= 1.0 + 1e-12)  # NaN compares false, so it is caught too
    if outside.any():
        raise ValueError(f"Bloch vector norm {norms[outside][0]} is not at most 1")
    x, y, z = (rs[:, k, None, None] for k in range(3))
    return (I2 + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z) / 2.0


def to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch components r_i = tr(rho sigma_i)."""
    return np.array([np.trace(rho @ p).real for p in PAULIS])


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)


def expectation(rho: np.ndarray, a: np.ndarray) -> float:
    """tr(rho a) for Hermitian a; dimension mismatch raises."""
    rho = np.asarray(rho, dtype=complex)
    a = np.asarray(a, dtype=complex)
    if rho.shape != a.shape:
        raise ValueError(f"dimension mismatch: state {rho.shape}, observable {a.shape}")
    val = np.trace(rho @ a)
    return float(val.real)


_BELL_VECTORS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}


def _bell_key(which: str) -> str:
    key = which.lower().replace("φ", "phi").replace("ψ", "psi")
    key = key.replace("⁺", "+").replace("⁻", "-")
    if key not in _BELL_VECTORS:
        raise ValueError(f"unknown Bell state {which!r}; expected one of phi+/phi-/psi+/psi-")
    return key


def bell_state(which: str) -> np.ndarray:
    """Density matrix of the chosen Bell state (phi+/phi-/psi+/psi-)."""
    return projector(_BELL_VECTORS[_bell_key(which)])


def bell_projector(which: str) -> np.ndarray:
    """Projector onto the chosen Bell state; same matrix as bell_state."""
    return bell_state(which)


def singlet() -> np.ndarray:
    return bell_state("psi-")


@dataclass(frozen=True)
class Diagnostic:
    """Validation report for a density-matrix candidate. Never raises on
    finite input: provisionally invalid matrices (NCP outputs) must be
    carriable. A NaN or infinite entry raises ValueError."""

    hermiticity_residual: float
    trace_residual: float
    min_eigenvalue: float
    verdict: str  # valid | negative | non-unit-trace | non-hermitian


def validate(m: np.ndarray) -> Diagnostic:
    """Diagnose whether m is a valid density matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"validate expects a square matrix, got shape {m.shape}")
    herm_res = matcore.hermiticity_residual(m)
    trace_res = float(abs(np.trace(m) - 1.0))
    psd, lmin = matcore.psd_verdict(m)
    tol = tolerance()
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    if herm_res > tol * scale:
        verdict = "non-hermitian"
    elif trace_res > tol * scale:
        verdict = "non-unit-trace"
    elif not psd:
        verdict = "negative"
    else:
        verdict = "valid"
    return Diagnostic(herm_res, trace_res, lmin, verdict)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random full- or fixed-rank density matrix (Wishart construction)."""
    k = dim if rank is None else rank
    g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    w = g @ g.conj().T
    return w / np.trace(w).real


# -- JSON matrix format (shared with the CLI) --------------------------------
# {"dim": n, "re": [[...], ...], "im": [[...], ...]}


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"matrix object missing field {exc}") from exc
    if re.shape != im.shape or re.ndim != 2:
        raise ValueError(f"re/im shapes inconsistent: {re.shape} vs {im.shape}")
    if "dim" in obj and int(obj["dim"]) != re.shape[0]:
        raise ValueError(
            f"declared dim {obj['dim']} does not match row count {re.shape[0]}"
        )
    return matcore.require_finite(re + 1j * im)
