"""Independent output oracles for the benchmark.

Everything here uses numpy only and re-derives each quantity from its
definition, so a defect in qdynmaps cannot hide behind the same defect in its
checker. Conventions match the library's documented ones: column-stacking
vectorisation, the unnormalised Choi matrix C = sum_ij E_ij (x) T(E_ij),
bipartite ordering S (x) R, and the PSD threshold -tol * max(1, |m|_inf).
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9  # the library's default tolerance, which every item runs under
EIG_TOL = 1e-9  # deciding eigenvalues must match to this
RADIUS_TOL = 1e-7  # phi radii vs closed form; lambda radii bracket width
# Knife edge: a value this close to a threshold may fall either way between
# two correct solvers, so only the value, not the verdict, is compared.
EDGE = 1e-10

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def close(value, expected, tol: float, what: str) -> None:
    err = float(np.max(np.abs(np.asarray(value) - np.asarray(expected))))
    if not err <= tol:
        raise Mismatch(f"{what}: off by {err:.3g} (tolerance {tol:g})")


def eig_tol(m: np.ndarray) -> float:
    """How closely a reported minimum eigenvalue of m must match the oracle's.

    The library computes 2x2 minimum eigenvalues in closed form,
    (tr - sqrt(tr^2 - 4 det))/2. When the two eigenvalues nearly coincide the
    square root cancels away half the digits, an error of about
    sqrt(eps) |m| ~ 1e-8 |m|. This does not affect verdicts: near the PSD
    threshold the eigenvalues are far apart and the closed form is accurate.
    Larger matrices are held to EIG_TOL.
    """
    if m.shape[-1] > 2:
        return EIG_TOL
    return EIG_TOL + 2e-8 * max(1.0, float(np.abs(m).max()))


def threshold(m: np.ndarray) -> float:
    return -TOL * max(1.0, float(np.abs(m).max()))


def lmin(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


def verdict_matches(reported: bool, value: float, thr: float, what: str) -> None:
    """A PSD verdict must agree with value >= thr unless value is on the edge."""
    if abs(value - thr) > EDGE:
        require(bool(reported) == (value >= thr), f"{what}: verdict {reported}, value {value:.3g}")


# -- vectorisation and representations ---------------------------------------


def vec(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape(d, d, order="F")


def choi(transfer: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """C[(i,k),(j,l)] = T(E_ij)[k,l] = transfer[l*d_out + k, j*d_in + i]."""
    t4 = transfer.reshape(d_out, d_out, d_in, d_in)
    return t4.transpose(3, 1, 2, 0).reshape(d_in * d_out, d_in * d_out)


def apply(transfer: np.ndarray, rho: np.ndarray, d_out: int) -> np.ndarray:
    return unvec(transfer @ vec(rho), d_out)


def extended_image(c: np.ndarray, w: np.ndarray, d_in: int, d_out: int, n: int) -> np.ndarray:
    """(T (x) I_n)(W) from the Choi matrix, ordering S (x) W."""
    c4 = c.reshape(d_in, d_out, d_in, d_out)
    w4 = w.reshape(d_in, n, d_in, n)
    out = np.einsum("iwjv,ikjl->kwlv", w4, c4)
    return out.reshape(d_out * n, d_out * n)


def transpose_transfer(d: int) -> np.ndarray:
    t = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            t[j * d + i, i * d + j] = 1.0
    return t


def conj_transfer(u: np.ndarray) -> np.ndarray:
    """rho -> U rho U^dag."""
    return np.kron(u.conj(), u)


def flip_transfer() -> np.ndarray:
    """Bloch reflection z -> -z: sigma_x rho^T sigma_x."""
    return conj_transfer(SX) @ transpose_transfer(2)


def depolarising_transfer(d: int) -> np.ndarray:
    """rho -> tr(rho) I/d."""
    return np.outer(vec(np.eye(d) / d), vec(np.eye(d))).astype(complex)


def t_a_transfer(d: int, a: float) -> np.ndarray:
    """T_a(rho) = (tr rho I - a rho)/(d - a): positive only for a <= 1."""
    return (np.outer(vec(np.eye(d)), vec(np.eye(d))) - a * np.eye(d * d)) / (d - a)


def stinespring_transfer(ops) -> np.ndarray:
    return sum(np.kron(w.conj(), w) for w in ops)


def is_trace_preserving(transfer: np.ndarray, d_in: int, d_out: int) -> bool:
    """tr T(E_ij) = delta_ij to 1e-9, the library's fixed TP tolerance."""
    row = vec(np.eye(d_out)) @ transfer
    return float(np.abs(row - vec(np.eye(d_in))).max()) <= 1e-9


# -- qubits and bipartite systems --------------------------------------------


def bloch_state(r) -> np.ndarray:
    return (np.eye(2) + r[0] * SX + r[1] * SY + r[2] * SZ) / 2.0


def bloch_states(rs: np.ndarray) -> np.ndarray:
    return (np.eye(2)[None] + np.einsum("na,aij->nij", rs, np.stack([SX, SY, SZ]))) / 2.0


def ptrace_r(m: np.ndarray, d_s: int, d_r: int) -> np.ndarray:
    """Trace out the reservoir (second factor); works on stacks too."""
    t = m.reshape(m.shape[:-2] + (d_s, d_r, d_s, d_r))
    return np.einsum("...ikjk->...ij", t)


def trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


class Assignment:
    """rho -> lin(rho) (x) tau + tr(rho) K on a qubit system, where lin is the
    identity or the z-dephasing. Covers the product, correlated-affine and
    dephasing assignments the workloads generate."""

    d_s = 2

    def __init__(self, tau: np.ndarray, k: np.ndarray | None = None, dephase: bool = False):
        self.tau = tau
        self.d_r = tau.shape[0]
        n = self.d_s * self.d_r
        self.k = np.zeros((n, n), dtype=complex) if k is None else k
        self.dephase = dephase

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        lin = np.diag(np.diagonal(rho)) if self.dephase else rho
        return np.kron(lin, self.tau) + np.trace(rho) * self.k

    def batch(self, rhos: np.ndarray) -> np.ndarray:
        n = self.d_s * self.d_r
        out = np.einsum("nab,cd->nacbd", rhos, self.tau).reshape(len(rhos), n, n)
        return out + np.trace(rhos, axis1=1, axis2=2)[:, None, None] * self.k


def reduced_transfer(phi: Assignment, u: np.ndarray) -> np.ndarray:
    """Transfer matrix of rho -> tr_R(U Phi(rho) U^dag) on the matrix units."""
    d = phi.d_s
    t = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            t[:, j * d + i] = vec(ptrace_r(u @ phi(e) @ u.conj().T, d, phi.d_r))
    return t


def correlated(c: float) -> Assignment:
    """rho -> rho (x) I/2 + c/4 sigma_z (x) sigma_z."""
    return Assignment(np.eye(2) / 2.0, (c / 4.0) * np.kron(SZ, SZ))


def correlated_radius(c: float, n) -> float:
    """Exact phi-domain exit radius of the correlated family along unit n."""
    nz = float(n[2])
    return min(1.0, float(np.sqrt(1.0 - c * c * (1.0 - nz * nz)) - abs(c * nz)))


def fibonacci(n: int) -> np.ndarray:
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    ang = i * np.pi * (3.0 - np.sqrt(5.0))
    s = np.sqrt(1.0 - z * z)
    return np.stack([s * np.cos(ang), s * np.sin(ang), z], axis=1)
