"""Superoperators: transfer/Choi/Kraus representations and positivity audits.

Vectorization is column-stacking, so the transfer matrix of rho -> A rho B^dag
is conj(B) (x) A. The Choi matrix uses the unnormalized convention
C = sum_ij E_ij (x) T(E_ij), so tr C = dim_in for trace-preserving maps and
Kraus weights read directly off Choi eigenvalues.

:class:`Superoperator` is the one linear-map type: channels, reduced maps,
the extensions T (x) I_n and the assignment maps of ``opendyn`` are all
applied by its ``apply_batch``, one matrix product with the row-major
``action`` matrix derived from the transfer matrix.

Positivity audits are decided from the Choi spectrum where it settles them,
and searched otherwise (``PositivityReport.certificate`` says which).
Positivity is 1-positivity, so :func:`is_positive_map` is
:func:`is_n_positive` with n = 1:

- a CP map is n-positive for every n: "no-violation-found" at once;
- for n >= dim_in, n-positivity is complete positivity (Choi 1975), so an
  NCP map is a "certified-violation", with a witness built from the bottom
  Choi eigenvector;
- an NCP map with n < dim_in (for positivity: every NCP map with
  dim_in >= 2) gets a pure-state search, whose "no-violation-found" is not
  a proof. :func:`minimize_output_min_eig`, the one pure-state search (the
  Pechukas witness of ``opendyn`` runs it too), scores a grid of pure states,
  then polishes its best points by see-saw chains that also take Newton
  steps: for a searched input dim_in * n of at least 3, on the unit sphere
  of C^dim_in, and also started from the Choi seeds of :func:`_choi_seeds`
  (default grid ``SEEDED_GRID``); for qubit inputs, on the Bloch sphere,
  after the six Pauli eigenstates, which are always scored (default grid
  2000; ``seed`` is unused). An explicit ``budget`` is the grid size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import matcore, states
from .config import psd_threshold, tolerance, witness_margin
from .matcore import dag, kron

__all__ = [
    "vec",
    "unvec",
    "Superoperator",
    "KrausSet",
    "PositivityReport",
    "transfer_from_kraus",
    "choi_of",
    "transfer_from_choi",
    "kraus_from_choi",
    "is_cp",
    "is_positive_map",
    "is_n_positive",
    "extend_with_identity",
    "adjoint_map",
    "lueders",
    "nonselective",
    "selective_apply",
    "random_cptp",
    "identity_superoperator",
    "transpose_superoperator",
    "flip_superoperator",
    "superoperator_to_json",
    "superoperator_from_json",
]


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return np.asarray(v, dtype=complex).reshape(rows, cols, order="F")


def _readonly(m) -> np.ndarray:
    """A complex copy of m that refuses in-place writes."""
    m = np.array(m, dtype=complex)
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Linear map on matrix space, held as a transfer matrix on vectorized
    matrices. Shape is dim_out^2 x dim_in^2.

    ``transfer`` is stored as a read-only complex copy. ``action`` is the
    same map on row-major flattened matrices, row (i, j) and column (p, q)
    holding T(E_ij)[p, q], so that a batch of inputs is applied by one
    matrix product.
    """

    dim_in: int
    dim_out: int
    transfer: np.ndarray

    def __post_init__(self):
        transfer = _readonly(self.transfer)
        expected = (self.dim_out**2, self.dim_in**2)
        if transfer.shape != expected:
            raise ValueError(
                f"transfer shape {transfer.shape} does not match dims "
                f"(expected {expected})"
            )
        object.__setattr__(self, "transfer", transfer)

    @cached_property
    def action(self) -> np.ndarray:
        # transfer[(q, p), (j, i)] = T(E_ij)[p, q]; derived on first use, as
        # most maps built by the audits are never applied
        d_in, d_out = self.dim_in, self.dim_out
        t4 = self.transfer.reshape(d_out, d_out, d_in, d_in)
        action = t4.transpose(3, 2, 1, 0).reshape(d_in**2, d_out**2)  # a copy unless trivial
        action.setflags(write=False)
        return action

    def apply(self, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=complex)
        if m.shape != (self.dim_in, self.dim_in):
            raise ValueError(f"input shape {m.shape}, expected {(self.dim_in,) * 2}")
        return self.apply_batch(m[None])[0]

    __call__ = apply

    def apply_batch(self, ms: np.ndarray) -> np.ndarray:
        """Apply to a stacked (N, d, d) array of inputs."""
        n = ms.shape[0]
        # an explicit row length: reshape(0, -1) is ambiguous for an empty batch
        flat = ms.reshape(n, self.dim_in**2)
        return (flat @ self.action).reshape(n, self.dim_out, self.dim_out)

    def is_trace_preserving(self, tol: float | None = None) -> bool:
        # tr(T(E_ij)) = delta_ij  <=>  vec(I)^T acting on transfer gives vec(I)^T
        tol = tolerance() if tol is None else tol
        id_out = vec(np.eye(self.dim_out)).conj()
        row = id_out @ self.transfer
        return matcore.mat_close(
            row.reshape(self.dim_in, self.dim_in, order="F"),
            np.eye(self.dim_in),
            tol,
        )

    def is_unital(self, tol: float | None = None) -> bool:
        return matcore.mat_close(self.apply(np.eye(self.dim_in)), np.eye(self.dim_out),
                                 tolerance() if tol is None else tol)


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Kraus operators with a declared completeness class.

    ``trace-preserving``: sum W^dag W = I; ``selective``: sum W^dag W <= I.
    The declared class is verified at construction.
    """

    ops: tuple
    completeness: str = "trace-preserving"

    def __post_init__(self):
        if not self.ops:
            raise ValueError("KrausSet needs at least one operator")
        shapes = {op.shape for op in self.ops}
        if len(shapes) != 1:
            raise ValueError(f"inconsistent Kraus operator shapes: {shapes}")
        s = self.gram()
        d = s.shape[0]
        tol = tolerance()
        if self.completeness == "trace-preserving":
            if not matcore.mat_close(s, np.eye(d), 1e3 * tol):
                raise ValueError("sum W^dag W != I for a trace-preserving KrausSet")
        elif self.completeness == "selective":
            if matcore.min_eig(np.eye(d) - s) < psd_threshold(1.0):
                raise ValueError("sum W^dag W exceeds I for a selective KrausSet")
        else:
            raise ValueError(f"unknown completeness class {self.completeness!r}")

    @property
    def dim_in(self) -> int:
        return self.ops[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.ops[0].shape[0]

    def gram(self) -> np.ndarray:
        return sum(dag(w) @ w for w in self.ops)


@dataclass(frozen=True, eq=False)
class PositivityReport:
    """Outcome of a CP or positivity audit.

    ``is_positive`` is "certified-violation" or "no-violation-found";
    ``witness`` is a state whose image has a negative eigenvalue when a
    violation is certified. ``certificate`` is "choi" when the verdict was
    decided from the Choi spectrum (``min_choi_eigenvalue`` decided it and
    ``samples_used`` is 0) and None when a search ran, whose
    "no-violation-found" is not a proof of positivity.
    """

    min_choi_eigenvalue: float | None = None
    is_cp: bool | None = None
    is_positive: str | None = None
    witness: np.ndarray | None = field(default=None, repr=False)
    witness_min_eigenvalue: float | None = None
    samples_used: int = 0
    certificate: str | None = None


def transfer_from_kraus(k: KrausSet | list | tuple) -> Superoperator:
    """Superoperator of rho -> sum W rho W^dag."""
    ops = k.ops if isinstance(k, KrausSet) else tuple(np.asarray(w, dtype=complex) for w in k)
    d_out, d_in = ops[0].shape
    t = sum(kron(w.conj(), w) for w in ops)
    return Superoperator(dim_in=d_in, dim_out=d_out, transfer=t)


def choi_of(t: Superoperator) -> np.ndarray:
    """Choi matrix C = sum_ij E_ij (x) T(E_ij) (unnormalized).

    A realignment: transfer[(b, a), (j, i)] = T(E_ij)[a, b] = C[(i, a), (j, b)].
    """
    d_in, d_out = t.dim_in, t.dim_out
    t4 = np.asarray(t.transfer, dtype=complex).reshape(d_out, d_out, d_in, d_in)
    return t4.transpose(3, 1, 2, 0).reshape(d_in * d_out, d_in * d_out)


def transfer_from_choi(c: np.ndarray, dim_in: int, dim_out: int) -> Superoperator:
    """Inverse of choi_of (the same realignment)."""
    c = np.asarray(c, dtype=complex)
    n = dim_in * dim_out
    if c.shape != (n, n):
        raise ValueError(f"Choi shape {c.shape} does not match dims ({dim_in},{dim_out})")
    c4 = c.reshape(dim_in, dim_out, dim_in, dim_out)
    t = c4.transpose(3, 1, 2, 0).reshape(dim_out**2, dim_in**2)
    return Superoperator(dim_in=dim_in, dim_out=dim_out, transfer=t)


def kraus_from_choi(c: np.ndarray, dim_in: int, dim_out: int,
                    completeness: str = "trace-preserving") -> KrausSet:
    """Kraus operators from a PSD Choi matrix.

    Ordered by descending Choi eigenvalue; eigenvalues below tolerance are
    truncated. Raises if the Choi matrix has a genuinely negative eigenvalue
    (the map is NCP and admits no Kraus form).
    """
    c = np.asarray(c, dtype=complex)
    eig = matcore.herm_eig(c)
    scale = max(1.0, float(np.abs(c).max()))
    tol = tolerance()
    if eig.eigenvalues[0] < psd_threshold(scale):
        raise ValueError(
            f"Choi matrix is not PSD (min eigenvalue {eig.eigenvalues[0]:.6g}); "
            "the map is NCP and has no Kraus representation"
        )
    ops = []
    # eigh returns the spectrum ascending; walk it from the top
    for lam, v in zip(eig.eigenvalues[::-1], eig.eigenvectors.T[::-1]):
        if lam <= tol * scale:
            break
        # C = sum_a w_a w_a^dag with w[(i,k)] = W[k,i]: unstack accordingly
        w = np.sqrt(lam) * np.asarray(v).reshape(dim_in, dim_out).T
        ops.append(w)
    return KrausSet(ops=tuple(ops), completeness=completeness)


def is_cp(t: Superoperator) -> PositivityReport:
    """Complete-positivity verdict from the Choi spectrum (``certificate="choi"``)."""
    c = choi_of(t)
    psd, lmin = matcore.psd_verdict(c)
    # a map that is not Hermiticity-preserving is certainly not CP
    return PositivityReport(min_choi_eigenvalue=lmin,
                            is_cp=bool(matcore.is_hermitian(c) and psd), certificate="choi")


# -- pure-state violation search ---------------------------------------------

SEESAW_STARTS = 8  # best grid points, and Choi seeds, polished by the see-saw, one chain each
SEESAW_STEPS = 50  # cap on see-saw steps; most searches stop far earlier
SEEDED_GRID = 256  # default grid of a search seeded from the Choi spectrum (dim_in * n >= 3)


def fibonacci_bloch(n: int) -> np.ndarray:
    """Deterministic Fibonacci lattice of n points on the Bloch sphere."""
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    s = np.sqrt(1.0 - z * z)
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def _pure_batch_from_vectors(vs: np.ndarray) -> np.ndarray:
    """(N, d) unit vectors -> (N, d, d) projectors."""
    return np.einsum("ni,nj->nij", vs, vs.conj())


def _bloch_to_vectors(rs: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors -> qubit state vectors (N, 2)."""
    theta = np.arccos(np.clip(rs[:, 2], -1.0, 1.0))
    phi = np.arctan2(rs[:, 1], rs[:, 0])
    return np.stack(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=1
    )


def minimize_output_min_eig(
    t: Superoperator,
    budget: int = 2000,
    seed: int = 0,
    extra_candidates: np.ndarray | None = None,
    starts: np.ndarray | None = None,
) -> tuple[float, np.ndarray, int]:
    """Minimize lmin(t(|psi><psi|)) over pure states psi.

    A grid of ``budget`` states, after the unit rows of ``extra_candidates``,
    is scored first, and its best points are polished:

    - for qubit inputs, by :func:`_bloch_search`, which always scores the six
      Pauli eigenstates before the candidates and a Fibonacci lattice, and
      ignores ``seed`` and ``starts``;
    - for dim_in >= 3, on seeded uniform random pure states, by
      :func:`_seesaw` from the unit rows of ``starts``, each counted as a
      sample, and the ``SEESAW_STARTS`` best grid points: a see-saw
      (alternating minimisation; Ling, Nie, Qi & Ye, SIAM J. Optim. 20,
      2009) whose chains also take Newton steps. <phi|t(psi psi^dag)|phi>
      is biquadratic: phi becomes the bottom eigenvector of t(psi psi^dag),
      then psi that of adj(t)(phi phi^dag), which never raises a chain's
      value. From the second step on, a chain keeps the lower of that move
      and a Newton step on the unit sphere.

    Chains stop after ``SEESAW_STEPS`` steps, or once a step lowers the best
    value by at most 1e-12 * max(1, |best|). Returns (best lmin, best input
    state vector, samples used); best lmin is the minimum eigenvalue of that
    vector's image. Raises ValueError for a negative ``budget``, and for
    dim_in >= 3 with nothing to polish: ``budget=0`` without ``starts`` or
    ``extra_candidates``.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    dim = t.dim_in
    if dim == 2:
        axes = np.eye(3)
        rs = [axes, -axes, fibonacci_bloch(budget)]
        if extra_candidates is not None:  # r_k = tr(psi psi^dag sigma_k)
            rs.insert(2, np.einsum("nij,kji->nk", _pure_batch_from_vectors(extra_candidates),
                                   np.stack(states.PAULIS)).real)
        return _bloch_search(t, np.concatenate(rs))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((budget, dim)) + 1j * rng.standard_normal((budget, dim))
    vs = g / np.linalg.norm(g, axis=1, keepdims=True)
    if extra_candidates is not None:
        vs = np.concatenate([extra_candidates, vs], axis=0)
    samples = vs.shape[0]
    vals = matcore.min_eig_batch(t.apply_batch(_pure_batch_from_vectors(vs)))
    psi = vs[np.argsort(vals)[:SEESAW_STARTS]]
    if starts is not None:
        psi = np.concatenate([starts, psi], axis=0)
        samples += len(starts)
    if len(psi) == 0:
        raise ValueError("budget must be >= 1 for dim_in >= 3 without starts or extra "
                         f"candidates, got {budget}")
    return _seesaw(t, psi, samples)


def _bloch_search(t: Superoperator, rs: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Minimise lmin(t(psi psi^dag)) over pure qubit inputs psi, starting
    from the (N, 3) unit Bloch vectors rs.

    With A = t(I/2) and B_i = t(sigma_i/2), the state of unit Bloch vector r
    has the image A + r.B, with bottom eigenpair (lambda_0, phi). All of rs
    are scored, and the ``SEESAW_STARTS`` best start chains. Each step offers
    every chain two moves and keeps the lower image eigenvalue, so no step
    raises a chain's value:

    - the see-saw: r = -b/|b| with b_i = <phi|B_i|phi> minimises
      <phi|A + r.B|phi> on the sphere;
    - a Newton step on the sphere: lambda_0 has the gradient b and, by
      second-order perturbation theory, the Hessian
      H_ij = 2 Re sum_m <phi|B_i|phi_m><phi_m|B_j|phi> / (lambda_0 - lambda_m);
      on the sphere, H - (r.b) I projected on the tangent plane. The
      see-saw alone converges linearly and crawls where the minimum is
      flat; with Newton, chains settle in a few steps. Where lambda_0 is
      degenerate or b vanishes, the move is not finite and is not offered.

    Stops as :func:`minimize_output_min_eig` says. Returns (best lmin, its
    input state vector, Bloch vectors scored).
    """
    paulis = np.stack([states.I2, *states.PAULIS]) / 2.0
    images = t.apply_batch(paulis)
    n = images.shape[1]
    a, b = images[0], images[1:]
    b_rows = b.transpose(1, 0, 2).reshape(n, 3 * n)  # [p, (i, q)] = B_i[p, q]

    def image(rs):
        return a + (rs @ b.reshape(3, n * n)).reshape(-1, n, n)

    axes = np.eye(3)
    vals = matcore.min_eig_batch(image(rs))
    samples = len(rs)
    rs = rs[np.argsort(vals, kind="stable")[:SEESAW_STARTS]]
    w, v = matcore.eigh_batch(image(rs))
    k = int(np.argmin(w[:, 0]))
    best_val, best_r = float(w[k, 0]), rs[k]
    for _ in range(SEESAW_STEPS):
        # bm[k, i, m] = <phi|B_i|phi_m> for chain k
        bm = (v[:, :, 0].conj() @ b_rows).reshape(-1, 3, n) @ v
        grad = bm[:, :, 0].real
        with np.errstate(all="ignore"):  # non-finite moves are dropped below
            seesaw = -grad / np.linalg.norm(grad, axis=1, keepdims=True)
            s = bm[:, :, 1:] / np.sqrt(w[:, None, 1:] - w[:, None, :1])
            proj = axes - rs[:, :, None] * rs[:, None, :]
            hess = (-2.0 * (s @ s.conj().transpose(0, 2, 1)).real
                    - np.einsum("ki,ki->k", rs, grad)[:, None, None] * axes)
            try:
                step = np.linalg.solve(proj @ hess @ proj + axes - proj,
                                       -(proj @ grad[:, :, None]))[..., 0]
            except np.linalg.LinAlgError:
                step = np.full_like(rs, np.nan)
            newton = rs + step
            newton /= np.linalg.norm(newton, axis=1, keepdims=True)
        seesaw = np.where(np.isfinite(seesaw).all(axis=1, keepdims=True), seesaw, rs)
        newton = np.where(np.isfinite(newton).all(axis=1, keepdims=True), newton, seesaw)
        cand = np.concatenate([seesaw, newton])
        cw, cv = matcore.eigh_batch(image(cand))
        samples += len(cand)
        chains = np.arange(len(rs))
        pick = chains + len(rs) * (cw[len(rs):, 0] < cw[: len(rs), 0])
        rs, w, v = cand[pick], cw[pick], cv[pick]
        k = int(np.argmin(w[:, 0]))
        gain = best_val - float(w[k, 0])
        if gain > 0:
            best_val, best_r = float(w[k, 0]), rs[k]
        if gain <= 1e-12 * max(1.0, abs(best_val)):
            break
    return best_val, _bloch_to_vectors(best_r[None])[0], samples


def _seesaw(t: Superoperator, psi: np.ndarray, samples: int) -> tuple[float, np.ndarray, int]:
    """Chains from the (K, dim_in) start vectors psi, all K advanced by
    batched eigensolver calls; see :func:`minimize_output_min_eig`. Each new
    candidate counts as a sample.

    With T_h the Hermitian part of t, the image of psi has the bottom
    eigenpair (lambda_0, phi) and B = adj(T_h)(phi phi^dag), so that
    lambda_0 = <psi|B|psi>. The first step is the plain see-saw: psi becomes
    the bottom eigenvector of B. From the second step on, every chain is
    offered two moves and keeps the lower image eigenvalue:

    - the see-saw move;
    - a Newton step on the unit sphere, modulo phase, in the real
      coordinates (Re delta, Im delta): lambda_0 has the gradient
      2 Re(psi^dag B delta) and, by second-order perturbation theory, the
      Hessian 2 (B - lambda_0) - 2 sum_m |<phi_m|T_h(delta psi^dag + psi
      delta^dag)|phi>|^2 / (lambda_m - lambda_0), projected on the tangent
      space orthogonal to psi and i psi. The see-saw alone converges
      linearly and runs to its step cap on positive maps; with Newton,
      chains settle in a few steps. Where lambda_0 is degenerate the move
      is not finite and is not offered.

    B and the matrix elements <phi_m|T_h(E_ij)|phi> come from one
    contraction of ``action`` with each chain's eigenvectors.
    """
    d_in, d_out = t.dim_in, t.dim_out
    adj = adjoint_map(t)
    w, v = matcore.eigh_batch(t.apply_batch(_pure_batch_from_vectors(psi)))
    best = int(np.argmin(w[:, 0]))
    best_val, best_vec = float(w[best, 0]), psi[best]
    for step in range(SEESAW_STEPS):
        if step == 0:
            phi = _pure_batch_from_vectors(v[:, :, 0])
            _, cand = matcore.min_eigpair_batch(adj.apply_batch(phi))
        else:
            if step == 1:  # built here, as searches that settle at once need none of it
                # [(i, j, p), q] = T_h(E_ij)[p, q] = (T(E_ij)[p, q] + conj(T(E_ji)[q, p]))/2
                x = t.action.reshape(d_in, d_in, d_out, d_out)
                herm = ((x + x.transpose(1, 0, 3, 2).conj()) / 2.0).reshape(-1, d_out)
                eye = np.eye(2 * d_in)
            # g[k, i, j, m] = <phi_m|T_h(E_ij)|phi>; B[k, j, i] = g[k, i, j, 0]
            g = ((herm @ v[:, :, 0].T).T.reshape(-1, d_in * d_in, d_out) @ v.conj()
                 ).reshape(-1, d_in, d_in, d_out)
            b = g[..., 0].transpose(0, 2, 1)
            _, seesaw = matcore.min_eigpair_batch(b)
            # <phi_m|T_h(delta psi^dag + psi delta^dag)|phi> = u_m.delta + w_m.conj(delta)
            u = np.einsum("kijm,kj->kmi", g, psi.conj())
            wv = np.einsum("kijm,ki->kmj", g, psi)
            r = np.concatenate([u + wv, 1j * (u - wv)], axis=2)  # the same, in (Re, Im)
            grad = r[:, 0].real
            bs = b - w[:, :1, None] * np.eye(d_in)
            top = np.concatenate([bs, 1j * bs], axis=2)  # Re [[M, iM], [-iM, M]] is M in (Re, Im)
            with np.errstate(all="ignore"):  # non-finite moves are dropped below
                s = r[:, 1:] / np.sqrt(w[:, 1:, None] - w[:, :1, None])
                hess = 2.0 * (np.concatenate([top, -1j * top], axis=1)
                              - s.conj().transpose(0, 2, 1) @ s).real
                e = np.stack([np.concatenate([psi.real, psi.imag], axis=1),
                              np.concatenate([-psi.imag, psi.real], axis=1)], axis=1)
                proj = eye - e.transpose(0, 2, 1) @ e
                try:
                    delta = np.linalg.solve(proj @ hess @ proj + eye - proj,
                                            -(proj @ grad[:, :, None]))[..., 0]
                except np.linalg.LinAlgError:
                    delta = np.full((len(psi), 2 * d_in), np.nan)
                newton = psi + delta[:, :d_in] + 1j * delta[:, d_in:]
                newton /= np.linalg.norm(newton, axis=1, keepdims=True)
            newton = np.where(np.isfinite(newton).all(axis=1, keepdims=True), newton, seesaw)
            cand = np.concatenate([seesaw, newton])
        cw, cv = matcore.eigh_batch(t.apply_batch(_pure_batch_from_vectors(cand)))
        samples += len(cand)
        if step:  # the lower of the two moves
            pick = np.arange(len(psi)) + len(psi) * (cw[len(psi):, 0] < cw[: len(psi), 0])
            cand, cw, cv = cand[pick], cw[pick], cv[pick]
        psi, w, v = cand, cw, cv
        k = int(np.argmin(w[:, 0]))
        gain = best_val - float(w[k, 0])
        if gain > 0:
            best_val, best_vec = float(w[k, 0]), psi[k]
        if gain <= 1e-12 * max(1.0, abs(best_val)):
            break
    return best_val, best_vec, samples


def certify_violation(apply, best_val: float, best_vec: np.ndarray,
                      samples: int) -> PositivityReport:
    """Verdict of a pure-state search that ended at best_vec.

    The violation is certified only when best_val lies below the witness
    margin, ``config.witness_margin()`` scaled by the largest entry of the
    witness's image.
    """
    witness = states.projector(best_vec)
    out_scale = max(1.0, float(np.abs(apply(witness)).max()))
    if best_val < -witness_margin() * out_scale:
        return PositivityReport(
            is_positive="certified-violation",
            witness=witness,
            witness_min_eigenvalue=best_val,
            samples_used=samples,
        )
    return PositivityReport(is_positive="no-violation-found", samples_used=samples)


def _with_choi(rep: PositivityReport, cp: PositivityReport,
               certificate: str | None = None) -> PositivityReport:
    """rep carrying the CP verdict and Choi eigenvalue of cp."""
    return replace(rep, min_choi_eigenvalue=cp.min_choi_eigenvalue, is_cp=cp.is_cp,
                   certificate=certificate)


def is_positive_map(t: Superoperator, budget: int | None = None, seed: int = 0) -> PositivityReport:
    """Positivity verdict: 1-positivity, see :func:`is_n_positive`.

    "certified-violation" carries a witness whose image genuinely fails
    PSD; a searched "no-violation-found" only reports search exhaustion,
    not a proof.
    """
    return is_n_positive(t, 1, budget=budget, seed=seed)


def extend_with_identity(t: Superoperator, n: int) -> Superoperator:
    """The map T (x) I_n on the composite S + witness space (ordering S (x) W).

    Transfer entry [(b, y, a, x), (j, v, i, w)] = T[(b, a), (j, i)] delta_xw delta_yv.
    """
    d_in, d_out = t.dim_in, t.dim_out
    din_c, dout_c = d_in * n, d_out * n
    t4 = np.asarray(t.transfer, dtype=complex).reshape(d_out, d_out, d_in, d_in)
    eye = np.eye(n)
    transfer = np.einsum("baji,xw,yv->byaxjviw", t4, eye, eye)
    return Superoperator(dim_in=din_c, dim_out=dout_c,
                         transfer=transfer.reshape(dout_c**2, din_c**2))


def _choi_seeds(t: Superoperator, n: int, k: int = SEESAW_STARTS) -> np.ndarray:
    """Unit inputs of T (x) I_n (ordering S (x) W), rows of length dim_in * n,
    one per bottom eigenvector of the Hermitian part of the Choi matrix, for
    the k lowest (Choi, Linear Algebra Appl. 10, 1975).

    Reshape eigenvector j to Y[i, a] (input i, output a) and take the SVD
    Y = U S V^dag. Seed j is conj(U) sqrt(S), cut to its top n Schmidt
    terms, in the first levels of W. Uncut (n >= min(dim_in, dim_out)) and
    for a Hermitian C, seed 0 and phi = conj(V) sqrt(S) give
    <phi|(T (x) I)(psi psi^dag)|phi> = lambda_min(C) / (sum S)^2 for unit
    psi and phi. As (sum S)^2 <= dim_in, the minimum eigenvalue of its image
    is at most lambda_min(C) / dim_in, the value of the maximally entangled input.
    """
    d_in, d_out = t.dim_in, t.dim_out
    _, v = matcore.eigh_batch(choi_of(t)[None])
    y = v[0, :, :k].T.reshape(-1, d_in, d_out)
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    r = min(n, s.shape[1])
    psi = np.zeros((len(y), d_in, n), dtype=complex)
    psi[:, :, :r] = u[:, :, :r].conj() * np.sqrt(s[:, None, :r])
    # one norm per seed: norm(axis=1) sums in another order than the unbatched witness
    return np.stack([p.reshape(-1) / np.linalg.norm(p) for p in psi])


def is_n_positive(t: Superoperator, n: int, budget: int | None = None,
                  seed: int = 0) -> PositivityReport:
    """n-positivity verdict for t, through T (x) I_n.

    Decided from the Choi spectrum (``certificate="choi"``, no samples) when
    t is CP, which makes it n-positive for every n, and when n >= dim_in,
    where n-positivity is complete positivity: an NCP t is then a
    "certified-violation" whose witness is the first of :func:`_choi_seeds`
    and whose value is the minimum eigenvalue of the witness's image.
    Otherwise a falsification search runs, with the maximally entangled
    state among its candidates when n > 1. When dim_in * n >= 3 the search
    also starts from the Choi seeds, and ``budget=None`` takes a grid of
    ``SEEDED_GRID`` states; for a qubit input it takes 2000. A negative
    ``budget`` raises ValueError, even where the verdict is decided.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    cp = is_cp(t)
    if cp.is_cp:
        return replace(cp, is_positive="no-violation-found")
    comp = extend_with_identity(t, n)
    if n >= t.dim_in and matcore.is_hermitian(choi_of(t)):
        witness = states.projector(_choi_seeds(t, n, 1)[0])
        rep = PositivityReport(is_positive="certified-violation", witness=witness,
                               witness_min_eigenvalue=matcore.min_eig(comp.apply(witness)))
        return _with_choi(rep, cp, "choi")
    extra = None
    if n > 1:
        k = min(t.dim_in, n)
        ent = np.zeros(t.dim_in * n, dtype=complex)
        ent[np.arange(k) * (n + 1)] = 1.0  # sum_i |i>|i> over the first k levels
        extra = ent[None, :] / np.linalg.norm(ent)
    if comp.dim_in == 2:
        search = minimize_output_min_eig(comp, 2000 if budget is None else budget, seed, extra)
    else:  # the see-saw also starts from the Choi seeds and the entangled state
        starts = _choi_seeds(t, n) if extra is None else np.concatenate([_choi_seeds(t, n), extra])
        search = minimize_output_min_eig(comp, SEEDED_GRID if budget is None else budget, seed,
                                         starts=starts)
    return _with_choi(certify_violation(comp.apply, *search), cp)


def adjoint_map(t: Superoperator) -> Superoperator:
    """Heisenberg-picture dual: tr(adj(T)(A) rho) = tr(A T(rho))."""
    return Superoperator(
        dim_in=t.dim_out, dim_out=t.dim_in, transfer=dag(t.transfer)
    )


# -- measurements and selective operations -----------------------------------


def _check_projectors(projectors) -> int:
    ps = [np.asarray(p, dtype=complex) for p in projectors]
    d = ps[0].shape[0]
    tol = 1e3 * tolerance()
    for p in ps:
        if not matcore.mat_close(p @ p, p, tol):
            raise ValueError("projector set contains a non-idempotent element")
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if float(np.abs(ps[i] @ ps[j]).max()) > tol:
                raise ValueError("projector set is not mutually orthogonal")
    if not matcore.mat_close(sum(ps), np.eye(d), tol):
        raise ValueError("projector set does not resolve the identity")
    return d


def lueders(rho: np.ndarray, projectors) -> list[tuple[float, np.ndarray]]:
    """Selective von Neumann measurement: outcome probabilities and
    post-measurement states. Zero-probability branches are omitted."""
    _check_projectors(projectors)
    out = []
    for p in projectors:
        prob = float(np.trace(p @ rho).real)
        if prob > tolerance():
            out.append((prob, p @ rho @ dag(p) / prob))
    return out


def nonselective(rho: np.ndarray, projectors) -> np.ndarray:
    """Nonselective measurement sum_i P_i rho P_i (a Kraus-form channel)."""
    _check_projectors(projectors)
    return sum(p @ rho @ dag(p) for p in projectors)


def selective_apply(k: KrausSet, rho: np.ndarray) -> tuple[float, np.ndarray | None]:
    """Apply a selective operation: (success probability, normalized state).

    The unnormalized output's trace is the success probability; below
    tolerance no state is produced.
    """
    if k.completeness not in ("selective", "trace-preserving"):
        raise ValueError(f"unsupported completeness class {k.completeness!r}")
    out = sum(w @ rho @ dag(w) for w in k.ops)
    prob = float(np.trace(out).real)
    if prob <= tolerance():
        return 0.0, None
    return prob, out / prob


# -- stock maps and random channels ------------------------------------------


def identity_superoperator(dim: int) -> Superoperator:
    return Superoperator(dim_in=dim, dim_out=dim, transfer=np.eye(dim**2, dtype=complex))


def transpose_superoperator(dim: int) -> Superoperator:
    """The transpose map: positive but not completely positive for dim >= 2."""
    t = np.eye(dim**2, dtype=complex).reshape(dim, dim, dim, dim).transpose(0, 1, 3, 2)
    return Superoperator(dim_in=dim, dim_out=dim, transfer=t.reshape(dim**2, dim**2))


def flip_superoperator() -> Superoperator:
    """Qubit Bloch map (x, y, z) -> (x, y, -z).

    Equal to conjugation by sigma_x composed with transposition; positive,
    NCP, with Choi spectrum (-1, 1, 1, 1).
    """
    sx = states.SIGMA_X
    conj_x = transfer_from_kraus([sx])
    tr = transpose_superoperator(2)
    return Superoperator(dim_in=2, dim_out=2, transfer=conj_x.transfer @ tr.transfer)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_cptp(dim: int, rng: np.random.Generator, kraus_rank: int | None = None) -> KrausSet:
    """Random CPTP channel from a Haar isometry (Stinespring dilation)."""
    k = kraus_rank or dim**2
    u = random_unitary(dim * k, rng)
    iso = u[:, :dim]  # isometry H_in -> H_out (x) H_env
    ops = tuple(iso.reshape(dim, k, dim)[:, a, :] for a in range(k))
    return KrausSet(ops=ops, completeness="trace-preserving")


# -- JSON superoperator format -----------------------------------------------
# {"dim_in": n, "dim_out": m, "kind": "kraus"|"transfer"|"choi",
#  "data": [matrix objects]}


def superoperator_to_json(t: Superoperator, kind: str = "transfer") -> dict:
    if kind == "transfer":
        data = [states.matrix_to_json(t.transfer)]
    elif kind == "choi":
        data = [states.matrix_to_json(choi_of(t))]
    elif kind == "kraus":
        ks = kraus_from_choi(choi_of(t), t.dim_in, t.dim_out)
        data = [states.matrix_to_json(w) for w in ks.ops]
    else:
        raise ValueError(f"unknown superoperator kind {kind!r}")
    return {"dim_in": t.dim_in, "dim_out": t.dim_out, "kind": kind, "data": data}


def superoperator_from_json(obj: dict) -> Superoperator:
    try:
        d_in = int(obj["dim_in"])
        d_out = int(obj["dim_out"])
        kind = obj["kind"]
        data = obj["data"]
    except KeyError as exc:
        raise ValueError(f"superoperator object missing field {exc}") from exc
    mats = [states.matrix_from_json(m) for m in data]
    if kind == "transfer":
        return Superoperator(dim_in=d_in, dim_out=d_out, transfer=mats[0])
    if kind == "choi":
        return transfer_from_choi(mats[0], d_in, d_out)
    if kind == "kraus":
        return transfer_from_kraus(mats)
    raise ValueError(f"unknown superoperator kind {kind!r}")
