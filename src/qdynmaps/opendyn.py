"""Assignment maps and reduced dynamics with correlated initial conditions.

An assignment map sends a system state rho_S to a joint system-reservoir
candidate rho_SR; composing with a joint unitary and the partial trace gives
the reduced dynamical map rho_S -> tr_R(U Phi(rho_S) U^dag). The candidates
an assignment produces are Hermitian and unit trace but deliberately NOT
guaranteed PSD; callers validate, because negative outputs are exactly the
phenomenon under study.

Every totally defined assignment is an :class:`AffineAssignment`: a
``channels.Superoperator`` from S to S (x) R, built from (linear part,
constant part) and applied like every other map.
:class:`ProductAssignment` is a constructor for the affine map with zero
constant, rho -> rho (x) rho_R. Tabulated maps are defined on finitely many
states and extended (or shown non-extendable) by :func:`extend_linearly`.

A :class:`ReducedDynamics` diagonalises its Hamiltonian once and a lambda
``compatdomain.DomainQuery`` builds its reduced map once. So that these
caches cannot go stale, the matrices they derive from (the generator,
``rho_r``, ``linear``, ``constant`` and every Superoperator's matrices) are
stored as read-only copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matcore, states
from .channels import Superoperator, _choi_seeds, _readonly, certify_violation
from .channels import minimize_output_min_eig, unvec, vec
from .config import consistency_threshold, product_threshold, tolerance
from .matcore import dag, kron, partial_trace, trace_norm

__all__ = [
    "ProductAssignment",
    "AffineAssignment",
    "TabulatedAssignment",
    "correlated_assignment",
    "dephasing_assignment",
    "assign",
    "check_consistency",
    "check_linearity",
    "ReducedDynamics",
    "reduced_map",
    "ExtensionResult",
    "Conflict",
    "extend_linearly",
    "PechukasReport",
    "pechukas_report",
    "pechukas_witness",
    "TrajectoryReport",
    "inconsistency_analysis",
    "assignment_to_json",
    "assignment_from_json",
]


@dataclass(frozen=True, eq=False)
class AffineAssignment(Superoperator):
    """rho_S -> L(rho_S) + tr(rho_S) * K, a Superoperator from S to S (x) R.

    ``linear`` is a (d_s*d_r)^2 x d_s^2 matrix on column-vectorized inputs;
    ``constant`` is a fixed Hermitian traceless (d_s*d_r)-square matrix. On
    unit-trace states this realizes a general affine assignment while staying
    linear as a map of matrices, with transfer matrix linear + vec(K) vec(I)^T
    (as tr(rho) = vec(I)^T vec(rho)).
    """

    dim_in: int = field(init=False)
    dim_out: int = field(init=False)
    transfer: np.ndarray = field(init=False, repr=False)
    linear: np.ndarray
    constant: np.ndarray
    d_s: int
    d_r: int

    def __post_init__(self):
        d_s, n = self.d_s, self.d_s * self.d_r
        if d_s < 1 or self.d_r < 1:
            raise ValueError(f"dimensions must be positive, got d_s={d_s}, d_r={self.d_r}")
        linear, constant = _readonly(self.linear), _readonly(self.constant)
        if linear.shape != (n * n, d_s * d_s) or constant.shape != (n, n):
            raise ValueError(
                f"linear {linear.shape} / constant {constant.shape} do not match "
                f"d_s={d_s}, d_r={self.d_r}"
            )
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "dim_in", d_s)
        object.__setattr__(self, "dim_out", n)
        object.__setattr__(self, "transfer", linear + np.outer(vec(constant), vec(np.eye(d_s))))
        super().__post_init__()


class ProductAssignment(AffineAssignment):
    """rho_S -> rho_S (x) rho_R with a fixed reservoir state: the affine
    assignment with zero constant."""

    def __init__(self, rho_r: np.ndarray, d_s: int = 2):
        rho_r = _readonly(rho_r)
        linear = _product_linear(rho_r, d_s)
        d_r = rho_r.shape[0]
        object.__setattr__(self, "rho_r", rho_r)
        super().__init__(linear=linear, constant=np.zeros((d_s * d_r,) * 2), d_s=d_s, d_r=d_r)


def _product_linear(rho_r: np.ndarray, d_s: int) -> np.ndarray:
    """Transfer matrix of rho_S -> rho_S (x) rho_R, for a square rho_R."""
    rho_r = np.asarray(rho_r, dtype=complex)
    if rho_r.ndim != 2 or rho_r.shape[0] != rho_r.shape[1]:
        raise ValueError(f"reservoir state must be a square matrix, got shape {rho_r.shape}")
    n = d_s * rho_r.shape[0]
    # column (j, i) is vec(E_ij (x) rho_r): entry (b, y, a, x) is delta_ai delta_bj rho_r[x, y]
    eye = np.eye(d_s)
    return np.einsum("ai,bj,xy->byaxji", eye, eye, rho_r).reshape(n**2, d_s**2)


@dataclass(frozen=True, eq=False)
class TabulatedAssignment:
    """Assignment defined only on finitely many states; no implicit extension.

    ``inconsistent=True`` flags tables whose pairs deliberately violate
    tr_R(rho_SR) = rho_S.
    """

    pairs: tuple  # of (rho_s, rho_sr)
    d_s: int
    d_r: int
    inconsistent: bool = False

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("tabulated assignment needs at least one pair")
        n = self.d_s * self.d_r
        for rho_s, rho_sr in self.pairs:
            if np.shape(rho_s) != (self.d_s, self.d_s) or np.shape(rho_sr) != (n, n):
                raise ValueError(
                    f"table pair shapes {np.shape(rho_s)}, {np.shape(rho_sr)} do not match "
                    f"d_s={self.d_s}, d_r={self.d_r}"
                )
        if not self.inconsistent:
            for rho_s, rho_sr in self.pairs:
                res = trace_norm(partial_trace(rho_sr, (self.d_s, self.d_r)) - rho_s)
                if res > consistency_threshold():
                    raise ValueError(
                        f"table pair violates consistency (residual {res:.3g}); "
                        "flag the table inconsistent=True if intended"
                    )

    def lookup(self, rho_s: np.ndarray) -> np.ndarray:
        for key, val in self.pairs:
            if matcore.mat_close(key, rho_s, 1e-10):
                return val
        raise KeyError("state not in the tabulated assignment's domain")

    def __call__(self, rho_s: np.ndarray) -> np.ndarray:
        return self.lookup(rho_s)


AssignmentMap = AffineAssignment | TabulatedAssignment


def correlated_assignment(c: float, d_s: int = 2) -> AffineAssignment:
    """The z-axial correlated family: rho -> rho (x) I/2 + c/4 sigma_z (x) sigma_z.

    Consistent for every c (the correlation term is traceless on R); positive
    on the full Bloch ball only at c = 0.
    """
    if d_s != 2:
        raise ValueError("correlated_assignment is a qubit-qubit family")
    if not -1.0 <= c <= 1.0:
        raise ValueError(f"correlation strength c={c} outside [-1, 1]")
    return AffineAssignment(linear=_product_linear(states.I2 / 2.0, 2),
                            constant=(c / 4.0) * kron(states.SIGMA_Z, states.SIGMA_Z),
                            d_s=2, d_r=2)


def dephasing_assignment(rho_r: np.ndarray, d_s: int = 2) -> AffineAssignment:
    """Inconsistent product-like assignment rho -> (dephased rho) (x) rho_R.

    The z-dephasing kills coherences before attaching the reservoir, so
    tr_R(Phi rho) != rho whenever rho has off-diagonal terms.
    """
    linear = _product_linear(rho_r, d_s)
    d_r = np.shape(rho_r)[0]
    # vec(I) keeps the columns of the diagonal units; off-diagonal ones map to zero
    return AffineAssignment(linear=linear * vec(np.eye(d_s)).real,
                            constant=np.zeros((d_s * d_r,) * 2), d_s=d_s, d_r=d_r)


def assign(phi: AssignmentMap, rho_s: np.ndarray) -> np.ndarray:
    """Apply an assignment map; result is Hermitian and unit trace but not
    guaranteed PSD (validate downstream)."""
    rho_s = np.asarray(rho_s, dtype=complex)
    if rho_s.shape != (phi.d_s, phi.d_s):
        raise ValueError(f"state shape {rho_s.shape}, assignment expects d_s={phi.d_s}")
    return phi(rho_s)


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    max_residual: float
    worst_probe: np.ndarray = field(repr=False)

    @property
    def consistent(self) -> bool:
        return self.max_residual <= consistency_threshold()


def check_consistency(phi: AssignmentMap, probes) -> ConsistencyReport:
    """Max trace-norm residual of tr_R(Phi rho) - rho over the probes."""
    worst = None
    worst_res = -1.0
    for rho in probes:
        joint = assign(phi, rho)
        res = trace_norm(partial_trace(joint, (phi.d_s, phi.d_r)) - rho)
        if res > worst_res:
            worst_res = res
            worst = rho
    return ConsistencyReport(max_residual=worst_res, worst_probe=worst)


@dataclass(frozen=True)
class LinearityReport:
    max_residual: float
    undefined_probes: int = 0


def check_linearity(phi: AssignmentMap, probes) -> LinearityReport:
    """Convex-combination audit.

    ``probes`` is an iterable of (rho1, rho2, weight). For tabulated maps a
    mixture falling outside the table is counted as undefined, not as a
    violation: non-extendability is not nonlinearity.
    """
    worst = 0.0
    undefined = 0
    for rho1, rho2, lam in probes:
        mix = lam * rho1 + (1.0 - lam) * rho2
        try:
            img_mix, img1, img2 = [assign(phi, rho) for rho in (mix, rho1, rho2)]
        except KeyError:  # a table lookup outside the table
            undefined += 1
            continue
        worst = max(worst, trace_norm(img_mix - lam * img1 - (1.0 - lam) * img2))
    return LinearityReport(max_residual=worst, undefined_probes=undefined)


@dataclass(frozen=True, eq=False)
class ReducedDynamics:
    """An assignment map plus a joint generator.

    ``generator`` is ("hamiltonian", H) for U_t = exp(-i H t), or
    ("unitary", U) for a single fixed unitary (the time argument is then
    ignored except that t = 0 gives the identity).
    """

    phi: AssignmentMap
    generator: tuple[str, np.ndarray]

    def __post_init__(self):
        kind, m = self.generator[0], _readonly(self.generator[1])
        object.__setattr__(self, "generator", (kind, m))
        n = self.phi.d_s * self.phi.d_r
        if m.shape != (n, n):
            raise ValueError(f"generator shape {m.shape} incompatible with dims ({n},{n})")
        if kind == "hamiltonian":
            if not matcore.is_hermitian(m):
                raise ValueError("hamiltonian generator is not Hermitian")
        elif kind == "unitary":
            if not matcore.mat_close(dag(m) @ m, np.eye(n), 1e3 * tolerance()):
                raise ValueError("unitary generator is not unitary within tolerance")
        else:
            raise ValueError(f"unknown generator kind {kind!r}")

    @cached_property
    def _eig(self) -> matcore.HermEig:
        return matcore.herm_eig(self.generator[1])

    def unitary_at(self, t: float) -> np.ndarray:
        kind, m = self.generator
        if kind == "hamiltonian":
            return self._eig.propagator(t)
        if t == 0.0:
            return np.eye(m.shape[0], dtype=complex)
        return m


def reduced_map(rd: ReducedDynamics, t: float) -> Superoperator:
    """Transfer matrix of rho -> tr_R(U_t Phi(rho) U_t^dag).

    Built by applying the map to the matrix-unit basis of S; the affine
    constant rides along with the trace of the basis element, so the result
    is the linear extension agreeing with the direct formula on all states.
    """
    phi = rd.phi
    if isinstance(phi, TabulatedAssignment):
        raise TypeError("tabulated assignments must be extended with extend_linearly first")
    d_s, d_r = phi.d_s, phi.d_r
    u = rd.unitary_at(t)
    # units[k] = E_ij for k = j*d_s + i; column k of the transfer matrix is vec(outs[k])
    units = np.eye(d_s**2, dtype=complex).reshape(d_s**2, d_s, d_s).transpose(0, 2, 1)
    joints = u @ phi.apply_batch(units) @ dag(u)
    outs = np.einsum("nikjk->nij", joints.reshape(d_s**2, d_s, d_r, d_s, d_r))
    transfer = outs.transpose(2, 1, 0).reshape(d_s**2, d_s**2)
    return Superoperator(dim_in=d_s, dim_out=d_s, transfer=transfer)


@dataclass(frozen=True, eq=False)
class Conflict:
    """Witness that a tabulated map admits no linear extension: two convex
    decompositions of the same state whose images differ."""

    weights_a: np.ndarray
    indices_a: np.ndarray
    weights_b: np.ndarray
    indices_b: np.ndarray
    recombined_a: np.ndarray = field(repr=False)
    recombined_b: np.ndarray = field(repr=False)
    image_a: np.ndarray = field(repr=False)
    image_b: np.ndarray = field(repr=False)
    residual: float = 0.0

    @property
    def image_gap(self) -> float:
        return trace_norm(self.image_a - self.image_b)


@dataclass(frozen=True)
class ExtensionResult:
    outcome: str  # "extension" | "conflict"
    extension: AssignmentMap | None = None
    conflict: Conflict | None = None


def _common_reservoir(tab: TabulatedAssignment) -> np.ndarray | None:
    """If every pair is rho_s (x) tau with one common tau, return tau."""
    tau = None
    for rho_s, rho_sr in tab.pairs:
        cand = partial_trace(rho_sr, (tab.d_s, tab.d_r), keep=1)
        if tau is None:
            tau = cand
        elif not matcore.mat_close(tau, cand, 1e-10):
            return None
    for rho_s, rho_sr in tab.pairs:
        if not matcore.mat_close(rho_sr, kron(rho_s, tau), 1e-10):
            return None
    return tau


def extend_linearly(tab: TabulatedAssignment) -> ExtensionResult:
    """Linear extension of a tabulated assignment, or a conflict witness.

    The interpolation system X vec(rho_k) = vec(sigma_k) is solved by least
    squares; the minimal-Frobenius-norm solution fixes the (otherwise
    unconstrained) behavior off the affine hull of the table. A conflict is
    declared when the residual is irreducible, and the witness decompositions
    come from a null vector of the state-side system: splitting it by sign
    gives two convex mixtures of table states that recombine to the same
    state but are forced to different images.
    """
    d_s, d_r = tab.d_s, tab.d_r
    tau = _common_reservoir(tab)
    if tau is not None:
        return ExtensionResult(
            outcome="extension",
            extension=ProductAssignment(rho_r=tau, d_s=d_s),
        )

    p = np.stack([vec(rho_s) for rho_s, _ in tab.pairs], axis=1)  # d_s^2 x k
    s = np.stack([vec(rho_sr) for _, rho_sr in tab.pairs], axis=1)
    x, *_ = np.linalg.lstsq(p.T, s.T, rcond=None)
    x = x.T  # minimal-norm map with X p = s in least squares
    residual = float(np.abs(x @ p - s).max())
    if residual <= consistency_threshold():
        ext = AffineAssignment(
            linear=x,
            constant=np.zeros((d_s * d_r, d_s * d_r), dtype=complex),
            d_s=d_s,
            d_r=d_r,
        )
        return ExtensionResult(outcome="extension", extension=ext)

    # irreducible residual: exhibit the conflict from a state-side null vector
    _, sv, vh = np.linalg.svd(p)
    null_mask = np.concatenate([sv, np.zeros(p.shape[1] - len(sv))]) <= 1e-10
    if not null_mask.any():
        # residual without an affine dependency should not happen for valid
        # tables; without a dependency there is no witness to report
        raise RuntimeError("interpolation residual without a state-side null vector")
    best = None
    for c in vh[np.where(null_mask)[0], :]:
        # fix the arbitrary SVD phase so the dependency coefficients are real
        pivot = c[int(np.argmax(np.abs(c)))]
        c = np.real(c * np.conj(pivot) / abs(pivot))
        if np.abs(p @ c).max() > 1e-8:
            continue
        gap = trace_norm(
            sum(ci * unvec(s[:, k], d_s * d_r) for k, ci in enumerate(c))
        )
        if best is None or gap > best[1]:
            best = (c, gap)
    if best is None:
        raise RuntimeError("no real affine dependency found among table states")
    c, _ = best
    pos = np.where(c > 1e-12)[0]
    neg = np.where(c < -1e-12)[0]
    w = c[pos].sum()
    wa = c[pos] / w
    wb = -c[neg] / w
    rho_a = sum(wi * unvec(p[:, k], d_s) for wi, k in zip(wa, pos))
    rho_b = sum(wi * unvec(p[:, k], d_s) for wi, k in zip(wb, neg))
    img_a = sum(wi * unvec(s[:, k], d_s * d_r) for wi, k in zip(wa, pos))
    img_b = sum(wi * unvec(s[:, k], d_s * d_r) for wi, k in zip(wb, neg))
    conflict = Conflict(
        weights_a=wa,
        indices_a=pos,
        weights_b=wb,
        indices_b=neg,
        recombined_a=rho_a,
        recombined_b=rho_b,
        image_a=img_a,
        image_b=img_b,
        residual=residual,
    )
    return ExtensionResult(outcome="conflict", conflict=conflict)


@dataclass(frozen=True, eq=False)
class PechukasReport:
    """Pechukas's no-go for an affine assignment, decided from its transfer
    matrix (certificate "pechukas"); see :func:`pechukas_witness`.

    ``consistency_residual`` is the largest entry of PT_R . transfer - I,
    the transfer matrix of rho -> tr_R Phi(rho) - rho; ``reservoir`` is
    tau = tr_S Phi(I) / d_s, and ``product_deviation`` the largest entry of
    transfer minus the transfer matrix of rho -> rho (x) tau. ``verdict`` is
    "inconsistent" (the theorem does not apply), "product" (positive iff
    tau is PSD) or "non-product" (not positive).
    """

    certificate = "pechukas"

    consistency_residual: float
    product_deviation: float
    reservoir: np.ndarray = field(repr=False)

    @property
    def consistent(self) -> bool:
        return self.consistency_residual <= consistency_threshold()

    @property
    def verdict(self) -> str:
        if not self.consistent:
            return "inconsistent"
        return "product" if self.product_deviation <= product_threshold() else "non-product"


def pechukas_report(phi: AssignmentMap) -> PechukasReport:
    """Consistency residual, reservoir state and product deviation of phi,
    exactly, from its transfer matrix."""
    if isinstance(phi, TabulatedAssignment):
        raise TypeError("tabulated assignments must be extended with extend_linearly first")
    d_s, d_r = phi.d_s, phi.d_r
    # row (b, y, a, x) of the transfer matrix holds entry ((a, x), (b, y)) of an image
    t = phi.transfer.reshape(d_s, d_r, d_s, d_r, d_s * d_s)
    marginal = np.einsum("bxaxk->bak", t).reshape(d_s * d_s, d_s * d_s)
    tau = np.einsum("ayaxk,k->xy", t, vec(np.eye(d_s))) / d_s
    return PechukasReport(
        consistency_residual=float(np.abs(marginal - np.eye(d_s * d_s)).max()),
        product_deviation=float(np.abs(phi.transfer - _product_linear(tau, d_s)).max()),
        reservoir=tau,
    )


PECHUKAS_GRID = 58  # Fibonacci points scored after the six Pauli eigenstates


def pechukas_witness(
    phi: AssignmentMap, budget: int = 2000, seed: int = 0
) -> tuple[np.ndarray | None, float]:
    """Pechukas's no-go for a consistent affine assignment: (witness or
    None, min over pure psi of lmin(Phi(psi psi^dag))).

    The verdict is decided by :func:`pechukas_report`. A consistent linear
    assignment is positive iff it is rho -> rho (x) tau with tau PSD
    (Pechukas, PRL 73, 1060, 1994; Jordan, Shaji & Sudarshan, PRA 70,
    052110, 2004). Proof: a PSD X whose marginal tr_R X is a pure psi psi^dag
    vanishes on psi_perp (x) R, so X = psi psi^dag (x) sigma_psi. Applied to
    psi_1, psi_2 and (psi_1 +- psi_2)/sqrt(2), linearity forces one sigma
    for all pure states, hence for all states. For the witness, take the
    block Z_psi of Phi(psi psi^dag) on psi_perp (x) R: consistency gives
    tr Z_psi = 0, so a nonzero Z_psi has a negative eigenvalue, and
    lmin(Phi(psi psi^dag)) <= lmin(Z_psi) < 0 by Cauchy interlacing. For
    the correlated family at psi = |0>, Z = -(c/4) sigma_z: the value is
    exactly -|c|/4.

    - A product map runs no search: every pure state has the image
      spectrum of psi psi^dag (x) tau, so the value is min(0, lmin(tau)),
      and "no witness" is a proof of positivity.
    - A non-product map runs ``channels.minimize_output_min_eig``: for a
      qubit system on the six Pauli eigenstates and ``PECHUKAS_GRID``
      Fibonacci points, polished by Newton Bloch chains (``budget`` and
      ``seed`` are unused); for d_s >= 3 with ``budget`` and ``seed``, and
      started also from the Choi seeds of Phi (``channels._choi_seeds``
      with n = 1), so that ``budget=0`` still searches.

    The witness is returned only when the value clears
    ``channels.certify_violation``'s margin; a non-product map whose value
    does not is still not positive, but has no witness to show. Raises
    ValueError for an inconsistent map and TypeError for a table.
    """
    rep = pechukas_report(phi)
    if not rep.consistent:
        raise ValueError(
            f"assignment is inconsistent (residual {rep.consistency_residual:.3g}); "
            "the product-map theorem does not apply"
        )
    if rep.verdict == "product":
        value, vec0 = min(0.0, matcore.min_eig(rep.reservoir)), np.eye(phi.d_s)[0]
        return certify_violation(phi, value, vec0, 0).witness, value
    if phi.d_s == 2:
        best_val, best_vec, samples = minimize_output_min_eig(phi, PECHUKAS_GRID, seed)
    else:
        best_val, best_vec, samples = minimize_output_min_eig(
            phi, budget, seed, starts=_choi_seeds(phi, 1))
    return certify_violation(phi, best_val, best_vec, samples).witness, best_val


@dataclass(frozen=True, eq=False)
class TrajectoryReport:
    """Comparison of the true reduced trajectory with the assignment proxy.

    ``fixed_point_offset`` is |rho_S - tr_R(Phi rho_S)|_1: for inconsistent
    assignments the nominal initial state sits off the generated trajectory.
    ``deviation[k]`` is |tr_R(U_t rho_SR U_t^dag) - tr_R(U_t Phi(rho_S)
    U_t^dag)|_1 at times[k].
    """

    times: np.ndarray
    fixed_point_offset: float
    deviation: np.ndarray


def inconsistency_analysis(
    phi: AssignmentMap,
    true_initial: np.ndarray,
    generator: tuple[str, np.ndarray] | ReducedDynamics,
    times,
) -> TrajectoryReport:
    """Track how far the assignment-generated trajectory strays from the one
    seeded by the actual joint state.

    ``generator`` is a generator tuple, as for :class:`ReducedDynamics`, or
    a ReducedDynamics of the same dimensions, whose diagonalised
    Hamiltonian is then reused.
    """
    d_s, d_r = phi.d_s, phi.d_r
    if isinstance(generator, ReducedDynamics):
        if (generator.phi.d_s, generator.phi.d_r) != (d_s, d_r):
            raise ValueError("reduced dynamics and assignment have different dimensions")
        rd = generator
    else:
        rd = ReducedDynamics(phi=phi, generator=generator)
    rho_s = partial_trace(true_initial, (d_s, d_r))
    diag = states.validate(rho_s)
    if diag.verdict != "valid":
        raise ValueError(f"marginal of true_initial is not a valid state: {diag.verdict}")
    proxy = assign(phi, rho_s)
    offset = trace_norm(rho_s - partial_trace(proxy, (d_s, d_r)))
    times = np.asarray(list(times), dtype=float)
    devs = np.empty_like(times)
    for k, t in enumerate(times):
        u = rd.unitary_at(t)
        true_t = partial_trace(u @ true_initial @ dag(u), (d_s, d_r))
        proxy_t = partial_trace(u @ proxy @ dag(u), (d_s, d_r))
        devs[k] = trace_norm(true_t - proxy_t)
    return TrajectoryReport(times=times, fixed_point_offset=offset, deviation=devs)


# -- JSON assignment-map format ----------------------------------------------
# {"variant": "product"|"affine"|"tabulated", "d_s": n, "d_r": m, ...}


def assignment_to_json(phi: AssignmentMap) -> dict:
    base = {"d_s": phi.d_s, "d_r": phi.d_r}
    if isinstance(phi, ProductAssignment):
        return {"variant": "product", **base, "reservoir": states.matrix_to_json(phi.rho_r)}
    if isinstance(phi, AffineAssignment):
        return {
            "variant": "affine",
            **base,
            "linear": {"re": phi.linear.real.tolist(), "im": phi.linear.imag.tolist()},
            "constant": states.matrix_to_json(phi.constant),
        }
    if isinstance(phi, TabulatedAssignment):
        return {
            "variant": "tabulated",
            **base,
            "inconsistent": phi.inconsistent,
            "pairs": [
                {"rho_s": states.matrix_to_json(a), "rho_sr": states.matrix_to_json(b)}
                for a, b in phi.pairs
            ],
        }
    raise TypeError(f"not an assignment map: {type(phi)!r}")


def assignment_from_json(obj: dict) -> AssignmentMap:
    try:
        variant = obj["variant"]
        d_s = int(obj["d_s"])
        d_r = int(obj["d_r"])
    except KeyError as exc:
        raise ValueError(f"assignment object missing field {exc}") from exc
    if variant == "product":
        phi = ProductAssignment(rho_r=states.matrix_from_json(obj["reservoir"]), d_s=d_s)
        if phi.d_r != d_r:
            raise ValueError(f"product reservoir is {phi.d_r}-dimensional, declared d_r={d_r}")
        return phi
    if variant == "affine":
        return AffineAssignment(
            linear=states.matrix_from_json(obj["linear"]),
            constant=states.matrix_from_json(obj["constant"]),
            d_s=d_s,
            d_r=d_r,
        )
    if variant == "tabulated":
        pairs = tuple(
            (states.matrix_from_json(p["rho_s"]), states.matrix_from_json(p["rho_sr"]))
            for p in obj["pairs"]
        )
        return TabulatedAssignment(
            pairs=pairs, d_s=d_s, d_r=d_r, inconsistent=bool(obj.get("inconsistent", False))
        )
    raise ValueError(f"unknown assignment variant {variant!r}")
