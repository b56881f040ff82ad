"""Compatibility-domain geometry.

The compatibility domain of an assignment map Phi is the set of system
states with Phi(rho) >= 0; the Lambda-level variant asks instead for
tr_R(U Phi(rho) U^dag) >= 0. Both predicates are offered and never
conflated: Phi-membership implies Lambda-membership, the converse is
checked per case, not assumed.

Geometry (boundary radii, landscapes) is qubit-only: the Bloch ball is the
one canonical chart of a state space we have. Higher dimensions still get
membership and convexity checks.

Along a Bloch ray the image is affine, A + rB with A the image of I/2, so
the exit radius is one Hermitian eigenproblem of the pencil (A, B), not a
search. Landscapes and convexity checks decide whole stacks of states by
one image batch and one eigenvalue batch.

Both predicates test the image of one ``channels.Superoperator``, the
query's ``map``: Phi itself, or Lambda_t, built once and reused for every
image. It cannot go stale, as the query is frozen and the matrices Lambda_t
is built from are stored read-only (see ``opendyn``).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matcore, states
from .channels import Superoperator
from .config import psd_threshold, tolerance
from .opendyn import AssignmentMap, ReducedDynamics, TabulatedAssignment, reduced_map

__all__ = [
    "DomainQuery",
    "DomainReport",
    "membership",
    "boundary_radius",
    "landscape",
    "convexity_check",
    "report_to_json",
    "report_to_csv",
]

# Rounds of rejection sampling in convexity_check: each round draws one
# batch of 2 * trials candidate states, so the budget is shared by all members.
MEMBER_TRIES = 1000


@dataclass(frozen=True, eq=False)
class DomainQuery:
    """Subject of a domain computation: an assignment map, or a reduced
    dynamics evaluated at a fixed time, under one of the two predicates."""

    phi: AssignmentMap
    predicate: str = "phi"  # "phi" | "lambda"
    rd: ReducedDynamics | None = None
    t: float = 0.0

    def __post_init__(self):
        if self.predicate not in ("phi", "lambda"):
            raise ValueError(f"predicate must be 'phi' or 'lambda', got {self.predicate!r}")
        if self.predicate == "lambda" and self.rd is None:
            raise ValueError("lambda-level queries need a ReducedDynamics subject")
        if self.rd is not None and self.rd.phi is not self.phi:
            raise ValueError("the ReducedDynamics subject is built on a different assignment")
        if isinstance(self.phi, TabulatedAssignment):
            raise TypeError("domain queries need a totally defined assignment; extend first")

    @property
    def d_s(self) -> int:
        return self.phi.d_s

    @cached_property
    def map(self) -> Superoperator:
        """The map whose image is tested: phi itself, or Lambda_t built once."""
        return self.phi if self.predicate == "phi" else reduced_map(self.rd, self.t)

    def image(self, rho: np.ndarray) -> np.ndarray:
        return self.map.apply(rho)

    def image_batch(self, rhos: np.ndarray) -> np.ndarray:
        return self.map.apply_batch(rhos)


@dataclass(frozen=True, eq=False)
class DomainReport:
    center_min_eigenvalue: float
    center_member: bool
    predicate: str
    samples: np.ndarray = field(repr=False)  # rows (rx, ry, rz, lmin)
    radii: tuple = ()  # of (direction, radius)
    convexity_trials: int = 0
    convexity_failures: int = 0
    seed: int = 0
    tol: float = 0.0


def membership(q: DomainQuery, rho: np.ndarray) -> tuple[bool, float]:
    """Membership verdict and the deciding minimum eigenvalue."""
    return matcore.psd_verdict(q.image(rho))


def boundary_radius(q: DomainQuery, direction) -> float:
    """Largest radius along a Bloch direction still inside the domain.

    The image of I/2 + r (n . sigma)/2 is the pencil A + rB, with A the
    image of I/2 and B that of (n . sigma)/2 (Hermitian parts taken). With
    L the Cholesky factor of A + eps I, A + rB + eps I >= 0 iff
    1 + r mu >= 0, mu the minimum eigenvalue of L^-1 B L^-dag: the radius
    is 1 if mu >= -1, else -1/mu, from one eigenproblem. eps sits a hair
    inside the membership threshold, so that the returned radius is a
    member. Requires the maximally mixed state to be a member; if it is one
    only within the tolerance (A + eps I is not positive definite), the
    radius is 0.
    """
    if q.d_s != 2:
        raise ValueError("boundary_radius is defined for qubit subjects only")
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    center = states.I2 / 2.0
    a = q.image(center)
    member, lmin = matcore.psd_verdict(a)
    if not member:
        raise ValueError(
            f"center I/2 is outside the domain (lmin {lmin:.3g}): empty interior"
        )
    b = q.image(states.from_bloch(direction) - center)
    eps = (1.0 - 1e-6) * -psd_threshold(float(np.abs(a).max()))
    try:
        chol = np.linalg.cholesky((a + matcore.dag(a)) / 2.0 + eps * np.eye(len(a)))
    except np.linalg.LinAlgError:
        return 0.0
    half = np.linalg.solve(chol, (b + matcore.dag(b)) / 2.0)
    mu = matcore.min_eig(np.linalg.solve(chol, matcore.dag(half)))
    return 1.0 if mu >= -1.0 else -1.0 / mu


def landscape(q: DomainQuery, resolution: int = 1) -> DomainReport:
    """Minimum-eigenvalue samples over a deterministic Bloch-ball grid.

    Fibonacci sphere shells at radii 0.1 .. 1.0; ``resolution`` scales the
    per-shell point count. The center is always evaluated and reported
    first.
    """
    from .channels import fibonacci_bloch

    if q.d_s != 2:
        raise ValueError("landscape is defined for qubit subjects only")
    per_shell = 100 * resolution
    points = [np.zeros(3)]
    for radius in np.linspace(0.1, 1.0, 10):
        points.extend(radius * fibonacci_bloch(per_shell))
    points = np.asarray(points)
    rhos = states.from_bloch_batch(points)
    images = q.image_batch(rhos)
    samples = np.column_stack([points, matcore.min_eig_batch(images)])
    center_member, center_lmin = matcore.psd_verdict(images[0])
    return DomainReport(
        center_min_eigenvalue=center_lmin,
        center_member=center_member,
        predicate=q.predicate,
        samples=samples,
        tol=tolerance(),
    )


def _candidates(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n random states: uniform in the Bloch ball for qubits, Wishart else."""
    if d == 2:
        r = rng.standard_normal((n, 3))
        r *= (rng.random(n) ** (1 / 3) / np.linalg.norm(r, axis=1))[:, None]
        return states.from_bloch_batch(r)
    return np.stack([states.random_density(d, rng) for _ in range(n)])


def _random_members(q: DomainQuery, n: int, rng: np.random.Generator) -> np.ndarray:
    """n domain members by rejection, in rounds of n candidates."""
    found = np.empty((0, q.d_s, q.d_s), dtype=complex)
    for _ in range(MEMBER_TRIES):
        if len(found) >= n:
            break
        rhos = _candidates(q.d_s, n, rng)
        found = np.concatenate([found, rhos[matcore.psd_verdict_batch(q.image_batch(rhos))[0]]])
    if len(found) < n:
        raise RuntimeError("could not sample a domain member; domain may be tiny or empty")
    return found[:n]


def convexity_check(q: DomainQuery, trials: int = 1000, seed: int = 0) -> DomainReport:
    """Midpoints of random member pairs must be members; failures indicate an
    implementation bug, not interesting geometry (the domain is a PSD-cone
    preimage intersected with state space, hence convex)."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    rng = np.random.default_rng(seed)
    members = _random_members(q, 2 * trials, rng)
    mids = (members[:trials] + members[trials:]) / 2.0
    failures = int((~matcore.psd_verdict_batch(q.image_batch(mids))[0]).sum())
    member, lmin = membership(q, np.eye(q.d_s, dtype=complex) / q.d_s)
    return DomainReport(
        center_min_eigenvalue=lmin,
        center_member=member,
        predicate=q.predicate,
        samples=np.empty((0, 4)),
        convexity_trials=trials,
        convexity_failures=failures,
        seed=seed,
        tol=tolerance(),
    )


def report_to_json(rep: DomainReport) -> dict:
    return {
        "predicate": rep.predicate,
        "center": {
            "min_eigenvalue": rep.center_min_eigenvalue,
            "member": rep.center_member,
        },
        "samples": [
            {"rx": float(r[0]), "ry": float(r[1]), "rz": float(r[2]),
             "lmin": float(r[3])}
            for r in rep.samples
        ],
        "radii": [
            {"direction": list(map(float, d)), "radius": float(r)}
            for d, r in rep.radii
        ],
        "convexity": {
            "trials": rep.convexity_trials,
            "failures": rep.convexity_failures,
        },
        "seed": rep.seed,
        "tol": rep.tol,
    }


def report_to_csv(rep: DomainReport) -> str:
    """Plot-ready CSV with header rx,ry,rz,lmin."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["rx", "ry", "rz", "lmin"])
    for r in rep.samples:
        writer.writerow([f"{r[0]:.12g}", f"{r[1]:.12g}", f"{r[2]:.12g}", f"{r[3]:.12g}"])
    return buf.getvalue()
