"""Compatibility-domain geometry.

The compatibility domain of an assignment map Phi is the set of system
states with Phi(rho) >= 0; the Lambda-level variant asks instead for
tr_R(U Phi(rho) U^dag) >= 0. Both predicates are offered and never
conflated: Phi-membership implies Lambda-membership, the converse is
checked per case, not assumed.

Geometry (boundary radii, landscapes) is qubit-only: the Bloch ball is the
one canonical chart of a state space we have. Higher dimensions still get
membership and convexity checks.

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
from .config import tolerance
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

BISECT_TOL = 1e-8  # radius resolution of boundary_radius
MEMBER_TRIES = 1000  # rejection-sampling draws per convexity_check member


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

    The minimum eigenvalue of an affine Hermitian family is concave, so
    membership along a ray from an interior point is an interval and
    bisection is exact. Requires the maximally mixed state to be a member.
    """
    if q.d_s != 2:
        raise ValueError("boundary_radius is defined for qubit subjects only")
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    member, lmin = membership(q, states.I2 / 2.0)
    if not member:
        raise ValueError(
            f"center I/2 is outside the domain (lmin {lmin:.3g}): empty interior"
        )

    def inside(r: float) -> bool:
        return membership(q, states.from_bloch(r * direction))[0]

    if inside(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > BISECT_TOL:
        mid = (lo + hi) / 2.0
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo


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
    rhos = np.stack([states.from_bloch(r) for r in points])
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


def _random_member(q: DomainQuery, rng: np.random.Generator) -> np.ndarray:
    d = q.d_s
    for _ in range(MEMBER_TRIES):
        if d == 2:
            r = rng.standard_normal(3)
            r *= rng.random() ** (1 / 3) / np.linalg.norm(r)
            rho = states.from_bloch(r)
        else:
            rho = states.random_density(d, rng)
        if membership(q, rho)[0]:
            return rho
    raise RuntimeError("could not sample a domain member; domain may be tiny or empty")


def convexity_check(q: DomainQuery, trials: int = 1000, seed: int = 0) -> DomainReport:
    """Midpoints of random member pairs must be members; failures indicate an
    implementation bug, not interesting geometry (the domain is a PSD-cone
    preimage intersected with state space, hence convex)."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        a = _random_member(q, rng)
        b = _random_member(q, rng)
        mid = (a + b) / 2.0
        if not membership(q, mid)[0]:
            failures += 1
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
