import numpy as np
import pytest

from qdynmaps import matcore, states
from qdynmaps.compatdomain import (
    DomainQuery,
    boundary_radius,
    convexity_check,
    landscape,
    membership,
    report_to_csv,
    report_to_json,
)
from qdynmaps.matcore import kron, min_eig
from qdynmaps.opendyn import (
    AffineAssignment,
    ProductAssignment,
    ReducedDynamics,
    assign,
    correlated_assignment,
)
from qdynmaps.states import I2, SIGMA_Z, from_bloch

CNOT_R_CONTROLS_S = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


BISECT_TOL = 1e-8  # resolution of the reference bisection


def bisect_radius(q, direction):
    """Reference exit radius by bisection on membership: the minimum
    eigenvalue of an affine Hermitian family is concave, so membership along
    a ray from an interior point is an interval."""
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)

    def inside(r):
        return membership(q, from_bloch(r * direction))[0]

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


def phi_query(c=0.5):
    return DomainQuery(phi=correlated_assignment(c), predicate="phi")


def lambda_query(c=0.5):
    phi = correlated_assignment(c)
    rd = ReducedDynamics(phi=phi, generator=("unitary", CNOT_R_CONTROLS_S))
    return DomainQuery(phi=phi, predicate="lambda", rd=rd, t=1.0)


class TestMembership:
    def test_center_member(self):
        member, lmin = membership(phi_query(), I2 / 2)
        assert member
        assert abs(lmin - 0.125) < 1e-12

    def test_pole_excluded(self):
        member, lmin = membership(phi_query(), from_bloch((0, 0, 1)))
        assert not member
        assert abs(lmin + 0.125) < 1e-12

    def test_product_domain_is_everything(self):
        rng = np.random.default_rng(0)
        q = DomainQuery(phi=ProductAssignment(rho_r=I2 / 2, d_s=2))
        for _ in range(50):
            assert membership(q, states.random_density(2, rng))[0]

    def test_reduced_dynamics_on_another_assignment_rejected(self):
        rd = ReducedDynamics(phi=ProductAssignment(rho_r=I2 / 2, d_s=2),
                             generator=("unitary", CNOT_R_CONTROLS_S))
        with pytest.raises(ValueError, match="different assignment"):
            DomainQuery(phi=correlated_assignment(0.9), predicate="lambda", rd=rd, t=1.0)

    def test_phi_membership_implies_lambda_membership(self):
        rng = np.random.default_rng(1)
        qp, ql = phi_query(), lambda_query()
        for _ in range(200):
            r = rng.standard_normal(3)
            r *= rng.random() ** (1 / 3) / np.linalg.norm(r)
            rho = from_bloch(r)
            if membership(qp, rho)[0]:
                assert membership(ql, rho)[0]


class TestBoundaryRadius:
    def test_correlated_z_and_x(self):
        q = phi_query(0.5)
        assert abs(boundary_radius(q, (0, 0, 1)) - 0.5) < 1e-6
        assert abs(boundary_radius(q, (1, 0, 0)) - np.sqrt(3) / 2) < 1e-6

    def test_symmetry_of_axial_family(self):
        q = phi_query(0.5)
        assert abs(boundary_radius(q, (0, 0, 1)) - boundary_radius(q, (0, 0, -1))) < 1e-8
        assert abs(boundary_radius(q, (1, 0, 0)) - boundary_radius(q, (-1, 0, 0))) < 1e-8

    def test_product_full_ball(self):
        q = DomainQuery(phi=ProductAssignment(rho_r=from_bloch((0.1, 0.0, 0.3)), d_s=2))
        for d in ((0, 0, 1), (1, 0, 0), (0.6, -0.8, 0.0)):
            assert abs(boundary_radius(q, d) - 1.0) < 1e-8

    def test_zero_correlation_full_ball(self):
        q = phi_query(0.0)
        assert abs(boundary_radius(q, (0, 0, 1)) - 1.0) < 1e-8

    def test_exact_radius_against_bisection(self):
        # r_phi <= r_lambda ray by ray: Lambda_t = tr_R Ad_U Phi is CP on
        # Phi's domain (Jordan, Shaji & Sudarshan, PRA 70, 052110, 2004)
        rng = np.random.default_rng(11)
        cs = [1.0, -1.0, 0.999, -0.995, 0.99] + list(rng.uniform(-1.0, 1.0, 15))
        checked = 0
        for c in cs:
            phi = correlated_assignment(float(c))
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rd = ReducedDynamics(phi=phi, generator=("hamiltonian", (g + g.conj().T) / 2))
            qp = DomainQuery(phi=phi, predicate="phi")
            ql = DomainQuery(phi=phi, predicate="lambda", rd=rd, t=float(rng.uniform(0.05, 2.0)))
            for n in rng.standard_normal((6, 3)):
                n = n / np.linalg.norm(n)
                radii = {}
                for q in (qp, ql):
                    r = boundary_radius(q, n)
                    assert abs(r - bisect_radius(q, n)) <= 1e-8
                    assert membership(q, from_bloch(r * n))[0]
                    if r < 1.0:
                        assert not membership(q, from_bloch(min(1.0, r + 1e-7) * n))[0]
                    radii[q.predicate] = r
                    checked += 1
                assert radii["phi"] <= radii["lambda"] + 1e-8
        assert checked == 240

    def test_empty_interior_rejected(self):
        base = ProductAssignment(rho_r=I2 / 2, d_s=2)
        phi = AffineAssignment(
            linear=base.linear,
            constant=0.6 * kron(SIGMA_Z, SIGMA_Z),
            d_s=2,
            d_r=2,
        )
        q = DomainQuery(phi=phi)
        with pytest.raises(ValueError, match="empty interior"):
            boundary_radius(q, (0, 0, 1))


class TestLandscape:
    def test_axial_symmetry(self):
        # lmin depends on r only through (r_z, |r_perp|)
        q = phi_query(0.5)
        rng = np.random.default_rng(2)
        for _ in range(50):
            rz = rng.uniform(-0.9, 0.9)
            rp = rng.uniform(0, np.sqrt(max(0.0, 0.99 - rz * rz)))
            a1, a2 = rng.uniform(0, 2 * np.pi, 2)
            l1 = min_eig(q.image(from_bloch((rp * np.cos(a1), rp * np.sin(a1), rz))))
            l2 = min_eig(q.image(from_bloch((rp * np.cos(a2), rp * np.sin(a2), rz))))
            assert abs(l1 - l2) < 1e-12

    def test_product_landscape_nonnegative(self):
        q = DomainQuery(phi=ProductAssignment(rho_r=I2 / 2, d_s=2))
        rep = landscape(q, resolution=1)
        assert (rep.samples[:, 3] >= -1e-12).all()

    def test_center_zero_at_full_correlation(self):
        rep = landscape(phi_query(1.0), resolution=1)
        assert abs(rep.center_min_eigenvalue) < 1e-12
        assert rep.center_member

    def test_center_reported_first(self):
        rep = landscape(phi_query(0.5), resolution=1)
        assert np.allclose(rep.samples[0, :3], 0.0)
        assert abs(rep.samples[0, 3] - 0.125) < 1e-12

    def test_landscape_membership_agreement(self):
        q = phi_query(0.5)
        rep = landscape(q, resolution=1)
        tol = rep.tol
        for row in rep.samples[::37]:
            member, _ = membership(q, from_bloch(row[:3]))
            if row[3] >= tol:
                assert member


@pytest.mark.parametrize("query_factory", [phi_query, lambda_query])
def test_empty_image_batch(query_factory):
    q = query_factory()
    d_out = 4 if q.predicate == "phi" else 2  # the image lives on S (x) R, or on S
    assert q.image_batch(np.empty((0, 2, 2), dtype=complex)).shape == (0, d_out, d_out)


class TestConvexity:
    @pytest.mark.parametrize("query_factory", [phi_query, lambda_query])
    def test_no_failures(self, query_factory):
        rep = convexity_check(query_factory(), trials=200, seed=0)
        assert rep.convexity_failures == 0
        assert rep.convexity_trials == 200

    @pytest.mark.parametrize("seed", range(20))
    def test_sampler_survives_small_domain(self, seed):
        # about 0.36% of the Bloch ball is in the domain at c = 0.95
        rep = convexity_check(phi_query(0.95), trials=25, seed=seed)
        assert rep.convexity_failures == 0
        assert rep.convexity_trials == 25

    @pytest.mark.parametrize("query_factory", [phi_query, lambda_query])
    def test_zero_trials(self, query_factory):
        rep = convexity_check(query_factory(), trials=0)
        assert rep.convexity_trials == 0 and rep.convexity_failures == 0
        assert rep.center_member

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            convexity_check(phi_query(), trials=-1)

    def test_min_eig_concavity_along_segments(self):
        q = phi_query(0.5)
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = states.random_density(2, rng)
            b = states.random_density(2, rng)
            la = min_eig(q.image(a))
            lb = min_eig(q.image(b))
            lm = min_eig(q.image((a + b) / 2))
            assert lm >= (la + lb) / 2 - 1e-12


class TestReports:
    def test_csv_header_and_shape(self):
        rep = landscape(phi_query(0.5), resolution=1)
        text = report_to_csv(rep)
        lines = text.strip().splitlines()
        assert lines[0] == "rx,ry,rz,lmin"
        assert len(lines) == len(rep.samples) + 1

    def test_json_fields(self):
        rep = landscape(phi_query(0.5), resolution=1)
        obj = report_to_json(rep)
        assert obj["center"]["member"] is True
        assert len(obj["samples"]) == len(rep.samples)
        assert {"rx", "ry", "rz", "lmin"} <= set(obj["samples"][0])
