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


class TestConvexity:
    @pytest.mark.parametrize("query_factory", [phi_query, lambda_query])
    def test_no_failures(self, query_factory):
        rep = convexity_check(query_factory(), trials=200, seed=0)
        assert rep.convexity_failures == 0
        assert rep.convexity_trials == 200

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
