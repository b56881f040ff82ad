import numpy as np
import pytest
import scipy.linalg

from descent_reference import ref_minimize_output_min_eig
from qdynmaps import channels, compatdomain, matcore, opendyn, states
from qdynmaps.channels import Superoperator, unvec, vec
from qdynmaps.matcore import kron, partial_trace, trace_norm
from qdynmaps.opendyn import (
    AffineAssignment,
    ProductAssignment,
    ReducedDynamics,
    TabulatedAssignment,
    assign,
    assignment_from_json,
    assignment_to_json,
    check_consistency,
    check_linearity,
    correlated_assignment,
    dephasing_assignment,
    extend_linearly,
    inconsistency_analysis,
    pechukas_report,
    pechukas_witness,
    reduced_map,
)
from qdynmaps.states import I2, SIGMA_X, SIGMA_Z, from_bloch

# CNOT with the reservoir qubit controlling the system qubit (S (x) R order)
CNOT_R_CONTROLS_S = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


def four_state_table(reservoirs=None):
    x_plus, x_minus = from_bloch((1, 0, 0)), from_bloch((-1, 0, 0))
    z_plus, z_minus = from_bloch((0, 0, 1)), from_bloch((0, 0, -1))
    if reservoirs is None:
        reservoirs = (
            states.projector(states.ket(0, 2)),
            states.projector(states.ket(1, 2)),
            I2 / 2,
            I2 / 2,
        )
    sys_states = (x_plus, x_minus, z_plus, z_minus)
    return TabulatedAssignment(
        pairs=tuple((s, kron(s, r)) for s, r in zip(sys_states, reservoirs)),
        d_s=2,
        d_r=2,
    )


def random_consistent_map(rng, d_s, d_r, kind, scale):
    """rho -> rho (x) tau plus a term of vanishing reservoir trace, with largest
    entry ``scale``: tr(rho) K for kind "constant", a random Hermiticity-
    preserving linear map for kind "linear"."""
    n = d_s * d_r

    def herm(m):
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        return (g + g.conj().T) / 2

    def drop_marginal(x):
        return x - kron(partial_trace(x, (d_s, d_r)), np.eye(d_r) / d_r)

    base = ProductAssignment(rho_r=states.random_density(d_r, rng), d_s=d_s)
    if kind == "constant":
        k = drop_marginal(herm(n))
        return AffineAssignment(linear=base.linear, constant=scale * k / np.abs(k).max(),
                                d_s=d_s, d_r=d_r)
    t = channels.transfer_from_choi(herm(d_s * n), d_s, n).transfer
    delta = np.stack([vec(drop_marginal(unvec(col, n))) for col in t.T], axis=1)
    return AffineAssignment(linear=base.linear + scale * delta / np.abs(delta).max(),
                            constant=np.zeros((n, n)), d_s=d_s, d_r=d_r)


def random_consistent_affine(rng, target_center_margin=0.01):
    """Non-product consistent affine qubit-qubit assignment: product part plus
    a correlation term with vanishing reservoir trace, scaled so I/2 stays
    comfortably inside the PSD cone."""
    # keep the reservoir state away from the cone boundary so the shrinking
    # loop below terminates
    tau = 0.7 * states.random_density(2, rng) + 0.3 * I2 / 2
    base = ProductAssignment(rho_r=tau, d_s=2)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g = (g + g.conj().T) / 2
    k = g - kron(partial_trace(g, (2, 2)), I2 / 2)  # now tr_R k = 0
    k *= 0.5 / max(trace_norm(k), 1e-12)
    while True:
        phi = AffineAssignment(linear=base.linear, constant=k, d_s=2, d_r=2)
        if matcore.min_eig(assign(phi, I2 / 2)) >= target_center_margin:
            return phi
        k = k * 0.7


class TestAssign:
    def test_product_always_psd(self):
        rng = np.random.default_rng(0)
        phi = ProductAssignment(rho_r=states.random_density(2, rng), d_s=2)
        for _ in range(20):
            joint = assign(phi, states.random_density(2, rng))
            assert states.validate(joint).verdict == "valid"

    def test_correlated_on_maximally_mixed(self):
        phi = correlated_assignment(0.5)
        eigs = matcore.herm_eig(assign(phi, I2 / 2)).eigenvalues
        assert np.allclose(np.sort(eigs), [0.125, 0.125, 0.375, 0.375], atol=1e-12)

    def test_correlated_on_pole_not_psd(self):
        phi = correlated_assignment(0.5)
        eigs = matcore.herm_eig(assign(phi, from_bloch((0, 0, 1)))).eigenvalues
        assert np.allclose(np.sort(eigs), [-0.125, 0.125, 0.375, 0.625], atol=1e-12)
        assert states.validate(assign(phi, from_bloch((0, 0, 1)))).verdict == "negative"

    def test_tabulated_miss_raises(self):
        tab = four_state_table()
        with pytest.raises(KeyError):
            assign(tab, I2 / 2)

    def test_unit_trace_and_hermitian(self):
        phi = correlated_assignment(0.9)
        joint = assign(phi, from_bloch((0.2, -0.3, 0.4)))
        assert abs(np.trace(joint) - 1.0) < 1e-12
        assert matcore.is_hermitian(joint)

    def test_non_square_reservoir_rejected(self):
        with pytest.raises(ValueError, match="square"):
            ProductAssignment(rho_r=np.ones((2, 3)), d_s=2)

    def test_mismatched_affine_shapes_rejected(self):
        with pytest.raises(ValueError, match="do not match"):
            AffineAssignment(linear=np.zeros((16, 3)), constant=np.zeros((4, 4)), d_s=2, d_r=2)
        with pytest.raises(ValueError, match="do not match"):
            AffineAssignment(linear=np.zeros((16, 4)), constant=np.zeros((2, 8)), d_s=2, d_r=2)


class TestApplyPath:
    """Every map, assignments and non-square Superoperators alike, is applied
    as unvec(transfer @ vec(m)); an assignment also as L vec(rho) + tr(rho) K."""

    @pytest.mark.parametrize("d_r", [2, 3])
    @pytest.mark.parametrize("d_s", [2, 3])
    def test_matches_affine_formula(self, d_s, d_r):
        rng = np.random.default_rng(10 * d_s + d_r)
        n = d_s * d_r
        tau = states.random_density(d_r, rng)
        lin = rng.standard_normal((n * n, d_s * d_s)) + 1j * rng.standard_normal((n * n, d_s * d_s))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        k = (g + g.conj().T) / 2
        prod = ProductAssignment(rho_r=tau, d_s=d_s)
        rhos = np.stack([states.random_density(d_s, rng) for _ in range(10)])
        rhos[::2] *= 2.5  # tr(rho) != 1 scales the constant
        t = rng.standard_normal((n * n, d_s * d_s)) + 1j * rng.standard_normal((n * n, d_s * d_s))
        for phi in (prod, dephasing_assignment(tau, d_s=d_s),
                    AffineAssignment(linear=lin, constant=k, d_s=d_s, d_r=d_r),
                    Superoperator(dim_in=d_s, dim_out=n, transfer=t)):
            batch = phi.apply_batch(rhos)
            for rho, out in zip(rhos, batch):
                ref = unvec(phi.transfer @ vec(rho), n)
                assert np.abs(out - ref).max() <= 1e-14
                assert np.abs(phi(rho) - ref).max() <= 1e-14
                if isinstance(phi, AffineAssignment):
                    affine = unvec(phi.linear @ vec(rho), n) + np.trace(rho) * phi.constant
                    assert np.abs(out - affine).max() <= 1e-14
                if phi is prod:
                    assert np.abs(out - kron(rho, tau)).max() <= 1e-14


class TestAssignmentIsSuperoperator:
    def test_assignments_are_superoperators(self):
        phi = correlated_assignment(0.5)
        assert isinstance(phi, Superoperator)
        assert (phi.dim_in, phi.dim_out) == (2, 4)

    def test_cp_verdicts(self):
        rng = np.random.default_rng(11)
        assert channels.is_cp(ProductAssignment(rho_r=states.random_density(3, rng))).is_cp
        for c in (-1.0, -0.3, 0.5, 1.0):
            assert not channels.is_cp(correlated_assignment(c)).is_cp

    @pytest.mark.parametrize("c", [-0.75, 0.5, 1.0])
    def test_positivity_search_is_the_pechukas_search(self, c):
        # the Pechukas value is exact and never above the positivity search's
        phi = correlated_assignment(c)
        rep = channels.is_positive_map(phi)
        assert rep.is_positive == "certified-violation"
        value = pechukas_witness(phi)[1]
        assert abs(value - (-abs(c) / 4)) <= 1e-15
        assert value <= rep.witness_min_eigenvalue + 1e-12


class TestConsistency:
    def probes(self, rng, n=20):
        return [states.random_density(2, rng) for _ in range(n)]

    def test_product_consistent(self):
        rng = np.random.default_rng(1)
        phi = ProductAssignment(rho_r=states.random_density(2, rng), d_s=2)
        assert check_consistency(phi, self.probes(rng)).max_residual < 1e-12

    def test_correlated_consistent_any_c(self):
        rng = np.random.default_rng(2)
        for c in (-1.0, -0.3, 0.5, 1.0):
            phi = correlated_assignment(c)
            assert check_consistency(phi, self.probes(rng)).max_residual < 1e-12

    def test_dephasing_inconsistent(self):
        phi = dephasing_assignment(I2 / 2)
        rho = from_bloch((1, 0, 0))
        rep = check_consistency(phi, [rho])
        assert abs(rep.max_residual - trace_norm(rho - np.diag(np.diag(rho)))) < 1e-12
        assert not rep.consistent

    def test_exact_residuals_pinned(self):
        rng = np.random.default_rng(1)
        tau = states.random_density(2, rng)
        # tr(tau) = 1 up to rounding
        assert pechukas_report(ProductAssignment(rho_r=tau, d_s=2)).consistency_residual <= 1e-15
        assert pechukas_report(ProductAssignment(rho_r=I2 / 2, d_s=2)).consistency_residual == 0.0
        for c in (-1.0, -0.3, 0.5, 1.0):
            rep = pechukas_report(correlated_assignment(c))
            assert rep.consistency_residual == 0.0 and rep.consistent
        # the off-diagonal matrix units lose their whole image
        rep = pechukas_report(dephasing_assignment(tau))
        assert rep.consistency_residual == 1.0 and rep.verdict == "inconsistent"


class TestLinearity:
    def test_product_and_affine_linear(self):
        rng = np.random.default_rng(3)
        probes = [
            (states.random_density(2, rng), states.random_density(2, rng), rng.random())
            for _ in range(20)
        ]
        for phi in (ProductAssignment(rho_r=I2 / 2, d_s=2), correlated_assignment(0.7)):
            assert check_linearity(phi, probes).max_residual < 1e-10

    def test_tabulated_mixture_outside_table_is_undefined(self):
        tab = four_state_table()
        x_plus, x_minus = tab.pairs[0][0], tab.pairs[1][0]
        rep = check_linearity(tab, [(x_plus, x_minus, 0.5)])
        assert rep.undefined_probes == 1
        assert rep.max_residual == 0.0


class TestReducedMap:
    def test_product_assignment_always_cp(self):
        rng = np.random.default_rng(4)
        phi = ProductAssignment(rho_r=states.random_density(2, rng), d_s=2)
        for _ in range(10):
            u = channels.random_unitary(4, rng)
            lam = reduced_map(ReducedDynamics(phi=phi, generator=("unitary", u)), 1.0)
            rep = channels.is_cp(lam)
            assert rep.is_cp
            assert lam.is_trace_preserving(1e-9)

    def test_correlated_cnot_is_ncp(self):
        # min Choi eigenvalue (2 - sqrt 5)/4, frozen from a brute-force
        # basis-application oracle run before this module existed
        phi = correlated_assignment(0.5)
        rd = ReducedDynamics(phi=phi, generator=("unitary", CNOT_R_CONTROLS_S))
        rep = channels.is_cp(reduced_map(rd, 1.0))
        assert not rep.is_cp
        assert abs(rep.min_choi_eigenvalue - (2 - np.sqrt(5)) / 4) < 1e-10

    def test_time_zero_identity_for_consistent_phi(self):
        h = kron(SIGMA_Z, SIGMA_X)
        for phi in (ProductAssignment(rho_r=I2 / 2, d_s=2), correlated_assignment(0.4)):
            lam = reduced_map(ReducedDynamics(phi=phi, generator=("hamiltonian", h)), 0.0)
            assert np.abs(lam.transfer - np.eye(4)).max() < 1e-10

    def test_composition_consistency(self):
        # the linear-extension transfer agrees with the direct formula
        rng = np.random.default_rng(5)
        phi = correlated_assignment(0.3)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (h + h.conj().T) / 2
        rd = ReducedDynamics(phi=phi, generator=("hamiltonian", h))
        t = 0.8
        lam = reduced_map(rd, t)
        u = rd.unitary_at(t)
        for _ in range(20):
            rho = states.random_density(2, rng)
            direct = partial_trace(u @ assign(phi, rho) @ u.conj().T, (2, 2))
            assert np.abs(lam.apply(rho) - direct).max() < 1e-10

    def test_tabulated_rejected(self):
        with pytest.raises(TypeError):
            reduced_map(
                ReducedDynamics(phi=four_state_table(), generator=("unitary", np.eye(4, dtype=complex))),
                0.0,
            )

    def test_non_unitary_generator_rejected(self):
        with pytest.raises(ValueError):
            ReducedDynamics(
                phi=ProductAssignment(rho_r=I2 / 2, d_s=2),
                generator=("unitary", np.eye(4, dtype=complex) * 1.5),
            )


class TestExtendLinearly:
    def test_four_state_conflict(self):
        result = extend_linearly(four_state_table())
        assert result.outcome == "conflict"
        conf = result.conflict
        assert trace_norm(conf.recombined_a - I2 / 2) < 1e-12
        assert trace_norm(conf.recombined_b - I2 / 2) < 1e-12
        assert abs(conf.image_gap - 1.0) < 1e-9
        # the two images are exactly the two sides of the forced equality
        assert trace_norm(conf.image_a - conf.image_b) > 1e-6

    def test_common_reservoir_gives_product(self):
        tau = from_bloch((0.3, -0.1, 0.2))
        result = extend_linearly(four_state_table(reservoirs=(tau,) * 4))
        assert result.outcome == "extension"
        assert isinstance(result.extension, ProductAssignment)
        assert matcore.mat_close(result.extension.rho_r, tau, 1e-10)

    def test_affinely_independent_table_extends(self):
        rng = np.random.default_rng(6)
        sys_states = [from_bloch(v) for v in ((1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 1, 0))]
        reservoirs = [states.random_density(2, rng) for _ in range(4)]
        tab = TabulatedAssignment(
            pairs=tuple((s, kron(s, r)) for s, r in zip(sys_states, reservoirs)),
            d_s=2,
            d_r=2,
        )
        result = extend_linearly(tab)
        assert result.outcome == "extension"
        for s, r in zip(sys_states, reservoirs):
            assert np.abs(assign(result.extension, s) - kron(s, r)).max() < 1e-10

    def test_extension_reproduces_all_pairs(self):
        rng = np.random.default_rng(7)
        phi_src = correlated_assignment(0.2)
        sys_states = [states.random_density(2, rng) for _ in range(6)]
        tab = TabulatedAssignment(
            pairs=tuple((s, assign(phi_src, s)) for s in sys_states), d_s=2, d_r=2
        )
        result = extend_linearly(tab)
        assert result.outcome == "extension"
        for s, img in tab.pairs:
            assert np.abs(assign(result.extension, s) - img).max() < 1e-10


class TestPechukasWitness:
    def test_correlated_half(self):
        witness, lmin = pechukas_witness(correlated_assignment(0.5), budget=2000)
        assert witness is not None
        assert abs(lmin + 0.125) < 1e-3
        r = states.to_bloch(witness)
        assert np.linalg.norm(r) >= 0.99 and abs(r[2]) >= 0.99

    def test_correlated_full(self):
        witness, lmin = pechukas_witness(correlated_assignment(1.0), budget=2000)
        assert witness is not None
        assert abs(lmin + 0.25) < 1e-3
        # the center stays PSD even at c = 1
        eigs = matcore.herm_eig(assign(correlated_assignment(1.0), I2 / 2)).eigenvalues
        assert np.allclose(np.sort(eigs), [0, 0, 0.5, 0.5], atol=1e-12)

    def test_product_finds_nothing(self):
        witness, _ = pechukas_witness(ProductAssignment(rho_r=I2 / 2, d_s=2), budget=2000)
        assert witness is None

    def test_random_nonproduct_always_witnessed(self):
        rng = np.random.default_rng(8)
        for i in range(10):
            phi = random_consistent_affine(rng)
            witness, lmin = pechukas_witness(phi, budget=2000, seed=i)
            assert witness is not None, f"run {i}: no witness, best lmin {lmin}"

    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            pechukas_witness(dephasing_assignment(I2 / 2))

    def test_table_rejected_up_front(self):
        with pytest.raises(TypeError, match="extend_linearly"):
            pechukas_witness(four_state_table())
        with pytest.raises(TypeError, match="extend_linearly"):
            pechukas_report(four_state_table())

    def test_product_decided_without_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("a product map ran a search")

        monkeypatch.setattr(opendyn, "minimize_output_min_eig", no_search)
        rng = np.random.default_rng(9)
        for d_s, d_r in ((2, 2), (2, 3), (3, 2)):
            phi = ProductAssignment(rho_r=states.random_density(d_r, rng), d_s=d_s)
            assert pechukas_report(phi).verdict == "product"
            assert pechukas_witness(phi) == (None, 0.0)
        # a product with a non-PSD reservoir matrix is not positive: any pure state
        bad = np.diag([1.25, -0.25]).astype(complex)
        witness, value = pechukas_witness(ProductAssignment(rho_r=bad, d_s=2))
        assert value == -0.25
        assert matcore.min_eig(assign(ProductAssignment(rho_r=bad, d_s=2), witness)) == -0.25

    def test_nonproduct_qubit_search_runs_through_channels(self, monkeypatch):
        assert opendyn.minimize_output_min_eig is channels.minimize_output_min_eig
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return channels.minimize_output_min_eig(*args, **kwargs)

        monkeypatch.setattr(opendyn, "minimize_output_min_eig", spy)
        witness, value = pechukas_witness(correlated_assignment(0.5), budget=2000, seed=3)
        assert witness is not None and abs(value + 0.125) <= 1e-12
        assert len(calls) == 1 and calls[0][1] == opendyn.PECHUKAS_GRID

    @pytest.mark.parametrize("c, verdict, witnessed", [
        (1e-12, "product", False),  # deviation 2.5e-13 <= tol
        (1e-8, "non-product", False),  # value -2.5e-9 above the witness margin -1e-8
        (1e-6, "non-product", True),  # deviation 2.5e-7: a tol-scale threshold keeps it
    ])
    def test_product_threshold_at_tolerance_scale(self, c, verdict, witnessed):
        phi = correlated_assignment(c)
        assert pechukas_report(phi).verdict == verdict
        witness, value = pechukas_witness(phi)
        assert (witness is not None) == witnessed
        # a product verdict reports 0.0, within the threshold of -c/4
        assert abs(value + c / 4) <= (1e-15 if verdict == "non-product" else 1e-12)

    def test_qutrit_system_keeps_the_search(self):
        rng = np.random.default_rng(10)
        phi = random_consistent_map(rng, 3, 2, "constant", 0.2)
        assert pechukas_report(phi).verdict == "non-product"
        value, vec, samples = channels.minimize_output_min_eig(
            phi, budget=500, seed=4, starts=channels._choi_seeds(phi, 1))
        witness, got = pechukas_witness(phi, budget=500, seed=4)
        assert got == value and witness is not None
        assert np.array_equal(witness, states.projector(vec))

    @pytest.mark.parametrize("d_r", [2, 3])
    @pytest.mark.parametrize("kind", ["constant", "linear"])
    def test_qutrit_search_is_seeded_from_the_choi_spectrum(self, d_r, kind):
        # budget=0 has no grid: the Choi seeds alone start the search
        phi = random_consistent_map(np.random.default_rng(20 + d_r), 3, d_r, kind, 0.2)
        assert pechukas_report(phi).verdict == "non-product"
        witness, value = pechukas_witness(phi, budget=0)
        assert witness is not None
        assert abs(matcore.min_eig(assign(phi, witness)) - value) <= 1e-12
        assert value <= pechukas_witness(phi, budget=2000)[1] + 1e-9

    @pytest.mark.parametrize("d_r", [2, 3])
    @pytest.mark.parametrize("kind", ["constant", "linear"])
    def test_decided_verdict_agrees_with_the_search(self, d_r, kind):
        # the seeded grid-and-descent search over pure states, as it ran
        # before the verdict was decided, is the reference
        rng = np.random.default_rng(100 * d_r + len(kind))
        for i, scale in enumerate(np.linspace(0.0, 0.3, 24)):
            phi = random_consistent_map(rng, 2, d_r, kind, scale)
            rep = pechukas_report(phi)
            assert rep.verdict == ("product" if scale == 0.0 else "non-product")
            witness, value = pechukas_witness(phi, seed=i)
            old_val, old_vec, samples = ref_minimize_output_min_eig(phi.apply_batch, 2, seed=i)
            old = channels.certify_violation(phi, old_val, old_vec, samples)
            if old.is_positive == "certified-violation":
                assert rep.verdict == "non-product" and witness is not None
            assert value <= old_val + 1e-9
            if witness is not None:
                assert abs(matcore.min_eig(assign(phi, witness)) - value) <= 1e-12


class TestInconsistencyAnalysis:
    def test_consistent_trajectory_is_exact(self):
        phi = correlated_assignment(0.3)
        rho = from_bloch((0.2, 0.1, -0.4))
        rep = inconsistency_analysis(
            phi,
            assign(phi, rho),
            ("hamiltonian", kron(SIGMA_Z, SIGMA_X)),
            np.linspace(0, 2, 9),
        )
        assert rep.fixed_point_offset < 1e-12
        assert rep.deviation.max() < 1e-10

    def test_dephasing_offset_one(self):
        phi = dephasing_assignment(I2 / 2)
        x_plus = from_bloch((1, 0, 0))
        rep = inconsistency_analysis(
            phi,
            kron(x_plus, I2 / 2),
            ("hamiltonian", kron(SIGMA_Z, SIGMA_X)),
            np.linspace(0, 2, 9),
        )
        assert abs(rep.fixed_point_offset - 1.0) < 1e-9
        assert abs(rep.deviation[0] - rep.fixed_point_offset) < 1e-9
        assert (rep.deviation >= -1e-15).all()

    def test_weak_coupling_proxy_stays_exact_for_axial_hamiltonian(self):
        # oracle sweep: for H = sigma_z (x) sigma_x the correlated correction
        # keeps vanishing reservoir trace at all times, so delta(t) == 0
        phi_true = correlated_assignment(0.1)
        proxy = ProductAssignment(rho_r=I2 / 2, d_s=2)
        rho = from_bloch((0.3, 0.2, 0.5))
        rep = inconsistency_analysis(
            proxy,
            assign(phi_true, rho),
            ("hamiltonian", kron(SIGMA_Z, SIGMA_X)),
            np.linspace(0, 2, 41),
        )
        assert rep.deviation.max() < 1e-12

    def test_deviation_matches_expm_oracle(self):
        # independent route: scipy expm instead of the eigendecomposition path
        phi_true = correlated_assignment(0.4)
        proxy = ProductAssignment(rho_r=I2 / 2, d_s=2)
        rho = from_bloch((0.5, 0.0, 0.2))
        # sigma_x (x) sigma_z rotates the Z(x)Z correction into the marginal
        h = kron(SIGMA_X, SIGMA_Z)
        times = np.linspace(0, 2, 11)
        rep = inconsistency_analysis(proxy, assign(phi_true, rho), ("hamiltonian", h), times)
        true0 = assign(phi_true, rho)
        proxy0 = assign(proxy, rho)
        for t, dev in zip(times, rep.deviation):
            u = scipy.linalg.expm(-1j * h * t)
            expected = trace_norm(
                partial_trace(u @ true0 @ u.conj().T, (2, 2))
                - partial_trace(u @ proxy0 @ u.conj().T, (2, 2))
            )
            assert abs(dev - expected) < 1e-10
        assert rep.deviation.max() > 1e-3  # this configuration genuinely drifts

    def test_reduced_dynamics_reused_bit_identically(self):
        phi = dephasing_assignment(I2 / 2)
        initial = kron(from_bloch((0.6, 0.1, 0.2)), I2 / 2)
        gen = ("hamiltonian", kron(SIGMA_X, SIGMA_Z) + 0.3 * kron(SIGMA_Z, SIGMA_X))
        times = np.linspace(0, 2, 9)
        rd = ReducedDynamics(phi=phi, generator=gen)
        a = inconsistency_analysis(phi, initial, gen, times)
        b = inconsistency_analysis(phi, initial, rd, times)
        assert a.fixed_point_offset == b.fixed_point_offset
        assert np.array_equal(a.times, b.times) and np.array_equal(a.deviation, b.deviation)
        with pytest.raises(ValueError, match="dimensions"):
            other = ReducedDynamics(phi=ProductAssignment(rho_r=np.eye(3) / 3, d_s=2),
                                    generator=("unitary", np.eye(6)))
            inconsistency_analysis(phi, initial, other, times)

    def test_marginal_mismatch_rejected(self):
        phi = ProductAssignment(rho_r=I2 / 2, d_s=2)
        bad = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex) * 1.5
        with pytest.raises(ValueError):
            inconsistency_analysis(phi, bad, ("hamiltonian", np.zeros((4, 4))), [0.0])


class TestAssignmentJson:
    def test_product_round_trip(self):
        phi = ProductAssignment(rho_r=from_bloch((0.1, 0.2, 0.3)), d_s=2)
        back = assignment_from_json(assignment_to_json(phi))
        assert isinstance(back, ProductAssignment)
        assert matcore.mat_close(back.rho_r, phi.rho_r, 1e-14)

    def test_affine_round_trip(self):
        phi = correlated_assignment(0.6)
        back = assignment_from_json(assignment_to_json(phi))
        rho = from_bloch((0.2, -0.5, 0.1))
        assert matcore.mat_close(assign(back, rho), assign(phi, rho), 1e-14)

    def test_tabulated_round_trip_with_flag(self):
        x_plus = from_bloch((1, 0, 0))
        tab = TabulatedAssignment(
            pairs=((x_plus, kron(np.diag([1.0, 0.0]).astype(complex), I2 / 2)),),
            d_s=2,
            d_r=2,
            inconsistent=True,
        )
        back = assignment_from_json(assignment_to_json(tab))
        assert isinstance(back, TabulatedAssignment)
        assert back.inconsistent

    def test_product_reservoir_must_match_declared_dims(self):
        obj = assignment_to_json(ProductAssignment(rho_r=I2 / 2, d_s=2))
        with pytest.raises(ValueError, match="declared d_r=3"):
            assignment_from_json({**obj, "d_r": 3})
        with pytest.raises(ValueError, match="positive"):
            assignment_from_json({**obj, "d_s": 0})

    @pytest.mark.parametrize("rho_s, rho_sr", [
        (I2 / 2, np.eye(3) / 3),
        (I2 / 2, np.eye(8) / 8),
        (np.eye(3) / 3, np.eye(4) / 4),
    ], ids=["joint-3x3", "joint-8x8", "system-3x3"])
    def test_inconsistent_table_pair_shapes_checked(self, rho_s, rho_sr):
        with pytest.raises(ValueError, match="pair shapes"):
            TabulatedAssignment(pairs=((rho_s, rho_sr),), d_s=2, d_r=2, inconsistent=True)

    def test_inconsistent_table_requires_flag(self):
        x_plus = from_bloch((1, 0, 0))
        with pytest.raises(ValueError, match="consistency"):
            TabulatedAssignment(
                pairs=((x_plus, kron(np.diag([1.0, 0.0]).astype(complex), I2 / 2)),),
                d_s=2,
                d_r=2,
            )


def _extension_conflict():
    return extend_linearly(four_state_table()).conflict


def _landscape():
    return compatdomain.landscape(compatdomain.DomainQuery(phi=correlated_assignment(0.5)))


ARRAY_DATACLASSES = {
    "AffineAssignment": lambda: correlated_assignment(0.5),
    "ProductAssignment": lambda: ProductAssignment(rho_r=I2 / 2, d_s=2),
    "TabulatedAssignment": four_state_table,
    "ReducedDynamics": lambda: ReducedDynamics(
        phi=correlated_assignment(0.5), generator=("unitary", CNOT_R_CONTROLS_S)),
    "ConsistencyReport": lambda: check_consistency(correlated_assignment(0.5), [I2 / 2]),
    "Conflict": _extension_conflict,
    "TrajectoryReport": lambda: inconsistency_analysis(
        dephasing_assignment(I2 / 2), kron(I2 / 2, I2 / 2),
        ("unitary", CNOT_R_CONTROLS_S), [0.0, 1.0]),
    "DomainQuery": lambda: compatdomain.DomainQuery(phi=correlated_assignment(0.5)),
    "DomainReport": _landscape,
    "Superoperator": lambda: channels.identity_superoperator(2),
    "KrausSet": lambda: channels.random_cptp(2, np.random.default_rng(0)),
    "PositivityReport": lambda: channels.is_positive_map(
        channels.identity_superoperator(2), budget=10),
    "HermEig": lambda: matcore.herm_eig(SIGMA_Z),
}


@pytest.mark.parametrize("name", sorted(ARRAY_DATACLASSES))
def test_array_dataclasses_compare_and_hash_by_identity(name):
    a, b = ARRAY_DATACLASSES[name](), ARRAY_DATACLASSES[name]()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert len({a, b, a}) == 2
