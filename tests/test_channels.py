import numpy as np
import pytest

import make_verdict_corpus
from descent_reference import ref_minimize_output_min_eig, ref_seesaw
from qdynmaps import channels, config, matcore, opendyn, states
from qdynmaps.channels import (
    KrausSet,
    Superoperator,
    adjoint_map,
    choi_of,
    extend_with_identity,
    flip_superoperator,
    identity_superoperator,
    is_cp,
    is_n_positive,
    is_positive_map,
    kraus_from_choi,
    random_cptp,
    superoperator_from_json,
    superoperator_to_json,
    transfer_from_choi,
    transfer_from_kraus,
    transpose_superoperator,
    unvec,
    vec,
)
from qdynmaps.matcore import dag
from qdynmaps.states import I2, SIGMA_X, SIGMA_Z, bell_state, singlet

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def scaled_z_map(factor: float) -> Superoperator:
    """Bloch map (x, y, z) -> (x, y, factor*z); trace preserving, not positive
    for factor > 1."""
    t = np.zeros((4, 4), dtype=complex)
    images = {
        (0, 0): (I2 + factor * SIGMA_Z) / 2,
        (1, 1): (I2 - factor * SIGMA_Z) / 2,
        (0, 1): np.array([[0, 1], [0, 0]], dtype=complex),
        (1, 0): np.array([[0, 0], [1, 0]], dtype=complex),
    }
    for (i, j), img in images.items():
        t[:, j * 2 + i] = vec(img)
    return Superoperator(dim_in=2, dim_out=2, transfer=t)


class TestSuperoperator:
    def test_stored_matrices_are_read_only(self):
        transfer = scaled_z_map(1.2).transfer.copy()
        t = Superoperator(dim_in=2, dim_out=2, transfer=transfer)
        for m in (t.transfer, t.action):
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 7.0
        # the caller's array stays writable and is not aliased
        transfer[0, 0] = 7.0
        assert t.transfer[0, 0] == scaled_z_map(1.2).transfer[0, 0]

    def test_empty_batch(self):
        t = Superoperator(dim_in=2, dim_out=3, transfer=np.ones((9, 4)))
        assert t.apply_batch(np.empty((0, 2, 2), dtype=complex)).shape == (0, 3, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_transfer_rejected_at_construction(self, bad):
        transfer = np.eye(4, dtype=complex)
        transfer[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Superoperator(dim_in=2, dim_out=2, transfer=transfer)


class TestTransferFromKraus:
    def test_identity(self):
        t = transfer_from_kraus([np.eye(2, dtype=complex)])
        assert matcore.mat_close(t.transfer, np.eye(4), 1e-14)

    def test_sigma_x_conjugation(self):
        t = transfer_from_kraus([SIGMA_X])
        assert matcore.mat_close(t.apply(P0), P1, 1e-14)

    def test_dephasing_kills_x_expectation(self):
        t = transfer_from_kraus([P0, P1])
        rho = states.from_bloch((1, 0, 0))
        assert abs(states.expectation(t.apply(rho), SIGMA_X)) < 1e-12

    def test_agrees_with_kraus_sum_on_basis(self):
        rng = np.random.default_rng(0)
        ks = random_cptp(3, rng)
        t = transfer_from_kraus(ks)
        for i in range(3):
            for j in range(3):
                e = np.zeros((3, 3), dtype=complex)
                e[i, j] = 1.0
                direct = sum(w @ e @ w.conj().T for w in ks.ops)
                assert matcore.mat_close(t.apply(e), direct, 1e-12)


class TestChoi:
    def test_identity_channel_choi(self):
        c = choi_of(identity_superoperator(2))
        assert matcore.mat_close(c, 2.0 * bell_state("phi+"), 1e-14)

    def test_transpose_choi_is_swap(self):
        c = choi_of(transpose_superoperator(2))
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert matcore.mat_close(c, swap, 1e-14)
        assert np.allclose(matcore.herm_eig(c).eigenvalues, [-1, 1, 1, 1])

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            t = Superoperator(
                dim_in=2,
                dim_out=2,
                transfer=rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
            )
            back = transfer_from_choi(choi_of(t), 2, 2)
            assert np.abs(back.transfer - t.transfer).max() < 1e-10

    def test_rectangular_round_trip(self):
        rng = np.random.default_rng(2)
        t = Superoperator(
            dim_in=2,
            dim_out=3,
            transfer=rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4)),
        )
        back = transfer_from_choi(choi_of(t), 2, 3)
        assert np.abs(back.transfer - t.transfer).max() < 1e-12

    def test_trace_of_choi_is_dim_in(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            t = transfer_from_kraus(random_cptp(d, rng))
            assert abs(np.trace(choi_of(t)).real - d) < 1e-9


class TestKrausFromChoi:
    def test_identity_single_kraus(self):
        ks = kraus_from_choi(choi_of(identity_superoperator(2)), 2, 2)
        assert len(ks.ops) == 1
        w = ks.ops[0]
        phase = w[0, 0] / abs(w[0, 0])
        assert matcore.mat_close(w / phase, np.eye(2), 1e-10)

    def test_depolarizing_weights(self):
        # rho -> (1-p) rho + p I/2 at p = 1/2; spectrum frozen from the
        # eigendecomposition of the explicit Choi matrix
        p = 0.5
        t = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                t[:, j * 2 + i] = vec((1 - p) * e + p * np.trace(e) * I2 / 2)
        sup = Superoperator(dim_in=2, dim_out=2, transfer=t)
        eigs = np.sort(matcore.herm_eig(choi_of(sup)).eigenvalues)
        assert np.allclose(eigs, [0.25, 0.25, 0.25, 1.25], atol=1e-12)
        ks = kraus_from_choi(choi_of(sup), 2, 2)
        assert len(ks.ops) == 4
        back = transfer_from_kraus(ks)
        assert np.abs(back.transfer - sup.transfer).max() < 1e-8

    def test_ncp_choi_rejected(self):
        swap = choi_of(transpose_superoperator(2))
        with pytest.raises(ValueError, match="NCP"):
            kraus_from_choi(swap, 2, 2)

    def test_non_tp_operator_set_rejected(self):
        # sum W^dag W = 1.21 I: an over-complete set, and the one class left is TP
        with pytest.raises(ValueError, match="trace-preserving KrausSet"):
            KrausSet(ops=(np.eye(2, dtype=complex) * 1.1,))

    def test_ordered_by_descending_weight(self):
        rng = np.random.default_rng(4)
        ks = kraus_from_choi(choi_of(transfer_from_kraus(random_cptp(2, rng))), 2, 2)
        norms = [np.trace(w.conj().T @ w).real for w in ks.ops]
        assert norms == sorted(norms, reverse=True)


class TestIsCp:
    def test_flip_map_ncp(self):
        rep = is_cp(flip_superoperator())
        assert not rep.is_cp
        assert abs(rep.min_choi_eigenvalue + 1.0) < 1e-9

    def test_unitary_channel_rank_one(self):
        rng = np.random.default_rng(5)
        u = channels.random_unitary(2, rng)
        t = transfer_from_kraus([u])
        rep = is_cp(t)
        assert rep.is_cp
        eigs = matcore.herm_eig(choi_of(t)).eigenvalues
        assert (eigs > 1e-9).sum() == 1

    def test_dephasing_cp(self):
        assert is_cp(transfer_from_kraus([P0, P1])).is_cp


class TestPositivitySearch:
    def test_flip_map_positive(self):
        flip = flip_superoperator()
        rep = is_positive_map(flip, budget=2000)
        assert rep.is_positive == "no-violation-found"
        assert rep.certificate == "s-lemma" and rep.samples_used == 0
        # the flip sits on the boundary: the margin is that of flip + tol tr(.) I
        assert abs(rep.certificate_margin - 2 * config.tolerance()) <= 1e-15
        # a forced search finds no violation either
        search = channels.minimize_output_min_eig(flip, 2000)
        assert channels.certify_violation(flip.apply, *search).is_positive == "no-violation-found"

    def test_transpose_positive(self):
        rep = is_positive_map(transpose_superoperator(2), budget=2000)
        assert rep.is_positive == "no-violation-found"

    def test_inflated_bloch_image_violates(self):
        rep = is_positive_map(scaled_z_map(1.2), budget=2000)
        assert rep.is_positive == "certified-violation"
        # lmin = (1 - 1.2)/2 = -0.1 at a pole
        assert abs(rep.witness_min_eigenvalue + 0.1) < 1e-6
        r = states.to_bloch(rep.witness)
        assert abs(r[2]) > 0.999

    def test_witness_image_actually_negative(self):
        rep = is_positive_map(scaled_z_map(1.5), budget=500)
        out = scaled_z_map(1.5).apply(rep.witness)
        assert matcore.min_eig(out) < -1e-8


class TestNPositivity:
    def test_transpose_hierarchy(self):
        tr = transpose_superoperator(2)
        assert is_n_positive(tr, 1, budget=2000).is_positive == "no-violation-found"
        rep2 = is_n_positive(tr, 2, budget=2000)
        assert rep2.is_positive == "certified-violation"
        assert rep2.witness_min_eigenvalue <= -0.5 + 1e-6

    def test_cp_maps_all_n(self):
        rng = np.random.default_rng(6)
        t = transfer_from_kraus(random_cptp(2, rng))
        for n in (1, 2, 3, 4):
            assert is_n_positive(t, n, budget=300).is_positive == "no-violation-found"

    def test_extend_with_identity_acts_trivially_on_witness(self):
        rng = np.random.default_rng(7)
        t = transfer_from_kraus(random_cptp(2, rng))
        ext = extend_with_identity(t, 2)
        rho = states.random_density(2, rng)
        tau = states.random_density(2, rng)
        assert matcore.mat_close(
            ext.apply(matcore.kron(rho, tau)),
            matcore.kron(t.apply(rho), tau),
            1e-12,
        )


def _transpose_mixture(d: int, p: float, seed: int) -> Superoperator:
    """p * transpose + (1 - p) * random CPTP: NCP for most p and seeds."""
    cptp = transfer_from_kraus(random_cptp(d, np.random.default_rng(seed)))
    return Superoperator(dim_in=d, dim_out=d, transfer=p * transpose_superoperator(d).transfer
                         + (1 - p) * cptp.transfer)


def _flip_after_unitary(seed: int) -> Superoperator:
    """rho -> flip(U rho U^dag) for a random U: positive and NCP, like the flip."""
    u = channels.random_unitary(2, np.random.default_rng(seed))
    conj = transfer_from_kraus([u]).transfer
    return Superoperator(dim_in=2, dim_out=2, transfer=flip_superoperator().transfer @ conj)


def _noisy_flip(offset: float) -> Superoperator:
    """(1 - p) flip + p depolarising, positive for every p, with Choi
    lambda_min = 1.5p - 1 placed at -tol + offset."""
    p = (1.0 - config.tolerance() + offset) / 1.5
    depolarising = np.outer(vec(I2 / 2), vec(I2))
    return Superoperator(dim_in=2, dim_out=2,
                         transfer=(1 - p) * flip_superoperator().transfer + p * depolarising)


class TestDecidedPositivity:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cp_maps_decided_without_samples(self, d, n):
        t = transfer_from_kraus(random_cptp(d, np.random.default_rng(10 * d + n)))
        cp = is_cp(t)
        for rep in (is_n_positive(t, n, budget=300), is_positive_map(t, budget=300)):
            assert rep.is_positive == "no-violation-found"
            assert rep.certificate == "choi" and rep.samples_used == 0
            assert rep.is_cp and rep.min_choi_eigenvalue == cp.min_choi_eigenvalue

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
    def test_ncp_witness_from_choi_spectrum(self, d, extra, p):
        t = _transpose_mixture(d, p, seed=d)
        lam = is_cp(t).min_choi_eigenvalue
        assert lam < 0
        n = d + extra
        rep = is_n_positive(t, n, budget=300)
        assert rep.certificate == "choi" and rep.samples_used == 0
        assert rep.is_cp is False and rep.min_choi_eigenvalue == lam
        assert rep.is_positive == "certified-violation"
        # no worse than the maximally entangled input, and the value of its own image
        assert rep.witness_min_eigenvalue <= lam / d + 1e-12
        image = extend_with_identity(t, n).apply(rep.witness)
        assert abs(matcore.min_eig(image) - rep.witness_min_eigenvalue) <= 1e-12
        assert abs(np.trace(rep.witness) - 1.0) <= 1e-12

    # The Choi matrix of the transpose is the swap, whose bottom eigenspace is
    # the antisymmetric subspace. At d = 2, 3 every antisymmetric vector has two
    # equal singular values, so the witness value is exactly -1/2; at d = 4 it
    # depends on which vector of that space the eigensolver returns.
    @pytest.mark.parametrize("t, n", [
        pytest.param(transpose_superoperator(2), 2, id="transpose-2-n2"),
        pytest.param(transpose_superoperator(3), 3, id="transpose-3-n3"),
        pytest.param(transpose_superoperator(3), 4, id="transpose-3-n4"),
        pytest.param(flip_superoperator(), 2, id="flip-n2"),
        pytest.param(flip_superoperator(), 3, id="flip-n3"),
    ])
    def test_transpose_and_flip_exact(self, t, n):
        rep = is_n_positive(t, n, budget=300)
        assert rep.certificate == "choi"
        assert abs(rep.witness_min_eigenvalue + 0.5) <= 1e-12

    # flip + depolarising noise: Choi lambda_min = 1.5p - 1, placed at -tol + offset
    @pytest.mark.parametrize("offset", [-1e-7, -3e-8, -5e-9, 5e-9, 3e-8, 1e-7])
    @pytest.mark.parametrize("n", [2, 3])
    def test_near_threshold_n_positivity_agrees_with_is_cp(self, offset, n):
        t = _noisy_flip(offset)
        cp = is_cp(t)
        assert abs(cp.min_choi_eigenvalue - (offset - config.tolerance())) <= 1e-12
        rep = is_n_positive(t, n)
        assert rep.certificate == "choi" and rep.is_cp == cp.is_cp
        if cp.is_cp:
            assert rep.is_positive == "no-violation-found"
        else:
            assert rep.is_positive == "certified-violation"
            assert rep.witness_min_eigenvalue <= cp.min_choi_eigenvalue / 2 + 1e-15

    @pytest.mark.parametrize("t, n", [
        pytest.param(transpose_superoperator(3), 2, id="transpose-3-n2"),
        pytest.param(transpose_superoperator(4), 3, id="transpose-4-n3"),
        pytest.param(_transpose_mixture(3, 0.6, seed=3), 2, id="mixture-3-n2"),
    ])
    def test_ncp_below_dim_in_still_searches(self, t, n):
        rep = is_n_positive(t, n, budget=300)
        assert rep.certificate is None and rep.samples_used >= 300
        assert rep.is_cp is False

    @pytest.mark.parametrize("t", [transpose_superoperator(3), scaled_z_map(1.2)],
                             ids=["transpose-3", "scaled-z"])
    def test_positivity_of_ncp_maps_still_searches(self, t):
        rep = is_positive_map(t, budget=300)
        assert rep.certificate is None and rep.samples_used >= 300
        assert rep.is_cp is False

    @pytest.mark.parametrize("t", [
        pytest.param(flip_superoperator(), id="flip"),
        pytest.param(transpose_superoperator(2), id="transpose-2"),
        pytest.param(_flip_after_unitary(0), id="flip-unitary"),
        pytest.param(_transpose_mixture(2, 0.6, seed=2), id="mixture-2-p0.6"),
        pytest.param(_transpose_mixture(2, 0.9, seed=2), id="mixture-2-p0.9"),
    ])
    def test_qubit_positivity_decided_by_the_s_lemma(self, t):
        rep = is_positive_map(t, budget=300)
        assert rep.is_positive == "no-violation-found" and rep.is_cp is False
        assert rep.certificate == "s-lemma" and rep.samples_used == 0
        assert rep.certificate_margin >= 0 and rep.certificate_mu >= 0
        assert rep.min_choi_eigenvalue == is_cp(t).min_choi_eigenvalue


def random_shifted_choi_map(d: int, rng) -> Superoperator:
    """Map whose Choi matrix is a Wishart matrix shifted down by a random
    multiple of I: NCP, and for larger shifts not positive either."""
    g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    c = g @ dag(g) / (d * d) - rng.uniform(0.0, 1.5) * np.eye(d * d)
    return transfer_from_choi(c, d, d)


def _near_kernel_map(delta: float) -> Superoperator:
    """rho -> <1|rho|1> I + delta <0|rho|0> sigma_x. The image of |0> is
    delta sigma_x, of lmin -delta, and so small that the S-lemma's quadratic
    form sees the violation only at order delta^2."""
    t = np.zeros((4, 4), dtype=complex)
    t[:, 0] = delta * vec(SIGMA_X)  # column i + 2j holds vec T(E_ij)
    t[:, 3] = vec(I2)
    return Superoperator(dim_in=2, dim_out=2, transfer=t)


def _s_lemma_margin(t: Superoperator, mu: float) -> float:
    """lmin(M - mu eta) for t + tau tr(.) I, tau = -psd_threshold(|transfer|_inf),
    from L_ab = tr(sigma_a T(sigma_b)) / 2 and M = L^T eta L."""
    tau = -config.psd_threshold(float(np.abs(t.transfer).max()))
    shifted = Superoperator(dim_in=2, dim_out=2,
                            transfer=t.transfer + tau * np.outer(vec(I2), vec(I2)))
    paulis = [I2, *states.PAULIS]
    ell = np.array([[np.trace(a @ shifted.apply(b)).real / 2 for b in paulis] for a in paulis])
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    return float(np.linalg.eigvalsh(ell.T @ eta @ ell - mu * eta)[0])


class TestSLemma:
    """Qubit positivity decided by the S-lemma, against the search."""

    def test_agrees_with_the_search(self):
        rng = np.random.default_rng(77)
        maps = [random_shifted_choi_map(2, rng) for _ in range(120)]
        maps += [_transpose_mixture(2, p, seed) for p in (0.3, 0.6, 0.9) for seed in range(6)]
        maps += [_flip_after_unitary(seed) for seed in range(10)]
        maps += [_noisy_flip(offset) for offset in (-1e-7, -5e-9, 5e-9, 1e-7)]
        maps += [scaled_z_map(1 + 1e-3), _near_kernel_map(1e-5)]
        decided = certified = 0
        for t in maps:
            rep = is_positive_map(t)
            forced = channels.certify_violation(
                t.apply, *channels.minimize_output_min_eig(t, 300))
            if rep.certificate == "s-lemma":
                decided += 1
                assert forced.is_positive == "no-violation-found"
                assert rep.samples_used == 0 and rep.certificate_margin >= 0
                recomputed = _s_lemma_margin(t, rep.certificate_mu)
                assert (abs(recomputed - rep.certificate_margin)
                        <= 1e-12 * max(1.0, rep.certificate_mu))
            if forced.is_positive == "certified-violation":
                certified += 1
                assert rep.certificate is None and rep.is_positive == "certified-violation"
        assert decided > 0 and certified > 0

    # positive on both sides of the Choi threshold
    @pytest.mark.parametrize("offset", [-1e-7, -5e-9, 5e-9, 1e-7])
    def test_noisy_flip_decided_across_the_choi_threshold(self, offset):
        rep = is_positive_map(_noisy_flip(offset))
        assert rep.is_positive == "no-violation-found" and rep.samples_used == 0
        assert rep.certificate == ("choi" if rep.is_cp else "s-lemma")

    # violations of 5e-4 and 1e-5, far above the witness margin
    @pytest.mark.parametrize("t", [scaled_z_map(1 + 1e-3), _near_kernel_map(1e-5)],
                             ids=["scaled-z", "near-kernel"])
    def test_small_violations_are_not_certified_positive(self, t):
        rep = is_positive_map(t)
        assert rep.certificate is None and rep.is_positive == "certified-violation"

    def test_maps_outside_its_scope_are_searched(self):
        # rho -> rho sigma_z is not Hermiticity-preserving
        not_hp = Superoperator(dim_in=2, dim_out=2, transfer=matcore.kron(SIGMA_Z, I2))
        g = np.random.default_rng(3).standard_normal((6, 6))
        qubit_to_qutrit = transfer_from_choi(g @ g.T / 6 - np.eye(6), 2, 3)
        for t in (not_hp, qubit_to_qutrit):
            rep = is_positive_map(t, budget=50)
            assert rep.is_cp is False
            assert rep.certificate is None and rep.samples_used >= 50


class TestSearch:
    """`minimize_output_min_eig` against the old grid-and-descent search
    (`ref_minimize_output_min_eig`): see-saw chains with Newton steps in
    every dimension."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("budget", [50, 300])
    def test_qubit_inputs_do_no_worse_than_the_descent(self, seed, budget):
        rng = np.random.default_rng(40 + seed)
        maps = [flip_superoperator(), scaled_z_map(1.2), random_shifted_choi_map(2, rng),
                opendyn.correlated_assignment(0.5)]
        maps += [random_shifted_choi_map(2, rng) for _ in range(12)]
        certified = 0
        for t in maps:
            val, vec_, samples = channels.minimize_output_min_eig(t, budget=budget, seed=seed)
            ref_val, ref_vec, ref_samples = ref_minimize_output_min_eig(
                t.apply_batch, 2, budget=budget, seed=seed)
            assert val <= ref_val + 1e-12
            ref = channels.certify_violation(t.apply, ref_val, ref_vec, ref_samples)
            if ref.is_positive == "certified-violation":
                certified += 1
                rep = channels.certify_violation(t.apply, val, vec_, samples)
                assert rep.is_positive == "certified-violation"
            # the value is that of the state returned
            image = t.apply(states.projector(vec_))
            assert abs(matcore.min_eig(image) - val) <= 1e-12
        assert certified > 0

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("n", [1, 2])
    def test_seesaw_certifies_whatever_the_descent_certifies(self, d, n):
        rng = np.random.default_rng(100 * d + n)
        certified = 0
        for seed in range(8):
            comp = extend_with_identity(random_shifted_choi_map(d, rng), n)
            val, vec_, samples = channels.minimize_output_min_eig(comp, budget=300, seed=seed)
            ref_val, ref_vec, ref_samples = ref_minimize_output_min_eig(
                comp.apply_batch, comp.dim_in, budget=300, seed=seed)
            rep = channels.certify_violation(comp.apply, val, vec_, samples)
            ref = channels.certify_violation(comp.apply, ref_val, ref_vec, ref_samples)
            if ref.is_positive == "certified-violation":
                certified += 1
                assert rep.is_positive == "certified-violation"
                assert val <= ref_val + 1e-8
            # the value is that of the state returned
            image = comp.apply(states.projector(vec_))
            assert abs(matcore.min_eig(image) - val) <= 1e-12
        assert certified > 0

    @pytest.mark.parametrize("d, n", [(3, 1), (3, 2), (4, 1)])
    def test_same_seed_same_result(self, d, n):
        comp = extend_with_identity(random_shifted_choi_map(d, np.random.default_rng(d)), n)
        first = channels.minimize_output_min_eig(comp, budget=200, seed=5)
        again = channels.minimize_output_min_eig(comp, budget=200, seed=5)
        assert first[0] == again[0] and first[2] == again[2]
        assert np.array_equal(first[1], again[1])

    @pytest.mark.parametrize("t, n", [
        pytest.param(transpose_superoperator(3), 1, id="transpose-3-n1"),
        pytest.param(transpose_superoperator(3), 2, id="transpose-3-n2"),
        pytest.param(_transpose_mixture(3, 0.6, seed=3), 1, id="mixture-3-n1"),
        pytest.param(_transpose_mixture(4, 0.6, seed=4), 2, id="mixture-4-n2"),
    ])
    @pytest.mark.parametrize("extras", [0, 1])
    def test_samples_bounded(self, t, n, extras):
        comp = extend_with_identity(t, n)
        extra = np.eye(comp.dim_in, dtype=complex)[:extras]
        _, _, samples = channels.minimize_output_min_eig(comp, budget=300, extra_candidates=extra)
        cap = 300 + extras + channels.SEESAW_STARTS * channels.SEESAW_STEPS
        assert 300 <= samples <= cap


def _max_entangled(d: int, n: int) -> np.ndarray:
    k = min(d, n)
    ent = np.zeros(d * n, dtype=complex)
    ent[np.arange(k) * (n + 1)] = 1.0
    return ent[None, :] / np.linalg.norm(ent)


class TestChoiSeeds:
    """The seeded search of `is_n_positive` for dim_in * n >= 3."""

    @pytest.mark.parametrize("d", [3, 4])
    def test_seeds_alone_give_the_transpose_value(self, d):
        rep = is_n_positive(transpose_superoperator(d), 2, budget=0)
        assert rep.certificate is None and rep.is_positive == "certified-violation"
        assert abs(rep.witness_min_eigenvalue + 0.5) <= 1e-12

    @pytest.mark.parametrize("d, a", [(3, 1.5), (3, 2.0), (3, 2.9), (4, 1.2), (4, 2.5),
                                      (4, 3.9)])
    def test_seeds_alone_give_the_t_a_value(self, d, a):
        # T_a(rho) = (tr(rho) I - a rho)/(d - a): a pure image has lmin (1 - a)/(d - a)
        rep = is_n_positive(make_verdict_corpus._t_a(d, a), 1, budget=0)
        assert rep.certificate is None and rep.is_positive == "certified-violation"
        assert abs(rep.witness_min_eigenvalue - (1 - a) / (d - a)) <= 1e-9

    @pytest.mark.parametrize("d, n", [(2, 2), (3, 1), (3, 2), (4, 1), (4, 3)])
    def test_seeds_are_unit_vectors(self, d, n):
        t = random_shifted_choi_map(d, np.random.default_rng(d + n))
        for k in range(1, channels.SEESAW_STARTS + 1):
            seeds = channels._choi_seeds(t, n, k)
            # at most one seed per Choi eigenvector
            assert seeds.shape == (min(k, d * d), d * n)
            assert np.abs(np.linalg.norm(seeds, axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("d, n", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_default_search_certifies_what_the_full_grid_certifies(self, d, n):
        # reference: the 2000-state grid and see-saw without Choi seeds
        rng = np.random.default_rng(1000 * d + n)
        extra = _max_entangled(d, n) if n > 1 else None
        certified = 0
        for _ in range(40):
            t = random_shifted_choi_map(d, rng)
            comp = extend_with_identity(t, n)
            ref = channels.certify_violation(comp.apply, *channels.minimize_output_min_eig(
                comp, budget=2000, extra_candidates=extra))
            rep = is_n_positive(t, n)
            if ref.is_positive == "certified-violation":
                certified += 1
                assert rep.is_positive == "certified-violation"
                assert rep.witness_min_eigenvalue <= ref.witness_min_eigenvalue + 1e-5
        assert certified > 0


def _audited_searches(monkeypatch, t, n, seesaw=None):
    """is_n_positive(t, n) and the (map, (value, vector, samples)) of the
    search it ran, polished by ``seesaw`` in place of ``channels._seesaw``."""
    searches = []
    search = channels.minimize_output_min_eig

    def spy(comp, *args, **kwargs):
        searches.append((comp, search(comp, *args, **kwargs)))
        return searches[-1][1]

    with monkeypatch.context() as m:
        m.setattr(channels, "minimize_output_min_eig", spy)
        if seesaw is not None:
            m.setattr(channels, "_seesaw", seesaw)
        rep = is_n_positive(t, n)
    assert len(searches) == (rep.certificate is None)
    return rep, searches[0] if searches else None


class TestNewtonSeesaw:
    """The d >= 3 polish against the plain see-saw it replaced (`ref_seesaw`)."""

    @pytest.mark.parametrize("d, n", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_no_verdict_flips_against_the_plain_seesaw(self, monkeypatch, d, n):
        rng = np.random.default_rng(2000 * d + n)
        certified = 0
        for _ in range(20):
            t = random_shifted_choi_map(d, rng)
            rep, search = _audited_searches(monkeypatch, t, n)
            ref, _ = _audited_searches(monkeypatch, t, n, ref_seesaw)
            assert rep.is_positive == ref.is_positive
            if search is None:  # a CP map, decided from the Choi spectrum
                continue
            if ref.is_positive == "certified-violation":
                certified += 1
            comp, (val, vec_, _) = search
            # the value is that of the state returned
            image = comp.apply(states.projector(vec_))
            assert abs(matcore.min_eig(image) - val) <= 1e-12
        assert certified > 0

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["transpose", "t_a"])
    def test_settled_seeds_match_the_plain_seesaw_bit_for_bit(self, monkeypatch, d, n, kind):
        t = transpose_superoperator(d) if kind == "transpose" else make_verdict_corpus._t_a(d, 2.0)
        _, (_, (val, vec_, samples)) = _audited_searches(monkeypatch, t, n)
        _, (_, (ref_val, ref_vec, ref_samples)) = _audited_searches(monkeypatch, t, n, ref_seesaw)
        assert val == ref_val and samples == ref_samples
        assert np.array_equal(vec_, ref_vec)

    @pytest.mark.parametrize("seed", [3, 0])  # seed 0: the map CI checks
    def test_newton_settles_positive_maps_sooner(self, monkeypatch, seed):
        # 0.6 transpose + 0.4 CPTP at d = 3: NCP, and positive
        t = _transpose_mixture(3, 0.6, seed=seed)
        assert is_cp(t).is_cp is False
        rep, _ = _audited_searches(monkeypatch, t, 1)
        ref, _ = _audited_searches(monkeypatch, t, 1, ref_seesaw)
        assert rep.is_positive == ref.is_positive == "no-violation-found"
        assert rep.samples_used < ref.samples_used

    def test_empty_search_names_the_budget(self):
        with pytest.raises(ValueError, match="budget"):
            channels.minimize_output_min_eig(transpose_superoperator(3), budget=0)


class TestAdjoint:
    def test_unitary_adjoint(self):
        rng = np.random.default_rng(8)
        u = channels.random_unitary(3, rng)
        adj = adjoint_map(transfer_from_kraus([u]))
        expected = transfer_from_kraus([u.conj().T])
        assert np.abs(adj.transfer - expected.transfer).max() < 1e-12

    def test_duality_on_basis(self):
        rng = np.random.default_rng(9)
        t = transfer_from_kraus(random_cptp(2, rng))
        adj = adjoint_map(t)
        for _ in range(10):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = states.random_density(2, rng)
            lhs = np.trace(adj.apply(a) @ rho)
            rhs = np.trace(a @ t.apply(rho))
            assert abs(lhs - rhs) < 1e-10

    def test_unitality_of_tp_adjoint(self):
        rng = np.random.default_rng(10)
        t = transfer_from_kraus(random_cptp(3, rng))
        assert adjoint_map(t).is_unital(1e-9)

    def test_involution(self):
        rng = np.random.default_rng(11)
        t = transfer_from_kraus(random_cptp(2, rng))
        assert np.abs(adjoint_map(adjoint_map(t)).transfer - t.transfer).max() < 1e-12


class TestJson:
    @pytest.mark.parametrize("kind", ["transfer", "choi", "kraus"])
    def test_round_trip(self, kind):
        rng = np.random.default_rng(13)
        t = transfer_from_kraus(random_cptp(2, rng))
        back = superoperator_from_json(superoperator_to_json(t, kind=kind))
        assert np.abs(back.transfer - t.transfer).max() < 1e-8

    def test_missing_field(self):
        with pytest.raises(ValueError):
            superoperator_from_json({"dim_in": 2})


class TestTolerance:
    def test_trace_preservation_and_unitality_follow_tolerance(self):
        t = Superoperator(dim_in=2, dim_out=2, transfer=(1 + 1e-6) * np.eye(4, dtype=complex))
        assert not t.is_trace_preserving() and not t.is_unital()
        before = config.tolerance()
        config.set_tolerance(1e-3)
        try:
            assert is_cp(t).is_cp
            assert t.is_trace_preserving() and t.is_unital()
        finally:
            config.set_tolerance(before)
