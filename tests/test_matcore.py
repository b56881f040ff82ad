import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdynmaps import matcore
from qdynmaps.states import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, singlet

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(n, rng):
    g = random_complex((n, n), rng)
    return (g + g.conj().T) / 2


class TestKron:
    def test_identity(self):
        assert matcore.mat_close(matcore.kron(I2, I2), np.eye(4))

    def test_sigma_z_squared(self):
        assert matcore.mat_close(
            matcore.kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1])
        )

    def test_shape_arithmetic(self):
        rng = np.random.default_rng(0)
        a = random_complex((2, 3), rng)
        b = random_complex((4, 5), rng)
        assert matcore.kron(a, b).shape == (8, 15)

    def test_associativity_and_mixed_product(self):
        rng = np.random.default_rng(1)
        a, b, c, d = (random_complex((2, 2), rng) for _ in range(4))
        assert matcore.mat_close(
            matcore.kron(matcore.kron(a, b), c),
            matcore.kron(a, matcore.kron(b, c)),
            1e-10,
        )
        assert matcore.mat_close(
            matcore.kron(a, b) @ matcore.kron(c, d),
            matcore.kron(a @ c, b @ d),
            1e-10,
        )


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(2)
        rho = random_hermitian(2, rng)
        tau = random_hermitian(3, rng)
        m = matcore.kron(rho, tau)
        assert matcore.mat_close(
            matcore.partial_trace(m, (2, 3)), rho * np.trace(tau), 1e-12
        )
        assert matcore.mat_close(
            matcore.partial_trace(m, (2, 3), keep=1), tau * np.trace(rho), 1e-12
        )

    def test_singlet_marginal_maximally_mixed(self):
        assert matcore.mat_close(
            matcore.partial_trace(singlet(), (2, 2)), I2 / 2, 1e-12
        )

    def test_trace_chain_rule(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = random_complex((4, 4), rng)
            assert abs(
                np.trace(matcore.partial_trace(m, (2, 2))) - np.trace(m)
            ) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(4)
        m, n = random_complex((6, 6), rng), random_complex((6, 6), rng)
        a, b = 0.3, -1.7
        assert matcore.mat_close(
            matcore.partial_trace(a * m + b * n, (2, 3)),
            a * matcore.partial_trace(m, (2, 3))
            + b * matcore.partial_trace(n, (2, 3)),
            1e-12,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matcore.partial_trace(np.eye(5), (2, 2))


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(5)
        m = random_complex((6, 6), rng)
        for sub in (0, 1):
            twice = matcore.partial_transpose(
                matcore.partial_transpose(m, (2, 3), sub), (2, 3), sub
            )
            assert matcore.mat_close(twice, m, 1e-14)

    def test_product_case(self):
        rng = np.random.default_rng(6)
        rho = random_complex((2, 2), rng)
        tau = random_complex((2, 2), rng)
        assert matcore.mat_close(
            matcore.partial_transpose(matcore.kron(rho, tau), (2, 2), 1),
            matcore.kron(rho, tau.T),
            1e-14,
        )

    def test_singlet_partial_transpose_min_eig(self):
        # frozen from the eigendecomposition of the explicit 4x4 matrix
        pt = matcore.partial_transpose(singlet(), (2, 2), 1)
        eig = matcore.herm_eig(pt)
        assert abs(eig.eigenvalues[0] - (-0.5)) < 1e-12


class TestHermEig:
    def test_sigma_z(self):
        eig = matcore.herm_eig(SIGMA_Z)
        assert np.allclose(eig.eigenvalues, [-1, 1])

    def test_swap_spectrum(self):
        eig = matcore.herm_eig(SWAP)
        assert np.allclose(eig.eigenvalues, [-1, 1, 1, 1])

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(8, rng)
        eig = matcore.herm_eig(h)
        norm = np.abs(h).max()
        assert np.abs(eig.reconstruct() - h).max() < 1e-10 * max(1.0, norm)
        v = eig.eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-10

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5, 16):
            h = random_hermitian(n, rng)
            assert abs(matcore.herm_eig(h).eigenvalues.sum() - np.trace(h).real) < 1e-10

    def test_ascending_order(self):
        rng = np.random.default_rng(9)
        w = matcore.herm_eig(random_hermitian(6, rng)).eigenvalues
        assert (np.diff(w) >= 0).all()

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            matcore.herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3, 4, 8]))
    def test_agrees_with_min_eig(self, seed, n):
        h = random_hermitian(n, np.random.default_rng(seed))
        assert abs(matcore.herm_eig(h).eigenvalues[0] - matcore.min_eig(h)) < 1e-10


class TestUnitaryAt:
    def test_t_zero_is_identity(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(4, rng)
        assert matcore.mat_close(matcore.unitary_at(h, 0.0), np.eye(4), 1e-14)

    def test_sigma_z_pi(self):
        assert matcore.mat_close(matcore.unitary_at(SIGMA_Z, np.pi), -I2, 1e-12)

    def test_group_property(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(3, rng)
        t, s = 0.7, -1.3
        assert matcore.mat_close(
            matcore.unitary_at(h, t) @ matcore.unitary_at(h, s),
            matcore.unitary_at(h, t + s),
            1e-9,
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(-100, 100))
    def test_unitarity(self, seed, t):
        h = random_hermitian(3, np.random.default_rng(seed))
        u = matcore.unitary_at(h, t)
        assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-10


def test_trace_norm_pauli():
    assert abs(matcore.trace_norm(SIGMA_X / 2) - 1.0) < 1e-14


def test_min_eig_batch_matches_scalar():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 4, 16):
        hs = np.stack([random_hermitian(n, rng) for _ in range(20)])
        want = np.linalg.eigvalsh(hs)[:, 0]
        batch = matcore.min_eig_batch(hs)
        single = [matcore.min_eig(h) for h in hs]
        assert np.abs(batch - want).max() < 1e-12
        assert np.abs(np.array(single) - want).max() < 1e-12


def test_min_eigpair_batch_is_the_bottom_eigenpair():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 6, 8):
        ms = rng.standard_normal((20, n, n)) + 1j * rng.standard_normal((20, n, n))
        hs = (ms + np.conj(np.swapaxes(ms, 1, 2))) / 2.0
        vals, vecs = matcore.min_eigpair_batch(ms)  # the Hermitian part is taken
        assert vals.shape == (20,) and vecs.shape == (20, n)
        assert np.abs(vals - matcore.min_eig_batch(ms)).max() < 1e-12
        assert np.abs(np.linalg.norm(vecs, axis=1) - 1.0).max() < 1e-12
        residual = np.einsum("kij,kj->ki", hs, vecs) - vals[:, None] * vecs
        assert np.abs(residual).max() < 1e-12


def test_min_eig_near_degenerate_2x2():
    # eigenvalues 0.5 + 5e-10 -+ sqrt(1.25) * 1e-9: tr^2 - 4 det cancels
    m = np.array([[0.5 + 1e-9, 1e-9], [1e-9, 0.5]], dtype=complex)
    want = 0.5 + 5e-10 - np.sqrt(1.25) * 1e-9
    assert abs(matcore.min_eig(m) - want) < 1e-14
    assert abs(matcore.min_eig_batch(m[None])[0] - want) < 1e-14


NONFINITE = {
    "nan-diagonal": np.diag([np.nan, 1.0, 1.0]).astype(complex),
    "inf-entry": np.array([[1.0, np.inf], [np.inf, 1.0]], dtype=complex),
}


@pytest.mark.parametrize("name", sorted(NONFINITE))
@pytest.mark.parametrize(
    "solve",
    [matcore.min_eig, lambda m: matcore.min_eig_batch(m[None]), matcore.herm_eig,
     lambda m: matcore.min_eigpair_batch(m[None])],
    ids=["min_eig", "min_eig_batch", "herm_eig", "min_eigpair_batch"],
)
def test_nonfinite_input_raises(solve, name):
    with pytest.raises(ValueError, match="non-finite"):
        solve(NONFINITE[name])
