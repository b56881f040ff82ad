import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdynmaps import config, matcore, states
from qdynmaps.states import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bell_projector,
    bell_state,
    expectation,
    from_bloch,
    from_bloch_batch,
    purity,
    singlet,
    to_bloch,
    validate,
)


class TestBloch:
    def test_center_is_maximally_mixed(self):
        assert matcore.mat_close(from_bloch((0, 0, 0)), I2 / 2)

    def test_north_pole(self):
        assert matcore.mat_close(from_bloch((0, 0, 1)), np.diag([1.0, 0.0]))

    def test_out_of_ball_rejected(self):
        with pytest.raises(ValueError):
            from_bloch((0, 0, 1.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            from_bloch((bad, 0, 0))

    @pytest.mark.parametrize("bad", [
        [[float("nan"), 0, 0]],
        [[0, 0, 0], [float("inf"), 0, 0]],
        [[0.6, 0.6, 0.6]],
        [0, 0, 1],
        [[0, 0]],
        [[[0, 0, 1]]],
    ])
    def test_batch_rejects_what_from_bloch_rejects(self, bad):
        with pytest.raises(ValueError):
            from_bloch_batch(bad)

    def test_batch_equals_stacked_from_bloch(self):
        rng = np.random.default_rng(2)
        r = rng.standard_normal((200, 3))
        r *= (rng.random(200) / np.linalg.norm(r, axis=1))[:, None]
        r[0] = (0.0, 0.0, 1.0)
        batch = from_bloch_batch(r)
        assert np.array_equal(batch, np.stack([from_bloch(v) for v in r]))
        formula = [(I2 + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z) / 2 for x, y, z in r]
        assert np.array_equal(batch, np.stack(formula))
        assert from_bloch_batch(np.empty((0, 3))).shape == (0, 2, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(3)
        r *= rng.random() / np.linalg.norm(r)
        assert np.abs(to_bloch(from_bloch(r)) - r).max() < 1e-12

    def test_purity_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            r = rng.standard_normal(3)
            r *= rng.random() ** (1 / 3) / np.linalg.norm(r)
            rho = from_bloch(r)
            assert abs(purity(rho) - (1 + np.dot(r, r)) / 2) < 1e-10

    def test_image_always_validates(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            r = rng.standard_normal(3)
            r *= rng.random() / np.linalg.norm(r)
            assert validate(from_bloch(r)).verdict == "valid"


class TestExpectation:
    def test_singlet_correlations(self):
        s = singlet()
        for p in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            assert abs(expectation(s, matcore.kron(p, p)) + 1.0) < 1e-12

    def test_maximally_mixed_z(self):
        assert abs(expectation(I2 / 2, SIGMA_Z)) < 1e-14

    def test_flipped_singlet_functional_on_bell_projector(self):
        # correlations (-1, -1, +1) force expectation -1/2 on the psi+ projector
        flipped = (
            np.eye(4)
            - matcore.kron(SIGMA_X, SIGMA_X)
            - matcore.kron(SIGMA_Y, SIGMA_Y)
            + matcore.kron(SIGMA_Z, SIGMA_Z)
        ) / 4
        assert abs(expectation(flipped, bell_projector("psi+")) + 0.5) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(I2 / 2, np.eye(4))

    def test_linearity_and_normalization(self):
        rng = np.random.default_rng(2)
        rho = states.random_density(3, rng)
        assert abs(expectation(rho, np.eye(3)) - 1.0) < 1e-12
        a = rng.standard_normal((3, 3))
        a = a + a.T
        b = rng.standard_normal((3, 3))
        b = b + b.T
        assert abs(
            expectation(rho, 2.0 * a + 3.0 * b)
            - 2.0 * expectation(rho, a)
            - 3.0 * expectation(rho, b)
        ) < 1e-10


class TestBell:
    def test_projectors_resolve_identity(self):
        total = sum(bell_projector(w) for w in ("phi+", "phi-", "psi+", "psi-"))
        assert matcore.mat_close(total, np.eye(4), 1e-12)

    def test_psi_plus_pauli_formula(self):
        formula = (
            np.eye(4)
            + matcore.kron(SIGMA_X, SIGMA_X)
            + matcore.kron(SIGMA_Y, SIGMA_Y)
            - matcore.kron(SIGMA_Z, SIGMA_Z)
        ) / 4
        assert matcore.mat_close(bell_projector("psi+"), formula, 1e-12)

    def test_orthogonality(self):
        assert abs(np.trace(bell_projector("psi+") @ bell_state("psi-"))) < 1e-12

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            bell_state("omega")


class TestValidate:
    def test_maximally_mixed(self):
        d = validate(I2 / 2)
        assert d.verdict == "valid"
        assert abs(d.min_eigenvalue - 0.5) < 1e-12

    def test_negative_matrix(self):
        d = validate(np.diag([1.25, -0.25]).astype(complex))
        assert d.verdict == "negative"
        assert abs(d.min_eigenvalue + 0.25) < 1e-12

    def test_non_unit_trace(self):
        assert validate(np.eye(2, dtype=complex)).verdict == "non-unit-trace"

    def test_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        assert validate(m).verdict == "non-hermitian"

    def test_never_raises_on_garbage(self):
        # diagnostics, not exceptions: NCP outputs must be carriable
        validate(np.full((3, 3), 7.0 + 1j))


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        obj = states.matrix_to_json(m)
        assert set(obj) == {"dim", "re", "im"}
        assert matcore.mat_close(states.matrix_from_json(obj), m, 1e-15)

    def test_bad_dim_rejected(self):
        obj = states.matrix_to_json(np.eye(2))
        obj["dim"] = 3
        with pytest.raises(ValueError):
            states.matrix_from_json(obj)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            states.matrix_from_json({"re": [[1.0]]})


class TestTolerance:
    @pytest.mark.parametrize("bad", [0.0, -1e-9, float("nan"), float("inf"), -float("inf")])
    def test_nonpositive_or_nonfinite_rejected(self, bad):
        before = config.tolerance()
        with pytest.raises(ValueError):
            config.set_tolerance(bad)
        assert config.tolerance() == before
