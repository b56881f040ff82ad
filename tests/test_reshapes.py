"""The representation layer's reshapes against the matrix-unit loops they replace.

Each reference below builds its matrix one matrix unit E_ij at a time. The
library's reshapes do the same floating-point operations, so the results
must be equal bit for bit, not merely close.
"""

import numpy as np
import pytest

from qdynmaps import channels, compatdomain, matcore, opendyn, states
from qdynmaps.channels import Superoperator, unvec, vec
from qdynmaps.matcore import dag, kron, partial_trace

DIMS = [(2, 2), (2, 3), (3, 2), (4, 4)]


def unit(i, j, d):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def ref_choi_of(t):
    d_in, d_out = t.dim_in, t.dim_out
    c = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            block = unvec(t.transfer[:, j * d_in + i], d_out)
            c += kron(unit(i, j, d_in), block)
    return c


def ref_transfer_from_choi(c, dim_in, dim_out):
    t = np.zeros((dim_out**2, dim_in**2), dtype=complex)
    blocks = c.reshape(dim_in, dim_out, dim_in, dim_out)
    for i in range(dim_in):
        for j in range(dim_in):
            t[:, j * dim_in + i] = vec(blocks[i, :, j, :])
    return t


def ref_extend_with_identity(t, n):
    d_in, d_out = t.dim_in, t.dim_out
    din_c, dout_c = d_in * n, d_out * n
    transfer = np.zeros((dout_c**2, din_c**2), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            block = unvec(t.transfer[:, j * d_in + i], d_out)
            for w in range(n):
                for v in range(n):
                    col = (j * n + v) * din_c + (i * n + w)
                    transfer[:, col] = vec(kron(block, unit(w, v, n)))
    return transfer


def ref_transpose_superoperator(dim):
    t = np.zeros((dim**2, dim**2), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            t[:, j * dim + i] = vec(unit(j, i, dim))
    return t


def ref_reservoir_linear(rho_r, d_s, dephase):
    n = d_s * rho_r.shape[0]
    lin = np.zeros((n**2, d_s**2), dtype=complex)
    for i in range(d_s):
        for j in range(d_s):
            e = unit(i, j, d_s) if i == j or not dephase else np.zeros((d_s, d_s), complex)
            lin[:, j * d_s + i] = vec(kron(e, rho_r))
    return lin


def ref_reduced_map(rd, t):
    phi = rd.phi
    d_s, d_r = phi.d_s, phi.d_r
    u = rd.unitary_at(t)
    transfer = np.zeros((d_s**2, d_s**2), dtype=complex)
    for i in range(d_s):
        for j in range(d_s):
            out = partial_trace(u @ phi(unit(i, j, d_s)) @ dag(u), (d_s, d_r))
            transfer[:, j * d_s + i] = vec(out)
    return transfer


def random_map(rng, d_in, d_out):
    shape = (d_out**2, d_in**2)
    return Superoperator(dim_in=d_in, dim_out=d_out,
                         transfer=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + dag(g)) / 2


def assignments(rng, d_s, d_r):
    """A product, a dephasing and a random affine assignment on S (x) R."""
    tau = states.random_density(d_r, rng)
    n = d_s * d_r
    lin = rng.standard_normal((n**2, d_s**2)) + 1j * rng.standard_normal((n**2, d_s**2))
    return [
        opendyn.ProductAssignment(rho_r=tau, d_s=d_s),
        opendyn.dephasing_assignment(tau, d_s=d_s),
        opendyn.AffineAssignment(linear=lin, constant=random_hermitian(rng, n), d_s=d_s, d_r=d_r),
    ]


@pytest.mark.parametrize("d_in,d_out", DIMS)
def test_choi_and_inverse_match_loops(d_in, d_out):
    rng = np.random.default_rng(10 * d_in + d_out)
    for _ in range(5):
        t = random_map(rng, d_in, d_out)
        c = channels.choi_of(t)
        assert np.array_equal(c, ref_choi_of(t))
        back = channels.transfer_from_choi(c, d_in, d_out).transfer
        assert np.array_equal(back, ref_transfer_from_choi(c, d_in, d_out))
        assert np.array_equal(back, t.transfer)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d_in,d_out", DIMS)
def test_extend_with_identity_matches_loop(d_in, d_out, n):
    t = random_map(np.random.default_rng(100 * n + 10 * d_in + d_out), d_in, d_out)
    assert np.array_equal(channels.extend_with_identity(t, n).transfer,
                          ref_extend_with_identity(t, n))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_transpose_superoperator_matches_loop(dim):
    assert np.array_equal(channels.transpose_superoperator(dim).transfer,
                          ref_transpose_superoperator(dim))


@pytest.mark.parametrize("d_r", [2, 3])
@pytest.mark.parametrize("d_s", [2, 3])
def test_product_and_dephasing_linear_parts_match_loop(d_s, d_r):
    tau = states.random_density(d_r, np.random.default_rng(d_s * d_r))
    prod = opendyn.ProductAssignment(rho_r=tau, d_s=d_s)
    assert np.array_equal(prod.linear, ref_reservoir_linear(tau, d_s, dephase=False))
    deph = opendyn.dephasing_assignment(tau, d_s=d_s)
    assert np.array_equal(deph.linear, ref_reservoir_linear(tau, d_s, dephase=True))


@pytest.mark.parametrize("d_r", [2, 3])
@pytest.mark.parametrize("d_s", [2, 3])
def test_reduced_map_matches_loop(d_s, d_r):
    rng = np.random.default_rng(7 * d_s + d_r)
    for phi in assignments(rng, d_s, d_r):
        rd = opendyn.ReducedDynamics(
            phi=phi, generator=("hamiltonian", random_hermitian(rng, d_s * d_r)))
        for t in (0.0, 0.37, 1.9):
            assert np.array_equal(opendyn.reduced_map(rd, t).transfer, ref_reduced_map(rd, t))


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_hamiltonian_diagonalised_once_per_reduced_dynamics(monkeypatch):
    h = random_hermitian(np.random.default_rng(0), 4)
    calls = counting(monkeypatch, matcore, "herm_eig")
    rd = opendyn.ReducedDynamics(phi=opendyn.correlated_assignment(0.5), generator=("hamiltonian", h))
    for t in np.linspace(0.0, 2.0, 21):
        opendyn.reduced_map(rd, float(t))
    assert len(calls) == 1
    assert np.array_equal(rd.unitary_at(0.7), matcore.unitary_at(h, 0.7))


def test_lambda_query_builds_reduced_map_once(monkeypatch):
    rng = np.random.default_rng(1)
    phi = opendyn.correlated_assignment(0.8)
    rd = opendyn.ReducedDynamics(phi=phi, generator=("hamiltonian", random_hermitian(rng, 4)))
    calls = counting(monkeypatch, compatdomain, "reduced_map")
    q = compatdomain.DomainQuery(phi=phi, predicate="lambda", rd=rd, t=0.2)
    rhos = [states.from_bloch(r) for r in rng.uniform(-0.5, 0.5, (50, 3))]
    lmins = [compatdomain.membership(q, rho)[1] for rho in rhos]
    compatdomain.landscape(q)  # image_batch reuses the same map
    assert len(calls) == 1
    lam = opendyn.reduced_map(rd, 0.2)
    assert lmins == [matcore.min_eig(lam.apply(rho)) for rho in rhos]


def test_stored_matrices_are_read_only():
    h = np.diag([1.0, -1.0, 0.5, 0.0]).astype(complex)
    tau = states.I2 / 2
    prod = opendyn.ProductAssignment(rho_r=tau, d_s=2)
    corr = opendyn.correlated_assignment(0.5)
    rd = opendyn.ReducedDynamics(phi=corr, generator=("hamiltonian", h))
    for m in (prod.rho_r, corr.linear, corr.constant, rd.generator[1]):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 7.0
    # the caller's own arrays stay writable and are not aliased
    h[0, 0] = 3.0
    assert rd.generator[1][0, 0] == 1.0
    assert tau.flags.writeable
