"""End-to-end acceptance checks, one per headline capability.

Each test prints a single pass/fail line (with output capture suspended, so
the line shows up in plain pytest runs) and then asserts, so failures also
surface the usual way.
"""

import numpy as np
import pytest

from qdynmaps import channels, compatdomain, config, matcore, opendyn, states
from qdynmaps.channels import (
    adjoint_map,
    choi_of,
    extend_with_identity,
    flip_superoperator,
    is_cp,
    is_n_positive,
    is_positive_map,
    kraus_from_choi,
    random_cptp,
    random_unitary,
    transfer_from_kraus,
    transpose_superoperator,
)
from qdynmaps.compatdomain import DomainQuery, boundary_radius, convexity_check, membership
from qdynmaps.matcore import kron, min_eig, partial_trace, trace_norm
from qdynmaps.opendyn import (
    AffineAssignment,
    ProductAssignment,
    ReducedDynamics,
    TabulatedAssignment,
    assign,
    correlated_assignment,
    dephasing_assignment,
    extend_linearly,
    inconsistency_analysis,
    pechukas_witness,
    reduced_map,
)
from qdynmaps.states import I2, PAULIS, SIGMA_X, SIGMA_Z, from_bloch, singlet, to_bloch

CNOT_R_CONTROLS_S = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _passthrough(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def verdict(label: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, label


def random_consistent_affine(rng, target_center_margin=0.01):
    tau = 0.7 * states.random_density(2, rng) + 0.3 * I2 / 2
    base = ProductAssignment(rho_r=tau, d_s=2)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g = (g + g.conj().T) / 2
    k = g - kron(partial_trace(g, (2, 2)), I2 / 2)
    k *= 0.5 / max(trace_norm(k), 1e-12)
    while True:
        phi = AffineAssignment(linear=base.linear, constant=k, d_s=2, d_r=2)
        if min_eig(assign(phi, I2 / 2)) >= target_center_margin:
            return phi
        k = k * 0.7


def four_state_table(reservoirs=None):
    sys_states = [from_bloch(r) for r in ((1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1))]
    if reservoirs is None:
        reservoirs = [
            states.projector(states.ket(0, 2)),
            states.projector(states.ket(1, 2)),
            I2 / 2,
            I2 / 2,
        ]
    return TabulatedAssignment(
        pairs=tuple((a, kron(a, r)) for a, r in zip(sys_states, reservoirs)),
        d_s=2,
        d_r=2,
    )


def test_criterion_1_flip_map():
    flip = flip_superoperator()
    out = extend_with_identity(flip, 2).apply(singlet())
    val = states.expectation(out, states.bell_projector("psi+"))
    spectrum = matcore.herm_eig(choi_of(flip)).eigenvalues
    pos = is_positive_map(flip, budget=2000, seed=0)
    # a forced 2000-point search must not contradict the S-lemma's proof
    search = channels.minimize_output_min_eig(flip, 2000)
    ok = (
        abs(val - (-0.5)) <= 1e-10
        and np.abs(spectrum - np.array([-1.0, 1.0, 1.0, 1.0])).max() <= 1e-9
        and pos.is_positive == "no-violation-found"
        and pos.certificate == "s-lemma"
        and pos.samples_used == 0
        and abs(pos.certificate_margin - 2 * config.tolerance()) <= 1e-15
        and channels.certify_violation(flip.apply, *search).is_positive == "no-violation-found"
    )
    verdict("1: flip map: singlet expectation -1/2, Choi spectrum (-1,1,1,1), "
            "positive by the S-lemma, no violation on a 2000-point search", ok)


def test_criterion_2_singlet_marginals():
    s = singlet()
    corr = max(
        abs(states.expectation(s, kron(p, p)) + 1.0) for p in PAULIS
    )
    marg = np.abs(partial_trace(s, (2, 2)) - I2 / 2).max()
    verdict("2: singlet correlations -1 and maximally mixed marginal",
            corr <= 1e-12 and marg <= 1e-12)


def test_criterion_3_representation_round_trips():
    rng = np.random.default_rng(0)
    worst_rt, worst_tp, worst_unital = 0.0, 0.0, 0.0
    for trial in range(500):
        d = 2 if trial % 2 == 0 else 3
        t = transfer_from_kraus(random_cptp(d, rng))
        c = choi_of(t)
        k2 = kraus_from_choi(c, d, d)
        t2 = transfer_from_kraus(k2)
        worst_rt = max(worst_rt, float(np.abs(t2.transfer - t.transfer).max()))
        total = sum(matcore.dag(w) @ w for w in k2.ops)
        worst_tp = max(worst_tp, float(np.abs(total - np.eye(d)).max()))
        adj = adjoint_map(t)
        worst_unital = max(
            worst_unital, float(np.abs(adj.apply(np.eye(d)) - np.eye(d)).max())
        )
    verdict(
        f"3: 500 CPTP round trips (residual {worst_rt:.2e}), Kraus completeness "
        f"({worst_tp:.2e}), adjoint unitality ({worst_unital:.2e})",
        worst_rt < 1e-8 and worst_tp <= 1e-9 and worst_unital <= 1e-9,
    )


def test_criterion_4_pechukas_constructive():
    witness, lmin = pechukas_witness(correlated_assignment(0.5), budget=2000, seed=0)
    ok_known = (
        witness is not None
        and abs(lmin - (-0.125)) <= 1e-3
        and float(np.linalg.norm(to_bloch(witness))) >= 0.99
        and abs(to_bloch(witness)[2]) >= 0.99
    )
    rng = np.random.default_rng(1)
    found = sum(
        pechukas_witness(random_consistent_affine(rng), budget=2000, seed=0)[0]
        is not None
        for _ in range(50)
    )
    w_prod, _ = pechukas_witness(
        ProductAssignment(rho_r=I2 / 2, d_s=2), budget=2000, seed=0
    )
    verdict(
        f"4: correlated-assignment witness at the pole, {found}/50 random "
        "consistent assignments witnessed, product assignment clean",
        ok_known and found == 50 and w_prod is None,
    )


def test_criterion_5_four_state_no_go():
    result = extend_linearly(four_state_table())
    ok_conflict = result.outcome == "conflict"
    if ok_conflict:
        conf = result.conflict
        ok_conflict = (
            trace_norm(conf.recombined_a - I2 / 2) <= 1e-12
            and trace_norm(conf.recombined_b - I2 / 2) <= 1e-12
            and abs(conf.image_gap - 1.0) <= 1e-9
        )
    tau = from_bloch((0.3, -0.1, 0.2))
    res2 = extend_linearly(four_state_table(reservoirs=[tau] * 4))
    ok_product = (
        res2.outcome == "extension"
        and isinstance(res2.extension, ProductAssignment)
        and matcore.mat_close(res2.extension.rho_r, tau, 1e-10)
    )
    verdict("5: four-state table yields a conflict (two decompositions of I/2 "
            "with image gap 1); equal reservoirs extend to the product map",
            ok_conflict and ok_product)


def test_criterion_6_domain_geometry():
    q = DomainQuery(phi=correlated_assignment(0.5), predicate="phi")
    rz = boundary_radius(q, (0, 0, 1))
    rx = boundary_radius(q, (1, 0, 0))
    m_center, l_center = membership(q, I2 / 2)
    m_pole, l_pole = membership(q, from_bloch((0, 0, 1)))
    verdict(
        f"6: domain radii z={rz:.6f}, x={rx:.6f}; center lmin {l_center:.6f} in, "
        f"pure z+ lmin {l_pole:.6f} out",
        abs(rz - 0.5) <= 1e-6
        and abs(rx - np.sqrt(3) / 2) <= 1e-6
        and m_center and abs(l_center - 0.125) <= 1e-9
        and (not m_pole) and abs(l_pole - (-0.125)) <= 1e-9,
    )


def test_criterion_7_domain_structure():
    phi = correlated_assignment(0.5)
    q = DomainQuery(phi=phi, predicate="phi")
    conv = convexity_check(q, trials=1000, seed=0)

    rng = np.random.default_rng(2)
    concave_ok = True
    for _ in range(1000):
        a = states.random_density(2, rng)
        b = states.random_density(2, rng)
        mid = min_eig(q.image((a + b) / 2))
        if mid < (min_eig(q.image(a)) + min_eig(q.image(b))) / 2 - 1e-12:
            concave_ok = False
            break

    rd = ReducedDynamics(phi=phi, generator=("unitary", CNOT_R_CONTROLS_S))
    ql = DomainQuery(phi=phi, predicate="lambda", rd=rd, t=1.0)
    counterexamples = 0
    for _ in range(1000):
        r = rng.standard_normal(3)
        r *= rng.random() ** (1 / 3) / np.linalg.norm(r)
        rho = from_bloch(r)
        if membership(q, rho)[0] and not membership(ql, rho)[0]:
            counterexamples += 1
    verdict(
        f"7: convexity {conv.convexity_failures}/1000 failures, lmin concavity "
        f"holds, phi=>lambda membership {counterexamples}/1000 counterexamples",
        conv.convexity_failures == 0 and concave_ok and counterexamples == 0,
    )


def test_criterion_8_reduced_dynamics_guarantees():
    rng = np.random.default_rng(3)
    phi = ProductAssignment(rho_r=states.random_density(2, rng), d_s=2)
    worst_choi, worst_tp = 0.0, True
    for _ in range(100):
        u = random_unitary(4, rng)
        lam = reduced_map(ReducedDynamics(phi=phi, generator=("unitary", u)), 1.0)
        worst_choi = min(worst_choi, is_cp(lam).min_choi_eigenvalue)
        worst_tp = worst_tp and lam.is_trace_preserving(tol=1e-9)

    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2
    identity_ok = True
    for phi0 in (phi, correlated_assignment(0.5), random_consistent_affine(rng)):
        lam0 = reduced_map(ReducedDynamics(phi=phi0, generator=("hamiltonian", h)), 0.0)
        if np.abs(lam0.transfer - np.eye(4)).max() > 1e-10:
            identity_ok = False
    verdict(
        f"8: 100 product-assignment reduced maps CP (worst Choi lmin "
        f"{worst_choi:.2e}) and TP; consistent assignments give identity at t=0",
        worst_choi >= -1e-9 and worst_tp and identity_ok,
    )


def test_criterion_9_inconsistent_assignment():
    phi = dephasing_assignment(I2 / 2)
    x_plus = from_bloch((1, 0, 0))
    true_initial = kron(x_plus, I2 / 2)
    gen = ("hamiltonian", kron(SIGMA_Z, SIGMA_X))
    times = np.linspace(0.0, 2.0, 21)
    rep = inconsistency_analysis(phi, true_initial, gen, times)
    prod = ProductAssignment(rho_r=I2 / 2, d_s=2)
    rep2 = inconsistency_analysis(prod, true_initial, gen, times)
    verdict(
        f"9: dephasing fixed-point offset {rep.fixed_point_offset:.6f}, "
        f"delta(0) matches, consistent trajectory identically zero",
        abs(rep.fixed_point_offset - 1.0) <= 1e-9
        and abs(float(rep.deviation[0]) - rep.fixed_point_offset) <= 1e-9
        and rep2.fixed_point_offset <= 1e-12
        and float(rep2.deviation.max()) <= 1e-10,
    )


def test_criterion_10_n_positivity_hierarchy():
    tr = transpose_superoperator(2)
    pos1 = is_positive_map(tr, budget=10_000, seed=0)
    pos2 = is_n_positive(tr, 2, budget=2000, seed=0)
    hierarchy_ok = (
        pos1.is_positive == "no-violation-found"
        and pos2.is_positive == "certified-violation"
        and pos2.witness_min_eigenvalue <= -0.5 + 1e-6
    )
    rng = np.random.default_rng(4)
    agree = 0
    for trial in range(200):
        t = transfer_from_kraus(random_cptp(2, rng))
        if trial % 2 == 1:
            t = channels.Superoperator(
                dim_in=2, dim_out=2, transfer=t.transfer @ tr.transfer
            )
        sampled = is_n_positive(t, 2, budget=200, seed=0)
        if (sampled.is_positive == "no-violation-found") == is_cp(t).is_cp:
            agree += 1
    verdict(
        f"10: transpose 1-positive but not 2-positive (witness lmin "
        f"{pos2.witness_min_eigenvalue:.6f}); 2-positivity sampling agrees with "
        f"is_cp on {agree}/200 random maps",
        hierarchy_ok and agree == 200,
    )
