"""The four benchmark workloads.

Each workload is a fixed rotation of item kinds; the seed varies only the
parameters inside each kind (dimensions come from the rotation, matrices
and coefficients from the seed). That keeps the share of every kind, and so
the latency mixture, the same from seed to seed. An item is one user-level
request: `run` drives it through the public qdynmaps API and returns what the
library produced, and `check` compares that against the numpy oracles in
`oracles.py`, raising `oracles.Mismatch` on disagreement.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from types import SimpleNamespace

import numpy as np

import oracles as orc
from oracles import close, require

HALF = np.eye(2, dtype=complex) / 2.0


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _herm(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def _unitary(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _density(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = g @ g.conj().T
    return w / np.trace(w).real


def _pure(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _signed(rng, lo: float, hi: float) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def _cptp_transfer(qd, rng, d: int, u: float | None = None) -> np.ndarray:
    """Random CPTP channel; u in [0, 1) picks the Kraus rank, else the rng does."""
    rank = int(rng.integers(1, d * d + 1)) if u is None else 1 + int(u * d * d)
    ks = qd.channels.random_cptp(d, rng, kraus_rank=rank)
    return orc.stinespring_transfer(ks.ops)


class Workload:
    """A rotation of item kinds repeated `cycles` times.

    A pool holds about as many items as one 20 s run completes, so a run sees
    mostly distinct inputs and a metric's seed-to-seed spread is that of
    hundreds of inputs, not of a short pool replayed many times."""

    name = ""
    rotation: tuple = ()
    cycles = 1

    def items(self, qd, rng, workdir) -> list:
        return [self.make(qd, rng, kind, workdir, k * len(self.rotation) + j)
                for k in range(self.cycles) for j, kind in enumerate(self.rotation)]

    def prepare(self, it) -> None:
        """Untimed per-item preparation before each run."""

    def stratum(self, rng, index: int, kind) -> float:
        """A uniform draw from this item's own slice of [0, 1).

        The pool's items of one kind split [0, 1) into equal slices, visited
        in a spread-out order, so every seed sees the same range of a
        parameter that drives an item's cost."""
        r = self.rotation
        per = r.count(kind)
        n = self.cycles * per
        k = (index // len(r)) * per + r[:index % len(r)].count(kind)
        step = next(s for s in range(round(0.618 * n), 2 * n + 1) if math.gcd(s, n) == 1)
        return ((k * step) % n + rng.random()) / n


# -- channel_audit -------------------------------------------------------------


class ChannelAudit(Workload):
    """Full audit of one map: CP verdict, Choi round trip, positivity and
    2-positivity searches, and a Kraus round trip when CP."""

    name = "channel_audit"
    # Latency forms one cluster per dimension (d=2 about 8 ms, d=3 about 15,
    # d=4 about 25). The shares 7/20, 8/20 and 5/20 put the median in the
    # middle of the d=3 cluster and the p90 inside the d=4 one, not on the gap
    # between two clusters where it would jump from run to run.
    rotation = (("cptp", 2), ("transpose", 2), ("flip_unitary", 2), ("mixture", 2),
                ("t_a", 2), ("near_threshold", 2), ("near_threshold", 2),
                ("cptp", 3), ("cptp", 3), ("transpose", 3), ("transpose", 3),
                ("mixture", 3), ("mixture", 3), ("t_a", 3), ("t_a", 3),
                ("cptp", 4), ("transpose", 4), ("transpose", 4), ("t_a", 4), ("t_a", 4))
    cycles = 60

    def make(self, qd, rng, kind_d, workdir, index):
        kind, d = kind_d
        it = SimpleNamespace(kind=kind, d=d, seed=_seed(rng))
        if kind == "cptp":
            t = _cptp_transfer(qd, rng, d, self.stratum(rng, index, kind_d))
        elif kind == "transpose":
            t = orc.transpose_transfer(d)
        elif kind == "flip_unitary":
            t = orc.flip_transfer() @ orc.conj_transfer(_unitary(rng, 2))
        elif kind == "mixture":
            p = rng.uniform(0.1, 0.9)
            t = p * orc.transpose_transfer(d) + (1 - p) * _cptp_transfer(qd, rng, d)
        elif kind == "t_a":
            it.a = rng.uniform(1.1, d - 0.1)
            t = orc.t_a_transfer(d, it.a)
        else:  # flip + depolarising, Choi lmin = 1.5p - 1 placed within 1e-7 of the threshold
            offset = _signed(rng, 5e-9, 1e-7)
            p = (1.0 + (-orc.TOL + offset)) / 1.5
            t = (1 - p) * orc.flip_transfer() + p * orc.depolarising_transfer(2)
        it.transfer = t
        it.map = qd.channels.Superoperator(dim_in=d, dim_out=d, transfer=t)
        return it

    def run(self, qd, it):
        ch = qd.channels
        cp = ch.is_cp(it.map)
        c = ch.choi_of(it.map)
        back = ch.transfer_from_choi(c, it.d, it.d)
        pos = ch.is_positive_map(it.map, seed=it.seed)
        npos = ch.is_n_positive(it.map, 2, seed=it.seed)
        kraus = ch.transfer_from_kraus(ch.kraus_from_choi(c, it.d, it.d)) if cp.is_cp else None
        return cp, c, back, pos, npos, kraus

    def check(self, it, out, stats):
        cp, c, back, pos, npos, kraus = out
        d, t = it.d, it.transfer
        oc = orc.choi(t, d, d)
        close(c, oc, 1e-12, "choi_of")
        close(back.transfer, t, 1e-12, "transfer_from_choi round trip")
        lam, thr = orc.lmin(oc), orc.threshold(oc)
        close(cp.min_choi_eigenvalue, lam, orc.EIG_TOL, "is_cp min Choi eigenvalue")
        orc.verdict_matches(cp.is_cp, lam, thr, "is_cp")
        if kraus is not None:
            close(kraus.transfer, t, 1e-8, "kraus_from_choi round trip")

        certified = pos.is_positive == "certified-violation"
        if certified:
            w_lam = orc.lmin(orc.apply(t, pos.witness, d))
            close(pos.witness_min_eigenvalue, w_lam, orc.EIG_TOL, "positivity witness")
            require(w_lam < 0, "positivity witness image is PSD")
        if it.kind == "t_a":
            stats["search.known_nonpositive"] += 1
            stats["search.certified"] += certified
            require(certified, "T_a not certified non-positive")
            close(pos.witness_min_eigenvalue, (1 - it.a) / (d - it.a), 1e-3, "T_a witness")
        else:
            require(not certified, f"{it.kind} is positive but got certified-violation")

        n_cert = npos.is_positive == "certified-violation"
        if n_cert:
            w_lam = orc.lmin(orc.extended_image(oc, npos.witness, d, d, 2))
            close(npos.witness_min_eigenvalue, w_lam, orc.EIG_TOL, "2-positivity witness")
            require(w_lam < 0, "2-positivity witness image is PSD")
        if lam >= thr + orc.EDGE:
            require(not n_cert, "CP map got a 2-positivity violation")
        # Maps known not to be 2-positive: T_a, the transpose, and every NCP
        # qubit map (for qubits 2-positivity is complete positivity).
        if it.kind in ("t_a", "transpose") or (d == 2 and lam < thr - orc.EDGE):
            stats["search.known_nonpositive"] += 1
            stats["search.certified"] += n_cert
        if it.kind == "transpose":
            require(n_cert, "transpose passed 2-positivity")
            close(npos.witness_min_eigenvalue, -0.5, orc.EIG_TOL, "transpose 2-positivity")
        elif it.kind in ("t_a", "flip_unitary"):
            require(n_cert, f"{it.kind} passed 2-positivity")


# -- open_dynamics -------------------------------------------------------------


class OpenDynamics(Workload):
    """One `reduce`-style request on a 21-point time grid, then the
    inconsistency analysis of the same assignment."""

    name = "open_dynamics"
    rotation = tuple((k, d_r) for d_r in (2, 3)
                     for k in ("product", "correlated", "dephasing", "table", "conflict"))
    cycles = 50
    points = 21

    def make(self, qd, rng, kind_dr, workdir, index):
        kind, d_r = kind_dr
        od = qd.opendyn
        it = SimpleNamespace(kind=kind, d_r=d_r)
        tau = _density(rng, d_r)
        g = np.diag([1.0, -1.0] + [0.0] * (d_r - 2))
        k = (_signed(rng, 0.05, 0.95) / 4.0) * np.kron(orc.SZ, g)
        if kind == "product":
            it.oracle = orc.Assignment(tau)
            it.phi = od.ProductAssignment(rho_r=tau, d_s=2)
        elif kind == "dephasing":
            it.oracle = orc.Assignment(tau, dephase=True)
            it.phi = od.dephasing_assignment(tau)
        elif kind == "correlated":
            it.oracle = orc.Assignment(np.eye(d_r) / d_r, k)
            lin = np.stack([orc.vec(np.kron(orc.unvec(np.eye(4)[:, col], 2), it.oracle.tau))
                            for col in range(4)], axis=1)
            it.phi = od.AffineAssignment(linear=lin, constant=k, d_s=2, d_r=d_r)
        elif kind == "table":
            it.oracle = orc.Assignment(tau, k)
            pairs = tuple((r, it.oracle(r)) for r in (_density(rng, 2) for _ in range(4)))
            it.phi = od.TabulatedAssignment(pairs=pairs, d_s=2, d_r=d_r)
        else:  # x+/x- carry distinct pure reservoirs, z+/z- share I/d_r: no linear extension
            v = _unitary(rng, 2)
            xs = [v @ orc.bloch_state(s) @ v.conj().T for s in ((1, 0, 0), (-1, 0, 0))]
            zs = [v @ orc.bloch_state(s) @ v.conj().T for s in ((0, 0, 1), (0, 0, -1))]
            psi, mixed = _pure(rng, d_r), np.eye(d_r) / d_r
            it.gap = orc.trace_norm((np.kron(xs[0], psi) + np.kron(xs[1], mixed)) / 2
                                    - np.kron(np.eye(2), mixed) / 2)
            pairs = ((xs[0], np.kron(xs[0], psi)), (xs[1], np.kron(xs[1], mixed)),
                     (zs[0], np.kron(zs[0], mixed)), (zs[1], np.kron(zs[1], mixed)))
            it.phi = od.TabulatedAssignment(pairs=pairs, d_s=2, d_r=d_r)
            return it
        it.h = _herm(rng, 2 * d_r)
        it.times = np.linspace(0.0, rng.uniform(0.5, 2.0), self.points)
        it.rho_s = _density(rng, 2)
        it.true_initial = np.kron(it.rho_s, _density(rng, d_r))
        return it

    def run(self, qd, it):
        od, cd = qd.opendyn, qd.compatdomain
        phi = it.phi
        if isinstance(phi, od.TabulatedAssignment):
            ext = od.extend_linearly(phi)
            if ext.outcome == "conflict":
                return ext
            phi = ext.extension
        gen = ("hamiltonian", it.h)
        rd = od.ReducedDynamics(phi=phi, generator=gen)
        rows = []
        for t in it.times:
            lam = od.reduced_map(rd, float(t))
            cp = qd.channels.is_cp(lam)
            q = cd.DomainQuery(phi=phi, predicate="lambda", rd=rd, t=float(t))
            rows.append((lam, cp, lam.is_trace_preserving(), cd.membership(q, HALF)))
        return rows, od.inconsistency_analysis(phi, it.true_initial, gen, it.times)

    def check(self, it, out, stats):
        if it.kind == "conflict":
            require(out.outcome == "conflict", "conflict table was extended")
            cf = out.conflict
            require(orc.trace_norm(cf.recombined_a - cf.recombined_b) <= 1e-9,
                    "conflict decompositions recombine to different states")
            close(cf.image_gap, it.gap, 1e-9, "conflict image gap")
            return
        rows, traj = out
        phi, d_r = it.oracle, it.d_r
        stats["time_points"] += len(it.times)
        offset = orc.trace_norm(it.rho_s - orc.ptrace_r(phi(it.rho_s), 2, d_r))
        close(traj.fixed_point_offset, offset, 1e-9, "fixed-point offset")
        for t, (lam, cp, tp, (member, m_lam)), dev in zip(it.times, rows, traj.deviation):
            u = orc.propagator(it.h, t)
            big = orc.reduced_transfer(phi, u)
            close(lam.transfer, big, 1e-9, f"reduced map at t={t:.3f}")
            oc = orc.choi(big, 2, 2)
            lmin = orc.lmin(oc)
            close(cp.min_choi_eigenvalue, lmin, orc.EIG_TOL, "reduced map Choi eigenvalue")
            orc.verdict_matches(cp.is_cp, lmin, orc.threshold(oc), "reduced map is_cp")
            require(tp == orc.is_trace_preserving(big, 2, 2), "trace preservation verdict")
            img = orc.apply(big, HALF, 2)
            c_lam = orc.lmin(img)
            close(m_lam, c_lam, orc.eig_tol(img), "lambda membership of I/2")
            orc.verdict_matches(member, c_lam, orc.threshold(img), "lambda membership of I/2")
            ud = u.conj().T
            true_t = orc.ptrace_r(u @ it.true_initial @ ud, 2, d_r)
            proxy_t = orc.ptrace_r(u @ phi(it.rho_s) @ ud, 2, d_r)
            close(dev, orc.trace_norm(true_t - proxy_t), 1e-9, "trajectory deviation")


# -- domain_geometry -----------------------------------------------------------


def _landscape_points() -> np.ndarray:
    shells = [r * orc.fibonacci(100) for r in np.linspace(0.1, 1.0, 10)]
    return np.concatenate([np.zeros((1, 3))] + shells)


def _lambda_transfer(it) -> np.ndarray:
    """Oracle transfer matrix of the lambda predicate, computed on first use."""
    if it.lam is None:
        it.lam = orc.reduced_transfer(it.oracle, orc.propagator(it.h, it.t))
    return it.lam


def _images(it, rhos: np.ndarray) -> np.ndarray:
    """Predicate images of a stack of qubit states."""
    if it.predicate == "phi":
        return it.oracle.batch(rhos)
    vecs = rhos.transpose(0, 2, 1).reshape(len(rhos), -1)
    return (vecs @ _lambda_transfer(it).T).reshape(len(rhos), 2, 2).transpose(0, 2, 1)


def _member_at(it, r: float, n) -> bool:
    img = _images(it, orc.bloch_state(r * n)[None])[0]
    return orc.lmin(img) >= orc.threshold(img)


def check_radius(it, n, radius: float, what: str) -> None:
    """phi radii against the closed form; lambda radii bracketed at r -/+ 1e-7."""
    if it.predicate == "phi":
        close(radius, orc.correlated_radius(it.c, n), orc.RADIUS_TOL, what)
        return
    require(_member_at(it, max(radius - orc.RADIUS_TOL, 0.0), n), f"{what}: inside point excluded")
    if radius < 1.0:
        require(not _member_at(it, min(radius + orc.RADIUS_TOL, 1.0), n),
                f"{what}: outside point included")


class DomainGeometry(Workload):
    """One domain report for a correlated assignment under the phi or the
    lambda predicate."""

    name = "domain_geometry"
    # lambda items cost about 1.5x phi items. With an even split the median
    # sits on the gap between the two clusters; 3 lambda to 2 phi moves it
    # into the lambda cluster.
    rotation = ("phi", "lambda", "phi", "lambda", "lambda")
    cycles = 100
    # |c| is stratified over [0.05, 0.9]. The phi domain shrinks as |c| -> 1
    # and convexity_check samples members by rejection, so its cost grows
    # steeply (about 0.2 s per item at 0.9); near 0.95 it raises "could not
    # sample a domain member" after 1000 tries.
    c_max = 0.9
    rays = 6
    trials = 25

    def make(self, qd, rng, predicate, workdir, index):
        od, cd = qd.opendyn, qd.compatdomain
        c = float(rng.choice((-1.0, 1.0))) * (0.05 + (self.c_max - 0.05)
                                               * self.stratum(rng, index, predicate))
        it = SimpleNamespace(kind=predicate, predicate=predicate, c=c, seed=_seed(rng),
                             oracle=orc.correlated(c))
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        it.rays = orc.fibonacci(self.rays) @ rot.T
        it.phi = od.correlated_assignment(c)
        rd, t = None, 0.0
        if predicate == "lambda":
            # Short times: at t ~ 1 a random H makes the lambda domain the
            # whole ball for about 90% of items, so boundary_radius would
            # rarely bisect and the few items that do would set the p90.
            it.h, it.t, it.lam = _herm(rng, 4), float(rng.uniform(0.05, 0.3)), None
            rd, t = od.ReducedDynamics(phi=it.phi, generator=("hamiltonian", it.h)), it.t
        it.query = cd.DomainQuery(phi=it.phi, predicate=predicate, rd=rd, t=t)
        return it

    def run(self, qd, it):
        cd = qd.compatdomain
        q = it.query
        center = cd.membership(q, HALF)
        radii = [cd.boundary_radius(q, n) for n in it.rays]
        land = cd.landscape(q, resolution=1)
        conv = cd.convexity_check(q, trials=self.trials, seed=it.seed)
        wit = qd.opendyn.pechukas_witness(it.phi, seed=it.seed) if it.predicate == "phi" else None
        return center, radii, land, conv, wit

    def check(self, it, out, stats):
        (member, c_lam), radii, land, conv, wit = out
        img = _images(it, HALF[None])[0]
        close(c_lam, orc.lmin(img), orc.eig_tol(img), "I/2 membership eigenvalue")
        orc.verdict_matches(member, c_lam, orc.threshold(img), "I/2 membership")
        for k, (n, r) in enumerate(zip(it.rays, radii)):
            check_radius(it, n, r, f"radius along ray {k}")
        pts = _landscape_points()
        require(land.samples.shape == (len(pts), 4), f"landscape shape {land.samples.shape}")
        close(land.samples[:, :3], pts, 1e-12, "landscape grid")
        imgs = _images(it, orc.bloch_states(pts))
        close(land.samples[:, 3], np.linalg.eigvalsh(imgs)[:, 0], orc.eig_tol(imgs),
              "landscape eigenvalues")
        require(conv.convexity_trials == self.trials, "convexity trial count")
        require(conv.convexity_failures == 0, f"{conv.convexity_failures} convexity failures")
        stats["convexity_trials"] += conv.convexity_trials
        if wit is not None:
            witness, w_lam = wit
            require(witness is not None, "no Pechukas witness for a correlated assignment")
            close(w_lam, -abs(it.c) / 4.0, 1e-3, "Pechukas witness eigenvalue")
            close(w_lam, orc.lmin(it.oracle(witness)), orc.EIG_TOL, "Pechukas witness image")


# -- cli_reports ---------------------------------------------------------------


def _mat(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def _superop(t: np.ndarray, d: int) -> dict:
    return {"dim_in": d, "dim_out": d, "kind": "transfer", "data": [_mat(t)]}


def _affine(phi: orc.Assignment) -> dict:
    lin = np.stack([orc.vec(phi(orc.unvec(np.eye(4)[:, col], 2)) - (col in (0, 3)) * phi.k)
                    for col in range(4)], axis=1)
    return {"variant": "affine", "d_s": 2, "d_r": phi.d_r,
            "linear": {"re": lin.real.tolist(), "im": lin.imag.tolist()},
            "constant": _mat(phi.k)}


class CliReports(Workload):
    """One in-process `qdynmaps` command per item, reading JSON files written
    at set-up and writing `--out` (and `--csv`) into the work directory."""

    name = "cli_reports"
    # Most kinds form tight latency clusters between 0.4 and 8 ms; domain
    # calls take 15-20 ms and the Pechukas case 40 ms. Three inconsistent
    # cases (about 3.6 ms) in 17 put the median inside their cluster and the
    # p90 inside the domain:phi one, not on a gap between two clusters.
    rotation = ("case:flip", "case:four-state", "case:pechukas", "case:correlated",
                "case:inconsistent", "check:cptp", "check:t_a", "check:transpose",
                "case:inconsistent", "check:correlated", "check:dephasing", "reduce",
                "domain:phi", "case:inconsistent", "domain:lambda", "bad:missing",
                "bad:shape")
    cycles = 40

    def make(self, qd, rng, kind, workdir, index):
        it = SimpleNamespace(kind=kind, reads=[], csv=None,
                             out=os.path.join(workdir, "out.json"))
        seed = str(_seed(rng) % 100000)
        cycle = index // len(self.rotation)

        def put(name, obj):
            path = os.path.join(workdir, f"{index:03d}-{name}.json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            it.reads.append(path)
            return path

        head = ["--seed", seed, "--out", it.out]
        if kind.startswith("case:"):
            it.c = float(rng.uniform(0.05, 0.95))
            it.argv = head + ["paper-case", kind[5:], "--c", repr(it.c)]
            it.expect_rc = 0
        elif kind == "check:cptp":
            it.d = 2 + cycle % 2
            it.transfer = _cptp_transfer(qd, rng, it.d)
            it.argv = head + ["check", put("cptp", _superop(it.transfer, it.d))]
            it.expect_rc = 0
        elif kind == "check:t_a":
            it.d = 3
            it.transfer = orc.t_a_transfer(3, rng.uniform(1.1, 2.9))
            it.argv = head + ["check", put("t_a", _superop(it.transfer, 3))]
            it.expect_rc = 2
        elif kind == "check:transpose":
            it.d = 2
            it.transfer = orc.transpose_transfer(2)
            it.argv = head + ["check", put("transpose", _superop(it.transfer, 2))]
            it.expect_rc = 2
        elif kind == "check:correlated":
            it.argv = head + ["check", put("corr", _affine(orc.correlated(_signed(rng, 0.05, 0.95))))]
            it.expect_rc = 0
        elif kind == "check:dephasing":
            phi = orc.Assignment(_density(rng, 2), dephase=True)
            it.argv = head + ["check", put("deph", _affine(phi))]
            it.expect_rc = 2
        elif kind == "reduce":
            it.oracle = (orc.Assignment(_density(rng, 2)) if cycle % 2 == 0
                         else orc.correlated(_signed(rng, 0.05, 0.95)))
            it.h = _herm(rng, 4)
            it.times = np.linspace(0.0, 1.0, 6)
            gen = put("gen", {"kind": "hamiltonian", "matrix": _mat(it.h)})
            it.argv = head + ["reduce", put("assign", _affine(it.oracle)), gen, "--times", "0:1:6"]
        elif kind.startswith("domain:"):
            it.c = _signed(rng, 0.05, 0.95)
            it.oracle = orc.correlated(it.c)
            it.predicate = kind[7:]
            args = ["domain", put("corr", _affine(it.oracle))]
            if it.predicate == "phi":
                it.csv = os.path.join(workdir, "out.csv")
                args += ["--csv", it.csv]
            else:
                it.h, it.t, it.lam = _herm(rng, 4), float(rng.uniform(0.2, 2.0)), None
                gen = put("gen", {"kind": "hamiltonian", "matrix": _mat(it.h)})
                args += ["--predicate", "lambda", "--generator", gen, "--t", repr(it.t)]
            it.argv = head + args
            it.expect_rc = 0
        else:
            bad = _superop(_cptp_transfer(qd, rng, 2), 2)
            if kind == "bad:missing":
                del bad[("data", "kind", "dim_out")[cycle % 3]]
            else:
                bad["data"] = [_mat(np.eye(3))]
            it.argv = head + ["check", put("bad", bad)]
            it.expect_rc = 1
        it.read_bytes = sum(os.path.getsize(p) for p in it.reads)
        return it

    def nonfinite_accepted(self, qd, rng, workdir) -> int:
        """How many of three transfer matrices holding NaN, inf or -inf
        `check` fails to reject with exit 1.

        Non-finite input must be rejected, but the library does not check
        for it yet (it exits 2 with no-violation-found), so these files stay
        out of the timed mix, whose items must all pass; traced runs report
        this count instead."""
        accepted = 0
        for value in ("nan", "inf", "-inf"):
            bad = _superop(_cptp_transfer(qd, rng, 2), 2)
            bad["data"][0]["re"][1][2] = float(value)
            path = os.path.join(workdir, f"nonfinite-{value}.json")
            with open(path, "w") as fh:
                json.dump(bad, fh)
            it = SimpleNamespace(argv=["--seed", "1", "--out", os.path.join(workdir, "nf.json"),
                                       "check", path])
            accepted += self.run(qd, it) != 1
        return accepted

    def run(self, qd, it):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return qd.cli.main(it.argv)

    def prepare(self, it):
        # Reports are written to fresh files. Truncating and rewriting an
        # existing file makes ext4 flush it on close (tens of milliseconds),
        # which would make item latency measure the disk, not qdynmaps.
        for path in (it.out, it.csv):
            if path and os.path.exists(path):
                os.remove(path)

    def check(self, it, rc, stats):
        stats["json.bytes_read"] += it.read_bytes
        stats["cli.input_errors"] += rc == 1
        for path in (it.out, it.csv):
            if path and os.path.exists(path):
                stats["json.bytes_written"] += os.path.getsize(path)
        if it.kind == "reduce":
            self._check_reduce(it, rc, stats)
            return
        require(rc == it.expect_rc, f"exit code {rc}, expected {it.expect_rc}")
        if rc == 1:
            return
        with open(it.out) as fh:
            rep = json.load(fh)
        if it.kind.startswith("case:"):
            require(rep["pass"] and all(c["pass"] for c in rep["checks"]), "paper case failed")
            vals = {c["label"]: c["value"] for c in rep["checks"]}
            if it.kind == "case:correlated":
                close(vals["boundary radius along +z"], 1 - it.c, orc.RADIUS_TOL, "+z radius")
                close(vals["boundary radius along +x"], np.sqrt(1 - it.c**2), orc.RADIUS_TOL,
                      "+x radius")
            elif it.kind == "case:pechukas":
                close(vals["witness min eigenvalue"], -it.c / 4, 1e-3, "witness eigenvalue")
        elif it.kind in ("check:cptp", "check:t_a", "check:transpose"):
            oc = orc.choi(it.transfer, it.d, it.d)
            lam = orc.lmin(oc)
            close(rep["min_choi_eigenvalue"], lam, orc.EIG_TOL, "check Choi eigenvalue")
            orc.verdict_matches(rep["cp"], lam, orc.threshold(oc), "check CP")
            require(rep["trace_preserving"] == orc.is_trace_preserving(it.transfer, it.d, it.d),
                    "check TP")
            want = "certified-violation" if it.kind == "check:t_a" else "no-violation-found"
            require(rep["positivity"] == want, f"positivity {rep['positivity']}, expected {want}")
        elif it.kind == "check:correlated":
            require(rep["consistent"] and rep["linearity_residual"] <= 1e-9, "affine audit")
        elif it.kind == "check:dephasing":
            require(not rep["consistent"], "dephasing assignment passed consistency")
        else:
            self._check_domain(it, rep)

    def _check_domain(self, it, rep):
        img = _images(it, HALF[None])[0]
        close(rep["center"]["min_eigenvalue"], orc.lmin(img), orc.eig_tol(img),
              "center eigenvalue")
        require(rep["center"]["member"], "I/2 outside the domain")
        require(len(rep["radii"]) == 6, "radius count")
        for entry in rep["radii"]:
            check_radius(it, np.asarray(entry["direction"], dtype=float), entry["radius"],
                         f"radius along {entry['direction']}")
        pts = _landscape_points()
        require(len(rep["samples"]) == len(pts), "landscape sample count")
        got = np.array([s["lmin"] for s in rep["samples"]])
        imgs = _images(it, orc.bloch_states(pts))
        close(got, np.linalg.eigvalsh(imgs)[:, 0], orc.eig_tol(imgs), "landscape eigenvalues")
        if it.csv:
            with open(it.csv) as fh:
                require(sum(1 for _ in fh) == len(pts) + 1, "CSV row count")

    def _check_reduce(self, it, rc, stats):
        with open(it.out) as fh:
            rep = json.load(fh)
        stats["time_points"] += len(it.times)
        negative = False
        for t, entry in zip(it.times, rep["maps"]):
            u = orc.propagator(it.h, t)
            big = orc.reduced_transfer(it.oracle, u)
            oc = orc.choi(big, 2, 2)
            lam, thr = orc.lmin(oc), orc.threshold(oc)
            close(entry["min_choi_eigenvalue"], lam, orc.EIG_TOL, "reduce Choi eigenvalue")
            orc.verdict_matches(entry["cp"], lam, thr, "reduce CP")
            img = orc.apply(big, HALF, 2)
            close(entry["center_min_eigenvalue"], orc.lmin(img), orc.eig_tol(img),
                  "reduce center")
            negative |= not entry["cp"] or not entry["trace_preserving"]
        require(len(rep["maps"]) == len(it.times), "reduce time points")
        require(rc == (2 if negative else 0), f"reduce exit code {rc}")


WORKLOADS = {w.name: w for w in (ChannelAudit(), OpenDynamics(), DomainGeometry(), CliReports())}
