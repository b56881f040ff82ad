"""Command-line front end.

Subcommands: ``check`` (audit a superoperator or assignment-map file),
``paper-case`` (one-shot reproduction of the worked examples against pinned
expectations), ``reduce`` (reduced-dynamics run), ``domain`` (compatibility
domain report).

Exit codes: 0 clean, 2 negative finding or failed expectation, 1 usage or
input error. Human-readable output goes to stdout; machine JSON only to
``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import channels, compatdomain, config, matcore, opendyn, states

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")


class CliError(Exception):
    """Usage or input error; maps to exit code 1."""


def _write_out(obj: dict, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2)


def _parse_times(spec: str) -> np.ndarray:
    try:
        t0, t1, steps = spec.split(":")
        return np.linspace(float(t0), float(t1), int(steps))
    except ValueError:
        raise CliError(f"bad --times spec {spec!r}; expected t0:t1:steps")


# -- check --------------------------------------------------------------------


def cmd_check(args) -> int:
    obj = _load_json(args.file)
    negative = False
    report: dict = {"file": args.file, "tol": config.tolerance(), "seed": args.seed}

    if "kind" in obj:
        try:
            t = channels.superoperator_from_json(obj)
        except (ValueError, KeyError) as exc:
            raise CliError(str(exc))
        tp = t.is_trace_preserving()
        unital = t.is_unital()
        # the positivity report carries the CP verdict it was decided or searched from
        pos = channels.is_positive_map(t, budget=args.budget, seed=args.seed)
        print(f"TP: {'yes' if tp else 'NO'}")
        print(f"unital: {'yes' if unital else 'no'}")
        print(f"CP: {'yes' if pos.is_cp else 'NO'} (Choi lmin = {pos.min_choi_eigenvalue:.6f})")
        if pos.certificate == "choi":
            print(f"positivity: {pos.is_positive}"
                  " (decided from the Choi spectrum: CP maps are positive)")
        elif pos.certificate == "s-lemma":
            print(f"positivity: {pos.is_positive} (decided by the S-lemma: margin "
                  f"{pos.certificate_margin:.6g}, mu {pos.certificate_mu:.6g})")
        else:
            print(f"positivity search: {pos.is_positive} ({pos.samples_used} samples)")
        negative = (not tp) or (not pos.is_cp) or pos.is_positive == "certified-violation"
        report.update({
            "type": "superoperator",
            "trace_preserving": tp,
            "unital": unital,
            "cp": pos.is_cp,
            "min_choi_eigenvalue": pos.min_choi_eigenvalue,
            "positivity": pos.is_positive,
            "samples_used": pos.samples_used,
            "certificate": pos.certificate,
            "certificate_margin": pos.certificate_margin,
            "certificate_mu": pos.certificate_mu,
            "thresholds": {"witness": config.witness_margin()},
        })
    elif "variant" in obj:
        try:
            phi = opendyn.assignment_from_json(obj)
        except (ValueError, KeyError) as exc:
            raise CliError(str(exc))
        thresholds = {"consistency": config.consistency_threshold()}
        if isinstance(phi, opendyn.TabulatedAssignment):
            # a table is decided by its linear extension, or by the conflict
            # that forbids one; its consistency is read off its own pairs
            ext = opendyn.extend_linearly(phi)
            residual = phi.consistency_residual
            thresholds["table"] = config.table_threshold()
            audit = {"consistency_residual": residual,
                     "consistent": residual <= config.consistency_threshold(),
                     "linearity_residual": ext.residual}
            if ext.conflict is None:
                linearity = "extends linearly"
            else:
                audit["image_gap"] = ext.conflict.image_gap
                linearity = f"no linear extension: image gap {audit['image_gap']:.6f}"
        else:
            # an affine map is linear by construction; its consistency and
            # Pechukas verdict are decided from the transfer matrix
            rep = opendyn.pechukas_report(phi)
            thresholds["product"] = config.product_threshold()
            audit = {"consistency_residual": rep.consistency_residual,
                     "consistent": rep.consistent, "linearity_residual": 0.0,
                     "product_deviation": rep.product_deviation,
                     "pechukas": rep.verdict, "certificate": rep.certificate}
            linearity = "linear by construction"
        print(f"consistency: max residual {audit['consistency_residual']:.3e}"
              f" ({'ok' if audit['consistent'] else 'VIOLATED'})")
        print(f"linearity: max residual {audit['linearity_residual']:.3e} ({linearity})")
        if "pechukas" in audit:
            print(f"pechukas: {audit['pechukas']} (product deviation "
                  f"{audit['product_deviation']:.3e}, decided from the transfer matrix)")
        negative = not audit["consistent"] or "image_gap" in audit
        report.update({"type": "assignment", **audit, "thresholds": thresholds})
    else:
        raise CliError("file is neither a superoperator (kind) nor an assignment (variant)")

    report["negative_finding"] = negative
    _write_out(report, args.out)
    return EXIT_NEGATIVE if negative else EXIT_OK


# -- paper-case ---------------------------------------------------------------


class CaseChecks:
    """Accumulates labeled value/expectation comparisons for one case."""

    def __init__(self, name: str):
        self.name = name
        self.checks: list[dict] = []

    def expect(self, label: str, value: float, expected: float, tol: float) -> None:
        ok = abs(value - expected) <= tol
        self.checks.append({
            "label": label, "value": float(value),
            "expected": float(expected), "tol": tol, "pass": bool(ok),
        })

    def expect_true(self, label: str, ok: bool) -> None:
        self.checks.append({"label": label, "value": bool(ok),
                            "expected": True, "tol": 0.0, "pass": bool(ok)})

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def print_and_report(self, seed: int) -> dict:
        for c in self.checks:
            mark = "pass" if c["pass"] else "FAIL"
            if isinstance(c["value"], bool):
                print(f"  [{mark}] {c['label']}: {c['value']}")
            else:
                print(f"  [{mark}] {c['label']}: {c['value']:.9g}"
                      f" (expected {c['expected']:.9g} +/- {c['tol']:g})")
        print(f"case {self.name}: {'PASS' if self.passed else 'FAIL'}")
        return {"case": self.name, "checks": self.checks, "pass": self.passed,
                "seed": seed, "tol": config.tolerance()}


def _case_flip(args, cc: CaseChecks) -> None:
    flip = channels.flip_superoperator()
    ext = channels.extend_with_identity(flip, 2)
    out = ext.apply(states.singlet())
    val = states.expectation(out, states.bell_projector("psi+"))
    cc.expect("Bell-projector expectation after S-side flip of singlet", val, -0.5, 1e-10)
    spectrum = matcore.herm_eig(channels.choi_of(flip)).eigenvalues
    for lam, want in zip(spectrum, (-1.0, 1.0, 1.0, 1.0)):
        cc.expect(f"Choi eigenvalue {want:+.0f}", lam, want, 1e-9)
    pos = channels.is_positive_map(flip, budget=2000, seed=args.seed)
    cc.expect_true("positivity: no violation found", pos.is_positive == "no-violation-found")
    cc.expect_true("positivity decided by the S-lemma", pos.certificate == "s-lemma")


def _four_state_table() -> opendyn.TabulatedAssignment:
    x_plus = states.from_bloch((1, 0, 0))
    x_minus = states.from_bloch((-1, 0, 0))
    z_plus = states.from_bloch((0, 0, 1))
    z_minus = states.from_bloch((0, 0, -1))
    psi_plus = states.projector(states.ket(0, 2))
    psi_minus = states.projector(states.ket(1, 2))
    half = states.I2 / 2.0
    return opendyn.TabulatedAssignment(
        pairs=(
            (x_plus, matcore.kron(x_plus, psi_plus)),
            (x_minus, matcore.kron(x_minus, psi_minus)),
            (z_plus, matcore.kron(z_plus, half)),
            (z_minus, matcore.kron(z_minus, half)),
        ),
        d_s=2, d_r=2,
    )


def _case_four_state(args, cc: CaseChecks) -> None:
    result = opendyn.extend_linearly(_four_state_table())
    cc.expect_true("extension attempt returns a conflict", result.outcome == "conflict")
    if result.outcome == "conflict":
        conf = result.conflict
        half = states.I2 / 2.0
        cc.expect("decomposition A recombines to I/2",
                  matcore.trace_norm(conf.recombined_a - half), 0.0, 1e-12)
        cc.expect("decomposition B recombines to I/2",
                  matcore.trace_norm(conf.recombined_b - half), 0.0, 1e-12)
        cc.expect("image gap (trace norm)", conf.image_gap, 1.0, 1e-9)
        print("  decomposition A: " + ", ".join(
            f"{w:.4f} * state {k}" for w, k in zip(conf.weights_a, conf.indices_a)))
        print("  decomposition B: " + ", ".join(
            f"{w:.4f} * state {k}" for w, k in zip(conf.weights_b, conf.indices_b)))
    tau = states.from_bloch((0.2, 0.1, -0.3))
    tab = _four_state_table()
    product_tab = opendyn.TabulatedAssignment(
        pairs=tuple((a, matcore.kron(a, tau)) for a, _ in tab.pairs), d_s=2, d_r=2)
    res2 = opendyn.extend_linearly(product_tab)
    ok = (res2.outcome == "extension"
          and isinstance(res2.extension, opendyn.ProductAssignment)
          and matcore.mat_close(res2.extension.rho_r, tau, 1e-10))
    cc.expect_true("equal-reservoir table extends to the product map", ok)


def _case_pechukas(args, cc: CaseChecks) -> None:
    c = args.c
    phi = opendyn.correlated_assignment(c)
    witness, lmin = opendyn.pechukas_witness(phi, budget=2000, seed=args.seed)
    if c == 0.0:
        cc.expect_true("c = 0 is the product map: no witness", witness is None)
    else:
        cc.expect_true("witness found for the correlated assignment", witness is not None)
    cc.expect("witness min eigenvalue", lmin, -abs(c) / 4.0, 1e-3)
    if witness is not None:
        r = states.to_bloch(witness)
        cc.expect_true("witness is near-pure (Bloch radius >= 0.99)",
                       float(np.linalg.norm(r)) >= 0.99)
        cc.expect_true("witness lies along +/- z", abs(r[2]) >= 0.99)
    prod = opendyn.ProductAssignment(rho_r=states.I2 / 2.0, d_s=2)
    w2, _ = opendyn.pechukas_witness(prod, budget=2000, seed=args.seed)
    cc.expect_true("product assignment yields no witness", w2 is None)


def _case_correlated(args, cc: CaseChecks) -> None:
    c = args.c
    phi = opendyn.correlated_assignment(c)
    q = compatdomain.DomainQuery(phi=phi, predicate="phi")
    rz = compatdomain.boundary_radius(q, (0, 0, 1))
    rx = compatdomain.boundary_radius(q, (1, 0, 0))
    cc.expect("boundary radius along +z", rz, 1.0 - abs(c), 1e-6)
    cc.expect("boundary radius along +x", rx, float(np.sqrt(1.0 - c * c)), 1e-6)
    member, lmin = compatdomain.membership(q, states.I2 / 2.0)
    cc.expect_true("I/2 is a member", member)
    cc.expect("I/2 min eigenvalue", lmin, (1.0 - abs(c)) / 4.0, 1e-9)
    member_z, lmin_z = compatdomain.membership(q, states.from_bloch((0, 0, 1)))
    cc.expect_true("pure z+ is excluded", not member_z)
    cc.expect("z+ min eigenvalue", lmin_z, -abs(c) / 4.0, 1e-9)
    witness, wl = opendyn.pechukas_witness(phi, budget=2000, seed=args.seed)
    cc.expect("witness min eigenvalue", wl, -abs(c) / 4.0, 1e-3)


def _case_inconsistent(args, cc: CaseChecks) -> None:
    phi = opendyn.dephasing_assignment(states.I2 / 2.0)
    x_plus = states.from_bloch((1, 0, 0))
    true_initial = matcore.kron(x_plus, states.I2 / 2.0)
    h = matcore.kron(states.SIGMA_Z, states.SIGMA_X)
    times = _parse_times(args.times)
    rep = opendyn.inconsistency_analysis(phi, true_initial, ("hamiltonian", h), times)
    cc.expect("fixed-point offset", rep.fixed_point_offset, 1.0, 1e-9)
    cc.expect("delta(0) equals the offset", float(rep.deviation[0]),
              rep.fixed_point_offset, 1e-9)
    prod = opendyn.ProductAssignment(rho_r=states.I2 / 2.0, d_s=2)
    rep2 = opendyn.inconsistency_analysis(prod, true_initial, ("hamiltonian", h), times)
    cc.expect("consistent case offset", rep2.fixed_point_offset, 0.0, 1e-12)
    cc.expect("consistent case max deviation", float(rep2.deviation.max()), 0.0, 1e-10)


_CASES = {
    "flip": _case_flip,
    "four-state": _case_four_state,
    "pechukas": _case_pechukas,
    "correlated": _case_correlated,
    "inconsistent": _case_inconsistent,
}


def cmd_paper_case(args) -> int:
    if not -1.0 <= args.c <= 1.0:
        raise CliError(f"--c must lie in [-1, 1], got {args.c}")
    cc = CaseChecks(args.name)
    _CASES[args.name](args, cc)
    report = cc.print_and_report(args.seed)
    _write_out(report, args.out)
    return EXIT_OK if cc.passed else EXIT_NEGATIVE


# -- reduce -------------------------------------------------------------------


def _load_generator(path: str) -> tuple[str, np.ndarray]:
    obj = _load_json(path)
    try:
        kind = obj["kind"]
        mat = states.matrix_from_json(obj["matrix"])
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad generator file {path}: {exc}")
    if kind not in ("hamiltonian", "unitary"):
        raise CliError(f"generator kind must be hamiltonian or unitary, got {kind!r}")
    return kind, mat


def _extended(phi: opendyn.AssignmentMap) -> opendyn.AffineAssignment | None:
    """phi, with a table replaced by its linear extension; None (after saying
    so) when the table admits none."""
    if not isinstance(phi, opendyn.TabulatedAssignment):
        return phi
    result = opendyn.extend_linearly(phi)
    if result.outcome == "conflict":
        print("assignment table admits no linear extension (conflict)")
    return result.extension


def cmd_reduce(args) -> int:
    phi = _extended(opendyn.assignment_from_json(_load_json(args.assignment)))
    if phi is None:
        return EXIT_NEGATIVE
    generator = _load_generator(args.generator)
    try:
        rd = opendyn.ReducedDynamics(phi=phi, generator=generator)
    except ValueError as exc:
        raise CliError(str(exc))
    times = _parse_times(args.times)
    any_ncp = False
    outputs = []
    for t in times:
        lam = opendyn.reduced_map(rd, float(t))
        cp = channels.is_cp(lam)
        tp = lam.is_trace_preserving()
        entry = {
            "t": float(t),
            "cp": cp.is_cp,
            "min_choi_eigenvalue": cp.min_choi_eigenvalue,
            "trace_preserving": tp,
            "superoperator": channels.superoperator_to_json(lam),
        }
        if phi.d_s == 2:
            # lambda-membership of I/2, from the map already built
            member, lmin = matcore.psd_verdict(lam.apply(states.I2 / 2.0))
            entry["center_member"] = member
            entry["center_min_eigenvalue"] = lmin
            center = f", center member: {member} (lmin {lmin:.6f})"
        else:
            center = ""
        print(f"t = {t:.4f}: CP {'yes' if cp.is_cp else 'NO'}"
              f" (Choi lmin {cp.min_choi_eigenvalue:.6f}), TP {'yes' if tp else 'NO'}{center}")
        any_ncp = any_ncp or not cp.is_cp or not tp
        outputs.append(entry)
    _write_out({"times": [float(t) for t in times], "maps": outputs,
                "tol": config.tolerance(), "seed": args.seed}, args.out)
    return EXIT_NEGATIVE if any_ncp else EXIT_OK


# -- domain -------------------------------------------------------------------


_DEFAULT_RAYS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def cmd_domain(args) -> int:
    obj = _load_json(args.file)
    if "variant" not in obj:
        raise CliError("domain subject must be an assignment-map file")
    phi = _extended(opendyn.assignment_from_json(obj))
    if phi is None:
        return EXIT_NEGATIVE
    rd = None
    if args.predicate == "lambda":
        if not args.generator:
            raise CliError("--predicate lambda needs --generator")
        rd = opendyn.ReducedDynamics(phi=phi, generator=_load_generator(args.generator))
    q = compatdomain.DomainQuery(phi=phi, predicate=args.predicate, rd=rd, t=args.t)

    if phi.d_s != 2:
        raise CliError("geometry reports need a qubit subject")
    rep = compatdomain.landscape(q, resolution=args.resolution)
    radii = []
    if rep.center_member:
        for d in _DEFAULT_RAYS:
            radii.append((d, compatdomain.boundary_radius(q, d)))
    rep = dataclasses.replace(rep, radii=tuple(radii), seed=args.seed)
    print(f"center I/2: member={rep.center_member} (lmin {rep.center_min_eigenvalue:.6f})")
    for d, r in rep.radii:
        print(f"radius along {d}: {r:.8f}")
    neg = rep.samples[rep.samples[:, 3] < -config.witness_margin()]
    print(f"landscape: {len(rep.samples)} samples, {len(neg)} outside the domain")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(compatdomain.report_to_csv(rep))
    _write_out(compatdomain.report_to_json(rep), args.out)
    return EXIT_OK if rep.center_member else EXIT_NEGATIVE


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdynmaps",
        description="Audit quantum dynamical maps: representations, positivity, "
                    "assignment maps, compatibility domains.",
    )
    parser.add_argument("--tol", type=float, default=config.DEFAULT_TOL,
                        help="global PSD/equality tolerance (default 1e-9)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all sampling searches (default 0)")
    parser.add_argument("--out", default=None, help="write machine-readable JSON here")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="audit a superoperator or assignment-map file")
    p_check.add_argument("file")
    p_check.add_argument("--budget", type=int, default=None,
                         help="states in the positivity search's grid, at least 0 "
                              "(default 2000 for qubit inputs, scored after the six Pauli "
                              "eigenstates; else 256 beside the Choi-spectrum seeds)")
    p_check.set_defaults(func=cmd_check)

    p_case = sub.add_parser("paper-case", help="reproduce a worked example")
    p_case.add_argument("name", choices=sorted(_CASES))
    p_case.add_argument("--c", type=float, default=0.5,
                        help="correlation strength for pechukas/correlated")
    p_case.add_argument("--times", default="0:2:21", help="t0:t1:steps for trajectory cases")
    p_case.set_defaults(func=cmd_paper_case)

    p_reduce = sub.add_parser("reduce", help="build reduced maps from an assignment + generator")
    p_reduce.add_argument("assignment")
    p_reduce.add_argument("generator")
    p_reduce.add_argument("--times", default="0:1:5", help="t0:t1:steps")
    p_reduce.set_defaults(func=cmd_reduce)

    p_domain = sub.add_parser("domain", help="compatibility-domain report")
    p_domain.add_argument("file")
    p_domain.add_argument("--predicate", choices=("phi", "lambda"), default="phi")
    p_domain.add_argument("--generator", default=None,
                          help="generator file (required for --predicate lambda)")
    p_domain.add_argument("--t", type=float, default=0.0,
                          help="evaluation time for lambda-level queries")
    p_domain.add_argument("--resolution", type=int, default=1)
    p_domain.add_argument("--csv", default=None, help="write rx,ry,rz,lmin CSV here")
    p_domain.set_defaults(func=cmd_domain)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config.set_tolerance(args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, KeyError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
