"""Write the pinned verdict corpus, tests/data/verdict_corpus.json.

Every case is built from fixed seeds and parameters, so the file is a pure
function of the library. For each case the corpus records each verdict, the
eigenvalue that decided it, and the witness value or boundary radius where
there is one. ``tests/test_verdict_corpus.py`` recomputes the cases and
compares them with the committed file.

Usage (from the repository root)::

    PYTHONPATH=src python tests/make_verdict_corpus.py [--out PATH]

A change that moves a witness value or radius on purpose regenerates the file
with this script and says which entries moved and why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from qdynmaps import channels, compatdomain, config, opendyn, states
from qdynmaps.channels import Superoperator, vec

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                           "verdict_corpus.json")
DIGITS = 12  # values are stored rounded to 1e-12


def _num(x) -> float | None:
    # + 0.0 turns a rounded -0.0 into 0.0
    return None if x is None else round(float(x), DIGITS) + 0.0


# -- maps -----------------------------------------------------------------------


def _transfer_map(t: np.ndarray, d: int) -> Superoperator:
    return Superoperator(dim_in=d, dim_out=d, transfer=np.asarray(t, dtype=complex))


def _t_a(d: int, a: float) -> Superoperator:
    """T_a(rho) = (tr(rho) I - a rho)/(d - a): CP for a <= 1/d, positive for a <= 1."""
    iv = vec(np.eye(d))
    return _transfer_map((np.outer(iv, iv) - a * np.eye(d * d)) / (d - a), d)


def _depolarising(d: int) -> Superoperator:
    """rho -> tr(rho) I/d."""
    iv = vec(np.eye(d))
    return _transfer_map(np.outer(iv / d, iv), d)


def _cptp(d: int, seed: int) -> Superoperator:
    return channels.transfer_from_kraus(channels.random_cptp(d, np.random.default_rng(seed)))


def map_cases() -> list[tuple[str, str, Superoperator]]:
    """(id, family, map) for every superoperator case."""
    cases = [
        ("identity-2", "stock", channels.identity_superoperator(2)),
        ("identity-3", "stock", channels.identity_superoperator(3)),
        ("flip", "stock", channels.flip_superoperator()),
        ("depolarising-2", "stock", _depolarising(2)),
    ]
    cases += [(f"transpose-{d}", "stock", channels.transpose_superoperator(d)) for d in (2, 3, 4)]
    cases += [(f"cptp-{d}-seed{s}", "random-cptp", _cptp(d, s))
              for d in (2, 3, 4) for s in (0, 1, 2)]
    cases += [(f"t_a-{d}-a{a}", "t_a", _t_a(d, a))
              for d, a in ((2, 0.3), (2, 0.9), (2, 1.5), (3, 0.5), (3, 1.0), (3, 2.0),
                           (4, 0.2), (4, 2.5))]
    for d in (2, 3):
        for p in (0.2, 0.5, 0.8):
            t = (p * channels.transpose_superoperator(d).transfer
                 + (1 - p) * _cptp(d, 10 + d).transfer)
            cases.append((f"transpose-mixture-{d}-p{p}", "transpose-mixture", _transfer_map(t, d)))
    # flip + depolarising noise: Choi lmin = 1.5p - 1 placed at -tol + offset
    flip, dep = channels.flip_superoperator().transfer, _depolarising(2).transfer
    for offset in (-1e-7, -3e-8, -5e-9, 5e-9, 3e-8, 1e-7):
        p = (1.0 - config.DEFAULT_TOL + offset) / 1.5
        cases.append((f"near-threshold-flip{offset:+.0e}", "near-threshold",
                      _transfer_map((1 - p) * flip + p * dep, 2)))
    return cases


# -- audits ---------------------------------------------------------------------


def _positivity(rep: channels.PositivityReport) -> dict:
    return {"verdict": rep.is_positive, "witness": _num(rep.witness_min_eigenvalue)}


def audit_map(t: Superoperator) -> dict:
    cp = channels.is_cp(t)
    out = {
        "cp": {"verdict": cp.is_cp, "eigenvalue": _num(cp.min_choi_eigenvalue)},
        "positive": _positivity(channels.is_positive_map(t)),
        "2-positive": _positivity(channels.is_n_positive(t, 2)),
    }
    if t.dim_in > 2:
        out[f"{t.dim_in}-positive"] = _positivity(channels.is_n_positive(t, t.dim_in))
    return out


def audit_assignment(c: float) -> dict:
    phi = opendyn.correlated_assignment(c)
    q = compatdomain.DomainQuery(phi=phi, predicate="phi")
    member, lmin = compatdomain.membership(q, states.I2 / 2.0)
    out = {"center": {"verdict": member, "eigenvalue": _num(lmin)}}
    if member:
        for axis, direction in (("z", (0, 0, 1)), ("x", (1, 0, 0))):
            out[f"radius+{axis}"] = {"radius": _num(compatdomain.boundary_radius(q, direction))}
    witness, value = opendyn.pechukas_witness(phi)
    out["pechukas"] = {"verdict": witness is not None, "witness": _num(value)}
    return out


def audit_reduced(c: float, t: float) -> dict:
    """The reduced map of the correlated assignment under a fixed random
    two-qubit Hamiltonian; NCP at some of the times used."""
    phi = opendyn.correlated_assignment(c)
    g = np.random.default_rng(1).standard_normal((2, 4, 4))
    h = (g[0] + 1j * g[1] + (g[0] + 1j * g[1]).conj().T) / 2.0
    rd = opendyn.ReducedDynamics(phi=phi, generator=("hamiltonian", h))
    out = audit_map(opendyn.reduced_map(rd, t))
    q = compatdomain.DomainQuery(phi=phi, predicate="lambda", rd=rd, t=t)
    member, lmin = compatdomain.membership(q, states.I2 / 2.0)
    out["center"] = {"verdict": member, "eigenvalue": _num(lmin)}
    return out


def build_corpus() -> dict:
    cases = [{"id": cid, "family": fam, "checks": audit_map(t)} for cid, fam, t in map_cases()]
    for c in (1e-6, 0.5, -0.75, 0.999999, 1.0, -1.0):
        cases.append({"id": f"correlated-c{c:+g}", "family": "correlated-assignment",
                      "checks": audit_assignment(c)})
    for c in (0.5, 0.9):
        for t in (0.0, 0.4, 1.1, 2.0):
            cases.append({"id": f"reduced-c{c}-t{t}", "family": "reduced-map",
                          "checks": audit_reduced(c, t)})
    return {"tol": config.DEFAULT_TOL, "digits": DIGITS, "cases": cases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT, help="where to write the corpus")
    args = parser.parse_args(argv)
    config.set_tolerance(config.DEFAULT_TOL)
    corpus = build_corpus()
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(corpus, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(corpus['cases'])} cases to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
