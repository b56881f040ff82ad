"""Correlated assignment maps: a witness of lost positivity, and the domain
that survives.

A linear, consistent assignment map rho_S -> rho_SR that builds in
system-reservoir correlations cannot send every state to a positive joint
state (Pechukas). This demo decides that from the transfer matrix, finds an
explicit witness for the z-correlated family, then maps out the set of
states the assignment does handle -- a lens-shaped convex region of the
Bloch ball -- and writes it to CSV for plotting.
"""

import numpy as np

from qdynmaps import compatdomain, matcore, opendyn, states

c = 0.5
phi = opendyn.correlated_assignment(c)
print(f"assignment: rho -> rho (x) I/2 + {c}/4 sigma_z (x) sigma_z")

rep = opendyn.pechukas_report(phi)
print(f"consistency residual {rep.consistency_residual:.2e}, product deviation "
      f"{rep.product_deviation:.4f}: {rep.verdict} (decided from the transfer matrix)")

witness, lmin = opendyn.pechukas_witness(phi)
print(f"\nwitness: min eigenvalue {lmin:+.4f} at Bloch "
      f"{tuple(round(float(v), 4) for v in states.to_bloch(witness))}")
print("a pure state at the z pole: its image is not a state, so the "
      "assignment is only partially defined")

q = compatdomain.DomainQuery(phi=phi, predicate="phi")
print("\nboundary radii of the compatibility domain:")
for d in ((0, 0, 1), (1, 0, 0), (1, 1, 1)):
    rad = compatdomain.boundary_radius(q, d)
    print(f"  along {d}: {rad:.6f}")
print(f"(z axis: 1 - c = {1 - c}; x axis: sqrt(1 - c^2) = {np.sqrt(1 - c * c):.6f})")

rep = compatdomain.landscape(q, resolution=1)
outside = int((rep.samples[:, 3] < -1e-8).sum())
print(f"\nlandscape: {len(rep.samples)} grid points, {outside} outside the domain")

conv = compatdomain.convexity_check(q, trials=200, seed=0)
print(f"convexity check: {conv.convexity_failures}/{conv.convexity_trials} "
      "midpoint failures (the domain is convex)")

path = "domain_landscape.csv"
with open(path, "w") as fh:
    fh.write(compatdomain.report_to_csv(rep))
print(f"\nwrote {path} (columns rx,ry,rz,lmin) for plotting")
