"""A positive map that is not completely positive, and why it matters.

The Bloch-ball reflection (x, y, z) -> (x, y, -z) sends every single-qubit
state to a valid state. Applied to one half of a singlet, however, it
produces an operator whose expectation against a Bell projector is -1/2 --
an impossible value for any state. Positivity on the system alone is not
enough; the Choi matrix tells the full story.
"""

import numpy as np

from qdynmaps import channels, matcore, states

flip = channels.flip_superoperator()

r = (0.3, -0.5, 0.7)
image = states.to_bloch(flip.apply(states.from_bloch(r)))
print(f"single-qubit action: Bloch {r} -> {tuple(round(float(v), 4) for v in image)}")

pos = channels.is_positive_map(flip)
print(f"positivity: {pos.is_positive}, certificate {pos.certificate} "
      f"(margin {pos.certificate_margin:.1e}, no states sampled)")

spectrum = matcore.herm_eig(channels.choi_of(flip)).eigenvalues
print(f"\nChoi spectrum: {np.round(spectrum, 6)}")
print(f"completely positive: {channels.is_cp(flip).is_cp}")

extended = channels.extend_with_identity(flip, 2)
out = extended.apply(states.singlet())
val = states.expectation(out, states.bell_projector("psi+"))
lmin = matcore.min_eig(out)

print("\napply (flip (x) identity) to the singlet:")
print(f"  minimum eigenvalue of the output: {lmin:+.4f}  (not a state)")
print(f"  Bell-projector expectation:       {val:+.4f}  (below 0: no state can do this)")
print("\nthe negative Choi eigenvalue and the negative expectation are the "
      "same failure seen in two representations")
