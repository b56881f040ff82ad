"""The pure-state search as it ran before the see-saw, kept as a test oracle.

``ref_minimize_output_min_eig`` scores a grid (a Fibonacci lattice for qubit
inputs, seeded uniform random pure states otherwise, after the extra
candidates), then runs a 50-step shrinking random descent from its best
point. It returns (best lmin, best input state vector, samples used), like
``channels.minimize_output_min_eig``.
"""

import numpy as np

from qdynmaps import channels, matcore


def ref_minimize_output_min_eig(apply_batch, dim, budget=2000, seed=0, extra_candidates=None):
    """The search as it was before the see-saw: a grid, then a 50-step
    shrinking random descent from its best point, at every dimension."""
    rng = np.random.default_rng(seed)
    if dim == 2:
        vs = channels._bloch_to_vectors(channels.fibonacci_bloch(budget))
    else:
        g = rng.standard_normal((budget, dim)) + 1j * rng.standard_normal((budget, dim))
        vs = g / np.linalg.norm(g, axis=1, keepdims=True)
    if extra_candidates is not None:
        vs = np.concatenate([extra_candidates, vs], axis=0)
    samples = vs.shape[0]
    vals = matcore.min_eig_batch(apply_batch(channels._pure_batch_from_vectors(vs)))
    best = int(np.argmin(vals))
    best_val = float(vals[best])
    best_vec = vs[best]
    sigma = 0.5
    proposals = 32
    for _ in range(50):
        g = rng.standard_normal((proposals, dim)) + 1j * rng.standard_normal((proposals, dim))
        cand = best_vec[None, :] + sigma * g
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cv = matcore.min_eig_batch(apply_batch(channels._pure_batch_from_vectors(cand)))
        samples += proposals
        k = int(np.argmin(cv))
        if cv[k] < best_val:
            best_val = float(cv[k])
            best_vec = cand[k]
        sigma *= 0.78
    return best_val, best_vec, samples
