"""Earlier pure-state searches, kept as test oracles.

``ref_minimize_output_min_eig`` is the search as it ran before the see-saw:
it scores a grid (a Fibonacci lattice for qubit inputs, seeded uniform
random pure states otherwise, after the extra candidates), then runs a
50-step shrinking random descent from its best point. It returns (best
lmin, best input state vector, samples used), like
``channels.minimize_output_min_eig``.

``ref_seesaw`` is the d >= 3 polish as it ran before Newton steps: the
plain see-saw, a drop-in for ``channels._seesaw``.
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


def ref_seesaw(t, psi, samples):
    """Plain see-saw chains from the (K, dim_in) start vectors psi: phi
    becomes the bottom eigenvector of t(psi psi^dag), then psi that of
    adj(t)(phi phi^dag), with ``channels._seesaw``'s step cap and stopping
    rule. Each new psi counts as a sample."""
    adj = channels.adjoint_map(t)
    lmin, phi = matcore.min_eigpair_batch(t.apply_batch(channels._pure_batch_from_vectors(psi)))
    best = int(np.argmin(lmin))
    best_val, best_vec = float(lmin[best]), psi[best]
    for _ in range(channels.SEESAW_STEPS):
        _, psi = matcore.min_eigpair_batch(adj.apply_batch(channels._pure_batch_from_vectors(phi)))
        lmin, phi = matcore.min_eigpair_batch(t.apply_batch(channels._pure_batch_from_vectors(psi)))
        samples += len(psi)
        k = int(np.argmin(lmin))
        gain = best_val - float(lmin[k])
        if gain > 0:
            best_val, best_vec = float(lmin[k]), psi[k]
        if gain <= 1e-12 * max(1.0, abs(best_val)):
            break
    return best_val, best_vec, samples
