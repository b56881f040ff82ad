"""Global numerical tolerance configuration.

A matrix is accepted as positive semidefinite when its minimum eigenvalue
satisfies ``lmin >= -tol * max(1, |m|_inf)``. The tolerance is fixed once at
startup (the CLI sets it from ``--tol``); library users may call
:func:`set_tolerance` before doing any work. It is not meant to be flipped
mid-computation.
"""

import math

DEFAULT_TOL = 1e-9

_tol = DEFAULT_TOL


def tolerance() -> float:
    """Current global tolerance."""
    return _tol


def set_tolerance(tol: float) -> None:
    """Fix the global tolerance. Must be positive and finite."""
    global _tol
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    _tol = tol


def psd_threshold(max_abs_entry: float) -> float:
    """Acceptance threshold for the minimum eigenvalue of a PSD candidate."""
    return -_tol * max(1.0, max_abs_entry)


def consistency_threshold() -> float:
    """Largest residual accepted as zero by the consistency and linearity
    audits of assignment maps (tr_R Phi(rho) = rho, table interpolation)."""
    return 1e3 * _tol


def table_threshold() -> float:
    """Largest entry of a difference at which two matrices of an assignment
    table count as equal: a lookup's key match and the common-reservoir test
    of ``opendyn.extend_linearly``."""
    return _tol / 10.0


def product_threshold() -> float:
    """Largest entry of transfer - transfer(rho -> rho (x) tau) for which a
    consistent assignment counts as the product map. It is the tolerance
    itself: a correlation term just above it must still count as one."""
    return _tol


def witness_margin() -> float:
    """Margin, scaled by the image's largest entry, by which a searched witness
    value must lie below zero to certify a violation."""
    return 10.0 * _tol
