"""Quantum dynamical maps on finite-dimensional systems.

Representation conversions (transfer/Choi/Kraus), positivity and
complete-positivity audits, assignment maps with consistency checks and
linear extension of tables, reduced dynamics with correlated initial
conditions, and compatibility-domain geometry.
"""

from .config import DEFAULT_TOL, set_tolerance, tolerance
from .matcore import (
    HermEig,
    herm_eig,
    kron,
    partial_trace,
    partial_transpose,
    trace_norm,
    unitary_at,
)
from .states import (
    Diagnostic,
    bell_projector,
    bell_state,
    expectation,
    from_bloch,
    singlet,
    to_bloch,
    validate,
)
from .channels import (
    KrausSet,
    PositivityReport,
    Superoperator,
    adjoint_map,
    choi_of,
    flip_superoperator,
    identity_superoperator,
    is_cp,
    is_n_positive,
    is_positive_map,
    kraus_from_choi,
    transfer_from_choi,
    transfer_from_kraus,
    transpose_superoperator,
)
from .opendyn import (
    AffineAssignment,
    Conflict,
    ExtensionResult,
    ProductAssignment,
    ReducedDynamics,
    TabulatedAssignment,
    TrajectoryReport,
    assign,
    correlated_assignment,
    dephasing_assignment,
    extend_linearly,
    inconsistency_analysis,
    pechukas_witness,
    reduced_map,
)
from .compatdomain import (
    DomainQuery,
    DomainReport,
    boundary_radius,
    convexity_check,
    landscape,
    membership,
)

__version__ = "0.1.0"
