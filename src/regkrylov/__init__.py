"""Krylov-subspace regularization solvers and diagnostics for symmetric
discrete ill-posed problems."""

from .exceptions import (
    ConfigError,
    ContractViolation,
    NumericalError,
    RegKrylovError,
    ResourceLimitError,
)
from .linalg import (
    SpectralDecomposition,
    SymmetricMatrix,
    TridiagonalRect,
    least_squares,
    spectral_norm,
    symmetric_eig,
)
from .problems import (
    DiscretizedProblem,
    NoiseRealization,
    SyntheticSpec,
    add_noise,
    check_noise_level,
    generate,
    generate_synthetic,
    load_problem,
    save_problem,
    transition_index,
)
from .krylov import (
    BidiagFactorization,
    LanczosFactorization,
    golub_kahan,
    lanczos,
)
from .solvers import (
    IterateTrace,
    LanczosCache,
    hybrid_trace,
    lsqr_trace,
    minres_trace,
    mr2_trace,
    tsvd_trace,
)
from .diagnostics import (
    CoefficientProfile,
    angle_sine,
    coefficient_profile,
    filter_factors,
    filtered_solution,
    harmonic_ritz,
    lanczos_decay_table,
    lcurve_corner,
    lcurve_points,
    lowrank_error_sequence,
    roundoff_floor,
    semiconvergence_index,
    tail_coupling,
)

__version__ = "0.1.0"
