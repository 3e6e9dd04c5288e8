"""Tubal-rank tensor algebra and exact recovery by nuclear norm minimization.

Tensors are numpy arrays of shape (n1, n2, n3).  The package provides the
circular-convolution tensor product and its spectral toolkit (t-SVD, tubal
rank, tensor nuclear/spectral norms, singular value thresholding), two
measurement models (dense Gaussian maps and Bernoulli sampling masks), ADMM
solvers for exact recovery and completion, and an experiment harness for
recovery tables and phase-transition grids.
"""

from .errors import (
    DimMismatch,
    EmptyTensor,
    FrameSizeMismatch,
    IndexOutOfRange,
    InvalidEpsilon,
    InvalidParameter,
    InvalidRank,
    InvalidRate,
    InvalidSolverConfig,
    LengthMismatch,
    MapTooLarge,
    NegativeThreshold,
    NonFiniteValues,
    SymmetryViolation,
    TooLarge,
    TubalError,
    UnsupportedFormat,
    ZeroMeasurements,
)
from .lab import (
    PhaseCell,
    PhaseGrid,
    RecoveryVerdict,
    completion_rate_bound,
    dof,
    gaussian_bound,
    incoherence,
    make_verdict,
    phase_grid,
    proj_t,
    proj_t_perp,
    psnr,
    rand_low_tubal,
    rel_error,
    robust_bound,
    run_table1,
    run_table2,
)
from .rng import derive_seed, normal_fill, substream
from .sensing import (
    GaussianMap,
    SampleMask,
    adjoint_map,
    apply_map,
    make_bernoulli_mask,
    make_gaussian_map,
    proj_omega,
    proj_omega_c,
    r_omega,
)
from .solve import AdmmConfig, SolverReport, solve_completion, solve_gaussian
from .tensor import (
    bcirc,
    bdiag,
    column_basis,
    ctranspose,
    fft_dim3,
    identity,
    ifft_dim3,
    inner,
    norms,
    tprod,
    tprod_oracle,
    tube_basis,
    unit_basis,
    unvec,
    validate_tensor,
    vec,
)
from .tsvd import (
    TSvdFactors,
    avg_rank,
    singular_values,
    spectral_norm,
    svt,
    tnn,
    tsvd,
    tubal_rank,
)

__version__ = "0.1.0"
