"""Identification of partially observed linear systems with bilinear
observations, from a single input-output trajectory.

Pipeline: simulate (or ingest) a trajectory, regress the outputs on
Kronecker input covariates to estimate the impulse-response matrix G,
certify persistence of excitation, recover a balanced state-space
realization via the Ho-Kalman construction, and evaluate explicit
finite-sample error bounds along the way.
"""

from .estimator import (
    BoundReport,
    BoundTerms,
    DesignSystem,
    EstimateReport,
    FitResult,
    bound_data_dependent,
    bound_terms,
    design_from_inputs,
    effective_noise_autocov,
    ellipsoidal_error,
    empirical_input_bound,
    estimate_markov,
    fit,
    predict,
    prediction_bound,
    unvec,
    vec,
)
from .excitation import (
    GAUSSIAN_M4,
    M4Estimate,
    PECertificate,
    estimate_m4,
    min_eig_design,
    pe_certificate,
    pe_required_samples,
)
from .exceptions import (
    DegenerateRealizationError,
    NumericalError,
    ParameterError,
)
from .experiments import (
    ExperimentConfig,
    InputConfig,
    NoiseConfig,
    run_double_descent,
    run_pe_campaign,
    run_sweep,
    run_validation,
)
from .hokalman import (
    Alignment,
    HankelSet,
    Realization,
    RealizationBounds,
    align_realizations,
    build_hankel,
    ho_kalman,
    realization_error_bounds,
)
from .sysmodel import (
    InputDesign,
    MarkovParams,
    NoiseSpec,
    StateSpaceModel,
    Trajectory,
    controllability_gramian,
    derive_rng,
    markov_params,
    random_model,
    simulate,
    simulate_batch,
    spectral_radius,
    transient_factor,
)

__version__ = "0.1.0"
