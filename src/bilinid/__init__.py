"""Identification of partially observed linear systems with bilinear
observations, from a single input-output trajectory.

Pipeline: simulate (or ingest) a trajectory, regress the outputs on
Kronecker input covariates to estimate the impulse-response matrix G,
certify persistence of excitation, recover a balanced state-space
realization via the Ho-Kalman construction, and evaluate explicit
finite-sample error bounds along the way.

The root exports the names README's library section calls as `b.<name>`;
every other name is imported from the module that defines it.
"""

from .estimator import (
    bound_data_dependent,
    bound_terms,
    design_from_inputs,
    estimate_markov,
    fit,
)
from .exceptions import (
    DegenerateRealizationError,
    NumericalError,
    ParameterError,
)
from .excitation import pe_certificate
from .hokalman import (
    align_realizations,
    build_hankel,
    ho_kalman,
    realization_error_bounds,
)
from .sysmodel import (
    InputDesign,
    NoiseSpec,
    controllability_gramian,
    markov_params,
    random_model,
    simulate,
    simulate_batch,
    transient_factor,
)

__version__ = "0.1.0"
