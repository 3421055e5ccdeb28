"""Every public argument check refuses its bad value with its own message.

One case per refusal that no other test reaches: each calls a public
function or builds a public record with one bad argument, and asserts
the exception type and its message.
"""

import re

import numpy as np
import pytest

from bilinid import estimator, excitation, experiments, hokalman, sysmodel
from bilinid.exceptions import ParameterError

MODEL = sysmodel.random_model(2, 1, 0.5, seed=0)
NOISE = sysmodel.NoiseSpec.none(2)
U = np.ones((10, 1))


CASES = {
    "design_from_inputs L < 1": (
        lambda: estimator.design_from_inputs(U, 0), "L must be >= 1"),
    "design_from_inputs short y": (
        lambda: estimator.design_from_inputs(U, 2, y=np.ones(9)),
        "y must hold the full output sequence y_0..y_T"),
    "ellipsoidal_error shapes": (
        lambda: estimator.ellipsoidal_error(np.ones((1, 2)), np.ones((1, 3)),
                                            estimator.design_from_inputs(U, 2)),
        "shape mismatch: (1, 2) vs (1, 3)"),
    "bound_terms L < 1": (
        lambda: estimator.bound_terms([MODEL], NOISE, 0, [1.0], 0.1), "L must be >= 1"),
    "bound_data_dependent T <= L": (
        lambda: estimator.bound_data_dependent(
            1, estimator.bound_terms([MODEL], NOISE, 2, [1.0], 0.1)[0], 2, 2, 1.0),
        "need T > L"),
    "estimate_m4 n_samples < 1": (
        lambda: excitation.estimate_m4(1, 2, 1, 0, seed=0), "n_samples must be >= 1"),
    "estimate_m4 n_directions < 1": (
        lambda: excitation.estimate_m4(1, 2, 0, 10, seed=0), "n_directions must be >= 1"),
    "estimate_m4 direction length": (
        lambda: excitation.estimate_m4(1, 2, 1, 10, seed=0, directions=np.ones((1, 3))),
        "directions must have length p^2 L = 2"),
    "ExperimentConfig output_path": (
        lambda: experiments.ExperimentConfig(output_path=3),
        "output_path must be a string, got 3"),
    "ExperimentConfig sweep not a list": (
        lambda: experiments.ExperimentConfig(rho_values=0.5),
        "rho_values must be a list, got 0.5"),
    "ExperimentConfig empty sweep": (
        lambda: experiments.ExperimentConfig(rho_values=[]), "rho_values must be nonempty"),
    "run_pe_campaign T <= L": (
        lambda: experiments.run_pe_campaign(experiments.ExperimentConfig(trials=1), T=12),
        "campaign length T must exceed L"),
    "batch_simulate_outputs time past the inputs": (
        lambda: experiments.batch_simulate_outputs(MODEL, NOISE, U, [10], 2, seed=0),
        "requested time beyond the input sequence"),
    "build_hankel width": (
        lambda: hokalman.build_hankel(np.ones((2, 3)), 1),
        "Markov matrix width must be a multiple of p"),
    "StateSpaceModel A not square": (
        lambda: sysmodel.StateSpaceModel(A=np.ones((2, 3)), B=np.ones((2, 1)),
                                         C=np.ones((1, 2))),
        "A must be square, got (2, 3)"),
    "StateSpaceModel B rows": (
        lambda: sysmodel.StateSpaceModel(A=np.eye(2), B=np.ones((3, 1)), C=np.ones((1, 2))),
        "B must have 2 rows, got 3"),
    "StateSpaceModel C columns": (
        lambda: sysmodel.StateSpaceModel(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 3))),
        "C must have 2 columns, got 3"),
    "NoiseSpec sigma_w not square": (
        lambda: sysmodel.NoiseSpec.gaussian(np.ones((2, 3)), 1.0), "sigma_w must be square"),
    "NoiseSpec unknown family": (
        lambda: sysmodel.NoiseSpec(np.eye(2), 1.0, family="laplace"),
        "unknown noise family 'laplace'"),
    "simulate_batch T < 1": (
        lambda: sysmodel.simulate_batch([MODEL], NOISE, sysmodel.InputDesign.gaussian(1), 0,
                                        [0]),
        "horizon T must be >= 1"),
    "simulate_batch design p": (
        lambda: sysmodel.simulate_batch([MODEL], NOISE, sysmodel.InputDesign.gaussian(2), 10,
                                        [0]),
        "input design dimension does not match the model"),
    "markov_params L < 1": (
        lambda: sysmodel.markov_params(MODEL, 0), "L must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_bad_argument_is_refused_with_its_message(case):
    call, message = CASES[case]
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call()
