"""Every public argument check refuses its bad value with its own message.

One case per refusal that no other test reaches: each calls a public
function or builds a public record with one bad argument, and asserts
the exception type and its message.  A public function whose result
would leave the float range raises NumericalError, with no RuntimeWarning.
"""

import re
import warnings

import numpy as np
import pytest

from bilinid import estimator, excitation, experiments, hokalman, sysmodel
from bilinid.exceptions import NumericalError, ParameterError

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
    "batch_simulate_outputs no times": (
        lambda: experiments.batch_simulate_outputs(MODEL, NOISE, U, [], 2, seed=0),
        "output times must be nonempty and >= 0"),
    "batch_simulate_outputs negative time": (
        lambda: experiments.batch_simulate_outputs(MODEL, NOISE, U, [-1], 3, seed=0),
        "output times must be nonempty and >= 0"),
    "build_hankel width": (
        lambda: hokalman.build_hankel(np.ones((2, 3)), 1),
        "Markov matrix width must be a multiple of p"),
    "ho_kalman NaN in G": (
        lambda: hokalman.ho_kalman(np.array([[1.0, 0.5, np.nan, 0.1]]), 1),
        "Markov matrix G must have finite entries"),
    "build_hankel inf in G": (
        lambda: hokalman.build_hankel(np.array([[1.0, 0.5, np.inf, 0.1]]), 1),
        "Markov matrix G must have finite entries"),
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


GRAMIAN_CASES = {
    # stable, but A^2 holds 1e300 * 1e300: the sums leave the float range
    "non-normal A": (np.array([[0.5, 1e300], [0.0, 0.5]]), np.eye(2)),
    # the sum 1e308 (1 + 0.49 + 0.49^2 + ...) passes the float range at its second doubling
    "sum": (0.7 * np.eye(2), 1e308 * np.eye(2)),
}


def _gramian_model(A):
    return sysmodel.StateSpaceModel(A=A, B=np.ones((2, 1)), C=np.ones((1, 2)))


@pytest.mark.parametrize("case", sorted(GRAMIAN_CASES))
def test_a_gramian_past_the_float_range_raises_numerical_error(case):
    # numpy's LinAlgError, or an infinite Gramian, before, after a RuntimeWarning
    A, sigma_w = GRAMIAN_CASES[case]
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^the infinite Gramian is past the float range$"):
            sysmodel.controllability_gramian([_gramian_model(A)], sigma_w)


def test_a_gramian_in_the_float_range_whose_symmetrization_overflows_is_returned():
    # every sum is finite, 1e308/0.99 on the diagonal, but G + G^T is not
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        G, = sysmodel.controllability_gramian([_gramian_model(0.1 * np.eye(2))], 1e308 * np.eye(2))
    assert G[0, 1] == G[1, 0] == 0.0
    assert G[0, 0] == G[1, 1] == pytest.approx(1e308 / 0.99, rel=1e-15)
