import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bilinid import (
    InputDesign,
    NoiseSpec,
    ParameterError,
    StateSpaceModel,
    bound_terms,
    controllability_gramian,
    derive_rng,
    markov_params,
    random_model,
    simulate,
    simulate_batch,
    spectral_radius,
    transient_factor,
)
from bilinid.estimator import prediction_state_norms
from bilinid.experiments import _final_output_moments
from bilinid.serialize import save_matrix, save_trajectory
from bilinid.sysmodel import _input_gramians, _truncated_gramians


# ---------------------------------------------------------------- random_model

def test_random_model_degenerate_rho_gives_zero_dynamics():
    m = random_model(1, 1, 1e-300, seed=3)
    assert abs(m.A[0, 0]) <= 1e-300


def test_random_model_respects_spectral_bound():
    m = random_model(5, 3, 0.9, seed=7)
    assert m.spectral_radius() <= 0.9
    assert m.A.shape == (5, 5) and m.B.shape == (5, 3) and m.C.shape == (3, 5)
    # A is diagonal
    assert np.count_nonzero(m.A - np.diag(np.diag(m.A))) == 0


def test_random_model_deterministic():
    a = random_model(4, 2, 0.8, seed=123)
    b = random_model(4, 2, 0.8, seed=123)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.B, b.B)
    assert np.array_equal(a.C, b.C)


@pytest.mark.parametrize("n,p,rho", [(0, 1, 0.5), (1, 0, 0.5), (1, 1, 0.0), (1, 1, 1.0)])
def test_random_model_rejects_bad_parameters(n, p, rho):
    with pytest.raises(ParameterError):
        random_model(n, p, rho, seed=0)


# ------------------------------------------------------------------- simulate

def test_simulate_scalar_recursion_by_hand():
    m = StateSpaceModel(A=[[0.0]], B=[[1.0]], C=[[1.0]])
    traj = simulate(m, NoiseSpec.none(1), np.array([1.0, 2.0, 3.0]), T=2, seed=0)
    # x1 = u0 = 1, x2 = u1 = 2  ->  y = [0, 2*1, 3*2]
    assert traj.y == pytest.approx([0.0, 2.0, 6.0], abs=0.0)


def test_simulate_zero_inputs_zero_noise_gives_zero_output():
    m = random_model(3, 2, 0.5, seed=1)
    traj = simulate(m, NoiseSpec.none(3), np.zeros((21, 2)), T=20, seed=0)
    assert np.all(traj.y == 0.0)


def test_simulate_zero_inputs_annihilate_readout_despite_process_noise():
    m = random_model(3, 2, 0.5, seed=2)
    noise = NoiseSpec.gaussian(np.eye(3), 0.0)
    traj = simulate(m, noise, np.zeros((31, 2)), T=30, seed=5)
    assert np.all(traj.y == 0.0)


def test_simulate_recursion_residual_is_machine_zero():
    m = random_model(4, 2, 0.7, seed=9)
    noise = NoiseSpec.gaussian(0.3 * np.eye(4), 0.4)
    traj = simulate(m, noise, InputDesign.gaussian(2), T=60, seed=11, diagnostics=True)
    for t in range(traj.T):
        assert np.array_equal(traj.x[t + 1], m.A @ traj.x[t] + m.B @ traj.u[t] + traj.w[t])
    readout = np.einsum("ti,ij,tj->t", traj.u, m.C, traj.x) + traj.z
    assert np.array_equal(traj.y, readout)
    assert np.all(traj.x[0] == 0.0)


def test_simulate_deterministic_given_seed():
    m = random_model(2, 2, 0.5, seed=0)
    noise = NoiseSpec.exponential(2, rate=2.0)
    a = simulate(m, noise, InputDesign.gaussian(2), T=25, seed=42, diagnostics=True)
    b = simulate(m, noise, InputDesign.gaussian(2), T=25, seed=42, diagnostics=True)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.y, b.y)
    assert np.array_equal(a.w, b.w) and np.array_equal(a.z, b.z)


def test_simulate_rejects_dimension_mismatch():
    m = random_model(2, 2, 0.5, seed=0)
    with pytest.raises(ParameterError):
        simulate(m, NoiseSpec.none(2), np.zeros((11, 3)), T=10, seed=0)
    with pytest.raises(ParameterError):
        simulate(m, NoiseSpec.none(3), InputDesign.gaussian(2), T=10, seed=0)


def _nondiagonal_model(n, p, rng):
    A = rng.standard_normal((n, n))
    A *= 0.9 / np.linalg.norm(A, 2)
    return StateSpaceModel(A=A, B=rng.standard_normal((n, p)), C=rng.standard_normal((p, n)))


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("noise", [
    NoiseSpec.gaussian([[0.5, 0.2, 0.0], [0.2, 0.4, 0.1], [0.0, 0.1, 0.3]], 0.7),
    NoiseSpec.exponential(3, rate=2.0, centered=False),
], ids=["gaussian", "exponential-uncentered"])
@pytest.mark.parametrize("fixed_inputs", [False, True], ids=["design", "fixed"])
def test_simulate_batch_equals_per_trial_simulate(k, noise, fixed_inputs):
    n, p, T = 3, 2, 40
    rng = np.random.default_rng(k)
    models = [_nondiagonal_model(n, p, rng) for _ in range(k)]
    inputs = rng.standard_normal((T + 1, p)) if fixed_inputs else InputDesign.gaussian(p)
    seeds = [100 + i for i in range(k)]
    batch = simulate_batch(models, noise, inputs, T, seeds, diagnostics=True)
    assert len(batch) == k
    for model, seed, traj in zip(models, seeds, batch):
        alone = simulate(model, noise, inputs, T, seed, diagnostics=True)
        for name in ("u", "y", "x", "w", "z"):
            assert np.array_equal(getattr(traj, name), getattr(alone, name)), name
        for t in range(T):
            assert np.array_equal(traj.x[t + 1],
                                  model.A @ traj.x[t] + model.B @ traj.u[t] + traj.w[t])


def test_simulate_batch_rejects_mismatched_batches():
    models = [random_model(2, 1, 0.5, seed=0), random_model(3, 1, 0.5, seed=1)]
    with pytest.raises(ParameterError):
        simulate_batch(models, NoiseSpec.none(2), InputDesign.gaussian(1), T=10, seeds=[0, 1])
    with pytest.raises(ParameterError):
        simulate_batch(models[:1], NoiseSpec.none(2), InputDesign.gaussian(1), T=10, seeds=[0, 1])
    with pytest.raises(ParameterError):
        simulate_batch([], NoiseSpec.none(2), InputDesign.gaussian(1), T=10, seeds=[])


def test_frozen_types_copy_the_callers_arrays():
    # a model, a noise spec and a trajectory keep their own read-only copies:
    # the caller's arrays stay writable, and writing to them changes nothing
    big = np.diag([0.5, 0.25, 0.125])
    m = StateSpaceModel(A=big[:2, :2], B=np.ones((2, 1)), C=np.ones((1, 2)))
    big[0, 0] = 1.5
    assert m.spectral_radius() == 0.5 and not m.A.flags.writeable
    S = 0.5 * np.eye(2)
    noise = NoiseSpec.gaussian(S, 0.1)
    S[0, 0] = 9.0
    assert S.flags.writeable and noise.sigma_w[0, 0] == 0.5
    u = np.ones((11, 1))
    traj = simulate(m, noise, u, 10, seed=0)
    u[0, 0] = 2.0
    assert u.flags.writeable and traj.u[0, 0] == 1.0 and not traj.u.flags.writeable


def _stack_callers():
    noise = NoiseSpec.none(2)

    def inputs(models):
        return np.ones((len(models), 11, 1))

    return {
        "simulate_batch": lambda models: simulate_batch(
            models, noise, InputDesign.gaussian(1), 10, range(len(models))),
        "controllability_gramian": lambda models: controllability_gramian(models, np.eye(2)),
        "bound_terms": lambda models: bound_terms(models, noise, 4, [1.0] * len(models), 0.1),
        "prediction_state_norms": lambda models: prediction_state_norms(
            models, noise, inputs(models)),
        "_final_output_moments": lambda models: _final_output_moments(
            models, noise, inputs(models)),
    }


@pytest.mark.parametrize("caller", sorted(_stack_callers()))
@pytest.mark.parametrize("batch", ["empty", "mixed"])
def test_every_batch_caller_refuses_empty_and_mixed_batches(caller, batch):
    # the one batch rule (sysmodel._stack): no models, or models of other
    # shapes (here n = 2 and n = 3), raise ParameterError at every caller
    models = [] if batch == "empty" else [random_model(2, 1, 0.5, seed=0),
                                          random_model(3, 1, 0.5, seed=1)]
    with pytest.raises(ParameterError):
        _stack_callers()[caller](models)


def test_gramian_batch_needs_only_a_shared_n():
    # controllability_gramian stacks only A, so its models may differ in p
    models = [random_model(2, 1, 0.5, seed=0), random_model(2, 3, 0.5, seed=1)]
    gramians = controllability_gramian(models, np.eye(2))
    for m, gramian in zip(models, gramians):
        assert np.array_equal(controllability_gramian([m], np.eye(2))[0], gramian)


def _one_form_misuses():
    m = random_model(2, 1, 0.5, seed=0)
    noise = NoiseSpec.none(2)
    return {
        "bound_terms, bare model": lambda: bound_terms(m, noise, 4, [1.0], 0.1),
        "bound_terms, 2-D A": lambda: bound_terms(m.A, noise, 4, [1.0], 0.1),
        "bound_terms, bare beta": lambda: bound_terms([m], noise, 4, 1.0, 0.1),
        "controllability_gramian, bare model": lambda: controllability_gramian(m, np.eye(2)),
        "controllability_gramian, 2-D A": lambda: controllability_gramian(m.A, np.eye(2)),
        "transient_factor, bare model": lambda: transient_factor(m, [0.8]),
        "transient_factor, 2-D A": lambda: transient_factor(m.A, [0.8]),
        "transient_factor, bare rate": lambda: transient_factor(m.A[None], 0.8),
        "transient_factor, empty stack": lambda: transient_factor(np.empty((0, 2, 2)), []),
    }


@pytest.mark.parametrize("misuse", sorted(_one_form_misuses()))
def test_kernels_take_only_batches(misuse):
    # each kernel has one call form: a bare model, a 2-D A or a bare rate or
    # beta is refused, never read as a batch of one
    with pytest.raises(ParameterError):
        _one_form_misuses()[misuse]()


# -------------------------------------------------------------- markov_params

def test_markov_blocks_nilpotent_order_one():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((3, 2))
    C = rng.standard_normal((2, 3))
    m = StateSpaceModel(A=np.zeros((3, 3)), B=B, C=C)
    G = markov_params(m, 5).G
    assert np.allclose(G[:, :2], C @ B)
    for i in range(1, 5):
        assert np.all(G[:, 2 * i:2 * i + 2] == 0.0)


def test_markov_blocks_scalar_powers():
    m = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[2.0]])
    mp = markov_params(m, 3)
    assert np.allclose(mp.G, [[2.0, 1.0, 0.5]], atol=1e-15)


def test_markov_blocks_similarity_invariant():
    m = random_model(4, 2, 0.8, seed=5)
    T, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)))
    m2 = StateSpaceModel(A=T @ m.A @ T.T, B=T @ m.B, C=m.C @ T.T)
    g1 = markov_params(m, 6).G
    g2 = markov_params(m2, 6).G
    assert np.linalg.norm(g1 - g2) <= 1e-10


def test_markov_blocks_match_matrix_power_oracle():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n, p, L = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 9)
        m = random_model(int(n), int(p), 0.9, seed=seed)
        G, p = markov_params(m, int(L)).G, int(p)
        for i in range(int(L)):
            oracle = m.C @ np.linalg.matrix_power(m.A, i) @ m.B
            assert np.linalg.norm(G[:, i * p:(i + 1) * p] - oracle) <= 1e-12


# ----------------------------------------------------------- transient_factor

def test_transient_factor_diagonal_is_one():
    # diagonal A: ||A^k|| = spectral_radius(A)^k <= rho^k, so the sup is the k=0 term
    A = np.diag([0.3, 0.45, 0.1])
    assert transient_factor(A[None], [0.5])[0] == 1.0


def test_transient_factor_jordan_block():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert transient_factor(A[None], [0.5])[0] == pytest.approx(2.0, abs=1e-12)


def test_transient_factor_zero_matrix():
    assert transient_factor(np.zeros((3, 3))[None], [0.5])[0] == 1.0


def test_transient_factor_requires_rho_above_spectral_radius():
    A = np.diag([0.9, 0.2])
    with pytest.raises(ParameterError):
        transient_factor(A[None], [0.9])


def test_transient_factor_dominates_all_powers():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    A *= 0.6 / spectral_radius(A)
    rho = 0.8
    phi = transient_factor(A[None], [rho])[0]
    for k in range(64):
        assert np.linalg.norm(np.linalg.matrix_power(A, k), 2) <= phi * rho**k + 1e-12


def _brute_force_transient_factor(A, rho, k_max):
    """max_{0 <= k <= k_max} ||(A/rho)^k||_2 with no early exit."""
    M = A / rho
    power, sup = np.eye(A.shape[0]), 1.0
    for _ in range(k_max):
        power = power @ M
        sup = max(sup, float(np.linalg.norm(power, 2)))
    return sup


@pytest.mark.parametrize("seed", range(6))
def test_transient_factor_matches_brute_force_scan_nonnormal(seed):
    rng = np.random.default_rng(seed)
    A = 3.0 * np.triu(rng.standard_normal((5, 5))) + 0.1 * rng.standard_normal((5, 5))
    A *= 0.9 / spectral_radius(A)
    # decay is certified within 40 powers for these seeds; scan 50x further
    assert transient_factor(A[None], [0.93])[0] == _brute_force_transient_factor(A, 0.93, 2000)


def test_transient_factor_matches_brute_force_scan_jordan_block():
    # 6x6 Jordan block, rho just above the spectral radius: the norms peak
    # near 5.8e5 and first drop below one at k = 495
    A = 0.9 * np.eye(6) + np.eye(6, k=1)
    phi = transient_factor(A[None], [0.95])[0]
    assert phi > 5e5
    assert phi == _brute_force_transient_factor(A, 0.95, 3000)


# ------------------------------------------------------------------- Gramians

def test_gramian_single_term_for_zero_dynamics():
    S = np.array([[2.0, 0.5], [0.5, 1.0]])
    m = StateSpaceModel(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((1, 2)))
    assert np.allclose(controllability_gramian([m], S)[0], S)


def test_gramian_scalar_geometric_series():
    m = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]])
    g = controllability_gramian([m], np.array([[1.0]]))[0]
    assert g[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_gramian_zero_noise_is_zero():
    m = random_model(3, 1, 0.9, seed=0)
    assert np.all(controllability_gramian([m], np.zeros((3, 3))) == 0.0)
    assert np.all(_truncated_gramians(m.A[None], np.zeros((3, 3)), 10) == 0.0)


@pytest.mark.parametrize("radius", [0.95, 0.999])
def test_gramian_fixed_point_residual(radius):
    m = random_model(4, 2, radius, seed=8)
    m = StateSpaceModel(A=m.A * (radius / spectral_radius(m.A)), B=m.B, C=m.C)
    S = 0.7 * np.eye(4)
    g = controllability_gramian([m], S)[0]
    res = np.linalg.norm(m.A @ g @ m.A.T + S - g) / np.linalg.norm(g)
    assert res <= 1e-10


def test_gramian_finite_matches_truncated_sum_oracle():
    m = random_model(3, 2, 0.8, seed=4)
    S = np.array([[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 0.3]])
    horizon = 7
    oracle = sum(np.linalg.matrix_power(m.A, i) @ S @ np.linalg.matrix_power(m.A, i).T
                 for i in range(horizon + 1))
    assert np.allclose(_truncated_gramians(m.A[None], S, horizon)[0], oracle, atol=1e-12)


def test_input_gramian_matches_double_sum_oracle():
    m = random_model(3, 2, 0.7, seed=6)
    rng = np.random.default_rng(2)
    u = rng.standard_normal((9, 2))
    T = u.shape[0] - 1
    oracle = np.zeros((3, 3))
    for i in range(T + 1):
        for j in range(T + 1):
            ai = np.linalg.matrix_power(m.A, i)
            aj = np.linalg.matrix_power(m.A, j)
            oracle += ai @ m.B @ np.outer(u[T - i], u[T - j]) @ m.B.T @ aj.T
    assert np.allclose(_input_gramians(m.A[None], m.B[None], u[None])[0], oracle, atol=1e-10)


def _loop_gramian(model, sigma_w, horizon):
    # the term-by-term form of _truncated_gramians
    G = np.zeros_like(sigma_w)
    Ai = np.eye(model.n)
    for _ in range(horizon + 1):
        G += Ai @ sigma_w @ Ai.T
        Ai = Ai @ model.A
    return 0.5 * (G + G.T)


def _loop_input_gramian(model, u):
    s = np.zeros(model.n)
    for t in range(u.shape[0]):
        s = model.A @ s + model.B @ u[t]
    return np.outer(s, s)


def _loop_final_output_moments(model, noise, u):
    A, B, C = model.A, model.B, model.C
    t = u.shape[0] - 1
    s = np.zeros(model.n)
    for i in range(t):
        s = A @ s + B @ u[i]
    v = C.T @ u[t]
    var = noise.sigma_z ** 2
    for _ in range(t):
        var += float(v @ noise.sigma_w @ v)
        v = A.T @ v
    return float(u[t] @ C @ s), max(var, 0.0)


@given(n=st.integers(1, 6), p=st.integers(1, 3), horizon=st.integers(0, 120),
       k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_recursions_equal_their_loops_bitwise(n, p, horizon, k, seed):
    # every row of a batch of k distinct models is bitwise its own model's
    # loop, and the single-model functions are the batch of one
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(k):
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.5, 1.05) / np.linalg.norm(A, 2)
        models.append(StateSpaceModel(A=A, B=rng.standard_normal((n, p)),
                                      C=rng.standard_normal((p, n))))
    R = rng.standard_normal((n, n))
    noise = NoiseSpec.gaussian(R @ R.T, float(rng.uniform(0.0, 2.0)))
    u = rng.standard_normal((k, horizon + 1, p))
    A = np.stack([m.A for m in models])
    gamma_w = _truncated_gramians(A, noise.sigma_w, horizon)
    gamma_u = _input_gramians(A, np.stack([m.B for m in models]), u)
    means, variances = _final_output_moments(models, noise, u)
    for j, model in enumerate(models):
        assert np.array_equal(gamma_w[j], _loop_gramian(model, noise.sigma_w, horizon))
        assert np.array_equal(
            _truncated_gramians(model.A[None], noise.sigma_w, horizon)[0], gamma_w[j])
        assert np.array_equal(gamma_u[j], _loop_input_gramian(model, u[j]))
        assert np.array_equal(_input_gramians(model.A[None], model.B[None], u[j][None])[0],
                              gamma_u[j])
        assert (means[j], variances[j]) == _loop_final_output_moments(model, noise, u[j])


def test_truncated_gramian_memory_does_not_grow_with_horizon():
    # the batched sum keeps O(k n^2) state; a (T+1, k, n, n) stack of the
    # powers would take 64 MB at k = 100, n = 2, T = 20,000
    A = np.stack([random_model(2, 1, 0.9, seed=s).A for s in range(100)])
    tracemalloc.start()
    try:
        _truncated_gramians(A, np.eye(2), 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_infinite_gramian_requires_stability():
    m = StateSpaceModel(A=[[1.0]], B=[[1.0]], C=[[1.0]])
    with pytest.raises(ParameterError):
        controllability_gramian([m], np.eye(1))


# ---------------------------------------------------------------------- noise

def test_centered_exponential_moments():
    spec = NoiseSpec.exponential(1, rate=2.0, centered=True)
    rng = np.random.default_rng(0)
    draws = spec.sample_w(1_000_000, rng)[:, 0]
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean()) <= 4 * se
    assert abs(draws.var(ddof=1) - 0.25) <= 0.05 * 0.25


def test_raw_exponential_keeps_its_mean():
    spec = NoiseSpec.exponential(1, rate=1.0, centered=False)
    draws = spec.sample_w(200_000, np.random.default_rng(1))[:, 0]
    assert draws.min() >= 0.0
    assert draws.mean() == pytest.approx(1.0, abs=0.02)


def test_noise_rejects_asymmetric_or_indefinite_covariance():
    with pytest.raises(ParameterError):
        NoiseSpec.gaussian(np.array([[1.0, 0.5], [0.0, 1.0]]), 0.1)
    with pytest.raises(ParameterError):
        NoiseSpec.gaussian(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.1)


@pytest.mark.parametrize("build", [
    lambda: InputDesign.sphere(2, math.nan),
    lambda: InputDesign.sphere(2, math.inf),
    lambda: NoiseSpec.gaussian(np.eye(2), math.nan),
    lambda: NoiseSpec.gaussian(np.eye(2), math.inf),
    lambda: NoiseSpec.gaussian(np.full((2, 2), np.nan), 1.0),
    lambda: NoiseSpec.gaussian(np.diag([1.0, math.inf]), 1.0),
], ids=["sphere nan beta", "sphere inf beta", "nan sigma_z", "inf sigma_z",
        "nan sigma_w", "inf sigma_w entry"])
def test_specs_refuse_non_finite_parameters(build):
    # refused before the covariance is factored: the suite turns any
    # RuntimeWarning of S - S^T on NaN entries into an error
    with pytest.raises(ParameterError):
        build()


def test_exponential_spec_pins_implied_covariance():
    with pytest.raises(ParameterError):
        NoiseSpec(sigma_w=2.0 * np.eye(2), sigma_z=1.0, family="exponential")
    # I / rate^2 bitwise while rate^2 is a float, and (1/rate)^2 past that
    for rate in (2.0, 30.0, 1e-150, 1e150, 1e154):
        assert np.array_equal(NoiseSpec.exponential(2, rate=rate).sigma_w, np.eye(2) / rate**2)
    for rate in (1e155, 1e170):
        assert np.array_equal(NoiseSpec.exponential(2, rate=rate).sigma_w,
                              np.eye(2) * (1.0 / rate) ** 2)


def test_exponential_sample_z_has_std_sigma_z():
    for centered in (True, False):
        spec = NoiseSpec(sigma_w=25.0 * np.eye(1), sigma_z=5.0, family="exponential",
                         centered=centered)
        draws = spec.sample_z(200_000, np.random.default_rng(3))
        assert draws.std(ddof=1) == pytest.approx(5.0, rel=0.02)


def test_exponential_spec_rejects_sigma_z_that_disagrees_with_sigma_w():
    # sigma_z is the scale of every exponential draw, so it must match sigma_w
    with pytest.raises(ParameterError):
        NoiseSpec(sigma_w=np.eye(2), sigma_z=5.0, family="exponential")
    with pytest.raises(ParameterError):
        NoiseSpec(sigma_w=np.zeros((2, 2)), sigma_z=0.0, family="exponential")


def test_gaussian_spec_rejects_centered_false():
    with pytest.raises(ParameterError):
        NoiseSpec(sigma_w=np.eye(2), sigma_z=1.0, family="gaussian", centered=False)


def test_gaussian_draws_match_per_call_factorization():
    # the factor is computed once per spec; every draw equals the one made
    # by factoring sigma_w afresh on each call
    S = np.array([[1.0, 0.6, 0.1], [0.6, 2.0, -0.3], [0.1, -0.3, 0.5]])
    spec = NoiseSpec.gaussian(S, 0.0)
    rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    for count in range(1, 51):
        lam, V = np.linalg.eigh(S)
        factor = V * np.sqrt(np.clip(lam, 0.0, None))
        expected = ref_rng.standard_normal((count, 3)) @ factor.T
        assert np.array_equal(spec.sample_w(count, rng), expected)


def test_gaussian_sample_covariance_matches_spec():
    S = np.array([[1.0, 0.6], [0.6, 2.0]])
    spec = NoiseSpec.gaussian(S, 0.0)
    draws = spec.sample_w(400_000, np.random.default_rng(3))
    emp = np.cov(draws.T)
    assert np.allclose(emp, S, atol=0.03)


# --------------------------------------------------------------------- inputs

def test_sphere_inputs_have_exact_norm_and_identity_covariance():
    design = InputDesign.sphere(3)
    assert design.beta == pytest.approx(np.sqrt(3))
    u = design.sample_iid(300_000, np.random.default_rng(5))
    assert np.allclose(np.linalg.norm(u, axis=1), design.beta, atol=1e-12)
    assert np.allclose(u.T @ u / u.shape[0], np.eye(3), atol=0.02)


def test_gaussian_inputs_zero_mean_identity_covariance():
    u = InputDesign.gaussian(2).sample_iid(400_000, np.random.default_rng(6))
    assert np.allclose(u.mean(axis=0), 0.0, atol=0.01)
    assert np.allclose(u.T @ u / u.shape[0], np.eye(2), atol=0.02)


@pytest.mark.parametrize("design", [InputDesign.gaussian(3), InputDesign.sphere(3),
                                    InputDesign.sphere(2, beta=0.3)],
                         ids=["gaussian", "sphere", "sphere-beta"])
def test_input_draws_in_chunks_into_out_are_one_draw(design):
    # the law as written: standard normal rows, for the sphere scaled as
    # beta u / ||u||, in that order
    expected = np.random.default_rng(8).standard_normal((500, design.p))
    if design.beta is not None:
        expected = design.beta * expected / np.linalg.norm(expected, axis=1, keepdims=True)
    assert design.sample_sequence(499, np.random.default_rng(8)).tobytes() == expected.tobytes()
    rng, out = np.random.default_rng(8), np.empty((500, design.p))
    for start, stop in ((0, 1), (1, 17), (17, 500)):
        chunk = design.sample_iid(stop - start, rng, out=out[start:stop])
        assert np.shares_memory(chunk, out)
    assert out.tobytes() == expected.tobytes()


def test_derive_rng_is_stable_and_key_sensitive():
    a = derive_rng(7, 1, 2).standard_normal(4)
    b = derive_rng(7, 1, 2).standard_normal(4)
    c = derive_rng(7, 1, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -------------------------------------------------------------- serialization

# the formats are write-only; np.loadtxt reads them back bitwise

def test_matrix_csv_round_trip(tmp_path):
    M = np.random.default_rng(0).standard_normal((3, 5))
    path = tmp_path / "m.csv"
    save_matrix(path, M)
    assert path.read_text().startswith("# rows=3 cols=5\n")
    assert np.array_equal(np.loadtxt(path, delimiter=",", ndmin=2), M)


def test_trajectory_csv_round_trip(tmp_path):
    m = random_model(2, 2, 0.5, seed=0)
    noise = NoiseSpec.gaussian(0.5 * np.eye(2), 0.3)
    traj = simulate(m, noise, InputDesign.gaussian(2), T=9, seed=4, diagnostics=True)
    path = tmp_path / "traj.csv"
    save_trajectory(path, traj)
    assert path.read_text().splitlines()[0] == "t,u_1,u_2,y,x_1,x_2,w_1,w_2,z"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.shape == (traj.T + 1, 9)
    assert np.array_equal(back[:, 0], np.arange(traj.T + 1))
    assert np.array_equal(back[:, 1:3], traj.u)
    assert np.array_equal(back[:, 3], traj.y)
    assert np.array_equal(back[:, 4:6], traj.x)
    # w has T draws: the last row's w columns hold the format's NaN filler
    assert np.array_equal(back[:-1, 6:8], traj.w)
    assert np.all(np.isnan(back[-1, 6:8]))
    assert np.array_equal(back[:, 8], traj.z)


def test_trajectory_csv_round_trip_without_diagnostics(tmp_path):
    m = random_model(2, 1, 0.5, seed=0)
    traj = simulate(m, NoiseSpec.none(2), InputDesign.gaussian(1), T=5, seed=1)
    path = tmp_path / "t.csv"
    save_trajectory(path, traj)
    assert path.read_text().splitlines()[0] == "t,u_1,y"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.shape == (traj.T + 1, 3)
    assert np.array_equal(back[:, 1:2], traj.u) and np.array_equal(back[:, 2], traj.y)
