import numpy as np
import pytest

from bilinid import (
    InputDesign,
    NoiseSpec,
    ParameterError,
    StateSpaceModel,
    controllability_gramian,
    derive_rng,
    input_gramian,
    markov_params,
    random_model,
    simulate,
    spectral_radius,
    transient_factor,
)
from bilinid.serialize import (
    load_matrix,
    load_trajectory,
    save_matrix,
    save_trajectory,
)


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


# -------------------------------------------------------------- markov_params

def test_markov_blocks_nilpotent_order_one():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((3, 2))
    C = rng.standard_normal((2, 3))
    m = StateSpaceModel(A=np.zeros((3, 3)), B=B, C=C)
    mp = markov_params(m, 5)
    assert np.allclose(mp.block(0), C @ B)
    for i in range(1, 5):
        assert np.all(mp.block(i) == 0.0)


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
        mp = markov_params(m, int(L))
        for i in range(int(L)):
            oracle = m.C @ np.linalg.matrix_power(m.A, i) @ m.B
            assert np.linalg.norm(mp.block(i) - oracle) <= 1e-12


# ----------------------------------------------------------- transient_factor

def test_transient_factor_diagonal_is_one():
    # diagonal A: ||A^k|| = spectral_radius(A)^k <= rho^k, so the sup is the k=0 term
    A = np.diag([0.3, 0.45, 0.1])
    assert transient_factor(A, 0.5) == 1.0


def test_transient_factor_jordan_block():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert transient_factor(A, 0.5) == pytest.approx(2.0, abs=1e-12)


def test_transient_factor_zero_matrix():
    assert transient_factor(np.zeros((3, 3)), 0.5) == 1.0


def test_transient_factor_requires_rho_above_spectral_radius():
    A = np.diag([0.9, 0.2])
    with pytest.raises(ParameterError):
        transient_factor(A, 0.9)


def test_transient_factor_dominates_all_powers():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    A *= 0.6 / spectral_radius(A)
    rho = 0.8
    phi = transient_factor(A, rho)
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
    assert transient_factor(A, 0.93) == _brute_force_transient_factor(A, 0.93, 2000)


def test_transient_factor_matches_brute_force_scan_jordan_block():
    # 6x6 Jordan block, rho just above the spectral radius: the norms peak
    # near 5.8e5 and first drop below one at k = 495
    A = 0.9 * np.eye(6) + np.eye(6, k=1)
    phi = transient_factor(A, 0.95)
    assert phi > 5e5
    assert phi == _brute_force_transient_factor(A, 0.95, 3000)


# ------------------------------------------------------------------- Gramians

def test_gramian_single_term_for_zero_dynamics():
    S = np.array([[2.0, 0.5], [0.5, 1.0]])
    m = StateSpaceModel(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((1, 2)))
    assert np.allclose(controllability_gramian(m, S), S)


def test_gramian_scalar_geometric_series():
    m = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]])
    g = controllability_gramian(m, np.array([[1.0]]))
    assert g[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_gramian_zero_noise_is_zero():
    m = random_model(3, 1, 0.9, seed=0)
    assert np.all(controllability_gramian(m, np.zeros((3, 3))) == 0.0)
    assert np.all(controllability_gramian(m, np.zeros((3, 3)), horizon=10) == 0.0)


@pytest.mark.parametrize("radius", [0.95, 0.999])
def test_gramian_fixed_point_residual(radius):
    m = random_model(4, 2, radius, seed=8)
    m = StateSpaceModel(A=m.A * (radius / spectral_radius(m.A)), B=m.B, C=m.C)
    S = 0.7 * np.eye(4)
    g = controllability_gramian(m, S)
    res = np.linalg.norm(m.A @ g @ m.A.T + S - g) / np.linalg.norm(g)
    assert res <= 1e-10


def test_gramian_finite_matches_truncated_sum_oracle():
    m = random_model(3, 2, 0.8, seed=4)
    S = np.array([[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 0.3]])
    horizon = 7
    oracle = sum(np.linalg.matrix_power(m.A, i) @ S @ np.linalg.matrix_power(m.A, i).T
                 for i in range(horizon + 1))
    assert np.allclose(controllability_gramian(m, S, horizon=horizon), oracle, atol=1e-12)


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
    assert np.allclose(input_gramian(m, u), oracle, atol=1e-10)


def test_infinite_gramian_requires_stability():
    m = StateSpaceModel(A=[[1.0]], B=[[1.0]], C=[[1.0]])
    with pytest.raises(ParameterError):
        controllability_gramian(m, np.eye(1))


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


def test_exponential_spec_pins_implied_covariance():
    with pytest.raises(ParameterError):
        NoiseSpec(sigma_w=2.0 * np.eye(2), sigma_z=1.0, family="exponential", rate=1.0)


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


def test_fixed_sequence_replay_and_length_check():
    seq = np.arange(12.0).reshape(6, 2)
    design = InputDesign.fixed(seq)
    got = design.sample_sequence(5, np.random.default_rng(0))
    assert np.array_equal(got, seq)
    with pytest.raises(ParameterError):
        design.sample_sequence(6, np.random.default_rng(0))


def test_derive_rng_is_stable_and_key_sensitive():
    a = derive_rng(7, 1, 2).standard_normal(4)
    b = derive_rng(7, 1, 2).standard_normal(4)
    c = derive_rng(7, 1, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -------------------------------------------------------------- serialization

def test_matrix_csv_round_trip(tmp_path):
    M = np.random.default_rng(0).standard_normal((3, 5))
    path = tmp_path / "m.csv"
    save_matrix(path, M)
    assert path.read_text().startswith("# rows=3 cols=5\n")
    assert np.array_equal(load_matrix(path), M)


def test_trajectory_csv_round_trip(tmp_path):
    m = random_model(2, 2, 0.5, seed=0)
    noise = NoiseSpec.gaussian(0.5 * np.eye(2), 0.3)
    traj = simulate(m, noise, InputDesign.gaussian(2), T=9, seed=4, diagnostics=True)
    path = tmp_path / "traj.csv"
    save_trajectory(path, traj)
    back = load_trajectory(path)
    assert back.T == traj.T
    assert np.array_equal(back.u, traj.u)
    assert np.array_equal(back.y, traj.y)
    assert np.array_equal(back.x, traj.x)
    assert np.array_equal(back.w, traj.w)
    assert np.array_equal(back.z, traj.z)


def test_trajectory_csv_round_trip_without_diagnostics(tmp_path):
    m = random_model(2, 1, 0.5, seed=0)
    traj = simulate(m, NoiseSpec.none(2), InputDesign.gaussian(1), T=5, seed=1)
    path = tmp_path / "t.csv"
    save_trajectory(path, traj)
    back = load_trajectory(path)
    assert not back.has_diagnostics
    assert np.array_equal(back.u, traj.u) and np.array_equal(back.y, traj.y)
