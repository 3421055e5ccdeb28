import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bilinid import (
    InfeasibleError,
    InputDesign,
    NoiseSpec,
    NumericalError,
    ParameterError,
    StateSpaceModel,
    bound_data_dependent,
    bound_terms,
    build_design,
    choose_L,
    controllability_gramian,
    effective_noise_autocov,
    ellipsoidal_error,
    empirical_input_bound,
    estimate_markov,
    markov_params,
    predict,
    prediction_bound,
    random_model,
    simulate,
    surrogate_input_bound,
    transient_factor,
)
from bilinid.estimator import (
    DesignSystem,
    design_from_inputs,
    stack_recent_inputs,
    unvec,
    vec,
)
from bilinid.experiments import batch_simulate_outputs, zeta_covariance_mc


def _nilpotent_model(n, p, seed):
    rng = np.random.default_rng(seed)
    A = np.tril(rng.standard_normal((n, n)), k=-1)
    B = rng.standard_normal((n, p)) / np.sqrt(n)
    C = rng.standard_normal((p, n)) / np.sqrt(p)
    return StateSpaceModel(A=A, B=B, C=C)


# --------------------------------------------------------------- build_design

def test_design_single_row_hand_kronecker():
    u = np.array([1.0, 2.0, 3.0, 4.0])
    d = design_from_inputs(u, L=2, y=np.array([0.0, 0.0, 0.0, 7.0]))
    assert d.U_tilde.shape == (1, 2)
    # ubar_2 = [u2, u1], row = ubar_2 kron u3 = [12, 8]
    assert np.array_equal(d.U_tilde, [[12.0, 8.0]])
    assert np.array_equal(d.y, [7.0])


def test_design_zero_inputs_zero_matrix():
    d = design_from_inputs(np.zeros((10, 2)), L=3)
    assert np.all(d.U_tilde == 0.0)
    assert d.U_tilde.shape == (6, 12)


def test_design_row_norm_kronecker_identity():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((15, 3))
    L = 4
    d = design_from_inputs(u, L)
    for i, t in enumerate(range(L + 1, 15)):
        ubar = stack_recent_inputs(u, t - 1, L)
        expected = np.linalg.norm(ubar) * np.linalg.norm(u[t])
        assert np.linalg.norm(d.U_tilde[i]) == pytest.approx(expected, rel=1e-12)


def test_design_rows_match_explicit_kron():
    rng = np.random.default_rng(9)
    u = rng.standard_normal((12, 2))
    L = 3
    d = design_from_inputs(u, L)
    for i, t in enumerate(range(L + 1, 12)):
        row = np.kron(stack_recent_inputs(u, t - 1, L), u[t])
        assert np.array_equal(d.U_tilde[i], row)


@st.composite
def _inputs_and_markov(draw):
    p = draw(st.integers(1, 3))
    L = draw(st.integers(1, 4))
    T = L + draw(st.integers(1, 12))
    entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    u = draw(arrays(np.float64, (T + 1, p), elements=entries))
    G = draw(arrays(np.float64, (p, p * L), elements=entries))
    return u, G, L


@given(_inputs_and_markov())
def test_design_rows_are_the_bilinear_form_of_vec_G(case):
    # u_t' G ubar_{t-1} = (ubar_{t-1} (x) u_t)' vec(G) for every row t = L+1..T
    u, G, L = case
    U = design_from_inputs(u, L).U_tilde
    for i, t in enumerate(range(L + 1, u.shape[0])):
        ubar = np.concatenate([u[t - 1 - j] for j in range(L)])
        scale = np.abs(u[t]) @ np.abs(G) @ np.abs(ubar)
        # tiny absorbs roundoff among subnormal products, which have no relative accuracy
        assert abs(u[t] @ G @ ubar - U[i] @ vec(G)) <= 1e-12 * scale + np.finfo(float).tiny


def _einsum_design_rows(u, L):
    """Row build by one einsum over a stacked ubar copy (an independent oracle)."""
    T, p = u.shape[0] - 1, u.shape[1]
    ubar = np.hstack([u[L - j: T - j] for j in range(L)])
    return np.einsum("ti,tj->tij", ubar, u[L + 1:]).reshape(T - L, p * p * L)


@pytest.mark.parametrize("p,L", [(1, 1), (2, 4), (3, 3)])
def test_design_bit_identical_to_einsum_build_and_column_major(p, L):
    u = np.random.default_rng(p * 10 + L).standard_normal((200, p))
    U = design_from_inputs(u, L).U_tilde
    assert np.array_equal(U, _einsum_design_rows(u, L))
    # each column is one contiguous vector product; the speed of the build
    # and of the Gram product depends on this layout
    assert U.flags.f_contiguous


def test_design_overflowing_products_raise_numerical_error():
    u = np.full((12, 2), 1e200)
    with pytest.raises(NumericalError, match="overflow"):
        design_from_inputs(u, L=3)


def test_design_requires_enough_samples():
    with pytest.raises(ParameterError):
        design_from_inputs(np.zeros((5, 1)), L=4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_design_rejects_non_finite_inputs(bad):
    u = np.ones((12, 2))
    u[7, 1] = bad
    with pytest.raises(ParameterError):
        design_from_inputs(u, L=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_design_rejects_non_finite_outputs(bad):
    rng = np.random.default_rng(5)
    u = rng.standard_normal((12, 2))
    y = rng.standard_normal(12)
    y[9] = bad
    with pytest.raises(NumericalError):
        design_from_inputs(u, L=3, y=y)
    # outputs before the first row are not part of the regression
    y[9], y[2] = 0.0, bad
    assert np.all(np.isfinite(design_from_inputs(u, L=3, y=y).y))


def test_vec_convention_bilinear_identity():
    rng = np.random.default_rng(1)
    p, L = 3, 5
    G = rng.standard_normal((p, p * L))
    u = rng.standard_normal(p)
    ubar = rng.standard_normal(p * L)
    assert u @ G @ ubar == pytest.approx(np.kron(ubar, u) @ vec(G), rel=1e-12)
    assert np.array_equal(unvec(vec(G), p, p * L), G)


# ------------------------------------------------------------ estimate_markov

def test_exact_recovery_nilpotent_noiseless():
    m = _nilpotent_model(3, 2, seed=0)
    L, T = 4, 68
    traj = simulate(m, NoiseSpec.none(3), InputDesign.gaussian(2), T, seed=1)
    report = estimate_markov(build_design(traj, L))
    G = markov_params(m, L).G
    assert report.solver_mode == "full_rank"
    assert np.linalg.norm(report.G_hat - G) <= 1e-8


def test_zero_targets_give_zero_estimate():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((30, 2))
    d = design_from_inputs(u, L=3, y=np.zeros(30))
    report = estimate_markov(d)
    assert np.all(report.G_hat == 0.0)


def test_underdetermined_interpolates_with_min_norm():
    m = random_model(2, 2, 0.5, seed=3)
    noise = NoiseSpec.gaussian(0.2 * np.eye(2), 0.3)
    L = 4
    T = L + 10  # 10 rows < p^2 L = 16 columns
    traj = simulate(m, noise, InputDesign.gaussian(2), T, seed=5)
    report = estimate_markov(build_design(traj, L))
    assert report.solver_mode == "min_norm"
    assert report.residual_norm <= 1e-8


def test_normal_equations_residual_in_full_rank_mode():
    m = random_model(3, 2, 0.6, seed=7)
    noise = NoiseSpec.exponential(3, rate=1.0)
    traj = simulate(m, noise, InputDesign.gaussian(2), T=150, seed=8)
    d = build_design(traj, 5)
    report = estimate_markov(d)
    assert report.solver_mode == "full_rank"
    rhs = d.U_tilde.T @ d.y
    lhs = report.gram @ vec(report.G_hat)
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_full_rank_solve_agrees_with_lstsq_on_ill_conditioned_design():
    # singular values spaced from 1 to 1e-3: kappa^2 = 1e6, still full rank
    rng = np.random.default_rng(21)
    p, L, rows = 2, 3, 200
    cols = p * p * L
    Q1 = np.linalg.qr(rng.standard_normal((rows, cols)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
    sv = np.logspace(0.0, -3.0, cols)
    U = (Q1 * sv) @ Q2.T
    y = U @ rng.standard_normal(cols) + 1e-3 * rng.standard_normal(rows)
    d = DesignSystem(U_tilde=U, y=y, L=L, T=rows + L, p=p)
    report = estimate_markov(d)
    assert report.solver_mode == "full_rank"
    ref = np.linalg.lstsq(U, y, rcond=None)[0]
    kappa_sq = (sv[0] / sv[-1]) ** 2
    tol = 100 * np.finfo(float).eps * kappa_sq * np.linalg.norm(ref)
    assert np.linalg.norm(vec(report.G_hat) - ref) <= tol


def test_regression_identity_against_effective_noise():
    m = random_model(2, 2, 0.6, seed=11)
    noise = NoiseSpec.gaussian(0.3 * np.eye(2), 0.5)
    L, T = 4, 60
    traj = simulate(m, noise, InputDesign.gaussian(2), T, seed=13, diagnostics=True)
    d = build_design(traj, L)
    report = estimate_markov(d)
    mp = markov_params(m, L)
    AL = np.linalg.matrix_power(m.A, L)
    zeta = np.array([
        np.kron(stack_recent_inputs(traj.w, t - 1, L), traj.u[t]) @ vec(mp.F)
        + traj.u[t] @ (m.C @ AL @ traj.x[t - L]) + traj.z[t]
        for t in range(L + 1, T + 1)
    ])
    delta = vec(report.G_hat) - vec(mp.G)
    oracle = np.linalg.solve(d.U_tilde.T @ d.U_tilde, d.U_tilde.T @ zeta)
    assert np.linalg.norm(delta - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1.0)


# ------------------------------------------------------------ ellipsoidal norm

def test_ellipsoidal_error_zero_at_truth():
    m = random_model(2, 1, 0.5, seed=0)
    traj = simulate(m, NoiseSpec.none(2), InputDesign.gaussian(1), T=30, seed=1)
    d = build_design(traj, 3)
    G = markov_params(m, 3).G
    assert ellipsoidal_error(G, G, d) == 0.0


def test_ellipsoidal_error_orthonormal_design_is_euclidean():
    k = 6
    d = DesignSystem(U_tilde=np.eye(k), y=np.zeros(k), L=3, T=9, p=1)
    rng = np.random.default_rng(5)
    Ga = rng.standard_normal((1, 6))
    Gb = rng.standard_normal((1, 6))
    assert ellipsoidal_error(Ga, Gb, d) == pytest.approx(
        np.linalg.norm(vec(Ga) - vec(Gb)), rel=1e-12)


def test_ellipsoidal_error_matches_dense_quadratic_oracle():
    rng = np.random.default_rng(6)
    u = rng.standard_normal((25, 2))
    d = design_from_inputs(u, L=2)
    Ga = rng.standard_normal((2, 4))
    Gb = rng.standard_normal((2, 4))
    delta = vec(Ga) - vec(Gb)
    oracle = math.sqrt(delta @ (d.U_tilde.T @ d.U_tilde) @ delta)
    assert ellipsoidal_error(Ga, Gb, d) == pytest.approx(oracle, abs=1e-9)


def test_ellipsoidal_factored_form_for_many_deltas():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((20, 1))
    d = design_from_inputs(u, L=3)
    gram = d.U_tilde.T @ d.U_tilde
    for _ in range(25):
        delta = rng.standard_normal(3)
        a = np.linalg.norm(d.U_tilde @ delta)
        b = math.sqrt(delta @ gram @ delta)
        assert a == pytest.approx(b, abs=1e-10 * max(1.0, b))


# ------------------------------------------------------------------ the bound

def test_bound_vanishes_in_noiseless_large_L_limit():
    m = random_model(2, 1, 0.5, seed=1)
    noise = NoiseSpec.none(2)
    values = []
    for L in (4, 20, 60, 120):
        terms = bound_terms(m, noise, L, beta=1.0, delta=0.1)
        values.append(bound_data_dependent(m, terms, L, 10_000).value)
    assert all(values[i + 1] < values[i] for i in range(len(values) - 1))
    assert values[-1] <= 1e-10 * values[0]


def test_bound_first_term_scales_as_inverse_sqrt_delta():
    m = random_model(2, 1, 0.5, seed=2)
    noise = NoiseSpec.gaussian(0.5 * np.eye(2), 0.4)
    L, T = 4, 200
    t1 = bound_terms(m, noise, L, beta=1.5, delta=0.1)
    t2 = bound_terms(m, noise, L, beta=1.5, delta=0.2)
    second = (t1.beta**2 * t1.K**2 * t1.phi * t1.rho**L / (1 - t1.rho)
              * math.sqrt(T - L))
    first1 = bound_data_dependent(m, t1, L, T).value - second
    first2 = bound_data_dependent(m, t2, L, T).value - second
    assert first1 == pytest.approx(first2 * math.sqrt(2.0), rel=1e-12)


def test_bound_matches_independent_formula_oracle():
    # scalar system: a=0.5, b=c=1, sigma_w=1, sigma_z=1, beta=1, L=4, T=100,
    # delta=0.1, rho=0.75
    m = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]])
    noise = NoiseSpec.gaussian([[1.0]], 1.0)
    L, T, beta, delta, rho = 4, 100, 1.0, 0.1, 0.75
    terms = bound_terms(m, noise, L, beta=beta, delta=delta, rho=rho)
    got = bound_data_dependent(m, terms, L, T).value

    phi = 1.0  # scalar a=0.5 < rho: ratio (a/rho)^k maximized at k=0
    F2 = sum(0.5 ** (2 * i) for i in range(L))
    gamma_inf = 1.0 / (1.0 - 0.25)
    CAL2 = (0.5 ** L) ** 2
    tail = phi * rho**L / (1.0 - rho)
    Xi = 1.0 + 3.0 * 1.0 * F2 * beta**2 * L * (1.0 + tail) \
        + 2.0 * gamma_inf * CAL2 * beta**2 * phi / (1.0 - rho)
    oracle = math.sqrt(1 * 1 * L * Xi / delta) + beta**2 * 1.0 * tail * math.sqrt(T - L)
    assert got == pytest.approx(oracle, abs=1e-12 * oracle)
    assert terms.sigma_w_sq == pytest.approx(F2 * (1.0 + tail), rel=1e-12)
    assert terms.sigma_e_sq == pytest.approx(gamma_inf * CAL2 * phi / (1.0 - rho), rel=1e-12)
    assert terms.Xi == pytest.approx(Xi, rel=1e-12)


def test_bound_fro_variant_divides_by_sqrt_lambda_min():
    m = random_model(2, 1, 0.5, seed=3)
    noise = NoiseSpec.gaussian(np.eye(2), 1.0)
    terms = bound_terms(m, noise, 4, beta=2.0, delta=0.1)
    rep = bound_data_dependent(m, terms, 4, 100, lambda_min=16.0)
    assert rep.fro_value == pytest.approx(rep.value / 4.0, rel=1e-12)


def test_bound_terms_precondition_errors():
    m = random_model(2, 1, 0.5, seed=0)
    noise = NoiseSpec.gaussian(np.eye(2), 1.0)
    with pytest.raises(ParameterError):
        bound_terms(m, noise, 4, beta=1.0, delta=1.5)
    with pytest.raises(ParameterError):
        bound_terms(m, noise, 4, beta=-1.0, delta=0.1)
    with pytest.raises(ParameterError):
        bound_terms(m, noise, 4, beta=1.0, delta=0.1, rho=m.spectral_radius() / 2)
    unstable = StateSpaceModel(A=[[1.1]], B=[[1.0]], C=[[1.0]])
    with pytest.raises(ParameterError):
        bound_terms(unstable, NoiseSpec.gaussian([[1.0]], 1.0), 4, beta=1.0, delta=0.1)


def test_input_bound_helpers():
    u = np.array([[3.0, 4.0], [1.0, 0.0]])
    assert empirical_input_bound(u) == 5.0
    assert surrogate_input_bound(2, 100, 0.1) == pytest.approx(
        math.sqrt(2 * math.log(1000.0)))


# -------------------------------------------------------------------- choose_L

def test_choose_L_minimal_for_fast_decay():
    # near-nilpotent dynamics with a decay rate chosen to match: the bias
    # side carries rho^L ~ 0 and the rule is vacuous at the smallest L
    m = random_model(2, 1, 1e-6, seed=4)
    noise = NoiseSpec.gaussian(np.eye(2), 1.0)
    assert choose_L(m, noise, T=10_000, delta=0.1, beta=3.0, rho=0.01) == 4


def test_choose_L_monotone_in_T():
    m = random_model(2, 1, 0.9, seed=17)
    noise = NoiseSpec.gaussian(np.eye(2), 1.0)
    previous = 4
    for T in (1_000, 10_000, 100_000, 1_000_000):
        L = choose_L(m, noise, T=T, delta=0.1, beta=3.0)
        assert L >= previous
        previous = L


def test_choose_L_matches_brute_force_scan_oracle():
    m = random_model(2, 1, 0.9, seed=17)
    noise = NoiseSpec.gaussian(np.eye(2), 1.0)
    T, delta, beta = 10_000, 0.1, 3.0
    got = choose_L(m, noise, T=T, delta=delta, beta=beta)

    # independent scan over even L in [2n, 200] evaluating the rule inline
    rho = 0.5 * (1.0 + m.spectral_radius())
    phi = transient_factor(m.A, rho)
    BC = np.linalg.norm(m.B, 2) * np.linalg.norm(m.C, 2)
    gamma_inf = np.linalg.norm(controllability_gramian(m, noise.sigma_w), 2)
    oracle = None
    for L in range(4, 201, 2):
        F = markov_params(m, L).F
        CAL = np.linalg.norm(m.C @ np.linalg.matrix_power(m.A, L), 2)
        tail = phi * rho**L / (1.0 - rho)
        Xi = noise.sigma_z**2 \
            + 3.0 * np.linalg.norm(noise.sigma_w, 2) * np.linalg.norm(F)**2 * beta**2 * L * (1 + tail) \
            + 2.0 * gamma_inf * CAL**2 * beta**2 * phi / (1.0 - rho)
        bias = 2.0 * beta**2 * BC * phi * rho**L / (1.0 - rho)
        if bias <= math.sqrt(L * Xi / (delta * (T - L))):
            oracle = L
            break
    assert got == oracle


def test_choose_L_reports_infeasible():
    m = random_model(2, 1, 0.97, seed=5)
    noise = NoiseSpec.gaussian(1e-18 * np.eye(2), 1e-9)
    with pytest.raises(InfeasibleError):
        choose_L(m, noise, T=10**9, delta=0.1, beta=100.0, L_max=6)


# ------------------------------------------------------------------ prediction

def test_predict_exact_for_noiseless_nilpotent_model():
    m = _nilpotent_model(3, 2, seed=21)
    L, T = 4, 80
    rng = np.random.default_rng(22)
    u_full = rng.standard_normal((T + 2, 2))
    traj = simulate(m, NoiseSpec.none(3), u_full[:T + 1], T, seed=0)
    report = estimate_markov(build_design(traj, L))
    full = simulate(m, NoiseSpec.none(3), u_full, T + 1, seed=0)
    y_hat = predict(report.G_hat, traj.u[T - L + 1: T + 1], u_full[T + 1])
    assert y_hat == pytest.approx(full.y[T + 1], abs=1e-8)


def test_predict_zero_next_input_gives_zero():
    G = np.random.default_rng(1).standard_normal((2, 6))
    hist = np.random.default_rng(2).standard_normal((3, 2))
    assert predict(G, hist, np.zeros(2)) == 0.0


def test_prediction_mse_bound_holds_under_monte_carlo():
    n, p, L, T = 2, 1, 4, 60
    m = random_model(n, p, 0.6, seed=31)
    noise = NoiseSpec.gaussian(0.2 * np.eye(n), 0.4)
    rng = np.random.default_rng(32)
    u_full = rng.standard_normal((T + 2, p))
    traj = simulate(m, noise, u_full[:T + 1], T, seed=33)
    design = build_design(traj, L)
    report = estimate_markov(design)
    G = markov_params(m, L).G
    u_next = u_full[T + 1]
    bound = prediction_bound(design, report, G, m, noise, traj, u_next)
    assert bound is not None
    y_hat = predict(report.G_hat, traj.u[T - L + 1: T + 1], u_next)
    ys = batch_simulate_outputs(m, noise, u_full, [T + 1], 100_000, 34)
    mse = float(np.mean((y_hat - ys[:, 0]) ** 2))
    assert mse <= bound


def test_prediction_bound_omitted_when_gram_singular():
    m = random_model(2, 2, 0.5, seed=3)
    noise = NoiseSpec.gaussian(0.2 * np.eye(2), 0.3)
    L = 4
    T = L + 10  # underdetermined
    traj = simulate(m, noise, InputDesign.gaussian(2), T, seed=5)
    design = build_design(traj, L)
    report = estimate_markov(design)
    G = markov_params(m, L).G
    u_next = np.ones(2)
    assert prediction_bound(design, report, G, m, noise, traj, u_next) is None


# -------------------------------------------------- effective-noise autocovariance

def test_autocov_reduces_to_measurement_noise_without_process_noise():
    m = random_model(2, 1, 0.6, seed=41)
    noise = NoiseSpec.gaussian(np.zeros((2, 2)), 0.7)
    u = np.random.default_rng(42).standard_normal((10, 1))
    L = 2
    assert effective_noise_autocov(m, noise, u, 3, 3, L) == pytest.approx(0.49, rel=1e-12)
    assert effective_noise_autocov(m, noise, u, 3, 5, L) == 0.0


def test_autocov_cross_window_term_vanishes_for_zero_dynamics():
    # A = 0 and |tau - tau'| >= L: windows do not overlap and no state carries
    rng = np.random.default_rng(43)
    m = StateSpaceModel(A=np.zeros((2, 2)), B=rng.standard_normal((2, 1)),
                        C=rng.standard_normal((1, 2)))
    noise = NoiseSpec.gaussian(0.8 * np.eye(2), 0.0)
    u = rng.standard_normal((10, 1))
    L = 2
    assert effective_noise_autocov(m, noise, u, 2, 4, L) == 0.0
    assert effective_noise_autocov(m, noise, u, 2, 5, L) == 0.0


def test_autocov_matches_monte_carlo():
    m = random_model(2, 1, 0.7, seed=44)
    noise = NoiseSpec.gaussian(np.array([[0.5, 0.1], [0.1, 0.3]]), 0.4)
    L, T = 2, 8
    u = np.random.default_rng(45).standard_normal((T + 1, 1))
    taus = list(range(L, T))
    cov, se = zeta_covariance_mc(m, noise, u, taus, 200_000, seed=46)
    for i, tau in enumerate(taus):
        for j, tau_p in enumerate(taus):
            closed = effective_noise_autocov(m, noise, u, tau, tau_p, L)
            assert abs(closed - cov[i, j]) <= 4.0 * max(se[i, j], 1e-12)


def test_autocov_symmetry():
    m = random_model(3, 2, 0.8, seed=47)
    noise = NoiseSpec.gaussian(0.6 * np.eye(3), 0.2)
    u = np.random.default_rng(48).standard_normal((12, 2))
    L = 3
    for tau in range(L, 11):
        for tau_p in range(L, 11):
            a = effective_noise_autocov(m, noise, u, tau, tau_p, L)
            b = effective_noise_autocov(m, noise, u, tau_p, tau, L)
            assert a == pytest.approx(b, abs=1e-10)


def test_autocov_rejects_out_of_range_lags():
    m = random_model(2, 1, 0.5, seed=49)
    noise = NoiseSpec.gaussian(np.eye(2), 0.1)
    u = np.zeros((8, 1))
    with pytest.raises(ParameterError):
        effective_noise_autocov(m, noise, u, 1, 3, L=2)
    with pytest.raises(ParameterError):
        effective_noise_autocov(m, noise, u, 3, 7, L=2)


def _autocov_by_explicit_sum(model, noise, u, tau, tau_p):
    # sum_{i<m} u_a' C A^(a-1-i) Sigma_w (A^(b-1-i))' C' u_b + sigma_z^2 [a = b]
    # for a = tau+1, b = tau'+1, m = min(a, b), with its own powers of A
    a, b = tau + 1, tau_p + 1
    powers = [np.eye(model.n)]
    for _ in range(max(a, b)):
        powers.append(powers[-1] @ model.A)
    total = 0.0
    for i in range(min(a, b)):
        total += float(u[a] @ model.C @ powers[a - 1 - i] @ noise.sigma_w
                       @ powers[b - 1 - i].T @ model.C.T @ u[b])
    return total + (noise.sigma_z ** 2 if a == b else 0.0)


def _non_normal_autocov_case(p, seed):
    # upper-triangular A with a strong off-diagonal part, correlated Sigma_w
    rng = np.random.default_rng(seed)
    n = 4
    A = np.triu(0.6 * rng.standard_normal((n, n)), k=1) + np.diag([0.7, -0.5, 0.3, 0.6])
    root = np.tril(rng.standard_normal((n, n)))
    model = StateSpaceModel(A=A, B=rng.standard_normal((n, p)), C=rng.standard_normal((p, n)))
    noise = NoiseSpec.gaussian(0.2 * root @ root.T, 0.3)
    return model, noise, rng.standard_normal((11, p))


@pytest.mark.parametrize("p", [1, 3])
def test_autocov_matches_explicit_noise_sum(p):
    # every lag pair for L=2, T=10, so |tau - tau'| runs up to 7 > L
    model, noise, u = _non_normal_autocov_case(p, seed=50 + p)
    L, T = 2, 10
    var = {tau: _autocov_by_explicit_sum(model, noise, u, tau, tau) for tau in range(L, T)}
    for tau in range(L, T):
        for tau_p in range(L, T):
            want = _autocov_by_explicit_sum(model, noise, u, tau, tau_p)
            got = effective_noise_autocov(model, noise, u, tau, tau_p, L)
            # absolute floor: 1e-12 of the Cauchy-Schwarz bound sqrt(var_a var_b)
            floor = 1e-12 * math.sqrt(var[tau] * var[tau_p])
            assert got == pytest.approx(want, rel=1e-12, abs=floor)


def test_autocov_does_not_depend_on_L():
    model, noise, u = _non_normal_autocov_case(3, seed=55)
    for tau in range(4, 10):
        for tau_p in range(4, 10):
            short = effective_noise_autocov(model, noise, u, tau, tau_p, L=1)
            long = effective_noise_autocov(model, noise, u, tau, tau_p, L=4)
            assert short == pytest.approx(long, rel=1e-12, abs=1e-15)


def test_autocov_memory_stays_small():
    n, p, L = 8, 4, 60
    model = random_model(n, p, 0.9, seed=56)
    noise = NoiseSpec.gaussian(np.eye(n), 0.1)
    u = np.random.default_rng(57).standard_normal((2 * L + 1, p))
    effective_noise_autocov(model, noise, u, L, L, L)  # warm imports and caches
    tracemalloc.start()
    try:
        effective_noise_autocov(model, noise, u, L + 5, 2 * L - 1, L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
