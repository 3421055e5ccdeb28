import math

import numpy as np
import pytest

from bilinid import (
    GAUSSIAN_M4,
    InputDesign,
    ParameterError,
    estimate_m4,
    min_eig_design,
    pe_certificate,
    pe_required_samples,
)
from bilinid.estimator import DesignSystem, design_from_inputs
from bilinid.excitation import REGIME_BOUNDED, REGIME_FOURTH_MOMENT, _covariate_rows
from bilinid.sysmodel import derive_rng


def _toy_design(U, L=1, p=1):
    U = np.atleast_2d(np.asarray(U, dtype=float))
    return DesignSystem(U_tilde=U, y=np.zeros(U.shape[0]), L=L,
                        T=L + U.shape[0], p=p)


# -------------------------------------------------------------- min_eig_design

def test_min_eig_identity_rows():
    d = _toy_design(np.eye(6))
    assert min_eig_design(d) == pytest.approx(1.0, abs=1e-12)


def test_min_eig_rank_deficient_is_zero():
    rng = np.random.default_rng(0)
    d = _toy_design(rng.standard_normal((4, 6)))
    assert min_eig_design(d) == 0.0


def test_min_eig_matches_dense_eigensolver_oracle():
    rng = np.random.default_rng(1)
    U = rng.standard_normal((50, 6))
    d = _toy_design(U)
    oracle = float(np.min(np.linalg.eigvalsh(U.T @ U)))
    assert min_eig_design(d) == pytest.approx(oracle, abs=1e-9)


def test_gram_psd_within_numerical_slack():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((40, 2))
        d = design_from_inputs(u, L=3)
        raw = float(np.min(np.linalg.eigvalsh(d.gram())))
        assert raw >= -1e-10


# --------------------------------------------------------- pe_required_samples

def test_required_samples_matches_display_oracle():
    # p=2, L=4, delta=0.1, m4=9
    got = pe_required_samples(2, 4, 0.1, REGIME_FOURTH_MOMENT, m4=9.0)
    oracle = math.ceil(32 * 5 * 9 * (math.log(100.0) + 16 * math.log(2561.0)))
    assert got == oracle
    assert abs(got - 187_500) < 1000  # ballpark sanity


def test_required_samples_decreasing_in_delta():
    values = [pe_required_samples(2, 4, d, REGIME_FOURTH_MOMENT, m4=9.0)
              for d in (0.05, 0.1, 0.5, 0.9)]
    assert all(values[i + 1] < values[i] for i in range(len(values) - 1))


def test_required_samples_linear_in_m4():
    base = pe_required_samples(2, 3, 0.1, REGIME_FOURTH_MOMENT, m4=5.0)
    double = pe_required_samples(2, 3, 0.1, REGIME_FOURTH_MOMENT, m4=10.0)
    assert abs(double - 2 * base) <= 1


def test_required_samples_bounded_regime_explicit_form():
    p, L, delta, beta = 1, 2, 0.1, 2.0
    got = pe_required_samples(p, L, delta, REGIME_BOUNDED, beta=beta)
    oracle = math.ceil(8 * (L + 1) * L * beta**4
                       * (math.log(2 * (L + 1) / delta) + p * p * L * math.log(9.0)))
    assert got == oracle


def test_required_samples_argument_validation():
    with pytest.raises(ParameterError):
        pe_required_samples(2, 4, 0.1, REGIME_BOUNDED)  # missing beta
    with pytest.raises(ParameterError):
        pe_required_samples(2, 4, 0.1, REGIME_FOURTH_MOMENT)  # missing m4
    with pytest.raises(ParameterError):
        pe_required_samples(2, 4, 1.5, REGIME_FOURTH_MOMENT, m4=9.0)
    with pytest.raises(ParameterError):
        pe_required_samples(2, 4, 0.1, "no_such_regime", m4=9.0)


# --------------------------------------------------------------- pe_certificate

def test_certificate_toy_orthonormal_rows():
    # rows = identity: lambda_min = 1, threshold = rows/4
    for k in (2, 8):
        d = _toy_design(np.eye(k))
        cert = pe_certificate(d, 0.1, REGIME_FOURTH_MOMENT, m4=9.0)
        assert cert.lambda_min == pytest.approx(1.0, abs=1e-12)
        assert cert.threshold == k / 4.0
        assert cert.passed == (1.0 >= k / 4.0)


def test_certificate_zero_inputs_fails():
    d = design_from_inputs(np.zeros((20, 1)), L=2)
    cert = pe_certificate(d, 0.1, REGIME_FOURTH_MOMENT, m4=9.0)
    assert cert.lambda_min == 0.0
    assert not cert.passed


def test_certificate_repeated_input_vector_fails():
    u = np.tile([[1.0, -1.0]], (40, 1))
    d = design_from_inputs(u, L=2)
    cert = pe_certificate(d, 0.1, REGIME_BOUNDED, beta=float(np.sqrt(2.0)))
    assert cert.lambda_min == 0.0
    assert not cert.passed


def test_certificate_regime_constants():
    d = _toy_design(np.eye(4), L=2, p=1)
    beta = 1.7
    cert_a = pe_certificate(d, 0.2, REGIME_BOUNDED, beta=beta)
    assert cert_a.gamma1 == pytest.approx(beta**4 * d.L)
    assert cert_a.gamma2 == 1.0
    cert_b = pe_certificate(d, 0.2, REGIME_FOURTH_MOMENT, m4=9.0)
    assert cert_b.gamma1 == 9.0
    assert cert_b.gamma2 == pytest.approx(math.log(1.0 + 16.0 * d.p**2 * d.L / 0.2))


def test_certificate_threshold_is_literal_comparison():
    # scale identity rows so lambda_min straddles rows/4 exactly
    rows = 8
    just_below = _toy_design(np.sqrt(rows / 4.0 - 1e-9) * np.eye(rows))
    just_at = _toy_design(np.sqrt(rows / 4.0) * np.eye(rows))
    cert_lo = pe_certificate(just_below, 0.1, REGIME_FOURTH_MOMENT, m4=9.0)
    cert_at = pe_certificate(just_at, 0.1, REGIME_FOURTH_MOMENT, m4=9.0)
    assert not cert_lo.passed
    assert cert_at.passed


def test_certificate_frequency_at_required_length():
    # small instance of the excitation guarantee: p=1, L=2, delta=0.1
    p, L, delta = 1, 2, 0.1
    required = pe_required_samples(p, L, delta, REGIME_FOURTH_MOMENT, m4=9.0)
    design_in = InputDesign.gaussian(p)
    hits = 0
    trials = 20
    for k in range(trials):
        u = design_in.sample_sequence(L + required, derive_rng(1234, k))
        d = design_from_inputs(u, L)
        cert = pe_certificate(d, delta, REGIME_FOURTH_MOMENT, m4=9.0)
        assert cert.required_T == L + required
        hits += cert.passed
    assert hits / trials >= 0.9


def test_certificate_serializes_expected_fields():
    d = _toy_design(np.eye(4), L=2, p=1)
    cert = pe_certificate(d, 0.1, REGIME_FOURTH_MOMENT, m4=9.0)
    assert set(cert.to_dict()) == {"lambda_min", "threshold", "passed", "regime",
                                   "required_T", "gamma1", "gamma2", "delta"}


# ------------------------------------------------------------------ estimate_m4

def test_m4_gaussian_scalar_direction_near_nine():
    est = estimate_m4(InputDesign.gaussian(1), L=1, n_directions=1,
                      n_samples=100_000, seed=3, directions=np.array([[1.0]]))
    assert abs(est.estimates[0] - GAUSSIAN_M4) <= 3.0 * est.std_errors[0]


def _gaussian_m4_exact(v, p, L):
    # v^T (ubar (x) u) = ubar^T W u with W = unvec(v) (pL x p); given u it is
    # N(0, ||W u||^2), and Isserlis gives E[(u^T M u)^2] = (tr M)^2 + 2 ||M||_F^2
    # for M = W^T W, tr M = ||v||^2 = 1; at most 9, equal iff rank W = 1
    W = (v / np.linalg.norm(v)).reshape(p * L, p)
    M = W.T @ W
    return 3.0 * (1.0 + 2.0 * float(np.sum(M * M)))


@pytest.mark.parametrize("p,L", [(2, 3), (1, 4), (3, 2)])
def test_m4_gaussian_matches_exact_fourth_moment(p, L):
    rng = np.random.default_rng(100 * p + L)
    rank_one = np.kron(rng.standard_normal(p * L), rng.standard_normal(p))
    directions = np.vstack([rng.standard_normal((4, p * p * L)), rank_one])
    est = estimate_m4(InputDesign.gaussian(p), L=L, n_directions=5,
                      n_samples=100_000, seed=7, directions=directions)
    exact = np.array([_gaussian_m4_exact(v, p, L) for v in directions])
    assert exact[-1] == pytest.approx(GAUSSIAN_M4, rel=1e-12)
    assert np.all(exact <= GAUSSIAN_M4 * (1.0 + 1e-12))
    assert np.all(np.abs(est.estimates - exact) <= 4.0 * est.std_errors)


@pytest.mark.parametrize("p,L", [(2, 3), (3, 4), (1, 4), (3, 1)])
def test_m4_gaussian_bounded_by_nine_plus_noise(p, L):
    est = estimate_m4(InputDesign.gaussian(p), L=L, n_directions=20,
                      n_samples=50_000, seed=5)
    assert np.all(est.estimates <= GAUSSIAN_M4 + 3.0 * est.std_errors)


def test_m4_deterministic_given_seed():
    a = estimate_m4(InputDesign.gaussian(2), L=2, n_directions=4,
                    n_samples=2000, seed=11)
    b = estimate_m4(InputDesign.gaussian(2), L=2, n_directions=4,
                    n_samples=2000, seed=11)
    assert np.array_equal(a.estimates, b.estimates)
    assert a.value == b.value


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("L", [1, 3])
def test_covariate_rows_are_kronecker_rows_of_sequence_windows(p, L):
    rows = _covariate_rows(InputDesign.gaussian(p), L, 40, np.random.default_rng(2))
    # the same draws, as 40 windows u_{t-L}..u_t
    windows = np.random.default_rng(2).standard_normal((40 * (L + 1), p)).reshape(40, L + 1, p)
    assert rows.shape == (40, p * p * L)
    for row, w in zip(rows, windows):
        assert np.array_equal(row, np.kron(w[:L][::-1].reshape(-1), w[L]))


def test_m4_matches_brute_force_fourth_power():
    design, L, seed = InputDesign.gaussian(2), 2, 13
    directions = np.random.default_rng(1).standard_normal((3, 8))
    est = estimate_m4(design, L=L, n_directions=3, n_samples=5000, seed=seed,
                      directions=directions)
    for k, v in enumerate(directions):
        rows = _covariate_rows(design, L, 5000, derive_rng(seed, 1, k))
        proj = rows @ (v / np.linalg.norm(v))
        assert est.estimates[k] == pytest.approx(np.mean(proj**4), rel=1e-12)
        assert est.std_errors[k] == pytest.approx(
            np.std(proj**4, ddof=1) / math.sqrt(5000), rel=1e-12)
