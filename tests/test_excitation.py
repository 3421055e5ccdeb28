import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bilinid import (
    InputDesign,
    NumericalError,
    ParameterError,
    design_from_inputs,
    estimate_markov,
    pe_certificate,
)
from bilinid import excitation
from bilinid.estimator import DesignSystem, _kron_rows
from bilinid.excitation import (
    GAUSSIAN_M4,
    M4_BLOCK_SAMPLES,
    REGIME_BOUNDED,
    REGIME_FOURTH_MOMENT,
    estimate_m4,
    min_eig_design,
    pe_required_samples,
)
from bilinid.sysmodel import derive_rng


# -------------------------------------------------------------- min_eig_design

def test_min_eig_identity_rows(rows_design):
    d = rows_design(np.eye(6))
    assert min_eig_design(d) == pytest.approx(1.0, abs=1e-12)


def test_min_eig_rank_deficient_is_zero(rows_design):
    rng = np.random.default_rng(0)
    d = rows_design(rng.standard_normal((4, 6)))
    assert min_eig_design(d) == 0.0


@given(st.integers(1, 3), st.integers(1, 5), st.data())
def test_min_eig_of_a_wide_design_is_the_estimate_value_zero(p, L, data):
    # fewer rows than p^2 L: U^T U is singular, and pe-check and estimate
    # must report the same 0.0 rather than an eigensolver's roundoff
    assume(p * p * L > 1)
    rows = data.draw(st.integers(1, p * p * L - 1), label="rows")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    u = np.random.default_rng(seed).standard_normal((L + rows + 1, p))
    d = design_from_inputs(u, L)
    assert min_eig_design(d) == estimate_markov(d).lambda_min == 0.0


def test_min_eig_of_a_singular_tall_design_is_the_estimate_value_zero():
    # u = [v, v], p = 2, L = 3: 56 rows of 12 columns and a singular U^T U,
    # whose smallest eigenvalue the eigensolver returns as -1e-13 roundoff
    v = np.random.default_rng(0).standard_normal(60)
    d = design_from_inputs(np.column_stack([v, v]), L=3)
    assert d.rows > d.U_tilde.shape[1]
    assert estimate_markov(d).lambda_min == min_eig_design(d) == 0.0


def test_wide_designs_never_form_the_column_gram(monkeypatch):
    def refuse(self):
        raise AssertionError("U^T U formed for a wide design")

    monkeypatch.setattr(DesignSystem, "gram", refuse)
    d = design_from_inputs(np.random.default_rng(2).standard_normal((10, 2)), L=3)
    assert d.rows < d.U_tilde.shape[1]
    assert min_eig_design(d) == 0.0
    assert estimate_markov(d).solver_mode == "min_norm"


def test_min_eig_matches_dense_eigensolver_oracle(rows_design):
    rng = np.random.default_rng(1)
    U = rng.standard_normal((50, 6))
    d = rows_design(U)
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


@pytest.mark.parametrize("beta", [1e80, 1e77], ids=["beta**4 overflows", "product overflows"])
def test_required_samples_past_the_float_range_raise_numerical_error(beta):
    # beta**4 raises OverflowError at 1e80; at 1e77 it is finite (1e308) and
    # only the requirement 8 (L+1) L beta^4 (...) overflows
    with pytest.raises(NumericalError, match="^regime bounded_a: the sample requirement "
                                             "is past the float range$"):
        pe_required_samples(2, 2, 0.1, REGIME_BOUNDED, beta=beta)


def _quotient_required_samples(p, L, delta, regime, beta=None, m4=None):
    # the displayed formulas, with each a/delta formed as a quotient
    d = p * p * L
    if regime == REGIME_BOUNDED:
        need = 8.0 * (L + 1) * L * beta**4 * (math.log(2.0 * (L + 1) / delta)
                                             + d * math.log(9.0))
    else:
        need = 32.0 * (L + 1) * m4 * (math.log(2.0 * (L + 1) / delta)
                                      + d * math.log(1.0 + 16.0 * d / delta))
    return math.ceil(need)


@given(p=st.integers(1, 3), L=st.integers(1, 6),
       delta=st.floats(1e-300, 1.0, exclude_max=True))
def test_required_samples_keep_the_quotient_form_bitwise(p, L, delta):
    # every quotient a/delta here is finite, so every count keeps its bits
    for regime in (REGIME_BOUNDED, REGIME_FOURTH_MOMENT):
        assert (pe_required_samples(p, L, delta, regime, beta=2.0, m4=9.0)
                == _quotient_required_samples(p, L, delta, regime, beta=2.0, m4=9.0))
    assert pe_required_samples(2, 4, 0.1, REGIME_FOURTH_MOMENT, m4=9.0) == 187_453


def test_required_samples_at_the_smallest_delta_are_finite():
    # 2(L+1)/delta and 16 p^2 L/delta overflow at delta = 5e-324, their logs do not
    got = pe_required_samples(2, 4, 5e-324, REGIME_FOURTH_MOMENT, m4=9.0)
    log_delta = math.log(5e-324)
    assert got == 18_354_970 == math.ceil(
        32 * 5 * 9 * (math.log(10.0) - log_delta + 16 * (math.log(256.0) - log_delta)))
    assert pe_required_samples(2, 4, 5e-324, REGIME_BOUNDED, beta=2.0) == math.ceil(
        8 * 5 * 4 * 2.0**4 * (math.log(10.0) - log_delta + 16 * math.log(9.0)))
    cert = pe_certificate(design_from_inputs(np.eye(40, 2) + 1.0, 4), 5e-324,
                          REGIME_FOURTH_MOMENT, m4=9.0)
    assert cert.required_T == 4 + got and math.isfinite(cert.gamma2)


def test_required_samples_continue_across_the_quotient_overflow():
    # the last delta whose 16 p^2 L/delta is finite and the first whose is not
    # give counts at most one apart
    hi = 256.0 / sys.float_info.max
    while 256.0 / hi < math.inf:
        hi = math.nextafter(hi, 0.0)
    lo, hi = hi, math.nextafter(hi, 1.0)
    assert 256.0 / lo == math.inf and 256.0 / hi < math.inf
    counts = [pe_required_samples(2, 4, delta, REGIME_FOURTH_MOMENT, m4=9.0)
              for delta in (lo, hi)]
    assert 0 <= counts[0] - counts[1] <= 1


# --------------------------------------------------------------- pe_certificate

def test_certificate_toy_orthonormal_rows(rows_design):
    # rows = identity: lambda_min = 1, threshold = rows/4
    for k in (2, 8):
        d = rows_design(np.eye(k))
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


def test_certificate_regime_constants(rows_design):
    d = rows_design(np.eye(4))
    beta = 1.7
    cert_a = pe_certificate(d, 0.2, REGIME_BOUNDED, beta=beta)
    assert cert_a.gamma1 == pytest.approx(beta**4 * d.L)
    assert cert_a.gamma2 == 1.0
    cert_b = pe_certificate(d, 0.2, REGIME_FOURTH_MOMENT, m4=9.0)
    assert cert_b.gamma1 == 9.0
    assert cert_b.gamma2 == pytest.approx(math.log(1.0 + 16.0 * d.p**2 * d.L / 0.2))


def test_certificate_threshold_is_literal_comparison(rows_design):
    # scale identity rows so lambda_min straddles rows/4 exactly
    rows = 8
    just_below = rows_design(np.sqrt(rows / 4.0 - 1e-9) * np.eye(rows))
    just_at = rows_design(np.sqrt(rows / 4.0) * np.eye(rows))
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


@pytest.mark.parametrize("delta, p, L, regime, beta, m4", [
    (0.0, 2, 4, REGIME_FOURTH_MOMENT, None, 9.0),
    (1.0, 2, 4, REGIME_FOURTH_MOMENT, None, 9.0),
    (1.5, 2, 4, REGIME_BOUNDED, 2.0, None),
    (math.nan, 2, 4, REGIME_BOUNDED, 2.0, None),
    (0.1, 0, 4, REGIME_FOURTH_MOMENT, None, 9.0),
    (0.1, 2, 0, REGIME_BOUNDED, 2.0, None),
    (0.1, 2, 4, REGIME_BOUNDED, None, 9.0),
    (0.1, 2, 4, REGIME_BOUNDED, 0.0, None),
    (0.1, 2, 4, REGIME_BOUNDED, math.inf, None),
    (0.1, 2, 4, REGIME_FOURTH_MOMENT, 2.0, None),
    (0.1, 2, 4, REGIME_FOURTH_MOMENT, None, -9.0),
    (0.1, 2, 4, REGIME_FOURTH_MOMENT, None, math.nan),
    (0.1, 2, 4, "no_such_regime", 2.0, 9.0),
], ids=["delta 0", "delta 1", "delta 1.5", "delta nan", "p 0", "L 0",
        "missing beta", "zero beta", "inf beta", "missing m4", "negative m4",
        "nan m4", "unknown regime"])
def test_certificate_refuses_invalid_input_before_eigensolve(monkeypatch, delta, p, L,
                                                             regime, beta, m4):
    def eigensolve(design):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(excitation, "min_eig_design", eigensolve)
    design = SimpleNamespace(p=p, L=L, rows=64)
    with pytest.raises(ParameterError):
        pe_certificate(design, delta, regime, beta=beta, m4=m4)
    with pytest.raises(ParameterError):
        pe_required_samples(p, L, delta, regime, beta=beta, m4=m4)
    # the same design with valid arguments does reach the eigensolve
    with pytest.raises(AssertionError, match="eigensolve reached"):
        pe_certificate(SimpleNamespace(p=2, L=4, rows=64), 0.1, REGIME_BOUNDED, beta=2.0)


@given(p=st.integers(1, 3), L=st.integers(1, 6),
       delta=st.floats(1e-12, 1.0, exclude_max=True),
       beta=st.floats(1e-6, 1e6), m4=st.floats(1e-6, 1e6))
def test_certificate_constants_match_required_samples(p, L, delta, beta, m4):
    d = p * p * L
    u = np.random.default_rng(0).standard_normal((L + d + 3, p))
    design = design_from_inputs(u, L)
    closed_forms = {REGIME_BOUNDED: (beta**4 * L, 1.0),
                    REGIME_FOURTH_MOMENT: (m4, math.log(1.0 + 16.0 * d / delta))}
    for regime, gammas in closed_forms.items():
        # each regime reads only its own parameter; the other is passed too
        cert = pe_certificate(design, delta, regime, beta=beta, m4=m4)
        assert cert.required_T == L + pe_required_samples(p, L, delta, regime,
                                                          beta=beta, m4=m4)
        assert (cert.gamma1, cert.gamma2) == gammas


def test_certificate_serializes_expected_fields(rows_design):
    d = rows_design(np.eye(4))
    cert = pe_certificate(d, 0.1, REGIME_FOURTH_MOMENT, m4=9.0)
    assert set(cert._asdict()) == {"lambda_min", "threshold", "passed", "regime",
                                   "required_T", "gamma1", "gamma2", "delta"}


# ------------------------------------------------------------------ estimate_m4

def test_m4_gaussian_scalar_direction_near_nine():
    estimates, std_errors, _ = estimate_m4(1, L=1, n_directions=1, n_samples=100_000,
                                           seed=3, directions=np.array([[1.0]]))
    assert abs(estimates[0] - GAUSSIAN_M4) <= 3.0 * std_errors[0]


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
    estimates, std_errors, units = estimate_m4(p, L=L, n_directions=5, n_samples=100_000,
                                               seed=7, directions=directions)
    exact = np.array([_gaussian_m4_exact(v, p, L) for v in directions])
    unit = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    assert units.tobytes() == unit.tobytes()
    assert exact[-1] == pytest.approx(GAUSSIAN_M4, rel=1e-12)
    assert np.all(exact <= GAUSSIAN_M4 * (1.0 + 1e-12))
    assert np.all(np.abs(estimates - exact) <= 4.0 * std_errors)


@pytest.mark.parametrize("p,L", [(2, 3), (3, 4), (1, 4), (3, 1)])
def test_m4_gaussian_bounded_by_nine_plus_noise(p, L):
    estimates, std_errors, _ = estimate_m4(p, L=L, n_directions=20,
                                           n_samples=50_000, seed=5)
    assert np.all(estimates <= GAUSSIAN_M4 + 3.0 * std_errors)


def test_m4_deterministic_given_seed():
    a = estimate_m4(2, L=2, n_directions=4,
                    n_samples=2000, seed=11)
    b = estimate_m4(2, L=2, n_directions=4,
                    n_samples=2000, seed=11)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert np.max(a[0]) == np.max(b[0])


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("L", [1, 3])
def test_covariate_rows_are_kronecker_rows_of_sequence_windows(p, L):
    # the 40 windows u_{t-L}..u_t of a sequence of 40 + L inputs, their
    # covariate rows ubar_{t-1} (x) u_t, and the identity estimate_m4 samples
    # by: v^T (ubar (x) u) = ubar^T W u with W = v.reshape(p L, p)
    seq = np.random.default_rng(2).standard_normal((40 + L, p))
    rows = _kron_rows(seq, L)
    v = np.random.default_rng(3).standard_normal(p * p * L)
    W = v.reshape(p * L, p)
    assert rows.shape == (40, p * p * L)
    for row, w in zip(rows, (seq[t:t + L + 1] for t in range(40))):
        ubar = w[:L][::-1].reshape(-1)
        assert np.array_equal(row, np.kron(ubar, w[L]))
        assert row @ v == pytest.approx(ubar @ W @ w[L], rel=1e-12, abs=1e-12)


def test_m4_matches_brute_force_fourth_power():
    # each sample is ||W u|| g: per block of M4_BLOCK_SAMPLES, u and then g,
    # from the direction's own stream; one block, and three
    p, L, seed = 2, 2, 13
    directions = np.random.default_rng(1).standard_normal((3, 8))
    for count in (5000, 2 * M4_BLOCK_SAMPLES + 5):
        estimates, std_errors, _ = estimate_m4(p, L=L, n_directions=3, n_samples=count,
                                               seed=seed, directions=directions)
        for k, v in enumerate(directions):
            rng = derive_rng(seed, 1, k)
            W = (v / np.linalg.norm(v)).reshape(p * L, p)
            proj = []
            for start in range(0, count, M4_BLOCK_SAMPLES):
                m = min(M4_BLOCK_SAMPLES, count - start)
                u = rng.standard_normal((m, p))
                g = rng.standard_normal(m)
                proj.append(np.linalg.norm(u @ W.T, axis=1) * g)
            proj = np.concatenate(proj)
            assert estimates[k] == pytest.approx(np.mean(proj**4), rel=1e-12)
            assert std_errors[k] == pytest.approx(
                np.std(proj**4, ddof=1) / math.sqrt(count), rel=1e-12)


def test_m4_takes_the_input_dimension_of_its_gaussian_inputs():
    # the Gaussian law is the only one the conditional sampler holds for, so
    # estimate_m4 takes p alone, checked as InputDesign.gaussian(p) checks it
    with pytest.raises(ParameterError, match="input dimension"):
        estimate_m4(0, L=2, n_directions=3, n_samples=100, seed=0)
