import ast
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bilinid import (
    InputDesign,
    NoiseSpec,
    NumericalError,
    ParameterError,
    bound_data_dependent,
    bound_terms,
    controllability_gramian,
    design_from_inputs,
    estimate_markov,
    fit,
    markov_params,
    random_model,
    simulate,
    transient_factor,
)
from bilinid import estimator
from bilinid.estimator import (
    BoundTerms,
    effective_noise_autocov,
    ellipsoidal_error,
    empirical_input_bound,
    prediction_bound,
    prediction_state_norms,
    unvec,
    vec,
)
from bilinid.excitation import min_eig_design
from bilinid.experiments import batch_simulate_outputs, zeta_covariance_mc
from bilinid.sysmodel import StateSpaceModel, _markov_blocks, _spectral_radii, _truncated_gramians


def _nilpotent_model(n, p, seed):
    rng = np.random.default_rng(seed)
    A = np.tril(rng.standard_normal((n, n)), k=-1)
    B = rng.standard_normal((n, p)) / np.sqrt(n)
    C = rng.standard_normal((p, n)) / np.sqrt(p)
    return StateSpaceModel(A=A, B=B, C=C)


# --------------------------------------------------------- design_from_inputs

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
        ubar = u[t - L:t][::-1].reshape(-1)
        expected = np.linalg.norm(ubar) * np.linalg.norm(u[t])
        assert np.linalg.norm(d.U_tilde[i]) == pytest.approx(expected, rel=1e-12)


def test_design_rows_match_explicit_kron():
    rng = np.random.default_rng(9)
    u = rng.standard_normal((12, 2))
    L = 3
    d = design_from_inputs(u, L)
    for i, t in enumerate(range(L + 1, 12)):
        row = np.kron(u[t - L:t][::-1].reshape(-1), u[t])
        assert np.array_equal(d.U_tilde[i], row)


def _einsum_design_rows(u, L):
    """Row build by one einsum over a stacked ubar copy (an independent oracle)."""
    T, p = u.shape[0] - 1, u.shape[1]
    ubar = np.hstack([u[L - j: T - j] for j in range(L)])
    return np.einsum("ti,tj->tij", ubar, u[L + 1:]).reshape(T - L, p * p * L)


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
# a subnormal G, whose products round differently in the two orders
# (1.5e-323 against 1e-323): the example pool drew it only when the whole
# suite was loaded, so it is pinned here
@example((np.full((3, 1), 1.5), np.array([[5e-324]]), 1))
def test_design_rows_are_the_bilinear_form_of_vec_G(case):
    # u_t' G ubar_{t-1} = (ubar_{t-1} (x) u_t)' vec(G) for every row t = L+1..T
    u, G, L = case
    U = _einsum_design_rows(u, L)
    for i, t in enumerate(range(L + 1, u.shape[0])):
        ubar = np.concatenate([u[t - 1 - j] for j in range(L)])
        scale = np.abs(u[t]) @ np.abs(G) @ np.abs(ubar)
        # tiny absorbs roundoff among subnormal products, which have no relative accuracy
        assert abs(u[t] @ G @ ubar - U[i] @ vec(G)) <= 1e-12 * scale + np.finfo(float).tiny


@pytest.mark.parametrize("p,L", [(1, 1), (2, 4), (3, 3)])
def test_design_bit_identical_to_einsum_build_and_column_major(p, L):
    # a square design, the tallest that keeps its rows
    u = np.random.default_rng(p * 10 + L).standard_normal((L + 1 + p * p * L, p))
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


# ------------------------------------------------------- blocked statistics

@pytest.mark.parametrize("rows", [estimator.BLOCK_ROWS - 1, estimator.BLOCK_ROWS,
                                  estimator.BLOCK_ROWS + 1, 2 * estimator.BLOCK_ROWS + 1])
def test_block_statistics_match_the_dense_build(rows):
    p, L = 1, 2
    rng = np.random.default_rng(rows)
    u = rng.standard_normal((L + 1 + rows, p))
    y = rng.standard_normal(L + 1 + rows)
    d = design_from_inputs(u, L, y)
    U, y_rows = _einsum_design_rows(u, L), y[L + 1:]
    assert d.rows == rows and d.U_tilde.shape == (0, p * p * L)
    for got, dense in ((d.gram(), U.T @ U), (d.Uty, U.T @ y_rows), (d.yty, y_rows @ y_rows)):
        assert np.linalg.norm(got - dense) <= 1e-13 * np.linalg.norm(dense)


@pytest.mark.parametrize("kind", ["gaussian_isotropic", "bounded_sphere"])
@pytest.mark.parametrize("rows", [1, 12, estimator.BLOCK_ROWS - 1, estimator.BLOCK_ROWS,
                                  estimator.BLOCK_ROWS + 1, 2 * estimator.BLOCK_ROWS + 3])
def test_drawn_design_is_bitwise_the_design_of_the_drawn_array(kind, rows):
    # p = 2, L = 3: 12 columns, so 1 and 12 rows keep their rows and the
    # taller designs span one to three blocks
    p, L = 2, 3
    T = L + rows
    design_in = InputDesign(kind=kind, p=p)
    rng, ref_rng = np.random.default_rng(rows), np.random.default_rng(rows)
    drawn = design_from_inputs(design_in, L, T=T, rng=rng)
    ref = design_from_inputs(design_in.sample_sequence(T, ref_rng), L)
    assert (drawn.rows, drawn.T, drawn.p, drawn.L) == (ref.rows, ref.T, ref.p, ref.L)
    assert drawn.U_tilde.shape == ref.U_tilde.shape
    assert drawn.U_tilde.tobytes() == ref.U_tilde.tobytes()
    if rows <= p * p * L:
        assert drawn.V is None and ref.V is None
    else:
        assert drawn.V.tobytes() == ref.V.tobytes()
    # the generator is left where drawing the whole sequence leaves it
    assert rng.standard_normal(4).tobytes() == ref_rng.standard_normal(4).tobytes()


@pytest.mark.parametrize("kind", ["gaussian_isotropic", "bounded_sphere"])
def test_drawn_design_stopped_at_its_target_is_the_shorter_design(kind):
    # p = 2, L = 3: (T - L)/4 = 5 BLOCK_ROWS/4 is cleared after 2 of 5 blocks
    p, L = 2, 3
    T = L + 5 * estimator.BLOCK_ROWS
    design_in = InputDesign(kind=kind, p=p)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    target = (T - L) / 4.0
    stopped = design_from_inputs(design_in, L, T=T, rng=rng, lambda_min_target=target)
    assert stopped.T == L + stopped.rows and stopped.rows == 2 * estimator.BLOCK_ROWS
    ref = design_from_inputs(design_in, L, T=stopped.T, rng=ref_rng)
    assert ref.rows == stopped.rows
    assert stopped.V.tobytes() == ref.V.tobytes()
    assert stopped.Uty.tobytes() == ref.Uty.tobytes() and stopped.yty == ref.yty == 0.0
    # the generator is left where the shorter sequence leaves it
    assert rng.standard_normal(4).tobytes() == ref_rng.standard_normal(4).tobytes()
    assert min_eig_design(stopped) >= target


def test_array_design_stopped_at_its_target_keeps_the_prefix_sums(monkeypatch):
    monkeypatch.setattr(estimator, "BLOCK_ROWS", 7)
    p, L, rows = 1, 2, 200
    rng = np.random.default_rng(3)
    u = rng.standard_normal((L + 1 + rows, p))
    y = rng.standard_normal(L + 1 + rows)
    stopped = design_from_inputs(u, L, y, lambda_min_target=rows / 4.0)
    assert stopped.rows < rows and stopped.rows % 7 == 0 and stopped.T == L + stopped.rows
    ref = design_from_inputs(u[:stopped.T + 1], L, y[:stopped.T + 1])
    for got, want in ((stopped.V, ref.V), (stopped.Uty, ref.Uty)):
        assert got.tobytes() == want.tobytes()
    assert stopped.yty == ref.yty


@pytest.mark.parametrize("rows", [12, 13, 5 * 7, 5 * 7 + 3])
def test_design_short_of_its_target_is_the_full_design(monkeypatch, rows):
    # a design that keeps its rows (at most 12) never stops, and a tall one
    # none of whose prefixes reaches its target, 10 rows, is the design
    # built without a target
    monkeypatch.setattr(estimator, "BLOCK_ROWS", 7)
    p, L = 2, 3
    u = np.random.default_rng(rows).standard_normal((L + 1 + rows, p))
    plain = design_from_inputs(u, L)
    got = design_from_inputs(u, L, lambda_min_target=0.0 if rows <= 12 else 10.0 * rows)
    assert (got.T, got.rows) == (plain.T, plain.rows)
    if rows <= 12:
        assert got.U_tilde.tobytes() == plain.U_tilde.tobytes()
    else:
        assert got.V.tobytes() == plain.V.tobytes()


@pytest.mark.parametrize("rows", [2, 20], ids=["kept", "tall"])
def test_design_gram_sums_past_the_float_range_raise_numerical_error(rows):
    # p = 1, L = 2: a design of at most 2 rows keeps them, and sums only
    # U^T y.  Inputs of 1e80 give finite rows (1e160) whose sums are not
    T = 2 + rows
    cases = [(np.full(T + 1, 1e80), np.full(T + 1, 1e160))]
    if rows > 2:
        # a tall design's Gram overflows alone, and so does its y^T y
        cases += [(np.full(T + 1, 1e80), None), (np.ones(T + 1), np.full(T + 1, 1e160))]
    for u, y in cases:
        with pytest.raises(NumericalError, match="Gram sums overflow"):
            design_from_inputs(u, 2, y)


def test_drawn_design_needs_T_and_rng_and_takes_no_outputs():
    design_in, rng = InputDesign.gaussian(2), np.random.default_rng(0)
    for kwargs in ({"rng": rng}, {"T": 20}, {"T": 20, "rng": rng, "y": np.zeros(21)}):
        with pytest.raises(ParameterError):
            design_from_inputs(design_in, 3, **kwargs)
    for kwargs in ({"T": 20}, {"rng": rng}):
        with pytest.raises(ParameterError):
            design_from_inputs(np.zeros((21, 2)), 3, **kwargs)


def test_design_past_the_size_limit_is_refused_before_any_draw():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(MemoryError):
        design_from_inputs(InputDesign.gaussian(10**15), 4, T=10, rng=rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("p,L", [(1, 2), (2, 3)])
def test_design_keeps_its_rows_exactly_when_rows_at_most_columns(p, L):
    cols = p * p * L
    rng = np.random.default_rng(cols)
    for rows in (cols - 1, cols, cols + 1):
        u = rng.standard_normal((L + 1 + rows, p))
        d = design_from_inputs(u, L, rng.standard_normal(L + 1 + rows))
        kept = rows <= cols
        assert d.rows == rows
        assert d.U_tilde.shape == ((rows, cols) if kept else (0, cols))
        assert d.y.shape == ((rows,) if kept else (0,))
        assert (d.V is None) == kept
        if kept:
            assert np.array_equal(d.U_tilde, _einsum_design_rows(u, L))
            # every design carries U^T y; a kept one forms it from its rows
            assert d.Uty.tobytes() == (d.U_tilde.T @ d.y).tobytes()


def test_certified_square_fit_is_the_normal_equations_solve():
    p, L = 2, 3
    cols = p * p * L
    rng = np.random.default_rng(41)
    d = design_from_inputs(rng.standard_normal((L + 1 + cols, p)), L,
                           rng.standard_normal(L + 1 + cols))
    U, y = d.U_tilde, d.y
    assert U.shape == (cols, cols)
    report = estimate_markov(d)
    assert report.solver_mode == "full_rank"
    assert vec(report.G_hat).tobytes() == np.linalg.solve(U.T @ U, U.T @ y).tobytes()


def test_tall_residual_and_ellipsoidal_error_match_the_dense_design():
    m = random_model(3, 2, 0.6, seed=31)
    noise = NoiseSpec.gaussian(0.5 * np.eye(3), 0.7)
    L, T = 3, 3 * estimator.BLOCK_ROWS // 2
    traj = simulate(m, noise, InputDesign.gaussian(2), T, seed=32)
    d = design_from_inputs(traj.u, L, traj.y)
    report = estimate_markov(d)
    assert report.solver_mode == "full_rank"
    U, y = _einsum_design_rows(traj.u, L), traj.y[L + 1:]
    theta = vec(report.G_hat)
    assert report.residual_norm == pytest.approx(np.linalg.norm(y - U @ theta), rel=1e-8)
    G = markov_params(m, L).G
    assert ellipsoidal_error(report.G_hat, G, d) == pytest.approx(
        np.linalg.norm(U @ (theta - vec(G))), rel=1e-8)


@pytest.mark.parametrize("inputs", ["repeated_component", "zero_component", "all_zero"])
def test_singular_tall_design_falls_back_to_the_dense_min_norm_fit(inputs):
    # p = 2, L = 3: 56 rows of 12 columns, a Gram that is not full rank
    rng = np.random.default_rng(33)
    v = rng.standard_normal(60)
    u = {"repeated_component": np.column_stack([v, v]),
         "zero_component": np.column_stack([v, np.zeros(60)]),
         "all_zero": np.zeros((60, 2))}[inputs]
    y = rng.standard_normal(60)
    d = design_from_inputs(u, 3, y)
    report = estimate_markov(d)
    assert report.solver_mode == "min_norm"
    U = _einsum_design_rows(u, 3)
    ref = np.linalg.lstsq(U, y[4:], rcond=None)[0]
    assert np.linalg.norm(vec(report.G_hat) - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))
    assert report.residual_norm == pytest.approx(np.linalg.norm(y[4:] - U @ ref), rel=1e-12)


def _child_peak_rss(script: str) -> int:
    """Peak resident set, in bytes, of a fresh interpreter running script."""
    # A process's ru_maxrss also counts the image it replaced by exec: a
    # direct child of this test process would report the test process's
    # size.  A small launcher in between reads its child's own peak.
    launcher = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    src = str(Path(estimator.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", launcher, script], env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout) * 1024  # ru_maxrss is in KiB on Linux


def test_long_trajectory_fits_in_bounded_memory():
    # T = 1e6, p = 2, L = 16: a dense design would take 488 MiB
    script = (
        "import numpy as np\n"
        "from bilinid.estimator import design_from_inputs, estimate_markov\n"
        "rng = np.random.default_rng(0)\n"
        "T, L = 10**6, 16\n"
        "u = rng.standard_normal((T + 1, 2))\n"
        "y = rng.standard_normal(T + 1)\n"
        "report = estimate_markov(design_from_inputs(u, L, y))\n"
        "assert report.solver_mode == 'full_rank'\n")
    assert _child_peak_rss(script) < 200e6


def test_long_campaign_trial_holds_no_input_sequence():
    # T = 4e6, p = 2, L = 4: the input sequence u_0..u_T alone takes 64 MB,
    # and a campaign trial that held it would grow by at least that much over
    # the bare import; one that draws block by block holds a few MB
    script = (
        "from bilinid.experiments import ExperimentConfig, run_pe_campaign\n"
        "config = ExperimentConfig(n=2, p=2, L_values=(4,), T_values=(100,), trials=1)\n"
        "assert run_pe_campaign(config, T=4 * 10**6)['campaign_T'] == 4 * 10**6\n")
    growth = _child_peak_rss(script) - _child_peak_rss("import bilinid.experiments\n")
    assert growth < 24e6


# ------------------------------------------------------------ estimate_markov

def test_exact_recovery_nilpotent_noiseless():
    m = _nilpotent_model(3, 2, seed=0)
    L, T = 4, 68
    traj = simulate(m, NoiseSpec.none(3), InputDesign.gaussian(2), T, seed=1)
    report = estimate_markov(design_from_inputs(traj.u, L, traj.y))
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
    report = estimate_markov(design_from_inputs(traj.u, L, traj.y))
    assert report.solver_mode == "min_norm"
    assert report.residual_norm <= 1e-8


def test_normal_equations_residual_in_full_rank_mode():
    m = random_model(3, 2, 0.6, seed=7)
    noise = NoiseSpec.exponential(3, rate=1.0)
    traj = simulate(m, noise, InputDesign.gaussian(2), T=150, seed=8)
    d = design_from_inputs(traj.u, 5, traj.y)
    report = estimate_markov(d)
    assert report.solver_mode == "full_rank"
    rhs = _einsum_design_rows(traj.u, 5).T @ traj.y[6:]
    lhs = d.gram() @ vec(report.G_hat)
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_full_rank_solve_agrees_with_lstsq_on_ill_conditioned_design(rows_design):
    # singular values spaced from 1 to 1e-3: kappa^2 = 1e6, still full rank
    rng = np.random.default_rng(21)
    p, L, rows = 2, 3, 200
    cols = p * p * L
    Q1 = np.linalg.qr(rng.standard_normal((rows, cols)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
    sv = np.logspace(0.0, -3.0, cols)
    U = (Q1 * sv) @ Q2.T
    y = U @ rng.standard_normal(cols) + 1e-3 * rng.standard_normal(rows)
    d = rows_design(U, y, p=p)
    report = estimate_markov(d)
    assert report.solver_mode == "full_rank"
    ref = np.linalg.lstsq(U, y, rcond=None)[0]
    kappa_sq = (sv[0] / sv[-1]) ** 2
    tol = 100 * np.finfo(float).eps * kappa_sq * np.linalg.norm(ref)
    assert np.linalg.norm(vec(report.G_hat) - ref) <= tol


def test_wide_solve_agrees_with_lstsq_on_ill_conditioned_design(rows_design):
    # rows < cols, singular values spaced from 1 to 1e-3: kappa^2 = 1e6, full row rank
    rng = np.random.default_rng(22)
    p, L, rows = 3, 5, 30
    cols = p * p * L
    Q1 = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((cols, rows)))[0]
    sv = np.logspace(0.0, -3.0, rows)
    U = (Q1 * sv) @ Q2.T
    y = rng.standard_normal(rows)
    d = rows_design(U, y, p=p)
    report = estimate_markov(d)
    assert report.solver_mode == "min_norm"
    ref = np.linalg.lstsq(U, y, rcond=None)[0]
    kappa_sq = (sv[0] / sv[-1]) ** 2
    tol = 100 * np.finfo(float).eps * kappa_sq * np.linalg.norm(ref)
    assert np.linalg.norm(vec(report.G_hat) - ref) <= tol
    assert report.lambda_min == 0.0
    sigma_max_sq = np.linalg.svd(U, compute_uv=False)[0] ** 2
    assert report.lambda_max == pytest.approx(sigma_max_sq, rel=1e-12)


def test_wide_design_with_repeated_rows_falls_back_to_lstsq(rows_design):
    # two identical rows with different targets: the row Gram is singular
    rng = np.random.default_rng(23)
    p, L, rows = 2, 3, 6
    U = rng.standard_normal((rows, p * p * L))
    U[3] = U[1]
    y = rng.standard_normal(rows)
    report = estimate_markov(rows_design(U, y, p=p))
    assert report.solver_mode == "min_norm"
    assert report.lambda_min == 0.0
    assert np.array_equal(vec(report.G_hat), np.linalg.lstsq(U, y, rcond=None)[0])


def test_all_zero_wide_design_gives_zero_estimate_without_warnings(rows_design):
    p, L, rows = 2, 3, 6
    y = np.random.default_rng(24).standard_normal(rows)
    d = rows_design(np.zeros((rows, p * p * L)), y, p=p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = estimate_markov(d)
    assert report.solver_mode == "min_norm"
    assert np.all(report.G_hat == 0.0)
    assert report.lambda_min == 0.0 and report.lambda_max == 0.0


@given(st.integers(1, 3), st.data())
def test_wide_fit_interpolates_and_agrees_with_lstsq(p, data):
    # p = L = 1 has a single column, so no design with rows >= 1 is wide
    L = data.draw(st.integers(2 if p == 1 else 1, 5), label="L")
    cols = p * p * L
    rows = data.draw(st.integers(1, cols - 1), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    T = L + rows
    d = design_from_inputs(rng.standard_normal((T + 1, p)), L, rng.standard_normal(T + 1))
    report = estimate_markov(d)
    assert report.solver_mode == "min_norm"
    assert report.residual_norm <= 1e-8 * max(1.0, np.linalg.norm(d.y))
    ref = np.linalg.lstsq(d.U_tilde, d.y, rcond=None)[0]
    sv = np.linalg.svd(d.U_tilde, compute_uv=False)
    kappa_sq = (sv[0] / sv[-1]) ** 2 if sv[-1] > 0.0 else math.inf
    tol = 100 * np.finfo(float).eps * kappa_sq * np.linalg.norm(ref)
    assert np.linalg.norm(vec(report.G_hat) - ref) <= tol


def test_regression_identity_against_effective_noise():
    m = random_model(2, 2, 0.6, seed=11)
    noise = NoiseSpec.gaussian(0.3 * np.eye(2), 0.5)
    L, T = 4, 60
    traj = simulate(m, noise, InputDesign.gaussian(2), T, seed=13, diagnostics=True)
    d = design_from_inputs(traj.u, L, traj.y)
    report = estimate_markov(d)
    F = _markov_blocks(m.A[None], m.B[None], m.C[None], L)[1][0]
    AL = np.linalg.matrix_power(m.A, L)
    zeta = np.array([
        np.kron(traj.w[t - L:t][::-1].reshape(-1), traj.u[t]) @ vec(F)
        + traj.u[t] @ (m.C @ AL @ traj.x[t - L]) + traj.z[t]
        for t in range(L + 1, T + 1)
    ])
    delta = vec(report.G_hat) - vec(markov_params(m, L).G)
    U = _einsum_design_rows(traj.u, L)
    oracle = np.linalg.solve(U.T @ U, U.T @ zeta)
    assert np.linalg.norm(delta - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1.0)


# ------------------------------------------------------------ ellipsoidal norm

def test_ellipsoidal_error_zero_at_truth():
    m = random_model(2, 1, 0.5, seed=0)
    traj = simulate(m, NoiseSpec.none(2), InputDesign.gaussian(1), T=30, seed=1)
    d = design_from_inputs(traj.u, 3, traj.y)
    G = markov_params(m, 3).G
    assert ellipsoidal_error(G, G, d) == 0.0


def test_ellipsoidal_error_orthonormal_design_is_euclidean(rows_design):
    k = 6
    d = rows_design(np.eye(k))
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
    U = _einsum_design_rows(u, 2)
    oracle = math.sqrt(delta @ (U.T @ U) @ delta)
    assert ellipsoidal_error(Ga, Gb, d) == pytest.approx(oracle, abs=1e-9)


def test_ellipsoidal_factored_form_for_many_deltas():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((20, 1))
    d = design_from_inputs(u, L=3)
    gram = d.gram()
    U = _einsum_design_rows(u, 3)
    for _ in range(25):
        delta = rng.standard_normal(3)
        a = np.linalg.norm(U @ delta)
        b = math.sqrt(delta @ gram @ delta)
        assert a == pytest.approx(b, abs=1e-10 * max(1.0, b))


# ------------------------------------------------------------------ the bound

def test_bound_vanishes_in_noiseless_large_L_limit():
    m = random_model(2, 1, 0.5, seed=1)
    noise = NoiseSpec.none(2)
    values = []
    for L in (4, 20, 60, 120):
        [terms] = bound_terms([m], noise, L, [1.0], delta=0.1)
        values.append(bound_data_dependent(m.p, terms, L, 10_000, lambda_min=1.0).value)
    assert all(values[i + 1] < values[i] for i in range(len(values) - 1))
    assert values[-1] <= 1e-10 * values[0]


def test_bound_first_term_scales_as_inverse_sqrt_delta():
    m = random_model(2, 1, 0.5, seed=2)
    noise = NoiseSpec.gaussian(0.5 * np.eye(2), 0.4)
    L, T = 4, 200
    [t1] = bound_terms([m], noise, L, [1.5], delta=0.1)
    [t2] = bound_terms([m], noise, L, [1.5], delta=0.2)
    second = (t1.beta**2 * t1.K**2 * t1.phi * t1.rho**L / (1 - t1.rho)
              * math.sqrt(T - L))
    first1 = bound_data_dependent(m.p, t1, L, T, lambda_min=1.0).value - second
    first2 = bound_data_dependent(m.p, t2, L, T, lambda_min=1.0).value - second
    assert first1 == pytest.approx(first2 * math.sqrt(2.0), rel=1e-12)


def test_bound_matches_independent_formula_oracle():
    # scalar system: a=0.5, b=c=1, sigma_w=1, sigma_z=1, beta=1, L=4, T=100,
    # delta=0.1, rho=0.75
    m = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]])
    noise = NoiseSpec.gaussian([[1.0]], 1.0)
    L, T, beta, delta, rho = 4, 100, 1.0, 0.1, 0.75
    [terms] = bound_terms([m], noise, L, [beta], delta=delta)
    got = bound_data_dependent(m.p, terms, L, T, lambda_min=1.0).value

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
    [terms] = bound_terms([m], noise, 4, [2.0], delta=0.1)
    rep = bound_data_dependent(m.p, terms, 4, 100, lambda_min=16.0)
    assert rep.fro_value == pytest.approx(rep.value / 4.0, rel=1e-12)


def test_bound_at_the_smallest_delta_is_finite():
    # p^2 L Xi / delta overflows at delta = 5e-324 although its root is finite
    m = random_model(2, 2, 0.5, seed=3)
    [terms] = bound_terms([m], NoiseSpec.gaussian(np.eye(2), 1.0), 2, [2.0], delta=5e-324)
    rep = bound_data_dependent(m.p, terms, 2, 40, lambda_min=4.0)
    second = (terms.beta**2 * terms.K**2 * terms.phi * terms.rho**2
              / (1.0 - terms.rho) * math.sqrt(38))
    assert rep.value == math.sqrt(8 * terms.Xi) / math.sqrt(5e-324) + second
    assert 1e160 < rep.value < math.inf
    assert rep.fro_value == rep.value / 2.0


@pytest.mark.parametrize("Xi, lambda_min", [(1e308, 1.0), (1.0, 1e-320)])
def test_bound_past_the_float_range_raises_numerical_error(Xi, lambda_min):
    m = random_model(2, 2, 0.5, seed=3)
    [terms] = bound_terms([m], NoiseSpec.gaussian(np.eye(2), 1.0), 2, [2.0], delta=1e-300)
    terms = dataclasses.replace(terms, Xi=Xi)
    with pytest.raises(NumericalError, match="past the float range"):
        bound_data_dependent(m.p, terms, 2, 40, lambda_min=lambda_min)


@pytest.mark.parametrize("lambda_min", [0.0, -1.0, math.nan])
def test_bound_needs_a_positive_lambda_min(lambda_min):
    m = random_model(2, 1, 0.5, seed=3)
    [terms] = bound_terms([m], NoiseSpec.gaussian(np.eye(2), 1.0), 4, [2.0], delta=0.1)
    with pytest.raises(ParameterError, match="lambda_min"):
        bound_data_dependent(m.p, terms, 4, 100, lambda_min=lambda_min)


def test_data_dependent_bound_past_the_float_range_raises_numerical_error():
    # the terms are finite, but K**2 = 1e400 is a float power past the float range
    m = StateSpaceModel(A=np.array([[0.5]]), B=np.array([[1e200]]), C=np.array([[1e-200]]))
    traj = simulate(m, NoiseSpec.none(1), InputDesign.gaussian(1), 40, seed=1)
    with pytest.raises(NumericalError,
                       match="^the data-dependent error bound is past the float range$"):
        fit(m, NoiseSpec.none(1), traj, 2, 0.1)


def test_bound_terms_past_the_float_range_raise_numerical_error():
    # beta**2 is a float power past the float range
    with pytest.raises(NumericalError, match="past the float range"):
        bound_terms([random_model(2, 2, 0.5, seed=1)], NoiseSpec.none(2), 2, [1e200], 0.1)


def test_bound_terms_precondition_errors():
    m = random_model(2, 1, 0.5, seed=0)
    noise = NoiseSpec.gaussian(np.eye(2), 1.0)
    with pytest.raises(ParameterError):
        bound_terms([m], noise, 4, [1.0], delta=1.5)
    with pytest.raises(ParameterError):
        bound_terms([m], noise, 4, [-1.0], delta=0.1)
    unstable = StateSpaceModel(A=[[1.1]], B=[[1.0]], C=[[1.0]])
    with pytest.raises(ParameterError):
        bound_terms([unstable], NoiseSpec.gaussian([[1.0]], 1.0), 4, [1.0], delta=0.1)


def test_bound_terms_refuses_a_spectral_radius_within_one_ulp_of_one():
    # (1 + radius)/2 rounds to 1.0 there; the error names the radius, not a rate
    m = StateSpaceModel(A=[[np.nextafter(1.0, 0.0)]], B=[[1.0]], C=[[1.0]])
    with pytest.raises(ParameterError, match=r"spectral radius 0\.9999999999999999$") as err:
        bound_terms([m], NoiseSpec.gaussian([[1.0]], 1.0), 4, [1.0], 0.1)
    assert "rho" not in str(err.value)


def _loop_transient_factor(A, rho):
    # sup_k ||(A/rho)^k||, scanned until the first power of norm below one
    M, power, sup = A / rho, np.eye(len(A)), 1.0
    while True:
        power = power @ M
        norm = float(np.linalg.norm(power, 2))
        if norm < 1.0:
            return sup
        sup = max(sup, norm)


def _loop_gramian(A, S):
    # Smith doubling of sum_i A^i S (A^i)^T, one model at a time
    X, Ak = S, A
    while True:
        term = Ak @ X @ Ak.T
        X = X + term
        Ak = Ak @ Ak
        scale = max(float(np.linalg.norm(X, 2)), np.finfo(float).tiny)
        if float(np.linalg.norm(term, 2)) <= 1e-13 * scale:
            return 0.5 * (X + X.T)


def _loop_bound_terms(model, noise, L, beta, delta):
    # bound_terms of one model by 2-D computations: the oracle of the stacked pass
    A, B, C = model.A, model.B, model.C
    rho = 0.5 * (1.0 + float(_spectral_radii(A[None])[0]))
    phi = _loop_transient_factor(A, rho)
    blocks, CAi = [], C
    for _ in range(L):
        blocks.append(CAi)
        CAi = CAi @ A
    F_fro_sq = float(np.linalg.norm(np.hstack(blocks))) ** 2
    CAL_sq = float(np.linalg.norm(C @ np.linalg.matrix_power(A, L), 2)) ** 2
    sigma_w_norm = float(np.linalg.norm(noise.sigma_w, 2))
    gamma_inf_norm = float(np.linalg.norm(_loop_gramian(A, noise.sigma_w), 2))
    tail = phi * rho**L / (1.0 - rho)
    Xi = (noise.sigma_z**2
          + 3.0 * sigma_w_norm * F_fro_sq * beta**2 * L * (1.0 + tail)
          + 2.0 * gamma_inf_norm * CAL_sq * beta**2 * phi / (1.0 - rho))
    return BoundTerms(sigma_w_sq=sigma_w_norm * F_fro_sq * (1.0 + tail),
                      sigma_e_sq=gamma_inf_norm * CAL_sq * phi / (1.0 - rho),
                      K=max(float(np.linalg.norm(B, 2)), float(np.linalg.norm(C, 2))),
                      Xi=Xi, beta=beta, rho=rho, phi=phi, delta=delta, F_fro_sq=F_fro_sq,
                      CAL_sq=CAL_sq, sigma_w_norm=sigma_w_norm)


@settings(max_examples=40)
@given(n=st.integers(1, 6), p=st.integers(1, 3), L=st.integers(1, 8), k=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_bound_constants_equal_their_loops_bitwise(n, p, L, k, seed):
    # non-normal models of spectral radii up to 0.99 in one batch, so their
    # transient scans and doublings stop at different steps
    rng = np.random.default_rng(seed)
    models = []
    for radius in [0.99, *rng.uniform(0.0, 0.99, k - 1)]:
        A = rng.standard_normal((n, n))
        A *= radius / _spectral_radii(A[None])[0]
        models.append(StateSpaceModel(A=A, B=rng.standard_normal((n, p)),
                                      C=rng.standard_normal((p, n))))
    R = rng.standard_normal((n, n))
    noise = NoiseSpec.gaussian(R @ R.T, float(rng.uniform(0.0, 2.0)))
    betas = [float(b) for b in rng.uniform(0.5, 3.0, k)]
    oracle = [_loop_bound_terms(m, noise, L, b, 0.1) for m, b in zip(models, betas)]
    assert bound_terms(models, noise, L, betas, 0.1) == oracle
    assert [bound_terms([m], noise, L, [b], 0.1)[0] for m, b in zip(models, betas)] == oracle
    A = np.stack([m.A for m in models])
    phis = transient_factor(A, [t.rho for t in oracle])
    gramians = controllability_gramian(models, noise.sigma_w)
    for j, m in enumerate(models):
        assert phis[j] == transient_factor(m.A[None], [oracle[j].rho])[0] == oracle[j].phi
        assert np.array_equal(gramians[j], _loop_gramian(m.A, noise.sigma_w))
        assert np.array_equal(controllability_gramian([m], noise.sigma_w)[0], gramians[j])


@pytest.mark.parametrize("j", [0, 2])
@pytest.mark.parametrize("bad", ["unstable", "beta", "delta"])
def test_bound_terms_batch_checks_every_model_before_any_scan(bad, j, monkeypatch):
    # a bad argument anywhere raises the error its batch of one raises, and
    # no constant is computed first
    models = [random_model(3, 2, 0.9, seed=s) for s in range(3)]
    noise = NoiseSpec.gaussian(np.eye(3), 1.0)
    betas, delta = [1.0] * 3, 0.1
    if bad == "unstable":
        models[j] = StateSpaceModel(A=1.1 * np.eye(3), B=np.ones((3, 2)), C=np.ones((2, 3)))
    elif bad == "beta":
        betas[j] = -1.0
    else:
        delta = 1.5
    with pytest.raises(ParameterError) as alone:
        bound_terms([models[j]], noise, 4, [betas[j]], delta)

    def no_scan(*args, **kwargs):
        raise AssertionError("a constant was computed before every argument was checked")

    for name in ("transient_factor", "controllability_gramian", "_markov_blocks"):
        monkeypatch.setattr(estimator, name, no_scan)
    with pytest.raises(ParameterError) as batch:
        bound_terms(models, noise, 4, betas, delta)
    assert str(batch.value) == str(alone.value)


def test_input_bound_helpers():
    u = np.array([[3.0, 4.0], [1.0, 0.0]])
    assert empirical_input_bound(u) == 5.0


# ------------------------------------------------------------------------- fit

def test_fit_full_rank_is_design_solve_and_bound():
    m = random_model(3, 2, 0.6, seed=7)
    noise = NoiseSpec.exponential(3, rate=1.0)
    L, T, delta = 5, 150, 0.1
    traj = simulate(m, noise, InputDesign.gaussian(2), T, seed=8)
    f = fit(m, noise, traj, L, delta)
    design = design_from_inputs(traj.u, L, traj.y)
    assert np.array_equal(f.design.U_tilde, design.U_tilde)
    assert np.array_equal(f.design.gram(), design.gram())
    assert np.array_equal(f.report.G_hat, estimate_markov(design).G_hat)
    assert f.report.solver_mode == "full_rank"
    assert np.array_equal(f.G, markov_params(m, L).G)
    assert f.err_fro == float(np.linalg.norm(f.report.G_hat - f.G))
    assert f.err_ellipsoidal == ellipsoidal_error(f.report.G_hat, f.G, design)
    [terms] = bound_terms([m], noise, L, [empirical_input_bound(traj.u)], delta)
    assert f.terms == terms
    assert f.bound == bound_data_dependent(m.p, terms, L, T, lambda_min=f.report.lambda_min)
    assert f.bound.fro_value > 0.0


def test_fit_min_norm_has_no_bound():
    m = random_model(2, 2, 0.5, seed=3)
    noise = NoiseSpec.gaussian(0.2 * np.eye(2), 0.3)
    L = 4
    traj = simulate(m, noise, InputDesign.gaussian(2), L + 10, seed=5)  # 10 rows < 16
    f = fit(m, noise, traj, L, delta=0.1)
    assert f.report.solver_mode == "min_norm"
    assert f.terms is None and f.bound is None
    assert f.err_fro == float(np.linalg.norm(f.report.G_hat - markov_params(m, L).G))
    assert f.err_ellipsoidal == ellipsoidal_error(f.report.G_hat, f.G, f.design)


def test_fit_takes_an_explicit_beta():
    m = random_model(2, 1, 0.5, seed=4)
    noise = NoiseSpec.gaussian(np.eye(2), 1.0)
    traj = simulate(m, noise, InputDesign.gaussian(1), 80, seed=6)
    [terms] = bound_terms([m], noise, 3, [7.5], 0.1)
    f = fit(m, noise, traj, 3, 0.1, terms=terms)
    assert f.terms.beta == 7.5
    assert f.bound == bound_data_dependent(m.p, terms, 3, 80, lambda_min=f.report.lambda_min)


@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_fit_recovers_G_from_noiseless_nilpotent_data(n, p, data):
    # A^L = 0 for L >= n, so without noise y_t = u_t' G ubar_{t-1} exactly
    L = data.draw(st.integers(n, 5), label="L")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    m = _nilpotent_model(n, p, seed)
    T = L + 2 * p * p * L
    traj = simulate(m, NoiseSpec.none(n), InputDesign.gaussian(p), T, seed=seed + 1)
    assert fit(m, NoiseSpec.none(n), traj, L, delta=0.1).err_fro <= 1e-8


def _where(match, trees=None) -> list[tuple[str, str | None]]:
    """(module, dotted enclosing class and function names) of every node
    for which match holds, in the package or in the given {module: tree}."""
    found = []

    def visit(node, module, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if match(node):
            found.append((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    if trees is None:
        trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
                 for path in Path(estimator.__file__).resolve().parent.glob("*.py")}
    for module, tree in trees.items():
        visit(tree, module, None)
    return sorted(found)


def _callers(name: str) -> list[tuple[str, str | None]]:
    """Where in the package name is called."""

    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name

    return _where(match)


def _is_column_gram(node) -> bool:
    """node is X.T @ X, np.dot(X.T, X), np.matmul(X.T, X) or X.T.dot(X)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        left, right = node.left, node.right
    elif isinstance(node, ast.Call) and len(node.args) == 2 and getattr(
            node.func, "attr", None) in ("dot", "matmul"):
        left, right = node.args
    elif isinstance(node, ast.Call) and len(node.args) == 1 and getattr(
            node.func, "attr", None) == "dot":
        left, right = node.func.value, node.args[0]
    else:
        return False
    return (isinstance(left, ast.Attribute) and left.attr == "T"
            and ast.dump(left.value) == ast.dump(right))


def test_fit_is_the_one_path_to_the_bound():
    assert _callers("bound_data_dependent") == [("estimator", "fit")]
    # the batched callers compute the constants a cell's fits then take
    assert _callers("bound_terms") == [("estimator", "fit"), ("experiments", "_run_cell"),
                                       ("experiments", "bound_coverage_trials")]


def test_design_from_inputs_is_the_one_design_builder():
    # one constructor call per representation: kept rows, and sums
    assert _callers("DesignSystem") == [("estimator", "design_from_inputs")] * 2


def test_kron_rows_is_the_one_covariate_kernel():
    # the design blocks and the prediction covariate both come from _kron_rows
    assert _callers("kron") == []
    assert _callers("_kron_rows") == [("estimator", "design_from_inputs"),
                                      ("estimator", "prediction_bound")]


def test_fit_is_the_one_path_to_the_estimate_and_its_errors():
    # every command fits G through fit, and reads the errors fit computed
    for name in ("estimate_markov", "markov_params", "ellipsoidal_error"):
        assert _callers(name) == [("estimator", "fit")], name


def test_prediction_bound_reads_the_fits_constants():
    # each model constant has one owner: fit forms G, the constants pass the
    # rest, and prediction_bound does arithmetic on the fit's terms
    assert [c for c in _callers("markov_params") if c[0] == "estimator"] == [("estimator", "fit")]
    assert ("estimator", "prediction_bound") not in _callers("matrix_power")


def test_column_gram_detects_every_spelling():
    tree = ast.parse(
        "def f(U, V):\n"
        "    U.T @ U\n"
        "    np.dot(self.U.T, self.U)\n"
        "    np.matmul(U.T, U)\n"
        "    U.T.dot(U)\n"
        "    U @ U.T\n"
        "    U.T @ V\n"
        "    U.T @ y\n")
    assert _where(_is_column_gram, {"m": tree}) == [("m", "f")] * 4


def test_design_gram_is_the_one_column_gram():
    # the other X^T X is the sample covariance of Monte Carlo draws of zeta
    assert _where(_is_column_gram) == [("estimator", "_column_gram"),
                                       ("experiments", "zeta_covariance_mc")]


def _names_regime(node) -> bool:
    """node is a regime name: a "bounded_a" or "fourth_moment_b" literal, a
    REGIME_* constant, or a tuple, list or set holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_regime(elt) for elt in node.elts)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in ("bounded_a", "fourth_moment_b")
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name.startswith("REGIME_")


def _is_regime_compare(node) -> bool:
    """node compares a value with a regime name, or is a match case on one."""
    if isinstance(node, ast.Compare):
        return any(_names_regime(operand) for operand in (node.left, *node.comparators))
    return isinstance(node, ast.MatchValue) and _names_regime(node.value)


def test_regime_compare_detects_every_spelling():
    tree = ast.parse(
        "def f(regime):\n"
        "    regime == 'bounded_a'\n"
        "    'fourth_moment_b' != regime\n"
        "    regime == REGIME_BOUNDED\n"
        "    regime in (excitation.REGIME_FOURTH_MOMENT, 'x')\n"
        "    match regime:\n"
        "        case 'bounded_a': pass\n"
        "    regime == 'gaussian'\n"
        "    f(REGIME_BOUNDED)\n")
    assert _where(_is_regime_compare, {"m": tree}) == [("m", "f")] * 5


def test_regime_terms_is_the_one_regime_rule():
    # the excitation helper's if/elif; everyone else passes the regime through
    assert _where(_is_regime_compare) == [("excitation", "_regime_terms")] * 2


def _form_switches(trees) -> list[tuple[str, str | None]]:
    """Where in trees a value is tested for one model against a batch: an
    isinstance(..., StateSpaceModel) call, or a .ndim read (x.ndim or
    np.ndim(x)) anywhere but in the test of an if that only raises."""
    refusals = {id(node) for tree in trees.values() for stmt in ast.walk(tree)
                if isinstance(stmt, ast.If) and not stmt.orelse
                and all(isinstance(b, ast.Raise) for b in stmt.body)
                for node in ast.walk(stmt.test)}

    def match(node):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            return any("StateSpaceModel" in ast.dump(arg) for arg in node.args[1:])
        return isinstance(node, ast.Attribute) and node.attr == "ndim" and id(node) not in refusals

    return _where(match, trees)


def test_form_switch_detects_every_spelling():
    tree = ast.parse(
        "def f(model, A):\n"
        "    isinstance(model, StateSpaceModel)\n"
        "    isinstance(model, (sysmodel.StateSpaceModel, list))\n"
        "    single = A.ndim < 3\n"
        "    A = A[None] if np.ndim(A) == 2 else A\n"
        "    if A.ndim == 2:\n"
        "        A = A[None]\n"
        "    if A.ndim != 3:\n"
        "        raise ParameterError('a stack')\n"
        "    isinstance(model, InputDesign)\n")
    assert _form_switches({"m": tree}) == [("m", "f")] * 5


def test_every_kernel_has_one_call_form():
    # bound_terms, transient_factor and controllability_gramian take only
    # batches, and a .ndim may only refuse a shape; the one .ndim branch
    # left adds the column axis of a 1-D input sequence, not of a model
    package = Path(estimator.__file__).resolve().parent
    trees = {name: ast.parse((package / f"{name}.py").read_text())
             for name in ("sysmodel", "estimator")}
    assert _form_switches(trees) == [("sysmodel", "_as_columns")]


# ------------------------------------------------------------------ prediction

def test_predict_exact_for_noiseless_nilpotent_model():
    m = _nilpotent_model(3, 2, seed=21)
    L, T = 4, 80
    rng = np.random.default_rng(22)
    u_full = rng.standard_normal((T + 2, 2))
    traj = simulate(m, NoiseSpec.none(3), u_full[:T + 1], T, seed=0)
    report = estimate_markov(design_from_inputs(traj.u, L, traj.y))
    full = simulate(m, NoiseSpec.none(3), u_full, T + 1, seed=0)
    # y_hat = u_{T+1}^T G_hat ubar_T, ubar_T = [u_T; ...; u_{T-L+1}]
    y_hat = float(u_full[T + 1] @ report.G_hat @ traj.u[T - L + 1:T + 1][::-1].reshape(-1))
    assert y_hat == pytest.approx(full.y[T + 1], abs=1e-8)


def test_prediction_mse_bound_holds_under_monte_carlo():
    n, p, L, T = 2, 1, 4, 60
    m = random_model(n, p, 0.6, seed=31)
    noise = NoiseSpec.gaussian(0.2 * np.eye(n), 0.4)
    rng = np.random.default_rng(32)
    u_full = rng.standard_normal((T + 2, p))
    traj = simulate(m, noise, u_full[:T + 1], T, seed=33)
    u_next = u_full[T + 1]
    beta = max(empirical_input_bound(traj.u), float(np.linalg.norm(u_next)))
    f = fit(m, noise, traj, L, delta=0.1, terms=bound_terms([m], noise, L, [beta], 0.1)[0])
    (state_norm,) = prediction_state_norms([m], noise, traj.u[None, :T + 1 - L])
    bound = prediction_bound(f, noise, traj, u_next, state_norm)
    assert bound is not None
    y_hat = float(u_next @ f.report.G_hat @ traj.u[T - L + 1:T + 1][::-1].reshape(-1))
    ys = batch_simulate_outputs(m, noise, u_full, [T + 1], 100_000, 34)
    mse = float(np.mean((y_hat - ys[:, 0]) ** 2))
    assert mse <= bound


def test_prediction_bound_omitted_when_gram_singular():
    m = random_model(2, 2, 0.5, seed=3)
    noise = NoiseSpec.gaussian(0.2 * np.eye(2), 0.3)
    L = 4
    T = L + 10  # underdetermined
    traj = simulate(m, noise, InputDesign.gaussian(2), T, seed=5)
    u_next = np.ones(2)
    f = fit(m, noise, traj, L, delta=0.1)
    (state_norm,) = prediction_state_norms([m], noise, traj.u[None])
    assert prediction_bound(f, noise, traj, u_next, state_norm) is None


def _prediction_batch(k, T=80, L=3, n=3, p=2):
    """k fits of distinct non-diagonal models with their trajectories and
    next inputs; with k > 1 the second trial's inputs are all zero, so
    its Gram is singular and it has no bound."""
    rng = np.random.default_rng(50 + k)
    noise = NoiseSpec.gaussian(0.2 * np.eye(n), 0.4)
    models, trajs, u_nexts = [], [], []
    for j in range(k):
        A = rng.standard_normal((n, n))
        A *= 0.7 / _spectral_radii(A[None])[0]
        models.append(StateSpaceModel(A=A, B=rng.standard_normal((n, p)),
                                      C=rng.standard_normal((p, n))))
        u = np.zeros((T + 1, p)) if j == 1 else rng.standard_normal((T + 1, p))
        trajs.append(simulate(models[-1], noise, u, T, seed=rng))
        u_nexts.append(rng.standard_normal(p))
    terms = bound_terms(models, noise, L, [
        max(empirical_input_bound(traj.u), float(np.linalg.norm(u_next)))
        for traj, u_next in zip(trajs, u_nexts)], 0.1)
    fits = [fit(m, noise, traj, L, delta=0.1, terms=t)
            for m, traj, t in zip(models, trajs, terms)]
    return fits, models, noise, trajs, u_nexts


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_prediction_bound_batch_equals_batches_of_one(k):
    # the batched state norms give every trial the bits it gets alone, so a
    # trial's prediction bound does not depend on the batch it was in
    fits, models, noise, trajs, u_nexts = _prediction_batch(k)
    batch = prediction_state_norms(models, noise, np.stack([traj.u for traj in trajs]))
    alone = [prediction_state_norms([m], noise, traj.u[None])[0]
             for m, traj in zip(models, trajs)]
    assert batch.tolist() == alone
    bounds = [prediction_bound(f, noise, traj, u_next, state_norm)
              for f, traj, u_next, state_norm in zip(fits, trajs, u_nexts, batch)]
    assert [b is None for b in bounds] == [j == 1 for j in range(k)]


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("L", [1, 3])
def test_prediction_bound_is_the_kronecker_formula(p, L):
    # the covariate ubar_T (x) u_{T+1}, bitwise that of np.kron
    m = random_model(3, p, 0.6, seed=10 * p + L)
    noise = NoiseSpec.gaussian(0.2 * np.eye(3), 0.4)
    T = 2 * p * p * L + 20
    traj = simulate(m, noise, InputDesign.gaussian(p), T, seed=p + L)
    u_next = np.random.default_rng(p * L).standard_normal(p)
    [terms] = bound_terms([m], noise, L, [max(empirical_input_bound(traj.u),
                                              float(np.linalg.norm(u_next)))], 0.1)
    f = fit(m, noise, traj, L, 0.1, terms=terms)
    assert f.report.solver_mode == "full_rank"
    (state_norm,) = prediction_state_norms([m], noise, traj.u[None, :T + 1 - L])
    k = np.kron(traj.u[T - L + 1:T + 1][::-1].reshape(-1), u_next)
    expected = (2.0 * f.err_ellipsoidal**2 * float(k @ np.linalg.solve(f.design.gram(), k))
                + 2.0 * terms.beta**2 * terms.CAL_sq * float(state_norm)
                + terms.beta**2 * terms.sigma_w_norm * terms.F_fro_sq + noise.sigma_z**2)
    assert prediction_bound(f, noise, traj, u_next, state_norm) == expected


def test_prediction_state_norms_need_one_input_sequence_per_model():
    _, models, noise, trajs, _ = _prediction_batch(2)
    with pytest.raises(ParameterError):
        prediction_state_norms(models, noise, trajs[0].u[None])
    with pytest.raises(ParameterError):
        prediction_state_norms(models[:1], noise, trajs[0].u)


# -------------------------------------------------- effective-noise autocovariance

def test_autocov_reduces_to_measurement_noise_without_process_noise():
    m = random_model(2, 1, 0.6, seed=41)
    noise = NoiseSpec.gaussian(np.zeros((2, 2)), 0.7)
    u = np.random.default_rng(42).standard_normal((10, 1))
    L = 2
    cov = effective_noise_autocov(m, noise, u, [3, 5], L)
    assert cov[0, 0] == pytest.approx(0.49, rel=1e-12)
    assert cov[0, 1] == 0.0


def test_autocov_cross_window_term_vanishes_for_zero_dynamics():
    # A = 0 and |tau - tau'| >= L: windows do not overlap and no state carries
    rng = np.random.default_rng(43)
    m = StateSpaceModel(A=np.zeros((2, 2)), B=rng.standard_normal((2, 1)),
                        C=rng.standard_normal((1, 2)))
    noise = NoiseSpec.gaussian(0.8 * np.eye(2), 0.0)
    u = rng.standard_normal((10, 1))
    L = 2
    cov = effective_noise_autocov(m, noise, u, [2, 4, 5], L)
    assert cov[0, 1] == 0.0
    assert cov[0, 2] == 0.0


def test_autocov_matches_monte_carlo():
    m = random_model(2, 1, 0.7, seed=44)
    noise = NoiseSpec.gaussian(np.array([[0.5, 0.1], [0.1, 0.3]]), 0.4)
    L, T = 2, 8
    u = np.random.default_rng(45).standard_normal((T + 1, 1))
    taus = list(range(L, T))
    cov, se = zeta_covariance_mc(m, noise, u, taus, 200_000, seed=46)
    closed = effective_noise_autocov(m, noise, u, taus, L)
    for i in range(len(taus)):
        for j in range(len(taus)):
            assert abs(closed[i, j] - cov[i, j]) <= 4.0 * max(se[i, j], 1e-12)


def test_autocov_symmetry():
    m = random_model(3, 2, 0.8, seed=47)
    noise = NoiseSpec.gaussian(0.6 * np.eye(3), 0.2)
    u = np.random.default_rng(48).standard_normal((12, 2))
    L = 3
    cov = effective_noise_autocov(m, noise, u, range(L, 11), L)
    for i in range(11 - L):
        for j in range(11 - L):
            assert cov[i, j] == pytest.approx(cov[j, i], abs=1e-10)


def test_autocov_rejects_out_of_range_lags():
    m = random_model(2, 1, 0.5, seed=49)
    noise = NoiseSpec.gaussian(np.eye(2), 0.1)
    u = np.zeros((8, 1))
    with pytest.raises(ParameterError):
        effective_noise_autocov(m, noise, u, [1, 3], L=2)
    with pytest.raises(ParameterError):
        effective_noise_autocov(m, noise, u, [3, 7], L=2)


def _autocov_pair(model, noise, u, tau, tau_p):
    # one lag pair with its own Gramian Gamma_w^(m-1): the per-pair value
    # each entry of the lag matrix must equal bitwise
    a, b = tau + 1, tau_p + 1
    m = min(a, b)
    g_a = np.linalg.matrix_power(model.A.T, a - m) @ (model.C.T @ u[a])
    g_b = np.linalg.matrix_power(model.A.T, b - m) @ (model.C.T @ u[b])
    gamma_w = _truncated_gramians(model.A[None], noise.sigma_w, m - 1)[0]
    return float(g_a @ gamma_w @ g_b) + (noise.sigma_z ** 2 if a == b else 0.0)


@settings(max_examples=20)
@given(n=st.integers(1, 4), p=st.integers(1, 3), L=st.integers(1, 5),
       family=st.sampled_from(["gaussian", "exponential"]), seed=st.integers(0, 2**32 - 1))
def test_autocov_lag_matrix_equals_its_pairs_bitwise(n, p, L, family, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.1, 0.95) / _spectral_radii(A[None])[0]
    model = StateSpaceModel(A=A, B=rng.standard_normal((n, p)), C=rng.standard_normal((p, n)))
    if family == "gaussian":
        R = rng.standard_normal((n, n))
        noise = NoiseSpec.gaussian(R @ R.T, float(rng.uniform(0.0, 2.0)))
    else:
        noise = NoiseSpec.exponential(n, rate=float(rng.uniform(0.5, 3.0)))
    T = L + 5
    u = rng.standard_normal((T + 1, p))
    taus = list(range(L, T))
    want = [[_autocov_pair(model, noise, u, tau, tau_p) for tau_p in taus] for tau in taus]
    assert np.array_equal(effective_noise_autocov(model, noise, u, taus, L), want)


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
    cov = effective_noise_autocov(model, noise, u, range(L, T), L)
    for tau in range(L, T):
        for tau_p in range(L, T):
            want = _autocov_by_explicit_sum(model, noise, u, tau, tau_p)
            got = cov[tau - L, tau_p - L]
            # absolute floor: 1e-12 of the Cauchy-Schwarz bound sqrt(var_a var_b)
            floor = 1e-12 * math.sqrt(var[tau] * var[tau_p])
            assert got == pytest.approx(want, rel=1e-12, abs=floor)


def test_autocov_does_not_depend_on_L():
    model, noise, u = _non_normal_autocov_case(3, seed=55)
    short = effective_noise_autocov(model, noise, u, range(4, 10), L=1)
    long = effective_noise_autocov(model, noise, u, range(4, 10), L=4)
    for short_ij, long_ij in zip(short.ravel(), long.ravel()):
        assert short_ij == pytest.approx(long_ij, rel=1e-12, abs=1e-15)


def test_autocov_memory_stays_small():
    n, p, L = 8, 4, 60
    model = random_model(n, p, 0.9, seed=56)
    noise = NoiseSpec.gaussian(np.eye(n), 0.1)
    u = np.random.default_rng(57).standard_normal((2 * L + 1, p))
    effective_noise_autocov(model, noise, u, [L], L)  # warm imports and caches
    tracemalloc.start()
    try:
        effective_noise_autocov(model, noise, u, [L + 5, 2 * L - 1], L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
