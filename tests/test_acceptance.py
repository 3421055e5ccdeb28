"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import time

import numpy as np
import pytest

from bilinid import (
    GAUSSIAN_M4,
    InputDesign,
    NoiseSpec,
    StateSpaceModel,
    align_realizations,
    build_hankel,
    effective_noise_autocov,
    estimate_m4,
    fit,
    ho_kalman,
    markov_params,
    random_model,
    realization_error_bounds,
    simulate,
)
from bilinid.experiments import (
    ExperimentConfig,
    InputConfig,
    NoiseConfig,
    bound_coverage_trials,
    run_double_descent,
    run_pe_campaign,
    run_sweep,
    zeta_covariance_mc,
)


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_criterion_1_error_rate_in_trajectory_length():
    # n=5, p=3, rho <= 0.5, L=12, Gaussian inputs, centered exponential noise
    # (rate 1), T in {400, 800, 1600, 3200}, 20 trials/cell: slope of
    # log mean(||G - G_hat||_F^2) against log(T - L) within [-1.25, -0.75].
    start = time.perf_counter()
    cfg = ExperimentConfig(
        n=5, p=3, rho_values=(0.5,), L_values=(12,),
        T_values=(400, 800, 1600, 3200), trials=20,
        noise=NoiseConfig(family="exponential", rate=1.0, centered=True),
        input=InputConfig(kind="gaussian_isotropic"), delta=0.1, base_seed=2024)
    res = run_sweep(cfg)
    agg = {row[2]: row[3] for row in res.aggregate}
    Ts = np.array(sorted(agg))
    means = np.array([agg[T] for T in Ts])
    slope = float(np.polyfit(np.log(Ts - 12.0), np.log(means), 1)[0])
    elapsed = time.perf_counter() - start
    passed = -1.25 <= slope <= -0.75 and elapsed <= 300.0
    _report("1 error-rate slope", passed, f"slope={slope:.3f}, {elapsed:.1f}s")
    assert -1.25 <= slope <= -0.75
    assert elapsed <= 300.0


def test_criterion_2_double_descent_peak():
    # L=50, p=3, min-norm solver, T in 350..700 step 50, 20 trials:
    # mean error at T=500 strictly exceeds the means at T=400 and T=650.
    cfg = ExperimentConfig(
        n=5, p=3, rho_values=(0.5,), L_values=(50,),
        T_values=tuple(range(350, 701, 50)), trials=20,
        noise=NoiseConfig(family="exponential", rate=1.0, centered=True),
        input=InputConfig(kind="gaussian_isotropic"), delta=0.1, base_seed=7)
    res = run_double_descent(cfg)
    assert res.threshold_T == {50: 500}
    agg = {row[2]: row[3] for row in res.aggregate}
    passed = agg[500] > agg[400] and agg[500] > agg[650]
    _report("2 double descent", passed,
            f"mean(400)={agg[400]:.3g}, mean(500)={agg[500]:.3g}, mean(650)={agg[650]:.3g}")
    assert agg[500] > agg[400]
    assert agg[500] > agg[650]


def test_criterion_3_memory_tradeoff_crossing():
    # T=1600 fixed, 20 trials/cell: short-memory systems prefer L=12, long-
    # memory systems prefer L=50.  The noise rate is an experiment knob (the
    # replication protocol leaves it open); rate 30 keeps the truncation
    # floor of the long-memory cell visible above the variance floor.
    cfg = ExperimentConfig(
        n=5, p=3, rho_values=(0.5, 0.99), L_values=(12, 50), T_values=(1600,),
        trials=20, noise=NoiseConfig(family="exponential", rate=30.0, centered=True),
        input=InputConfig(kind="gaussian_isotropic"), delta=0.1, base_seed=11)
    res = run_sweep(cfg)
    cells = {(row[0], row[1]): (row[3], row[4]) for row in res.aggregate}
    short_ok = cells[(0.5, 12)][0] < cells[(0.5, 50)][0]
    long_ok = cells[(0.99, 50)][0] < cells[(0.99, 12)][0]
    detail = "; ".join(
        f"rho<={r} L={L}: {cells[(r, L)][0]:.4g} (std {cells[(r, L)][1]:.3g})"
        for r in (0.5, 0.99) for L in (12, 50))
    _report("3 memory trade-off", short_ok and long_ok, detail)
    assert short_ok
    assert long_ok


def test_criterion_4_excitation_certificate_frequency():
    # Gaussian inputs, p=2, L=4, delta=0.1, samples at the fourth-moment
    # regime requirement: lambda_min >= (T-L)/4 in at least 90% of 200 trials.
    start = time.perf_counter()
    cfg = ExperimentConfig(
        n=2, p=2, rho_values=(0.5,), L_values=(4,), T_values=(100,), trials=200,
        noise=NoiseConfig(family="gaussian", sigma_w=1.0, sigma_z=1.0),
        input=InputConfig(kind="gaussian_isotropic"), delta=0.1, base_seed=17)
    out = run_pe_campaign(cfg)
    elapsed = time.perf_counter() - start
    passed = out["frequency"] >= 0.90 and elapsed <= 600.0
    _report("4 excitation certificate", passed,
            f"frequency={out['frequency']:.3f} at T-L={out['required_samples']}, {elapsed:.1f}s")
    assert out["required_samples"] == pytest.approx(1.9e5, rel=0.02)
    assert out["frequency"] >= 0.90
    assert elapsed <= 600.0


def test_criterion_5_gaussian_fourth_moment_constant():
    # p in {1,2}, L in {1,3}, 100 random unit directions, 1e5 samples each:
    # every direction estimate <= 9 + 3 SE; at p=1, L=1, v=1 the estimate is
    # within 3 SE of 9.
    worst_excess = -np.inf
    for p in (1, 2):
        for L in (1, 3):
            est = estimate_m4(InputDesign.gaussian(p), L=L, n_directions=100,
                              n_samples=100_000, seed=1000 + 10 * p + L)
            excess = float(np.max(est.estimates - (GAUSSIAN_M4 + 3.0 * est.std_errors)))
            worst_excess = max(worst_excess, excess)
    anchor = estimate_m4(InputDesign.gaussian(1), L=1, n_directions=1,
                         n_samples=100_000, seed=2000,
                         directions=np.array([[1.0]]))
    anchor_dev = abs(float(anchor.estimates[0]) - GAUSSIAN_M4)
    anchor_tol = 3.0 * float(anchor.std_errors[0])
    passed = worst_excess <= 0.0 and anchor_dev <= anchor_tol
    _report("5 fourth-moment constant", passed,
            f"worst excess over 9+3SE = {worst_excess:.3g}; "
            f"anchor |est-9| = {anchor_dev:.3f} <= {anchor_tol:.3f}")
    assert worst_excess <= 0.0
    assert anchor_dev <= anchor_tol


def test_criterion_6_exact_recovery_nilpotent():
    # strictly lower-triangular A (n=3), L >= n, zero noise, Gaussian design
    # with T - L = 2 p^2 L: exact recovery to 1e-8 on 20/20 seeds.
    n, p, L = 3, 2, 4
    T = L + 2 * p * p * L
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        A = np.tril(rng.standard_normal((n, n)), k=-1)
        B = rng.standard_normal((n, p)) / np.sqrt(n)
        C = rng.standard_normal((p, n)) / np.sqrt(p)
        m = StateSpaceModel(A=A, B=B, C=C)
        traj = simulate(m, NoiseSpec.none(n), InputDesign.gaussian(p), T,
                        seed=10_000 + seed)
        err = fit(m, NoiseSpec.none(n), traj, L, delta=0.1).err_fro
        worst = max(worst, err)
    passed = worst <= 1e-8
    _report("6 exact recovery", passed, f"worst error over 20 seeds = {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_7_realization_recovery_and_perturbation_bounds():
    # exact blocks (n=3, p=2, L=8): Markov matching <= 1e-8; 50 perturbed
    # trials inside the robustness region: aligned dB, dC within bound_BC and
    # dA within bound_A in every trial.
    n, p, L = 3, 2, 8
    m = random_model(n, p, 0.8, seed=77)
    mp = markov_params(m, L)
    real = ho_kalman(mp.G, n)
    match = 0.0
    CAi = real.C.copy()
    for i in range(L):
        match = max(match, float(np.linalg.norm(CAi @ real.B - mp.G[:, i * p:(i + 1) * p])))
        CAi = CAi @ real.A

    hank = build_hankel(mp.G, n)
    cap = hank.sigma_min_L / (2.0 * np.sqrt(2.0 * L))
    hits = 0
    for k in range(50):
        rng = np.random.default_rng(9000 + k)
        direction = rng.standard_normal(mp.G.shape)
        target = rng.uniform(0.05, 1.0) * cap
        G_hat = mp.G + direction * (target / np.linalg.norm(direction))
        err = float(np.linalg.norm(G_hat - mp.G))
        bounds = realization_error_bounds(hank, build_hankel(G_hat, n), err)
        assert bounds.robustness_ok
        al = align_realizations(real, ho_kalman(G_hat, n))
        hits += (al.dB <= bounds.bound_BC and al.dC <= bounds.bound_BC
                 and al.dA <= bounds.bound_A)
    passed = match <= 1e-8 and hits == 50
    _report("7 realization recovery", passed,
            f"markov match = {match:.3e}; bound suite {hits}/50")
    assert match <= 1e-8
    assert hits == 50


def test_criterion_8_autocovariance_against_monte_carlo():
    # fixed (n=2, p=1, L=2) system and input sequence: closed-form
    # autocovariance within 3 standard errors of the Monte Carlo covariance
    # over 1e6 noise draws, for every lag pair with L <= tau, tau' <= L + 4.
    n, p, L = 2, 1, 2
    m = random_model(n, p, 0.7, seed=44)
    noise = NoiseSpec.gaussian(np.array([[0.5, 0.1], [0.1, 0.3]]), 0.4)
    T = L + 5
    u = InputDesign.gaussian(p).sample_sequence(T, np.random.default_rng(45))
    taus = list(range(L, L + 5))
    cov, se = zeta_covariance_mc(m, noise, u, taus, 1_000_000, seed=46)
    closed = effective_noise_autocov(m, noise, u, taus, L)
    worst = 0.0
    for i in range(len(taus)):
        for j in range(len(taus)):
            worst = max(worst, abs(float(closed[i, j]) - float(cov[i, j]))
                        / max(float(se[i, j]), 1e-300))
    passed = worst <= 3.0
    _report("8 autocovariance oracle", passed,
            f"worst |closed - mc| = {worst:.2f} standard errors over {len(taus)**2} pairs")
    assert worst <= 3.0


def test_criterion_9_bound_coverage_and_prediction():
    # delta = 0.1 over 200 trials of a fixed small configuration: the
    # design-weighted error stays below its bound in at least 85% of trials
    # (90% less 5% slack), and the exact one-step prediction MSE over the
    # noise, (y_hat - E y)^2 + Var y, stays below its bound in every trial.
    cell = ExperimentConfig(
        n=2, p=1, rho_values=(0.6,), L_values=(6,), T_values=(100,),
        noise=NoiseConfig(family="gaussian", sigma_w=0.25, sigma_z=0.5),
        input=InputConfig(kind="gaussian_isotropic"), delta=0.1)
    trials = bound_coverage_trials(cell, trials=200, base_seed=31)
    coverage = float(np.mean([t.covered for t in trials]))
    pred = [t for t in trials if t.pred_ok is not None]
    pred_hits = sum(t.pred_ok for t in pred)
    passed = coverage >= 0.85 and len(pred) == 200 and pred_hits == len(pred)
    _report("9 bound coverage", passed,
            f"coverage={coverage:.3f} (target 0.85); prediction {pred_hits}/{len(pred)}")
    assert coverage >= 0.85
    assert len(pred) == 200
    assert pred_hits == len(pred)
