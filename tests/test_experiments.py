import ast
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilinid import (
    InputDesign,
    NoiseSpec,
    ParameterError,
    build_hankel,
    cli,
    estimator,
    excitation,
    experiments,
    fit,
    ho_kalman,
    random_model,
    realization_error_bounds,
    serialize,
    simulate,
)
from bilinid.cli import build_parser, console_entry, main
from bilinid.experiments import (
    AGG_COLUMNS,
    MAX_TRIALS,
    MC_BLOCK_DRAWS,
    TRIAL_COLUMNS,
    ExperimentConfig,
    InputConfig,
    NoiseConfig,
    _autocov_false_failure_rate,
    _coverage_false_failure_rate,
    _final_output_moments,
    _m4_false_failure_rate,
    _map,
    batch_simulate_outputs,
    bound_coverage_trials,
    run_pe_campaign,
    run_sweep,
    run_validation,
    zeta_covariance_mc,
)
from bilinid.excitation import GAUSSIAN_M4
from bilinid.sysmodel import StateSpaceModel, derive_rng


def _small_config(**overrides):
    base = dict(n=2, p=1, rho_values=(0.6,), L_values=(4,), T_values=(120,),
                trials=4, noise=NoiseConfig(family="gaussian", sigma_w=0.25, sigma_z=0.5),
                input=InputConfig(), delta=0.1, base_seed=3, output_path="out")
    base.update(overrides)
    return ExperimentConfig(**base)


def _csv_text(path: Path, columns, rows) -> str:
    """The text serialize.save_csv writes for columns and rows."""
    serialize.save_csv(path, columns, rows)
    return path.read_text()


def _strip_runtime(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    out = [lines[0]]
    idx = lines[0].split(",").index("runtime_ms")
    for line in lines[1:]:
        cells = line.split(",")
        cells[idx] = "0"
        out.append(",".join(cells))
    return "\n".join(out)


# --------------------------------------------------------------------- config

def test_config_json_round_trip():
    cfg = _small_config(rho_values=(0.3, 0.9), T_values=(100, 150),
                        noise=NoiseConfig(family="exponential", rate=2.0, centered=False))
    assert ExperimentConfig.from_json(json.dumps(dataclasses.asdict(cfg))) == cfg


def test_config_validation():
    with pytest.raises(ParameterError):
        _small_config(trials=0)
    with pytest.raises(ParameterError):
        _small_config(rho_values=(1.2,))
    with pytest.raises(ParameterError):
        _small_config(T_values=(4,), L_values=(4,))
    with pytest.raises(ParameterError):
        _small_config(delta=0.0)
    with pytest.raises(ParameterError):
        ExperimentConfig.from_json("not json")
    with pytest.raises(ParameterError):
        ExperimentConfig.from_dict({"unknown_field": 1})
    # a repeated grid value would run its cells twice under one key
    for name, values in (("rho_values", (0.3, 0.3)), ("L_values", (4, 2, 4)),
                         ("T_values", (120, 120))):
        with pytest.raises(ParameterError, match=f"{name} must not repeat a value"):
            _small_config(**{name: values})


@pytest.mark.parametrize("law", [
    {"kind": "nope"},
    {"kind": "gaussian_isotropic", "beta": 2.0},
    {"kind": "bounded_sphere", "beta": -1},
], ids=["unknown kind", "gaussian with beta", "negative sphere beta"])
def test_config_refuses_a_bad_input_law_when_parsed(law):
    # the input law is checked as the config is parsed, before any command
    # builds its design
    with pytest.raises(ParameterError):
        ExperimentConfig.from_dict({"input": law})


# --------------------------------------------------------------------- sweeps

def test_figure1_schema_and_determinism(tmp_path):
    # three cells, so that threads=4 runs cells in parallel
    cfg = _small_config(trials=2, T_values=(60, 90, 120))
    records, aggregate = run_sweep(cfg)
    threaded, _ = run_sweep(cfg, threads=4)
    assert TRIAL_COLUMNS == ("rho", "L", "T", "trial", "err_G_fro2", "lambda_min",
                             "solver_mode", "bound_value", "runtime_ms")
    csv_a = _csv_text(tmp_path / "a.csv", TRIAL_COLUMNS, records)
    assert csv_a.splitlines()[0] == ",".join(TRIAL_COLUMNS)
    # threaded and serial runs agree on everything but wall-clock
    assert _strip_runtime(csv_a) == _strip_runtime(
        _csv_text(tmp_path / "threaded.csv", TRIAL_COLUMNS, threaded))
    agg = _csv_text(tmp_path / "agg.csv", AGG_COLUMNS, aggregate)
    assert agg.splitlines()[0] == ",".join(AGG_COLUMNS)
    assert len(agg.strip().splitlines()) == 4  # header + three cells


def test_figure1_zero_noise_near_nilpotent_cell_is_exact():
    cfg = _small_config(rho_values=(1e-12,), trials=3,
                        noise=NoiseConfig(family="gaussian", sigma_w=0.0, sigma_z=0.0))
    _, aggregate = run_sweep(cfg)
    assert aggregate[0][3] <= 1e-12


def test_figure1_repeat_run_identical_up_to_runtime(tmp_path):
    cfg = _small_config(trials=1)
    a = _csv_text(tmp_path / "a.csv", TRIAL_COLUMNS, run_sweep(cfg)[0])
    b = _csv_text(tmp_path / "b.csv", TRIAL_COLUMNS, run_sweep(cfg)[0])
    assert _strip_runtime(a) == _strip_runtime(b)


def test_sweep_records_are_the_fits_of_each_trial_alone():
    # a cell takes its trials' bound constants from one batched call; every
    # record is bitwise the fit of its trial alone, with fit's own constants
    cfg = _small_config(trials=3, rho_values=(0.3, 0.9), T_values=(60, 90))
    noise, design_in = cfg.noise.to_spec(cfg.n), cfg.input.to_design(cfg.p)
    records, _ = run_sweep(cfg)
    assert len(records) == 12
    for rec in records:
        rng = derive_rng(cfg.base_seed, cfg.rho_values.index(rec.rho), 0,
                         cfg.T_values.index(rec.T), rec.trial)
        model = random_model(cfg.n, cfg.p, rec.rho, rng)
        f = fit(model, noise, simulate(model, noise, design_in, rec.T, rng), rec.L, cfg.delta)
        assert f.report.solver_mode == rec.solver_mode == "full_rank"
        assert (rec.err_G_fro2, rec.lambda_min, rec.bound_value) == (
            f.err_fro ** 2, f.report.lambda_min, f.bound.value)


def test_wide_cells_compute_no_bound_constants(monkeypatch):
    # a cell with T - L < p^2 L rows fits only min-norm, which reads no bound
    # constants, so only the square (T=10) and tall (T=20) cells call
    # bound_terms; every record is still the fit of its trial alone
    cfg = _small_config(p=2, L_values=(2,), T_values=(6, 10, 20), trials=2)
    calls = []
    batched = estimator.bound_terms
    monkeypatch.setattr(estimator, "bound_terms",
                        lambda *args: calls.append(args[3]) or batched(*args))
    records, _ = run_sweep(cfg)
    monkeypatch.undo()
    assert len(calls) == 2 and all(len(betas) == cfg.trials for betas in calls)
    noise, design_in = cfg.noise.to_spec(cfg.n), cfg.input.to_design(cfg.p)
    assert [rec.solver_mode for rec in records[:2]] == ["min_norm"] * 2
    for rec in records:
        rng = derive_rng(cfg.base_seed, 0, 0, cfg.T_values.index(rec.T), rec.trial)
        model = random_model(cfg.n, cfg.p, rec.rho, rng)
        f = fit(model, noise, simulate(model, noise, design_in, rec.T, rng), rec.L, cfg.delta)
        assert repr(list(rec)[:-1]) == repr([
            rec.rho, rec.L, rec.T, rec.trial, f.err_fro ** 2, f.report.lambda_min,
            f.report.solver_mode, f.bound.value if f.bound else math.nan])


def _double_descent(cfg: ExperimentConfig, tmp_path: Path, capsys) -> tuple[str, str]:
    """stdout and aggregate CSV of `exp double-descent` on cfg."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    assert main(["exp", "double-descent", "--config", str(path),
                 "--out", str(tmp_path / "dd")]) == 0
    return capsys.readouterr().out, (tmp_path / "dd.agg.csv").read_text()


def test_double_descent_threshold_annotation(tmp_path, capsys):
    cfg30 = _small_config(n=5, p=3, L_values=(30,), T_values=(250, 300, 350),
                          trials=2, noise=NoiseConfig(family="exponential"))
    out, agg = _double_descent(cfg30, tmp_path, capsys)
    assert out.splitlines()[0] == "interpolation threshold for L=30: T=300"
    header = agg.splitlines()[0].split(",")
    assert header == list(AGG_COLUMNS) + ["at_threshold"]
    marks = {int(line.split(",")[2]): int(line.split(",")[-1])
             for line in agg.strip().splitlines()[1:]}
    assert marks == {250: 0, 300: 1, 350: 0}
    _, aggregate = run_sweep(cfg30)
    marked = [row + [int(row[2] == 300)] for row in aggregate]
    assert _csv_text(tmp_path / "agg.csv", AGG_COLUMNS + ("at_threshold",), marked) == agg

    cfg50 = _small_config(n=5, p=3, L_values=(50,), T_values=(500,), trials=1,
                          noise=NoiseConfig(family="exponential"))
    out, _ = _double_descent(cfg50, tmp_path, capsys)
    assert out.splitlines()[0] == "interpolation threshold for L=50: T=500"


def test_double_descent_interpolation_cells_use_min_norm():
    # strictly below the threshold the design is rank deficient
    cfg = _small_config(n=5, p=3, L_values=(30,), T_values=(250,), trials=2,
                        noise=NoiseConfig(family="exponential"))
    records, _ = run_sweep(cfg)
    for rec in records:
        assert rec.solver_mode == "min_norm"
        assert np.isnan(rec.bound_value)


def test_square_design_interpolates():
    # at T - L = p^2 L the least-squares fit passes through every sample
    from bilinid import InputDesign, design_from_inputs, estimate_markov, random_model

    L, p = 30, 3
    T = L + p * p * L
    m = random_model(5, p, 0.6, seed=1)
    noise = NoiseSpec.gaussian(np.eye(5), 1.0)
    traj = simulate(m, noise, InputDesign.gaussian(p), T, seed=2)
    report = estimate_markov(design_from_inputs(traj.u, L, traj.y))
    assert report.residual_norm <= 1e-8


# ---------------------------------------------------------------- pe campaign

def test_pe_campaign_small_instance_high_frequency():
    cfg = _small_config(p=1, L_values=(2,), T_values=(100,), trials=20)
    out = run_pe_campaign(cfg)
    assert out["frequency"] >= 0.9
    assert out["required_T"] == 2 + out["required_samples"]


def test_pe_campaign_tiny_T_rank_deficient():
    cfg = _small_config(p=1, L_values=(2,), T_values=(100,), trials=5)
    out = run_pe_campaign(cfg, T=3)  # one row, two columns
    assert out["frequency"] == 0.0


def _campaign_against_full_length_designs(p, L, kind, trials, base_seed, T, block):
    """run_pe_campaign's frequency and its trials' design lengths, with
    block-row blocks, checked against the full-length certificates."""
    config = _small_config(p=p, L_values=(L,), trials=trials, base_seed=base_seed,
                           input=InputConfig(kind=kind))
    design_in = config.input.to_design(p)
    lengths = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "BLOCK_ROWS", block)
        build = estimator.design_from_inputs

        def spy(*args, **kwargs):
            design = build(*args, **kwargs)
            lengths.append(design.T)
            return design

        mp.setattr(estimator, "design_from_inputs", spy)
        frequency = run_pe_campaign(config, T=T)["frequency"]
        full = [excitation.pe_certificate(
                    build(design_in, L, T=T, rng=derive_rng(base_seed, 0, j)), 0.1,
                    excitation.REGIME_FOURTH_MOMENT, m4=GAUSSIAN_M4).passed
                for j in range(trials)]
    assert frequency == float(np.mean(full))
    return frequency, lengths


@settings(max_examples=40)
@given(p=st.integers(1, 2), L=st.integers(1, 3),
       kind=st.sampled_from(["gaussian_isotropic", "bounded_sphere"]),
       trials=st.integers(1, 6), base_seed=st.integers(0, 2**32 - 1),
       extra=st.integers(1, 80), block=st.integers(1, 9))
def test_stopped_campaign_frequency_is_the_full_length_frequency(p, L, kind, trials,
                                                                 base_seed, extra, block):
    _campaign_against_full_length_designs(p, L, kind, trials, base_seed,
                                          L + p * p * L + extra, block)


@pytest.mark.parametrize("kind", ["gaussian_isotropic", "bounded_sphere"])
def test_stopped_campaign_with_mixed_verdicts(kind):
    # p = 2, L = 2, 32 rows of 8 columns in blocks of 3: trials pass and fail,
    # and passing trials stop short of T
    T = 34
    frequency, lengths = _campaign_against_full_length_designs(2, 2, kind, 40, 5, T, 3)
    assert 0.0 < frequency < 1.0
    assert min(lengths) < T and max(lengths) == T


# ------------------------------------------------------------------ validation

def test_validation_passes_on_small_config():
    cfg = _small_config(L_values=(3,), T_values=(150,), trials=20)
    rep = run_validation(cfg, autocov_draws=50_000, m4_directions=10,
                         m4_samples=20_000, coverage_trials=25)
    assert rep["passed"], rep
    assert {c["name"] for c in rep["checks"]} == {
        "autocovariance_mc", "m4_gaussian", "bound_coverage", "prediction_bound"}
    cov = next(c for c in rep["checks"] if c["name"] == "bound_coverage")
    assert 0.0 < cov["details"]["err_bound_ratio_median"] <= cov["details"]["err_bound_ratio_max"]


def test_coverage_trials_hold_one_fit_at_a_time():
    # the oracles run before the fits, so no fit outlives its trial: 20
    # fits of a p^2 L = 120 design held together peak near 2.7 MiB
    cfg = _small_config(p=2, L_values=(30,), T_values=(300,))
    bound_coverage_trials(cfg, trials=2, base_seed=2)  # warm imports and caches
    tracemalloc.start()
    try:
        trials = bound_coverage_trials(cfg, trials=20, base_seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(t.pred_ok is not None for t in trials)
    assert peak < 1.5 * (1 << 20)


def test_coverage_trial_is_its_stream_drawn_by_hand():
    # trial j draws its model, its trajectory and then u_next from
    # derive_rng(base_seed, 1, j), and its beta is the largest norm of
    # u_0..u_{T+1}; a batch of one gives every oracle its batched bits
    cfg = _small_config(p=2, L_values=(3,), T_values=(150,))
    L, T, base_seed = 3, 150, 5
    noise, design_in = cfg.noise.to_spec(cfg.n), cfg.input.to_design(cfg.p)
    trials = bound_coverage_trials(cfg, trials=4, base_seed=base_seed)
    for j, trial in enumerate(trials):
        rng = derive_rng(base_seed, 1, j)
        model = random_model(cfg.n, cfg.p, cfg.rho_values[0], rng)
        traj = simulate(model, noise, design_in, T, rng)
        u_next = design_in.sample_iid(1, rng)[0]
        us = np.vstack([traj.u, u_next])[None]
        beta = estimator.empirical_input_bound(us[0])
        [terms] = estimator.bound_terms([model], noise, L, [beta], cfg.delta)
        f = fit(model, noise, traj, L, cfg.delta, terms=terms)
        (mean,), (var,) = _final_output_moments([model], noise, us)
        y_hat = float(u_next @ f.report.G_hat @ traj.u[T - L + 1:T + 1][::-1].reshape(-1))
        assert trial.err_ellipsoidal == f.err_ellipsoidal
        assert trial.bound_value == f.bound.value
        assert trial.pred_mse == (y_hat - mean) ** 2 + var


def test_sweep_trials_hold_one_fit_at_a_time():
    # each fit of this wide cell holds its 200 x 360 design (562 KiB); the
    # trials are fit one after another and the sweep peaks near 0.93 MiB,
    # and a finished fit held while the next one runs adds one design
    cfg = _small_config(p=3, L_values=(40,), T_values=(240,))
    run_sweep(_small_config(p=3, L_values=(40,), T_values=(240,), trials=2))  # warm caches
    tracemalloc.start()
    try:
        records, _ = run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.solver_mode for r in records] == ["min_norm"] * 4
    assert peak < 1.2 * (1 << 20)


@pytest.mark.parametrize("noise", [{"sigma_z": 1e100}, {"sigma_w": 1e160}],
                         ids=["sigma_z=1e100", "sigma_w=1e160"])
def test_validation_autocovariance_margin_is_finite_for_huge_noise(noise):
    # the outputs are finite but their fourth powers are not: the Monte
    # Carlo co-moments are summed at a power-of-two scale, so the margin is
    # a number and no overflow warning is raised
    cfg = _small_config(noise=NoiseConfig(family="gaussian", **noise))
    rep = run_validation(cfg, autocov_draws=2_000, m4_directions=2, m4_samples=1_000,
                         coverage_trials=3)
    autocov = next(c for c in rep["checks"] if c["name"] == "autocovariance_mc")
    assert math.isfinite(autocov["margin"])


def test_validation_err_bound_ratios_null_without_a_bound(monkeypatch):
    # no coverage trial has a bound: the ratio details are null, not NaN
    no_bound = experiments.CoverageTrial(err_ellipsoidal=0.1, bound_value=float("nan"),
                                         covered=False, pred_mse=None, pred_bound=None,
                                         pred_ok=None)
    monkeypatch.setattr(experiments, "bound_coverage_trials",
                        lambda config, trials, base_seed, threads: [no_bound] * trials)
    rep = run_validation(_small_config(L_values=(3,), T_values=(150,)), autocov_draws=2_000,
                         m4_directions=2, m4_samples=2_000, coverage_trials=3)
    cov = next(c for c in rep["checks"] if c["name"] == "bound_coverage")
    assert cov["details"]["err_bound_ratio_median"] is None
    assert cov["details"]["err_bound_ratio_max"] is None


# the benchmark's validate config at config_seed(98, "mc_validate", 0), whose
# exact prediction margin is the smallest over seeds 1..200 (the next, seed
# 104, reads 0.0022); a Monte Carlo estimate over 10^4 noise resamples put
# it below 0
_SEED_98 = {"n": 2, "p": 1, "rho_values": [0.6], "L_values": [6], "T_values": [100],
            "trials": 1, "input": {"kind": "gaussian_isotropic"}, "delta": 0.1,
            "base_seed": 3816951053}


def test_cli_validate_seed_98_passes_on_the_exact_prediction_mse(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_SEED_98, "noise": {"family": "gaussian", "sigma_w": 0.25,
                                                      "sigma_z": 0.5}}))
    out = tmp_path / "val.json"
    assert main(["validate", "--config", str(path), "--out", str(out)]) == 0
    pred = json.loads(out.read_text())["checks"][-1]
    assert pred["name"] == "prediction_bound"
    assert pred["margin"] == 0.001220860610349317


_ZERO_NOISE = {"n": 2, "p": 2, "rho_values": [0.5], "L_values": [2], "T_values": [40],
               "trials": 2, "delta": 0.1, "base_seed": 3,
               "noise": {"family": "gaussian", "sigma_w": 0.0, "sigma_z": 0.0}}


def test_cli_validate_zero_noise_cell_passes_the_prediction_bound(tmp_path):
    # without noise the truncation term is the bound's only slack, so it
    # holds only when that term is the one of x_{T+1-L}, the state y_{T+1} reads
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_ZERO_NOISE))
    out = tmp_path / "val.json"
    assert main(["validate", "--config", str(path), "--out", str(out)]) == 0
    pred = json.loads(out.read_text())["checks"][-1]
    assert pred["name"] == "prediction_bound" and pred["margin"] >= 0.0


def test_zero_noise_prediction_bound_holds_in_every_trial():
    # the same zero-noise cell over 1000 coverage trials
    cfg = ExperimentConfig.from_dict(_ZERO_NOISE)
    for base_seed in range(10):
        trials = bound_coverage_trials(cfg, 100, base_seed)
        assert all(t.pred_ok for t in trials if t.pred_ok is not None)


def test_validation_uncentered_exponential_noise_fails_prediction_check():
    # the bound assumes zero-mean noise; the exact MSE of uncentered noise
    # exceeds it, and the check must say so
    noise = {"family": "exponential", "rate": 2.0, "centered": False}
    cfg = ExperimentConfig.from_dict({**_SEED_98, "noise": noise})
    rep = run_validation(cfg, autocov_draws=2_000, m4_directions=2, m4_samples=2_000)
    pred = rep["checks"][-1]
    assert pred["name"] == "prediction_bound" and not pred["passed"]
    assert pred["margin"] == pytest.approx(-0.507, abs=0.01)


def test_validation_measurement_noise_only_subcase():
    # sigma_w = 0: the closed-form autocovariance is exactly sigma_z^2 on the
    # diagonal and zero off it, so the Monte Carlo check passes comfortably
    cfg = _small_config(L_values=(3,), T_values=(150,), trials=10,
                        noise=NoiseConfig(family="gaussian", sigma_w=0.0, sigma_z=1.0))
    rep = run_validation(cfg, autocov_draws=50_000, m4_directions=5,
                         m4_samples=20_000, coverage_trials=10)
    auto = next(c for c in rep["checks"] if c["name"] == "autocovariance_mc")
    assert auto["passed"]


def test_validation_loose_delta_coverage():
    cfg = _small_config(L_values=(3,), T_values=(150,), trials=10, delta=0.5)
    rep = run_validation(cfg, autocov_draws=20_000, m4_directions=5,
                         m4_samples=10_000, coverage_trials=20)
    cov = next(c for c in rep["checks"] if c["name"] == "bound_coverage")
    assert cov["details"]["frequency"] >= 0.45


def test_validation_check_passes_exactly_when_margin_nonnegative(monkeypatch):
    # a zero fourth-moment constant makes m4_gaussian fail, so both verdicts occur
    from bilinid import excitation
    monkeypatch.setattr(excitation, "GAUSSIAN_M4", 0.0)
    cfg = _small_config(L_values=(3,), T_values=(150,))
    rep = run_validation(cfg, autocov_draws=2_000, m4_directions=2,
                         m4_samples=2_000, coverage_trials=3)
    verdicts = [c["passed"] for c in rep["checks"]]
    assert verdicts == [c["margin"] >= 0.0 for c in rep["checks"]]
    assert True in verdicts and False in verdicts
    assert rep["passed"] is all(verdicts)


# --------------------------------------------------------- batch simulation MC

def test_batch_outputs_match_simulator_when_noiseless():
    m = StateSpaceModel(A=[[0.4, 0.1], [0.0, 0.3]], B=[[1.0], [0.5]], C=[[0.7, -0.2]])
    rng = np.random.default_rng(0)
    u = rng.standard_normal((11, 1))
    traj = simulate(m, NoiseSpec.none(2), u, T=10, seed=1)
    ys = batch_simulate_outputs(m, NoiseSpec.none(2), u, [3, 7, 10], 5, seed=2)
    for k, t in enumerate((3, 7, 10)):
        assert np.allclose(ys[:, k], traj.y[t], atol=1e-12)


def _autocov_case():
    m = random_model(2, 1, 0.7, seed=44)
    u = np.random.default_rng(45).standard_normal((9, 1))
    return m, u, list(range(2, 7))


_AUTOCOV_NOISES = {
    "gaussian": NoiseSpec.gaussian(np.array([[0.5, 0.1], [0.1, 0.3]]), 0.4),
    "uncentered_exponential": NoiseSpec.exponential(2, rate=2.0, centered=False),
}


@pytest.mark.parametrize("n_draws", [200_000, 2 * MC_BLOCK_DRAWS + 5, 1_000])
@pytest.mark.parametrize("family", sorted(_AUTOCOV_NOISES))
def test_streamed_autocov_equals_the_two_pass_statistics(family, n_draws):
    # the same draws, simulated block by block from one generator and stacked
    m, u, taus = _autocov_case()
    noise = _AUTOCOV_NOISES[family]
    cov, se = zeta_covariance_mc(m, noise, u, taus, n_draws, seed=46)
    rng = np.random.default_rng(46)
    times = [t + 1 for t in taus]
    c = np.vstack([batch_simulate_outputs(m, noise, u, times,
                                          min(MC_BLOCK_DRAWS, n_draws - start), rng)
                   for start in range(0, n_draws, MC_BLOCK_DRAWS)])
    c -= c.mean(axis=0)
    cov_ref = c.T @ c / (n_draws - 1)
    k = len(taus)
    se_ref = np.array([[np.std(c[:, i] * c[:, j], ddof=1) / np.sqrt(n_draws)
                        for j in range(k)] for i in range(k)])
    scale = np.sqrt(np.outer(np.diag(cov_ref), np.diag(cov_ref)))
    assert np.all(np.abs(cov - cov_ref) <= 1e-12 * scale)
    assert np.all(np.abs(se - se_ref) <= 1e-12 * se_ref)


@pytest.mark.parametrize("n_draws", [200_000, 800_000])
def test_autocov_monte_carlo_memory_does_not_grow_with_draws(n_draws):
    # the draws are streamed in blocks: no (n_draws, k) or (n_draws, n) array
    m, u, taus = _autocov_case()
    noise = _AUTOCOV_NOISES["gaussian"]
    zeta_covariance_mc(m, noise, u, taus, 1_000, seed=1)  # warm imports and caches
    tracemalloc.start()
    try:
        zeta_covariance_mc(m, noise, u, taus, n_draws, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * (1 << 20)


@pytest.mark.parametrize("n_samples", [100_000, 800_000])
def test_m4_monte_carlo_memory_does_not_grow_with_samples(n_samples):
    # validate's m4 shape (p = 1, L = 3): each direction's samples are
    # streamed in blocks, so no (n_samples,) array is held
    excitation.estimate_m4(1, 3, 2, 1_000, seed=1)  # warm imports and caches
    tracemalloc.start()
    try:
        excitation.estimate_m4(1, 3, 2, n_samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_validation_memory_at_default_counts_is_bounded():
    # the benchmark's validate cell (n=2, p=1, rho=0.6, L=6, T=100, Gaussian
    # sigma_w = 0.25, sigma_z = 0.5) at the CLI's draw counts: both Monte
    # Carlo checks stream their draws, so the coverage cell sets the peak
    cfg = _small_config(L_values=(6,), T_values=(100,), base_seed=0)
    run_validation(cfg, autocov_draws=2_000, m4_directions=2, m4_samples=2_000,
                   coverage_trials=3)  # warm imports and caches
    tracemalloc.start()
    try:
        run_validation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (1 << 20)


def test_zeta_covariance_mc_needs_two_draws():
    m, u, taus = _autocov_case()
    noise = _AUTOCOV_NOISES["gaussian"]
    with pytest.raises(ParameterError):
        zeta_covariance_mc(m, noise, u, taus, 1, seed=1)


def test_autocov_nominal_false_failure_rate():
    # 2 Phi(-3) per lag pair, independence across k distinct pairs
    assert _autocov_false_failure_rate(1) == pytest.approx(2.6997960632601e-3, rel=1e-12)
    assert _autocov_false_failure_rate(15) == pytest.approx(0.03974048822149845, rel=1e-12)
    rep = run_validation(_small_config(L_values=(3,), T_values=(150,)), autocov_draws=2_000,
                         m4_directions=2, m4_samples=2_000, coverage_trials=3)
    details = rep["checks"][0]["details"]
    assert details["nominal_false_failure_rate"] == _autocov_false_failure_rate(15)
    assert details["nominal_rate_basis"] == "independence approximation"


def test_coverage_nominal_false_failure_rate():
    # Bin(trials, delta) mass of the miss counts the gate fails: at 10 trials
    # and delta = 0.1 it fails from 2 misses (frequency 0.8 < 0.85) on
    target = (1.0 - 0.1) - 0.05
    assert _coverage_false_failure_rate(10, 0.1, target) == pytest.approx(
        1.0 - 0.9**10 - 0.9**9, rel=1e-12)
    tail = sum(math.comb(100, m) * 0.1**m * 0.9**(100 - m) for m in range(16, 101))
    assert _coverage_false_failure_rate(100, 0.1, target) == pytest.approx(tail, rel=1e-12)
    rep = run_validation(_small_config(L_values=(3,), T_values=(150,)), autocov_draws=2_000,
                         m4_directions=2, m4_samples=2_000, coverage_trials=10)
    details = rep["checks"][2]["details"]
    assert details["nominal_false_failure_rate"] == _coverage_false_failure_rate(10, 0.1, target)
    assert details["nominal_rate_basis"] == "upper bound"


def test_m4_nominal_false_failure_rate():
    # p = 2, L = 1, W = I/sqrt(2): M = I/2, so u^T M u ~ Exp(1) with
    # E Q^2 = 2 and E Q^4 = 24; m4 = 6 and a sample's variance is
    # 105 * 24 - 36 = 2484
    half = np.array([[1.0, 0.0, 0.0, 1.0]]) / math.sqrt(2.0)
    se = math.sqrt(2484.0 / 100)
    rate, m4_max = _m4_false_failure_rate(half, 2, 1, 100)
    assert m4_max == pytest.approx(6.0, rel=1e-15)
    assert rate == pytest.approx(0.5 * math.erfc((3.0 + 3.0 / se) / math.sqrt(2.0)), rel=1e-12)
    # p = 1: every direction is rank one, m4 = 9, and each fails with Phi(-3)
    rate, m4_max = _m4_false_failure_rate(np.full((50, 3), 1.0 / math.sqrt(3.0)), 1, 3, 10)
    assert m4_max == pytest.approx(9.0, rel=1e-15)
    assert rate == pytest.approx(1.0 - (1.0 - 0.5 * math.erfc(3.0 / math.sqrt(2.0)))**50,
                                 rel=1e-12)
    rep = run_validation(_small_config(p=2, L_values=(3,), T_values=(150,)),
                         autocov_draws=2_000, m4_directions=4, m4_samples=2_000,
                         coverage_trials=3)
    details = rep["checks"][1]["details"]
    _, _, directions = excitation.estimate_m4(2, 3, 4, 2_000, seed=3 + 20)
    assert (details["nominal_false_failure_rate"], details["m4_exact_max"]) == (
        _m4_false_failure_rate(directions, 2, 3, 2_000))
    assert details["nominal_rate_basis"] == "normal approximation"
    assert details["m4_exact_max"] < 9.0


def _row_major_outputs(model, noise, u, times, n_draws, seed):
    # the (n_draws, n) recursion that batch_simulate_outputs steps state-major,
    # drawing z at the output times only and no w after the last of them
    rng = np.random.default_rng(seed)
    x = np.zeros((n_draws, model.n))
    out = np.zeros((n_draws, len(times)))
    for t in range(max(times) + 1):
        if t in times:
            z = noise.sample_z(n_draws, rng)
            out[:, times.index(t)] = (x @ (model.C.T @ u[t])) + z
        if t == max(times):
            break
        w = noise.sample_w(n_draws, rng)
        x = x @ model.A.T + model.B @ u[t] + w
    return out


_ROLLOUT_NOISES = {
    "gaussian": lambda n: NoiseSpec.gaussian(0.3 * np.eye(n) + 0.1, 0.4),
    "exponential": lambda n: NoiseSpec.exponential(n, rate=2.0),
    "uncentered_exponential": lambda n: NoiseSpec.exponential(n, rate=2.0, centered=False),
}


@pytest.mark.parametrize("n_draws", [1, 1_000, MC_BLOCK_DRAWS + 3])
@pytest.mark.parametrize("family", sorted(_ROLLOUT_NOISES))
@pytest.mark.parametrize("n", range(1, 7))
def test_state_major_rollout_is_bitwise_the_row_major_recursion(n, family, n_draws):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    model = StateSpaceModel(A=A, B=rng.standard_normal((n, 2)), C=rng.standard_normal((2, n)))
    noise = _ROLLOUT_NOISES[family](n)
    u = rng.standard_normal((10, 2))
    times = [2, 5, 9]
    assert np.array_equal(batch_simulate_outputs(model, noise, u, times, n_draws, seed=7),
                          _row_major_outputs(model, noise, u, times, n_draws, seed=7))


# ------------------------------------------------------ final-output moments

def _sampler_model():
    return StateSpaceModel(A=[[0.5, 0.3, 0.0], [0.0, -0.4, 0.2], [0.1, 0.0, 0.6]],
                           B=[[1.0, 0.0], [0.5, -1.0], [0.0, 0.8]],
                           C=[[0.7, -0.2, 0.3], [0.1, 0.9, -0.5]])


def test_final_output_moments_noiseless_match_simulator():
    m = _sampler_model()
    u = np.random.default_rng(0).standard_normal((13, 2))
    traj = simulate(m, NoiseSpec.none(3), u, T=12, seed=1)
    (mean,), (var,) = _final_output_moments([m], NoiseSpec.none(3), u[None])
    assert mean == pytest.approx(traj.y[12], rel=0.0, abs=1e-12)
    assert var == 0.0


_ROOT = np.array([[0.6, 0.0, 0.0], [0.3, 0.4, 0.0], [-0.2, 0.1, 0.5]])


@pytest.mark.parametrize("noise", [
    NoiseSpec.gaussian(_ROOT @ _ROOT.T, 0.3),  # non-isotropic process noise
    NoiseSpec.exponential(3, rate=2.0),
    NoiseSpec.exponential(3, rate=2.0, centered=False),
], ids=["gaussian", "exponential", "exponential-uncentered"])
def test_final_output_moments_match_step_simulator(noise):
    # the exact mean and variance lie within 4 standard errors of the
    # sample moments of step-by-step rollouts, whatever the noise's shape
    m = _sampler_model()
    u = np.random.default_rng(1).standard_normal((9, 2))
    draws = 400_000
    (mean,), (var,) = _final_output_moments([m], noise, u[None])
    step = batch_simulate_outputs(m, noise, u, [8], draws, seed=4)[:, 0]
    assert abs(step.mean() - mean) <= 4.0 * np.sqrt(step.var() / draws)
    se_var = np.sqrt(((step - step.mean()) ** 2).var() / draws)
    assert abs(step.var() - var) <= 4.0 * se_var


def test_final_output_moments_scalar_system_by_hand():
    # y_3 = u_3 c x_3 + z_3 with x_3 = sum_i a^(2-i) (b u_i + w_i): mean
    # u_3 c b (a^2 u_0 + a u_1 + u_2), variance sz^2 + sw (u_3 c)^2 (1 + a^2 + a^4).
    a, b, c, sw, sz = 0.9, 1.5, -0.8, 0.4, 0.2
    m = StateSpaceModel(A=[[a]], B=[[b]], C=[[c]])
    u = np.array([[0.7], [-1.2], [0.4], [1.1]])
    u0, u1, u2, u3 = u[:, 0]
    (mean,), (var,) = _final_output_moments([m], NoiseSpec.gaussian([[sw]], sz), u[None])
    assert mean == pytest.approx(u3 * c * b * (a**2 * u0 + a * u1 + u2), rel=1e-12)
    assert var == pytest.approx(sz**2 + sw * (u3 * c) ** 2 * (1 + a**2 + a**4), rel=1e-12)
    # uncentered exponential noise of rate r: every entry of w and z has
    # mean and standard deviation mu = 1/r, which adds
    # u_3 c mu (a^2 + a + 1) + mu to the mean and leaves the variance's form
    r = 2.5
    mu = 1.0 / r
    (mean,), (var,) = _final_output_moments(
        [m], NoiseSpec.exponential(1, rate=r, centered=False), u[None])
    assert mean == pytest.approx(u3 * c * (b * (a**2 * u0 + a * u1 + u2) + mu * (a**2 + a + 1))
                                 + mu, rel=1e-12)
    assert var == pytest.approx(mu**2 + mu**2 * (u3 * c) ** 2 * (1 + a**2 + a**4), rel=1e-12)


@pytest.mark.parametrize("noise", [
    NoiseConfig(family="gaussian", sigma_w=0.25, sigma_z=0.5),
    NoiseConfig(family="exponential", rate=2.0),
], ids=["gaussian", "exponential"])
def test_coverage_trial_draws_noise_only_inside_simulate(monkeypatch, noise):
    # the prediction check reads exact moments: the trajectory's own draws
    # are the only noise a coverage trial samples
    callers = []
    for name in ("sample_w", "sample_z"):
        original = getattr(NoiseSpec, name)

        def counted(self, count, rng, original=original, name=name):
            callers.append((name, sys._getframe(1).f_code.co_name))
            return original(self, count, rng)

        monkeypatch.setattr(NoiseSpec, name, counted)
    cfg = _small_config(L_values=(6,), T_values=(100,), noise=noise)
    trials = bound_coverage_trials(cfg, trials=1, base_seed=5)
    assert trials[0].pred_ok is not None
    assert callers == [("sample_w", "simulate_batch"), ("sample_z", "simulate_batch")]


# ------------------------------------------------------------------------- CLI

def test_cli_simulate_estimate_hokalman(config_file, tmp_path):
    assert main(["simulate", "--config", str(config_file), "--diagnostics"]) == 0
    assert (tmp_path / "out.traj.csv").exists()
    assert main(["estimate", "--config", str(config_file)]) == 0
    report = json.loads((tmp_path / "out.estimate.report.json").read_text())
    assert {"lambda_min", "residual_norm", "solver_mode", "err_fro",
            "err_ellipsoidal", "bound_value", "bound_terms"} <= set(report)
    assert set(report["bound_terms"]) == {"sigma_w_sq", "sigma_e_sq", "K", "Xi",
                                          "beta", "rho", "phi", "delta"}
    assert main(["hokalman", "--config", str(config_file)]) == 0
    meta = json.loads((tmp_path / "out.realization.json").read_text())
    assert {"n", "p", "L", "sigma_min_L", "robustness_ok", "err_fro", "bound_BC",
            "bound_A"} == set(meta)


def test_cli_hokalman_writes_the_fit_error_and_its_bounds(tmp_path):
    # the metadata carries the fit's ||G_hat - G||_F beside the realization
    # bounds it gives, as fit and realization_error_bounds compute them
    cfg = ExperimentConfig(n=2, p=1, rho_values=(0.5,), L_values=(4,), T_values=(60,),
                           trials=1, base_seed=7)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    assert main(["hokalman", "--config", str(path), "--out", str(tmp_path / "r")]) == 0
    meta = json.loads((tmp_path / "r.json").read_text())
    rng = derive_rng(cfg.base_seed, 0)
    model = random_model(cfg.n, cfg.p, cfg.rho_values[0], rng)
    noise = cfg.noise.to_spec(cfg.n)
    traj = simulate(model, noise, cfg.input.to_design(cfg.p), cfg.T_values[0], rng)
    fitted = fit(model, noise, traj, 4, cfg.delta)
    bound_BC, bound_A, robustness_ok = realization_error_bounds(
        build_hankel(fitted.G, 2), ho_kalman(fitted.report.G_hat, 2).hankel, fitted.err_fro)
    assert (meta["err_fro"], meta["bound_BC"], meta["bound_A"]) == (
        fitted.err_fro, bound_BC, bound_A)
    assert meta["robustness_ok"] == robustness_ok


@pytest.mark.parametrize("command, suffixes", [
    ("estimate", (".G.csv", ".report.json")),
    ("hokalman", (".A.csv", ".B.csv", ".C.csv", ".json")),
])
def test_cli_rerun_to_same_out_is_byte_identical(config_file, tmp_path, command, suffixes):
    out = tmp_path / "run"
    paths = [tmp_path / f"run{suffix}" for suffix in suffixes]
    assert main([command, "--config", str(config_file), "--out", str(out)]) == 0
    first = [path.read_bytes() for path in paths]
    assert main([command, "--config", str(config_file), "--out", str(out)]) == 0
    assert [path.read_bytes() for path in paths] == first


@pytest.mark.parametrize("command, written", [
    (["estimate"], ("..G.csv", "..report.json")),
    (["hokalman"], ("..A.csv", "..B.csv", "..C.csv", "..json")),
    (["exp", "figure1"], ("..csv", "..agg.csv")),
    (["exp", "double-descent"], ("..csv", "..agg.csv")),
], ids=["estimate", "hokalman", "exp figure1", "exp double-descent"])
def test_cli_out_dot_appends_suffixes_to_the_name(config_file, tmp_path, monkeypatch,
                                                  command, written):
    # every sibling output is "<--out><suffix>", so --out . names them "..G.csv" etc.
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--config", str(config_file), "--out", "."]) == 0
    for name in written:
        assert (tmp_path / name).is_file()


def test_cli_pe_check_and_campaign(config_file, tmp_path):
    assert main(["pe-check", "--config", str(config_file)]) == 0
    cert = json.loads((tmp_path / "out.pe.json").read_text())
    assert set(cert) == {"lambda_min", "threshold", "passed", "regime",
                         "required_T", "gamma1", "gamma2", "delta"}
    assert main(["pe-check", "--config", str(config_file), "--regime", "bounded_a",
                 "--format", "csv", "--out", str(tmp_path / "cert.csv")]) == 0
    assert (tmp_path / "cert.csv").read_text().startswith("key,value")


def test_cli_pe_check_csv_writes_the_given_out_path(config_file, tmp_path):
    out = tmp_path / "report.txt"
    assert main(["pe-check", "--config", str(config_file), "--format", "csv",
                 "--out", str(out)]) == 0
    assert out.read_text().startswith("key,value")
    assert not (tmp_path / "report.csv").exists()
    # without --out the default path still carries the format's suffix
    assert main(["pe-check", "--config", str(config_file), "--format", "csv"]) == 0
    assert (tmp_path / "out.pe.csv").read_text().startswith("key,value")


def test_cli_experiments_byte_identical_reruns(config_file, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["exp", "figure1", "--config", str(config_file),
                 "--out", str(out1)]) == 0
    assert main(["exp", "figure1", "--config", str(config_file),
                 "--out", str(out2), "--threads", "3"]) == 0
    a = (tmp_path / "a.csv").read_text()
    b = (tmp_path / "b.csv").read_text()
    assert _strip_runtime(a) == _strip_runtime(b)
    # aggregated output carries no wall-clock at all: strictly identical
    assert (tmp_path / "a.agg.csv").read_text() == (tmp_path / "b.agg.csv").read_text()


@pytest.mark.parametrize("command", ["validate", "pe-campaign"])
def test_cli_reports_independent_of_thread_count(config_file, tmp_path, command):
    # README: outputs are bitwise independent of --threads
    codes, reports = [], []
    for threads in ("1", "3"):
        out = tmp_path / f"{command}-{threads}.json"
        codes.append(main([command, "--config", str(config_file), "--out", str(out),
                           "--threads", threads]))
        reports.append(out.read_bytes())
    assert codes[0] == codes[1]
    assert reports[0] == reports[1]


def test_cli_parser_is_built_once_and_keeps_no_parsed_state():
    assert build_parser() is build_parser()
    assert build_parser().parse_args(["estimate", "--config", "c.json", "--seed", "5"]).seed == 5
    assert build_parser().parse_args(["estimate", "--config", "c.json"]).seed is None


def test_cli_import_loads_no_thread_pool():
    # only _map with threads > 1 imports concurrent.futures, and with it logging
    script = ("import sys, bilinid.cli\n"
              "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n")
    src = str(Path(experiments.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_cli_double_descent(config_file, tmp_path):
    assert main(["exp", "double-descent", "--config", str(config_file),
                 "--out", str(tmp_path / "dd")]) == 0
    agg = (tmp_path / "dd.agg.csv").read_text()
    assert agg.splitlines()[0].endswith("at_threshold")


def test_cli_validate(config_file, tmp_path):
    code = main(["validate", "--config", str(config_file),
                 "--out", str(tmp_path / "val.json")])
    report = json.loads((tmp_path / "val.json").read_text())
    assert code == (0 if report["passed"] else 4)
    assert report["passed"]


def test_cli_format_only_on_commands_that_read_it(config_file, tmp_path):
    assert main(["estimate", "--config", str(config_file), "--format", "csv",
                 "--out", str(tmp_path / "est")]) == 0
    assert (tmp_path / "est.report.csv").read_text().startswith("key,value")
    assert not (tmp_path / "est.report.json").exists()
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", str(config_file), "--format", "csv"])
    assert exc.value.code == 2


def test_cli_config_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["estimate", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "p": 1, "rho_values": [2.0]}))
    assert main(["estimate", "--config", str(bad)]) == 2


@pytest.mark.parametrize("config, code", [("cfg.json", 0), ("nope.json", 2)],
                         ids=["ok", "missing config"])
def test_console_entry_exits_with_the_code_of_main(config_file, monkeypatch, config, code):
    # the installed `bilinid` script calls console_entry, which reads sys.argv
    monkeypatch.setattr(sys, "argv", ["bilinid", "pe-check", "--config",
                                      str(config_file.parent / config),
                                      "--out", str(config_file.parent / "cert.json")])
    with pytest.raises(SystemExit) as exc:
        console_entry()
    assert exc.value.code == code


def test_python_m_bilinid_cli_runs_console_entry(monkeypatch, capsys):
    # in-process, so that a line tracer sees the module's __main__ call; the
    # loaded bilinid.cli is set aside, or runpy warns that it runs it twice
    monkeypatch.delitem(sys.modules, "bilinid.cli")
    monkeypatch.setattr(sys, "argv", ["bilinid", "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("bilinid.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bilinid")


@pytest.mark.parametrize("command, names", [
    (["simulate"], ["out.traj.csv"]),
    (["estimate"], ["out.estimate.G.csv", "out.estimate.report.json"]),
    (["estimate", "--format", "csv"], ["out.estimate.G.csv", "out.estimate.report.csv"]),
    (["hokalman"], ["out.realization.A.csv", "out.realization.B.csv",
                    "out.realization.C.csv", "out.realization.json"]),
    (["pe-check"], ["out.pe.json"]),
    (["pe-check", "--format", "csv"], ["out.pe.csv"]),
    (["pe-campaign"], ["out.pe_campaign.json"]),
    (["exp", "figure1"], ["out.figure1.agg.csv", "out.figure1.csv"]),
    (["exp", "double-descent"], ["out.double_descent.agg.csv", "out.double_descent.csv"]),
    (["validate"], ["out.validation.json"]),
], ids=" ".join)
def test_cli_default_output_names(tmp_path, config_file, command, names):
    # without --out, every output is named output_path plus the command's suffix
    main(command + ["--config", str(config_file)])
    assert sorted(p.name for p in tmp_path.iterdir() if p != config_file) == names


def test_main_alone_resolves_the_output_path():
    # one place joins --out and output_path, so the commands take out as given
    tree = ast.parse(Path(cli.__file__).read_text())
    readers = set()
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and (
                        node.attr == "output_path"
                        or (node.attr == "out" and getattr(node.value, "id", None) == "args")):
                    readers.add(func.name)
    assert readers == {"main"}


@pytest.mark.parametrize("rate, code", [(1e155, 0), (1e200, 0), (1e-300, 2), (1e-160, 2)])
def test_cli_exponential_rate_extremes(tmp_path, capsys, rate, code):
    # 1/rate^2 underflowing builds the spec; overflowing it is refused in
    # one line, before any numpy warning
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 1, "L_values": [4], "T_values": [60],
                                "trials": 1, "noise": {"family": "exponential", "rate": rate}}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err == (f"config error: exponential rate {rate!r} gives a noise variance "
                       f"1/rate^2 past the float range\n")


_SMALL = '"n": 2, "p": 1, "L_values": [4], "T_values": [60]'


@pytest.mark.parametrize("text, code", [
    ('{"n": "5"}', 2),
    ('{"p": true}', 2),
    ('[1, 2]', 2),
    ('{"noise": {"rate": NaN}}', 2),
    ('{"input": {"kind": "bounded_sphere", "beta": Infinity}}', 2),
    ('{"trials": 1.5}', 2),
    ('{"noise": {"rate": 0}}', 2),
    ('{"base_seed": -1}', 2),
    ('{"n": 2, "p": 1, "L_values": [4], "T_values": [30, 30]}', 2),
    ('{"input": {"kind": "gaussian_isotropic", "beta": -3}}', 2),
    # finite but extreme values fail inside the numerics: exit 3
    ('{%s, "input": {"kind": "bounded_sphere", "beta": 1e300}}' % _SMALL, 3),
    # an exponential rate whose variance 1/rate^2 underflows builds its spec
    ('{%s, "noise": {"rate": 1e300}}' % _SMALL, 0),
    # files json.loads refuses with other errors than JSONDecodeError
    pytest.param(b'\xff{"n": 2}', 2, id="not-utf8"),
    pytest.param('{"n": %s}' % ("1" * 5000), 2, id="int-over-4300-digits"),
    pytest.param("[" * 100_000, 2, id="nesting-1e5"),
    # integers past the float range are not finite numbers
    pytest.param('{"delta": %d}' % 10**400, 2, id="delta-401-digits"),
    pytest.param('{"rho_values": [%d]}' % 10**400, 2, id="rho-401-digits"),
    pytest.param('{"noise": {"family": "gaussian", "sigma_w": %d}}' % 10**400, 2,
                 id="sigma_w-401-digits"),
    pytest.param('{"input": {"kind": "bounded_sphere", "beta": %d}}' % 10**400, 2,
                 id="beta-401-digits"),
])
def test_cli_malformed_config_exit_codes(tmp_path, text, code):
    path = tmp_path / "cfg.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "est")]) == code


_SUBCOMMANDS = (["simulate"], ["estimate"], ["hokalman"], ["pe-check"], ["pe-campaign"],
                ["exp", "figure1"], ["exp", "double-descent"], ["validate"])


@pytest.mark.parametrize("bad", ["--threads 0", "--threads -4", "directory config"])
@pytest.mark.parametrize("command", _SUBCOMMANDS, ids=" ".join)
def test_cli_nonpositive_threads_and_directory_config_exit_2(tmp_path, capsys, bad, command):
    # a --threads below 1 is refused rather than run serially, and a --config
    # that names a directory is refused like a missing file; neither writes
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 1, "L_values": [4], "T_values": [60],
                                "trials": 1}))
    argv = [*command, "--config", str(path), "--out", str(tmp_path / "o")]
    if bad == "directory config":
        argv[argv.index(str(path))] = str(tmp_path)
    else:
        argv += bad.split()
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("noise", [
    {"family": "exponential", "sigma_w": 0.01},
    {"family": "gaussian", "rate": 2.0},
    {"family": "gaussian", "centered": False},
    {"family": "laplace"},
    {"family": "exponential", "rate": 0},
    {"family": "gaussian", "sigma_w": -1.0},
])
@pytest.mark.parametrize("command", _SUBCOMMANDS, ids=" ".join)
def test_cli_bad_noise_config_exits_2_on_every_subcommand(tmp_path, capsys, noise, command):
    # keys the family ignores, an unknown family and values its spec refuses:
    # every subcommand refuses the config when it is parsed, whether or not
    # it draws noise
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 1, "L_values": [4], "T_values": [60],
                                "trials": 1, "noise": noise}))
    assert main([*command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("override", [{"n": 0}, {"p": 0}, {"L_values": [0]}],
                         ids=["n=0", "p=0", "L=0"])
@pytest.mark.parametrize("command", _SUBCOMMANDS, ids=" ".join)
def test_cli_nonpositive_size_exits_2_on_every_subcommand(tmp_path, capsys, override, command):
    # sizes below 1 are refused when the config is parsed, also by the
    # commands that never build a model (pe-campaign) or a design (simulate)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 1, "L_values": [3], "T_values": [60],
                                "trials": 1, **override}))
    assert main([*command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_noise_config_defaults_only_the_keys_of_its_family():
    assert NoiseConfig().to_spec(2).sigma_z == 1.0
    spec = NoiseConfig(family="gaussian", sigma_z=0.5).to_spec(2)
    assert np.array_equal(spec.sigma_w, np.eye(2)) and spec.sigma_z == 0.5
    spec = NoiseConfig(rate=4.0, centered=False).to_spec(2)
    assert spec.sigma_z == 0.25 and not spec.centered
    cfg = ExperimentConfig(noise=NoiseConfig(family="gaussian", sigma_w=0.25))
    d = {**dataclasses.asdict(cfg), "base_seed": 3}
    assert ExperimentConfig.from_dict(d).noise == cfg.noise


@pytest.mark.parametrize("command", ["pe-campaign", "pe-check"])
def test_cli_overflowing_design_exits_3(tmp_path, capsys, command):
    # the inputs are finite, but their Kronecker products (1e400) are not
    path = tmp_path / "cfg.json"
    path.write_text('{%s, "trials": 2, "input": {"kind": "bounded_sphere", "beta": 1e200}}'
                    % _SMALL)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    if command == "pe-campaign":
        assert "Kronecker design rows overflow" in capsys.readouterr().err


_HUGE_OUTPUTS = {"noise": {"family": "exponential", "rate": 1e-154}}  # y ~ 1e154
_HUGE_ROWS = {"input": {"kind": "bounded_sphere", "beta": 1e80}}  # rows ~ 1e160


@pytest.mark.parametrize("command, extra, T, code", [
    (["estimate"], _HUGE_OUTPUTS, 40, 3),
    (["pe-check", "--regime", "bounded_a"], _HUGE_ROWS, 40, 3),
    # T = 10 leaves 8 rows for 8 unknowns: the design keeps its rows and U^T y
    (["estimate"], _HUGE_ROWS, 10, 3),
    # the certificate reads only the Gram, so pe-check takes no outputs
    (["pe-check"], _HUGE_OUTPUTS, 40, 0),
], ids=["estimate huge outputs", "pe-check huge rows", "estimate huge rows kept",
        "pe-check huge outputs"])
def test_cli_overflowing_gram_sums_print_one_line(tmp_path, capsys, command, extra, T, code):
    # the outputs or rows are finite, their Gram sums are not, whether the
    # design is tall or keeps its rows
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 2, "L_values": [2], "T_values": [T],
                                "trials": 1, **extra}))
    assert main(command + ["--config", str(path), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err == ("numerical failure: design Gram sums overflow the float range\n"
                   if code else "")


_HUGE_INPUTS = {"input": {"kind": "bounded_sphere", "beta": 1e200}}  # ||u||^2 ~ 1e400


def test_cli_simulate_refuses_an_output_past_the_float_range(tmp_path, capsys):
    # y = u^T C x ~ 1e400 overflows inside an einsum, which raises no
    # FloatingPointError; the writer refuses it before anything is written
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 2, "L_values": [2], "T_values": [40],
                                "trials": 1, **_HUGE_INPUTS}))
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"numerical failure: {out}: the trajectory holds "
                                       "a value that is not finite\n")
    assert not out.exists()


def test_cli_sweep_aggregates_errors_near_the_top_of_the_float_range(tmp_path, capsys):
    # every err_G_fro2 is near 1e299 and finite; their squares, which an
    # unscaled std sums, are not
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 2, "L_values": [2], "T_values": [40],
                                "trials": 20, "noise": {"family": "gaussian", "sigma_w": 1.0,
                                                        "sigma_z": 1e150}}))
    out = tmp_path / "sweep"
    assert main(["exp", "figure1", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    row, = csv.DictReader((tmp_path / "sweep.agg.csv").read_text().splitlines())
    errs = [float(r["err_G_fro2"])
            for r in csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines())]
    mean, std = float(row["mean_err"]), float(row["std_err"])
    assert 1e298 < mean < 1e301 and 1e298 < std < 1e301
    assert mean == pytest.approx(math.fsum(errs) / len(errs), rel=1e-12)


@pytest.mark.parametrize("beta", [1e80, 1e77], ids=["beta**4 overflows", "product overflows"])
def test_cli_bounded_a_requirement_past_the_float_range_prints_one_line(tmp_path, capsys,
                                                                         beta):
    # T = 10 keeps the design's rows and takes no outputs, so the Gram sums
    # stay finite and the regime's sample requirement is the first overflow
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 2, "L_values": [2], "T_values": [10], "trials": 1,
                                "input": {"kind": "bounded_sphere", "beta": beta}}))
    out = tmp_path / "pe.json"
    assert main(["pe-check", "--regime", "bounded_a", "--config", str(path),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("numerical failure: regime bounded_a: the sample "
                                       "requirement is past the float range\n")
    assert not out.exists()


# the innermost bilinid function of each overflow's traceback, by the
# command's last word and the config key that makes it overflow
_OVERFLOW_STAGES = {
    ("figure1", "noise"): "sysmodel._infinite_gramians",
    ("validate", "noise"): "sysmodel._truncated_gramians",
    ("figure1", "input"): "estimator.empirical_input_bound",
    ("validate", "input"): "sysmodel._input_gramians",
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command", [["exp", "figure1"], ["validate"]], ids=" ".join)
@pytest.mark.parametrize("extra", [_HUGE_OUTPUTS, _HUGE_INPUTS],
                         ids=["huge outputs", "huge inputs"])
def test_cli_overflow_anywhere_prints_one_line(tmp_path, capsys, extra, command, threads):
    # every command runs under np.errstate(over="raise"), its worker threads
    # too, so its first overflow ends it with exit 3 and no numpy warning;
    # the line names the stage, at either thread count
    [key] = extra
    stage = _OVERFLOW_STAGES[command[-1], key]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 2, "L_values": [2], "T_values": [40],
                                "trials": 2, **extra}))
    assert main(command + ["--config", str(path), "--out", str(tmp_path / "o"),
                           "--threads", str(threads)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: overflow encountered in ")
    assert err.endswith(f" (in {stage})\n") and err.count("\n") == 1


def test_cli_names_a_python_float_overflow(tmp_path, capsys, monkeypatch):
    # a Python float power past the float range raises a bare OverflowError
    # whose message is only an errno tuple; the output moments raise one here
    def overflow(*args):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr(experiments, "_stack", overflow)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 2, "L_values": [2], "T_values": [40]}))
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "past the float range" in err and "_final_output_moments" in err


def test_cli_gaussian_sigma_z_past_the_float_range_is_a_config_error(tmp_path, capsys):
    # sigma_z = 1e200 has a variance sigma_z^2 past the float range
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 2, "L_values": [2], "T_values": [40],
                                "noise": {"family": "gaussian", "sigma_w": 1.0,
                                          "sigma_z": 1e200}}))
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error:") and "past the float range" in err


@pytest.mark.parametrize("command, code", [(["exp", "figure1"], 0), (["validate"], 4),
                                           (["pe-check", "--regime", "bounded_a"], 0)],
                         ids=["exp figure1", "validate", "pe-check"])
def test_cli_tiny_inputs_are_not_read_as_beta_zero(tmp_path, capsys, command, code):
    # the squares of sphere inputs of radius 1e-200 underflow to zero; their
    # norms are taken at a power-of-two scale, so beta is 1e-200, not 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 2, "L_values": [2], "T_values": [40],
                                "trials": 2,
                                "input": {"kind": "bounded_sphere", "beta": 1e-200}}))
    assert main(command + ["--config", str(path), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert "beta must be positive" not in err and "requires a finite beta > 0" not in err


def test_map_tasks_keep_the_callers_errstate():
    with np.errstate(over="raise"):
        assert _map(range(3), lambda _: np.geterr()["over"], threads=2) == ["raise"] * 3


@pytest.mark.parametrize("L", [2, 3])
def test_cli_hokalman_checks_its_order_before_any_work(tmp_path, capsys, L):
    # huge outputs would fail the fit with exit 3, but L < 2n (or an odd L)
    # is a config error, found before the simulation
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 2, "L_values": [L], "T_values": [40],
                                "trials": 1, **_HUGE_OUTPUTS}))
    assert main(["hokalman", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("o*"))


@pytest.mark.parametrize("rho", [1e-100, 1e-150, 1e-170, 1e-200, 1e-300])
def test_cli_hokalman_on_a_degenerate_drawn_system_exits_3(tmp_path, capsys, rho):
    # the drawn A is about rho, so the true Hankel clip's sigma_min_L, or its
    # square, is 0: a degenerate system, not a config error
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 1, "rho_values": [rho], "L_values": [4],
                                "T_values": [60], "trials": 1}))
    assert main(["hokalman", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: sigma_min_L = ") and err.count("\n") == 1
    assert not list(tmp_path.glob("o*"))


def test_cli_hokalman_prints_a_zero_sigma_min_L_unsigned(tmp_path, capsys):
    # LAPACK returns this true Hankel clip's sigma_min_L as -0.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 1, "rho_values": [1e-300], "L_values": [4],
                                "T_values": [60], "trials": 1, "base_seed": 0}))
    assert main(["hokalman", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: sigma_min_L = 0.000e+00 ")


@pytest.mark.parametrize("regime, count", [("fourth_moment_b", 18_354_970),
                                           ("bounded_a", None)])
def test_cli_pe_check_at_the_smallest_delta(tmp_path, capsys, regime, count):
    path = tmp_path / "cfg.json"
    path.write_text('{"n": 2, "p": 2, "L_values": [4], "T_values": [40], "trials": 1, '
                    '"delta": 5e-324}')
    out = tmp_path / "pe.json"
    assert main(["pe-check", "--regime", regime, "--config", str(path),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["delta"] == 5e-324
    if count is not None:
        assert report["required_T"] == 4 + count
    assert 4 < report["required_T"] < 10**8


def test_cli_bound_at_the_smallest_delta_is_finite(tmp_path, capsys):
    # p^2 L Xi / delta overflows at delta = 5e-324; the bound is its finite root
    path = tmp_path / "cfg.json"
    path.write_text('{"n": 2, "p": 2, "L_values": [2], "T_values": [40], "trials": 2, '
                    '"delta": 5e-324}')
    assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "e")]) == 0
    assert main(["exp", "figure1", "--config", str(path), "--out", str(tmp_path / "f")]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "e.report.json").read_text(), parse_constant=_reject_constant)
    assert report["solver_mode"] == "full_rank"
    assert 1e160 < report["bound_fro"] < report["bound_value"] < 1e170
    with open(tmp_path / "f.csv", newline="") as fh:
        bounds = [float(row["bound_value"]) for row in csv.DictReader(fh)]
    assert len(bounds) == 2 and all(1e160 < b < 1e170 for b in bounds)


def test_cli_seed_override_changes_results(config_file, tmp_path):
    assert main(["exp", "figure1", "--config", str(config_file),
                 "--out", str(tmp_path / "s1"), "--seed", "1"]) == 0
    assert main(["exp", "figure1", "--config", str(config_file),
                 "--out", str(tmp_path / "s2"), "--seed", "2"]) == 0
    assert (tmp_path / "s1.csv").read_text() != (tmp_path / "s2.csv").read_text()


def test_cli_negative_seed_override_exits_2_and_writes_nothing(config_file, tmp_path, capsys):
    before = sorted(tmp_path.iterdir())
    assert main(["estimate", "--config", str(config_file), "--seed", "-1"]) == 2
    assert "base_seed must be >= 0" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_estimate_report_keys_do_not_depend_on_solver_mode(tmp_path, fmt):
    # n=2, p=2, L=4 has 16 unknowns: T=18 gives 14 rows (min_norm), T=20 gives 16 (full_rank)
    reports = {}
    for T in (18, 20):
        path = tmp_path / f"cfg{T}.json"
        path.write_text(json.dumps({"n": 2, "p": 2, "L_values": [4], "T_values": [T],
                                    "output_path": str(tmp_path / f"T{T}")}))
        assert main(["estimate", "--config", str(path), "--format", fmt]) == 0
        text = (tmp_path / f"T{T}.estimate.report.{fmt}").read_text()
        if fmt == "json":
            reports[T] = json.loads(text)
        else:
            rows = dict(line.split(",", 1) for line in text.splitlines()[1:])
            # bound_terms is flattened to bound_terms.<name> rows, or one None row
            reports[T] = {key.split(".")[0]: value for key, value in rows.items()}
    wide, square = reports[18], reports[20]
    assert (wide["solver_mode"], square["solver_mode"]) == ("min_norm", "full_rank")
    assert set(wide) == set(square) == {"lambda_min", "residual_norm", "solver_mode",
                                        "err_fro", "err_ellipsoidal", "bound_value",
                                        "bound_fro", "bound_terms"}
    none = None if fmt == "json" else "None"
    assert wide["bound_value"] == wide["bound_fro"] == wide["bound_terms"] == none
    assert none not in (square["bound_value"], square["bound_fro"], square["bound_terms"])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_cli_validate_report_is_strict_json(config_file, tmp_path):
    code = main(["validate", "--config", str(config_file),
                 "--out", str(tmp_path / "val.json")])
    report = json.loads((tmp_path / "val.json").read_text(), parse_constant=_reject_constant)
    assert all(c["passed"] == (c["margin"] >= 0.0) for c in report["checks"])
    assert report["passed"] == all(c["passed"] for c in report["checks"])
    assert code == (0 if report["passed"] else 4)


def test_min_norm_coverage_trials_count_as_misses(tmp_path, capsys):
    # T - L = 3 rows for p^2 L = 2 unknowns: validate accepts the cell, and
    # about a third of its sphere-input designs are still rank-deficient
    cfg = _small_config(L_values=(2,), T_values=(5,), input=InputConfig(kind="bounded_sphere"))
    trials = bound_coverage_trials(cfg, 40, 7)
    assert sum(math.isnan(t.bound_value) for t in trials) == 14
    for t in trials:
        if math.isnan(t.bound_value):
            assert t.covered is False and (t.pred_mse, t.pred_bound, t.pred_ok) == (None, None, None)
        else:
            assert t.covered == (t.err_ellipsoidal <= t.bound_value) and t.pred_ok is not None
    # the CLI's 100 coverage trials: 27 min-norm misses fail the gate, though
    # no bounded trial's error comes near its bound
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 1, "rho_values": [0.6], "L_values": [2],
                                "T_values": [5], "trials": 1, "base_seed": 7,
                                "noise": {"family": "gaussian", "sigma_w": 0.25, "sigma_z": 0.5},
                                "input": {"kind": "bounded_sphere"}}))
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "val.json")]) == 4
    report = json.loads((tmp_path / "val.json").read_text(), parse_constant=_reject_constant)
    coverage, prediction = report["checks"][2:]
    assert coverage["details"]["frequency"] == 0.73 and not coverage["passed"]
    assert coverage["details"]["err_bound_ratio_max"] < 0.36
    assert prediction["details"]["trials_checked"] == 73 and prediction["passed"]


@pytest.mark.parametrize("T", [12, 20])
def test_cli_validate_rank_deficient_coverage_exits_2(tmp_path, capsys, T):
    # p = 2, L = 4: 16 unknowns, so T - L rows (8, or a square 16) leave
    # every coverage fit min-norm
    path = tmp_path / "cfg.json"
    path.write_text('{"n": 2, "p": 2, "L_values": [4], "T_values": [%d]}' % T)
    out = tmp_path / "val.json"
    assert main(["validate", "--config", str(path), "--out", str(out)]) == 2
    assert f"{T - 4} rows for 16 unknowns" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate"], ["estimate"], ["hokalman"], ["pe-check"],
                                     ["exp", "figure1"], ["exp", "double-descent"],
                                     ["validate"]], ids=" ".join)
def test_cli_unallocatable_horizon_exits_3(tmp_path, capsys, command):
    # a horizon beyond the address space is refused before any page is
    # touched; a horizon or state dimension past numpy's dimension limit
    # fails the same way
    path = tmp_path / "cfg.json"
    for size in ({"T_values": [10**17]}, {"T_values": [10**30]}, {"n": 10**30}):
        if command == ["hokalman"] and "n" in size:  # an L below 2n is a config error
            size = {**size, "L_values": [2 * 10**30], "T_values": [2 * 10**30 + 60]}
        path.write_text(json.dumps({"n": 2, "p": 1, "L_values": [4], "T_values": [60],
                                    "trials": 1, **size}))
        assert main([*command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3, size
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1


@pytest.mark.parametrize("size", [{"p": 10**30}, {"L_values": [10**30], "T_values": [10**30 + 60]}],
                         ids=["p", "L"])
@pytest.mark.parametrize("command", ["simulate", "pe-campaign"])
def test_cli_input_width_past_dimension_limit_exits_3(tmp_path, capsys, size, command):
    # p and L size the input draws of both commands (pe-campaign draws
    # L + its required sample count)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 1, "L_values": [4], "T_values": [60],
                                "trials": 1, **size}))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["exp", "figure1"], ["exp", "double-descent"],
                                     ["pe-campaign"]], ids=" ".join)
def test_cli_trial_count_past_dimension_limit_exits_3(tmp_path, capsys, command):
    # a sweep cell stacks (T+1, trials, n) states and a campaign runs trials
    # one by one; both refuse such a count before any trial runs
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 1, "L_values": [4], "T_values": [60],
                                "trials": 10**30}))
    assert main([*command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


class _GeneratorBuilt(Exception):
    pass


def _refuse_generators(*key):
    raise _GeneratorBuilt(key)


@pytest.mark.parametrize("command", [["exp", "figure1"], ["exp", "double-descent"],
                                     ["pe-campaign"]], ids=" ".join)
def test_cli_trial_count_past_the_ceiling_exits_3_before_any_generator(
        tmp_path, capsys, monkeypatch, command):
    # MAX_TRIALS + 1 is far below numpy's size limit; it is refused before
    # the first generator is built, so no trial runs
    monkeypatch.setattr(experiments, "derive_rng", _refuse_generators)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "p": 1, "L_values": [4], "T_values": [60],
                                "trials": MAX_TRIALS + 1}))
    assert main([*command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == f"out of memory: cannot run {MAX_TRIALS + 1} trials, past the ceiling " \
                  f"of {MAX_TRIALS}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("run", [run_sweep, run_pe_campaign])
def test_trial_count_at_the_ceiling_is_run(monkeypatch, run):
    # the ceiling itself passes the check: the first generator is built
    monkeypatch.setattr(experiments, "derive_rng", _refuse_generators)
    config = ExperimentConfig(n=2, p=1, L_values=(4,), T_values=(60,), trials=MAX_TRIALS)
    with pytest.raises(_GeneratorBuilt):
        run(config)


# a noise or input object is a valid base, or none, with at most one key set
# to a value of a fixed vocabulary: right and wrong types, NaN, +-inf and an
# integer past the float range
_VOCABULARY = ("gaussian", "exponential", "bounded_sphere", True, 0, 0.5, 2, -1.0,
               None, "x", [], math.nan, math.inf, -math.inf, 10**400)


def _config_object(bases: tuple, keys: tuple):
    return st.builds(lambda base, key: {**base, **key}, st.sampled_from(bases),
                     st.dictionaries(st.sampled_from(keys), st.sampled_from(_VOCABULARY),
                                     max_size=1))


@settings(max_examples=60)
@given(n=st.integers(0, 3), p=st.integers(0, 3), L=st.integers(0, 4), T=st.integers(0, 40),
       noise=_config_object(({}, {"family": "gaussian", "sigma_w": 0.25, "sigma_z": 0.5},
                             {"family": "exponential", "rate": 2.0}),
                            ("family", "rate", "centered", "sigma_w", "sigma_z")),
       inputs=_config_object(({}, {"kind": "bounded_sphere", "beta": 1.5}), ("kind", "beta")))
@example(n=2, p=1, L=2, T=20, noise={"rate": 10**400}, inputs={})
@example(n=2, p=1, L=2, T=20, noise={}, inputs={"kind": "bounded_sphere", "beta": 10**400})
def test_cli_config_contract(n, p, L, T, noise, inputs):
    # every subcommand keeps to the 0/2/3/4 exit codes, prints exactly one
    # stderr line on exit 2 or 3 and none on exit 0 or 4, and a config that
    # does not parse exits 2 on every one of them.  validate runs only where
    # it stops at parse or at its T - L > p^2 L check, before its Monte Carlo.
    # hypothesis refuses the function-scoped capsys, so stderr is redirected
    text = json.dumps({"n": n, "p": p, "L_values": [L], "T_values": [T], "trials": 1,
                       "noise": noise, "input": inputs})
    try:
        ExperimentConfig.from_json(text)
        parsed = True
    except ParameterError:
        parsed = False
    commands = [c for c in _SUBCOMMANDS
                if c != ["validate"] or not parsed or T - L <= p * p * L]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(text)
        codes, errs = [], []
        for c in commands:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                codes.append(main([*c, "--config", str(path), "--out", str(Path(tmp) / "o")]))
            errs.append(err.getvalue())
    assert set(codes) <= {0, 2, 3, 4}
    for code, err in zip(codes, errs):
        if code in (2, 3):
            assert err.count("\n") == 1 and err.endswith("\n"), (code, err)
        else:
            assert err == "", (code, err)
    if not parsed:
        assert codes == [2] * len(commands)
