import json

import numpy as np
import pytest

from bilinid import NoiseSpec, ParameterError, StateSpaceModel, simulate
from bilinid.cli import main
from bilinid.experiments import (
    AGG_COLUMNS,
    TRIAL_COLUMNS,
    ExperimentConfig,
    InputConfig,
    NoiseConfig,
    batch_simulate_outputs,
    final_output_draws,
    format_aggregate_csv,
    format_trial_csv,
    run_double_descent,
    run_figure1,
    run_pe_campaign,
    run_validation,
)


def _small_config(**overrides):
    base = dict(n=2, p=1, rho_values=(0.6,), L_values=(4,), T_values=(120,),
                trials=4, noise=NoiseConfig(family="gaussian", sigma_w=0.25, sigma_z=0.5),
                input=InputConfig(), delta=0.1, base_seed=3, output_path="out")
    base.update(overrides)
    return ExperimentConfig(**base)


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
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


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


# --------------------------------------------------------------------- sweeps

def test_figure1_schema_and_determinism():
    cfg = _small_config(trials=2)
    a = run_figure1(cfg)
    b = run_figure1(cfg, threads=4)
    assert TRIAL_COLUMNS == ("rho", "L", "T", "trial", "err_G_fro2", "lambda_min",
                             "solver_mode", "bound_value", "runtime_ms")
    csv_a = format_trial_csv(a)
    assert csv_a.splitlines()[0] == ",".join(TRIAL_COLUMNS)
    # threaded and serial runs agree on everything but wall-clock
    assert _strip_runtime(csv_a) == _strip_runtime(format_trial_csv(b))
    agg = format_aggregate_csv(a)
    assert agg.splitlines()[0] == ",".join(AGG_COLUMNS)
    assert len(agg.strip().splitlines()) == 2  # header + single cell


def test_figure1_zero_noise_near_nilpotent_cell_is_exact():
    cfg = _small_config(rho_values=(1e-12,), trials=3,
                        noise=NoiseConfig(family="gaussian", sigma_w=0.0, sigma_z=0.0))
    res = run_figure1(cfg)
    assert res.aggregate[0][3] <= 1e-12


def test_figure1_repeat_run_identical_up_to_runtime():
    cfg = _small_config(trials=1)
    a = format_trial_csv(run_figure1(cfg))
    b = format_trial_csv(run_figure1(cfg))
    assert _strip_runtime(a) == _strip_runtime(b)


def test_double_descent_threshold_annotation():
    cfg30 = _small_config(n=5, p=3, L_values=(30,), T_values=(250, 300, 350),
                          trials=2, noise=NoiseConfig(family="exponential"))
    res30 = run_double_descent(cfg30)
    assert res30.threshold_T == {30: 300}
    agg = format_aggregate_csv(res30)
    header = agg.splitlines()[0].split(",")
    assert header == list(AGG_COLUMNS) + ["at_threshold"]
    marks = {int(line.split(",")[2]): int(line.split(",")[-1])
             for line in agg.strip().splitlines()[1:]}
    assert marks == {250: 0, 300: 1, 350: 0}

    cfg50 = _small_config(n=5, p=3, L_values=(50,), T_values=(500,), trials=1,
                          noise=NoiseConfig(family="exponential"))
    assert run_double_descent(cfg50).threshold_T == {50: 500}


def test_double_descent_interpolation_cells_use_min_norm():
    # strictly below the threshold the design is rank deficient
    cfg = _small_config(n=5, p=3, L_values=(30,), T_values=(250,), trials=2,
                        noise=NoiseConfig(family="exponential"))
    res = run_double_descent(cfg)
    for rec in res.records:
        assert rec.solver_mode == "min_norm"
        assert np.isnan(rec.bound_value)


def test_square_design_interpolates():
    # at T - L = p^2 L the least-squares fit passes through every sample
    from bilinid import InputDesign, build_design, estimate_markov, random_model

    L, p = 30, 3
    T = L + p * p * L
    m = random_model(5, p, 0.6, seed=1)
    noise = NoiseSpec.gaussian(np.eye(5), 1.0)
    traj = simulate(m, noise, InputDesign.gaussian(p), T, seed=2)
    report = estimate_markov(build_design(traj, L))
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


# ------------------------------------------------------------------ validation

def test_validation_passes_on_small_config():
    cfg = _small_config(L_values=(3,), T_values=(150,), trials=20)
    rep = run_validation(cfg, autocov_draws=50_000, m4_directions=10,
                         m4_samples=20_000, coverage_trials=25,
                         prediction_resamples=2_000)
    assert rep["passed"], rep
    assert {c["name"] for c in rep["checks"]} == {
        "autocovariance_mc", "m4_gaussian", "bound_coverage", "prediction_bound"}
    pred = rep["checks"][-1]
    # Gaussian noise: the exact prediction MSE is reported beside the MC one
    assert pred["details"]["min_exact_margin"] > 0.0


def test_validation_exact_margin_null_for_exponential_noise():
    cfg = _small_config(L_values=(3,), T_values=(150,), noise=NoiseConfig())
    rep = run_validation(cfg, autocov_draws=2_000, m4_directions=2,
                         m4_samples=2_000, coverage_trials=3,
                         prediction_resamples=200)
    pred = rep["checks"][-1]
    assert pred["name"] == "prediction_bound"
    assert pred["details"]["min_exact_margin"] is None


def test_validation_measurement_noise_only_subcase():
    # sigma_w = 0: the closed-form autocovariance is exactly sigma_z^2 on the
    # diagonal and zero off it, so the Monte Carlo check passes comfortably
    cfg = _small_config(L_values=(3,), T_values=(150,), trials=10,
                        noise=NoiseConfig(family="gaussian", sigma_w=0.0, sigma_z=1.0))
    rep = run_validation(cfg, autocov_draws=50_000, m4_directions=5,
                         m4_samples=20_000, coverage_trials=10,
                         prediction_resamples=2_000)
    auto = next(c for c in rep["checks"] if c["name"] == "autocovariance_mc")
    assert auto["passed"]


def test_validation_loose_delta_coverage():
    cfg = _small_config(L_values=(3,), T_values=(150,), trials=10, delta=0.5)
    rep = run_validation(cfg, autocov_draws=20_000, m4_directions=5,
                         m4_samples=10_000, coverage_trials=20,
                         prediction_resamples=1_000)
    cov = next(c for c in rep["checks"] if c["name"] == "bound_coverage")
    assert cov["details"]["frequency"] >= 0.45


def test_validation_check_passes_exactly_when_margin_nonnegative(monkeypatch):
    # a zero fourth-moment constant makes m4_gaussian fail, so both verdicts occur
    from bilinid import excitation
    monkeypatch.setattr(excitation, "GAUSSIAN_M4", 0.0)
    cfg = _small_config(L_values=(3,), T_values=(150,))
    rep = run_validation(cfg, autocov_draws=2_000, m4_directions=2,
                         m4_samples=2_000, coverage_trials=3,
                         prediction_resamples=200)
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


# ------------------------------------------------------ final-output sampler

def _sampler_model():
    return StateSpaceModel(A=[[0.5, 0.3, 0.0], [0.0, -0.4, 0.2], [0.1, 0.0, 0.6]],
                           B=[[1.0, 0.0], [0.5, -1.0], [0.0, 0.8]],
                           C=[[0.7, -0.2, 0.3], [0.1, 0.9, -0.5]])


def test_final_output_draws_noiseless_matches_simulator():
    m = _sampler_model()
    u = np.random.default_rng(0).standard_normal((13, 2))
    traj = simulate(m, NoiseSpec.none(3), u, T=12, seed=1)
    ys, _ = final_output_draws(m, NoiseSpec.none(3), u, 5, seed=2)
    assert ys.shape == (5,)
    assert np.allclose(ys, traj.y[12], rtol=0.0, atol=1e-12)


def test_final_output_draws_gaussian_moments_match_step_simulator():
    # Non-isotropic process noise: the one-draw sampler and the step-by-step
    # rollout agree in mean and variance within 4 standard errors.
    m = _sampler_model()
    root = np.array([[0.6, 0.0, 0.0], [0.3, 0.4, 0.0], [-0.2, 0.1, 0.5]])
    noise = NoiseSpec.gaussian(root @ root.T, 0.3)
    u = np.random.default_rng(1).standard_normal((9, 2))
    draws = 400_000
    fast, _ = final_output_draws(m, noise, u, draws, seed=3)
    step = batch_simulate_outputs(m, noise, u, [8], draws, seed=4)[:, 0]
    se_mean = np.sqrt((fast.var() + step.var()) / draws)
    assert abs(fast.mean() - step.mean()) <= 4.0 * se_mean
    sq = [(x - x.mean()) ** 2 for x in (fast, step)]
    se_var = np.sqrt((sq[0].var() + sq[1].var()) / draws)
    assert abs(fast.var() - step.var()) <= 4.0 * se_var


def test_final_output_draws_scalar_system_by_hand():
    # y_3 = u_3 c x_3 + z_3 with x_3 = sum_i a^(2-i) (b u_i + w_i): mean
    # u_3 c b (a^2 u_0 + a u_1 + u_2), variance sz^2 + sw (u_3 c)^2 (1 + a^2 + a^4).
    a, b, c, sw, sz = 0.9, 1.5, -0.8, 0.4, 0.2
    m = StateSpaceModel(A=[[a]], B=[[b]], C=[[c]])
    u = np.array([0.7, -1.2, 0.4, 1.1])
    mean = u[3] * c * b * (a**2 * u[0] + a * u[1] + u[2])
    var = sz**2 + sw * (u[3] * c) ** 2 * (1 + a**2 + a**4)
    draws = 400_000
    ys, _ = final_output_draws(m, NoiseSpec.gaussian([[sw]], sz), u, draws, seed=7)
    assert abs(ys.mean() - mean) <= 4.0 * np.sqrt(var / draws)
    assert abs(ys.var() - var) <= 4.0 * var * np.sqrt(2.0 / draws)


def test_final_output_draws_exponential_delegates_to_step_simulator():
    m = _sampler_model()
    noise = NoiseSpec.exponential(3, rate=2.0)
    u = np.random.default_rng(5).standard_normal((7, 2))
    ys, _ = final_output_draws(m, noise, u, 1_000, seed=6)
    ref = batch_simulate_outputs(m, noise, u, [6], 1_000, seed=6)[:, 0]
    assert np.array_equal(ys, ref)


def test_final_output_draws_returns_the_moments_it_sampled_from():
    a, b, c, sw, sz = 0.9, 1.5, -0.8, 0.4, 0.2
    m = StateSpaceModel(A=[[a]], B=[[b]], C=[[c]])
    u = np.array([0.7, -1.2, 0.4, 1.1])
    ys, (mean, var) = final_output_draws(m, NoiseSpec.gaussian([[sw]], sz), u, 10, seed=7)
    assert mean == pytest.approx(u[3] * c * b * (a**2 * u[0] + a * u[1] + u[2]), rel=1e-12)
    assert var == pytest.approx(sz**2 + sw * (u[3] * c) ** 2 * (1 + a**2 + a**4), rel=1e-12)
    assert np.array_equal(ys, mean + np.sqrt(var) * np.random.default_rng(7).standard_normal(10))
    u2 = np.random.default_rng(9).standard_normal((4, 2))
    _, moments = final_output_draws(_sampler_model(), NoiseSpec.exponential(3), u2, 10, seed=8)
    assert moments is None


# ------------------------------------------------------------------------- CLI

@pytest.fixture()
def config_file(tmp_path):
    cfg = dict(n=2, p=1, rho_values=[0.6], L_values=[4], T_values=[120], trials=3,
               noise=dict(family="gaussian", sigma_w=0.25, sigma_z=0.5),
               input=dict(kind="gaussian_isotropic"), delta=0.1, base_seed=3,
               output_path=str(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


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
    assert {"n", "p", "L", "sigma_min_L", "robustness_ok"} == set(meta)


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
    # finite but extreme values fail inside the numerics: exit 3
    ('{%s, "input": {"kind": "bounded_sphere", "beta": 1e300}}' % _SMALL, 3),
    ('{%s, "noise": {"rate": 1e300}}' % _SMALL, 3),
])
def test_cli_malformed_config_exit_codes(tmp_path, text, code):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "est")]) == code


@pytest.mark.parametrize("command", ["pe-campaign", "pe-check"])
def test_cli_overflowing_design_exits_3(tmp_path, capsys, command):
    # the inputs are finite, but their Kronecker products (1e400) are not
    path = tmp_path / "cfg.json"
    path.write_text('{%s, "trials": 2, "input": {"kind": "bounded_sphere", "beta": 1e200}}'
                    % _SMALL)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    if command == "pe-campaign":
        assert "Kronecker design rows overflow" in capsys.readouterr().err


def test_cli_seed_override_changes_results(config_file, tmp_path):
    assert main(["exp", "figure1", "--config", str(config_file),
                 "--out", str(tmp_path / "s1"), "--seed", "1"]) == 0
    assert main(["exp", "figure1", "--config", str(config_file),
                 "--out", str(tmp_path / "s2"), "--seed", "2"]) == 0
    assert (tmp_path / "s1.csv").read_text() != (tmp_path / "s2.csv").read_text()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_cli_validate_report_is_strict_json(config_file, tmp_path):
    code = main(["validate", "--config", str(config_file),
                 "--out", str(tmp_path / "val.json")])
    report = json.loads((tmp_path / "val.json").read_text(), parse_constant=_reject_constant)
    assert all(c["passed"] == (c["margin"] >= 0.0) for c in report["checks"])
    assert report["passed"] == all(c["passed"] for c in report["checks"])
    assert code == (0 if report["passed"] else 4)


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
    # a horizon beyond the address space is refused before any page is touched
    path = tmp_path / "cfg.json"
    path.write_text('{"n": 2, "p": 1, "L_values": [4], "T_values": [%d], "trials": 1}' % 10**17)
    assert main([*command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1
