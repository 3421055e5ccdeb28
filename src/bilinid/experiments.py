"""Seeded experiment harness behind the CLI.

Sweeps over (rho, L, T) grids reproduce the synthetic estimation-error
studies; companion campaigns measure excitation frequencies, validate the
closed-form noise autocovariance against Monte Carlo, check the Gaussian
fourth-moment constant, and measure bound coverage.  Every trial draws
its randomness from a stream derived from (base_seed, cell indices,
trial), so results are bitwise independent of scheduling and thread
count.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from . import estimator, excitation
from .exceptions import ParameterError
from .sysmodel import (
    InputDesign,
    NoiseSpec,
    StateSpaceModel,
    _as_columns,
    derive_rng,
    markov_params,
    random_model,
    simulate,
)

TRIAL_COLUMNS = ("rho", "L", "T", "trial", "err_G_fro2", "lambda_min",
                 "solver_mode", "bound_value", "runtime_ms")
AGG_COLUMNS = ("rho", "L", "T", "mean_err", "std_err")


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")


def _require_finite(name: str, value) -> None:
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ParameterError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class NoiseConfig:
    family: str = "exponential"
    rate: float = 1.0
    centered: bool = True
    sigma_w: float = 1.0   # gaussian: isotropic process-noise variance
    sigma_z: float = 1.0   # gaussian: measurement-noise std

    def __post_init__(self):
        for name in ("rate", "sigma_w", "sigma_z"):
            _require_finite(f"noise.{name}", getattr(self, name))
        if not isinstance(self.centered, bool):
            raise ParameterError(f"noise.centered must be true or false, got {self.centered!r}")

    def to_spec(self, n: int) -> NoiseSpec:
        if self.family == "exponential":
            return NoiseSpec.exponential(n, rate=self.rate, centered=self.centered)
        if self.family == "gaussian":
            return NoiseSpec.gaussian(self.sigma_w * np.eye(n), self.sigma_z)
        raise ParameterError(f"unknown noise family {self.family!r}")


@dataclass(frozen=True)
class InputConfig:
    kind: str = "gaussian_isotropic"
    beta: float | None = None

    def __post_init__(self):
        if self.beta is not None:
            _require_finite("input.beta", self.beta)

    def to_design(self, p: int) -> InputDesign:
        return InputDesign(kind=self.kind, p=p, beta=self.beta)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 5
    p: int = 3
    rho_values: tuple = (0.5,)
    L_values: tuple = (12,)
    T_values: tuple = tuple(range(100, 1601, 50))
    trials: int = 20
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    input: InputConfig = field(default_factory=InputConfig)
    delta: float = 0.1
    base_seed: int = 0
    output_path: str = "results"

    def __post_init__(self):
        for name in ("n", "p", "trials", "base_seed"):
            _require_int(name, getattr(self, name))
        _require_finite("delta", self.delta)
        if not isinstance(self.output_path, str):
            raise ParameterError(f"output_path must be a string, got {self.output_path!r}")
        for name, check in (("rho_values", _require_finite), ("L_values", _require_int),
                            ("T_values", _require_int)):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple, np.ndarray)):
                raise ParameterError(f"{name} must be a list, got {values!r}")
            for v in values:
                check(name, v)
        object.__setattr__(self, "rho_values", tuple(float(r) for r in self.rho_values))
        object.__setattr__(self, "L_values", tuple(int(L) for L in self.L_values))
        object.__setattr__(self, "T_values", tuple(int(T) for T in self.T_values))
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if self.base_seed < 0:
            raise ParameterError("base_seed must be >= 0")
        if not all(0.0 < r < 1.0 for r in self.rho_values):
            raise ParameterError("every rho must lie in (0, 1)")
        if not self.rho_values or not self.L_values or not self.T_values:
            raise ParameterError("rho_values, L_values and T_values must be nonempty")
        if min(self.T_values) <= max(self.L_values):
            raise ParameterError("every T must exceed every L")
        if not (0.0 < self.delta < 1.0):
            raise ParameterError("delta must lie in (0, 1)")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["rho_values"] = list(self.rho_values)
        d["L_values"] = list(self.L_values)
        d["T_values"] = list(self.T_values)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ParameterError(f"config must be a JSON object, got {type(d).__name__}")
        d = dict(d)
        try:
            if "noise" in d:
                d["noise"] = NoiseConfig(**d["noise"])
            if "input" in d:
                d["input"] = InputConfig(**d["input"])
            return cls(**d)
        except TypeError as exc:
            raise ParameterError(f"invalid config: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config is not valid JSON: {exc}") from exc


@dataclass(frozen=True)
class TrialRecord:
    rho: float
    L: int
    T: int
    trial: int
    err_G_fro2: float
    lambda_min: float
    solver_mode: str
    bound_value: float
    runtime_ms: int

    def row(self) -> list:
        return list(astuple(self))


def _run_trial(config: ExperimentConfig, rho: float, L: int, T: int,
               key: tuple[int, ...]) -> TrialRecord:
    start = time.perf_counter()
    rng = derive_rng(config.base_seed, *key)
    model = random_model(config.n, config.p, rho, rng)
    noise = config.noise.to_spec(config.n)
    design_in = config.input.to_design(config.p)
    traj = simulate(model, noise, design_in, T, rng)
    design = estimator.build_design(traj, L)
    report = estimator.estimate_markov(design)
    G = markov_params(model, L).G
    err2 = float(np.linalg.norm(report.G_hat - G)) ** 2
    bound_value = float("nan")
    if report.solver_mode == "full_rank":
        beta = estimator.empirical_input_bound(traj.u)
        terms = estimator.bound_terms(model, noise, L, beta, config.delta)
        bound_value = estimator.bound_data_dependent(model, terms, L, T).value
    runtime_ms = int(round(1000.0 * (time.perf_counter() - start)))
    return TrialRecord(rho=rho, L=L, T=T, trial=key[-1], err_G_fro2=err2,
                       lambda_min=report.lambda_min, solver_mode=report.solver_mode,
                       bound_value=bound_value, runtime_ms=runtime_ms)


def _map_trials(tasks, fn, threads: int):
    if threads <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, tasks))


@dataclass(frozen=True)
class SweepResult:
    records: list
    aggregate: list  # rows [rho, L, T, mean_err, std_err]
    threshold_T: dict | None = None  # L -> interpolation threshold, when relevant


def _aggregate(records: list) -> list:
    cells: dict[tuple, list] = {}
    order: list[tuple] = []
    for r in records:
        cell = (r.rho, r.L, r.T)
        if cell not in cells:
            cells[cell] = []
            order.append(cell)
        cells[cell].append(r.err_G_fro2)
    rows = []
    for cell in order:
        errs = np.asarray(cells[cell])
        std = float(np.std(errs, ddof=1)) if errs.size > 1 else 0.0
        rows.append([cell[0], cell[1], cell[2], float(np.mean(errs)), std])
    return rows


def run_sweep(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Estimation-error sweep over the config grid, one model per trial."""
    tasks = []
    for i_r, rho in enumerate(config.rho_values):
        for i_L, L in enumerate(config.L_values):
            for i_T, T in enumerate(config.T_values):
                for trial in range(config.trials):
                    tasks.append((rho, L, T, (i_r, i_L, i_T, trial)))
    records = _map_trials(tasks, lambda t: _run_trial(config, *t), threads)
    return SweepResult(records=records, aggregate=_aggregate(records))


def run_figure1(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Memory trade-off sweep: squared Frobenius error over (rho, L, T)."""
    return run_sweep(config, threads=threads)


def run_double_descent(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Sweep across the interpolation threshold T = L + p^2 L.

    The minimum-norm solver keeps rank-deficient cells running; the
    aggregate marks the threshold cells.
    """
    result = run_sweep(config, threads=threads)
    thresholds = {L: L + config.p**2 * L for L in config.L_values}
    return SweepResult(records=result.records, aggregate=result.aggregate,
                       threshold_T=thresholds)


def format_trial_csv(result: SweepResult) -> str:
    lines = [",".join(TRIAL_COLUMNS)]
    for rec in result.records:
        lines.append(",".join(_cell_str(v) for v in rec.row()))
    return "\n".join(lines) + "\n"


def format_aggregate_csv(result: SweepResult) -> str:
    cols = list(AGG_COLUMNS)
    mark = result.threshold_T is not None
    if mark:
        cols.append("at_threshold")
    lines = [",".join(cols)]
    for row in result.aggregate:
        cells = [_cell_str(v) for v in row]
        if mark:
            cells.append(str(int(row[2] == result.threshold_T.get(row[1]))))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cell_str(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def run_pe_campaign(config: ExperimentConfig, m4: float = excitation.GAUSSIAN_M4,
                    T: int | None = None, threads: int = 1) -> dict:
    """Excitation frequency at the fourth-moment-regime required length.

    Draws `trials` independent input sequences of length T (defaulting to
    the required length) and reports how often lambda_min of the Gram
    matrix clears the quarter-sample threshold.
    """
    p, L, delta = config.p, config.L_values[0], config.delta
    design_in = config.input.to_design(p)
    required = excitation.pe_required_samples(
        p, L, delta, excitation.REGIME_FOURTH_MOMENT, m4=m4)
    if T is None:
        T = L + required
    if T <= L:
        raise ParameterError("campaign length T must exceed L")

    def one(trial: int) -> bool:
        rng = derive_rng(config.base_seed, 0, trial)
        u = design_in.sample_sequence(T, rng)
        design = estimator.design_from_inputs(u, L)
        lam = excitation.min_eig_design(design)
        return bool(lam >= (T - L) / 4.0)

    outcomes = _map_trials(range(config.trials), one, threads)
    return {
        "frequency": float(np.mean(outcomes)),
        "required_T": L + required,
        "required_samples": required,
        "campaign_T": T,
        "threshold": (T - L) / 4.0,
        "trials": config.trials,
        "p": p,
        "L": L,
        "delta": delta,
        "m4": m4,
    }


def batch_simulate_outputs(model: StateSpaceModel, noise: NoiseSpec, u: np.ndarray,
                           times: list[int], n_draws: int, seed) -> np.ndarray:
    """Outputs y_t at the requested times for n_draws independent noise
    realizations sharing the fixed input sequence u_0..u_T.

    Vectorized over draws; one process/measurement noise draw per step in
    a fixed order, so the result is fully determined by the seed.
    """
    u = _as_columns(u)
    times = sorted(set(int(t) for t in times))
    t_max = times[-1]
    if t_max > u.shape[0] - 1:
        raise ParameterError("requested time beyond the input sequence")
    rng = np.random.default_rng(seed)
    A, B, C = model.A, model.B, model.C
    x = np.zeros((n_draws, model.n))
    out = np.zeros((n_draws, len(times)))
    col = {t: k for k, t in enumerate(times)}
    for t in range(t_max + 1):
        z_t = noise.sample_z(n_draws, rng)
        if t in col:
            out[:, col[t]] = (x @ (C.T @ u[t])) + z_t
        w_t = noise.sample_w(n_draws, rng)
        x = x @ A.T + B @ u[t] + w_t
    return out


def _final_output_moments(model: StateSpaceModel, noise: NoiseSpec,
                          u: np.ndarray) -> tuple[float, float]:
    """Mean and variance of y_t at t = len(u) - 1 under Gaussian noise.

    The mean is u_t' C s_t with s_0 = 0, s_{i+1} = A s_i + B u_i.  The noise
    part u_t' C sum_{i<t} A^{t-1-i} w_i + z_t is Gaussian with variance
    sigma_z^2 + sum_{k<t} v_k' Sigma_w v_k, where v_0 = C' u_t and
    v_{k+1} = A' v_k.
    """
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


def final_output_draws(model: StateSpaceModel, noise: NoiseSpec, u: np.ndarray,
                       n_draws: int, seed) -> tuple[np.ndarray, tuple[float, float] | None]:
    """n_draws independent samples of y_t at t = len(u) - 1, given the fixed
    input sequence u_0..u_t, and the (mean, variance) they were drawn from.

    Under Gaussian noise y_t is itself Gaussian, so one standard normal per
    draw reproduces the law of the step-by-step rollout exactly (see
    _final_output_moments).  Every other family delegates to
    batch_simulate_outputs and returns None for the moments.
    """
    u = _as_columns(u)
    if noise.family != "gaussian":
        return batch_simulate_outputs(model, noise, u, [u.shape[0] - 1], n_draws, seed)[:, 0], None
    mean, var = _final_output_moments(model, noise, u)
    draws = mean + math.sqrt(var) * np.random.default_rng(seed).standard_normal(n_draws)
    return draws, (mean, var)


def zeta_covariance_mc(model: StateSpaceModel, noise: NoiseSpec, u: np.ndarray,
                       taus: list[int], n_draws: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo covariance of the effective noise at lags tau in taus.

    The effective noise differs from the raw output by an input-determined
    constant, so Cov(zeta_{tau+1}, zeta_{tau'+1}) equals the sample
    covariance of the outputs y_{tau+1}, y_{tau'+1} across noise draws.
    Returns (covariance matrix, standard-error matrix).
    """
    times = [t + 1 for t in taus]
    ys = batch_simulate_outputs(model, noise, u, times, n_draws, seed)
    centered = ys - ys.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (n_draws - 1)
    k = len(times)
    se = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            prods = centered[:, i] * centered[:, j]
            se[i, j] = float(np.std(prods, ddof=1) / np.sqrt(n_draws))
    return cov, se


@dataclass(frozen=True)
class CoverageTrial:
    err_ellipsoidal: float
    bound_value: float
    covered: bool
    pred_mse: float | None
    pred_bound: float | None
    pred_ok: bool | None
    pred_mse_exact: float | None = None  # Gaussian noise: exact E(y_hat - y)^2


def bound_coverage_trials(n: int, p: int, rho: float, L: int, T: int,
                          noise_cfg: NoiseConfig, input_cfg: InputConfig,
                          delta: float, trials: int, base_seed: int,
                          prediction_resamples: int = 0,
                          threads: int = 1) -> list[CoverageTrial]:
    """Per-trial comparison of realized errors against their bounds.

    Each trial draws a fresh model and trajectory, fits G, and checks the
    design-weighted error against the high-probability bound.  With
    prediction_resamples > 0 the one-step prediction is also checked: the
    fitted G is frozen, the noise is redrawn that many times with the
    inputs held fixed, and the empirical mean squared prediction error is
    compared against its bound.  The resamples come from
    final_output_draws; under Gaussian noise they are exact in law (one
    Gaussian draw each rather than a T-step rollout), and the exact MSE
    is reported beside the Monte Carlo one as pred_mse_exact.
    """
    noise = noise_cfg.to_spec(n)
    design_in = input_cfg.to_design(p)

    def one(trial: int) -> CoverageTrial:
        rng = derive_rng(base_seed, 1, trial)
        model = random_model(n, p, rho, rng)
        u_next = design_in.sample_sequence(0, rng)[0]
        traj = simulate(model, noise, design_in, T, rng)
        design = estimator.build_design(traj, L)
        report = estimator.estimate_markov(design)
        G = markov_params(model, L).G
        beta = max(estimator.empirical_input_bound(traj.u), float(np.linalg.norm(u_next)))
        terms = estimator.bound_terms(model, noise, L, beta, delta)
        err = estimator.ellipsoidal_error(report.G_hat, G, design)
        bound = estimator.bound_data_dependent(model, terms, L, T).value
        pred_mse = pred_bound = pred_ok = pred_mse_exact = None
        if prediction_resamples > 0 and report.solver_mode == "full_rank":
            pred_bound = estimator.prediction_bound(
                design, report, G, model, noise, traj, u_next)
            hist = traj.u[T - L + 1: T + 1]
            y_hat = estimator.predict(report.G_hat, hist, u_next)
            u_ext = np.vstack([traj.u, u_next[None, :]])
            ys, moments = final_output_draws(model, noise, u_ext, prediction_resamples,
                                             derive_rng(base_seed, 2, trial))
            pred_mse = float(np.mean((y_hat - ys) ** 2))
            pred_ok = bool(pred_mse <= pred_bound)
            if moments is not None:
                mean, var = moments
                pred_mse_exact = (y_hat - mean) ** 2 + var
        return CoverageTrial(err_ellipsoidal=err, bound_value=bound,
                             covered=bool(err <= bound), pred_mse=pred_mse,
                             pred_bound=pred_bound, pred_ok=pred_ok,
                             pred_mse_exact=pred_mse_exact)

    return _map_trials(range(trials), one, threads)


def _check(name: str, margin: float, details: dict) -> dict:
    """One validation check: it passes exactly when its margin is >= 0
    (a NaN margin fails)."""
    return {"name": name, "passed": bool(margin >= 0.0), "margin": margin,
            "details": details}


def run_validation(config: ExperimentConfig,
                   autocov_draws: int = 200_000,
                   m4_directions: int = 50,
                   m4_samples: int = 100_000,
                   coverage_trials: int = 100,
                   prediction_resamples: int = 10_000,
                   threads: int = 1) -> dict:
    """Oracle-equivalence suite: closed forms against Monte Carlo.

    Checks, each passing exactly when its measured margin is >= 0:
    - the closed-form effective-noise autocovariance against the sample
      covariance over noise redraws (3 standard errors per lag pair);
    - the Gaussian fourth-moment constant (every direction estimate at
      most 9 + 3 SE);
    - coverage of the high-probability error bound (frequency at least
      1 - delta - 0.05);
    - the one-step prediction bound (holds in every sampled trial).

    The coverage cell (first L and T of the config) must give the fit
    more rows than unknowns, T - L > p^2 L; otherwise every fit is
    minimum-norm, no bound applies, and ParameterError is raised before
    anything is drawn.
    """
    delta = config.delta
    L, T_cov = config.L_values[0], config.T_values[0]
    rows, unknowns = T_cov - L, config.p ** 2 * L
    if rows <= unknowns:
        raise ParameterError(f"validate needs T - L > p^2 L for the coverage fit; "
                             f"T={T_cov}, L={L} give {rows} rows for {unknowns} unknowns")
    # the coverage cell runs first, so a cell that cannot be allocated fails
    # before the other checks' Monte Carlo; every check has its own stream
    cov_trials = bound_coverage_trials(
        config.n, config.p, config.rho_values[0], L, T_cov,
        config.noise, config.input, delta, coverage_trials, config.base_seed + 30,
        prediction_resamples=prediction_resamples, threads=threads)

    # --- autocovariance vs Monte Carlo --------------------------------
    T = L + 5
    rng = derive_rng(config.base_seed, 10)
    model = random_model(config.n, config.p, config.rho_values[0], rng)
    noise = config.noise.to_spec(config.n)
    u = config.input.to_design(config.p).sample_sequence(T, rng)
    taus = list(range(L, T))
    cov_mc, se_mc = zeta_covariance_mc(model, noise, u, taus, autocov_draws,
                                       derive_rng(config.base_seed, 11))
    closed = np.array([estimator.effective_noise_autocov(model, noise, u, tau, tau_p, L)
                       for tau, tau_p in itertools.product(taus, taus)]).reshape(cov_mc.shape)
    worst = float(np.max(np.abs(closed - cov_mc) / np.maximum(se_mc, 1e-300)))
    checks = [_check("autocovariance_mc", 3.0 - worst,
                     {"worst_se_ratio": worst, "draws": autocov_draws,
                      "pairs": len(taus) ** 2})]

    # --- Gaussian fourth-moment constant ------------------------------
    m4_L = 3
    est = excitation.estimate_m4(InputDesign.gaussian(config.p), m4_L,
                                 m4_directions, m4_samples,
                                 seed=config.base_seed + 20)
    slack = excitation.GAUSSIAN_M4 + 3.0 * est.std_errors - est.estimates
    checks.append(_check("m4_gaussian", float(np.min(slack)),
                         {"max_estimate": float(est.value), "directions": int(len(est.estimates)),
                          "samples": m4_samples, "L": m4_L, "p": config.p}))

    # --- bound coverage and prediction bound --------------------------
    frequency = float(np.mean([t.covered for t in cov_trials]))
    target = (1.0 - delta) - 0.05
    checks.append(_check("bound_coverage", frequency - target,
                         {"frequency": frequency, "target": target, "trials": coverage_trials}))
    pred_checked = [t for t in cov_trials if t.pred_ok is not None]
    # np.min, not min: a NaN gap must give a NaN margin wherever it falls
    gaps = [t.pred_bound - t.pred_mse for t in pred_checked]
    exact = [t.pred_bound - t.pred_mse_exact for t in pred_checked
             if t.pred_mse_exact is not None]
    checks.append(_check("prediction_bound", float(np.min(gaps)) if gaps else float("nan"),
                         {"trials_checked": len(pred_checked),
                          "resamples": prediction_resamples,
                          "min_exact_margin": min(exact, default=None)}))

    return {
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "delta": delta,
        "base_seed": config.base_seed,
    }
