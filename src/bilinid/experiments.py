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

import contextvars
import json
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import estimator, excitation
from .exceptions import ParameterError
from .sysmodel import (
    InputDesign,
    NoiseSpec,
    StateSpaceModel,
    _as_columns,
    _require_allocatable,
    _stack,
    derive_rng,
    random_model,
    simulate,
    simulate_batch,
)

AGG_COLUMNS = ("rho", "L", "T", "mean_err", "std_err")
# noise draws zeta_covariance_mc simulates per batch_simulate_outputs call
MC_BLOCK_DRAWS = 4096
# Most trials a sweep or a campaign runs.  A sweep cell holds a generator
# (about 1 KB), a model and a trajectory per trial at once, so a count far
# below numpy's size limit can still exhaust memory, or run for days.
MAX_TRIALS = 100_000


def _require_trials(trials: int) -> None:
    """Raise MemoryError, as sysmodel._require_allocatable does, when trials
    is past MAX_TRIALS."""
    if trials > MAX_TRIALS:
        raise MemoryError(f"cannot run {trials} trials, past the ceiling of {MAX_TRIALS}")


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")


def _require_finite(name: str, value) -> None:
    try:
        finite = (not isinstance(value, bool) and isinstance(value, numbers.Real)
                  and math.isfinite(value))
    except OverflowError:  # an integer past the float range
        finite = False
    if not finite:
        raise ParameterError(f"{name} must be a finite number, got {value!r}")


# the keys each noise family reads, and the value a key that is not given takes
NOISE_DEFAULTS = {
    "exponential": {"rate": 1.0, "centered": True},
    "gaussian": {"sigma_w": 1.0, "sigma_z": 1.0},
}


@dataclass(frozen=True)
class NoiseConfig:
    """Noise law of a config.  A key left out (None) takes its family's
    default from NOISE_DEFAULTS; a key the family does not read is refused.
    to_spec checks the law, and ExperimentConfig calls it when it is built."""

    family: str = "exponential"
    rate: float | None = None      # exponential: entry rate; sigma_z = 1/rate
    centered: bool | None = None   # exponential: subtract the mean
    sigma_w: float | None = None   # gaussian: isotropic process-noise variance
    sigma_z: float | None = None   # gaussian: measurement-noise std

    def to_spec(self, n: int) -> NoiseSpec:
        if self.family not in NOISE_DEFAULTS:
            raise ParameterError(f"unknown noise family {self.family!r}")
        values = dict(NOISE_DEFAULTS[self.family])
        for name in ("rate", "centered", "sigma_w", "sigma_z"):
            value = getattr(self, name)
            if value is None:
                continue
            if name not in values:
                raise ParameterError(f"noise family {self.family!r} takes no {name}")
            if name != "centered":
                _require_finite(f"noise.{name}", value)
            elif not isinstance(value, bool):
                raise ParameterError(f"noise.centered must be true or false, got {value!r}")
            values[name] = value
        _require_allocatable(n, n)
        if self.family == "exponential":
            return NoiseSpec.exponential(n, **values)
        return NoiseSpec.gaussian(values["sigma_w"] * np.eye(n), values["sigma_z"])


@dataclass(frozen=True)
class InputConfig:
    """Input law of a config: an InputDesign kind and its beta.  to_design
    checks the law, and ExperimentConfig calls it when it is built."""

    kind: str = "gaussian_isotropic"
    beta: float | None = None

    def to_design(self, p: int) -> InputDesign:
        if self.beta is not None:
            _require_finite("input.beta", self.beta)
        return InputDesign(kind=self.kind, p=p, beta=self.beta)


@dataclass(frozen=True)
class ExperimentConfig:
    """A JSON config: dimensions, the (rho, L, T) grid, trials, noise, input,
    delta, base seed and output path, checked when it is built."""

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
        if min(self.n, self.p, *self.L_values) < 1:
            raise ParameterError("n, p and every L must be >= 1")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if self.base_seed < 0:
            raise ParameterError("base_seed must be >= 0")
        if not all(0.0 < r < 1.0 for r in self.rho_values):
            raise ParameterError("every rho must lie in (0, 1)")
        for name in ("rho_values", "L_values", "T_values"):
            values = getattr(self, name)
            if not values:
                raise ParameterError(f"{name} must be nonempty")
            if len(set(values)) < len(values):
                raise ParameterError(f"{name} must not repeat a value, got {list(values)}")
        if min(self.T_values) <= max(self.L_values):
            raise ParameterError("every T must exceed every L")
        if not (0.0 < self.delta < 1.0):
            raise ParameterError("delta must lie in (0, 1)")
        # the laws' own checks run when the config is parsed, also for
        # commands that never draw noise or inputs
        self.noise.to_spec(1)
        self.input.to_design(1)

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

    @classmethod
    def from_json(cls, text: str | bytes) -> "ExperimentConfig":
        # ValueError covers bad syntax, bytes that are not UTF-8 and integers
        # past the int-string digit limit; RecursionError covers deep nesting
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ParameterError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


class TrialRecord(NamedTuple):
    """One row of the sweep CSV, its fields the columns in order."""

    rho: float
    L: int
    T: int
    trial: int
    err_G_fro2: float
    lambda_min: float
    solver_mode: str
    bound_value: float
    runtime_ms: int


TRIAL_COLUMNS = TrialRecord._fields


def _trial_record(config: ExperimentConfig, noise: NoiseSpec, model: StateSpaceModel,
                  traj, rho: float, L: int, trial: int, shared_s: float,
                  terms: estimator.BoundTerms | None) -> TrialRecord:
    """Fit one trial with its bound constants terms; runtime_ms is its own
    fit time plus shared_s, its share of the cell's model draws, batched
    simulation and batched bound constants."""
    start = time.perf_counter()
    fit = estimator.fit(model, noise, traj, L, config.delta, terms=terms)
    runtime_ms = int(round(1000.0 * (shared_s + time.perf_counter() - start)))
    return TrialRecord(rho=rho, L=L, T=traj.T, trial=trial,
                       err_G_fro2=fit.err_fro ** 2, lambda_min=fit.report.lambda_min,
                       solver_mode=fit.report.solver_mode,
                       bound_value=fit.bound.value if fit.bound else math.nan,
                       runtime_ms=runtime_ms)


def _draw_trials(n: int, p: int, noise: NoiseSpec, design_in: InputDesign, rho: float, T: int,
                 seed: int, key: tuple[int, ...] = (), trials: int = 1,
                 diagnostics: bool = False) -> tuple[list, list, list]:
    """(rngs, models, trajs): trial j < trials draws its model, then its trajectory from
    derive_rng(seed, *key, j), and each rng is left where its trajectory left it.  One
    trial is simulated by simulate, more by one simulate_batch call, bitwise alike."""
    rngs = [derive_rng(seed, *key, trial) for trial in range(trials)]
    models = [random_model(n, p, rho, rng) for rng in rngs]
    if trials == 1:
        return rngs, models, [simulate(models[0], noise, design_in, T, rngs[0], diagnostics)]
    return rngs, models, simulate_batch(models, noise, design_in, T, rngs, diagnostics)


def _run_cell(config: ExperimentConfig, noise: NoiseSpec, design_in: InputDesign,
              rho: float, L: int, T: int, key: tuple[int, ...]) -> tuple[list, list]:
    """Every trial of one (rho, L, T) cell, drawn by _draw_trials on the
    stream (base_seed, *key), and the cell's aggregate row [rho, L, T,
    mean_err, std_err] of their err_G_fro2.  The bound constants (beta each
    trajectory's largest input norm, fit's default) come from one batched
    bound_terms call, or none where T - L < p^2 L makes every fit min-norm;
    the trials are fit one by one in _trial_record, so no fit outlives its trial."""
    start = time.perf_counter()
    _, models, trajs = _draw_trials(config.n, config.p, noise, design_in, rho, T,
                                    config.base_seed, key, config.trials)
    if T - L < config.p ** 2 * L:
        terms = [None] * config.trials
    else:
        terms = estimator.bound_terms(
            models, noise, L, [estimator.empirical_input_bound(traj.u) for traj in trajs],
            config.delta)
    shared_s = (time.perf_counter() - start) / config.trials
    records = [_trial_record(config, noise, model, traj, rho, L, trial, shared_s, terms[trial])
               for trial, (model, traj) in enumerate(zip(models, trajs))]
    # mean and std taken at the power of two 2^e of the largest error, so
    # that their sum and squares stay in the float range; the scaling is
    # exact for every error above 2^(e - 1022), a normal float once scaled
    errs = np.array([r.err_G_fro2 for r in records])
    e = int(np.frexp(errs.max())[1])
    scaled = np.ldexp(errs, -e)
    std = float(np.ldexp(np.std(scaled, ddof=1), e)) if errs.size > 1 else 0.0
    return records, [rho, L, T, float(np.ldexp(np.mean(scaled), e)), std]


def _map(tasks, fn, threads: int):
    """[fn(t) for t in tasks], over threads workers when threads > 1.  Each
    task runs in a copy of the caller's context, so it keeps the caller's
    np.errstate, which numpy holds in a context variable."""
    if threads <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay its import
    with ThreadPoolExecutor(max_workers=threads) as ex:
        futures = [ex.submit(contextvars.copy_context().run, fn, t) for t in tasks]
        return [f.result() for f in futures]


def run_sweep(config: ExperimentConfig, threads: int = 1) -> tuple[list, list]:
    """Estimation-error sweep over the config grid, one model per trial:
    (records, aggregate), every cell's TrialRecords and its aggregate row
    [rho, L, T, mean_err, std_err].  threads > 1 runs whole cells in
    parallel.  A cell's simulation holds a (T+1, trials, n) stack of
    states, so a grid whose largest one is past numpy's size limit, or
    whose trials are past MAX_TRIALS, raises MemoryError before any
    generator is built."""
    _require_trials(config.trials)
    _require_allocatable(max(config.T_values) + 1, config.trials, config.n)
    cells = [(rho, L, T, (i_r, i_L, i_T))
             for i_r, rho in enumerate(config.rho_values)
             for i_L, L in enumerate(config.L_values)
             for i_T, T in enumerate(config.T_values)]
    noise = config.noise.to_spec(config.n)
    design_in = config.input.to_design(config.p)
    per_cell = _map(cells, lambda c: _run_cell(config, noise, design_in, *c), threads)
    return [rec for records, _ in per_cell for rec in records], [row for _, row in per_cell]


def run_pe_campaign(config: ExperimentConfig, T: int | None = None,
                    threads: int = 1) -> dict:
    """Excitation frequency at the fourth-moment-regime required length.

    Draws `trials` independent input sequences of length T (defaulting to
    the required length, which uses the Gaussian fourth-moment constant
    excitation.GAUSSIAN_M4) and reports how often a trial's design
    passes the excitation certificate, lambda_min >= (T - L)/4 (the rule
    of excitation.pe_certificate).  Trial j draws its inputs block by
    block from derive_rng(base_seed, 0, j) into its design
    (estimator.design_from_inputs given the input design), so it holds
    O(BLOCK_ROWS p^2 L) floats whatever T is.  Each design is built to the
    target (T - L)/4 and checked against it after every block of
    estimator.BLOCK_ROWS (4096) rows: a trial whose running Gram clears it
    stops drawing within 4096 rows of its first certified prefix, leaving
    its generator after the rows it built, and its shorter design's
    lambda_min decides the trial.  Later rows could only raise
    lambda_min, so every verdict, and with it the report, is that of the
    full-length designs, which a failing trial builds whole.  The
    reported threshold is the full-length (T - L)/4.  A `trials` past
    MAX_TRIALS raises MemoryError before any trial runs.
    """
    p, L, delta = config.p, config.L_values[0], config.delta
    m4 = excitation.GAUSSIAN_M4
    design_in = config.input.to_design(p)
    required = excitation.pe_required_samples(
        p, L, delta, excitation.REGIME_FOURTH_MOMENT, m4=m4)
    if T is None:
        T = L + required
    if T <= L:
        raise ParameterError("campaign length T must exceed L")
    _require_trials(config.trials)
    threshold = (T - L) / 4.0

    def one(trial: int) -> bool:
        rng = derive_rng(config.base_seed, 0, trial)
        design = estimator.design_from_inputs(design_in, L, T=T, rng=rng,
                                              lambda_min_target=threshold)
        return excitation.min_eig_design(design) >= threshold

    passed = _map(range(config.trials), one, threads)
    return {
        "frequency": float(np.mean(passed)),
        "required_T": L + required,
        "required_samples": required,
        "campaign_T": T,
        "threshold": threshold,
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

    Vectorized over draws, and only the noise that is read is drawn, in
    a fixed order, so the result is fully determined by the seed: at each
    step t, the measurement noise z_t if t is a requested time, and then
    the process noise w_t if t < max(times).  Every step draws its noise
    into the same buffers and steps the states in place, instead of
    allocating fresh arrays.  The states are held state-major,
    (n, n_draws), where A x and the added input drive run several times
    faster than on (n_draws, n) rows and give the same bits;
    an output is read from a (n_draws, n) copy of the states, rows, since
    the product with the state-major array can differ in the last bit.
    No times, or a negative one, raise ParameterError before any draw.
    """
    u = _as_columns(u)
    times = sorted(set(int(t) for t in times))
    if not times or times[0] < 0:
        raise ParameterError("output times must be nonempty and >= 0")
    t_max = times[-1]
    if t_max > u.shape[0] - 1:
        raise ParameterError("requested time beyond the input sequence")
    rng = np.random.default_rng(seed)
    A, B, C = model.A, model.B, model.C
    x = np.zeros((model.n, n_draws))
    x_next = np.empty_like(x)
    rows = np.empty((n_draws, model.n))  # an output step's states, then each step's w_t
    z_t = np.empty(n_draws)
    out = np.zeros((n_draws, len(times)))
    col = {t: k for k, t in enumerate(times)}
    for t in range(t_max + 1):
        if t in col:
            noise.sample_z(n_draws, rng, out=z_t)
            np.stack(x, axis=1, out=rows)
            out[:, col[t]] = (rows @ (C.T @ u[t])) + z_t
        if t == t_max:
            break
        w_t = noise.sample_w(n_draws, rng, out=rows)
        np.matmul(A, x, out=x_next)
        x_next += (B @ u[t])[:, None]
        x_next += w_t.T
        x, x_next = x_next, x
    return out


def _final_output_moments(models: list[StateSpaceModel], noise: NoiseSpec,
                          u: np.ndarray) -> tuple[list[float], list[float]]:
    """Mean and variance of y_t at t = u.shape[1] - 1 for every model of a
    batch, models[j] given its fixed inputs u[j] = u_0..u_t ((k, t+1, p);
    the models share n and p, sysmodel._stack), for every noise family.

    Every entry of w and z has mean mu (sigma_z for uncentered exponential
    noise, else 0), so E x_t = s_t with s_0 = 0, s_{i+1} = A s_i + B u_i + mu 1,
    and the mean is u_t' C s_t + mu.  The noise part
    u_t' C sum_{i<t} A^{t-1-i} w_i + z_t has variance
    sigma_z^2 + sum_{k<t} v_k' Sigma_w v_k, where v_0 = C' u_t and
    v_{k+1} = A' v_k, summed in the order k = 0..t-1.  Both recursions step
    all k models together, one stacked product per factor and step, so
    every model's moments are bitwise the ones it gets in a batch of one.
    """
    A, B, C = _stack(models, "ABC")
    t = u.shape[1] - 1
    mu = 0.0 if noise.centered else noise.sigma_z
    s = np.zeros((len(models), A.shape[1], 1))
    As, Bu = np.empty_like(s), np.empty_like(s)
    for u_i in u[:, :t].transpose(1, 0, 2)[..., None]:
        np.matmul(B, u_i, out=Bu)
        Bu += mu
        np.matmul(A, s, out=As)
        np.add(As, Bu, out=s)
    var = np.full(len(models), noise.sigma_z ** 2)
    v = np.matmul(C.transpose(0, 2, 1), u[:, t, :, None])[..., 0]
    for _ in range(t):
        var += ((v[:, None, :] @ noise.sigma_w) @ v[:, :, None])[:, 0, 0]
        v = np.matmul(A.transpose(0, 2, 1), v[:, :, None])[..., 0]
    means = [float(u_j[t] @ C_j @ s_j[:, 0]) + mu for u_j, C_j, s_j in zip(u, C, s)]
    return means, [max(float(var_j), 0.0) for var_j in var]


def zeta_covariance_mc(model: StateSpaceModel, noise: NoiseSpec, u: np.ndarray,
                       taus: list[int], n_draws: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo covariance of the effective noise at lags tau in taus.

    The effective noise differs from the raw output by an input-determined
    constant, so Cov(zeta_{tau+1}, zeta_{tau'+1}) equals the sample
    covariance of the outputs y_{tau+1}, y_{tau'+1} across noise draws.
    Returns (covariance matrix, standard-error matrix): the two-pass sample
    covariance and std(c_i c_j, ddof=1)/sqrt(N) of the centered outputs c.

    The draws are simulated MC_BLOCK_DRAWS at a time from one generator,
    one batch_simulate_outputs call per block (so the noise is drawn in
    its order, block after block), each block's outputs are dropped
    before the next block is simulated, and only shifted co-moment sums
    are kept (Pebay 2008): with
    d = (y - K) 2^-e, K the first block's column means and 2^e the least
    power of two above the first block's largest |y - K|, S1 = sum d_i,
    S2 = sum d_i d_j, S3 = sum d_i^2 d_j and S4 = sum d_i^2 d_j^2, all
    four from one Gram of [d, d*d] per block.  With delta = S1/N and c = d - delta,
    sum c_i c_j = S2 - N delta_i delta_j and
    sum (c_i c_j)^2 = S4 - 2 delta_j S3_ij - 2 delta_i S3_ji
    + delta_j^2 S2_ii + delta_i^2 S2_jj + 4 delta_i delta_j S2_ij
    - 3 N delta_i^2 delta_j^2.  The scaling by 2^-e is exact, so cov and
    se are 2^2e times those of the scaled sums, bitwise those of the
    unscaled ones wherever these stay in the float range, and S4 stays
    finite for outputs whose fourth powers are not.
    """
    if n_draws < 2:
        raise ParameterError("n_draws must be >= 2 for a sample covariance")
    times = [t + 1 for t in taus]
    k = len(times)
    rng = np.random.default_rng(seed)
    buf = np.empty((min(MC_BLOCK_DRAWS, n_draws), 2 * k))
    s1 = np.zeros(k)
    moments = np.zeros((2 * k, 2 * k))
    for start in range(0, n_draws, MC_BLOCK_DRAWS):
        y = batch_simulate_outputs(model, noise, u, times,
                                   min(MC_BLOCK_DRAWS, n_draws - start), rng)
        if start == 0:
            shift = y.mean(axis=0)
        E = buf[:y.shape[0]]
        np.subtract(y, shift, out=E[:, :k])
        if start == 0:
            e = int(np.frexp(np.abs(E[:, :k]).max())[1])
        np.ldexp(E[:, :k], -e, out=E[:, :k])
        np.square(E[:, :k], out=E[:, k:])
        s1 += E[:, :k].sum(axis=0)
        moments += E.T @ E
        del y
    s2, s3, s4 = moments[:k, :k], moments[k:, :k], moments[k:, k:]
    delta = s1 / n_draws
    comoment = s2 - n_draws * np.outer(delta, delta)
    cov = comoment / (n_draws - 1)
    mean_prod = comoment / n_draws
    cross = s3 * delta
    sq = np.outer(np.diag(s2), delta ** 2)
    q = (s4 - 2.0 * (cross + cross.T) + (sq + sq.T) + 4.0 * np.outer(delta, delta) * s2
         - 3.0 * n_draws * np.outer(delta ** 2, delta ** 2))
    se = np.sqrt(np.maximum((q - n_draws * mean_prod ** 2) / (n_draws - 1), 0.0) / n_draws)
    return np.ldexp(cov, 2 * e), np.ldexp(se, 2 * e)


class CoverageTrial(NamedTuple):
    err_ellipsoidal: float
    bound_value: float
    covered: bool
    pred_mse: float | None
    pred_bound: float | None
    pred_ok: bool | None


def bound_coverage_trials(config: ExperimentConfig, trials: int, base_seed: int,
                          threads: int = 1) -> list[CoverageTrial]:
    """Per-trial comparison of realized errors against their bounds.

    The cell is the config's first (rho, L, T) with its n, p, noise, input
    and delta, as in run_pe_campaign; the config's own trials and base_seed
    are not read.  The trials come from _draw_trials on the stream
    (base_seed, 1), each then drawing u_next, its u_{T+1}.  A min-norm fit,
    possible only in an ill-conditioned cell just above the T - L > p^2 L
    that validate requires, has no bound of its design-weighted error:
    bound_value is NaN and covered is False.  A fit with a bound also has
    its one-step prediction checked: with the fitted G frozen and the
    inputs held fixed, the mean squared prediction error over the noise,
    E(y_hat - y)^2 = (y_hat - E y)^2 + Var y, is compared against its
    bound; it depends on the noise through its first two moments only, so
    _final_output_moments gives it exactly for every noise family.
    Every trial's state norm (estimator.prediction_state_norms), output
    moments and bound constants (estimator.bound_terms, beta the largest
    norm of u_0..u_{T+1}) read only models and inputs, so each comes from
    one batched call before any fit; then the trials are mapped over
    threads, each fit taking its trial's constants, dropped once checked.
    """
    L, T = config.L_values[0], config.T_values[0]
    noise, design_in = config.noise.to_spec(config.n), config.input.to_design(config.p)
    rngs, models, trajs = _draw_trials(config.n, config.p, noise, design_in,
                                       config.rho_values[0], T, base_seed, (1,), trials)
    # (k, T+2, p): each trial's inputs u_0..u_T and then u_next
    us = np.stack([np.vstack([traj.u, design_in.sample_iid(1, rng)])
                   for traj, rng in zip(trajs, rngs)])
    # the state term is that of x_{T+1-L}, driven by u_0..u_{T-L}
    state_norms = estimator.prediction_state_norms(models, noise, us[:, :T + 1 - L])
    means, variances = _final_output_moments(models, noise, us)
    terms = estimator.bound_terms(models, noise, L,
                                  [estimator.empirical_input_bound(u) for u in us], config.delta)

    def one(j: int) -> CoverageTrial:
        model, u_next, traj = models[j], us[j, T + 1], trajs[j]
        fit = estimator.fit(model, noise, traj, L, config.delta, terms=terms[j])
        err = fit.err_ellipsoidal
        pred_bound = estimator.prediction_bound(fit, noise, traj, u_next, state_norms[j])
        if pred_bound is None:
            return CoverageTrial(err_ellipsoidal=err, bound_value=math.nan, covered=False,
                                 pred_mse=None, pred_bound=None, pred_ok=None)
        y_hat = float(u_next @ fit.report.G_hat @ traj.u[T - L + 1:T + 1][::-1].reshape(-1))
        pred_mse = (y_hat - means[j]) ** 2 + variances[j]
        return CoverageTrial(
            err_ellipsoidal=err, bound_value=fit.bound.value, covered=bool(err <= fit.bound.value),
            pred_mse=pred_mse, pred_bound=pred_bound, pred_ok=bool(pred_mse <= pred_bound))

    return _map(range(trials), one, threads)


def _autocov_false_failure_rate(pairs: int) -> float:
    """Nominal false-failure rate of the autocovariance check over `pairs`
    distinct lag pairs, each failing beyond 3 SE (two-sided, rate
    erfc(3/sqrt(2)) per pair).  An independence approximation: the pairs'
    estimates share draws and are correlated."""
    return 1.0 - (1.0 - math.erfc(3.0 / math.sqrt(2.0))) ** pairs


def _coverage_false_failure_rate(trials: int, delta: float, target: float) -> float:
    """Probability that the coverage check fails when each of `trials`
    independent trials misses its bound with probability delta: the
    Bin(trials, delta) mass of the miss counts at which the check's own
    comparison, frequency - target >= 0, fails.  Each trial is covered
    with probability at least 1 - delta, so this is an upper bound on the
    check's false-failure rate."""
    log_miss, log_hit = math.log(delta), math.log1p(-delta)
    rate = 0.0
    for misses in range(trials + 1):
        if not ((trials - misses) / trials - target >= 0.0):
            rate += math.exp(math.lgamma(trials + 1) - math.lgamma(misses + 1)
                             - math.lgamma(trials - misses + 1)
                             + misses * log_miss + (trials - misses) * log_hit)
    return rate


def _m4_false_failure_rate(directions: np.ndarray, p: int, L: int,
                           n_samples: int) -> tuple[float, float]:
    """(nominal false-failure rate, largest exact constant) of the
    fourth-moment check over unit directions, for Gaussian inputs.

    With W = v.reshape(p L, p) and M = W^T W (tr M = 1), a sample of
    direction v is (u^T M u)^2 g^4 (excitation.estimate_m4).  The
    quadratic form Q = u^T M u has cumulants 2^(r-1) (r-1)! t_r,
    t_r = tr M^r, so its exact constant is m4 = 3 E Q^2 = 3 (t1^2 + 2 t2)
    = 3 + 6 ||M||_F^2, and a sample's second moment is 105 E Q^4 with
    E Q^4 = t1^4 + 12 t1^2 t2 + 12 t2^2 + 32 t1 t3 + 48 t4.  A direction
    fails when its mean exceeds 9 + 3 SE; taking the mean as normal with
    its exact SE = sqrt((105 E Q^4 - m4^2)/n_samples), that has
    probability Phi(-3 - (9 - m4)/SE), and the directions draw independent
    streams, so the family-wise rate is 1 - prod(1 - rate_k).
    """
    W = directions.reshape(-1, p * L, p)
    lam = np.linalg.eigvalsh(W.transpose(0, 2, 1) @ W)
    t1, t2, t3, t4 = (np.sum(lam**r, axis=1) for r in (1, 2, 3, 4))
    m4 = 3.0 * (t1**2 + 2.0 * t2)
    q4 = t1**4 + 12.0 * t1**2 * t2 + 12.0 * t2**2 + 32.0 * t1 * t3 + 48.0 * t4
    se = np.sqrt((105.0 * q4 - m4**2) / n_samples)
    z = 3.0 + (excitation.GAUSSIAN_M4 - m4) / se
    rates = [0.5 * math.erfc(float(z_k) / math.sqrt(2.0)) for z_k in z]
    return 1.0 - math.prod(1.0 - r for r in rates), float(np.max(m4))


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
                   threads: int = 1) -> dict:
    """Oracle-equivalence suite: closed forms against Monte Carlo, and the
    error bounds against realized and exact errors.

    Checks, each passing exactly when its measured margin is >= 0:
    - the closed-form effective-noise autocovariance against the sample
      covariance over noise redraws (3 standard errors per lag pair);
    - the Gaussian fourth-moment constant (every direction estimate at
      most 9 + 3 SE);
    - coverage of the high-probability error bound (frequency at least
      1 - delta - 0.05);
    - the one-step prediction bound against the exact mean squared
      prediction error of every trial with a bound.

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
    cov_trials = bound_coverage_trials(config, coverage_trials, config.base_seed + 30,
                                       threads=threads)

    # --- autocovariance vs Monte Carlo --------------------------------
    T = L + 5
    rng = derive_rng(config.base_seed, 10)
    model = random_model(config.n, config.p, config.rho_values[0], rng)
    noise = config.noise.to_spec(config.n)
    u = config.input.to_design(config.p).sample_sequence(T, rng)
    taus = list(range(L, T))
    cov_mc, se_mc = zeta_covariance_mc(model, noise, u, taus, autocov_draws,
                                       derive_rng(config.base_seed, 11))
    closed = estimator.effective_noise_autocov(model, noise, u, taus, L)
    worst = float(np.max(np.abs(closed - cov_mc) / np.maximum(se_mc, 1e-300)))
    distinct = len(taus) * (len(taus) + 1) // 2
    checks = [_check("autocovariance_mc", 3.0 - worst,
                     {"worst_se_ratio": worst, "draws": autocov_draws,
                      "pairs": len(taus) ** 2,
                      "nominal_false_failure_rate": _autocov_false_failure_rate(distinct),
                      "nominal_rate_basis": "independence approximation"})]

    # --- Gaussian fourth-moment constant ------------------------------
    m4_L = 3
    estimates, std_errors, directions = excitation.estimate_m4(
        config.p, m4_L, m4_directions, m4_samples, seed=config.base_seed + 20)
    slack = excitation.GAUSSIAN_M4 + 3.0 * std_errors - estimates
    m4_rate, m4_exact_max = _m4_false_failure_rate(directions, config.p, m4_L, m4_samples)
    checks.append(_check("m4_gaussian", float(np.min(slack)),
                         {"max_estimate": float(np.max(estimates)), "directions": len(estimates),
                          "samples": m4_samples, "L": m4_L, "p": config.p,
                          "m4_exact_max": m4_exact_max,
                          "nominal_false_failure_rate": m4_rate,
                          "nominal_rate_basis": "normal approximation"}))

    # --- bound coverage and prediction bound --------------------------
    frequency = float(np.mean([t.covered for t in cov_trials]))
    target = (1.0 - delta) - 0.05
    pred_checked = [t for t in cov_trials if t.pred_ok is not None]
    # every trial with a bound has its prediction checked.  The median is
    # taken by hand: np.median imports numpy.ma and np.sort pages in its
    # kernels, 1.1 and 0.4 MB resident.  None keeps the report strict JSON
    # when no trial has a bound.
    ratios = sorted(t.err_ellipsoidal / t.bound_value for t in pred_checked)
    k = len(ratios)
    median = 0.5 * (ratios[(k - 1) // 2] + ratios[k // 2]) if k else None
    checks.append(_check("bound_coverage", frequency - target,
                         {"frequency": frequency, "target": target, "trials": coverage_trials,
                          "err_bound_ratio_median": median,
                          "err_bound_ratio_max": ratios[-1] if k else None,
                          "nominal_false_failure_rate": _coverage_false_failure_rate(
                              coverage_trials, delta, target),
                          "nominal_rate_basis": "upper bound"}))
    # np.min, not min: a NaN gap must give a NaN margin wherever it falls
    gaps = [t.pred_bound - t.pred_mse for t in pred_checked]
    checks.append(_check("prediction_bound", float(np.min(gaps)) if gaps else float("nan"),
                         {"trials_checked": len(pred_checked)}))

    return {
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "delta": delta,
        "base_seed": config.base_seed,
    }
