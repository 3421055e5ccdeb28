"""The benchmark's workloads: generated CLI configs and their output checks.

Every config's base_seed is derived from the workload seed, so the program
only ever receives generated configs.  Each workload is a list of jobs,
one CLI call each; a pass runs every job once.

Checks come in two kinds.  Correctness gates hold for a correct program at
every seed; a miss marks the operation failed.  Statistical predicates
(the criterion-3 crossing and the validation suite's verdict) miss at some
seeds for a correct program, so they are reported with their margins and
do not fail the run; see perfbench/README.md for the measured miss rates.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Seed used while writing a change, and the held-out seed that confirms its claim.
DEV_SEED = 1
HELDOUT_SEED = 1009

WORKLOADS = ("fit_sweep", "dd_sweep", "pe_campaign", "mc_validate")
HOKALMAN_CALLS = 3
PE_REQUIRED_T = 187_457  # L + fourth-moment-regime sample requirement at p=2, L=4, delta=0.1
REF_RTOL = 1e-6          # tightest reference-fit agreement of err_G_fro2
SOLVER_SLACK = 100       # allowed multiple of the conditioning error estimate


# Spans a workload's traced run must record: the layers it is chosen to
# measure (README.md, layer map).  A span missing from the trace fails the run.
TRACED_SPANS = {
    "fit_sweep": ("sysmodel.simulate", "sysmodel.transient_factor",
                  "sysmodel.controllability_gramian", "estimator.estimate_markov",
                  "estimator.bound_terms", "hokalman.build_hankel", "hokalman.ho_kalman",
                  "experiments.run_sweep", "serialize.save_matrix", "serialize.save_json",
                  "cli.main"),
    "dd_sweep": ("estimator.estimate_markov", "experiments.run_sweep", "cli.main"),
    "pe_campaign": ("sysmodel.InputDesign.sample_sequence", "estimator.design_from_inputs",
                    "excitation.min_eig_design", "cli.main"),
    "mc_validate": ("sysmodel.NoiseSpec.sample_w", "sysmodel.NoiseSpec.sample_z",
                    "estimator.prediction_bound", "estimator.effective_noise_autocov",
                    "excitation.estimate_m4", "experiments.batch_simulate_outputs", "cli.main"),
}


def config_seed(seed: int, workload: str, index: int) -> int:
    """base_seed of the index-th config of a workload, derived from the run seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class Verdict:
    """Operations attempted and failed, predicates and informational values."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.predicates: dict[str, dict] = {}
        self.info: dict[str, float] = {}

    def op(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))

    def predicate(self, name: str, margin: float, gate: bool) -> None:
        """A predicate holds when its margin is >= 0.  A gating predicate
        that misses is a failed operation."""
        passed = bool(margin >= 0.0)
        self.predicates[name] = {"passed": passed, "margin": margin, "gate": gate}
        if gate:
            self.op(f"predicate {name}", [] if passed else [f"missed, margin {margin:.4g}"])


@dataclass
class Job:
    name: str                  # file stem of its config and outputs
    argv: list[str]            # CLI words before --config
    config: dict
    check: Callable            # (job, out_base, exit_code, verdict, program) -> None
    expect: dict = field(default_factory=dict)
    exit_codes: tuple = (0,)   # exit codes after which the outputs are checked


def _sweep_config(n, p, rho, L, T, trials, noise, base_seed) -> dict:
    return {"n": n, "p": p, "rho_values": list(rho), "L_values": list(L),
            "T_values": list(T), "trials": trials, "noise": noise,
            "input": {"kind": "gaussian_isotropic"}, "delta": 0.1,
            "base_seed": base_seed}


def build(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """Jobs of one workload.  tiny=True shrinks every size for the self-test."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")

    def s(i):
        return config_seed(seed, workload, i)

    if workload == "fit_sweep":
        # Criterion-3 grid, then Ho-Kalman on the long-memory cell.
        noise = {"family": "exponential", "rate": 30.0, "centered": True}
        if tiny:
            grid = dict(n=3, p=2, rho=(0.5, 0.9), L=(4, 8), T=(200,), trials=2)
        else:
            grid = dict(n=5, p=3, rho=(0.5, 0.99), L=(12, 50), T=(1600,), trials=5)
        jobs = [Job("figure1", ["exp", "figure1"],
                    _sweep_config(**grid, noise=noise, base_seed=s(0)),
                    _check_sweep, {"crossing": not tiny})]
        for k in range(HOKALMAN_CALLS):
            cfg = _sweep_config(grid["n"], grid["p"], grid["rho"][1:], grid["L"][1:],
                                grid["T"], 1, noise, s(1 + k))
            jobs.append(Job(f"hokalman-{k}", ["hokalman"], cfg, _check_hokalman))
        return jobs
    if workload == "dd_sweep":
        # Criterion-2 grid: across the interpolation threshold T = L + p^2 L.
        noise = {"family": "exponential", "rate": 1.0, "centered": True}
        if tiny:
            cfg = _sweep_config(3, 2, (0.5,), (4,), (12, 30, 40), 2, noise, s(0))
        else:
            cfg = _sweep_config(5, 3, (0.5,), (50,), range(350, 701, 50), 5, noise, s(0))
        return [Job("double_descent", ["exp", "double-descent"], cfg, _check_sweep,
                    {"peak": not tiny})]
    if workload == "pe_campaign":
        # Criterion-4 config: excitation frequency at the required length.
        noise = {"family": "gaussian", "sigma_w": 1.0, "sigma_z": 1.0}
        if tiny:
            cfg = _sweep_config(2, 1, (0.5,), (1,), (100,), 2, noise, s(0))
            cfg["delta"] = 0.9
            expect = {}
        else:
            cfg = _sweep_config(2, 2, (0.5,), (4,), (100,), 20, noise, s(0))
            expect = {"required_T": PE_REQUIRED_T, "frequency": 0.9}
        return [Job("pe_campaign", ["pe-campaign"], cfg, _check_pe, expect)]
    # mc_validate: criterion-9 system at the CLI's default draw counts.
    noise = {"family": "gaussian", "sigma_w": 0.25, "sigma_z": 0.5}
    if tiny:
        cfg = _sweep_config(2, 1, (0.6,), (2,), (20,), 1, noise, s(0))
    else:
        cfg = _sweep_config(2, 1, (0.6,), (6,), (100,), 1, noise, s(0))
    # Exit 4 is the suite's own verdict on its Monte Carlo checks, which have
    # a nonzero false-failure rate; it is reported as a predicate.
    return [Job("validate", ["validate"], cfg, _check_validate, exit_codes=(0, 4))]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def reference_errors(config: dict, program) -> dict:
    """Reference err_G_fro2 of every sweep trial, refit independently of the
    estimator, with the relative tolerance a correct solver must meet.

    The model and trajectory come from the program's seeded generators
    (one stream per (cell indices, trial)); the Kronecker design and its
    minimum-norm least-squares fit are recomputed here, through an SVD.
    A backward-stable solver agrees with it to about eps * kappa, a
    normal-equations solve only to about eps * kappa**2, where kappa is the
    design's condition number over its nonzero singular values.  Such an
    error in theta moves err_G_fro2 = ||theta - theta_true||^2 by about
    2 ||dtheta|| / ||theta - theta_true|| relative, so the tolerance is
    SOLVER_SLACK * eps * kappa**2 * ||theta|| / ||theta - theta_true||,
    and never below REF_RTOL.  At the square design kappa**2 is about 1e7,
    which still gives REF_RTOL; the tolerance widens only for the rare
    designs whose kappa**2 nears 1e10.
    Returns {(rho, L, T, trial): (err_G_fro2, rtol)}.
    """
    sysmodel = program.sysmodel
    cfg = program.experiments.ExperimentConfig.from_dict(config)
    noise = cfg.noise.to_spec(cfg.n)
    design_in = cfg.input.to_design(cfg.p)
    p = cfg.p
    eps = np.finfo(float).eps
    errors = {}
    for i_r, rho in enumerate(cfg.rho_values):
        for i_L, L in enumerate(cfg.L_values):
            for i_T, T in enumerate(cfg.T_values):
                for trial in range(cfg.trials):
                    rng = sysmodel.derive_rng(cfg.base_seed, i_r, i_L, i_T, trial)
                    model = sysmodel.random_model(cfg.n, p, rho, rng)
                    traj = sysmodel.simulate(model, noise, design_in, T, rng)
                    u = traj.u
                    # Row t = L+1..T is [u_{t-1}; ...; u_{t-L}] (x) u_t.
                    ubar = np.hstack([u[L - j: T - j] for j in range(L)])
                    U = (ubar[:, :, None] * u[L + 1:, None, :]).reshape(T - L, p * p * L)
                    left, sv, right = np.linalg.svd(U, full_matrices=False)
                    keep = sv > sv[0] * max(U.shape) * eps  # lstsq's rcond=None cut-off
                    theta = right[keep].T @ ((left[:, keep].T @ traj.y[L + 1:]) / sv[keep])
                    theta_true = sysmodel.markov_params(model, L).G.ravel(order="F")
                    err = float(np.linalg.norm(theta - theta_true)) ** 2
                    kappa = sv[0] / sv[keep][-1]
                    rtol = SOLVER_SLACK * eps * kappa ** 2 * float(np.linalg.norm(theta)) / math.sqrt(err)
                    errors[(rho, L, T, trial)] = (err, max(REF_RTOL, rtol))
    return errors


def _check_sweep(job: Job, out: Path, code: int, verdict: Verdict, program) -> None:
    cfg = job.config
    problems = []
    rows = _read_csv(out.with_name(out.name + ".csv"))
    if tuple(rows[0]) != tuple(program.experiments.TRIAL_COLUMNS):
        problems.append(f"trial columns {rows[0]}")
    expected_rows = (len(cfg["rho_values"]) * len(cfg["L_values"])
                     * len(cfg["T_values"]) * cfg["trials"])
    if len(rows) - 1 != expected_rows:
        problems.append(f"{len(rows) - 1} trial rows, expected {expected_rows}")
    agg = {}
    for row in _read_csv(out.with_name(out.name + ".agg.csv"))[1:]:
        values = [float(v) for v in row]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite aggregate row {row}")
        agg[(values[0], int(values[1]), int(values[2]))] = values[3]
    verdict.op(f"{job.name} cli", problems)
    if problems:
        return

    p = cfg["p"]
    errs = {}
    for row in rows[1:]:
        rec = dict(zip(rows[0], row))
        trial_problems = []
        rho, L, T, trial = float(rec["rho"]), int(rec["L"]), int(rec["T"]), int(rec["trial"])
        err = float(rec["err_G_fro2"])
        numbers = [rho, err, float(rec["lambda_min"]), float(rec["runtime_ms"])]
        bound = float(rec["bound_value"])
        errs[(rho, L, T, trial)] = err
        if not all(math.isfinite(v) for v in numbers):
            trial_problems.append("non-finite value")
        # A square design (T - L = p^2 L) is full rank but can be too ill-conditioned
        # for the rank test, so either mode is accepted there.
        modes = {"min_norm"} if T - L < p * p * L else {"full_rank"}
        if T - L == p * p * L:
            modes.add("min_norm")
        if rec["solver_mode"] not in modes:
            trial_problems.append(f"solver_mode {rec['solver_mode']}, expected {' or '.join(modes)}")
        if math.isfinite(bound) != (rec["solver_mode"] == "full_rank"):
            trial_problems.append(f"bound_value {bound} with solver_mode {rec['solver_mode']}")
        verdict.op(f"{job.name} trial rho={rho} L={L} T={T} #{trial}", trial_problems)
    # Compared with the reference fit by check_reference, after the passes.
    job.expect.setdefault("errs", []).append(errs)
    verdict.info["err_G_fro2_mean"] = float(np.mean(list(errs.values())))

    if job.expect.get("crossing"):
        # Criterion 3: short memory prefers the short window, long memory the long one.
        (r_lo, r_hi), (L_lo, L_hi), T = cfg["rho_values"], cfg["L_values"], cfg["T_values"][0]
        verdict.predicate("criterion3_crossing", min(
            math.log(agg[(r_lo, L_hi, T)] / agg[(r_lo, L_lo, T)]),
            math.log(agg[(r_hi, L_lo, T)] / agg[(r_hi, L_hi, T)])), gate=False)
    if job.expect.get("peak"):
        # Criterion 2: the mean error peaks at the interpolation threshold T = 500.
        L = cfg["L_values"][0]
        rho = cfg["rho_values"][0]
        verdict.predicate("criterion2_peak", min(
            math.log(agg[(rho, L, 500)] / agg[(rho, L, 400)]),
            math.log(agg[(rho, L, 500)] / agg[(rho, L, 650)])), gate=True)


def check_reference(job: Job, verdict: Verdict, program) -> None:
    """Gate every pass's err_G_fro2 on the reference fit, one operation per pass."""
    reference = reference_errors(job.config, program)
    worst = 0.0
    for pass_no, errs in enumerate(job.expect.pop("errs", [])):
        problems = []
        for key, err in errs.items():
            if key not in reference:
                problems.append(f"trial {key} is not in the config")
                continue
            ref, rtol = reference[key]
            dev = abs(err - ref) / ref
            worst = max(worst, dev / rtol)
            if dev > rtol:
                problems.append(f"trial {key}: err_G_fro2 {err!r}, reference fit {ref!r}, "
                                f"relative tolerance {rtol:.3g}")
        verdict.op(f"{job.name} pass {pass_no} reference fit", problems)
    verdict.info["err_G_fro2_ref_dev_over_tol"] = worst


def _read_matrix(path: Path) -> np.ndarray | None:
    lines = path.read_text().splitlines()
    header = dict(kv.split("=") for kv in lines[0].lstrip("# ").split())
    M = np.array([[float(x) for x in line.split(",")] for line in lines[1:] if line])
    if M.shape != (int(header["rows"]), int(header["cols"])):
        return None
    return M


def _check_hokalman(job: Job, out: Path, code: int, verdict: Verdict, program) -> None:
    n, p = job.config["n"], job.config["p"]
    problems = []
    for name, shape in (("A", (n, n)), ("B", (n, p)), ("C", (p, n))):
        M = _read_matrix(out.with_name(f"{out.name}.{name}.csv"))
        if M is None or M.shape != shape or not np.all(np.isfinite(M)):
            problems.append(f"{name}: misshapen or non-finite")
    meta = json.loads(out.with_name(out.name + ".json").read_text())
    if (meta.get("n"), meta.get("p"), meta.get("L")) != (n, p, job.config["L_values"][0]):
        problems.append(f"metadata {meta}")
    elif not (_finite(meta.get("sigma_min_L")) and meta["sigma_min_L"] > 0.0
              and isinstance(meta.get("robustness_ok"), bool)):
        problems.append(f"metadata {meta}")
    verdict.op(f"{job.name} cli", problems)


def _check_pe(job: Job, out: Path, code: int, verdict: Verdict, program) -> None:
    summary = json.loads(out.read_text())
    problems = []
    freq = summary.get("frequency")
    if not (_finite(freq) and 0.0 <= freq <= 1.0):
        problems.append(f"frequency {freq!r}")
    if summary.get("trials") != job.config["trials"]:
        problems.append(f"trials {summary.get('trials')!r}")
    if summary.get("campaign_T") != summary.get("required_T"):
        problems.append("campaign length differs from the required length")
    want_T = job.expect.get("required_T")
    if want_T is not None and summary.get("required_T") != want_T:
        problems.append(f"required_T {summary.get('required_T')!r}, expected {want_T}")
    verdict.op(f"{job.name} cli", problems)
    if not problems and "frequency" in job.expect:
        # Criterion 4: lambda_min >= (T-L)/4 in at least 90% of trials.
        verdict.predicate("criterion4_frequency", freq - job.expect["frequency"], gate=True)


def _check_validate(job: Job, out: Path, code: int, verdict: Verdict, program) -> None:
    report = json.loads(out.read_text())
    checks = report.get("checks", [])
    problems = []
    names = [c.get("name") for c in checks]
    if names != ["autocovariance_mc", "m4_gaussian", "bound_coverage", "prediction_bound"]:
        problems.append(f"checks {names}")
    elif not all(_finite(c.get("margin")) for c in checks):
        problems.append("non-finite margin")
    if report.get("passed") is not (code == 0):
        problems.append(f"report passed={report.get('passed')!r} with exit code {code}")
    verdict.op(f"{job.name} cli", problems)
    if not problems:
        for c in checks:
            verdict.info[f"margin.{c['name']}"] = c["margin"]
        verdict.predicate("validate_suite", min(c["margin"] for c in checks), gate=False)
