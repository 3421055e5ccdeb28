"""Command-line front end.

Subcommands: simulate, estimate, hokalman, pe-check, exp figure1,
exp double-descent, validate.  All read an ExperimentConfig JSON file;
single-run commands use the first entry of each sweep list.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(any float overflow included, or memory exhaustion), 4 validation-suite
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import estimator, excitation, hokalman, serialize
from .exceptions import NumericalError, ParameterError
from .experiments import (
    ExperimentConfig,
    format_aggregate_csv,
    format_trial_csv,
    run_double_descent,
    run_pe_campaign,
    run_sweep,
    run_validation,
)
from .sysmodel import derive_rng, random_model, simulate


def _load_config(args) -> ExperimentConfig:
    path = Path(args.config)
    if not path.is_file():
        raise ParameterError(f"no config file at {path}")
    if args.threads < 1:
        raise ParameterError(f"--threads must be >= 1, got {args.threads}")
    config = ExperimentConfig.from_json(path.read_bytes())
    if args.seed is not None:
        config = dataclasses.replace(config, base_seed=args.seed)
    return config


def _single_run_pieces(config: ExperimentConfig, diagnostics: bool = False):
    """Model, noise and simulated trajectory of the config's first cell, and its L."""
    rng = derive_rng(config.base_seed, 0)
    model = random_model(config.n, config.p, config.rho_values[0], rng)
    noise = config.noise.to_spec(config.n)
    traj = simulate(model, noise, config.input.to_design(config.p), config.T_values[0], rng,
                    diagnostics=diagnostics)
    return model, noise, traj, config.L_values[0]


def _out_path(args, default: str) -> Path:
    return Path(args.out if args.out else default)


def cmd_simulate(args) -> int:
    config = _load_config(args)
    _, _, traj, _ = _single_run_pieces(config, diagnostics=args.diagnostics)
    out = _out_path(args, config.output_path + ".traj.csv")
    serialize.save_trajectory(out, traj)
    print(f"wrote trajectory ({traj.T + 1} steps) to {out}")
    return 0


def cmd_estimate(args) -> int:
    config = _load_config(args)
    model, noise, traj, L = _single_run_pieces(config)
    fit = estimator.fit(model, noise, traj, L, config.delta)
    record = {  # a min-norm fit has no bound: its three bound keys are None
        "lambda_min": fit.report.lambda_min,
        "residual_norm": fit.report.residual_norm,
        "solver_mode": fit.report.solver_mode,
        "err_fro": fit.err_fro,
        "err_ellipsoidal": fit.err_ellipsoidal,
        "bound_value": fit.bound.value if fit.bound else None,
        "bound_fro": fit.bound.fro_value if fit.bound else None,
        "bound_terms": fit.terms.to_dict() if fit.terms else None,
    }
    base = _out_path(args, config.output_path + ".estimate")
    serialize.save_matrix(Path(f"{base}.G.csv"), fit.report.G_hat)
    if args.format == "csv":
        report_path = Path(f"{base}.report.csv")
        serialize.write_text(report_path, serialize.report_to_flat_csv(record))
    else:
        report_path = Path(f"{base}.report.json")
        serialize.save_json(report_path, record)
    print(f"wrote estimate report to {report_path}")
    return 0


def cmd_hokalman(args) -> int:
    config = _load_config(args)
    hokalman.check_order(config.L_values[0], config.n)  # before the simulation and the fit
    model, noise, traj, L = _single_run_pieces(config)
    fit = estimator.fit(model, noise, traj, L, config.delta)
    hankel = hokalman.build_hankel(fit.G, config.n)
    realization = hokalman.ho_kalman(fit.report.G_hat, config.n)
    bounds = hokalman.realization_error_bounds(hankel, realization.hankel, fit.err_fro)
    base = _out_path(args, config.output_path + ".realization")
    for name, M in (("A", realization.A), ("B", realization.B), ("C", realization.C)):
        serialize.save_matrix(Path(f"{base}.{name}.csv"), M)
    meta_path = Path(f"{base}.json")
    serialize.save_json(meta_path, {
        "n": config.n,
        "p": config.p,
        "L": L,
        "sigma_min_L": hankel.sigma_min_L,
        "robustness_ok": bounds.robustness_ok,
    })
    print(f"wrote realization matrices and metadata to {base}.*")
    return 0


def cmd_pe_check(args) -> int:
    config = _load_config(args)
    _, _, traj, L = _single_run_pieces(config)
    # the certificate reads only the Gram, so the design takes no outputs
    design = estimator.design_from_inputs(traj.u, L)
    # bounded_a reads beta, the largest input norm; fourth_moment_b reads m4
    cert = excitation.pe_certificate(design, config.delta, args.regime,
                                     beta=estimator.empirical_input_bound(traj.u),
                                     m4=excitation.GAUSSIAN_M4)
    out = _out_path(args, config.output_path + f".pe.{args.format}")
    if args.format == "csv":
        serialize.write_text(out, serialize.report_to_flat_csv(cert.to_dict()))
    else:
        serialize.save_json(out, cert.to_dict())
    print(f"lambda_min={cert.lambda_min:.6g} threshold={cert.threshold:.6g} "
          f"passed={cert.passed}")
    print(f"wrote certificate to {out}")
    return 0


def _write_sweep(result, base: Path) -> None:
    trial_path = Path(f"{base}.csv")
    agg_path = Path(f"{base}.agg.csv")
    serialize.write_text(trial_path, format_trial_csv(result))
    serialize.write_text(agg_path, format_aggregate_csv(result))
    print(f"wrote {trial_path} and {agg_path}")


def cmd_exp_figure1(args) -> int:
    config = _load_config(args)
    result = run_sweep(config, threads=args.threads)
    _write_sweep(result, _out_path(args, config.output_path + ".figure1"))
    return 0


def cmd_exp_double_descent(args) -> int:
    config = _load_config(args)
    result = run_double_descent(config, threads=args.threads)
    for L, thr in sorted(result.threshold_T.items()):
        print(f"interpolation threshold for L={L}: T={thr}")
    _write_sweep(result, _out_path(args, config.output_path + ".double_descent"))
    return 0


def cmd_validate(args) -> int:
    config = _load_config(args)
    report = run_validation(config, threads=args.threads)
    out = _out_path(args, config.output_path + ".validation.json")
    serialize.save_json(out, report)
    for check in report["checks"]:
        print(f"{check['name']}: {'PASS' if check['passed'] else 'FAIL'} "
              f"(margin {check['margin']:.4g})")
    print(f"wrote validation report to {out}")
    return 0 if report["passed"] else 4


def cmd_pe_campaign(args) -> int:
    config = _load_config(args)
    summary = run_pe_campaign(config, threads=args.threads)
    out = _out_path(args, config.output_path + ".pe_campaign.json")
    serialize.save_json(out, summary)
    print(f"frequency={summary['frequency']:.4g} at required_T={summary['required_T']}")
    print(f"wrote campaign summary to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilinid",
        description="Identify linear systems with bilinear observations from one trajectory.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p_cmd):
        p_cmd.add_argument("--config", required=True, help="ExperimentConfig JSON file")
        p_cmd.add_argument("--seed", type=int, default=None, help="override base_seed")
        p_cmd.add_argument("--out", default=None, help="output path")
        p_cmd.add_argument("--threads", type=int, default=1,
                           help="worker threads; sweeps run cells in parallel, "
                                "campaigns and coverage checks trials")

    p_sim = sub.add_parser("simulate", help="simulate one trajectory to CSV")
    common(p_sim)
    p_sim.add_argument("--diagnostics", action="store_true",
                       help="record states and noises alongside inputs/outputs")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate Markov blocks from one trajectory")
    common(p_est)
    p_est.add_argument("--format", choices=("csv", "json"), default="json")
    p_est.set_defaults(func=cmd_estimate)

    p_hk = sub.add_parser("hokalman", help="recover a state-space realization")
    common(p_hk)
    p_hk.set_defaults(func=cmd_hokalman)

    p_pe = sub.add_parser("pe-check", help="excitation certificate for one design")
    common(p_pe)
    p_pe.add_argument("--format", choices=("csv", "json"), default="json")
    p_pe.add_argument("--regime", default=excitation.REGIME_FOURTH_MOMENT,
                      choices=(excitation.REGIME_BOUNDED, excitation.REGIME_FOURTH_MOMENT))
    p_pe.set_defaults(func=cmd_pe_check)

    p_camp = sub.add_parser("pe-campaign", help="excitation frequency at the required length")
    common(p_camp)
    p_camp.set_defaults(func=cmd_pe_campaign)

    p_exp = sub.add_parser("exp", help="experiment sweeps")
    exp_sub = p_exp.add_subparsers(dest="experiment", required=True)
    p_fig = exp_sub.add_parser("figure1", help="estimation error over (rho, L, T)")
    common(p_fig)
    p_fig.set_defaults(func=cmd_exp_figure1)
    p_dd = exp_sub.add_parser("double-descent", help="sweep across the interpolation threshold")
    common(p_dd)
    p_dd.set_defaults(func=cmd_exp_double_descent)

    p_val = sub.add_parser("validate", help="oracle-equivalence validation suite")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a float overflow anywhere in a command raises FloatingPointError, an
        # ArithmeticError: exit 3 with one line instead of numpy warnings
        with np.errstate(over="raise"):
            return args.func(args)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
