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
import functools
import sys
from pathlib import Path

import numpy as np

from . import estimator, excitation, hokalman, serialize
from .exceptions import NumericalError, ParameterError
from .experiments import (
    AGG_COLUMNS,
    TRIAL_COLUMNS,
    ExperimentConfig,
    _draw_trials,
    run_pe_campaign,
    run_sweep,
    run_validation,
)


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
    noise, design_in = config.noise.to_spec(config.n), config.input.to_design(config.p)
    _, [model], [traj] = _draw_trials(config.n, config.p, noise, design_in, config.rho_values[0],
                                      config.T_values[0], config.base_seed,
                                      diagnostics=diagnostics)
    return model, noise, traj, config.L_values[0]


def cmd_simulate(args, config: ExperimentConfig, out: Path) -> int:
    _, _, traj, _ = _single_run_pieces(config, diagnostics=args.diagnostics)
    serialize.save_trajectory(out, traj)
    print(f"wrote trajectory ({traj.T + 1} steps) to {out}")
    return 0


def cmd_estimate(args, config: ExperimentConfig, out: Path) -> int:
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
    serialize.save_matrix(Path(f"{out}.G.csv"), fit.report.G_hat)
    report_path = Path(f"{out}.report.{args.format}")
    serialize.save_report(report_path, record, args.format)
    print(f"wrote estimate report to {report_path}")
    return 0


def cmd_hokalman(args, config: ExperimentConfig, out: Path) -> int:
    hokalman.check_order(config.L_values[0], config.n)  # before the simulation and the fit
    model, noise, traj, L = _single_run_pieces(config)
    fit = estimator.fit(model, noise, traj, L, config.delta)
    hankel = hokalman.build_hankel(fit.G, config.n)
    realization = hokalman.ho_kalman(fit.report.G_hat, config.n)
    bound_BC, bound_A, robustness_ok = hokalman.realization_error_bounds(
        hankel, realization.hankel, fit.err_fro)
    for name, M in (("A", realization.A), ("B", realization.B), ("C", realization.C)):
        serialize.save_matrix(Path(f"{out}.{name}.csv"), M)
    meta_path = Path(f"{out}.json")
    serialize.save_json(meta_path, {
        "n": config.n,
        "p": config.p,
        "L": L,
        "sigma_min_L": hankel.sigma_min_L,
        "robustness_ok": robustness_ok,
        "err_fro": fit.err_fro,
        "bound_BC": bound_BC,
        "bound_A": bound_A,
    })
    print(f"wrote realization matrices and metadata to {out}.*")
    return 0


def cmd_pe_check(args, config: ExperimentConfig, out: Path) -> int:
    _, _, traj, L = _single_run_pieces(config)
    # the certificate reads only the Gram, so the design takes no outputs
    design = estimator.design_from_inputs(traj.u, L)
    # bounded_a reads beta, the largest input norm; fourth_moment_b reads m4
    cert = excitation.pe_certificate(design, config.delta, args.regime,
                                     beta=estimator.empirical_input_bound(traj.u),
                                     m4=excitation.GAUSSIAN_M4)
    serialize.save_report(out, cert._asdict(), args.format)
    print(f"lambda_min={cert.lambda_min:.6g} threshold={cert.threshold:.6g} "
          f"passed={cert.passed}")
    print(f"wrote certificate to {out}")
    return 0


def _write_sweep(result: tuple[list, list], base: Path, threshold_T: dict | None = None) -> None:
    """Write run_sweep's (records, aggregate) as the trial and aggregate
    CSVs; given threshold_T, the aggregate marks the threshold cells."""
    records, aggregate = result
    trial_path = Path(f"{base}.csv")
    agg_path = Path(f"{base}.agg.csv")
    agg_columns = AGG_COLUMNS
    if threshold_T is not None:
        agg_columns += ("at_threshold",)
        aggregate = [row + [int(row[2] == threshold_T.get(row[1]))] for row in aggregate]
    serialize.save_csv(trial_path, TRIAL_COLUMNS, records)
    serialize.save_csv(agg_path, agg_columns, aggregate)
    print(f"wrote {trial_path} and {agg_path}")


def cmd_exp_figure1(args, config: ExperimentConfig, out: Path) -> int:
    _write_sweep(run_sweep(config, threads=args.threads), out)
    return 0


def cmd_exp_double_descent(args, config: ExperimentConfig, out: Path) -> int:
    """The sweep across the interpolation threshold T = L + p^2 L, where the
    minimum-norm solver keeps rank-deficient cells running."""
    result = run_sweep(config, threads=args.threads)
    thresholds = {L: L + config.p**2 * L for L in config.L_values}
    for L, thr in sorted(thresholds.items()):
        print(f"interpolation threshold for L={L}: T={thr}")
    _write_sweep(result, out, thresholds)
    return 0


def cmd_validate(args, config: ExperimentConfig, out: Path) -> int:
    report = run_validation(config, threads=args.threads)
    serialize.save_json(out, report)
    for check in report["checks"]:
        print(f"{check['name']}: {'PASS' if check['passed'] else 'FAIL'} "
              f"(margin {check['margin']:.4g})")
    print(f"wrote validation report to {out}")
    return 0 if report["passed"] else 4


def cmd_pe_campaign(args, config: ExperimentConfig, out: Path) -> int:
    summary = run_pe_campaign(config, threads=args.threads)
    serialize.save_json(out, summary)
    print(f"frequency={summary['frequency']:.4g} at required_T={summary['required_T']}")
    print(f"wrote campaign summary to {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  A subcommand's func takes
    (args, config, out), and its suffix, formatted with the parsed options,
    names its output path config.output_path + suffix when --out is not given."""
    parser = argparse.ArgumentParser(
        prog="bilinid",
        description="Identify linear systems with bilinear observations from one trajectory.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="ExperimentConfig JSON file")
    common.add_argument("--seed", type=int, default=None, help="override base_seed")
    common.add_argument("--out", default=None, help="output path")
    common.add_argument("--threads", type=int, default=1,
                        help="worker threads; sweeps run cells in parallel, "
                             "campaigns and coverage checks trials")

    p_sim = sub.add_parser("simulate", parents=[common], help="simulate one trajectory to CSV")
    p_sim.add_argument("--diagnostics", action="store_true",
                       help="record states and noises alongside inputs/outputs")
    p_sim.set_defaults(func=cmd_simulate, suffix=".traj.csv")

    p_est = sub.add_parser("estimate", parents=[common],
                           help="estimate Markov blocks from one trajectory")
    p_est.add_argument("--format", choices=("csv", "json"), default="json")
    p_est.set_defaults(func=cmd_estimate, suffix=".estimate")

    p_hk = sub.add_parser("hokalman", parents=[common], help="recover a state-space realization")
    p_hk.set_defaults(func=cmd_hokalman, suffix=".realization")

    p_pe = sub.add_parser("pe-check", parents=[common],
                          help="excitation certificate for one design")
    p_pe.add_argument("--format", choices=("csv", "json"), default="json")
    p_pe.add_argument("--regime", default=excitation.REGIME_FOURTH_MOMENT,
                      choices=(excitation.REGIME_BOUNDED, excitation.REGIME_FOURTH_MOMENT))
    p_pe.set_defaults(func=cmd_pe_check, suffix=".pe.{format}")

    p_camp = sub.add_parser("pe-campaign", parents=[common],
                            help="excitation frequency at the required length")
    p_camp.set_defaults(func=cmd_pe_campaign, suffix=".pe_campaign.json")

    p_exp = sub.add_parser("exp", help="experiment sweeps")
    exp_sub = p_exp.add_subparsers(dest="experiment", required=True)
    p_fig = exp_sub.add_parser("figure1", parents=[common],
                               help="estimation error over (rho, L, T)")
    p_fig.set_defaults(func=cmd_exp_figure1, suffix=".figure1")
    p_dd = exp_sub.add_parser("double-descent", parents=[common],
                              help="sweep across the interpolation threshold")
    p_dd.set_defaults(func=cmd_exp_double_descent, suffix=".double_descent")

    p_val = sub.add_parser("validate", parents=[common],
                           help="oracle-equivalence validation suite")
    p_val.set_defaults(func=cmd_validate, suffix=".validation.json")

    return parser


def _stage(exc: BaseException) -> str:
    """" (in module.function)" naming the innermost bilinid frame of exc's
    traceback, worker threads' frames included, or "" when it has none.
    Only a failing command pays the import of traceback."""
    import traceback

    stage = ""
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        if module.startswith("bilinid."):
            code = frame.f_code
            name = getattr(code, "co_qualname", code.co_name)  # co_qualname: Python 3.11+
            stage = f" (in {module[len('bilinid.'):]}.{name})"
    return stage


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a float overflow anywhere in a command raises FloatingPointError, an
        # ArithmeticError: exit 3 with one line instead of numpy warnings
        with np.errstate(over="raise"):
            config = _load_config(args)
            out = Path(args.out or config.output_path + args.suffix.format_map(vars(args)))
            return args.func(args, config, out)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # a Python float power past the float range raises a bare OverflowError,
        # whose own message is an errno tuple
        what = "a value is past the float range" if isinstance(exc, OverflowError) else exc
        print(f"numerical failure: {what}{_stage(exc)}", file=sys.stderr)
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
