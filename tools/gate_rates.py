#!/usr/bin/env python3
"""Measure how often validate's checks fail, against the rates they report.

    tools/gate_rates.py OUT NAME=CHECKOUT [NAME=CHECKOUT ...]
                        [--seeds FIRST:END] [--counts JSON]

For each NAME=CHECKOUT, the run_validation of that checkout runs on the
benchmark's validate config (the mc_validate job that the checkout's
perfbench/workloads.py builds at seed 1) once per base_seed in
FIRST..END-1 (default 0:600), at run_validation's default draw counts
unless --counts gives keyword arguments for it, such as
'{"autocov_draws": 2000, "m4_samples": 2000}'.  The seeds run in two
spawned processes, each with one BLAS thread.

OUT is a JSON file.  For each checkout and check it holds the failure
count over the seeds, the observed rate with its Wilson 95% interval, the
mean of the nominal false-failure rates the reports give and their basis,
and whether that mean is consistent with the interval: at or above its
lower end for an "upper bound", inside it for any other basis.  Every
checkout after the first also says whether its observed rate lies in the
first checkout's interval, so a parent and a change compare as

    tools/gate_rates.py GATES.json parent=PARENT change=.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from pathlib import Path

# the BLAS thread knobs, each pinned to one thread in the workers
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROCESSES = 2
Z95 = 1.959963984540054  # the normal quantile of 0.975


def nominal_consistent(mean: float | None, basis: str | None, low: float,
                       high: float) -> bool | None:
    """Whether a check's nominal rate agrees with its Wilson interval
    [low, high]: an "upper bound" agrees when it is at or above low, any
    other basis when it lies in the interval.  None without a rate."""
    if mean is None:
        return None
    return low <= mean if basis == "upper bound" else low <= mean <= high


def wilson_interval(failed: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval of a binomial rate failed/trials; it
    starts at 0 exactly when none failed, and ends at 1 when all did."""
    rate, z2 = failed / trials, Z95 * Z95
    centre = (rate + z2 / (2 * trials)) / (1 + z2 / trials)
    half = Z95 / (1 + z2 / trials) * math.sqrt(rate * (1 - rate) / trials
                                               + z2 / (4 * trials * trials))
    return (0.0 if failed == 0 else centre - half,
            1.0 if failed == trials else centre + half)


_worker: dict = {}


def _init(root: str, counts: dict) -> None:
    """Load one checkout's bilinid and the benchmark's validate config."""
    sys.path[:0] = [str(Path(root, "src")), str(Path(root, "perfbench"))]
    import workloads
    from bilinid import experiments

    _worker.update(experiments=experiments, counts=counts,
                   config=workloads.build("mc_validate", 1)[0].config)


def _validate(seed: int) -> list[tuple[str, bool, float | None, str | None]]:
    """(name, passed, nominal rate, its basis) of each check at base_seed seed."""
    experiments = _worker["experiments"]
    config = experiments.ExperimentConfig.from_dict({**_worker["config"], "base_seed": seed})
    report = experiments.run_validation(config, **_worker["counts"])
    return [(c["name"], c["passed"], c["details"].get("nominal_false_failure_rate"),
             c["details"].get("nominal_rate_basis")) for c in report["checks"]]


def measure(root: Path, seeds: range, counts: dict) -> dict:
    """Each check's failure count, rate, interval and nominal rate for one checkout."""
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(PROCESSES, initializer=_init, initargs=(str(root), counts)) as pool:
        reports = pool.map(_validate, seeds)
    checks = {}
    for name, *_ in reports[0]:
        rows = [row for report in reports for row in report if row[0] == name]
        failed = sum(not passed for _, passed, _, _ in rows)
        low, high = wilson_interval(failed, len(rows))
        nominal = [rate for _, _, rate, _ in rows]
        mean = None if None in nominal else sum(nominal) / len(nominal)
        checks[name] = {
            "failed": failed, "trials": len(rows), "rate": failed / len(rows),
            "wilson95": [low, high], "nominal_rate_mean": mean,
            "nominal_rate_basis": rows[0][3],
            "nominal_consistent": nominal_consistent(mean, rows[0][3], low, high),
        }
    return checks


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Failure rates of validate's checks.")
    parser.add_argument("out", type=Path)
    parser.add_argument("checkouts", nargs="+", metavar="NAME=CHECKOUT")
    parser.add_argument("--seeds", default="0:600", metavar="FIRST:END")
    parser.add_argument("--counts", type=json.loads, default={}, metavar="JSON")
    args = parser.parse_args(argv)
    first, end = (int(s) for s in args.seeds.split(":"))
    if not first < end:
        parser.error("need FIRST < END")
    sides = dict(item.split("=", 1) for item in args.checkouts)
    os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))
    result = {"seeds": [first, end], "counts": args.counts, "checkouts": {}}
    base = None
    for name, root in sides.items():
        checks = measure(Path(root).resolve(), range(first, end), args.counts)
        if base is None:
            base = checks
        else:
            for check, row in checks.items():
                low, high = base[check]["wilson95"]
                row["rate_in_first_interval"] = low <= row["rate"] <= high
        result["checkouts"][name] = checks
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
