#!/usr/bin/env python3
"""Print one digest per output file of the benchmark's CLI jobs in a checkout.

    tools/compare_outputs.py CHECKOUT

CHECKOUT is the root of a bilinid checkout.  Its perfbench/workloads.py
builds the jobs of every workload at seeds 1 and 1009, and each job runs
once through that checkout's bilinid.cli.main with --threads 1, in a
temporary directory.  The commands no workload runs (simulate
--diagnostics, and estimate and pe-check in both report formats) run on
each workload's first config, so every subcommand is covered.  Each
workload and seed prints one line per run,
"<workload> seed<seed> <run> exit <code>", then one per output file,
"<workload> seed<seed> <file> <sha256>", in name order.  A CSV's runtime_ms
column is dropped before its digest, since it holds wall times.  Two
checkouts whose outputs agree print the same lines:

    diff <(tools/compare_outputs.py A) <(tools/compare_outputs.py B)

The BLAS thread count changes the last bits of the fits, so main pins
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before it
loads the checkout (and with it numpy), whatever the shell sets, and
prints them as its first line.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 1009)
# the BLAS thread knobs, each pinned to one thread
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DROPPED_COLUMN = "runtime_ms"
# (run name suffix, CLI words) of the commands run on each workload's first config
EXTRA_COMMANDS = (
    ("simulate.traj.csv", ["simulate", "--diagnostics"]),
    ("estimate-json", ["estimate", "--format", "json"]),
    ("estimate-csv", ["estimate", "--format", "csv"]),
    ("pe.json", ["pe-check", "--format", "json"]),
    ("pe.csv", ["pe-check", "--format", "csv"]),
)


def digest(path: Path) -> str:
    """SHA-256 of a file's bytes, or of a CSV's rows without its runtime_ms column."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        if rows and DROPPED_COLUMN in rows[0]:
            drop = rows[0].index(DROPPED_COLUMN)
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerows(
                row[:drop] + row[drop + 1:] for row in rows)
            data = out.getvalue().encode()
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: compare_outputs.py CHECKOUT", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))
    print(" ".join(f"{name}={os.environ[name]}" for name in BLAS_THREADS))
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from bilinid import cli

    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                out_dir, cfg_dir = Path(tmp, "out"), Path(tmp, "configs")
                out_dir.mkdir()
                cfg_dir.mkdir()
                jobs = workloads.build(workload, seed)
                runs = [(job.name, job.argv, job.config) for job in jobs]
                runs += [(f"{jobs[0].name}.{suffix}", argv, jobs[0].config)
                         for suffix, argv in EXTRA_COMMANDS]
                for name, argv, config in runs:
                    cfg = cfg_dir / f"{name}.json"
                    cfg.write_text(json.dumps(config, indent=2, sort_keys=True))
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main([*argv, "--config", str(cfg),
                                         "--out", str(out_dir / name), "--threads", "1"])
                    print(f"{workload} seed{seed} {name} exit {code}")
                for path in sorted(out_dir.iterdir()):
                    print(f"{workload} seed{seed} {path.name} {digest(path)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
