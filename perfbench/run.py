"""Benchmark of the bilinid identification pipeline.

Drives the user-facing CLI in-process through `bilinid.cli.main(argv)`,
with `--threads 1`, on seeded workloads shaped like the acceptance
criteria.  Run from the repository root:

    python3 perfbench/run.py --workload fit_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run measures passes of the workload's fixed job for --seconds seconds
and checks every pass's outputs.  With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 it alternates untraced and
traced passes and reports the per-layer metrics.  The last line of
standard output is the result as JSON; a full record with the run
manifest is written to .perfbench_out/.  The exit code is 0 only when
every correctness gate held.  perfbench/README.md describes the metrics
and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 21

# Runs in a fresh interpreter: the set-up every CLI invocation pays.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bilinid.cli
from bilinid.experiments import ExperimentConfig
for path in sys.argv[2:]:
    with open(path) as fh:
        ExperimentConfig.from_json(fh.read())
print(time.perf_counter() - t0)
"""


def import_program():
    """Import bilinid from this checkout's src/, never from elsewhere."""
    package_dir = SRC / "bilinid"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package_dir}")
    sys.path.insert(0, str(SRC))
    import bilinid
    import bilinid.cli
    if Path(bilinid.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"perfbench: bilinid imported from {bilinid.__file__}, not {package_dir}")
    return bilinid


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded; None when not found."""
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def manifest(seed: int, config_hashes: dict) -> dict:
    import numpy as np
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_rev = (rev.stdout.strip() if rev.returncode == 0
                   and Path(top.stdout.strip()).resolve() == ROOT else None)
    except OSError:
        git_rev = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": git_rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "config_sha256": config_hashes,
    }


def measure_setup(config_paths: list[Path]) -> float:
    """One set-up in a fresh interpreter; returns its time."""
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), *map(str, config_paths)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def run_pass(jobs, workdir: Path, cli) -> tuple[float, list[int]]:
    """One pass of every job; returns its wall time and the exit codes."""
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    for job in jobs:
        argv = [*job.argv, "--config", str(workdir / "configs" / f"{job.name}.json"),
                "--out", str(workdir / job.name), "--threads", "1"]
        try:
            with contextlib.redirect_stdout(sink):
                codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code if isinstance(exc.code, int) else 2)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            codes.append(1)
    return time.perf_counter() - start, codes


def check_outputs(job, out: Path, code: int, verdict, program) -> None:
    """Run a job's checks; a missing or unreadable output fails the operation."""
    if code not in job.exit_codes:
        verdict.op(f"{job.name} cli", [f"exit code {code}"])
        return
    try:
        job.check(job, out, code, verdict, program)
    except Exception as exc:  # the run goes on and reports the failure
        verdict.op(f"{job.name} outputs", [f"unreadable: {exc!r}"])


def check_metric_names(spec: dict) -> None:
    """Exit before measuring when a per-layer metric of BENCHMARK.json names
    no traced function or counter, e.g. after a function was renamed."""
    unknown = [m["name"] for m in spec["per_layer"] if m["name"] not in spans.metric_names()]
    if unknown:
        raise SystemExit(f"perfbench: no traced function or counter records {', '.join(unknown)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload; returns the full record."""
    program = import_program()
    jobs = workloads.build(name, seed, tiny=tiny)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    config_paths = [workdir / "configs" / f"{job.name}.json" for job in jobs]
    config_paths[0].parent.mkdir(parents=True, exist_ok=True)
    try:
        hashes = {}
        for job, path in zip(jobs, config_paths):
            text = json.dumps(job.config, indent=2, sort_keys=True)
            path.write_text(text)
            hashes[job.name] = hashlib.sha256(text.encode()).hexdigest()
        verdict = workloads.Verdict()
        tracer = spans.Tracer() if trace else None
        walls = {"untraced": [], "traced": []}
        # Set-up is an end-to-end metric, measured in untraced runs only.  Its
        # samples are spread between the passes, so that they meet the
        # machine's fast and slow spells in the same mix as the passes do;
        # their time does not count towards --seconds.
        setup_times, setup_s = [], 0.0
        setup_total = 0 if trace else SETUP_REPEATS
        loop_start = time.perf_counter()
        while True:
            traced = tracer is not None and len(walls["untraced"]) > len(walls["traced"])
            with tracer.installed() if traced else contextlib.nullcontext():
                wall, codes = run_pass(jobs, workdir, program.cli)
            walls["traced" if traced else "untraced"].append(wall)
            for job, code in zip(jobs, codes):
                check_outputs(job, workdir / job.name, code, verdict, program)
            elapsed = time.perf_counter() - loop_start - setup_s
            done = elapsed >= seconds
            due = setup_total if done else math.ceil(setup_total * elapsed / seconds)
            while len(setup_times) < due:
                start = time.perf_counter()
                setup_times.append(measure_setup(config_paths))
                setup_s += time.perf_counter() - start
            if done and (tracer is None or walls["traced"]):
                break
        # Read before the reference refit, whose designs would set a floor under it.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for job in jobs:
            if job.argv[0] == "exp":
                workloads.check_reference(job, verdict, program)
        if trace:
            layers = tracer.summary()
            for span in workloads.TRACED_SPANS[name]:
                verdict.op(f"trace of {span}",
                           [] if layers.get(f"{span}.calls", 0) > 0 else ["no call traced"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": name,
        "manifest": manifest(seed, hashes),
        "seconds": seconds,
        "trace": trace,
        "attempted": verdict.attempted,
        "failed": len(verdict.failures),
        "failures": verdict.failures,
        "predicates": verdict.predicates,
        "info": verdict.info,
        "setup_s_samples": setup_times,
        "pass_wall_s": walls,
    }
    wall_s = statistics.median(walls["untraced"])
    if trace:
        traced_wall = statistics.median(walls["traced"])
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_frac"] = traced_wall / wall_s - 1.0
        record["layers"] = layers
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        record["end_to_end"] = {
            "wall_s": wall_s,
            "setup_s": min(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
    return record


def result_line(record: dict, spec: dict) -> dict:
    """The contract's result: every metric of the run's kind, with its unit."""
    if record["trace"]:
        values, wanted = record["layers"], spec["per_layer"]
    else:
        values, wanted = record["end_to_end"], spec["end_to_end"]
    # check_metric_names has made sure every wanted name is one a trace can
    # record, so a name missing from a traced run is a function it never called.
    metrics = {m["name"]: {"value": values.get(m["name"], 0) if record["trace"] else values[m["name"]],
                           "unit": m["unit"]} for m in wanted}
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}


def print_summary(record: dict, result: dict) -> None:
    name = record["workload"]
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    print(f"{name} failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']} operations)")
    for key, value in record["info"].items():
        print(f"{name} {key} = {value:.6g}")
    for pname, pred in record["predicates"].items():
        kind = "gate" if pred["gate"] else "reported"
        print(f"{name} predicate {pname}: {'held' if pred['passed'] else 'MISSED'} "
              f"(margin {pred['margin']:.4g}, {kind})")
    if record["trace"]:
        wall = record["layers"]["trace.wall_s"]
        shares = sorted(((v / wall, k[:-len(".self_s")]) for k, v in record["layers"].items()
                         if k.endswith(".self_s")), reverse=True)
        for share, layer in shares[:8]:
            print(f"{name} self-time share {layer} = {100.0 * share:.1f}%")
    for failure in record["failures"]:
        print(f"{name} FAILED {failure}", file=sys.stderr)


def run_all(args) -> int:
    """Every workload, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return status if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEV_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    import_program()
    check_metric_names(spec)
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = result_line(record, spec)
    record["result"] = result
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    print_summary(record, result)
    print("manifest: " + json.dumps(record["manifest"], sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
