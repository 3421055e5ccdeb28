"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny sizes, once untraced and once traced, and
checks that:
- every metric named in BENCHMARK.json is emitted with its unit, the
  end-to-end ones positive, and every per-layer count is nonzero on some
  workload;
- the correctness gates hold;
- in the written spans, every child lies inside its parent, self times
  are >= 0, and the top-level spans of a traced pass sum to no more than
  that pass's wall time (and so no more than wall_s of the traced pass).
Exits 0 when all hold, 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict

import run
import workloads


def check_span_file(path, pass_walls: list[float]) -> list[str]:
    rows = [json.loads(line) for line in open(path)]
    problems = []
    by_id = {r["id"]: r for r in rows}
    covered = defaultdict(float)
    top = defaultdict(float)
    for r in rows:
        if r["parent"] < 0:
            top[r["pass"]] += r["end"] - r["start"]
            continue
        parent = by_id[r["parent"]]
        if not (parent["start"] <= r["start"] <= r["end"] <= parent["end"]):
            problems.append(f"span {r['id']} {r['name']} outside parent {parent['name']}")
        covered[r["parent"]] += r["end"] - r["start"]
    for pid, child_time in covered.items():
        p = by_id[pid]
        if p["end"] - p["start"] - child_time < 0.0:
            problems.append(f"span {pid} {p['name']} has negative self time")
    for pass_no, total in top.items():
        if total > pass_walls[pass_no]:
            problems.append(f"top-level spans of pass {pass_no} sum to {total} > {pass_walls[pass_no]}")
    if not rows:
        problems.append("no spans written")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_program()
    run.check_metric_names(spec)
    problems = []
    called = defaultdict(float)
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            record = run.run_workload(name, workloads.DEV_SEED, 0.0, trace, tiny=True)
            result = run.result_line(record, spec)
            wanted = spec["per_layer" if trace else "end_to_end"]
            where = f"{name} trace={int(trace)}"
            if list(result["metrics"]) != [m["name"] for m in wanted]:
                problems.append(f"{where}: metrics {list(result['metrics'])}")
            for m in wanted:
                got = result["metrics"][m["name"]]
                value = got["value"]
                if got["unit"] != m["unit"] or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{where}: {m['name']} = {got}")
                elif not trace and value <= 0.0:
                    problems.append(f"{where}: {m['name']} = {value} is not positive")
                called[m["name"]] += value
            problems += [f"{where}: {f}" for f in record["failures"]]
            if result["attempted"] < 1:
                problems.append(f"{where}: no operations attempted")
            if trace:
                problems += [f"{where}: {p}" for p in check_span_file(
                    run.ROOT / record["spans_file"], record["pass_wall_s"]["traced"])]
    for m in spec["per_layer"]:
        if m["unit"] == "count" and called[m["name"]] <= 0:
            problems.append(f"{m['name']}: zero on every workload")
    for p in problems:
        print(f"selftest FAILED {p}", file=sys.stderr)
    print(f"selftest: {'ok' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
