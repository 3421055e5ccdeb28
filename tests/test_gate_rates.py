"""tools/gate_rates.py counts validate's check failures over a seed range."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bilinid.experiments import ExperimentConfig, run_validation

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "gate_rates.py"
spec = importlib.util.spec_from_file_location("gate_rates", TOOL)
gate_rates = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate_rates)

COUNTS = {"autocov_draws": 2_000, "m4_directions": 2, "m4_samples": 2_000,
          "coverage_trials": 3}


def test_wilson_interval():
    # 26 failures in 600: 3.0-6.3%; none in 3: [0, z^2/(3 + z^2)]
    low, high = gate_rates.wilson_interval(26, 600)
    assert (round(low, 3), round(high, 3)) == (0.030, 0.063)
    z2 = gate_rates.Z95 ** 2
    assert gate_rates.wilson_interval(0, 3) == pytest.approx((0.0, z2 / (3 + z2)), abs=1e-15)
    # so a check that never fails has its rate, 0, in its interval
    assert gate_rates.wilson_interval(0, 600)[0] == 0.0
    assert gate_rates.wilson_interval(600, 600)[1] == 1.0


def test_an_upper_bound_is_consistent_at_or_above_the_interval():
    # 0 failures in 600 give [0, 0.64%]: the coverage check's 4.0% upper
    # bound agrees with that, a 4.0% approximation does not
    low, high = gate_rates.wilson_interval(0, 600)
    assert gate_rates.nominal_consistent(0.04, "upper bound", low, high) is True
    assert gate_rates.nominal_consistent(0.04, "normal approximation", low, high) is False
    # 4 failures in 600 give [0.26%, 1.7%]: an upper bound below it is not
    # consistent, any basis inside it is, and no rate gives None
    low, high = gate_rates.wilson_interval(4, 600)
    assert gate_rates.nominal_consistent(0.001, "upper bound", low, high) is False
    assert gate_rates.nominal_consistent(low, "upper bound", low, high) is True
    assert gate_rates.nominal_consistent(0.01, "normal approximation", low, high) is True
    assert gate_rates.nominal_consistent(0.065, "normal approximation", low, high) is False
    assert gate_rates.nominal_consistent(None, None, low, high) is None


def test_tool_counts_the_failures_of_each_seed(tmp_path):
    # the checkout against itself; of base seeds 7-9,
    # seed 8 fails its autocovariance check at these counts
    out = tmp_path / "gates.json"
    subprocess.run([sys.executable, str(TOOL), str(out), f"a={ROOT}", f"b={ROOT}",
                    "--seeds", "7:10", "--counts", json.dumps(COUNTS)],
                   check=True, timeout=120)
    result = json.loads(out.read_text())
    assert result["seeds"] == [7, 10] and result["counts"] == COUNTS
    config = _validate_config()
    reports = [run_validation(ExperimentConfig.from_dict({**config, "base_seed": s}), **COUNTS)
               for s in range(7, 10)]
    a, b = result["checkouts"]["a"], result["checkouts"]["b"]
    assert list(a) == [c["name"] for c in reports[0]["checks"]]
    for k, (name, row) in enumerate(a.items()):
        failed = sum(not r["checks"][k]["passed"] for r in reports)
        assert (row["failed"], row["trials"], row["rate"]) == (failed, 3, failed / 3)
        assert row["wilson95"] == list(gate_rates.wilson_interval(failed, 3))
        rates = [r["checks"][k]["details"].get("nominal_false_failure_rate") for r in reports]
        assert row["nominal_rate_mean"] == (None if None in rates else sum(rates) / 3)
        assert b[name] == {**row, "rate_in_first_interval": True}
    assert a["autocovariance_mc"]["failed"] == 1


def _validate_config():
    spec = importlib.util.spec_from_file_location(
        "_gate_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve annotations through it
    spec.loader.exec_module(workloads)
    return workloads.build("mc_validate", 1)[0].config

