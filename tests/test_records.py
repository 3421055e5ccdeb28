"""What the package's records are, and what they may not be used for.

A record without checks of its own is a named tuple; the records that
check their fields in __post_init__ stay dataclasses.  A named tuple
compares by value, hashes its items and iterates, and none of that means
anything for a record that holds arrays, so no command may rely on it.
"""

import dataclasses
import sys

import pytest

from bilinid import estimator, excitation, experiments, hokalman
from bilinid.cli import main

# the named tuples that hold arrays
ARRAY_RECORDS = (estimator.DesignSystem, estimator.EstimateReport, estimator.FitResult,
                 hokalman.HankelSet, hokalman.Realization)
NAMED_TUPLES = ARRAY_RECORDS + (estimator.BoundTerms, estimator.BoundReport,
                                excitation.PECertificate, experiments.TrialRecord,
                                experiments.CoverageTrial)

COMMANDS = (["simulate"], ["estimate"], ["estimate", "--format", "csv"], ["hokalman"],
            ["pe-check"], ["pe-check", "--regime", "bounded_a", "--format", "csv"],
            ["pe-campaign"], ["exp", "figure1"], ["exp", "double-descent"], ["validate"])


def _package_classes() -> list[type]:
    """Every class defined in a module of the package; importing main has
    imported them all."""
    return [obj for name, module in sorted(sys.modules.items())
            if name.startswith("bilinid.") for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == name]


def test_only_records_with_a_post_init_are_dataclasses():
    classes = _package_classes()
    dataclass_names = sorted(c.__name__ for c in classes if dataclasses.is_dataclass(c))
    checked = sorted(c.__name__ for c in classes if "__post_init__" in vars(c))
    assert dataclass_names == checked
    assert len(dataclass_names) == 8
    for record in NAMED_TUPLES:
        assert issubclass(record, tuple) and record._fields
        assert record in classes
    assert experiments.TRIAL_COLUMNS == experiments.TrialRecord._fields


def test_the_one_caller_records_are_gone():
    for module, name in ((experiments, "SweepResult"), (experiments, "run_double_descent"),
                         (excitation, "M4Estimate"), (hokalman, "RealizationBounds"),
                         (hokalman, "Alignment")):
        assert not hasattr(module, name)


def _refuse(*args):
    raise AssertionError("a record that holds arrays was compared, hashed or iterated")


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_no_command_compares_hashes_or_iterates_an_array_record(
        tmp_path, monkeypatch, config_file, command):
    for record in ARRAY_RECORDS:
        for name in ("__eq__", "__hash__", "__iter__"):
            monkeypatch.setattr(record, name, _refuse)
    with pytest.raises(AssertionError):
        tuple(hokalman.Realization(*range(7)))
    code = main(command + ["--config", str(config_file), "--out", str(tmp_path / "o")])
    assert code in ((0, 4) if command == ["validate"] else (0,))
