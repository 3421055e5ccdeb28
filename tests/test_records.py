"""What the package's records are, and what they may not be used for.

A record that the package alone builds is a named tuple, checked and
frozen by the code that builds it; the records that code outside the
package builds stay dataclasses.  A named tuple compares by value, hashes
its items and iterates, and none of that means anything for a record that
holds arrays, so no command may rely on it.
"""

import dataclasses
import sys

import pytest

from test_estimator import _callers

from bilinid import estimator, excitation, experiments, hokalman, sysmodel
from bilinid.cli import main

# the named tuples that hold arrays
ARRAY_RECORDS = (estimator.DesignSystem, estimator.EstimateReport, estimator.FitResult,
                 hokalman.HankelSet, hokalman.Realization, sysmodel.Trajectory,
                 sysmodel.MarkovParams)
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


def test_the_dataclasses_are_the_records_outside_code_builds():
    # a config, a model, a noise law and an input law are built by callers;
    # dataclasses.asdict round-trips a config through JSON
    classes = _package_classes()
    dataclass_names = sorted(c.__name__ for c in classes if dataclasses.is_dataclass(c))
    assert dataclass_names == ["ExperimentConfig", "InputConfig", "InputDesign",
                               "NoiseConfig", "NoiseSpec", "StateSpaceModel"]
    for record in NAMED_TUPLES:
        assert issubclass(record, tuple) and record._fields
        assert record in classes
    assert experiments.TRIAL_COLUMNS == experiments.TrialRecord._fields


def test_each_frozen_array_record_has_one_builder():
    # the builder passes read-only copies, so the record needs no checks
    assert _callers("Trajectory") == [("sysmodel", "simulate_batch")]
    assert _callers("MarkovParams") == [("sysmodel", "markov_params")]


def test_every_trial_is_drawn_in_one_place():
    # sweep cells, the coverage cell and the CLI's single run draw their
    # models and trajectories in _draw_trials, which simulates one trial by
    # simulate (a batch of one); the autocovariance check draws its one
    # model on its own stream
    drawer = ("experiments", "_draw_trials")
    assert _callers("_draw_trials") == [("cli", "_single_run_pieces"),
                                        ("experiments", "_run_cell"),
                                        ("experiments", "bound_coverage_trials")]
    assert _callers("simulate_batch") == [drawer, ("sysmodel", "simulate")]
    assert _callers("simulate") == [drawer]
    assert _callers("random_model") == [drawer, ("experiments", "run_validation")]
    assert "cli" not in {module for module, _ in _callers("derive_rng")}
    assert {module for module, _ in _callers("_rescale_tiny")} == {"estimator"}


def test_the_one_caller_records_are_gone():
    for module, name in ((experiments, "SweepResult"), (experiments, "run_double_descent"),
                         (excitation, "M4Estimate"), (hokalman, "RealizationBounds"),
                         (hokalman, "Alignment")):
        assert not hasattr(module, name)
    assert not hasattr(excitation.PECertificate, "to_dict")  # _asdict serves


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
