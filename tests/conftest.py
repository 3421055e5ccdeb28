"""Shared test settings: one deterministic hypothesis profile, and the
small CLI config that the command-line tests run."""

import json

import pytest
from hypothesis import settings

# Every run draws the same examples, so the suite stays deterministic;
# no example database is written.
settings.register_profile("bilinid", derandomize=True, deadline=None, database=None)
settings.load_profile("bilinid")


@pytest.fixture()
def config_file(tmp_path):
    cfg = dict(n=2, p=1, rho_values=[0.6], L_values=[4], T_values=[120], trials=3,
               noise=dict(family="gaussian", sigma_w=0.25, sigma_z=0.5),
               input=dict(kind="gaussian_isotropic"), delta=0.1, base_seed=3,
               output_path=str(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path
