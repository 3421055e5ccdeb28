"""Shared test settings: one deterministic hypothesis profile, the small
CLI config that the command-line tests run, and designs with given rows."""

import json

import numpy as np
import pytest
from hypothesis import settings

from bilinid.estimator import DesignSystem

# Every run of the same command line draws the same examples, so the suite
# stays deterministic; no example database is written.  The examples still
# depend on which local modules are loaded: hypothesis 6.155 adds constants
# it collects from them to its example pool (and caches them in
# .hypothesis/constants/), so a property can draw a case in the full suite
# that it never draws alone.  Pin such a case with @example.
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


@pytest.fixture()
def rows_design():
    """design(U, y=None, p=1): the DesignSystem of p outputs with the given
    rows U (and outputs y, zeros when None), L = columns / p^2, in the form
    design_from_inputs gives: kept rows up to p^2 L rows, sums past that."""
    def design(U, y=None, p=1):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        rows, d = U.shape
        L = d // (p * p)
        y = np.zeros(rows) if y is None else np.asarray(y, dtype=float)
        if rows <= d:
            return DesignSystem(U_tilde=U, y=y, L=L, T=L + rows, p=p,
                                V=None, Uty=U.T @ y, yty=None)
        return DesignSystem(U_tilde=np.empty((0, d)), y=np.empty(0), L=L, T=L + rows, p=p,
                            V=U.T @ U, Uty=U.T @ y, yty=float(y @ y))
    return design
