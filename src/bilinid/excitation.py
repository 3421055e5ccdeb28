"""Persistence-of-excitation certification and sample-size requirements.

The design Gram matrix U~^T U~ must have its smallest eigenvalue grow
linearly in the sample count for the least-squares estimate to be
consistent.  The empirical certificate compares lambda_min against the
threshold (T - L)/4; the theoretical calculators evaluate, with explicit
constants, how many samples two input regimes need before that event
holds with probability 1 - delta:

- regime "bounded_a": inputs with Euclidean norm at most beta,
- regime "fourth_moment_b": inputs whose Kronecker covariates have
  directional fourth moments at most m4 (Gaussian inputs: m4 = 9).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .estimator import DesignSystem, _kron_rows
from .exceptions import ParameterError
from .sysmodel import InputDesign, derive_rng

REGIME_BOUNDED = "bounded_a"
REGIME_FOURTH_MOMENT = "fourth_moment_b"
GAUSSIAN_M4 = 9.0


@dataclass(frozen=True)
class PECertificate:
    """Outcome of the excitation check on one design."""

    lambda_min: float
    threshold: float
    passed: bool
    regime: str
    required_T: int
    gamma1: float
    gamma2: float
    delta: float

    def to_dict(self) -> dict:
        return asdict(self)


def min_eig_design(design: DesignSystem) -> float:
    """Smallest eigenvalue of the Gram matrix, clamped at zero.

    Symmetric eigensolve on the p^2 L x p^2 L Gram matrix; tiny negative
    values (within 1e-10 numerical slack) are rounded up to zero.
    """
    gram = design.gram()
    lam = float(np.linalg.eigvalsh(gram)[0])
    return max(lam, 0.0)


def _check_regime_args(regime: str, beta, m4) -> None:
    if regime == REGIME_BOUNDED:
        if beta is None or beta <= 0:
            raise ParameterError("regime bounded_a requires beta > 0")
    elif regime == REGIME_FOURTH_MOMENT:
        if m4 is None or m4 <= 0:
            raise ParameterError("regime fourth_moment_b requires m4 > 0")
    else:
        raise ParameterError(f"unknown regime {regime!r}")


def pe_required_samples(p: int, L: int, delta: float, regime: str,
                        beta: float | None = None, m4: float | None = None) -> int:
    """Samples T - L guaranteeing excitation with probability 1 - delta.

    regime "fourth_moment_b":
        32 (L+1) m4 (log(2(L+1)/delta) + p^2 L log(1 + 16 p^2 L / delta)).

    regime "bounded_a" (two-sided concentration with relative eigenvalue
    slack epsilon = 1/2, so the guarantee matches the (T-L)/4 threshold):
        2 (L+1) L beta^4 / epsilon^2 (log(2(L+1)/delta) + p^2 L log 9)
        = 8 (L+1) L beta^4 (log(2(L+1)/delta) + p^2 L log 9).
    """
    if not (0.0 < delta < 1.0):
        raise ParameterError("delta must lie in (0, 1)")
    if p < 1 or L < 1:
        raise ParameterError("p and L must be >= 1")
    _check_regime_args(regime, beta, m4)
    d = p * p * L
    if regime == REGIME_FOURTH_MOMENT:
        need = 32.0 * (L + 1) * m4 * (math.log(2.0 * (L + 1) / delta)
                                      + d * math.log(1.0 + 16.0 * d / delta))
    else:
        need = (8.0 * (L + 1) * L * beta**4
                * (math.log(2.0 * (L + 1) / delta) + d * math.log(9.0)))
    return int(math.ceil(need))


def pe_certificate(design: DesignSystem, delta: float, regime: str,
                   beta: float | None = None, m4: float | None = None) -> PECertificate:
    """Empirical excitation certificate for one design.

    passed is the literal comparison lambda_min >= (T - L)/4 with no
    hidden slack; required_T reports the trajectory length L + (required
    samples) at which the chosen regime guarantees that event with
    probability 1 - delta.
    """
    _check_regime_args(regime, beta, m4)
    samples = design.rows
    lam = min_eig_design(design)
    threshold = samples / 4.0
    required = pe_required_samples(design.p, design.L, delta, regime, beta=beta, m4=m4)
    d = design.p ** 2 * design.L
    if regime == REGIME_BOUNDED:
        gamma1, gamma2 = beta**4 * design.L, 1.0
    else:
        gamma1, gamma2 = m4, math.log(1.0 + 16.0 * d / delta)
    return PECertificate(
        lambda_min=lam,
        threshold=threshold,
        passed=bool(lam >= threshold),
        regime=regime,
        required_T=design.L + required,
        gamma1=float(gamma1),
        gamma2=float(gamma2),
        delta=delta,
    )


@dataclass(frozen=True, eq=False)
class M4Estimate:
    """Monte Carlo estimate of the directional fourth-moment constant."""

    value: float
    estimates: np.ndarray
    std_errors: np.ndarray


def estimate_m4(input_design: InputDesign, L: int, n_directions: int,
                n_samples: int, seed: int, directions: np.ndarray | None = None) -> M4Estimate:
    """Estimate sup_v E[(v^T (ubar (x) u))^4] over sampled unit directions.

    Each direction gets an independent derived stream of n_samples
    covariate draws; the reported value is the largest per-direction mean,
    with per-direction standard errors alongside.  Explicit directions can
    be supplied (they are normalized); otherwise n_directions uniform
    random directions are drawn.
    """
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    p = input_design.p
    d = p * p * L
    if directions is None:
        if n_directions < 1:
            raise ParameterError("n_directions must be >= 1")
        dir_rng = derive_rng(seed, 0)
        directions = dir_rng.standard_normal((n_directions, d))
    else:
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        if directions.shape[1] != d:
            raise ParameterError(f"directions must have length p^2 L = {d}")
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    directions = directions / norms

    estimates = np.zeros(directions.shape[0])
    std_errors = np.zeros(directions.shape[0])
    for k in range(directions.shape[0]):
        rng = derive_rng(seed, 1, k)
        rows = _covariate_rows(input_design, L, n_samples, rng)
        # two squarings, not ** 4: numpy's float power calls libm pow per element
        proj4 = np.square(np.square(rows @ directions[k]))
        estimates[k] = float(np.mean(proj4))
        if n_samples > 1:
            std_errors[k] = float(np.std(proj4, ddof=1) / math.sqrt(n_samples))
    return M4Estimate(value=float(np.max(estimates)), estimates=estimates,
                      std_errors=std_errors)


def _covariate_rows(design: InputDesign, L: int, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """count independent covariate rows ubar_{t-1} (x) u_t, shape (count, p^2 L)."""
    windows = design.sample_iid(count * (L + 1), rng).reshape(count, L + 1, design.p)
    return _kron_rows([windows[:, L - 1 - j] for j in range(L)], windows[:, L])
