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
from typing import NamedTuple

import numpy as np

from .estimator import DesignSystem, _lambda_min
from .exceptions import NumericalError, ParameterError
from .sysmodel import InputDesign, derive_rng

REGIME_BOUNDED = "bounded_a"
REGIME_FOURTH_MOMENT = "fourth_moment_b"
GAUSSIAN_M4 = 9.0


class PECertificate(NamedTuple):
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
        return self._asdict()


def min_eig_design(design: DesignSystem) -> float:
    """Smallest eigenvalue of the Gram matrix, clamped at zero.

    The value estimate_markov reports: 0.0 for a design with fewer rows
    than p^2 L columns, without forming the Gram, and otherwise the
    smallest eigenvalue of design.gram() with a negative roundoff rounded
    up to zero (estimator._lambda_min).
    """
    if design.rows < design.U_tilde.shape[1]:
        return 0.0
    return _lambda_min(float(np.linalg.eigvalsh(design.gram())[0]))


def _log_over_delta(a: float, delta: float, one: float = 0.0) -> float:
    """log(one + a/delta), as log(a) - log(delta) when a/delta overflows.

    A delta near the smallest subnormal overflows the quotient although
    its log is finite; every quotient that does not overflow keeps its
    direct form, and with it every count's bits.  Past the float range
    one + a/delta rounds to a/delta, so the log form drops nothing.
    """
    q = a / delta
    return math.log(one + q) if q < math.inf else math.log(a) - math.log(delta)


def _regime_terms(regime: str, p: int, L: int, delta: float,
                  beta: float | None, m4: float | None) -> tuple[float, float, int]:
    """(gamma1, gamma2, required samples) of a regime, after validating delta,
    p, L and the regime's own parameter: the one place that reads the regime."""
    if not (0.0 < delta < 1.0):
        raise ParameterError("delta must lie in (0, 1)")
    if p < 1 or L < 1:
        raise ParameterError("p and L must be >= 1")
    d = p * p * L
    try:
        if regime == REGIME_BOUNDED:
            if beta is None or not 0.0 < beta < math.inf:
                raise ParameterError("regime bounded_a requires a finite beta > 0")
            gamma1, gamma2 = beta**4 * L, 1.0
            need = (8.0 * (L + 1) * L * beta**4
                    * (_log_over_delta(2.0 * (L + 1), delta) + d * math.log(9.0)))
        elif regime == REGIME_FOURTH_MOMENT:
            if m4 is None or not 0.0 < m4 < math.inf:
                raise ParameterError("regime fourth_moment_b requires a finite m4 > 0")
            gamma1, gamma2 = m4, _log_over_delta(16.0 * d, delta, one=1.0)
            need = 32.0 * (L + 1) * m4 * (_log_over_delta(2.0 * (L + 1), delta) + d * gamma2)
        else:
            raise ParameterError(f"unknown regime {regime!r}")
        return float(gamma1), float(gamma2), int(math.ceil(need))
    except OverflowError as exc:  # beta**4 or the requirement past the float range
        raise NumericalError(f"regime {regime}: the sample requirement is past the "
                             "float range") from exc


def pe_required_samples(p: int, L: int, delta: float, regime: str,
                        beta: float | None = None, m4: float | None = None) -> int:
    """Samples T - L guaranteeing excitation with probability 1 - delta.

    regime "fourth_moment_b" reads m4 (beta is ignored):
        32 (L+1) m4 (log(2(L+1)/delta) + p^2 L log(1 + 16 p^2 L / delta)).

    regime "bounded_a" reads beta (m4 is ignored); two-sided concentration
    with relative eigenvalue slack epsilon = 1/2, so the guarantee matches
    the (T-L)/4 threshold:
        2 (L+1) L beta^4 / epsilon^2 (log(2(L+1)/delta) + p^2 L log 9)
        = 8 (L+1) L beta^4 (log(2(L+1)/delta) + p^2 L log 9).
    A missing, nonpositive or non-finite regime parameter raises ParameterError.
    """
    return _regime_terms(regime, p, L, delta, beta, m4)[2]


def pe_certificate(design: DesignSystem, delta: float, regime: str,
                   beta: float | None = None, m4: float | None = None) -> PECertificate:
    """Empirical excitation certificate for one design.

    passed is the literal comparison lambda_min >= (T - L)/4 with no
    hidden slack; required_T reports the trajectory length L + (required
    samples) at which the chosen regime guarantees that event with
    probability 1 - delta.  gamma1, gamma2 are beta^4 L and 1 ("bounded_a"),
    m4 and log(1 + 16 p^2 L / delta) ("fourth_moment_b").  Invalid
    arguments raise ParameterError before the eigensolve.
    """
    gamma1, gamma2, required = _regime_terms(regime, design.p, design.L, delta, beta, m4)
    lam = min_eig_design(design)
    threshold = design.rows / 4.0
    return PECertificate(
        lambda_min=lam,
        threshold=threshold,
        passed=bool(lam >= threshold),
        regime=regime,
        required_T=design.L + required,
        gamma1=gamma1,
        gamma2=gamma2,
        delta=delta,
    )


def estimate_m4(p: int, L: int, n_directions: int, n_samples: int, seed: int,
                directions: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Estimate sup_v E[(v^T (ubar (x) u))^4] over sampled unit directions
    for Gaussian inputs u ~ N(0, I_p) (InputDesign.gaussian(p)).

    For those, v^T (ubar (x) u) = ubar^T W u with
    W = v.reshape(p L, p), the C-order layout of _kron_rows' column
    (j p + i) p + k.  Given u, ubar is independent of it and N(0, I), so
    the projection is exactly N(0, ||W u||^2): it has the law of
    ||W u|| g with g ~ N(0, 1) independent of u.  Each sample therefore
    draws u (p normals) and then g (one normal), instead of a whole
    window of L + 1 inputs, and ||W u|| = ||R u|| with R the triangular
    factor of W.  The per-sample fourth powers, their mean and their
    standard error have the same joint law as for direct covariate draws.

    Each direction gets an independent derived stream of n_samples
    draws.  Returns (estimates, std_errors, directions): the mean and the
    standard error of each direction, and the unit directions as rows; the
    constant's estimate is the largest mean.
    Explicit directions can be supplied (they are normalized); otherwise
    n_directions uniform random directions are drawn.
    """
    inputs = InputDesign.gaussian(p)
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
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
        R = np.linalg.qr(directions[k].reshape(p * L, p), mode="r")
        u = inputs.sample_iid(n_samples, rng)
        g = rng.standard_normal(n_samples)
        Ru = u @ R.T
        # (||R u||^2 g^2)^2 by squarings, with no square root and no libm
        # pow, in place so that only one n_samples temporary is made
        np.square(g, out=g)
        proj4 = np.einsum("ij,ij->i", Ru, Ru)
        proj4 *= g
        np.square(proj4, out=proj4)
        estimates[k] = float(np.mean(proj4))
        if n_samples > 1:
            std_errors[k] = float(np.std(proj4, ddof=1) / math.sqrt(n_samples))
    return estimates, std_errors, directions
