"""Least-squares estimation of the impulse-response matrix G.

For t > L the output decomposes as

    y_t = (ubar_{t-1} (x) u_t)^T vec(G) + zeta_t,

where ubar_{t-1} stacks the L most recent inputs (current first), (x) is
the Kronecker product, and zeta_t collects the process-noise, truncated-
state, and measurement-noise contributions.  Estimation is ordinary least
squares on the (T-L) x p^2 L design matrix of Kronecker rows.

Vectorization is column-major throughout, so that
u^T G ubar = (ubar (x) u)^T vec(G) holds identically.

Besides the estimator this module evaluates the finite-sample machinery
around it: the design-weighted (ellipsoidal) error norm, a high-probability
error bound with fully explicit constants, the block-count selection rule,
one-step output prediction with its mean-squared-error bound, and the
closed-form autocovariance of the effective noise zeta.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .exceptions import InfeasibleError, NumericalError, ParameterError
from .sysmodel import (
    MarkovParams,
    NoiseSpec,
    StateSpaceModel,
    Trajectory,
    _as_columns,
    controllability_gramian,
    default_decay_rate,
    input_gramian,
    markov_params,
    transient_factor,
)

RANK_TOL = 1e-10


def vec(M: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(M, dtype=float).reshape(-1, order="F")


def unvec(v: np.ndarray, p: int, cols: int) -> np.ndarray:
    """Inverse of vec for a p x cols matrix."""
    return np.asarray(v, dtype=float).reshape((p, cols), order="F")


@dataclass(frozen=True, eq=False)
class DesignSystem:
    """Regression data extracted from one trajectory.

    Row t (for t = L+1 .. T) of U_tilde is ubar_{t-1} (x) u_t, a vector of
    length p^2 L; y holds the aligned outputs y_{L+1} .. y_T.

    U_tilde built by design_from_inputs is column-major (Fortran order):
    each of its p^2 L columns is one contiguous product of an input
    component with a lagged one, which is far cheaper to fill than
    T - L short rows, and the Gram product and solvers take either order.
    """

    U_tilde: np.ndarray
    y: np.ndarray
    L: int
    T: int
    p: int

    @property
    def rows(self) -> int:
        return self.U_tilde.shape[0]

    @property
    def columns(self) -> int:
        return self.U_tilde.shape[1]

    def gram(self) -> np.ndarray:
        return self.U_tilde.T @ self.U_tilde


def stack_recent_inputs(u: np.ndarray, t: int, L: int) -> np.ndarray:
    """ubar_t = [u_t; u_{t-1}; ...; u_{t-L+1}] as a flat vector of length pL."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if t - L + 1 < 0 or t >= u.shape[0]:
        raise ParameterError("not enough inputs to stack the requested window")
    return u[t - L + 1: t + 1][::-1].reshape(-1)


def _kron_rows(lags: list[np.ndarray], cur: np.ndarray) -> np.ndarray:
    """Kronecker rows [lags[0][t]; ...; lags[L-1][t]] (x) cur[t], shape (count, p^2 L).

    Column (j p + i) p + k is lags[j][:, i] * cur[:, k].  The columns are
    written as contiguous rows of a (p^2 L, count) buffer, one vector
    product per column, and the result is the buffer's transpose: a
    column-major view.  A product that overflows raises NumericalError.
    """
    count, p = cur.shape
    buf = np.empty((p * p * len(lags), count))
    cur_t = cur.T
    try:
        with np.errstate(over="raise"):
            for j, lag in enumerate(lags):
                for i in range(p):
                    k0 = (j * p + i) * p
                    np.multiply(lag[:, i], cur_t, out=buf[k0:k0 + p])
    except FloatingPointError as exc:
        raise NumericalError("Kronecker design rows overflow the float range") from exc
    return buf.T


def design_from_inputs(u: np.ndarray, L: int, y: np.ndarray | None = None) -> DesignSystem:
    """Build the Kronecker-row design from an input sequence u_0..u_T.

    y, when given, must hold the full output sequence y_0..y_T; the
    design keeps the slice aligned with the rows.  A NaN or infinite
    input raises ParameterError; a Kronecker product beyond the float
    range, or a NaN or infinite output in that slice (an overflow of the
    simulated system), raises NumericalError.
    """
    u = _as_columns(u)
    if not np.all(np.isfinite(u)):
        raise ParameterError("input sequence u must be finite")
    T = u.shape[0] - 1
    p = u.shape[1]
    if L < 1:
        raise ParameterError("L must be >= 1")
    if T < L + 1:
        raise ParameterError(f"need T >= L + 1 rows, got T={T}, L={L}")
    rows = T - L
    # Block j of ubar_{t-1} is u_{t-1-j}; sliding the row index gives u[L-j : T-j].
    U_tilde = _kron_rows([u[L - j: T - j] for j in range(L)], u[L + 1: T + 1])
    if y is None:
        y_slice = np.zeros(rows)
    else:
        y = np.asarray(y, dtype=float).ravel()
        if y.shape[0] != T + 1:
            raise ParameterError("y must hold the full output sequence y_0..y_T")
        y_slice = y[L + 1: T + 1].copy()
        if not np.all(np.isfinite(y_slice)):
            raise NumericalError("output sequence y must be finite")
    return DesignSystem(U_tilde=U_tilde, y=y_slice, L=L, T=T, p=p)


def build_design(traj: Trajectory, L: int) -> DesignSystem:
    """Design matrix and target vector for a simulated trajectory."""
    return design_from_inputs(traj.u, L, traj.y)


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Least-squares solution together with its conditioning diagnostics."""

    G_hat: np.ndarray
    gram: np.ndarray
    lambda_min: float
    lambda_max: float
    residual_norm: float
    solver_mode: str  # "full_rank" | "min_norm"


def estimate_markov(design: DesignSystem) -> EstimateReport:
    """Solve the least-squares problem for G.

    When the Gram matrix is full rank (smallest eigenvalue above
    RANK_TOL times the largest) the unique normal-equation solution is
    returned, solved on the Gram matrix already formed for the rank test;
    otherwise the minimum-Euclidean-norm minimizer is used and flagged,
    which keeps interpolation-regime sweeps running instead of failing.
    """
    U, y = design.U_tilde, design.y
    gram = U.T @ U
    eigs = np.linalg.eigvalsh(gram)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    full_rank = lam_min > RANK_TOL * lam_max and lam_max > 0.0
    if full_rank:
        # Normal equations: accurate to about eps * cond(U)^2, and the
        # certified rank keeps cond(U)^2 below 1 / RANK_TOL.
        theta = np.linalg.solve(gram, U.T @ y)
    else:
        # Minimum-norm solution by SVD (LAPACK gelsd).
        theta = np.linalg.lstsq(U, y, rcond=None)[0]
    residual = float(np.linalg.norm(y - U @ theta))
    return EstimateReport(
        G_hat=unvec(theta, design.p, design.p * design.L),
        gram=gram,
        lambda_min=lam_min,
        lambda_max=lam_max,
        residual_norm=residual,
        solver_mode="full_rank" if full_rank else "min_norm",
    )


def ellipsoidal_error(G_hat: np.ndarray, G_true: np.ndarray, design: DesignSystem) -> float:
    """Design-weighted error ||vec(G_hat) - vec(G)||_V with V = U^T U.

    Evaluated in the factored form ||U (vec(G_hat) - vec(G))||_2 for
    numerical stability.
    """
    G_hat = np.atleast_2d(np.asarray(G_hat, dtype=float))
    G_true = np.atleast_2d(np.asarray(G_true, dtype=float))
    if G_hat.shape != G_true.shape:
        raise ParameterError(f"shape mismatch: {G_hat.shape} vs {G_true.shape}")
    delta = vec(G_hat) - vec(G_true)
    return float(np.linalg.norm(design.U_tilde @ delta))


def empirical_input_bound(u: np.ndarray) -> float:
    """Largest input norm observed in the sequence; the default beta."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    return float(np.max(np.linalg.norm(u, axis=1)))


def surrogate_input_bound(p: int, T: int, delta: float) -> float:
    """sqrt(p log(T/delta)) surrogate for unbounded (sub-Gaussian) inputs."""
    if not (0.0 < delta < 1.0) or T < 1:
        raise ParameterError("need T >= 1 and delta in (0, 1)")
    return math.sqrt(p * math.log(T / delta))


@dataclass(frozen=True)
class BoundTerms:
    """Constants entering the high-probability error bound.

    sigma_w_sq and sigma_e_sq are the process-noise and truncated-state
    variance proxies; K = max(||B||, ||C||); Xi is the explicit
    conditional-covariance constant

        Xi = sigma_z^2 + 3 ||Sigma_w|| ||F||_F^2 beta^2 L (1 + phi rho^L/(1-rho))
             + 2 ||Gamma_w_inf|| ||C A^L||^2 beta^2 phi/(1-rho).
    """

    sigma_w_sq: float
    sigma_e_sq: float
    K: float
    Xi: float
    beta: float
    rho: float
    phi: float
    delta: float

    def to_dict(self) -> dict:
        return asdict(self)


def bound_terms(model: StateSpaceModel, noise: NoiseSpec, L: int, beta: float,
                delta: float, rho: float | None = None) -> BoundTerms:
    """Evaluate every constant the error bound needs.

    rho defaults to halfway between the spectral radius and one.
    """
    if L < 1:
        raise ParameterError("L must be >= 1")
    if not (0.0 < delta < 1.0):
        raise ParameterError("delta must lie in (0, 1)")
    if beta <= 0.0:
        raise ParameterError("beta must be positive")
    sr = model.require_stable()
    if rho is None:
        rho = default_decay_rate(model)
    if not (sr < rho < 1.0):
        raise ParameterError(f"rho must lie in (spectral radius, 1), got {rho}")
    phi = transient_factor(model.A, rho)
    mp = markov_params(model, L)
    F_fro_sq = float(np.linalg.norm(mp.F)) ** 2
    CAL = model.C @ np.linalg.matrix_power(model.A, L)
    CAL_sq = float(np.linalg.norm(CAL, 2)) ** 2
    sigma_w_norm = float(np.linalg.norm(noise.sigma_w, 2))
    gamma_inf_norm = float(np.linalg.norm(
        controllability_gramian(model, noise.sigma_w), 2))
    tail = phi * rho**L / (1.0 - rho)
    sigma_w_sq = sigma_w_norm * F_fro_sq * (1.0 + tail)
    sigma_e_sq = gamma_inf_norm * CAL_sq * phi / (1.0 - rho)
    K = max(float(np.linalg.norm(model.B, 2)), float(np.linalg.norm(model.C, 2)))
    Xi = (noise.sigma_z**2
          + 3.0 * sigma_w_norm * F_fro_sq * beta**2 * L * (1.0 + tail)
          + 2.0 * gamma_inf_norm * CAL_sq * beta**2 * phi / (1.0 - rho))
    return BoundTerms(sigma_w_sq=sigma_w_sq, sigma_e_sq=sigma_e_sq, K=K, Xi=Xi,
                      beta=beta, rho=rho, phi=phi, delta=delta)


@dataclass(frozen=True)
class BoundReport:
    """Ellipsoidal-norm bound plus its Frobenius-norm companion
    (value / sqrt(lambda_min) when lambda_min is available)."""

    value: float
    fro_value: float | None


def bound_data_dependent(model: StateSpaceModel, terms: BoundTerms, L: int, T: int,
                         lambda_min: float | None = None) -> BoundReport:
    """Error bound holding with probability at least 1 - delta:

        sqrt(p^2 L Xi / delta) + beta^2 K^2 phi rho^L / (1 - rho) * sqrt(T - L)

    on the design-weighted error.  Dividing by sqrt(lambda_min) of the
    Gram matrix gives the Frobenius-norm version.
    """
    if T <= L:
        raise ParameterError("need T > L")
    p = model.p
    first = math.sqrt(p * p * L * terms.Xi / terms.delta)
    second = (terms.beta**2 * terms.K**2 * terms.phi * terms.rho**L
              / (1.0 - terms.rho) * math.sqrt(T - L))
    value = first + second
    fro = None
    if lambda_min is not None and lambda_min > 0.0:
        fro = value / math.sqrt(lambda_min)
    return BoundReport(value=value, fro_value=fro)


def choose_L(model: StateSpaceModel, noise: NoiseSpec, T: int, delta: float,
             beta: float, rho: float | None = None, L_max: int = 200) -> int:
    """Smallest even block count L >= 2n balancing bias against variance.

    Scans L upward and returns the first value at which the exponentially
    decaying bias term drops below the stochastic term,

        2 beta^2 ||B|| ||C|| phi rho^L / (1 - rho)
            <= sqrt(p^2 L Xi(L) / (delta (T - L))).

    Both sides depend on L, so the fixed point is resolved by the scan
    itself.
    """
    model.require_stable()
    if rho is None:
        rho = default_decay_rate(model)
    n, p = model.n, model.p
    BC = float(np.linalg.norm(model.B, 2)) * float(np.linalg.norm(model.C, 2))
    last_gap = None
    for L in range(2 * n, L_max + 1, 2):
        if T <= L:
            break
        terms = bound_terms(model, noise, L, beta, delta, rho=rho)
        bias = 2.0 * beta**2 * BC * terms.phi * rho**L / (1.0 - rho)
        noise_floor = math.sqrt(p * p * L * terms.Xi / (delta * (T - L)))
        if bias <= noise_floor:
            return L
        last_gap = (L, bias, noise_floor)
    detail = ""
    if last_gap is not None:
        detail = (f"; at L={last_gap[0]} the bias term {last_gap[1]:.3e} still exceeds "
                  f"the noise floor {last_gap[2]:.3e}")
    raise InfeasibleError(f"no even L in [2n, {L_max}] satisfies the selection rule{detail}")


def predict(G_hat: np.ndarray, u_hist: np.ndarray, u_next: np.ndarray) -> float:
    """One-step output prediction u_next^T G_hat ubar.

    u_hist holds the last L inputs in chronological order (oldest first).
    """
    G_hat = np.atleast_2d(np.asarray(G_hat, dtype=float))
    u_hist = np.atleast_2d(np.asarray(u_hist, dtype=float))
    u_next = np.asarray(u_next, dtype=float).ravel()
    p = G_hat.shape[0]
    L = G_hat.shape[1] // p
    if u_hist.shape != (L, p):
        raise ParameterError(f"history must be the last {L} inputs of dimension {p}")
    ubar = u_hist[::-1].reshape(-1)
    return float(u_next @ G_hat @ ubar)


def prediction_bound(design: DesignSystem, report: EstimateReport, G_true: np.ndarray,
                     model: StateSpaceModel, noise: NoiseSpec, traj: Trajectory,
                     u_next: np.ndarray, beta: float | None = None) -> float | None:
    """Mean-squared-error bound for the one-step prediction (oracle mode).

        2 ||vec(G_hat) - vec(G)||_V^2 ||ubar_T (x) u_{T+1}||_{V^-1}^2
        + 2 beta^2 ||C A^L||^2 ||Gamma_u^(T) + Gamma_w^(T)||
        + beta^2 ||Sigma_w|| ||F||_F^2 + sigma_z^2.

    Requires the true G (validation facility).  Returns None when the Gram
    matrix is singular, in which case no bound is available.
    """
    if report.solver_mode != "full_rank" or report.lambda_min <= 0.0:
        return None
    u_next = np.asarray(u_next, dtype=float).ravel()
    L, T = design.L, design.T
    if beta is None:
        beta = max(empirical_input_bound(traj.u), float(np.linalg.norm(u_next)))
    ubar = stack_recent_inputs(traj.u, T, L)
    k = np.kron(ubar, u_next)
    ell_sq = ellipsoidal_error(report.G_hat, G_true, design) ** 2
    k_weight = float(k @ np.linalg.solve(report.gram, k))
    mp = markov_params(model, L)
    CAL = model.C @ np.linalg.matrix_power(model.A, L)
    gamma_w = controllability_gramian(model, noise.sigma_w, horizon=T)
    gamma_u = input_gramian(model, traj.u)
    return (2.0 * ell_sq * k_weight
            + 2.0 * beta**2 * float(np.linalg.norm(CAL, 2))**2
            * float(np.linalg.norm(gamma_u + gamma_w, 2))
            + beta**2 * float(np.linalg.norm(noise.sigma_w, 2))
            * float(np.linalg.norm(mp.F))**2
            + noise.sigma_z**2)


def effective_noise_autocov(model: StateSpaceModel, noise: NoiseSpec, u: np.ndarray,
                            tau: int, tau_prime: int, L: int) -> float:
    """Closed-form conditional autocovariance Cov(zeta_a, zeta_b | u) for
    a = tau+1, b = tau'+1.

    Given u, the noise part of zeta_t is sum_{i<t} u_t^T C A^{t-1-i} w_i + z_t,
    so with m = min(a, b) only the process noises w_0..w_{m-1} are shared:

        Cov = g_a^T Gamma_w^{(m-1)} g_b + sigma_z^2 [a = b],
        g_a = (A^{a-m})^T C^T u_a,

    where Gamma_w^{(h)} = sum_{j=0..h} A^j Sigma_w (A^j)^T.  The paper's
    four terms (window overlap, truncated state, two state/window cross
    terms) split that one sum at t - L, so they add up to this value and
    it does not depend on L; L only bounds the lags, L <= tau, tau' <= T-1.
    """
    u = _as_columns(u)
    T = u.shape[0] - 1
    if not (L <= tau <= T - 1 and L <= tau_prime <= T - 1):
        raise ParameterError(f"need L <= tau, tau' <= T-1; got tau={tau}, tau'={tau_prime}, T={T}")
    A, C = model.A, model.C
    a, b = tau + 1, tau_prime + 1
    m = min(a, b)
    g_a = np.linalg.matrix_power(A.T, a - m) @ (C.T @ u[a])
    g_b = np.linalg.matrix_power(A.T, b - m) @ (C.T @ u[b])
    gamma_w = controllability_gramian(model, noise.sigma_w, horizon=m - 1)
    term_z = noise.sigma_z**2 if a == b else 0.0
    return float(g_a @ gamma_w @ g_b) + term_z
