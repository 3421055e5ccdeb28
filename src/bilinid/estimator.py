"""Least-squares estimation of the impulse-response matrix G.

For t > L the output decomposes as

    y_t = (ubar_{t-1} (x) u_t)^T vec(G) + zeta_t,

where ubar_{t-1} stacks the L most recent inputs (current first), (x) is
the Kronecker product, and zeta_t collects the process-noise, truncated-
state, and measurement-noise contributions.  Estimation is ordinary least
squares on the (T-L) x p^2 L design matrix U of Kronecker rows, solved by
the normal equations on the smaller of its two Gram matrices (U^T U for a
tall design, U U^T for a wide one, whose solution is the minimum-norm
interpolator).

A design has one of two representations.  With at most p^2 L rows (a
wide or square design) it keeps its rows, which the minimum-norm solve
and the exact interpolation residual need, and which hold at most
(p^2 L)^2 entries.  A taller design is never materialized: its rows are
built BLOCK_ROWS (4096) at a time into one reused buffer, and it keeps
only V = U^T U, U^T y and y^T y, so building and fitting it take
O((p^2 L)^2 + BLOCK_ROWS p^2 L) memory whatever T is.  A design of at
most BLOCK_ROWS rows is one block; a longer one sums V over its blocks,
which costs about as much per row as one product over all of them.  Its
squared residual y^T y - theta^T U^T y is accurate to about eps y^T y,
and a Gram that is not certified full rank is solved by lstsq(V, U^T y,
rcond=RANK_TOL); a design that keeps its rows falls back to LAPACK gelsd
on U instead.  Random inputs may be drawn block by block as well
(design_from_inputs given an InputDesign), so that such a design never
holds its input sequence either.

Vectorization is column-major throughout, so that
u^T G ubar = (ubar (x) u)^T vec(G) holds identically.

Besides the estimator this module evaluates the finite-sample machinery
around it: the design-weighted (ellipsoidal) error norm, a high-probability
error bound with fully explicit constants, one-step output prediction with
its mean-squared-error bound, and the closed-form autocovariance of the
effective noise zeta.  fit chains design, least squares, errors and bound
for every sweep trial, coverage trial and CLI estimate or realization.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .exceptions import NumericalError, ParameterError
from .sysmodel import (
    InputDesign,
    NoiseSpec,
    StateSpaceModel,
    Trajectory,
    _as_columns,
    _input_gramians,
    _markov_blocks,
    _require_allocatable,
    _spectral_norms,
    _spectral_radii,
    _stack,
    _truncated_gramians,
    controllability_gramian,
    markov_params,
    transient_factor,
)

RANK_TOL = 1e-10
# Rows of a tall design built and accumulated at a time, in one reused
# (p^2 L) x BLOCK_ROWS buffer.
BLOCK_ROWS = 4096
# A design built to a lambda_min target (design_from_inputs) stops once
# its running Gram clears the target by STOP_MARGIN times its largest
# eigenvalue.  Later blocks add positive semidefinite Grams, so the full
# design's exact lambda_min is at least the prefix's (Weyl); the margin
# covers rounding.  In the worst case a computed Gram lies within
# (BLOCK_ROWS + blocks) eps/2 p^2 L lambda_max of the exact sum, about
# 5e-13 p^2 L lambda_max over the 46 blocks of a 187,453-row campaign
# design, and eigvalsh adds about p^2 L eps lambda_max.  At p^2 L = 16 the
# margin covers these errors for the prefix and for a full design whose
# lambda_max is up to about 130 times the prefix's; i.i.d. inputs raise
# lambda_max about in proportion to the rows, and a prefix reaches
# lambda_min >= (T - L)/4 only past about a quarter of them.
STOP_MARGIN = 1e-9
# sqrt of the smallest normal float: a vector with a smaller norm has
# squares that lose bits to underflow (_rescale_tiny)
TINY_NORM = 1.4916681462400413e-154


def vec(M: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(M, dtype=float).reshape(-1, order="F")


def unvec(v: np.ndarray, p: int, cols: int) -> np.ndarray:
    """Inverse of vec for a p x cols matrix."""
    return np.asarray(v, dtype=float).reshape((p, cols), order="F")


def _column_gram(U: np.ndarray) -> np.ndarray:
    """U^T U; the package forms a column Gram matrix only here."""
    return U.T @ U


class DesignSystem(NamedTuple):
    """Regression data extracted from one trajectory.

    Row t (for t = L+1 .. T) of the design U is ubar_{t-1} (x) u_t, a
    vector of length p^2 L, aligned with the output y_t; there are
    rows = T - L of them.  Every design carries Uty = U^T y, and V alone
    marks its representation.  A design of at most p^2 L rows keeps its
    rows: U_tilde is U, y the aligned outputs, and V and yty are None.  A
    taller design keeps only V = U^T U, Uty and yty = y^T y, and its
    U_tilde and y are empty, of shapes (0, p^2 L) and (0,).

    A U_tilde built by design_from_inputs is column-major (Fortran order):
    each of its p^2 L columns is one contiguous product of an input
    component with a lagged one, which is far cheaper to fill than
    T - L short rows, and the Gram product and solvers take either order.
    """

    U_tilde: np.ndarray
    y: np.ndarray
    L: int
    T: int
    p: int
    rows: int
    V: np.ndarray | None
    Uty: np.ndarray
    yty: float | None

    def gram(self) -> np.ndarray:
        """U^T U, the p^2 L x p^2 L Gram matrix; a design that keeps its
        rows forms it from them on each call."""
        return _column_gram(self.U_tilde) if self.V is None else self.V


def _kron_rows(window: np.ndarray, L: int, out: np.ndarray | None = None) -> np.ndarray:
    """Kronecker rows ubar_{t-1} (x) u_t of the (count + L, p) input window
    u_{t0-L}..u_{t0+count-1}, one per t = t0..t0+count-1: shape (count, p^2 L).

    Column (j p + i) p + k of row r is window[r+L-1-j, i] * window[r+L, k],
    written by one product per lag into that lag's p x p x count slab of a
    (p^2 L, count) buffer, out or a new one (the reshape splits its leading
    axis, so it is a view); the result is the buffer's transpose, a
    column-major view.  A product that overflows raises NumericalError.
    """
    count, p = window.shape[0] - L, window.shape[1]
    buf = np.empty((p * p * L, count)) if out is None else out
    slabs = buf.reshape(L, p, p, count)
    cur = window[L:].T[None]
    try:
        with np.errstate(over="raise"):
            for j in range(L):
                np.multiply(window[L - 1 - j:L - 1 - j + count].T[:, None], cur, out=slabs[j])
    except FloatingPointError as exc:
        raise NumericalError("Kronecker design rows overflow the float range") from exc
    return buf.T


def design_from_inputs(u: np.ndarray | InputDesign, L: int, y: np.ndarray | None = None,
                       T: int | None = None, rng: np.random.Generator | None = None,
                       lambda_min_target: float | None = None) -> DesignSystem:
    """Build the Kronecker-row design from an input sequence u_0..u_T.

    u is the (T+1, p) input array, or an InputDesign whose sequence u_0..u_T
    is drawn from rng here, as simulate draws it: then T and rng are
    required, no y is taken, and the generator is left where
    u.sample_sequence(T, rng) leaves it.  Both forms fill one window, L rows
    longer than a block, with u_1..u_L, then with each block's rows,
    copied from the array or drawn by sample_iid, carrying its last L rows
    over to the next block.  A drawn sequence is never held whole, and its
    inputs, from sample_sequence(L, rng) and then sample_iid, are bitwise
    those of sample_sequence(T, rng).

    y, when given, must hold the full output sequence y_0..y_T; the
    design uses the slice aligned with the rows.  A design of at most
    p^2 L rows is built as one block and keeps its rows; a taller one is
    built BLOCK_ROWS rows at a time into one buffer and keeps only the sums
    U^T U, U^T y and y^T y over its blocks (see DesignSystem).  A NaN or
    infinite input raises ParameterError; a Kronecker product or a sum
    beyond the float range, or a NaN or infinite output in that slice (an
    overflow of the simulated system), raises NumericalError.  A buffer
    past numpy's size limit raises MemoryError before any buffer is made.

    Given lambda_min_target, a taller design stops early: after a block
    that leaves more rows to come, once the running Gram is tall and its
    lambda_min (_lambda_min of eigvalsh, the value
    excitation.min_eig_design reports) is at least the target plus
    STOP_MARGIN times its largest eigenvalue, no further block is built.
    The design is then that of T' = L + (rows built so far) < T, bitwise
    the one this function builds for T'.  Later rows only add a positive
    semidefinite Gram, so the full design's lambda_min would have cleared
    the target as well (STOP_MARGIN covers the rounding).  A drawn design
    that stops leaves its generator where u.sample_sequence(T', rng)
    leaves it, with the rows after T' not drawn.
    """
    drawn = isinstance(u, InputDesign)
    if drawn:
        if T is None or rng is None or y is not None:
            raise ParameterError("drawn inputs need T and rng, and take no outputs")
        p = u.p
    else:
        if T is not None or rng is not None:
            raise ParameterError("T and rng go with an InputDesign, not an input array")
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
    if y is not None:
        y = np.asarray(y, dtype=float).ravel()
        if y.shape[0] != T + 1:
            raise ParameterError("y must hold the full output sequence y_0..y_T")
        y = y[L + 1: T + 1]
        if not np.all(np.isfinite(y)):
            raise NumericalError("output sequence y must be finite")
    d = p * p * L
    kept = rows <= d
    block = rows if kept else min(rows, BLOCK_ROWS)
    _require_allocatable(d, block)
    buf = np.empty((d, block))
    window = np.empty((L + block, p))
    window[:L] = u.sample_sequence(L, rng)[1:] if drawn else u[1:L + 1]
    V, Uty, yty, taken = None, np.zeros(d), np.float64(0.0), 0
    while taken < rows:
        # window[:L + count] holds u_{taken+1}..u_{taken+count+L}, the inputs of
        # rows taken+1..taken+count
        count = min(block, rows - taken)
        if drawn:
            u.sample_iid(count, rng, out=window[L:L + count])
        else:
            window[L:L + count] = u[taken + L + 1: taken + L + 1 + count]
        U = _kron_rows(window[:L + count], L, out=buf[:, :count])
        try:
            with np.errstate(over="raise"):
                if kept:
                    y = np.zeros(rows) if y is None else y.copy()
                    Uty = U.T @ y
                else:
                    gram = _column_gram(U)
                    if V is None:
                        V = gram
                    else:
                        V += gram
                    if y is not None:
                        y_block = y[taken:taken + count]
                        Uty += U.T @ y_block
                        yty += y_block @ y_block
        except FloatingPointError as exc:
            raise NumericalError("design Gram sums overflow the float range") from exc
        taken += count
        if lambda_min_target is not None and d < taken < rows:
            eigs = np.linalg.eigvalsh(V)
            if _lambda_min(float(eigs[0])) >= (lambda_min_target
                                               + STOP_MARGIN * float(eigs[-1])):
                rows, T = taken, L + taken
        window[:L] = window[count:count + L]
    if kept:
        return DesignSystem(U_tilde=U, y=y, L=L, T=T, p=p, rows=rows, V=None, Uty=Uty, yty=None)
    return DesignSystem(U_tilde=np.empty((0, d)), y=np.empty(0), L=L, T=T, p=p, rows=rows,
                        V=V, Uty=Uty, yty=float(yty))


class EstimateReport(NamedTuple):
    """Least-squares solution together with its conditioning diagnostics."""

    G_hat: np.ndarray
    lambda_min: float
    lambda_max: float
    residual_norm: float
    solver_mode: str  # "full_rank" | "min_norm"


def _lambda_min(eig: float) -> float:
    """lambda_min of U^T U from the eigensolver's smallest eigenvalue eig,
    clamped at zero: U^T U is positive semidefinite, so a negative eig is
    roundoff.  estimate_markov and excitation.min_eig_design both report
    this value."""
    return max(eig, 0.0)


def estimate_markov(design: DesignSystem) -> EstimateReport:
    """Solve the least-squares problem for G.

    One rule for every design: form the smaller of the two Gram matrices,
    U^T U when rows >= columns and the row Gram S = U U^T when rows <
    columns, and certify it when its smallest eigenvalue is above
    RANK_TOL times its largest.  A certified Gram is solved by the normal
    equations, one solve per Gram shape.

    - rows >= columns, certified: the unique solution
      theta = (U^T U)^-1 U^T y, from the design's Uty, square designs
      included; flagged full_rank.
    - rows < columns, certified: U has full row rank and
      theta = U^T S^-1 y is its exact minimum-norm interpolator.  S and
      U^T U share their nonzero spectrum, so lambda_max is that of S, and
      lambda_min is exactly 0.0 (rank U <= rows < columns).
    - otherwise: the minimum-norm minimizer, by LAPACK gelsd on U for a
      design that keeps its rows, and by lstsq(V, U^T y, rcond=RANK_TOL)
      on V = U^T U for a taller one.

    A design that keeps its rows gets ||y - U theta|| directly.  A taller
    design holds no rows, so its residual norm is
    sqrt(y^T y - theta^T U^T y), whose square is accurate to about
    eps y^T y.  Every fit but a certified one with rows >= columns is
    flagged min_norm, which keeps interpolation-regime sweeps running
    instead of failing.
    """
    U, y = design.U_tilde, design.y
    wide = design.rows < U.shape[1]
    gram = U @ U.T if wide else design.gram()
    eigs = np.linalg.eigvalsh(gram)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    # eigs ascend, so a lam_max <= 0 (or NaN) fails this test as well
    certified = lam_min > RANK_TOL * lam_max
    if certified:
        # Normal equations on a certified Gram: accurate to about eps * cond(U)^2,
        # and the certificate keeps cond(U)^2 below 1 / RANK_TOL.
        theta = U.T @ np.linalg.solve(gram, y) if wide else np.linalg.solve(gram, design.Uty)
    elif design.V is None:
        theta = np.linalg.lstsq(U, y, rcond=None)[0]
    else:
        theta = np.linalg.lstsq(gram, design.Uty, rcond=RANK_TOL)[0]
    if design.V is None:
        residual = float(np.linalg.norm(y - U @ theta))
    else:
        residual = math.sqrt(max(design.yty - float(theta @ design.Uty), 0.0))
    full_rank = certified and not wide
    return EstimateReport(
        G_hat=unvec(theta, design.p, design.p * design.L),
        lambda_min=0.0 if wide else _lambda_min(lam_min),
        lambda_max=lam_max,
        residual_norm=residual,
        solver_mode="full_rank" if full_rank else "min_norm",
    )


def ellipsoidal_error(G_hat: np.ndarray, G_true: np.ndarray, design: DesignSystem) -> float:
    """Design-weighted error ||vec(G_hat) - vec(G)||_V with V = U^T U.

    Evaluated in the factored form ||U (vec(G_hat) - vec(G))||_2 when the
    design keeps its rows, and as sqrt(Delta^T V Delta), accurate to about
    eps kappa(V) relative, when it keeps only V.
    """
    G_hat = np.atleast_2d(np.asarray(G_hat, dtype=float))
    G_true = np.atleast_2d(np.asarray(G_true, dtype=float))
    if G_hat.shape != G_true.shape:
        raise ParameterError(f"shape mismatch: {G_hat.shape} vs {G_true.shape}")
    delta = vec(G_hat) - vec(G_true)
    if design.V is None:
        return float(np.linalg.norm(design.U_tilde @ delta))
    return math.sqrt(max(float(delta @ design.gram() @ delta), 0.0))


def _rescale_tiny(norm: float, u: np.ndarray, axis: int | None = None) -> float:
    """norm, the largest of np.linalg.norm(u, axis=axis) (the norm of a 1-D
    u, or the largest row norm of a 2-D u with axis 1), kept with its bits
    unless it is below TINY_NORM.  There the squares of the entries
    underflow (1e-170 reads as 0.0), so it is taken again of u scaled by
    the power of two 2^e just above its largest absolute entry, as
    math.hypot scales, and multiplied back by 2^e."""
    if norm < TINY_NORM:
        e = int(np.frexp(np.max(np.abs(u)))[1])
        norm = math.ldexp(float(np.max(np.linalg.norm(np.ldexp(u, -e), axis=axis))), e)
    return norm


def empirical_input_bound(u: np.ndarray) -> float:
    """Largest input norm observed in the sequence; the default beta."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    return _rescale_tiny(float(np.max(np.linalg.norm(u, axis=1))), u, axis=1)


class BoundTerms(NamedTuple):
    """Constants entering the high-probability error bound.

    sigma_w_sq and sigma_e_sq are the process-noise and truncated-state
    variance proxies; K = max(||B||, ||C||); Xi is the explicit
    conditional-covariance constant

        Xi = sigma_z^2 + 3 ||Sigma_w|| ||F||_F^2 beta^2 L (1 + phi rho^L/(1-rho))
             + 2 ||Gamma_w_inf|| ||C A^L||^2 beta^2 phi/(1-rho).

    F_fro_sq = ||F||_F^2, CAL_sq = ||C A^L||^2 and sigma_w_norm =
    ||Sigma_w|| are kept for prediction_bound; to_dict reports the other
    eight.
    """

    sigma_w_sq: float
    sigma_e_sq: float
    K: float
    Xi: float
    beta: float
    rho: float
    phi: float
    delta: float
    F_fro_sq: float
    CAL_sq: float
    sigma_w_norm: float

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in
                ("sigma_w_sq", "sigma_e_sq", "K", "Xi", "beta", "rho", "phi", "delta")}


def bound_terms(models: Sequence[StateSpaceModel], noise: NoiseSpec, L: int,
                betas: Sequence[float], delta: float) -> list[BoundTerms]:
    """The BoundTerms of every model of a sequence sharing n and p
    (sysmodel._stack), models[j] with input bound betas[j] and decay rate
    rho = (1 + spectral radius) / 2, halfway between its spectral radius
    and one.  A caller with one model passes [model] and [beta] and takes
    the first entry.

    Every argument is checked before any constant is computed (the batch,
    one beta per model, L, delta, every beta, then model by model a
    spectral radius whose rate rho rounds below one), so a bad one raises
    the ParameterError its batch of one raises.  Then one stacked pass
    takes the spectral radii, the transient scans and the Smith doublings
    (each model stopping at its own step), the Markov blocks, C A^L and
    the 2-norms, each bitwise its own model's 2-D computation, so a
    model's terms do not depend on its batch.
    """
    A, B, C = _stack(models, "ABC")
    if np.shape(betas) != A.shape[:1]:
        raise ParameterError("bound_terms needs a sequence of one beta per model")
    if L < 1:
        raise ParameterError("L must be >= 1")
    if not (0.0 < delta < 1.0):
        raise ParameterError("delta must lie in (0, 1)")
    if any(beta <= 0.0 for beta in betas):
        raise ParameterError("beta must be positive")
    radii = _spectral_radii(A).tolist()
    for sr in radii:
        # a radius within one ulp of 1 is stable, but its rate rounds to 1
        if not 0.5 * (1.0 + sr) < 1.0:
            raise ParameterError(f"bound_terms needs a decay rate (1 + spectral radius)/2 "
                                 f"below 1, got spectral radius {sr!r}")
    rates = [0.5 * (1.0 + sr) for sr in radii]
    phis = transient_factor(A, rates).tolist()
    gamma_inf_norms = _spectral_norms(controllability_gramian(models, noise.sigma_w)).tolist()
    F = _markov_blocks(A, B, C, L)[1].reshape(len(A), 1, -1)
    # each flattened F_j times its transpose is the dot product np.linalg.norm(F_j) takes
    F_norms = np.sqrt(F @ F.transpose(0, 2, 1))[:, 0, 0].tolist()
    CAL_norms = _spectral_norms(C @ np.linalg.matrix_power(A, L)).tolist()
    Ks = np.maximum(_spectral_norms(B), _spectral_norms(C)).tolist()
    sigma_w_norm = float(np.linalg.norm(noise.sigma_w, 2))
    terms = []
    try:
        for beta, rho, phi, gamma_inf_norm, F_norm, CAL_norm, K in zip(
                betas, rates, phis, gamma_inf_norms, F_norms, CAL_norms, Ks):
            F_fro_sq, CAL_sq = F_norm ** 2, CAL_norm ** 2
            tail = phi * rho**L / (1.0 - rho)
            Xi = (noise.sigma_z**2
                  + 3.0 * sigma_w_norm * F_fro_sq * beta**2 * L * (1.0 + tail)
                  + 2.0 * gamma_inf_norm * CAL_sq * beta**2 * phi / (1.0 - rho))
            terms.append(BoundTerms(sigma_w_sq=sigma_w_norm * F_fro_sq * (1.0 + tail),
                                    sigma_e_sq=gamma_inf_norm * CAL_sq * phi / (1.0 - rho),
                                    K=K, Xi=Xi, beta=beta, rho=rho, phi=phi, delta=delta,
                                    F_fro_sq=F_fro_sq, CAL_sq=CAL_sq,
                                    sigma_w_norm=sigma_w_norm))
    except OverflowError as exc:  # a float power such as beta**2 past the float range
        raise NumericalError("the bound constants are past the float range") from exc
    return terms


class BoundReport(NamedTuple):
    """Ellipsoidal-norm bound plus its Frobenius-norm companion
    value / sqrt(lambda_min)."""

    value: float
    fro_value: float


def bound_data_dependent(p: int, terms: BoundTerms, L: int, T: int,
                         lambda_min: float) -> BoundReport:
    """Error bound holding with probability at least 1 - delta:

        sqrt(p^2 L Xi / delta) + beta^2 K^2 phi rho^L / (1 - rho) * sqrt(T - L)

    on the design-weighted error of a p-output model.  Dividing by
    sqrt(lambda_min) of the Gram matrix, which must be positive (that of
    a full-rank fit), gives the Frobenius-norm version.  A delta near the
    smallest subnormal overflows the quotient although its root is
    finite: the root is then sqrt(p^2 L Xi) / sqrt(delta), and every
    quotient that does not overflow keeps its direct form.  A bound past
    the float range raises NumericalError.
    """
    if T <= L:
        raise ParameterError("need T > L")
    if not lambda_min > 0.0:
        raise ParameterError(f"lambda_min must be positive, got {lambda_min!r}")
    a = p * p * L * terms.Xi
    q = a / terms.delta
    first = math.sqrt(q) if q < math.inf else math.sqrt(a) / math.sqrt(terms.delta)
    try:
        second = (terms.beta**2 * terms.K**2 * terms.phi * terms.rho**L
                  / (1.0 - terms.rho) * math.sqrt(T - L))
    except OverflowError as exc:  # a float power such as K**2 past the float range
        raise NumericalError("the data-dependent error bound is past the float range") from exc
    value = first + second
    fro = value / math.sqrt(lambda_min)
    # fro is value / sqrt(lambda_min): not finite whenever value is not
    if not math.isfinite(fro):
        raise NumericalError("the data-dependent error bound is past the float range")
    return BoundReport(value=value, fro_value=fro)


class FitResult(NamedTuple):
    """A fit of G beside the true G; a min-norm fit has no terms or bound
    (None).  Like every record here that holds arrays, it is read by field
    name, never compared with ==, hashed or iterated."""

    design: DesignSystem
    report: EstimateReport
    G: np.ndarray
    err_fro: float  # ||G_hat - G||_F
    err_ellipsoidal: float  # ellipsoidal_error(G_hat, G, design)
    terms: BoundTerms | None
    bound: BoundReport | None


def fit(model: StateSpaceModel, noise: NoiseSpec, traj: Trajectory, L: int,
        delta: float, terms: BoundTerms | None = None) -> FitResult:
    """Design, least-squares G, its errors and, for a full-rank fit, the
    data-dependent error bound.  Its constants are terms, when the caller
    has them (from a batched bound_terms call, for this model, L and delta,
    with whatever beta the caller needs), or else those of the batch
    [model] with beta the largest input norm of the trajectory."""
    design = design_from_inputs(traj.u, L, traj.y)
    report = estimate_markov(design)
    G = markov_params(model, L).G
    if report.solver_mode != "full_rank":
        terms = bound = None
    else:
        if terms is None:
            terms = bound_terms([model], noise, L, [empirical_input_bound(traj.u)], delta)[0]
        bound = bound_data_dependent(model.p, terms, L, design.T, lambda_min=report.lambda_min)
    return FitResult(design=design, report=report, G=G, terms=terms, bound=bound,
                     err_fro=float(np.linalg.norm(report.G_hat - G)),
                     err_ellipsoidal=ellipsoidal_error(report.G_hat, G, design))


def prediction_state_norms(models: Sequence[StateSpaceModel], noise: NoiseSpec,
                           us: np.ndarray) -> np.ndarray:
    """||Gamma_u^(h) + Gamma_w^(h)||_2 = ||E x_{h+1} x_{h+1}^T||_2 for every
    model of a batch, models[j] driven by its inputs us[j] = u_0..u_h
    ((k, h+1, p); the models share n and p, sysmodel._stack).  With
    u_0..u_{T-L} it is prediction_bound's state term, that of x_{T+1-L}.

    It reads no fit, so it can run before the fits.  Gamma_u^(h) and
    Gamma_w^(h) come from one batched recursion each, every model's bitwise
    the one it gets in a batch of one.
    """
    A, B = _stack(models, "AB")
    us = np.asarray(us, dtype=float)
    if us.ndim != 3 or us.shape[0] != len(A):
        raise ParameterError("prediction_state_norms needs one (h+1, p) input sequence "
                             "per model")
    gamma_w = _truncated_gramians(A, noise.sigma_w, us.shape[1] - 1)
    gamma_u = _input_gramians(A, B, us)
    return np.linalg.norm(gamma_u + gamma_w, 2, axis=(1, 2))


def prediction_bound(fit: FitResult, noise: NoiseSpec, traj: Trajectory,
                     u_next: np.ndarray, state_norm: float) -> float | None:
    """Mean-squared-error bound for the one-step prediction (oracle mode):

        2 ||vec(G_hat) - vec(G)||_V^2 ||ubar_T (x) u_{T+1}||_{V^-1}^2
        + 2 beta^2 ||C A^L||^2 ||Gamma_u^(T-L) + Gamma_w^(T-L)||
        + beta^2 ||Sigma_w|| ||F||_F^2 + sigma_z^2.

    Given u, y_{T+1} - y_hat = -k^T Delta + u_{T+1}^T C A^L x_{T+1-L} plus
    noise, so the state term is that of x_{T+1-L}.  fit is the fit of traj
    by its model, whose fit.err_ellipsoidal is ||vec(G_hat) - vec(G)||_V,
    ubar_T = [u_T; ...; u_{T-L+1}], state_norm the model's
    prediction_state_norms entry for traj.u[:T+1-L], and beta,
    ||C A^L||^2, ||Sigma_w|| and ||F||_F^2 the fit's fit.terms; beta must
    cover u_next as well: fit with
    beta = max(empirical_input_bound(traj.u), ||u_next||).  Requires the
    true G (validation facility).  A min_norm fit, whose Gram matrix is
    singular, has no bound: None.
    """
    if fit.terms is None:
        return None
    L, T, beta = fit.design.L, fit.design.T, fit.terms.beta
    # ubar_T (x) u_{T+1}: the one covariate row of the window u_{T-L+1}..u_T, u_next
    k = _kron_rows(np.vstack([traj.u[T - L + 1:T + 1], np.reshape(u_next, (1, -1))]), L)[0]
    k_weight = float(k @ np.linalg.solve(fit.design.gram(), k))
    terms = fit.terms
    return (2.0 * fit.err_ellipsoidal**2 * k_weight
            + 2.0 * beta**2 * terms.CAL_sq * float(state_norm)
            + beta**2 * terms.sigma_w_norm * terms.F_fro_sq
            + noise.sigma_z**2)


def effective_noise_autocov(model: StateSpaceModel, noise: NoiseSpec, u: np.ndarray,
                            taus: Sequence[int], L: int) -> np.ndarray:
    """Closed-form conditional autocovariances Cov(zeta_a, zeta_b | u) for
    every lag pair of taus, a = tau+1 and b = tau'+1: the len(taus) x
    len(taus) lag matrix whose entry (i, j) is that of taus[i], taus[j].

    Given u, the noise part of zeta_t is sum_{i<t} u_t^T C A^{t-1-i} w_i + z_t,
    so with m = min(a, b) only the process noises w_0..w_{m-1} are shared:

        Cov = g_a^T Gamma_w^{(m-1)} g_b + sigma_z^2 [a = b],
        g_a = (A^{a-m})^T C^T u_a,

    where Gamma_w^{(h)} = sum_{j=0..h} A^j Sigma_w (A^j)^T, computed once per
    distinct m by sysmodel._truncated_gramians.  The paper's four terms
    (window overlap, truncated state, two state/window cross terms) split
    that one sum at t - L, so they add up to this value and it does not
    depend on L; L only bounds the lags, L <= tau <= T-1.
    """
    u = _as_columns(u)
    T = u.shape[0] - 1
    times = [int(tau) + 1 for tau in taus]
    if not all(L + 1 <= t <= T for t in times):
        raise ParameterError(f"need L <= tau <= T-1 for every lag; got taus={list(taus)}, T={T}")
    A, C = model.A, model.C
    gamma_w = {m: _truncated_gramians(A[None], noise.sigma_w, m - 1)[0] for m in set(times)}
    cov = np.empty((len(times), len(times)))
    for i, a in enumerate(times):
        for j, b in enumerate(times):
            m = min(a, b)
            g_a = np.linalg.matrix_power(A.T, a - m) @ (C.T @ u[a])
            g_b = np.linalg.matrix_power(A.T, b - m) @ (C.T @ u[b])
            cov[i, j] = float(g_a @ gamma_w[m] @ g_b) + (noise.sigma_z**2 if a == b else 0.0)
    return cov
