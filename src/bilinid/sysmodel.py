"""System definitions, simulation, and system-theoretic constants.

The model has linear state transitions driven by inputs and process noise,
and a bilinear readout: the scalar output is the current input contracted
against a linear function of the state, plus measurement noise,

    x[t+1] = A x[t] + B u[t] + w[t],        x[0] = 0,
    y[t]   = u[t]^T C x[t] + z[t].

This module owns the model/noise/input data types, the trajectory
simulator, exact impulse-response blocks (C A^i B), and the constants that
enter the finite-sample error bounds (spectral radius, transient factor,
controllability Gramians).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import NumericalError, ParameterError

# powers transient_factor scans for one whose norm certifies decay
TRANSIENT_MAX_POWERS = 2_000_000
# Smith doublings _infinite_gramians takes for a Gramian to converge
GRAMIAN_MAX_DOUBLINGS = 64


def derive_rng(base_seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (base_seed, key).

    Derived streams are independent and do not depend on scheduling, so
    parallel and serial sweeps produce bitwise-identical results.
    """
    ss = np.random.SeedSequence(entropy=int(base_seed),
                                spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def _spectral_radii(A: np.ndarray) -> np.ndarray:
    """Spectral radius of every matrix of the (k, n, n) stack A, each
    bitwise the one its own matrix gets in a stack of one."""
    return np.max(np.abs(np.linalg.eigvals(A)), axis=-1)


def _spectral_norms(M: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix of the (k, r, c) stack M:
    the values np.linalg.norm(M_j, 2) returns, without its axis handling."""
    return np.linalg.svd(M, compute_uv=False)[:, 0]


def _input_drive(B: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """Write every row's B u[t] to out (len(u), n) in one stacked product
    of mat-vecs, bitwise equal to B @ u[t]; the single GEMM u @ B.T can
    differ in the last bit."""
    np.matmul(B, u[:, :, None], out=out[..., None])


def _require_allocatable(*shape: int) -> None:
    """Raise MemoryError for a float array of this shape past numpy's size
    limit, where numpy raises ValueError, so that such a size fails as one
    the machine merely cannot hold does."""
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"cannot allocate a float array of shape {shape}")


def _as_matrix(M, rows: int | None = None, cols: int | None = None, name: str = "matrix") -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if rows is not None and M.shape[0] != rows:
        raise ParameterError(f"{name} must have {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise ParameterError(f"{name} must have {cols} columns, got {M.shape[1]}")
    return M


def _as_columns(a) -> np.ndarray:
    """Float array of a sequence, with a column axis added to 1-D input."""
    a = np.asarray(a, dtype=float)
    return a[:, None] if a.ndim == 1 else a


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Read-only C-ordered float copy of arr, so that a frozen type never
    shares memory with, or locks, the caller's array."""
    arr = np.array(arr, dtype=float, order="C")
    arr.setflags(write=False)
    return arr


def _stack(models, names: str) -> tuple[np.ndarray, ...]:
    """The (k, ...) stacks of the matrices named in names ("A", "B" or "C")
    of a batch of k models, one stack per name.  The one batch rule:
    ParameterError for an empty batch, for anything but a sequence of
    models (a bare model included) or for models whose named matrices
    differ in shape."""
    try:
        models = list(models)
        stacks = [[getattr(m, name) for m in models] for name in names]
    except (TypeError, AttributeError):
        raise ParameterError("a batch must be a sequence of models") from None
    if not models:
        raise ParameterError("a batch needs at least one model")
    for name, mats in zip(names, stacks):
        if any(M.shape != mats[0].shape for M in mats):
            raise ParameterError(f"the models of a batch must share the shape of {name}")
    return tuple(np.stack(mats) for mats in stacks)


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """The unknown system: transition A (n x n), input map B (n x p),
    observation map C (p x n)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, name="A")
        n = A.shape[0]
        if A.shape[1] != n:
            raise ParameterError(f"A must be square, got {A.shape}")
        B = _as_matrix(self.B, rows=n, name="B")
        p = B.shape[1]
        C = _as_matrix(self.C, rows=p, cols=n, name="C")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "B", _freeze(B))
        object.__setattr__(self, "C", _freeze(C))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]


# Tolerance of the noise-covariance checks, relative to the largest |entry|
_COV_RTOL = 1e-10
# the largest sigma_z whose square sigma_z^2 is a finite float
_MAX_SIGMA_Z = math.sqrt(sys.float_info.max)


def _cov_tol(S: np.ndarray) -> float:
    return _COV_RTOL * float(np.max(np.abs(S), initial=0.0))


def _psd_factor(S: np.ndarray) -> np.ndarray:
    """Factor R with R R^T = S, valid for singular PSD matrices.

    Raises ParameterError unless S is symmetric positive semidefinite
    (to within _cov_tol(S)).
    """
    tol = _cov_tol(S)
    if np.max(np.abs(S - S.T), initial=0.0) > tol:
        raise ParameterError("process-noise covariance must be symmetric")
    lam, V = np.linalg.eigh(S)
    if lam.size and float(lam[0]) < -tol:
        raise ParameterError("process-noise covariance must be positive semidefinite")
    lam = np.clip(lam, 0.0, None)
    return V * np.sqrt(lam)


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Process/measurement noise description.

    sigma_w is the n x n process-noise covariance, sigma_z the measurement
    noise standard deviation.  The samplers and every closed form (bound
    constants, effective-noise autocovariance, prediction bound) read these
    same two values; family selects only the shape of the law:

    - "gaussian": w ~ N(0, sigma_w), z ~ N(0, sigma_z^2).
    - "exponential": every entry of w and z is an independent exponential
      draw with mean sigma_z.  With centered=True that mean is subtracted,
      which restores the zero-mean assumption; centered=False keeps the raw
      skewed draws.  Either way the entry variance is sigma_z^2, so
      sigma_w must equal sigma_z^2 I with sigma_z > 0.
      NoiseSpec.exponential(n, rate) builds the spec of rate `rate`
      (sigma_z = 1/rate).

    centered=False is refused for the Gaussian family, which never reads it.
    """

    sigma_w: np.ndarray
    sigma_z: float
    family: str = "gaussian"
    centered: bool = True
    # R with R R^T = sigma_w, factored once for the Gaussian sampler
    w_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        S = _as_matrix(self.sigma_w, name="sigma_w")
        if S.shape[0] != S.shape[1]:
            raise ParameterError("sigma_w must be square")
        if not np.all(np.isfinite(S)):
            raise ParameterError("sigma_w must have finite entries")
        if not 0.0 <= self.sigma_z < math.inf:
            raise ParameterError("sigma_z must be finite and nonnegative")
        if self.sigma_z > _MAX_SIGMA_Z:
            raise ParameterError(f"sigma_z {self.sigma_z!r} gives a noise variance "
                                 f"sigma_z^2 past the float range")
        factor = _psd_factor(S)
        if self.family not in ("gaussian", "exponential"):
            raise ParameterError(f"unknown noise family {self.family!r}")
        if self.family == "exponential":
            if not self.sigma_z > 0:
                raise ParameterError("exponential noise needs sigma_z > 0")
            mismatch = np.abs(S - self.sigma_z**2 * np.eye(S.shape[0]))
            if np.max(mismatch, initial=0.0) > _cov_tol(S):
                raise ParameterError(
                    "exponential noise has entrywise covariance sigma_z^2 I; "
                    "construct it with NoiseSpec.exponential()")
        elif not self.centered:
            raise ParameterError("gaussian noise is zero-mean; it takes no centered=False")
        object.__setattr__(self, "sigma_w", _freeze(S))
        object.__setattr__(self, "w_factor", _freeze(factor))
        object.__setattr__(self, "sigma_z", float(self.sigma_z))

    @classmethod
    def gaussian(cls, sigma_w, sigma_z: float) -> "NoiseSpec":
        return cls(sigma_w=sigma_w, sigma_z=sigma_z, family="gaussian")

    @classmethod
    def exponential(cls, n: int, rate: float = 1.0, centered: bool = True) -> "NoiseSpec":
        if not rate > 0:
            raise ParameterError("exponential rate must be positive")
        with np.errstate(over="ignore", divide="ignore"):
            try:
                sigma_w = np.eye(n) / rate**2
            except OverflowError:  # rate^2 past the float range: 1/rate^2 underflows
                sigma_w = np.eye(n) * (1.0 / rate) ** 2
        if not np.all(np.isfinite(sigma_w)):
            raise ParameterError(f"exponential rate {rate!r} gives a noise variance "
                                 f"1/rate^2 past the float range")
        return cls(sigma_w=sigma_w, sigma_z=1.0 / rate,
                   family="exponential", centered=centered)

    @classmethod
    def none(cls, n: int) -> "NoiseSpec":
        return cls.gaussian(np.zeros((n, n)), 0.0)

    @property
    def n(self) -> int:
        return self.sigma_w.shape[0]

    def _exponential(self, size, rng: np.random.Generator,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Exponential draws of mean sigma_z, shifted to zero mean when
        centered.  Standard draws scaled by sigma_z are bitwise the draws of
        rng.exponential(scale=sigma_z)."""
        draws = rng.standard_exponential(size=size, out=out)
        draws *= self.sigma_z
        if self.centered:
            draws -= self.sigma_z
        return draws

    def sample_w(self, count: int, rng: np.random.Generator,
                 out: np.ndarray | None = None) -> np.ndarray:
        """count process-noise vectors, shape (count, n), written to out
        when it is given."""
        if self.family == "exponential":
            return self._exponential((count, self.n), rng, out)
        draws = rng.standard_normal((count, self.n), out=out)
        # with out, numpy copies the draws before the product overwrites them
        return np.matmul(draws, self.w_factor.T, out=out)

    def sample_z(self, count: int, rng: np.random.Generator,
                 out: np.ndarray | None = None) -> np.ndarray:
        """count measurement-noise scalars, shape (count,), written to out
        when it is given."""
        if self.family == "exponential":
            return self._exponential(count, rng, out)
        draws = rng.standard_normal(count, out=out)
        draws *= self.sigma_z
        return draws


@dataclass(frozen=True, eq=False)
class InputDesign:
    """Random input law used to excite the system.

    kinds:
    - "gaussian_isotropic": u ~ N(0, I_p); zero mean, identity covariance;
      it takes no beta.
    - "bounded_sphere": u uniform on the sphere of radius beta, so
      ||u|| = beta exactly; beta = sqrt(p) (the default) makes the
      covariance the identity.

    Fixed (deterministic) inputs have no design: pass the (T+1, p) array
    itself to simulate or design_from_inputs.
    """

    kind: str
    p: int
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian_isotropic", "bounded_sphere"):
            raise ParameterError(f"unknown input kind {self.kind!r}")
        if self.p < 1:
            raise ParameterError("input dimension must be >= 1")
        if self.kind == "bounded_sphere":
            beta = math.sqrt(self.p) if self.beta is None else float(self.beta)
            if not 0.0 < beta < math.inf:
                raise ParameterError("sphere radius must be finite and positive")
            object.__setattr__(self, "beta", beta)
        elif self.beta is not None:
            raise ParameterError(f"input kind {self.kind!r} takes no beta")

    @classmethod
    def gaussian(cls, p: int) -> "InputDesign":
        return cls(kind="gaussian_isotropic", p=p)

    @classmethod
    def sphere(cls, p: int, beta: float | None = None) -> "InputDesign":
        return cls(kind="bounded_sphere", p=p, beta=beta)

    def sample_iid(self, count: int, rng: np.random.Generator,
                   out: np.ndarray | None = None) -> np.ndarray:
        """count i.i.d. input vectors, shape (count, p), written to out when
        it is given.  The draws fill row after row and a sphere draw is
        normalised row by row, so consecutive calls give bitwise the rows
        of one call for their total count."""
        _require_allocatable(count, self.p)
        raw = rng.standard_normal((count, self.p), out=out)
        if self.kind == "gaussian_isotropic":
            return raw
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        # (beta raw) / norms in place, beta's power of two applied last: the
        # same bits wherever beta raw is finite, and no overflow, as |raw| <= norms
        mantissa, exponent = math.frexp(self.beta)
        np.multiply(raw, mantissa, out=raw)
        np.divide(raw, norms, out=raw)
        return np.ldexp(raw, exponent, out=raw)

    def sample_sequence(self, T: int, rng: np.random.Generator) -> np.ndarray:
        """Input sequence u_0..u_T, shape (T+1, p)."""
        return self.sample_iid(T + 1, rng)


class Trajectory(NamedTuple):
    """A simulated input/output record of horizon T, built and frozen by
    simulate_batch.

    u has shape (T+1, p) and y shape (T+1,).  When diagnostics were
    requested, x (T+1, n), w (T, n) and z (T+1,) expose the hidden states
    and the realized noises; the recursion then holds exactly:
    x[t+1] = A x[t] + B u[t] + w[t] and y[t] = u[t]^T C x[t] + z[t].
    """

    u: np.ndarray
    y: np.ndarray
    T: int
    x: np.ndarray | None = None
    w: np.ndarray | None = None
    z: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.u.shape[1]

    @property
    def has_diagnostics(self) -> bool:
        return self.x is not None and self.w is not None and self.z is not None


class MarkovParams(NamedTuple):
    """Impulse-response matrix G = [C B | C A B | ... | C A^(L-1) B] (p x pL),
    built and frozen by markov_params."""

    G: np.ndarray


def random_model(n: int, p: int, rho: float, seed) -> StateSpaceModel:
    """Random test system: A diagonal with eigenvalues ~ U[0, rho],
    B with N(0, 1/n) entries, C with N(0, 1/p) entries.
    """
    if n < 1 or p < 1:
        raise ParameterError("dimensions must be >= 1")
    if not (0.0 < rho < 1.0):
        raise ParameterError(f"rho must lie in (0, 1), got {rho}")
    _require_allocatable(n, max(n, p))  # A is n x n, B and C n x p
    rng = np.random.default_rng(seed)
    eigs = rng.uniform(0.0, rho, size=n)
    A = np.diag(eigs)
    B = rng.standard_normal((n, p)) / math.sqrt(n)
    C = rng.standard_normal((p, n)) / math.sqrt(p)
    return StateSpaceModel(A=A, B=B, C=C)


def simulate(model: StateSpaceModel, noise: NoiseSpec, inputs, T: int, seed,
             diagnostics: bool = False) -> Trajectory:
    """Roll the system forward from the zero state for T steps.

    inputs is a random InputDesign, sampled from the seed's generator, or
    a fixed (T+1, p) input array, used as given.  Draw order (inputs, then
    process noise, then measurement noise) is fixed so that a seed fully
    determines the trajectory.  This is simulate_batch with a batch of one.
    """
    return simulate_batch([model], noise, inputs, T, [seed], diagnostics)[0]


def simulate_batch(models, noise: NoiseSpec, inputs, T: int, seeds,
                   diagnostics: bool = False) -> list[Trajectory]:
    """One trajectory per (models[i], seeds[i]), all T steps in one loop.

    Trial i draws from its own generator np.random.default_rng(seeds[i]),
    in simulate's order: inputs, process noise, measurement noise.  The
    models must share n and p (_stack).  All k states then advance together,
    x[t+1] = (A x[t] + B u[t]) + w[t], through one stacked product of
    mat-vecs per step, each bitwise equal to its own A @ x[t]; so
    trajectory i is bitwise the one a separate simulate call gives.  Every
    trial draws before the (T+1, k, n) stacks are allocated, so a horizon
    that cannot be allocated fails in the first draw with MemoryError.
    """
    models, seeds = list(models), list(seeds)
    if len(seeds) != len(models):
        raise ParameterError("simulate_batch needs one seed per model")
    if T < 1:
        raise ParameterError("horizon T must be >= 1")
    A, B, C = _stack(models, "ABC")
    k, n, p = B.shape
    if noise.n != n:
        raise ParameterError("noise covariance dimension does not match the model")
    if isinstance(inputs, InputDesign):
        if inputs.p != p:
            raise ParameterError("input design dimension does not match the model")
    else:
        inputs = _as_columns(inputs)
        if inputs.shape != (T + 1, p):
            raise ParameterError(f"input sequence must have shape {(T + 1, p)}, got {inputs.shape}")

    us, ws, zs = [], [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        us.append(inputs.sample_sequence(T, rng) if isinstance(inputs, InputDesign) else inputs)
        ws.append(noise.sample_w(T, rng))
        zs.append(noise.sample_z(T + 1, rng))

    # Time-major stacks, so that every step reads and writes contiguous
    # (k, n) rows.  x[t+1] holds B u[t] until step t adds A x[t] to it and
    # then w[t], which leaves no separate stack of input drives.
    x = np.empty((T + 1, k, n))
    x[0] = 0.0
    W = np.empty((T, k, n))
    for i in range(k):
        _input_drive(B[i], us[i][:-1], out=x[1:, i])
        W[:, i] = ws[i]
        ws[i] = None  # each w is freed once the stack holds it
    Ax = np.empty((k, n, 1))
    x4 = x[..., None]
    for x_t, x_next, w_t in zip(x4[:-1], x4[1:], W[..., None]):
        np.matmul(A, x_t, out=Ax)
        np.add(Ax, x_next, out=x_next)
        np.add(x_next, w_t, out=x_next)

    trajectories = []
    for i in range(k):
        u, z, us[i], zs[i] = us[i], zs[i], None, None  # each freed once its copy is made
        x_i = np.ascontiguousarray(x[:, i])
        y = np.einsum("ti,ij,tj->t", u, C[i], x_i) + z
        diag = dict(x=_freeze(x_i), w=_freeze(W[:, i]), z=_freeze(z)) if diagnostics else {}
        trajectories.append(Trajectory(u=_freeze(u), y=_freeze(y), T=T, **diag))
    return trajectories


def _markov_blocks(A: np.ndarray, B: np.ndarray, C: np.ndarray,
                   L: int) -> tuple[np.ndarray, np.ndarray]:
    """(G, F) stacks, (k, p, pL) and (k, p, nL), of the models given by the
    stacks A (k, n, n), B (k, n, p) and C (k, p, n): the blocks C A^i B and
    C A^i for i < L by iterated multiplication, all k models through one
    stacked product per factor and step, each bitwise its own 2-D product."""
    G, F = [], []
    CAi = C
    for _ in range(L):
        F.append(CAi)
        G.append(CAi @ B)
        CAi = CAi @ A
    return np.concatenate(G, axis=-1), np.concatenate(F, axis=-1)


def markov_params(model: StateSpaceModel, L: int) -> MarkovParams:
    """G of the first L impulse-response blocks (block i, C A^i B, is the
    slice G[:, i p:(i+1) p]): the batch of one of _markov_blocks."""
    if L < 1:
        raise ParameterError("L must be >= 1")
    G = _markov_blocks(model.A[None], model.B[None], model.C[None], L)[0]
    return MarkovParams(G=_freeze(G[0]))


def transient_factor(A: np.ndarray, rho: Sequence[float]) -> np.ndarray:
    """Worst-case transient amplification sup_k ||A_j^k|| / rho_j^k of every
    matrix A_j of the (k, n, n) stack A, with one rate rho_j per matrix.

    Requires spectral_radius(A_j) < rho_j < 1 (otherwise the supremum may be
    infinite).  Powers of the rescaled matrix M = A_j/rho_j are scanned one
    at a time, and the scan stops at the first K with ||M^K|| < 1: by
    submultiplicativity every later power M^(qK+r) has norm below
    ||M^r||, a term already seen, so the running supremum is final.
    Raises NumericalError when no such K appears within
    TRANSIENT_MAX_POWERS (2,000,000) powers.

    The scans step together, one stacked product and one stacked SVD per
    power, and each matrix leaves the stack at its own K, so every factor
    is bitwise the one its matrix gets in a stack of one.  Anything but a
    nonempty (k, n, n) stack and k rates raises ParameterError.
    """
    shape = np.shape(A)
    if len(shape) != 3 or not shape[0] or shape[1] != shape[2]:
        raise ParameterError("transient_factor needs a nonempty (k, n, n) stack of matrices")
    if np.shape(rho) != shape[:1]:
        raise ParameterError("transient_factor needs one rho per matrix")
    A = np.asarray(A, dtype=float)
    rho = np.asarray(rho, dtype=float)
    for sr, r in zip(_spectral_radii(A), rho):
        if not (sr < r < 1.0):
            raise ParameterError(
                f"need spectral_radius(A) < rho < 1, got spectral radius {sr:.6g}, rho {r}")
    M = A / rho[:, None, None]
    power = np.empty_like(M)
    power[:] = np.eye(A.shape[1])
    sup, phi = np.ones(len(M)), np.empty(len(M))  # running suprema from the k = 0 terms
    todo = np.arange(len(M))  # the matrices of M, power and sup, still scanning
    for _ in range(TRANSIENT_MAX_POWERS):
        power = power @ M
        norms = _spectral_norms(power)
        done = norms < 1.0
        if done.any():
            phi[todo[done]] = sup[done]
            keep = ~done
            if not keep.any():
                return phi
            todo, power, M, sup, norms = todo[keep], power[keep], M[keep], sup[keep], norms[keep]
        np.maximum(sup, norms, out=sup)
    raise NumericalError(f"transient factor scan did not certify decay within "
                         f"{TRANSIENT_MAX_POWERS} powers")


def _truncated_gramians(A: np.ndarray, sigma_w: np.ndarray, horizon: int) -> np.ndarray:
    """Gamma^(h) = sum_{i=0..h} A_j^i sigma_w (A_j^i)^T, symmetrized, for
    every A_j of the (k, n, n) stack A.

    All k sums advance together, P <- P A and G += P sigma_w P^T, through
    one stacked product per factor and step, each bitwise equal to its own
    2-D product; so every G_j is bitwise the term-by-term sum of its own
    model, and the memory is O(k n^2) whatever the horizon.
    """
    P = np.empty_like(A)
    P[:] = np.eye(A.shape[1])
    P_next, PS, term = np.empty_like(A), np.empty_like(A), np.empty_like(A)
    G = np.zeros_like(A)
    for _ in range(horizon + 1):
        np.matmul(P, sigma_w, out=PS)
        np.matmul(PS, P.transpose(0, 2, 1), out=term)
        G += term
        np.matmul(P, A, out=P_next)
        P, P_next = P_next, P
    return 0.5 * (G + G.transpose(0, 2, 1))


def _input_gramians(A: np.ndarray, B: np.ndarray, u: np.ndarray) -> np.ndarray:
    """s_j s_j^T with s_j = sum_{i=0..T} A_j^i B_j u_j[T-i], for the (k, n, n)
    stack A, the (k, n, p) stack B and the (k, T+1, p) input sequences u.

    The k states advance together, s <- A s + B u[t], through one stacked
    product of mat-vecs per factor and step, each bitwise equal to its own
    A_j @ s_j and B_j @ u_j[t].
    """
    s = np.zeros((*A.shape[:2], 1))
    As, Bu = np.empty_like(s), np.empty_like(s)
    for u_t in u.transpose(1, 0, 2)[..., None]:
        np.matmul(B, u_t, out=Bu)
        np.matmul(A, s, out=As)
        np.add(As, Bu, out=s)
    return s * s.transpose(0, 2, 1)


def _infinite_gramians(A: np.ndarray, sigma_w: np.ndarray) -> np.ndarray:
    """Gamma^inf = sum_{i>=0} A_j^i sigma_w (A_j^i)^T, symmetrized, for every
    A_j of the (k, n, n) stack A of stable matrices, by Smith doubling:
    X <- X + A_k X A_k^T with A_k <- A_k^2, so that after s steps X sums
    the first 2^s terms.  A model's sum stops once its added term is at
    most 1e-13 of ||X|| (2-norm); NumericalError if any takes more than
    GRAMIAN_MAX_DOUBLINGS (64) doublings, or if a sum leaves the float
    range (a stable but far from normal A can have powers past it), with
    no RuntimeWarning.  A finite sum G whose G + G^T overflows is
    symmetrized as 0.5 G + 0.5 G^T, which is finite; every other Gramian
    is 0.5 (G + G^T).  A numpy error state that raises is left as the
    caller set it: under the CLI's np.errstate(over="raise") an overflow
    of a sum or of G + G^T raises FloatingPointError, whose line names
    this function.  The sums step together, one stacked product per factor and
    step, and each model leaves the stack at its own step, so every
    Gramian is bitwise the one its model gets alone.
    """
    X = np.empty_like(A)
    X[:] = sigma_w
    Ak, G = A, np.empty_like(A)
    todo = np.arange(len(A))  # the models of X and Ak, still doubling
    tiny = np.finfo(float).tiny
    quiet = {error: "ignore" for error, mode in np.geterr().items() if mode == "warn"}
    with np.errstate(**quiet):
        for _ in range(GRAMIAN_MAX_DOUBLINGS):
            term = Ak @ X @ Ak.transpose(0, 2, 1)
            X = X + term
            if not np.isfinite(X).all():  # term is finite wherever X is
                break
            Ak = Ak @ Ak
            done = _spectral_norms(term) <= 1e-13 * np.maximum(_spectral_norms(X), tiny)
            if done.any():
                G[todo[done]] = X[done]
                keep = ~done
                if not keep.any():
                    S = 0.5 * (G + G.transpose(0, 2, 1))
                    if not np.isfinite(S).all():  # G + G^T past the float range, G not
                        S = 0.5 * G + 0.5 * G.transpose(0, 2, 1)
                    return S
                todo, X, Ak = todo[keep], X[keep], Ak[keep]
        else:
            raise NumericalError(
                f"Gramian doubling did not converge in {GRAMIAN_MAX_DOUBLINGS} steps")
    raise NumericalError("the infinite Gramian is past the float range")


def controllability_gramian(models: Sequence[StateSpaceModel],
                            sigma_w: np.ndarray) -> np.ndarray:
    """The (k, n, n) stack of the Gramians sum_{i>=0} A_j^i sigma_w (A_j^i)^T
    of k models sharing n (they may differ in p; _stack), each requiring
    spectral radius < 1, by Smith doubling (_infinite_gramians).  Every
    Gramian is bitwise the one its model gets in a batch of one.
    """
    A, = _stack(models, "A")
    n = A.shape[1]
    S = _as_matrix(sigma_w, rows=n, cols=n, name="sigma_w")
    for radius in _spectral_radii(A):
        if not radius < 1.0:
            raise ParameterError(f"the infinite Gramian requires spectral radius < 1, "
                                 f"got {radius:.6g}")
    return _infinite_gramians(A, S)
