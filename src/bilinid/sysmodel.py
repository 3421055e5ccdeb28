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
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NumericalError, ParameterError


def derive_rng(base_seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (base_seed, key).

    Derived streams are independent and do not depend on scheduling, so
    parallel and serial sweeps produce bitwise-identical results.
    """
    ss = np.random.SeedSequence(entropy=int(base_seed),
                                spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def spectral_radius(A: np.ndarray) -> float:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return float(np.max(np.abs(np.linalg.eigvals(A)))) if A.size else 0.0


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
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


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

    def spectral_radius(self) -> float:
        return spectral_radius(self.A)

    def require_stable(self) -> float:
        """Spectral radius, raising if it is not strictly below one.

        Bound and Gramian computations call this; simulation does not.
        """
        rho = self.spectral_radius()
        if rho >= 1.0:
            raise ParameterError(f"operation requires spectral radius < 1, got {rho:.6g}")
        return rho


def _psd_factor(S: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Factor R with R R^T = S, valid for singular PSD matrices.

    Raises ParameterError unless S is symmetric positive semidefinite
    (to within tol).
    """
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
    noise standard deviation.  family selects the sampling law:

    - "gaussian": w ~ N(0, sigma_w), z ~ N(0, sigma_z^2).
    - "exponential": every entry of w and z is an independent draw with
      density rate * exp(-rate * x) on x >= 0.  With centered=True the
      mean 1/rate is subtracted, which restores the zero-mean assumption;
      centered=False reproduces the raw skewed draws.  Either way the
      entry variance is 1/rate^2, so sigma_w = I/rate^2 and
      sigma_z = 1/rate are implied and enforced.
    """

    sigma_w: np.ndarray
    sigma_z: float
    family: str = "gaussian"
    rate: float = 1.0
    centered: bool = True
    # R with R R^T = sigma_w, factored once for the Gaussian sampler
    w_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        S = _as_matrix(self.sigma_w, name="sigma_w")
        if S.shape[0] != S.shape[1]:
            raise ParameterError("sigma_w must be square")
        factor = _psd_factor(S)
        if self.sigma_z < 0:
            raise ParameterError("sigma_z must be nonnegative")
        if self.family not in ("gaussian", "exponential"):
            raise ParameterError(f"unknown noise family {self.family!r}")
        if self.family == "exponential":
            if self.rate <= 0:
                raise ParameterError("exponential rate must be positive")
            implied = np.eye(S.shape[0]) / self.rate**2
            if not np.allclose(S, implied, atol=1e-10):
                raise ParameterError(
                    "exponential noise has entrywise covariance I/rate^2; "
                    "construct it with NoiseSpec.exponential()")
        object.__setattr__(self, "sigma_w", _freeze(S))
        object.__setattr__(self, "w_factor", _freeze(factor))
        object.__setattr__(self, "sigma_z", float(self.sigma_z))

    @classmethod
    def gaussian(cls, sigma_w, sigma_z: float) -> "NoiseSpec":
        return cls(sigma_w=np.atleast_2d(np.asarray(sigma_w, dtype=float)),
                   sigma_z=sigma_z, family="gaussian")

    @classmethod
    def exponential(cls, n: int, rate: float = 1.0, centered: bool = True) -> "NoiseSpec":
        if not rate > 0:
            raise ParameterError("exponential rate must be positive")
        return cls(sigma_w=np.eye(n) / rate**2, sigma_z=1.0 / rate,
                   family="exponential", rate=rate, centered=centered)

    @classmethod
    def none(cls, n: int) -> "NoiseSpec":
        return cls.gaussian(np.zeros((n, n)), 0.0)

    @property
    def n(self) -> int:
        return self.sigma_w.shape[0]

    def sample_w(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """count process-noise vectors, shape (count, n)."""
        if self.family == "exponential":
            draws = rng.exponential(scale=1.0 / self.rate, size=(count, self.n))
            return draws - (1.0 / self.rate if self.centered else 0.0)
        return rng.standard_normal((count, self.n)) @ self.w_factor.T

    def sample_z(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """count measurement-noise scalars, shape (count,)."""
        if self.family == "exponential":
            draws = rng.exponential(scale=1.0 / self.rate, size=count)
            return draws - (1.0 / self.rate if self.centered else 0.0)
        return self.sigma_z * rng.standard_normal(count)


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
            if beta <= 0:
                raise ParameterError("sphere radius must be positive")
            object.__setattr__(self, "beta", beta)
        elif self.beta is not None:
            raise ParameterError(f"input kind {self.kind!r} takes no beta")

    @classmethod
    def gaussian(cls, p: int) -> "InputDesign":
        return cls(kind="gaussian_isotropic", p=p)

    @classmethod
    def sphere(cls, p: int, beta: float | None = None) -> "InputDesign":
        return cls(kind="bounded_sphere", p=p, beta=beta)

    def sample_iid(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """count i.i.d. input vectors, shape (count, p)."""
        raw = rng.standard_normal((count, self.p))
        if self.kind == "gaussian_isotropic":
            return raw
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return self.beta * raw / norms

    def sample_sequence(self, T: int, rng: np.random.Generator) -> np.ndarray:
        """Input sequence u_0..u_T, shape (T+1, p)."""
        return self.sample_iid(T + 1, rng)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A simulated input/output record of horizon T.

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

    def __post_init__(self):
        u = _as_columns(self.u)
        y = np.asarray(self.y, dtype=float).ravel()
        if u.shape[0] != self.T + 1 or y.shape[0] != self.T + 1:
            raise ParameterError("u and y must both have T+1 entries")
        object.__setattr__(self, "u", _freeze(u))
        object.__setattr__(self, "y", _freeze(y))
        for name in ("x", "w", "z"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, _freeze(np.asarray(val, dtype=float)))

    @property
    def p(self) -> int:
        return self.u.shape[1]

    @property
    def has_diagnostics(self) -> bool:
        return self.x is not None and self.w is not None and self.z is not None


@dataclass(frozen=True, eq=False)
class MarkovParams:
    """Impulse-response blocks of the system.

    G = [C B | C A B | ... | C A^(L-1) B]  (p x pL) drives the
    input/output behavior; F = [C | C A | ... | C A^(L-1)]  (p x nL)
    plays the same role for the process noise.
    """

    G: np.ndarray
    F: np.ndarray
    L: int

    def __post_init__(self):
        object.__setattr__(self, "G", _freeze(np.atleast_2d(self.G)))
        object.__setattr__(self, "F", _freeze(np.atleast_2d(self.F)))

    @property
    def p(self) -> int:
        return self.G.shape[0]

    def block(self, i: int) -> np.ndarray:
        """The p x p block C A^i B."""
        p = self.p
        return self.G[:, i * p:(i + 1) * p]


def random_model(n: int, p: int, rho: float, seed) -> StateSpaceModel:
    """Random test system: A diagonal with eigenvalues ~ U[0, rho],
    B with N(0, 1/n) entries, C with N(0, 1/p) entries.
    """
    if n < 1 or p < 1:
        raise ParameterError("dimensions must be >= 1")
    if not (0.0 < rho < 1.0):
        raise ParameterError(f"rho must lie in (0, 1), got {rho}")
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
    determines the trajectory.
    """
    if T < 1:
        raise ParameterError("horizon T must be >= 1")
    if noise.n != model.n:
        raise ParameterError("noise covariance dimension does not match the model")
    rng = np.random.default_rng(seed)
    if isinstance(inputs, InputDesign):
        if inputs.p != model.p:
            raise ParameterError("input design dimension does not match the model")
        u = inputs.sample_sequence(T, rng)
    else:
        u = _as_columns(inputs)
        if u.shape != (T + 1, model.p):
            raise ParameterError(f"input sequence must have shape {(T + 1, model.p)}, got {u.shape}")
    w = noise.sample_w(T, rng)
    z = noise.sample_z(T + 1, rng)

    A, B, C = model.A, model.B, model.C
    x = np.zeros((T + 1, model.n))
    for t in range(T):
        x[t + 1] = A @ x[t] + B @ u[t] + w[t]
    y = np.einsum("ti,ij,tj->t", u, C, x) + z

    if diagnostics:
        return Trajectory(u=u, y=y, T=T, x=x, w=w, z=z)
    return Trajectory(u=u, y=y, T=T)


def markov_params(model: StateSpaceModel, L: int) -> MarkovParams:
    """First L impulse-response blocks, by iterated multiplication."""
    if L < 1:
        raise ParameterError("L must be >= 1")
    n, p = model.n, model.p
    G = np.zeros((p, p * L))
    F = np.zeros((p, n * L))
    CAi = model.C.copy()
    for i in range(L):
        F[:, i * n:(i + 1) * n] = CAi
        G[:, i * p:(i + 1) * p] = CAi @ model.B
        CAi = CAi @ model.A
    return MarkovParams(G=G, F=F, L=L)


def transient_factor(A: np.ndarray, rho: float) -> float:
    """Worst-case transient amplification sup_k ||A^k|| / rho^k.

    Requires spectral_radius(A) < rho < 1 (otherwise the supremum may be
    infinite).  Powers of the rescaled matrix M = A/rho are scanned one
    at a time, and the scan stops at the first K with ||M^K|| < 1: by
    submultiplicativity every later power M^(qK+r) has norm below
    ||M^r||, a term already seen, so the running supremum is final.
    Raises NumericalError when no such K appears within 2,000,000 powers.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    sr = spectral_radius(A)
    if not (sr < rho < 1.0):
        raise ParameterError(
            f"need spectral_radius(A) < rho < 1, got spectral radius {sr:.6g}, rho {rho}")
    cap = 2_000_000
    M = A / rho
    power = np.eye(A.shape[0])
    sup = 1.0  # k = 0 term
    for _ in range(cap):
        power = power @ M
        norm = float(np.linalg.norm(power, 2))
        if norm < 1.0:
            return sup
        sup = max(sup, norm)
    raise NumericalError(f"transient factor scan did not certify decay within {cap} powers")


def controllability_gramian(model: StateSpaceModel, sigma_w: np.ndarray,
                            horizon: int | None = None) -> np.ndarray:
    """Gramian sum_i A^i sigma_w (A^i)^T.

    horizon=None gives the infinite sum, the fixed point of
    X -> A X A^T + sigma_w (requires spectral radius < 1), by Smith
    doubling: X <- X + A_k X A_k^T with A_k <- A_k^2, so that after k
    steps X sums the first 2^k terms.  It stops once the added term is at
    most 1e-13 of ||X|| (2-norm) and raises NumericalError if that takes
    more than 64 doublings.  An integer horizon gives the exact truncated
    sum over i = 0..horizon.
    """
    A = model.A
    S = _as_matrix(sigma_w, rows=model.n, cols=model.n, name="sigma_w")
    if horizon is not None:
        if horizon < 0:
            raise ParameterError("horizon must be >= 0")
        G = np.zeros_like(S)
        Ai = np.eye(model.n)
        for _ in range(horizon + 1):
            G += Ai @ S @ Ai.T
            Ai = Ai @ A
        return 0.5 * (G + G.T)
    model.require_stable()
    X, Ak = S, A
    for _ in range(64):
        term = Ak @ X @ Ak.T
        X = X + term
        Ak = Ak @ Ak
        scale = max(float(np.linalg.norm(X, 2)), np.finfo(float).tiny)
        if float(np.linalg.norm(term, 2)) <= 1e-13 * scale:
            return 0.5 * (X + X.T)
    raise NumericalError("Gramian doubling did not converge in 64 steps")


def input_gramian(model: StateSpaceModel, u: np.ndarray) -> np.ndarray:
    """Input-driven Gramian for a recorded sequence u_0..u_T.

    Equals s s^T with s = sum_{i=0..T} A^i B u_{T-i}, the double sum over
    (i, j) of A^i B u_{T-i} u_{T-j}^T B^T (A^j)^T.
    """
    u = _as_columns(u)
    if u.shape[1] != model.p:
        raise ParameterError("input sequence dimension does not match the model")
    s = np.zeros(model.n)
    for t in range(u.shape[0]):
        s = model.A @ s + model.B @ u[t]
    return np.outer(s, s)


def default_decay_rate(model: StateSpaceModel) -> float:
    """Default decay rate used by the bounds: halfway between the spectral
    radius and one."""
    return 0.5 * (1.0 + model.require_stable())
