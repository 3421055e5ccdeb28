"""Balanced state-space realization from impulse-response blocks.

A clipped block-Hankel matrix H (L/2 block rows, L/2 + 1 block columns,
block (i, j) = C A^{i+j} B) is factored through the rank-n SVD of its
left clip H^- into observability and controllability factors O, Q, from
which (A, B, C) are read off up to an orthogonal change of state
coordinates.  Companion routines align two realizations by orthogonal
Procrustes and evaluate explicit perturbation bounds on the aligned
errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateRealizationError, ParameterError

DEGENERATE_RATIO = 1e-10


@dataclass(frozen=True, eq=False)
class HankelSet:
    """Hankel structures derived from a p x pL Markov matrix.

    H_minus / H_plus drop the last / first p columns of H; sigma_min_L is
    the n-th of H_minus's singular_values.  U_n and Vt_n are its rank-n
    singular vectors, signed so that the largest-magnitude entry of each
    column of U_n is positive.
    """

    H: np.ndarray
    H_minus: np.ndarray
    H_plus: np.ndarray
    sigma_min_L: float
    singular_values: np.ndarray
    U_n: np.ndarray
    Vt_n: np.ndarray
    n: int
    p: int
    L: int


@dataclass(frozen=True, eq=False)
class Realization:
    """Recovered (A, B, C) with the factors they came from (O Q = U_n diag(s) Vt_n).

    hankel is the HankelSet that ho_kalman built and factored (None for a
    Realization assembled by hand).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    O: np.ndarray
    Q: np.ndarray
    n: int
    p: int
    hankel: HankelSet | None = None


@dataclass(frozen=True)
class Alignment:
    """Orthogonal change of coordinates and the aligned parameter errors."""

    T: np.ndarray
    dA: float
    dB: float
    dC: float


@dataclass(frozen=True)
class RealizationBounds:
    """Perturbation bounds on the aligned realization errors."""

    bound_BC: float
    bound_A: float
    robustness_ok: bool


def check_order(L: int, n: int) -> None:
    """Raise ParameterError unless a realization of order n can be read
    from L Markov blocks: L even and at least 2, n at least 1, and
    L >= 2n, so that H_minus has at least n block rows and columns."""
    if L % 2 != 0 or L < 2:
        raise ParameterError(f"L must be even and >= 2, got {L}")
    if n < 1 or L < 2 * n:
        raise ParameterError(f"need L >= 2n, got L={L}, n={n}")


def build_hankel(G, n: int) -> HankelSet:
    """Assemble H, its clips, and the rank-n SVD factors of H_minus.

    G is the p x pL block matrix (markov_params(model, L).G or an
    estimate), and L and n pass check_order.
    """
    Gm = np.atleast_2d(np.asarray(G, dtype=float))
    p = Gm.shape[0]
    if Gm.shape[1] % p != 0:
        raise ParameterError("Markov matrix width must be a multiple of p")
    L = Gm.shape[1] // p
    check_order(L, n)
    half = L // 2
    # entry (a, b) of block (i, j) is entry (a, b) of block i + j of G: one
    # gather from G's (p, L, p) view into H's (half, p, half + 1, p) layout
    i, a, j, b = np.ix_(range(half), range(p), range(half + 1), range(p))
    H = Gm.reshape(p, L, p)[a, i + j, b].reshape(p * half, p * (half + 1))
    H_minus = H[:, :-p]
    H_plus = H[:, p:]
    U, s, Vt = np.linalg.svd(H_minus, full_matrices=False)
    U_n, Vt_n = U[:, :n].copy(), Vt[:n].copy()
    # Fixed sign convention: the largest-magnitude entry of each left
    # singular vector is positive.  Flipping a pair leaves U_n diag(s) Vt_n unchanged.
    for k in range(n):
        if U_n[int(np.argmax(np.abs(U_n[:, k]))), k] < 0.0:
            U_n[:, k] = -U_n[:, k]
            Vt_n[k] = -Vt_n[k]
    return HankelSet(H=H, H_minus=H_minus, H_plus=H_plus,
                     sigma_min_L=float(s[n - 1]), singular_values=s,
                     U_n=U_n, Vt_n=Vt_n, n=n, p=p, L=L)


def ho_kalman(G, n: int) -> Realization:
    """Recover a balanced realization of order n from Markov blocks.

    O = U sqrt(S) and Q = sqrt(S) V^T come from the rank-n SVD of H^-;
    C is the first block row of O, B the first block column of Q, and
    A = pinv(O) H^+ pinv(Q).  Refuses near-degenerate truncations
    (sigma_n below 1e-10 of sigma_1), which would poison every
    downstream bound.  An all-zero H^- is not refused: its O and Q are
    zero, pinv of a zero matrix is zero, and so the same path returns
    the zero system, whatever H^+ holds.
    """
    hankel = build_hankel(G, n)
    s = hankel.singular_values
    if s[n - 1] < DEGENERATE_RATIO * s[0]:
        raise DegenerateRealizationError(
            f"rank-{n} truncation refused: sigma_{n} = {s[n - 1]:.3e} "
            f"(ratio {s[n - 1] / s[0]:.3e} to sigma_1)")
    root = np.sqrt(s[:n])
    O = hankel.U_n * root
    Q = root[:, None] * hankel.Vt_n
    A = np.linalg.pinv(O) @ hankel.H_plus @ np.linalg.pinv(Q)
    p = hankel.p
    return Realization(A=A, B=Q[:, :p].copy(), C=O[:p].copy(), O=O, Q=Q, n=n, p=p,
                       hankel=hankel)


def align_realizations(ref: Realization, other: Realization) -> Alignment:
    """Best orthogonal change of coordinates from `other` to `ref`.

    T solves the orthogonal Procrustes problem
    min_T ||O_ref - O_other T||_F via the SVD of O_other^T O_ref, and the
    reported errors are the aligned parameter distances
    dA = ||A_ref - T^T A_other T||, dB = ||B_ref - T^T B_other||,
    dC = ||C_ref - C_other T|| (Frobenius).
    """
    if ref.n != other.n or ref.p != other.p:
        raise ParameterError("realizations must share state and input dimensions")
    U, _, Vt = np.linalg.svd(other.O.T @ ref.O)
    T = U @ Vt
    dA = float(np.linalg.norm(ref.A - T.T @ other.A @ T))
    dB = float(np.linalg.norm(ref.B - T.T @ other.B))
    dC = float(np.linalg.norm(ref.C - other.C @ T))
    return Alignment(T=T, dA=dA, dB=dB, dC=dC)


def realization_error_bounds(hankel: HankelSet, hankel_hat: HankelSet,
                             G_err_fro: float) -> RealizationBounds:
    """Perturbation bounds on Procrustes-aligned errors; L, sigma_min and H
    come from hankel (of G), H_hat from hankel_hat (of G_hat, same shape):

        bound_BC = sqrt(10 L / sigma_min) * ||G - G_hat||_F,
        bound_A  = (9 sqrt(L) (||H|| + ||H_hat||) / sigma_min^2
                    + sqrt(2 L) / sigma_min) * ||G - G_hat||_F,

    valid whenever the perturbation respects the robustness condition
    ||G - G_hat||_F <= sigma_min / (2 sqrt(2 L)) (boundary inclusive).
    """
    sigma_min_L, L = hankel.sigma_min_L, hankel.L
    if sigma_min_L <= 0.0 or hankel_hat.H.shape != hankel.H.shape:
        raise ParameterError("need a positive sigma_min_L and two Hankel matrices of one shape")
    h_norm = float(np.linalg.norm(hankel.H, 2))
    h_hat_norm = float(np.linalg.norm(hankel_hat.H, 2))
    bound_BC = math.sqrt(10.0 * L / sigma_min_L) * G_err_fro
    bound_A = (9.0 * math.sqrt(L) * (h_norm + h_hat_norm) / sigma_min_L**2
               + math.sqrt(2.0 * L) / sigma_min_L) * G_err_fro
    robustness_ok = G_err_fro <= sigma_min_L / (2.0 * math.sqrt(2.0 * L))
    return RealizationBounds(bound_BC=bound_BC, bound_A=bound_A,
                             robustness_ok=bool(robustness_ok))
