import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bilinid import (
    DegenerateRealizationError,
    ParameterError,
    StateSpaceModel,
    align_realizations,
    build_hankel,
    ho_kalman,
    markov_params,
    random_model,
    realization_error_bounds,
    spectral_radius,
)
from bilinid.hokalman import Realization


# ----------------------------------------------------------------- build_hankel

def test_hankel_layout_scalar_blocks():
    G = np.array([[1.0, 2.0, 3.0, 4.0]])  # g0..g3, p=1, L=4
    h = build_hankel(G, n=1)
    assert np.array_equal(h.H, [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
    assert np.array_equal(h.H_minus, [[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(h.H_plus, [[2.0, 3.0], [3.0, 4.0]])


def test_hankel_zero_markov_blocks():
    h = build_hankel(np.zeros((2, 2 * 6)), n=2)
    for M in (h.H, h.H_minus, h.H_plus, (h.U_n * h.singular_values[:2]) @ h.Vt_n):
        assert np.all(M == 0.0)


def test_hankel_exact_blocks_have_rank_n():
    m = random_model(3, 2, 0.8, seed=1)
    G = markov_params(m, 8).G
    h = build_hankel(G, n=3)
    assert h.singular_values[3] <= 1e-10 * h.singular_values[0]
    L_hat = (h.U_n * h.singular_values[:3]) @ h.Vt_n
    assert np.linalg.norm(L_hat - h.H_minus) <= 1e-9 * np.linalg.norm(h.H_minus)


def test_hankel_block_structure_matches_markov_blocks():
    m = random_model(2, 2, 0.7, seed=2)
    mp = markov_params(m, 6)
    h = build_hankel(mp.G, n=2)
    p, half = 2, 3
    for i in range(half):
        for j in range(half + 1):
            block = h.H[i * p:(i + 1) * p, j * p:(j + 1) * p]
            assert np.array_equal(block, mp.G[:, (i + j) * p:(i + j + 1) * p])


def _hankel_by_blocks(G, p, L):
    """H filled block by block (an independent oracle for build_hankel's gather)."""
    half = L // 2
    H = np.zeros((p * half, p * (half + 1)))
    for i in range(half):
        for j in range(half + 1):
            H[i * p:(i + 1) * p, j * p:(j + 1) * p] = G[:, (i + j) * p:(i + j + 1) * p]
    return H


@given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_hankel_gather_is_bitwise_the_block_loop(p, half, n, seed):
    assume(n <= half)
    L = 2 * half
    G = np.random.default_rng(seed).standard_normal((p, p * L))
    expected = _hankel_by_blocks(G, p, L)
    for layout in (G, np.asfortranarray(G)):
        H = build_hankel(layout, n).H
        assert H.shape == expected.shape and H.tobytes() == expected.tobytes()


def test_hankel_clips_share_interior_columns():
    m = random_model(2, 1, 0.6, seed=3)
    h = build_hankel(markov_params(m, 8).G, n=2)
    assert np.array_equal(h.H_minus, h.H[:, :-1])
    assert np.array_equal(h.H_plus, h.H[:, 1:])


def test_hankel_rejects_bad_L():
    with pytest.raises(ParameterError):
        build_hankel(np.zeros((1, 5)), n=1)  # odd L
    with pytest.raises(ParameterError):
        build_hankel(np.zeros((1, 2)), n=2)  # L < 2n


# ------------------------------------------------------------------- ho_kalman

def test_ho_kalman_scalar_chain():
    m = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[2.0]])
    real = ho_kalman(markov_params(m, 4).G, n=1)
    assert real.A[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert real.C[0, 0] * real.B[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_ho_kalman_exact_markov_matching():
    m = random_model(3, 2, 0.8, seed=4)
    L = 8
    mp = markov_params(m, L)
    real = ho_kalman(mp.G, n=3)
    CAi = real.C.copy()
    for i in range(L):
        assert np.linalg.norm(CAi @ real.B - mp.G[:, 2 * i:2 * i + 2]) <= 1e-8
        CAi = CAi @ real.A


@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_ho_kalman_matches_markov_blocks_of_an_orthogonally_similar_system(n, p, seed):
    # (Q^T A Q, Q^T B, C Q) has the Markov blocks of (A, B, C), so its
    # realization must reproduce the original system's blocks
    m = random_model(n, p, 0.8, seed=seed)
    L = 2 * n + 2
    mp = markov_params(m, L)
    s = build_hankel(mp.G, n).singular_values
    assume(s[n - 1] >= 1e-6 * s[0])
    Q, _ = np.linalg.qr(np.random.default_rng(seed + 1).standard_normal((n, n)))
    similar = StateSpaceModel(A=Q.T @ m.A @ Q, B=Q.T @ m.B, C=m.C @ Q)
    real = ho_kalman(markov_params(similar, L).G, n=n)
    CAi = real.C.copy()
    for i in range(L):
        block = mp.G[:, i * p:(i + 1) * p]
        assert np.linalg.norm(CAi @ real.B - block) <= 1e-8 * np.linalg.norm(mp.G)
        CAi = CAi @ real.A


def test_ho_kalman_zero_dynamics_recovers_zero_A():
    rng = np.random.default_rng(5)
    m = StateSpaceModel(A=np.zeros((3, 3)), B=rng.standard_normal((3, 2)),
                        C=rng.standard_normal((2, 3)))
    G = markov_params(m, 4).G
    n = int(np.linalg.matrix_rank(m.C @ m.B))
    real = ho_kalman(G, n=n)
    assert np.linalg.norm(real.A) <= 1e-10


def test_ho_kalman_factorization_invariants():
    m = random_model(3, 2, 0.9, seed=6)
    h = build_hankel(markov_params(m, 8).G, n=3)
    real = ho_kalman(markov_params(m, 8).G, n=3)
    L_hat = (h.U_n * h.singular_values[:3]) @ h.Vt_n
    assert np.linalg.norm(real.O @ real.Q - L_hat) <= 1e-9 * np.linalg.norm(L_hat)
    assert np.array_equal(real.C, real.O[:2])
    assert np.array_equal(real.B, real.Q[:, :2])


def test_ho_kalman_preserves_spectral_radius_on_exact_data():
    m = random_model(4, 2, 0.85, seed=7)
    real = ho_kalman(markov_params(m, 10).G, n=4)
    assert abs(spectral_radius(real.A) - m.spectral_radius()) <= 1e-6


def test_ho_kalman_refuses_degenerate_truncation():
    m = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[2.0]])
    G = markov_params(m, 4).G
    with pytest.raises(DegenerateRealizationError, match="sigma_2"):
        ho_kalman(G, n=2)  # order-1 system: sigma_2 = 0


@pytest.mark.parametrize("p, L, n", [(2, 8, 2), (1, 6, 3), (3, 4, 1), (2, 10, 4)])
@pytest.mark.parametrize("last_block", [False, True], ids=["G = 0", "H+ only"])
def test_ho_kalman_zero_h_minus_realizes_the_zero_system(p, L, n, last_block):
    # H^- reads blocks 0..L-2 and H^+ blocks 1..L-1, so a G nonzero only in
    # its last block has H^- = 0 but H^+ != 0; both realize the zero system
    G = np.zeros((p, p * L))
    if last_block:
        G[:, -p:] = np.random.default_rng(p * L + n).standard_normal((p, p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        real = ho_kalman(G, n=n)
    assert np.any(real.hankel.H_plus != 0.0) == last_block
    half = L // 2
    for M, shape in ((real.A, (n, n)), (real.B, (n, p)), (real.C, (p, n)),
                     (real.O, (p * half, n)), (real.Q, (n, p * half))):
        assert M.shape == shape and np.all(M == 0.0)


def test_ho_kalman_deterministic_sign_convention():
    m = random_model(3, 2, 0.8, seed=8)
    G = markov_params(m, 8).G
    a = ho_kalman(G, n=3)
    b = ho_kalman(G, n=3)
    assert np.array_equal(a.O, b.O) and np.array_equal(a.Q, b.Q)
    for k in range(3):
        col = a.O[:, k]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_ho_kalman_factors_come_from_the_hankel_svd():
    # build_hankel's signed rank-n SVD factors are the ones ho_kalman splits
    m = random_model(3, 2, 0.8, seed=9)
    G = markov_params(m, 8).G
    h = build_hankel(G, n=3)
    real = ho_kalman(G, n=3)
    root = np.sqrt(h.singular_values[:3])
    assert np.array_equal(real.O, h.U_n * root)
    assert np.array_equal(real.Q, root[:, None] * h.Vt_n)
    assert np.allclose(h.U_n.T @ h.U_n, np.eye(3), atol=1e-12)
    assert np.allclose(h.Vt_n @ h.Vt_n.T, np.eye(3), atol=1e-12)


def test_ho_kalman_keeps_the_hankel_it_factored():
    m = random_model(3, 2, 0.8, seed=10)
    G = markov_params(m, 8).G + 1e-3 * np.random.default_rng(0).standard_normal((2, 16))
    real = ho_kalman(G, n=3)
    h = build_hankel(G, n=3)
    assert real.hankel.n == 3
    for name in ("H", "H_minus", "H_plus", "singular_values", "U_n", "Vt_n"):
        assert np.array_equal(getattr(real.hankel, name), getattr(h, name))


# ---------------------------------------------------------- align_realizations

def test_align_identical_realizations():
    m = random_model(3, 2, 0.7, seed=9)
    real = ho_kalman(markov_params(m, 8).G, n=3)
    al = align_realizations(real, real)
    assert np.allclose(al.T, np.eye(3), atol=1e-12)
    assert al.dA == pytest.approx(0.0, abs=1e-12)
    assert al.dB == pytest.approx(0.0, abs=1e-12)
    assert al.dC == pytest.approx(0.0, abs=1e-12)


def test_align_recovers_planted_rotation():
    m = random_model(3, 2, 0.7, seed=10)
    ref = ho_kalman(markov_params(m, 8).G, n=3)
    R, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((3, 3)))
    other = Realization(A=R.T @ ref.A @ R, B=R.T @ ref.B, C=ref.C @ R,
                        O=ref.O @ R, Q=R.T @ ref.Q, n=3, p=2)
    al = align_realizations(ref, other)
    assert np.linalg.norm(al.T - R.T) <= 1e-8
    assert max(al.dA, al.dB, al.dC) <= 1e-8


def test_align_scalar_sign_symmetry():
    m = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[2.0]])
    ref = ho_kalman(markov_params(m, 4).G, n=1)
    other = Realization(A=ref.A.copy(), B=-ref.B, C=-ref.C, O=-ref.O, Q=-ref.Q,
                        n=1, p=1)
    al = align_realizations(ref, other)
    assert al.T[0, 0] == pytest.approx(-1.0)
    assert max(al.dA, al.dB, al.dC) <= 1e-12


def test_align_rejects_dimension_mismatch():
    m = random_model(3, 2, 0.7, seed=12)
    ref = ho_kalman(markov_params(m, 8).G, n=3)
    m2 = random_model(2, 2, 0.7, seed=13)
    other = ho_kalman(markov_params(m2, 8).G, n=2)
    with pytest.raises(ParameterError):
        align_realizations(ref, other)


# ------------------------------------------------------ realization error bounds

def test_bounds_zero_perturbation():
    m = random_model(3, 2, 0.8, seed=14)
    h = build_hankel(markov_params(m, 8).G, n=3)
    b = realization_error_bounds(h, h, 0.0)
    assert b.bound_BC == 0.0 and b.bound_A == 0.0
    assert b.robustness_ok


def test_bounds_robustness_boundary_inclusive():
    m = random_model(3, 2, 0.8, seed=15)
    h = build_hankel(markov_params(m, 8).G, n=3)
    at_boundary = h.sigma_min_L / (2.0 * np.sqrt(2.0 * 8))
    b = realization_error_bounds(h, h, at_boundary)
    assert b.robustness_ok
    b2 = realization_error_bounds(h, h, at_boundary * (1 + 1e-9))
    assert not b2.robustness_ok


def test_bounds_require_positive_sigma_min():
    h = build_hankel(np.zeros((2, 8)), n=1)
    assert h.sigma_min_L == 0.0
    with pytest.raises(ParameterError):
        realization_error_bounds(h, h, 0.1)


def test_bounds_require_hankel_sets_of_one_shape():
    m = random_model(3, 2, 0.8, seed=14)
    h8 = build_hankel(markov_params(m, 8).G, n=3)
    h6 = build_hankel(markov_params(m, 6).G, n=3)
    with pytest.raises(ParameterError):
        realization_error_bounds(h8, h6, 0.0)


def test_perturbation_suite_respects_bounds():
    # randomized perturbations inside the robustness region: aligned errors
    # stay below the explicit bounds in every trial
    m = random_model(3, 2, 0.8, seed=16)
    L = 8
    mp = markov_params(m, L)
    hank = build_hankel(mp.G, n=3)
    ref = ho_kalman(mp.G, n=3)
    cap = hank.sigma_min_L / (2.0 * np.sqrt(2.0 * L))
    for k in range(50):
        rng = np.random.default_rng(500 + k)
        direction = rng.standard_normal(mp.G.shape)
        target = rng.uniform(0.05, 1.0) * cap
        G_hat = mp.G + direction * (target / np.linalg.norm(direction))
        err = float(np.linalg.norm(G_hat - mp.G))
        other = ho_kalman(G_hat, n=3)
        bounds = realization_error_bounds(hank, build_hankel(G_hat, n=3), err)
        assert bounds.robustness_ok
        al = align_realizations(ref, other)
        assert al.dB <= bounds.bound_BC
        assert al.dC <= bounds.bound_BC
        assert al.dA <= bounds.bound_A
