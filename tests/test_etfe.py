import importlib
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_stable_model, traced_peak, with_shared_input
from ltpsid.errors import RankDeficient
from ltpsid.etfe import etfe
from ltpsid.signal import Ensemble, collect_ensemble
from oracles import true_lifted_frequency_response

# The module, which the package's ``etfe`` attribute (the function) hides.
etfe_module = importlib.import_module("ltpsid.etfe")


def _noise_free(model, J, N, seed=7):
    return collect_ensemble(model, J=J, N=N, sigma=0.0, master_seed=seed)


def _real_at_mirror_points(X, N):
    """Half-grid spectra ``X`` with k = 0 and, for even N, k = N/2 made real, as real data have."""
    X = np.array(X, dtype=complex)
    X[0] = X[0].real
    if N % 2 == 0:
        X[-1] = X[-1].real
    return X


def _ensemble_from_spectra(U, Y, P, N):
    """The ensemble whose inputs and outputs are the inverse real DFTs of half-grid spectra.

    ``U`` is (N//2+1, P*n_u, J) and ``Y`` (N//2+1, P*n_y, J); lifted sample n of the
    signals is row n of the inverse transform.
    """
    def signals(X):
        x = np.fft.irfft(_real_at_mirror_points(X, N), n=N, axis=0)
        return x.transpose(2, 0, 1).reshape(x.shape[2], N * P, -1)

    return Ensemble(u=signals(U), y=signals(Y), P=P, N=N)


def _input_spectrum(ens):
    """``np.fft.rfft`` of the lifted inputs, (N//2+1, P*n_u, J): the reference for U_tilde."""
    return np.fft.rfft(ens.u.reshape(ens.J, ens.N, -1), axis=1).transpose(1, 2, 0)


def _full_grid(signals, N):
    """Full N-point DFT of lifted (J, N*P, channels) signals as (N, P*channels, J)."""
    return np.fft.fft(signals.reshape(signals.shape[0], N, -1), axis=1).transpose(1, 2, 0)


def test_etfe_noise_free_matches_true_response(example1_norm):
    estimate = etfe(_noise_free(example1_norm, J=20, N=50))
    truth = true_lifted_frequency_response(example1_norm, 50)
    assert np.max(np.abs(estimate.G - truth.G)) < 1e-7


def test_etfe_noise_free_square_case(example2_norm):
    # J = P*n_u: exactly determined, still exact on steady-state data.
    estimate = etfe(_noise_free(example2_norm, J=3, N=20))
    truth = true_lifted_frequency_response(example2_norm, 20)
    assert np.max(np.abs(estimate.G - truth.G)) < 1e-7


def test_etfe_reduces_to_siso_ratio():
    m = random_stable_model(5, P=1, nx=2, ny=1, nu=1)
    ens = _noise_free(m, J=1, N=16)
    estimate = etfe(ens)
    ratio = np.fft.rfft(ens.y[0, :, 0]) / np.fft.rfft(ens.u[0, :, 0])
    assert estimate.G.shape == (16 // 2 + 1, 1, 1)
    np.testing.assert_allclose(estimate.G[:, 0, 0], ratio, atol=1e-10)


def test_etfe_zero_output_gives_zero():
    rng = np.random.default_rng(3)
    U = rng.standard_normal((6, 2, 4)) + 1j * rng.standard_normal((6, 2, 4))
    G = etfe(_ensemble_from_spectra(U, np.zeros((6, 2, 4)), P=2, N=11)).G
    assert G.shape == (6, 2, 2)
    assert np.all(G == 0)


def test_etfe_rank_deficient_shared_inputs(example1_norm):
    # Identical input patterns make the columns of the input spectrum equal.
    ens = with_shared_input(
        collect_ensemble(example1_norm, J=4, N=8, sigma=0.0, master_seed=2)
    )
    with pytest.raises(RankDeficient) as excinfo:
        etfe(ens)
    assert excinfo.value.frequency_index == 0


def test_etfe_rank_deficient_names_the_one_bad_grid_point():
    # Well-conditioned input spectra everywhere except k = 3, where the second
    # row nearly repeats the first (s_min/s_max about 1e-4); the real inputs
    # are their inverse real DFTs. With RANK_TOL = 1e-3 only k = 3 fails, and
    # the singular value reported from R is the one the SVD of U[3] gives.
    P, N, J = 1, 10, 3
    rng = np.random.default_rng(29)
    half = np.eye(2, J) + 0.2 * (
        rng.standard_normal((N // 2 + 1, 2, J)) + 1j * rng.standard_normal((N // 2 + 1, 2, J))
    )
    half[[0, N // 2]] = half[[0, N // 2]].real
    half[3, 1] = (0.5 - 0.2j) * half[3, 0] + 1e-4 * half[3, 1]
    u = np.fft.irfft(half, n=N, axis=0).transpose(2, 0, 1)
    y = rng.standard_normal((J, N * P, 1))
    ens = Ensemble(u=u, y=y, P=P, N=N)
    with patch.object(etfe_module, "RANK_TOL", 1e-3), pytest.raises(RankDeficient) as excinfo:
        etfe(ens)
    assert excinfo.value.frequency_index == 3
    s = np.linalg.svd(_input_spectrum(ens), compute_uv=False)
    assert np.flatnonzero(s[:, -1] <= 1e-3 * s[:, 0]).tolist() == [3]
    np.testing.assert_allclose(
        excinfo.value.smallest_singular_value, s[3, -1], rtol=1e-12
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 4),
    extra=st.integers(0, 3),
    N=st.integers(1, 9),
    eps=st.sampled_from([0.0, 1e-13, 1e-9, 1e-5, 1e-2]),
    rank_tol=st.one_of(st.none(), st.floats(1e-12, 0.5)),
    between=st.floats(0.05, 0.95),
)
@settings(max_examples=200, deadline=None)
def test_etfe_rank_verdict_matches_svd_of_input_spectrum(seed, m, extra, N, eps, rank_tol, between):
    # Random spectra, real at k = 0 and N/2, whose last row, at about a third
    # of the grid points, is eps away from a real combination of the other
    # rows; the inputs are their inverse real DFTs. RANK_TOL is patched to
    # rank_tol; with rank_tol None it is taken between 1/kappa_F and 1/cond of
    # one other point, where the Frobenius bound fails but the point passes:
    # only the SVD fallback decides.
    rng = np.random.default_rng(seed)
    K, J = N // 2 + 1, m + extra
    U = rng.standard_normal((K, m, J)) + 1j * rng.standard_normal((K, m, J))
    U = _real_at_mirror_points(U, N)
    near = rng.random(K) < 0.3
    U[near, -1] = rng.standard_normal(m - 1) @ U[near, :-1] + eps * U[near, -1]
    ens = _ensemble_from_spectra(U, rng.standard_normal((K, 2, J)), P=1, N=N)
    s = np.linalg.svd(_input_spectrum(ens), compute_uv=False)
    if rank_tol is None:
        assume(m > 1 and not near.all())
        k0 = rng.choice(np.flatnonzero(~near))
        kappa_F = np.sqrt(np.sum(s[k0] ** 2) * np.sum(s[k0] ** -2.0))
        rank_tol = (1 / kappa_F) ** (1 - between) * (s[k0, -1] / s[k0, 0]) ** between
    # Keep clear of the verdict's edge, where rounding decides (an all-zero
    # point, m = 1 and eps = 0, sits on it exactly and is deficient).
    margin = np.abs(s[:, -1] - rank_tol * s[:, 0]) - (1e-14 + 1e-9 * rank_tol) * s[:, 0]
    assume(np.all((margin > 0) | (s[:, 0] == 0)))
    deficient = np.flatnonzero(s[:, -1] <= rank_tol * s[:, 0])
    with patch.object(etfe_module, "RANK_TOL", rank_tol):
        if deficient.size:
            with pytest.raises(RankDeficient) as excinfo:
                etfe(ens)
            k = deficient[0]
            assert excinfo.value.frequency_index == k
            assert abs(excinfo.value.smallest_singular_value - s[k, -1]) <= 1e-12 * s[k, 0]
        else:
            assert np.all(np.isfinite(etfe(ens).G))


def test_etfe_an_all_zero_grid_point_is_rank_deficient():
    # Two constant inputs at P = 1 have no spectrum at k = 1 and 2: s_min = s_max = 0 sits on
    # the verdict's edge, which "<=" refuses; with "<" etfe would return NaN there.
    with pytest.raises(RankDeficient) as excinfo:
        etfe(Ensemble(np.ones((2, 4, 1)), np.ones((2, 4, 1)), 1, 4))
    assert (excinfo.value.frequency_index, excinfo.value.smallest_singular_value) == (1, 0.0)


@pytest.mark.parametrize("ratio, raises", [(1e-11, True), (1e-9, False)])
def test_etfe_rank_verdict_a_decade_either_side_of_1e_10(ratio, raises):
    # P = 1, n_u = J = 2, N = 5: the input spectrum is the identity at k = 0
    # and 2 and diag(1, ratio) at k = 1, so only k = 1 meets the rank guard.
    U = np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
    U[1, 1, 1] = ratio
    ens = _ensemble_from_spectra(U, np.ones((3, 1, 2)), P=1, N=5)
    s = np.linalg.svd(_input_spectrum(ens), compute_uv=False)
    np.testing.assert_allclose(s[:, -1] / s[:, 0], [1, ratio, 1], rtol=1e-3)
    if raises:
        with pytest.raises(RankDeficient) as excinfo:
            etfe(ens)
        assert excinfo.value.frequency_index == 1
    else:
        assert np.all(np.isfinite(etfe(ens).G))


def test_etfe_zero_input_channel_is_rank_deficient_without_warning():
    # A channel that is zero in every experiment leaves R exactly singular:
    # its inverse holds inf and NaN, which must neither warn nor pass.
    rng = np.random.default_rng(4)
    U = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
    U[:, 1] = 0
    ens = _ensemble_from_spectra(U, rng.standard_normal((4, 3, 5)), P=3, N=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RankDeficient) as excinfo:
            etfe(ens)
    assert excinfo.value.frequency_index == 0
    assert excinfo.value.smallest_singular_value < 1e-15


def test_etfe_well_excited_data_needs_no_svd(example2_norm, monkeypatch):
    # The Frobenius bound settles every grid point of a well-excited ensemble,
    # so the singular values of R are never computed.
    ens = _noise_free(example2_norm, J=9, N=20)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    etfe(ens)
    assert calls == []


def test_etfe_peak_memory_holds_at_most_four_input_spectra(mimo_ensemble):
    # U_tilde^H, numpy's copy of it inside the QR and Q are alive at the peak; one
    # more input spectrum's worth covers the small arrays, and Y_tilde comes later.
    ens = mimo_ensemble
    peak = traced_peak(etfe, ens)
    spectrum = (ens.N // 2 + 1) * ens.J * ens.P * ens.nu * 16
    assert peak <= 4 * spectrum, peak / spectrum


def _residual(ens):
    """Frobenius norm of Y_tilde_k - G_hat_k U_tilde_k at each half-grid point k = 0..N//2."""
    G = etfe(ens).G
    U, Y = _full_grid(ens.u, ens.N)[: len(G)], _full_grid(ens.y, ens.N)[: len(G)]
    return np.linalg.norm(Y - G @ U, axis=(1, 2))


def test_residual_zero_when_exactly_determined(example1_norm):
    ens = _noise_free(example1_norm, J=2, N=12)  # J = P*n_u
    assert np.max(_residual(ens)) < 1e-10


def test_residual_zero_when_overdetermined_noise_free(example2_norm):
    ens = _noise_free(example2_norm, J=9, N=12)
    assert np.max(_residual(ens)) < 1e-8


def test_residual_grows_with_noise(example1_norm):
    res = {}
    for sigma in (0.1, 1.0):
        ens = collect_ensemble(example1_norm, J=8, N=16, sigma=sigma, master_seed=11)
        res[sigma] = float(np.sum(_residual(ens)))
    assert 0 < res[0.1] < res[1.0]


@pytest.mark.parametrize("N", [9, 10])
def test_etfe_half_grid_matches_per_frequency_pinv(example2_norm, N):
    # Only k <= N/2 is estimated; its conjugate mirror agrees with the
    # per-frequency least-squares solution on the rest of the grid.
    ens = collect_ensemble(example2_norm, J=6, N=N, sigma=0.7, master_seed=13)
    half = etfe(ens).G
    assert len(half) == N // 2 + 1
    G = np.concatenate([half, half[1 : (N + 1) // 2][::-1].conj()])
    U, Y = _full_grid(ens.u, N), _full_grid(ens.y, N)
    for k in range(N):
        reference = Y[k] @ np.linalg.pinv(U[k], rcond=1e-10)
        scale = np.max(np.abs(reference))
        np.testing.assert_allclose(G[k], reference, rtol=0, atol=1e-12 * scale)


def _spectra(u, P, y=None):
    """``(U, Y)`` of experiments with inputs u[i] and outputs y[i] (default u)."""
    u = np.asarray(u, dtype=float)
    y = u if y is None else np.asarray(y, dtype=float)
    return tuple(etfe_module._lifted_spectrum(x, u.shape[1] // P) for x in (u, y))


def test_lift_p1_identity():
    # With P=1 the lifted signal is the signal itself: plain per-experiment
    # DFTs, kept on the half grid k = 0..N//2.
    x = np.random.default_rng(5).standard_normal((2, 8, 2))
    U, _ = _spectra(x, P=1)
    for i in range(2):
        np.testing.assert_allclose(
            U[:, :, i], np.fft.fft(x[i], axis=0)[: 8 // 2 + 1], atol=1e-12
        )


def test_lift_p2_scalar_example():
    # Samples 1, 2, 3, 4 lift to [1, 2], [3, 4], whose two-point DFT is
    # [4, 6] at k=0 and [-2, -2] at k=1.
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    U, _ = _spectra([x, 10 * x], P=2)
    np.testing.assert_array_equal(U[:, :, 0], [[4.0, 6.0], [-2.0, -2.0]])
    np.testing.assert_array_equal(U[:, :, 1], [[40.0, 60.0], [-20.0, -20.0]])


def test_dft_constant_sequence():
    c = np.array([2.5, -1.0])
    x = np.tile(c, 6).reshape(12, 1)  # lifted over P=2: c in every sample
    U, _ = _spectra([x, -x], P=2)
    np.testing.assert_allclose(U[0, :, 0], 6 * c, atol=1e-12)
    np.testing.assert_allclose(U[0, :, 1], -6 * c, atol=1e-12)
    np.testing.assert_allclose(U[1:], 0, atol=1e-12)


def test_dft_unit_sample_flat_spectrum():
    x = np.zeros((1, 5, 1))
    x[0, 0] = 3.0
    np.testing.assert_allclose(_spectra(x, P=1)[0], 3.0, atol=1e-13)


def test_dft_matches_naive_summation():
    # Oracle: lift by hand (sample n stacks samples nP..nP+P-1, channels
    # innermost) and sum exp(-2j*pi*n*k/N) directly, one experiment at a time.
    P, N, J = 2, 8, 4
    rng = np.random.default_rng(17)
    u = rng.standard_normal((J, N * P, 2))
    y = rng.standard_normal((J, N * P, 3))
    for x, X in zip((u, y), _spectra(u, P, y)):
        n_c = x.shape[2]
        assert X.shape == (N // 2 + 1, P * n_c, J)
        for i in range(J):
            lifted = np.array([np.concatenate(x[i, n * P : (n + 1) * P]) for n in range(N)])
            naive = np.zeros((N, P * n_c), dtype=complex)
            for k in range(N):
                for n in range(N):
                    naive[k] += lifted[n] * np.exp(-2j * np.pi * n * k / N)
            np.testing.assert_allclose(X[:, :, i], naive[: N // 2 + 1], atol=1e-10)


def test_dft_inverse_recovers_input():
    P, N = 3, 16
    rng = np.random.default_rng(23)
    u = rng.standard_normal((3, N * P, 1))
    y = rng.standard_normal((3, N * P, 2))
    _, Y = _spectra(u, P, y)
    recovered = np.fft.irfft(Y, n=N, axis=0)
    for i in range(3):
        np.testing.assert_allclose(recovered[:, :, i], y[i].reshape(N, P * 2), atol=1e-10)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_dft_parseval(seed):
    x = np.random.default_rng(seed).standard_normal((4, 24, 2))
    U, _ = _spectra(x, P=2)
    energy_time = np.sum(x**2)
    # N = 12 is even: k = 0 and N/2 are their own mirrors, every other
    # half-grid point stands for itself and its conjugate at N - k.
    N = 12
    weight = np.full(N // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    energy_freq = np.sum(weight[:, None, None] * np.abs(U) ** 2) / N
    np.testing.assert_allclose(energy_freq, energy_time, rtol=1e-8)


def test_lifted_spectra_siso_single_experiment():
    m = random_stable_model(2, P=1, nx=1, ny=1, nu=1)
    ens = collect_ensemble(m, J=1, N=8, sigma=0.0, master_seed=4)
    U, Y = (etfe_module._lifted_spectrum(x, ens.N) for x in (ens.u, ens.y))
    assert U.shape == (5, 1, 1)
    assert Y.shape == (5, 1, 1)


def test_lifted_spectra_example1_shapes(example1_norm):
    ens = collect_ensemble(example1_norm, J=20, N=50, sigma=1.0, master_seed=7)
    U, Y = (etfe_module._lifted_spectrum(x, ens.N) for x in (ens.u, ens.y))
    assert U.shape == (26, 2, 20)
    assert Y.shape == (26, 2, 20)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_lifted_spectra_conjugate_symmetry(seed):
    # The half grid is the full DFT's k = 0..N//2; the full DFT of the real
    # data is conjugate symmetric, so the mirrored points carry nothing new.
    m = random_stable_model(seed, P=2, nx=2, ny=1, nu=1)
    ens = collect_ensemble(m, J=2, N=6, sigma=0.3, master_seed=seed)
    N = ens.N
    for x in (ens.u, ens.y):
        X = etfe_module._lifted_spectrum(x, N)
        full = np.fft.fft(x.reshape(2, N, -1), axis=1).transpose(1, 2, 0)
        np.testing.assert_allclose(X, full[: N // 2 + 1], atol=1e-9)
        for k in range(N):
            np.testing.assert_allclose(full[k], np.conj(full[(N - k) % N]), atol=1e-9)
