import importlib
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_stable_model, with_shared_input
from ltpsid.errors import ConfigError, RankDeficient
from ltpsid.etfe import etfe, residual_energy
from ltpsid.signal import Ensemble, LiftedSpectra, assemble_spectra, collect_ensemble
from oracles import true_lifted_frequency_response

# The module, which the package's ``etfe`` attribute (the function) hides.
etfe_module = importlib.import_module("ltpsid.etfe")


def _noise_free_spectra(model, J, N, seed=7):
    ens = collect_ensemble(model, J=J, N=N, sigma=0.0, master_seed=seed)
    return assemble_spectra(ens)


def _full_grid(signals, N):
    """Full N-point DFT of lifted (J, N*P, channels) signals as (N, P*channels, J)."""
    return np.fft.fft(signals.reshape(signals.shape[0], N, -1), axis=1).transpose(1, 2, 0)


def test_etfe_noise_free_matches_true_response(example1_norm):
    spectra = _noise_free_spectra(example1_norm, J=20, N=50)
    estimate = etfe(spectra)
    truth = true_lifted_frequency_response(example1_norm, 50)
    assert np.max(np.abs(estimate.G - truth.G)) < 1e-7


def test_etfe_noise_free_square_case(example2_norm):
    # J = P*n_u: exactly determined, still exact on steady-state data.
    spectra = _noise_free_spectra(example2_norm, J=3, N=20)
    estimate = etfe(spectra)
    truth = true_lifted_frequency_response(example2_norm, 20)
    assert np.max(np.abs(estimate.G - truth.G)) < 1e-7


def test_etfe_reduces_to_siso_ratio():
    m = random_stable_model(5, P=1, nx=2, ny=1, nu=1)
    spectra = _noise_free_spectra(m, J=1, N=16)
    estimate = etfe(spectra)
    ratio = spectra.Y[:, 0, 0] / spectra.U[:, 0, 0]
    assert estimate.G.shape == (16 // 2 + 1, 1, 1)
    np.testing.assert_allclose(estimate.G[:, 0, 0], ratio, atol=1e-10)


def test_etfe_zero_output_gives_zero():
    rng = np.random.default_rng(3)
    U = rng.standard_normal((6, 2, 4)) + 1j * rng.standard_normal((6, 2, 4))
    spectra = LiftedSpectra(P=2, N=11, U=U, Y=np.zeros((6, 2, 4), dtype=complex))
    G = etfe(spectra).G
    assert G.shape == (6, 2, 2)
    assert np.all(G == 0)


def test_etfe_rank_deficient_shared_inputs(example1_norm):
    # Identical input patterns make the columns of the input spectrum equal.
    ens = with_shared_input(
        collect_ensemble(example1_norm, J=4, N=8, sigma=0.0, master_seed=2)
    )
    with pytest.raises(RankDeficient) as excinfo:
        etfe(assemble_spectra(ens))
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
    spectra = assemble_spectra(Ensemble(u=u, y=y, P=P, N=N))
    with patch.object(etfe_module, "RANK_TOL", 1e-3), pytest.raises(RankDeficient) as excinfo:
        etfe(spectra)
    assert excinfo.value.frequency_index == 3
    s = np.linalg.svd(spectra.U, compute_uv=False)
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
    # Random spectra whose last row, at about a third of the grid points, is
    # eps away from a combination of the other rows. RANK_TOL is patched to
    # rank_tol; with rank_tol None it is taken between 1/kappa_F and 1/cond of
    # one other point, where the Frobenius bound fails but the point passes:
    # only the SVD fallback decides.
    rng = np.random.default_rng(seed)
    K, J = N // 2 + 1, m + extra
    U = rng.standard_normal((K, m, J)) + 1j * rng.standard_normal((K, m, J))
    near = rng.random(K) < 0.3
    U[near, -1] = rng.standard_normal(m - 1) @ U[near, :-1] + eps * U[near, -1]
    s = np.linalg.svd(U, compute_uv=False)
    if rank_tol is None:
        assume(m > 1 and not near.all())
        k0 = rng.choice(np.flatnonzero(~near))
        kappa_F = np.sqrt(np.sum(s[k0] ** 2) * np.sum(s[k0] ** -2.0))
        rank_tol = (1 / kappa_F) ** (1 - between) * (s[k0, -1] / s[k0, 0]) ** between
    # Keep clear of the verdict's edge, where rounding decides (an all-zero
    # point, m = 1 and eps = 0, sits on it exactly and is deficient).
    margin = np.abs(s[:, -1] - rank_tol * s[:, 0]) - (1e-14 + 1e-9 * rank_tol) * s[:, 0]
    assume(np.all((margin > 0) | (s[:, 0] == 0)))
    spectra = LiftedSpectra(P=1, N=N, U=U, Y=rng.standard_normal((K, 2, J)))
    deficient = np.flatnonzero(s[:, -1] <= rank_tol * s[:, 0])
    with patch.object(etfe_module, "RANK_TOL", rank_tol):
        if deficient.size:
            with pytest.raises(RankDeficient) as excinfo:
                etfe(spectra)
            k = deficient[0]
            assert excinfo.value.frequency_index == k
            assert abs(excinfo.value.smallest_singular_value - s[k, -1]) <= 1e-12 * s[k, 0]
        else:
            assert np.all(np.isfinite(etfe(spectra).G))


def test_etfe_zero_input_channel_is_rank_deficient_without_warning():
    # A channel that is zero in every experiment leaves R exactly singular:
    # its inverse holds inf and NaN, which must neither warn nor pass.
    rng = np.random.default_rng(4)
    U = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
    U[:, 1] = 0
    spectra = LiftedSpectra(P=3, N=7, U=U, Y=rng.standard_normal((4, 3, 5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RankDeficient) as excinfo:
            etfe(spectra)
    assert excinfo.value.frequency_index == 0
    assert excinfo.value.smallest_singular_value < 1e-15


def test_etfe_well_excited_data_needs_no_svd(example2_norm, monkeypatch):
    # The Frobenius bound settles every grid point of a well-excited ensemble,
    # so the singular values of R are never computed.
    spectra = _noise_free_spectra(example2_norm, J=9, N=20)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    etfe(spectra)
    assert calls == []


def test_residual_zero_when_exactly_determined(example1_norm):
    spectra = _noise_free_spectra(example1_norm, J=2, N=12)  # J = P*n_u
    res = residual_energy(spectra, etfe(spectra))
    assert np.max(res) < 1e-10


def test_residual_zero_when_overdetermined_noise_free(example2_norm):
    spectra = _noise_free_spectra(example2_norm, J=9, N=12)
    res = residual_energy(spectra, etfe(spectra))
    assert np.max(res) < 1e-8


def test_residual_grows_with_noise(example1_norm):
    res = {}
    for sigma in (0.1, 1.0):
        ens = collect_ensemble(example1_norm, J=8, N=16, sigma=sigma, master_seed=11)
        spectra = assemble_spectra(ens)
        res[sigma] = float(np.sum(residual_energy(spectra, etfe(spectra))))
    assert 0 < res[0.1] < res[1.0]


@pytest.mark.parametrize("N", [9, 10])
def test_etfe_half_grid_matches_per_frequency_pinv(example2_norm, N):
    # Only k <= N/2 is estimated; its conjugate mirror agrees with the
    # per-frequency least-squares solution on the rest of the grid.
    ens = collect_ensemble(example2_norm, J=6, N=N, sigma=0.7, master_seed=13)
    half = etfe(assemble_spectra(ens)).G
    assert len(half) == N // 2 + 1
    G = np.concatenate([half, half[1 : (N + 1) // 2][::-1].conj()])
    U, Y = _full_grid(ens.u, N), _full_grid(ens.y, N)
    for k in range(N):
        reference = Y[k] @ np.linalg.pinv(U[k], rcond=1e-10)
        scale = np.max(np.abs(reference))
        np.testing.assert_allclose(G[k], reference, rtol=0, atol=1e-12 * scale)


def test_residual_energy_matches_per_frequency_norm(example1_norm):
    ens = collect_ensemble(example1_norm, J=8, N=16, sigma=1.0, master_seed=11)
    spectra = assemble_spectra(ens)
    response = etfe(spectra)
    U, Y = _full_grid(ens.u, 16), _full_grid(ens.y, 16)
    reference = [
        np.linalg.norm(Y[k] - response.G[k] @ U[k], "fro") for k in range(16 // 2 + 1)
    ]
    np.testing.assert_allclose(
        residual_energy(spectra, response), reference, rtol=1e-14
    )


def test_residual_energy_rejects_mismatched_grid(example1_norm):
    spectra = assemble_spectra(
        collect_ensemble(example1_norm, J=4, N=8, sigma=0.0, master_seed=1)
    )
    for N_other in (6, 9):  # N = 9 has as many half-grid points as N = 8
        other = etfe(
            assemble_spectra(
                collect_ensemble(example1_norm, J=4, N=N_other, sigma=0.0, master_seed=1)
            )
        )
        with pytest.raises(ConfigError, match="grid sizes differ"):
            residual_energy(spectra, other)
