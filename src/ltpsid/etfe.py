"""Empirical transfer function estimation for the lifted system.

With J experiments the lifted input/output spectra at each grid frequency
form (P*n_u, J) and (P*n_y, J) matrices; the frequency response estimate
is the least-squares solution G_hat = Y_tilde @ pinv(U_tilde), from a QR
factorization of U_tilde^H: exact when J = P*n_u and the minimum-residual
fit when J is larger. The spectra come from real signals, so only the half
grid k = 0..N//2 is estimated and ``G[N-k] = conj(G[k])`` fills the rest:
conjugate symmetric by construction, which is what lets
``subspace.idft_blocks`` invert the half grid to a real impulse response.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, RankDeficient
from .model import LiftedFrequencyResponse, _mirror_half_grid
from .signal import LiftedSpectra

__all__ = ["etfe", "residual_energy", "LiftedFrequencyResponse"]

DEFAULT_RANK_TOL = 1e-10


def etfe(spectra: LiftedSpectra, rank_tol: float = DEFAULT_RANK_TOL) -> LiftedFrequencyResponse:
    """Least-squares estimate of the lifted frequency response of real data.

    ``rank_tol`` is relative to the largest singular value of the lifted
    input spectrum at each frequency; if fewer than P*n_u singular values
    exceed it, the excitation does not pin down the response there and
    ``RankDeficient`` is raised naming the lowest offending grid point.
    One batched QR over k = 0..N//2 factors U_tilde^H = Q R. Q has
    orthonormal columns, so the square R has the singular values of
    U_tilde and serves the rank check, and G_hat^H = R^{-1} Q^H Y_tilde^H
    follows by back substitution, R being upper triangular. A ``rank_tol``
    that is not a finite number >= 0 raises ``ConfigError``.
    """
    if not 0 <= rank_tol < np.inf:
        raise ConfigError(f"rank_tol must be a finite number >= 0, got {rank_tol}")
    Q, R = np.linalg.qr(spectra.U.conj().swapaxes(-1, -2))
    s = np.linalg.svd(R, compute_uv=False)
    deficient = s[:, -1] <= rank_tol * s[:, 0]
    if deficient.any():
        k = int(np.argmax(deficient))
        raise RankDeficient(k, float(s[k, -1]))
    G_h = (spectra.Y @ Q).conj().swapaxes(-1, -2)
    for i in range(G_h.shape[1] - 1, -1, -1):
        G_h[:, i : i + 1] -= R[:, i : i + 1, i + 1 :] @ G_h[:, i + 1 :]
        G_h[:, i] /= R[:, i, i, None]
    P = spectra.P
    G = _mirror_half_grid(G_h.conj().swapaxes(-1, -2), spectra.N)
    return LiftedFrequencyResponse(P=P, ny=G.shape[1] // P, nu=G.shape[2] // P, G=G)


def residual_energy(spectra: LiftedSpectra, response: LiftedFrequencyResponse) -> np.ndarray:
    """Frobenius norm of Y_tilde - G_hat @ U_tilde at each half-grid point k = 0..N//2.

    Zero (to rounding) whenever the equations are consistent, in
    particular for J = P*n_u and for noise-free steady-state data.
    """
    if response.N != spectra.N:
        raise ConfigError(
            f"grid sizes differ: response N={response.N}, spectra N={spectra.N}"
        )
    return np.linalg.norm(spectra.Y - response.G[: len(spectra.U)] @ spectra.U, axis=(1, 2))
