"""Empirical transfer function estimation for the lifted system.

With J experiments the lifted input/output spectra at each grid frequency
form (P*n_u, J) and (P*n_y, J) matrices; the frequency response estimate
is the least-squares solution G_hat = Y_tilde @ pinv(U_tilde). It is exact
when J = P*n_u and the minimum-residual fit when J is larger. The spectra
come from real signals, so only the half grid k = 0..N//2 is estimated and
``G[N-k] = conj(G[k])`` fills the rest: conjugate symmetric by construction,
which is what lets ``subspace.idft_blocks`` invert the half grid to a real
impulse response.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficient
from .model import LiftedFrequencyResponse
from .signal import LiftedSpectra

__all__ = ["etfe", "residual_energy", "LiftedFrequencyResponse"]

DEFAULT_RANK_TOL = 1e-10


def etfe(spectra: LiftedSpectra, rank_tol: float = DEFAULT_RANK_TOL) -> LiftedFrequencyResponse:
    """Least-squares estimate of the lifted frequency response of real data.

    ``rank_tol`` is relative to the largest singular value of the lifted
    input spectrum at each frequency; if fewer than P*n_u singular values
    exceed it, the excitation does not pin down the response there and
    ``RankDeficient`` is raised naming the lowest offending grid point.
    One batched SVD over k = 0..N//2 serves both the rank check and the
    pseudo-inverse.
    """
    N, rows_u, _ = spectra.U.shape
    P = spectra.P
    half = N // 2 + 1
    # The SVD of conj(U) and the product below are those of np.linalg.pinv.
    u, s, vt = np.linalg.svd(spectra.U[:half].conj(), full_matrices=False)
    deficient = s[:, -1] <= rank_tol * s[:, 0]
    if deficient.any():
        k = int(np.argmax(deficient))
        raise RankDeficient(k, float(s[k, -1]))
    pinv = vt.swapaxes(-1, -2) @ ((1 / s)[..., None] * u.swapaxes(-1, -2))
    G = np.empty((N, spectra.Y.shape[1], rows_u), dtype=np.complex128)
    G[:half] = spectra.Y[:half] @ pinv
    G[half:] = G[1 : N - half + 1][::-1].conj()
    # Grid points 0 and N/2 are their own mirror images, so real for real data.
    own_mirror = [0, N // 2] if N % 2 == 0 else [0]
    G[own_mirror] = G[own_mirror].real
    return LiftedFrequencyResponse(P=P, ny=spectra.Y.shape[1] // P, nu=rows_u // P, G=G)


def residual_energy(
    spectra: LiftedSpectra, response: LiftedFrequencyResponse
) -> np.ndarray:
    """Frobenius norm of Y_tilde - G_hat @ U_tilde at each grid frequency.

    Zero (to rounding) whenever the equations are consistent, in
    particular for J = P*n_u and for noise-free steady-state data.
    """
    if response.N != spectra.N:
        raise ValueError(
            f"grid sizes differ: response N={response.N}, spectra N={spectra.N}"
        )
    return np.linalg.norm(spectra.Y - response.G @ spectra.U, axis=(1, 2))
