"""Empirical transfer function estimation for the lifted system.

With J experiments the lifted input/output spectra at each grid frequency
form (P*n_u, J) and (P*n_y, J) matrices; the frequency response estimate
is the least-squares solution G_hat = Y_tilde @ U_tilde^+ (pseudo-inverse): exact when
J = P*n_u and the minimum-residual fit when J is larger. Real data give a
conjugate-symmetric response, ``G[N-k] = conj(G[k])``, so it is estimated
and kept on the half grid k = 0..N//2 only.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, RankDeficient
from .model import LiftedFrequencyResponse
from .signal import LiftedSpectra

__all__ = ["etfe", "residual_energy"]

RANK_TOL = 1e-10  # a grid point with s_min <= RANK_TOL * s_max is rank-deficient


def etfe(spectra: LiftedSpectra) -> LiftedFrequencyResponse:
    """Least-squares estimate of the lifted frequency response of real data.

    One batched QR over the half grid k = 0..N//2 factors U_tilde^H = Q R,
    back substitution gives R^{-1}, and G_hat = (Y_tilde Q) R^{-H} there. A
    grid point is rank-deficient, and ``RankDeficient`` names the lowest k,
    when s_min <= ``RANK_TOL``*s_max for the singular values of R (those of
    U_tilde). As s_min >= 1/||R^{-1}||_F and s_max <= ||R||_F, the SVD of R
    runs only if some point fails 1/||R^{-1}||_F > RANK_TOL*||R||_F.
    """
    Q, R = np.linalg.qr(spectra.U.conj().swapaxes(-1, -2))
    R_inv = np.broadcast_to(np.eye(R.shape[-1], dtype=R.dtype), R.shape).copy()
    with np.errstate(all="ignore"):  # an exactly singular R gives inf and NaN
        for i in range(R.shape[-1] - 1, -1, -1):
            R_inv[:, i : i + 1] -= R[:, i : i + 1, i + 1 :] @ R_inv[:, i + 1 :]
            R_inv[:, i] /= R[:, i, i, None]
        passes = 1 / np.linalg.norm(R_inv, axis=(1, 2)) > RANK_TOL * np.linalg.norm(R, axis=(1, 2))
    if not passes.all():
        s = np.linalg.svd(R, compute_uv=False)
        deficient = np.flatnonzero(s[:, -1] <= RANK_TOL * s[:, 0])
        if deficient.size:
            raise RankDeficient(int(deficient[0]), float(s[deficient[0], -1]))
    P, N = spectra.P, spectra.N
    G = (spectra.Y @ Q) @ R_inv.conj().swapaxes(-1, -2)
    return LiftedFrequencyResponse(P=P, N=N, ny=G.shape[1] // P, nu=G.shape[2] // P, G=G)


def residual_energy(spectra: LiftedSpectra, response: LiftedFrequencyResponse) -> np.ndarray:
    """Frobenius norm of Y_tilde - G_hat @ U_tilde at each half-grid point k = 0..N//2.

    Zero (to rounding) whenever the equations are consistent, in
    particular for J = P*n_u and for noise-free steady-state data.
    """
    if response.N != spectra.N:
        raise ConfigError(
            f"grid sizes differ: response N={response.N}, spectra N={spectra.N}"
        )
    return np.linalg.norm(spectra.Y - response.G @ spectra.U, axis=(1, 2))
