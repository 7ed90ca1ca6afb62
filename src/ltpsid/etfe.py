"""Empirical transfer function estimation for the lifted system, from an ensemble.

Each experiment of the ensemble is lifted over one period: lifted sample n
stacks its samples ``nP .. nP+P-1``. One stacked real DFT of the lifted
signals gives, at each grid frequency, the lifted input/output spectra of
the J experiments as (P*n_u, J) and (P*n_y, J) matrices; the frequency
response estimate is the least-squares solution G_hat = Y_tilde @ U_tilde^+
(pseudo-inverse): exact when J = P*n_u and the minimum-residual fit when J
is larger. Real data give conjugate-symmetric spectra and response,
``G[N-k] = conj(G[k])``, so all three are computed and kept on the half
grid k = 0..N//2 only.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, RankDeficient
from .model import LiftedFrequencyResponse
from .signal import Ensemble

__all__ = ["etfe", "residual_energy"]

RANK_TOL = 1e-10  # a grid point with s_min <= RANK_TOL * s_max is rank-deficient


def _lifted_spectra(ensemble: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Half-grid data matrices ``(U_tilde, Y_tilde)``, one real transform per signal.

    ``U[k]`` is (P*n_u, J) and holds, column per experiment, the unnormalized
    DFT ``sum_n u_lifted[n] * exp(-2j*pi*n*k/N)`` for k = 0..N//2; likewise
    ``Y[k]``, (P*n_y, J).
    """
    J, N = ensemble.J, ensemble.N
    return tuple(np.fft.rfft(x.reshape(J, N, -1), axis=1).transpose(1, 2, 0)
                 for x in (ensemble.u, ensemble.y))


def etfe(ensemble: Ensemble) -> LiftedFrequencyResponse:
    """Least-squares estimate of the lifted frequency response of an ensemble.

    One batched QR over the half grid k = 0..N//2 factors U_tilde^H = Q R,
    back substitution gives R^{-1}, and G_hat = (Y_tilde Q) R^{-H} there. A
    grid point is rank-deficient, and ``RankDeficient`` names the lowest k,
    when s_min <= ``RANK_TOL``*s_max for the singular values of R (those of
    U_tilde). As s_min >= 1/||R^{-1}||_F and s_max <= ||R||_F, the SVD of R
    runs only if some point fails 1/||R^{-1}||_F > RANK_TOL*||R||_F.
    """
    U, Y = _lifted_spectra(ensemble)
    Q, R = np.linalg.qr(U.conj().swapaxes(-1, -2))
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
    G = (Y @ Q) @ R_inv.conj().swapaxes(-1, -2)
    return LiftedFrequencyResponse(P=ensemble.P, N=ensemble.N, ny=ensemble.ny, nu=ensemble.nu, G=G)


def residual_energy(ensemble: Ensemble, response: LiftedFrequencyResponse) -> np.ndarray:
    """Frobenius norm of Y_tilde - G_hat @ U_tilde at each half-grid point k = 0..N//2.

    The response must have the ensemble's P, N, n_y and n_u, else ``ConfigError``.
    Zero (to rounding) whenever the equations are consistent, in
    particular for J = P*n_u and for noise-free steady-state data.
    """
    sizes = [(x.P, x.N, x.ny, x.nu) for x in (response, ensemble)]
    if sizes[0] != sizes[1]:
        raise ConfigError("sizes differ: response (P, N, ny, nu) = {}, "
                          "ensemble (P, N, ny, nu) = {}".format(*sizes))
    U, Y = _lifted_spectra(ensemble)
    return np.linalg.norm(Y - response.G @ U, axis=(1, 2))
