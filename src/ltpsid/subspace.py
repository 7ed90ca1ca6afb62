"""Subspace realization of an LTP model from the lifted frequency response.

The pipeline runs in fixed stages:

1. inverse DFT of every (output slot, input slot) block of the response,
   taken from the half grid k = 0..N//2 as a real inverse, since the
   response of real data is conjugate symmetric,
2. rearrangement of the blocks into the time-aliased periodic impulse
   response, a plain (P, N*P, n_y, n_u) array with tag time t and lag r
   at entry ``[t, r-1]``,
3. periodic block-Hankel assembly, one matrix per starting tag time,
4. SVD of each Hankel matrix; the leading left singular vectors span the
   extended observability matrix up to an unknown coordinate change,
5. shift-invariance recovery of the A_t and C_t matrices,
6. least-squares fit of the B_t matrices to the aliased impulse response.

Stages 2 and 3 are single fancy-index scatters and gathers; the B fit
takes its regressors from ``model.markov_rows``, the one periodic Markov
kernel. ``identify`` chains the stages from an ensemble of experiments and
tags any stage failure with the stage name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlockRangeExceeded,
    ConfigError,
    IllConditioned,
    OrderTooLarge,
    PipelineError,
    ShiftRankDeficient,
    UnstableEstimate,
)
from .etfe import DEFAULT_RANK_TOL, etfe
from .model import (
    LiftedFrequencyResponse,
    LtpModel,
    _input_times,
    _monodromies,
    _with_inputs,
    markov_rows,
)
from .signal import Ensemble, assemble_spectra

__all__ = [
    "PeriodicHankelSet",
    "OrderSelection",
    "IdentificationResult",
    "idft_blocks",
    "assemble_aliased",
    "build_hankels",
    "svd_order",
    "estimate_AC",
    "estimate_B",
    "identify",
]

REGRESSOR_COND_LIMIT = 1e12


def idft_blocks(response: LiftedFrequencyResponse) -> np.ndarray:
    """Inverse DFT of a conjugate-symmetric response over the frequency grid.

    Returns the real (N, P*n_y, P*n_u) array w with
    ``w[n] = (1/N) * sum_k G[k] * exp(2j*pi*n*k/N)``, computed from the
    half grid k = 0..N//2 alone.
    """
    N = response.N
    return np.fft.irfft(response.G[: N // 2 + 1], n=N, axis=0)


def _aliased_lags(P: int, N: int) -> np.ndarray:
    """Lag in 1..N*P where IDFT block (l, m) at index n lands, as a (P, N, P) array."""
    l, n, m = np.ix_(np.arange(P), np.arange(N), np.arange(P))
    return (n * P + l - m - 1) % (N * P) + 1


def assemble_aliased(blocks: np.ndarray, P: int, N: int) -> np.ndarray:
    """Rearrange real IDFT blocks into the time-aliased periodic impulse response.

    Block (l, m) at IDFT index n lands at tag time l and lag
    ``n*P + l - m``, shifted up by one record length ``N*P`` when that lag
    is not positive. For each tag time the N*P pairs (n, m) map onto the
    N*P lags one to one, so a single scatter fills the whole
    (P, N*P, n_y, n_u) table.
    """
    blocks = np.asarray(blocks)
    if np.iscomplexobj(blocks):
        raise ConfigError("blocks must be real; take them from idft_blocks")
    if blocks.ndim != 3 or blocks.shape[0] != N:
        raise ConfigError(
            f"blocks must have shape (N, P*ny, P*nu) with N={N}, got {blocks.shape}"
        )
    if blocks.shape[1] % P or blocks.shape[2] % P:
        raise ConfigError(
            f"block array width/height {blocks.shape[1:]} not divisible by P={P}"
        )
    ny = blocks.shape[1] // P
    nu = blocks.shape[2] // P
    h = np.empty((P, N * P, ny, nu))
    tags = np.arange(P)[:, None, None]
    h[tags, _aliased_lags(P, N) - 1] = (
        blocks.reshape(N, P, ny, P, nu).transpose(1, 0, 3, 2, 4)
    )
    return h


@dataclass(frozen=True)
class PeriodicHankelSet:
    """Block-Hankel matrices of the aliased impulse response, one per tag time.

    ``matrices[tau]`` has block (i, j) equal to the response at tag time
    ``tau + i`` (cyclic) and lag ``i + j + 1``, giving shape
    (q*n_y, r*n_u).
    """

    q: int
    r: int
    P: int
    ny: int
    nu: int
    matrices: tuple[np.ndarray, ...] = field(repr=False)


def build_hankels(h: np.ndarray, q: int, r: int) -> PeriodicHankelSet:
    """Assemble the q-by-r block-Hankel matrix for every starting tag time.

    ``h`` is the (P, max_lag, n_y, n_u) aliased impulse response.
    """
    if q < 1 or r < 1:
        raise ConfigError(f"block counts must be >= 1, got q={q}, r={r}")
    P, max_lag, ny, nu = h.shape
    if q + r - 1 > max_lag:
        raise BlockRangeExceeded(
            f"q+r-1 = {q + r - 1} exceeds available lags N*P = {max_lag}"
        )
    tau, i, j = np.ix_(np.arange(P), np.arange(q), np.arange(r))
    stack = h[(tau + i) % P, i + j].transpose(0, 1, 3, 2, 4)
    matrices = stack.reshape(P, q * ny, r * nu)
    return PeriodicHankelSet(q=q, r=r, P=P, ny=ny, nu=nu, matrices=tuple(matrices))


@dataclass(frozen=True)
class OrderSelection:
    """Leading left singular bases of the Hankel set at a common order.

    ``bases[tau]`` is (q*n_y, order) with orthonormal columns;
    ``singular_values[tau]`` is the full descending spectrum.
    ``threshold_counts`` records the per-tag-time order suggested by the
    threshold (None in fixed-order mode); when the counts disagree the
    maximum is used.
    """

    order: int
    bases: tuple[np.ndarray, ...]
    singular_values: tuple[np.ndarray, ...]
    threshold_counts: tuple[int, ...] | None = None


def svd_order(
    hankels: PeriodicHankelSet,
    n_x: int | None = None,
    threshold: float | None = None,
) -> OrderSelection:
    """Pick the state order and observability bases from the Hankel SVDs.

    Exactly one of ``n_x`` (fixed order) or ``threshold`` (relative to the
    largest singular value, order shared across tag times as the maximum
    count) must be given.
    """
    if (n_x is None) == (threshold is None):
        raise ConfigError("specify exactly one of n_x or threshold")
    max_order = min(hankels.q * hankels.ny, hankels.r * hankels.nu)
    svd_results = [np.linalg.svd(H, full_matrices=False) for H in hankels.matrices]
    svals = tuple(s for _, s, _ in svd_results)
    counts = None
    if threshold is not None:
        counts = tuple(int(np.sum(s > threshold * s[0])) for s in svals)
        order = max(counts)
    else:
        order = int(n_x)
    if order < 1 or order > max_order:
        raise OrderTooLarge(
            f"order {order} outside 1..min(q*ny, r*nu) = {max_order}"
        )
    bases = tuple(U[:, :order] for U, _, _ in svd_results)
    return OrderSelection(
        order=order, bases=bases, singular_values=svals, threshold_counts=counts
    )


def estimate_AC(
    bases: tuple[np.ndarray, ...], ny: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Recover the state and output matrices by shift invariance.

    For each tag time, the basis with its last block row dropped, advanced
    one tag time (wrapping the last back to the first), maps onto the
    basis with its first block row dropped; the transition matrix is the
    least-squares solution of that relation. The output matrix is the
    first block row of the basis.
    """
    P = len(bases)
    order = bases[0].shape[1]
    A_est, C_est = [], []
    for tau in range(P):
        U_now = bases[tau]
        U_next = bases[(tau + 1) % P]
        top = U_next[:-ny, :]
        svals = np.linalg.svd(top, compute_uv=False)
        # top is part of an orthonormal basis, so svals[0] <= 1: an absolute bound.
        if svals.size < order or svals[order - 1] <= 1e-12:
            raise ShiftRankDeficient(tau)
        A_est.append(np.linalg.pinv(top) @ U_now[ny:, :])
        C_est.append(U_now[:ny, :])
    return A_est, C_est


def estimate_B(
    A_est: list[np.ndarray],
    C_est: list[np.ndarray],
    h: np.ndarray,
    N: int,
) -> tuple[list[np.ndarray], float, np.ndarray]:
    """Least-squares fit of the input matrices to the aliased impulse response.

    ``h`` is the (P, N*P, n_y, n_u) aliased response. Each (tag time, lag)
    coefficient is linear in exactly one B matrix, the one at time index
    ``beta = tag - lag`` mod P, so the objective splits into P independent
    least-squares problems whose regressors are the aliased ``markov_rows``
    of the estimated A, C. Returns the B matrices, the total squared
    residual, and the fitted aliased response in the layout of ``h``.
    """
    P = len(A_est)
    A = np.asarray(A_est, dtype=np.float64)
    nx = A.shape[1]
    rho = float(np.max(np.abs(np.linalg.eigvals(_monodromies(A)[0])))) if nx else 0.0
    if rho >= 1.0:
        raise UnstableEstimate(
            f"estimated monodromy has spectral radius {rho:.4f} >= 1; "
            "cannot form the aliasing resolvent"
        )

    max_lag, nu = h.shape[1], h.shape[3]
    rows = markov_rows(A, C_est, max_lag, N)
    beta_of = _input_times(P, max_lag)
    B_est: list[np.ndarray] = []
    total_residual = 0.0
    for beta in range(P):
        mask = beta_of == beta
        G = rows[mask].reshape(-1, nx)
        T = h[mask].reshape(-1, nu)
        svals = np.linalg.svd(G, compute_uv=False)
        if svals[-1] <= 0 or svals[0] / svals[-1] > REGRESSOR_COND_LIMIT:
            raise IllConditioned(
                f"regressor for input matrix at time {beta} has condition number "
                f"above {REGRESSOR_COND_LIMIT:g}"
            )
        sol, _, _, _ = np.linalg.lstsq(G, T, rcond=None)
        B_est.append(sol)
        total_residual += float(np.sum((T - G @ sol) ** 2))
    return B_est, total_residual, _with_inputs(rows, B_est)


@dataclass(frozen=True)
class IdentificationResult:
    """Estimated model plus the order-revealing diagnostics.

    ``singular_values[tau]`` is the descending Hankel spectrum at each
    starting tag time. ``h_reconstruction_error[t, r-1]`` is the Frobenius
    distance between the assembled aliased response and the one implied by
    the estimated model. ``response`` is the estimated lifted frequency
    response the model was realized from.
    """

    model: LtpModel
    singular_values: tuple[np.ndarray, ...]
    order_used: int
    q: int
    r: int
    b_residual: float
    h_reconstruction_error: np.ndarray = field(repr=False)
    response: LiftedFrequencyResponse = field(repr=False)
    threshold_counts: tuple[int, ...] | None = None


def default_block_counts(N: int, P: int) -> tuple[int, int]:
    """Balanced Hankel block counts: q = r = floor((N*P + 1) / 2)."""
    q = (N * P + 1) // 2
    return q, q


def identify(
    ensemble: Ensemble,
    q: int | None = None,
    r: int | None = None,
    n_x: int | None = None,
    order_threshold: float | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> IdentificationResult:
    """Full identification pipeline from an ensemble of periodic experiments.

    Stages: lift and transform the data, estimate the lifted frequency
    response, invert it to the aliased impulse response, build the
    periodic Hankel set, select the order, and recover A, C by shift
    invariance and B by least squares. Any stage error is re-raised as a
    ``PipelineError`` naming the stage. Deterministic given its inputs.
    """
    qd, rd = default_block_counts(ensemble.N, ensemble.P)
    q = qd if q is None else q
    r = rd if r is None else r
    if q + r - 1 > ensemble.N * ensemble.P:
        raise BlockRangeExceeded(
            f"q+r-1 = {q + r - 1} exceeds record length N*P = {ensemble.N * ensemble.P}"
        )

    def run(stage: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise PipelineError(stage, exc) from exc

    spectra = run("assemble_spectra", assemble_spectra, ensemble)
    response = run("etfe", etfe, spectra, rank_tol)
    blocks = run("idft_blocks", idft_blocks, response)
    h_est = run("assemble_aliased", assemble_aliased, blocks, ensemble.P, ensemble.N)
    hankels = run("build_hankels", build_hankels, h_est, q, r)
    selection = run("svd_order", svd_order, hankels, n_x, order_threshold)
    A_est, C_est = run("estimate_AC", estimate_AC, selection.bases, ensemble.ny)
    B_est, b_residual, h_fit = run("estimate_B", estimate_B, A_est, C_est, h_est, ensemble.N)

    est_model = LtpModel(A=tuple(A_est), B=tuple(B_est), C=tuple(C_est))
    recon_err = np.linalg.norm(h_fit - h_est, axis=(2, 3))
    return IdentificationResult(
        model=est_model,
        singular_values=selection.singular_values,
        order_used=selection.order,
        q=q,
        r=r,
        b_residual=b_residual,
        h_reconstruction_error=recon_err,
        response=response,
        threshold_counts=selection.threshold_counts,
    )
