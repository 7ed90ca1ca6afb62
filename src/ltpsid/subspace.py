"""Subspace realization of an LTP model from the lifted frequency response.

The pipeline runs in fixed stages:

1. inverse DFT of every (output slot, input slot) block of the response,
2. rearrangement of the blocks into the time-aliased periodic impulse
   response (tag time t in 0..P-1, lag r in 1..N*P),
3. periodic block-Hankel assembly, one matrix per starting tag time,
4. SVD of each Hankel matrix; the leading left singular vectors span the
   extended observability matrix up to an unknown coordinate change,
5. shift-invariance recovery of the A_t and C_t matrices,
6. least-squares fit of the B_t matrices to the aliased impulse response.

``identify`` chains the stages from an ensemble of experiments and tags
any stage failure with the stage name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlockRangeExceeded,
    ConfigError,
    IllConditioned,
    IndexCollision,
    NonRealResidue,
    OrderTooLarge,
    PipelineError,
    ShiftRankDeficient,
    UnstableEstimate,
)
from .etfe import DEFAULT_RANK_TOL, etfe
from .model import (
    ImpulseResponseTable,
    LiftedFrequencyResponse,
    LtpModel,
    aliased_impulse_response_true,
)
from .signal import Ensemble, assemble_spectra

__all__ = [
    "AliasedImpulseResponse",
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

# The assembled estimate reuses the impulse-response container; assembly
# enforces the extra completeness and realness invariants.
AliasedImpulseResponse = ImpulseResponseTable

# Largest imaginary part the IDFT blocks may keep, relative to max|blocks| so
# the verdict does not depend on the units of the data.
IMAG_RESIDUE_TOL = 1e-6
REGRESSOR_COND_LIMIT = 1e12


def idft_blocks(response: LiftedFrequencyResponse) -> np.ndarray:
    """Inverse DFT of the response over the frequency grid.

    Returns the complex (N, P*n_y, P*n_u) array w with
    ``w[n] = (1/N) * sum_k G[k] * exp(2j*pi*n*k/N)``; imaginary parts are
    kept so the caller can check they are negligible.
    """
    return np.fft.ifft(response.G, axis=0)


def assemble_aliased(blocks: np.ndarray, P: int, N: int) -> ImpulseResponseTable:
    """Rearrange IDFT blocks into the time-aliased periodic impulse response.

    Block (l, m) at IDFT index n lands at tag time l and lag
    ``n*P + l - m``, shifted up by one record length ``N*P`` when that lag
    is not positive. The map is a bijection onto tag times {0..P-1} and
    lags {1..N*P}; hitting a slot twice or leaving one empty indicates an
    implementation fault and raises ``IndexCollision``.
    """
    blocks = np.asarray(blocks)
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
    max_imag = float(np.max(np.abs(blocks.imag))) if np.iscomplexobj(blocks) else 0.0
    limit = IMAG_RESIDUE_TOL * float(np.max(np.abs(blocks), initial=0.0))
    if max_imag > limit:
        raise NonRealResidue(
            f"imaginary residue {max_imag:.3e} exceeds {limit:.3e}; "
            "the frequency response is not conjugate symmetric"
        )
    max_lag = N * P
    values = np.zeros((P, max_lag, ny, nu))
    filled = np.zeros((P, max_lag), dtype=bool)
    for l in range(P):
        rows = slice(l * ny, (l + 1) * ny)
        for m in range(P):
            cols = slice(m * nu, (m + 1) * nu)
            for n in range(N):
                lag = n * P + l - m
                if lag <= 0:
                    lag += max_lag
                if filled[l, lag - 1]:
                    raise IndexCollision(
                        f"(tag={l}, lag={lag}) assigned twice during assembly"
                    )
                filled[l, lag - 1] = True
                values[l, lag - 1] = blocks[n, rows, cols].real
    if not filled.all():
        missing = np.argwhere(~filled)[0]
        raise IndexCollision(
            f"(tag={missing[0]}, lag={missing[1] + 1}) never assigned during assembly"
        )
    return ImpulseResponseTable(P=P, max_lag=max_lag, values=values)


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


def build_hankels(h: ImpulseResponseTable, q: int, r: int) -> PeriodicHankelSet:
    """Assemble the q-by-r block-Hankel matrix for every starting tag time."""
    if q < 1 or r < 1:
        raise ConfigError(f"block counts must be >= 1, got q={q}, r={r}")
    if q + r - 1 > h.max_lag:
        raise BlockRangeExceeded(
            f"q+r-1 = {q + r - 1} exceeds available lags N*P = {h.max_lag}"
        )
    P, ny, nu = h.P, h.ny, h.nu
    matrices = []
    for tau in range(P):
        H = np.empty((q * ny, r * nu))
        for i in range(q):
            for j in range(r):
                H[i * ny : (i + 1) * ny, j * nu : (j + 1) * nu] = h.entry(
                    tau + i, i + j + 1
                )
        matrices.append(H)
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
        if svals.size < order or svals[order - 1] <= 1e-12 * max(svals[0], 1.0):
            raise ShiftRankDeficient(tau)
        A_est.append(np.linalg.pinv(top) @ U_now[ny:, :])
        C_est.append(U_now[:ny, :])
    return A_est, C_est


def estimate_B(
    A_est: list[np.ndarray],
    C_est: list[np.ndarray],
    h: ImpulseResponseTable,
    N: int,
) -> tuple[list[np.ndarray], float]:
    """Least-squares fit of the input matrices to the aliased impulse response.

    Each (tag time, lag) coefficient is linear in exactly one B matrix,
    the one at time index ``tag - lag`` mod P, so the objective splits
    into P independent least-squares problems. The regressors are built
    by the running product of estimated state matrices behind the
    resolvent of the estimated monodromy.
    """
    P = len(A_est)
    nx = A_est[0].shape[0]
    ny = C_est[0].shape[0]
    max_lag = h.max_lag

    def A_at(t: int) -> np.ndarray:
        return A_est[t % P]

    psi0 = np.eye(nx)
    for s in range(1, P + 1):
        psi0 = psi0 @ A_at(-s)
    rho = float(np.max(np.abs(np.linalg.eigvals(psi0)))) if nx else 0.0
    if rho >= 1.0:
        raise UnstableEstimate(
            f"estimated monodromy has spectral radius {rho:.4f} >= 1; "
            "cannot form the aliasing resolvent"
        )

    regressors: list[list[np.ndarray]] = [[] for _ in range(P)]
    targets: list[list[np.ndarray]] = [[] for _ in range(P)]
    for tau in range(P):
        psi_tau = np.eye(nx)
        for s in range(1, P + 1):
            psi_tau = psi_tau @ A_at(tau - s)
        resolvent = np.linalg.inv(np.eye(nx) - np.linalg.matrix_power(psi_tau, N))
        Q = C_est[tau] @ resolvent
        for lag in range(1, max_lag + 1):
            beta = (tau - lag) % P
            regressors[beta].append(Q)
            targets[beta].append(h.entry(tau, lag))
            Q = Q @ A_at(tau - lag)

    B_est: list[np.ndarray] = []
    total_residual = 0.0
    for beta in range(P):
        G = np.vstack(regressors[beta])
        T = np.vstack(targets[beta])
        svals = np.linalg.svd(G, compute_uv=False)
        if svals[-1] <= 0 or svals[0] / svals[-1] > REGRESSOR_COND_LIMIT:
            raise IllConditioned(
                f"regressor for input matrix at time {beta} has condition number "
                f"above {REGRESSOR_COND_LIMIT:g}"
            )
        sol, _, _, _ = np.linalg.lstsq(G, T, rcond=None)
        B_est.append(sol)
        total_residual += float(np.sum((T - G @ sol) ** 2))
    return B_est, total_residual


@dataclass(frozen=True)
class IdentificationResult:
    """Estimated model plus the order-revealing diagnostics.

    ``singular_values[tau]`` is the descending Hankel spectrum at each
    starting tag time. ``h_reconstruction_error[t, r-1]`` is the Frobenius
    distance between the assembled aliased response and the one implied by
    the estimated model.
    """

    model: LtpModel
    singular_values: tuple[np.ndarray, ...]
    order_used: int
    q: int
    r: int
    b_residual: float
    h_reconstruction_error: np.ndarray = field(repr=False)
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
    B_est, b_residual = run("estimate_B", estimate_B, A_est, C_est, h_est, ensemble.N)

    est_model = LtpModel(A=tuple(A_est), B=tuple(B_est), C=tuple(C_est))
    h_model = aliased_impulse_response_true(est_model, ensemble.N)
    recon_err = np.linalg.norm(h_model.values - h_est.values, axis=(2, 3))
    return IdentificationResult(
        model=est_model,
        singular_values=selection.singular_values,
        order_used=selection.order,
        q=q,
        r=r,
        b_residual=b_residual,
        h_reconstruction_error=recon_err,
        threshold_counts=selection.threshold_counts,
    )
