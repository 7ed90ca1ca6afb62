"""Periodic state-space models and their derived responses.

A linear time-periodic (LTP) system is described by matrix sequences
``A_t, B_t, C_t`` that repeat with period ``P``:

    x(t+1) = A_t x(t) + B_t u(t)
    y(t)   = C_t x(t)

The system is strictly causal (no feedthrough term). All time indices are
cyclic: the matrix at time ``t`` is the stored matrix at ``t mod P``, for
any integer ``t`` including negative ones.

This module provides the model type plus the quantities the identification
pipeline is checked against: the monodromy matrix, periodic impulse
responses, their time-aliased closed form, the lifted LTI realization, and
the exact frequency response of the lifted system.
Every product ``C_t A_{t-1} ... A_{t-r+1}`` in the package, plain or
aliased, and every block of the lifted realization comes from one kernel,
``markov_rows``; it matches the per-entry reference ``impulse_response``
to within 1e-14 of the largest entry. Impulse-response tables, plain or
aliased, are bare (P, max_lag, n_y, n_u) float arrays whose entry
``[t, r-1]`` is tag time t, lag r.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateGain,
    DimensionMismatch,
    NumericalError,
    SingularMatrix,
)

__all__ = [
    "LtpModel",
    "LiftedLtiModel",
    "LiftedFrequencyResponse",
    "Stability",
    "validate",
    "monodromy",
    "is_stable",
    "impulse_response",
    "markov_rows",
    "impulse_table",
    "aliased_impulse_response_true",
    "lift_model",
    "true_lifted_frequency_response",
    "normalize_gain",
]


def _as_matrix_tuple(mats: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    out = []
    for m in mats:
        arr = np.array(m, dtype=np.float64)
        arr = np.atleast_2d(arr)
        arr.flags.writeable = False
        out.append(arr)
    return tuple(out)


@dataclass(frozen=True)
class LtpModel:
    """Strictly causal LTP state-space model with period ``len(A)``.

    Attributes:
        A: P state matrices, each (n_x, n_x).
        B: P input matrices, each (n_x, n_u).
        C: P output matrices, each (n_y, n_x).
    """

    A: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]
    C: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", _as_matrix_tuple(self.A))
        object.__setattr__(self, "B", _as_matrix_tuple(self.B))
        object.__setattr__(self, "C", _as_matrix_tuple(self.C))
        validate(self)

    @property
    def P(self) -> int:
        return len(self.A)

    @property
    def nx(self) -> int:
        return self.A[0].shape[0]

    @property
    def nu(self) -> int:
        return self.B[0].shape[1]

    @property
    def ny(self) -> int:
        return self.C[0].shape[0]

    def A_at(self, t: int) -> np.ndarray:
        """State matrix at time ``t`` (cyclic indexing)."""
        return self.A[t % self.P]

    def B_at(self, t: int) -> np.ndarray:
        return self.B[t % self.P]

    def C_at(self, t: int) -> np.ndarray:
        return self.C[t % self.P]


def validate(model: LtpModel) -> None:
    """Check dimensional consistency of all P matrices.

    Raises ``DimensionMismatch`` naming the first offending sequence and
    index, or ``ConfigError`` if the sequences are empty or of unequal
    length.
    """
    P = len(model.A)
    if P < 1:
        raise ConfigError("model needs at least one set of matrices (P >= 1)")
    if len(model.B) != P or len(model.C) != P:
        raise ConfigError(
            f"A, B, C must all have length P={P}, "
            f"got {len(model.A)}, {len(model.B)}, {len(model.C)}"
        )
    nx = model.A[0].shape[0]
    nu = model.B[0].shape[1]
    ny = model.C[0].shape[0]
    for name, mats, expected in (
        ("A", model.A, (nx, nx)),
        ("B", model.B, (nx, nu)),
        ("C", model.C, (ny, nx)),
    ):
        for i, m in enumerate(mats):
            if m.shape != expected:
                raise DimensionMismatch(
                    f"{name}[{i}] has shape {m.shape}, expected {expected}"
                )


def monodromy(model: LtpModel, t: int = 0) -> np.ndarray:
    """State transition over one full period ending just before time ``t``.

    Returns the ordered product ``A_{t-1} A_{t-2} ... A_{t-P}``. The result
    is P-periodic in ``t`` and its eigenvalue multiset is the same for
    every ``t``.
    """
    return _monodromies(np.asarray(model.A))[t % model.P]


def _shifted(A: np.ndarray) -> np.ndarray:
    """``out[j, t] = A_{t-j}`` (cyclic) from the (P, n, n) stack ``A``."""
    P = A.shape[0]
    return A[(np.arange(P)[None, :] - np.arange(P)[:, None]) % P]


def _monodromies(A: np.ndarray) -> np.ndarray:
    """Monodromy matrices ``Psi_t = A_{t-1} ... A_{t-P}`` for t = 0..P-1, stacked."""
    shifted = _shifted(A)
    psi = np.broadcast_to(np.eye(A.shape[1]), A.shape)
    for s in range(1, A.shape[0] + 1):
        psi = psi @ shifted[s % A.shape[0]]
    return psi


class Stability(NamedTuple):
    stable: bool
    spectral_radius: float


def is_stable(model: LtpModel) -> Stability:
    """Stability verdict from the spectral radius of the monodromy matrix."""
    try:
        eigs = np.linalg.eigvals(monodromy(model, 0))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on monodromy matrix: {exc}")
    rho = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    return Stability(stable=rho < 1.0, spectral_radius=rho)


def impulse_response(model: LtpModel, t: int, r: int) -> np.ndarray:
    """Output at time ``t`` caused by a unit input ``r`` steps earlier.

    Computes ``C_t A_{t-1} ... A_{t-r+1} B_{t-r}`` with cyclic indexing;
    the state-matrix product is empty for ``r = 1``. Requires ``r >= 1``
    (the system is strictly causal, so earlier lags are zero).
    """
    if r < 1:
        raise ConfigError(f"impulse-response lag must be >= 1, got {r}")
    M = model.C_at(t)
    for s in range(1, r):
        M = M @ model.A_at(t - s)
    return M @ model.B_at(t - r)


def _inverse_of_identity_minus(M: np.ndarray) -> np.ndarray:
    """Invert (I - M) for one matrix or a stack, raising ``SingularMatrix`` if singular."""
    resolvent = np.eye(M.shape[-1]) - M
    if M.shape[-1] == 0:
        return resolvent
    cond = float(np.max(np.linalg.cond(resolvent)))
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularMatrix(
            f"I - monodromy^N has condition number {cond:.3e}: an eigenvalue of "
            "the monodromy power is within rounding of 1"
        )
    return np.linalg.inv(resolvent)


def markov_rows(A, C, max_lag: int, N: int | None = None) -> np.ndarray:
    """Rows ``C_t [(I - Psi_t^N)^{-1}] A_{t-1} ... A_{t-r+1}`` for all tags and lags.

    ``A`` and ``C`` hold the P state and output matrices; entry ``[t, r-1]``
    of the (P, max_lag, n_y, n_x) result is tag t, lag r. The aliasing
    resolvent is applied only when ``N`` is given. Batched over tag times,
    the product steps one lag at a time over the first period and then one
    period at a time, by the monodromy ``Psi_{t-r+1}``; it agrees with
    ``impulse_response`` to rounding, within 1e-14 of the largest entry.
    """
    A = np.asarray(A, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    P = A.shape[0]
    psi = _monodromies(A) if N is not None or max_lag > P else None
    rows = np.empty((max_lag, P, C.shape[1], A.shape[1]))
    rows[:1] = C if N is None else C @ _inverse_of_identity_minus(np.linalg.matrix_power(psi, N))
    shifted = _shifted(A)
    for r in range(1, min(P, max_lag)):
        np.matmul(rows[r - 1], shifted[r], out=rows[r])
    # Entry [j, t] of _shifted(psi) is Psi_{t-j}, so rows[i + P] = rows[i] @ Psi_{t-i}.
    psi_lag = _shifted(psi) if max_lag > P else None
    for start in range(P, max_lag, P):
        stop = min(start + P, max_lag)
        np.matmul(rows[start - P : stop - P], psi_lag[: stop - start], out=rows[start:stop])
    return rows.swapaxes(0, 1)


def _input_times(P: int, max_lag: int) -> np.ndarray:
    """(P, max_lag) array: the time ``(t - r) mod P`` of the input behind tag t, lag r."""
    return (np.arange(P)[:, None] - np.arange(1, max_lag + 1)[None, :]) % P


def _with_inputs(rows: np.ndarray, B) -> np.ndarray:
    """Coefficients ``rows[t, r-1] @ B_{t-r}`` for the rows of ``markov_rows``."""
    B = np.asarray(B, dtype=np.float64)
    return rows @ B[_input_times(*rows.shape[:2])]


def impulse_table(model: LtpModel, max_lag: int, N: int | None = None) -> np.ndarray:
    """(P, max_lag, n_y, n_u) table of ``impulse_response(model, t, r)``, aliased with ``N``."""
    return _with_inputs(markov_rows(model.A, model.C, max_lag, N), model.B)


def aliased_impulse_response_true(model: LtpModel, N: int) -> np.ndarray:
    """Impulse response folded over records of ``N`` periods.

    Entry ``[t, r-1]`` of the (P, N*P, n_y, n_u) result is the sum of the
    impulse response at tag time t over all lags congruent to ``r`` modulo
    ``N*P``, which has the closed form
    ``C_t (I - Psi_t^N)^{-1} A_{t-1} ... A_{t-r+1} B_{t-r}`` for a stable
    model with monodromy ``Psi_t``.
    """
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    return impulse_table(model, N * model.P, N)


@dataclass(frozen=True)
class LiftedLtiModel:
    """LTI realization whose inputs/outputs stack one period of the LTP signals.

    The feedthrough is block lower-triangular with zero diagonal blocks:
    within a period, the output at slot ``l`` depends only on inputs at
    slots ``m < l``.
    """

    A: np.ndarray  # (n_x, n_x)
    B: np.ndarray  # (n_x, P*n_u)
    C: np.ndarray  # (P*n_y, n_x)
    D: np.ndarray  # (P*n_y, P*n_u)


def lift_model(model: LtpModel) -> LiftedLtiModel:
    """Stack one period of inputs and outputs into a single LTI step.

    The lifted state is the LTP state sampled at the start of each period
    (time 0 mod P), so the lifted state matrix is the monodromy at t=0.
    Every block comes from ``markov_rows`` over one period: output block l
    of C is the row at tag l, lag l + 1; input block m of B is the state
    row (C = I) at tag 0, lag P - m, times ``B_m``; feedthrough block
    (l, m) is the impulse response at tag l, lag l - m.
    """
    P, nx, nu, ny = model.P, model.nx, model.nu, model.ny
    slot = np.arange(P)
    rows = markov_rows(model.A, model.C, P)
    state_rows = markov_rows(model.A, np.broadcast_to(np.eye(nx), (P, nx, nx)), P)
    B_blocks = _with_inputs(state_rows, model.B)[0, ::-1]
    D_blocks = np.zeros((P, P, ny, nu))
    l, m = np.tril_indices(P, -1)
    D_blocks[l, m] = _with_inputs(rows, model.B)[l, l - m - 1]
    return LiftedLtiModel(
        A=_monodromies(np.asarray(model.A))[0],
        B=B_blocks.transpose(1, 0, 2).reshape(nx, P * nu),
        C=rows[slot, slot].reshape(P * ny, nx),
        D=D_blocks.transpose(0, 2, 1, 3).reshape(P * ny, P * nu),
    )


@dataclass(frozen=True)
class LiftedFrequencyResponse:
    """Frequency response of the lifted system on the N-point DFT grid.

    ``G[k]`` is the (P*n_y, P*n_u) complex response at angular frequency
    ``2*pi*k/N``. When derived from real data the grid is conjugate
    symmetric: ``G[k] == conj(G[(N-k) % N])``.
    """

    P: int
    ny: int
    nu: int
    G: np.ndarray = field(repr=False)  # (N, P*ny, P*nu) complex

    def __post_init__(self) -> None:
        arr = np.asarray(self.G, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[1:] != (self.P * self.ny, self.P * self.nu):
            raise ConfigError(
                f"frequency response must have shape (N, P*ny, P*nu), got {arr.shape}"
            )
        object.__setattr__(self, "G", arr)

    @property
    def N(self) -> int:
        return self.G.shape[0]

    @property
    def frequencies(self) -> np.ndarray:
        """Angular frequencies 2*pi*k/N of the grid."""
        return 2.0 * np.pi * np.arange(self.N) / self.N


def _mirror_half_grid(half: np.ndarray, N: int) -> np.ndarray:
    """Full N-point grid from k = 0..N//2 of a real response: ``G[N-k] = conj(G[k])``.

    Grid points 0 and N/2 are their own mirror images, so they keep only their real part.
    """
    G = np.empty((N,) + half.shape[1:], dtype=np.complex128)
    G[: N // 2 + 1] = half
    G[N // 2 + 1 :] = G[1 : (N + 1) // 2][::-1].conj()
    own_mirror = [0, N // 2] if N % 2 == 0 else [0]
    G[own_mirror] = G[own_mirror].real
    return G


def true_lifted_frequency_response(model: LtpModel, N: int) -> LiftedFrequencyResponse:
    """Exact frequency response of the lifted system on the N-point grid.

    Evaluates ``C (zI - A)^{-1} B + D`` of the lifted realization at
    ``z = exp(2*pi*j*k/N)`` for ``k = 0..N//2`` in one batched solve; the
    realization is real, so conjugation fills the rest of the grid.
    """
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    lifted = lift_model(model)
    nx = lifted.A.shape[0]
    z = np.exp(2j * np.pi * np.arange(N // 2 + 1) / N)
    zIA = z[:, None, None] * np.eye(nx) - lifted.A
    if nx:
        singular = ~(np.linalg.cond(zIA) <= 1e14)  # true for nan as well
        if singular.any():
            raise SingularMatrix(
                f"zI - A singular at grid point {int(np.argmax(singular))}; the "
                "lifted state matrix has an eigenvalue on the unit circle"
            )
    half = lifted.C @ np.linalg.solve(zIA, lifted.B[None]) + lifted.D
    return LiftedFrequencyResponse(
        P=model.P, ny=model.ny, nu=model.nu, G=_mirror_half_grid(half, N)
    )


def _lifted_dc_response(model: LtpModel) -> np.ndarray:
    """Lifted frequency response at z=1, the steady-state gain of each slot pair."""
    lifted = lift_model(model)
    return lifted.C @ _inverse_of_identity_minus(lifted.A) @ lifted.B + lifted.D


def dc_gain(model: LtpModel) -> float:
    """Average steady-state gain: mean of all entries of the lifted response at z=1."""
    return float(np.mean(_lifted_dc_response(model)))


def normalize_gain(model: LtpModel) -> LtpModel:
    """Rescale every input matrix so the average steady-state gain is 1.

    The gain is the arithmetic mean of all entries of the lifted response
    at z=1; it is linear in B, so dividing each ``B_t`` by it is an
    idempotent normalization. The gain counts as zero when it is below
    1e-12 of the mean entry magnitude, so the verdict does not depend on
    the units of B.
    """
    G0 = _lifted_dc_response(model)
    gamma = float(np.mean(G0))
    if abs(gamma) <= 1e-12 * float(np.mean(np.abs(G0))):
        raise DegenerateGain(
            f"average steady-state gain {gamma:.3e} too small to normalize"
        )
    return LtpModel(A=model.A, B=tuple(b / gamma for b in model.B), C=model.C)
