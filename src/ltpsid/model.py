"""Periodic state-space models and their derived responses.

A linear time-periodic (LTP) system is described by matrix sequences
``A_t, B_t, C_t`` that repeat with period ``P``:

    x(t+1) = A_t x(t) + B_t u(t)
    y(t)   = C_t x(t)

The system is strictly causal (no feedthrough term). All time indices are
cyclic: the matrix at time ``t`` is the stored matrix at ``t mod P``, for
any integer ``t`` including negative ones.

This module provides the model type, the one owner of the rules its
matrices obey in memory and in a model file, plus the quantities the
identification pipeline is checked against: the one stability rule on the
monodromy matrix, periodic impulse-response tables, the lifted LTI
realization, and the type that holds a lifted frequency response.
Every lifted block, every monodromy and every impulse-response table comes
from one lag-by-lag loop, ``markov_rows``. ``_aliasing_resolvent`` owns
``(I - Psi^N)^{-1}`` behind its stability guard: the steady-state fixed point of
``signal`` and the start ``C_t (I - Psi_t^N)^{-1}`` of ``subspace.estimate_B``'s
regressors, which that fit carries to N periods by its own repeated squaring
of the monodromy. Impulse-response tables are bare
(P, max_lag, n_y, n_u) float arrays whose entry ``[t, r-1]`` is tag time t,
lag r.
A model memoizes what depends on it alone: ``lift_model``, the steady-state
resolvent ``(I - A_L^N)^{-1}`` per N and ``impulse_table`` per lag, whose
arrays are shared by every caller and read-only; a pickled copy starts empty.
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
    _array_fits,
    _integer,
    _real_array,
)

__all__ = [
    "LtpModel",
    "LiftedLtiModel",
    "LiftedFrequencyResponse",
    "Stability",
    "is_stable",
    "markov_rows",
    "impulse_table",
    "lift_model",
    "normalize_gain",
]


def _as_matrix_tuple(name: str, mats: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Read-only float copies of ``mats``, each real, 2-D with no empty dimension and finite."""
    out = []
    for i, m in enumerate(mats):
        arr = _real_array(f"{name}[{i}]", m).copy()
        if arr.ndim != 2 or 0 in arr.shape:
            raise DimensionMismatch(f"{name}[{i}] must be a 2-D matrix with no empty "
                                    f"dimension, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ConfigError(f"{name}[{i}] has a non-finite entry")
        arr.flags.writeable = False
        out.append(arr)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class LtpModel:
    """Strictly causal LTP state-space model with period ``len(A)``.

    Attributes:
        A: P state matrices, each (n_x, n_x).
        B: P input matrices, each (n_x, n_u).
        C: P output matrices, each (n_y, n_x).
        _memo: private; ``lift_model``, the stability-checked steady-state resolvent per
            N and ``impulse_table`` per lag, shared, read-only and empty in a new model.
    """

    A: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]
    C: tuple[np.ndarray, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        """Freeze the matrices and check them all, so n_x, n_y and n_u are >= 1.

        The first matrix that is not 2-D or has an empty dimension raises
        ``DimensionMismatch``, and the first with a NaN or infinite entry
        ``ConfigError``, naming it; so do empty or unequal-length sequences
        (``ConfigError``) and the first disagreeing shape (``DimensionMismatch``).
        """
        for name in ("A", "B", "C"):
            object.__setattr__(self, name, _as_matrix_tuple(name, getattr(self, name)))
        P = len(self.A)
        if P < 1:
            raise ConfigError("model needs at least one set of matrices (P >= 1)")
        if len(self.B) != P or len(self.C) != P:
            raise ConfigError(
                f"A, B, C must all have length P={P}, "
                f"got {len(self.A)}, {len(self.B)}, {len(self.C)}"
            )
        for name, mats, expected in (
            ("A", self.A, (self.nx, self.nx)),
            ("B", self.B, (self.nx, self.nu)),
            ("C", self.C, (self.ny, self.nx)),
        ):
            for i, m in enumerate(mats):
                if m.shape != expected:
                    raise DimensionMismatch(
                        f"{name}[{i}] has shape {m.shape}, expected {expected}"
                    )

    def __reduce__(self):
        """Pickle as a constructor call: a copy is checked, read-only and starts an empty memo."""
        return (LtpModel, (self.A, self.B, self.C))

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


def _memoized(model: LtpModel, key, compute):
    """``compute()`` once per model and key, its arrays made read-only; a raise stores nothing."""
    if key not in model._memo:
        value = compute()
        for arr in vars(value).values() if isinstance(value, LiftedLtiModel) else (value,):
            arr.flags.writeable = False
        model._memo[key] = value
    return model._memo[key]


def _monodromies(A: np.ndarray) -> np.ndarray:
    """Monodromies ``Psi_t = A_{t-1} ... A_{t-P}``: the state rows of ``markov_rows`` at lag P+1."""
    return markov_rows(A, np.broadcast_to(np.eye(A.shape[1]), A.shape), len(A) + 1)[:, -1]


class Stability(NamedTuple):
    stable: bool
    spectral_radius: float


def _stability(psi) -> Stability:
    """The one stability rule, spectral radius < 1 (so NaN fails), for the monodromy stack ``psi``.

    Every monodromy of one model has the same eigenvalues, so ``psi[0]`` decides. It gives
    the verdict only: ``is_stable`` reports it and ``_aliasing_resolvent`` raises on it.
    """
    try:
        rho = float(np.max(np.abs(np.linalg.eigvals(psi[0]))))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on monodromy matrix: {exc}")
    return Stability(stable=rho < 1.0, spectral_radius=rho)


def is_stable(model: LtpModel) -> Stability:
    """Stability verdict from the spectral radius of the monodromy matrix."""
    return _stability(_monodromies(np.asarray(model.A)))


def _inverse_of_identity_minus(M: np.ndarray) -> np.ndarray:
    """Invert I - M (a matrix or a stack); ``SingularMatrix`` unless its 1-norm cond <= 1e14."""
    resolvent = np.eye(M.shape[-1]) - M
    try:
        inverse = np.linalg.inv(resolvent)
        with np.errstate(all="ignore"):
            cond = float(np.max(np.linalg.norm(resolvent, 1, (-2, -1))
                                * np.linalg.norm(inverse, 1, (-2, -1))))
    except np.linalg.LinAlgError:
        cond = np.inf
    if not cond <= 1e14:
        raise SingularMatrix(
            f"I - monodromy^N has condition number {cond:.3e}: an eigenvalue of "
            "the monodromy power is within rounding of 1"
        )
    return inverse


def _aliasing_resolvent(psi, N: int, error: type[Exception], message: str) -> np.ndarray:
    """``(I - Psi^N)^{-1}`` of the monodromy stack ``psi``, the one owner of the aliasing
    resolvent: the steady-state fixed point and the aliased sum of the impulse response. A
    stack failing the stability rule raises the caller's ``error(message.format(rho=rho))``."""
    verdict = _stability(psi)
    if not verdict.stable:
        raise error(message.format(rho=verdict.spectral_radius))
    return _inverse_of_identity_minus(np.linalg.matrix_power(psi, N))


def markov_rows(A, C, max_lag: int) -> np.ndarray:
    """Rows ``C_t A_{t-1} ... A_{t-r+1}`` for all tags and lags.

    ``A`` and ``C`` hold the P state and output matrices; entry ``[t, r-1]``
    of the (P, max_lag, n_y, n_x) result is tag t, lag r. Batched over tag
    times, row r is row r-1 times ``A_{t-r}`` at every lag: the one loop that
    multiplies by one A_t at a time, behind every impulse table, monodromy and
    lift block. ``max_lag`` must be an integer >= 1 and the result fit numpy's byte limit.
    """
    A, C = (np.asarray(x, dtype=np.float64) for x in (A, C))
    max_lag = _integer("max_lag", max_lag, 1)
    P = A.shape[0]
    _array_fits("Markov rows (max_lag, P, n_y, n_x)", max_lag, P, C.shape[1], A.shape[1])
    rows = np.empty((max_lag, P, C.shape[1], A.shape[1]))
    rows[:1] = C
    shifted = A[(np.arange(P)[None, :] - np.arange(P)[:, None]) % P]  # [j, t] is A_{t-j}
    for r in range(1, max_lag):
        np.matmul(rows[r - 1], shifted[r % P], out=rows[r])
    return rows.swapaxes(0, 1)


def _input_times(P: int, max_lag: int) -> np.ndarray:
    """(P, max_lag) array: the time ``(t - r) mod P`` of the input behind tag t, lag r.
    The one tag/lag to input-slot map: impulse tables, aliasing and the B fit index by it."""
    return (np.arange(P)[:, None] - np.arange(1, max_lag + 1)[None, :]) % P


def _with_inputs(rows: np.ndarray, B) -> np.ndarray:
    """Coefficients ``rows[t, r-1] @ B_{t-r}`` for the rows of ``markov_rows``."""
    B = np.asarray(B, dtype=np.float64)
    return rows @ B[_input_times(*rows.shape[:2])]


def impulse_table(model: LtpModel, max_lag: int) -> np.ndarray:
    """(P, max_lag, n_y, n_u) table of ``C_t A_{t-1} ... A_{t-r+1} B_{t-r}`` at tag t, lag r,
    memoized per lag on the model: shared and read-only."""
    max_lag = _integer("max_lag", max_lag, 1)
    return _memoized(model, ("impulse_table", max_lag),
                     lambda: _with_inputs(markov_rows(model.A, model.C, max_lag), model.B))


@dataclass(frozen=True, eq=False)
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
    Every block comes from ``markov_rows``: A and input block m of B are the
    state rows (C = I) of one call at tag 0, lags P + 1 and P - m (times ``B_m``);
    output block l of C is the row at tag l, lag l + 1; feedthrough block
    (l, m) is the impulse response at tag l, lag l - m; one shared, read-only object per model.
    """
    def lift() -> LiftedLtiModel:
        P, nx, nu, ny = model.P, model.nx, model.nu, model.ny
        slot = np.arange(P)
        rows = markov_rows(model.A, model.C, P)
        state_rows = markov_rows(model.A, np.broadcast_to(np.eye(nx), (P, nx, nx)), P + 1)
        B_blocks = _with_inputs(state_rows[:, :P], model.B)[0, ::-1]
        D_blocks = np.zeros((P, P, ny, nu))
        l, m = np.tril_indices(P, -1)
        D_blocks[l, m] = _with_inputs(rows, model.B)[l, l - m - 1]
        return LiftedLtiModel(
            A=state_rows[0, P],
            B=B_blocks.transpose(1, 0, 2).reshape(nx, P * nu),
            C=rows[slot, slot].reshape(P * ny, nx),
            D=D_blocks.transpose(0, 2, 1, 3).reshape(P * ny, P * nu),
        )
    return _memoized(model, "lift_model", lift)


@dataclass(frozen=True, eq=False)
class LiftedFrequencyResponse:
    """Frequency response of the lifted system of real data on the half grid.

    ``G[k]`` is the (P*n_y, P*n_u) complex response at angular frequency
    ``2*pi*k/N`` for k = 0..N//2. The response of real data is conjugate
    symmetric, ``G[N-k] = conj(G[k])``, so the rest of the N-point grid is
    not stored; only ``fileio.export_frequency_response`` writes it out.
    It owns the rules of its sizes: P, N, n_y and n_u are integers >= 1 and
    G has the shape they give, so ``subspace.assemble_aliased`` reads them unchecked.
    """

    P: int
    N: int
    ny: int
    nu: int
    G: np.ndarray = field(repr=False)  # (N//2+1, P*ny, P*nu) complex

    def __post_init__(self) -> None:
        for name in ("P", "N", "ny", "nu"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        arr = np.asarray(self.G, dtype=np.complex128)
        expected = (self.N // 2 + 1, self.P * self.ny, self.P * self.nu)
        if arr.shape != expected:
            raise ConfigError(f"frequency response must have shape (N//2+1, P*ny, P*nu) = "
                              f"{expected}, got {arr.shape}")
        object.__setattr__(self, "G", arr)


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
