"""Reference implementations the tests compare the package against.

Nothing in ``ltpsid`` calls these: a sample-by-sample simulator for the
lifted steady state, the monodromy at any tag time, the closed-form
time-aliased impulse response, the exact frequency response of the lifted
realization, the per-experiment input and noise recipe that the batched
``collect_ensemble`` must equal bit for bit, first-order moving average
(MA(1)) measurement noise for the coloured-noise checks, the harness
that samples the response estimator's bias and cross-frequency
correlation, and the index maps that scattered the IDFT blocks and
gathered the B-fit rows before both became gathers over
``model._input_times``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ltpsid.errors import ConfigError, SingularMatrix, _integer
from ltpsid.etfe import etfe
from ltpsid.model import (
    LiftedFrequencyResponse,
    LtpModel,
    _inverse_of_identity_minus,
    _monodromies,
    _with_inputs,
    lift_model,
    markov_rows,
)
from ltpsid.signal import Ensemble, assemble_spectra, collect_ensemble, derive_seed


def simulate(model: LtpModel, u: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
    """Noise-free response to ``u`` from initial state ``x0`` (default zero).

    Time starts at t=0, so ``u[t]`` meets the matrices at index ``t mod P``.
    Steps one sample at a time: the time-domain reference for the lifted steady state.
    """
    u = np.atleast_2d(np.asarray(u, float))
    if u.shape[-1] != model.nu:
        raise ConfigError(f"input has {u.shape[-1]} channels, model expects {model.nu}")
    x = np.zeros(model.nx) if x0 is None else np.asarray(x0, float).reshape(model.nx)
    y = np.empty((u.shape[0], model.ny))
    for t in range(u.shape[0]):
        i = t % model.P
        y[t] = x @ model.C[i].T
        x = x @ model.A[i].T + u[t] @ model.B[i].T
    return y


def monodromy(model: LtpModel, t: int = 0) -> np.ndarray:
    """State transition over one full period ending just before time ``t``.

    Returns the ordered product ``A_{t-1} A_{t-2} ... A_{t-P}``. The result
    is P-periodic in ``t`` and its eigenvalue multiset is the same for
    every ``t``.
    """
    return _monodromies(np.asarray(model.A))[t % model.P]


def aliased_impulse_response_true(model: LtpModel, N: int) -> np.ndarray:
    """Impulse response folded over records of ``N`` periods, in closed form.

    Entry ``[t, r-1]`` of the (P, N*P, n_y, n_u) result is the sum of the
    impulse response at tag time t over all lags congruent to ``r`` modulo
    ``N*P``: ``C_t (I - Psi_t^N)^{-1} A_{t-1} ... A_{t-r+1} B_{t-r}`` for a
    stable model with monodromy ``Psi_t``.
    """
    psi = _monodromies(np.asarray(model.A))
    C = np.asarray(model.C) @ _inverse_of_identity_minus(np.linalg.matrix_power(psi, N))
    return _with_inputs(markov_rows(model.A, C, N * model.P), model.B)


def true_lifted_frequency_response(model: LtpModel, N: int) -> LiftedFrequencyResponse:
    """Exact frequency response of the lifted system on the half grid of N points.

    Evaluates ``C (zI - A)^{-1} B + D`` of the lifted realization at
    ``z = exp(2*pi*j*k/N)`` for ``k = 0..N//2`` in one batched solve.
    ``N`` must be an integer >= 1.
    """
    N = _integer("N", N, 1)
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
    G = lifted.C @ np.linalg.solve(zIA, lifted.B[None]) + lifted.D
    return LiftedFrequencyResponse(P=model.P, N=N, ny=model.ny, nu=model.nu, G=G)


def generate_periodic_input(P: int, N: int, n_u: int, seed: int) -> np.ndarray:
    """One full period of excitation: (N*P, n_u) i.i.d. standard normal entries."""
    if P < 1 or N < 1 or n_u < 1:
        raise ConfigError(f"P, N, n_u must be >= 1, got {(P, N, n_u)}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((N * P, n_u))


def add_noise(y: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Add zero-mean i.i.d. Gaussian measurement noise of std ``sigma`` per channel."""
    if not 0 <= sigma < np.inf:
        raise ConfigError(f"sigma must be a finite number >= 0, got {sigma}")
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if sigma == 0:
        return y.copy()
    rng = np.random.default_rng(seed)
    return y + sigma * rng.standard_normal(y.shape)


def add_ma_noise(y: np.ndarray, sigma: float, seed: int, theta: float) -> np.ndarray:
    """Add zero-mean Gaussian noise of marginal std ``sigma``, coloured by MA(1).

    The noise is the first-order moving average
    ``(e(t) + theta*e(t-1)) / sqrt(1 + theta^2)`` of the i.i.d. draws
    ``add_noise`` would add under the same seed, which keeps the
    marginal variance at ``sigma^2`` but introduces one-lag correlation in time.
    """
    if not 0 <= sigma < np.inf:
        raise ConfigError(f"sigma must be a finite number >= 0, got {sigma}")
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if sigma == 0:
        return y.copy()
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(y.shape)
    if theta != 0.0:
        w = e.copy()
        w[1:] += theta * e[:-1]
        w /= np.sqrt(1.0 + theta**2)
    else:
        w = e
    return y + sigma * w


def ma_ensemble(
    model: LtpModel, J: int, N: int, sigma: float, master_seed: int, theta: float
) -> Ensemble:
    """``collect_ensemble`` with MA(1) output noise drawn from each experiment's noise seed.

    At ``theta = 0`` the result equals ``collect_ensemble(model, J, N, sigma,
    master_seed)`` bit for bit.
    """
    clean = collect_ensemble(model, J=J, N=N, sigma=0.0, master_seed=master_seed)
    y = np.stack(
        [add_ma_noise(y, sigma, seed, theta) for y, seed in zip(clean.y, clean.noise_seeds)]
    )
    return replace(clean, y=y, sigma=sigma)


@dataclass(frozen=True)
class EtfeErrorStats:
    """Empirical bias and cross-frequency correlation of the response estimate.

    ``bias[k]`` is the entrywise mean estimation error at half-grid point
    k = 0..N//2 and ``error_std`` the entrywise standard deviation over trials;
    ``bias_within_bound`` flags entries whose mean error magnitude stays
    below 4 * std / sqrt(trials). ``pair_correlations[i]`` is the pooled
    correlation of the vectorized errors at the frequency pair
    ``pairs[i]``.
    """

    trials: int
    bias: np.ndarray = field(repr=False)  # (N//2+1, P*ny, P*nu) complex
    error_std: np.ndarray = field(repr=False)  # (N//2+1, P*ny, P*nu)
    bias_within_bound: np.ndarray = field(repr=False)  # (N//2+1, P*ny, P*nu) bool
    pairs: tuple[tuple[int, int], ...] = ()
    pair_correlations: np.ndarray | None = field(default=None, repr=False)

    @property
    def bias_pass_fraction(self) -> float:
        return float(np.mean(self.bias_within_bound))


def etfe_error_stats(
    model: LtpModel,
    trials: int,
    N: int,
    J: int,
    sigma: float,
    seed: int,
    n_pairs: int = 50,
    ma_theta: float = 0.0,
) -> EtfeErrorStats:
    """Sample the response estimator's error distribution over noisy ensembles.

    Errors are taken on the half grid k = 0..N//2 the responses hold (real
    data tie grid point k to N-k by conjugation, so the rest adds nothing),
    and the frequency pairs for the correlation check are drawn from it
    without replacement. ``trials < 1`` raises ``ConfigError``.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    G_true = true_lifted_frequency_response(model, N).G
    errors = np.empty((trials, *G_true.shape), dtype=np.complex128)
    for t in range(trials):
        ensemble = ma_ensemble(model, J, N, sigma, derive_seed(seed, t), ma_theta)
        errors[t] = etfe(assemble_spectra(ensemble)).G - G_true

    bias = errors.mean(axis=0)
    centered = errors - bias
    error_std = np.sqrt(np.mean(np.abs(centered) ** 2, axis=0))
    bound = 4.0 * error_std / np.sqrt(trials)
    within = np.abs(bias) <= np.maximum(bound, 1e-300)

    half = len(G_true)
    candidates = [(a, b) for a in range(half) for b in range(a + 1, half)]
    rng = np.random.default_rng(derive_seed(seed, 10**6))
    n_pairs = min(n_pairs, len(candidates))
    chosen = rng.choice(len(candidates), size=n_pairs, replace=False)
    pairs = tuple(candidates[i] for i in chosen)
    corrs = np.array([_pooled_correlation(centered, k, m) for k, m in pairs])
    return EtfeErrorStats(
        trials=trials,
        bias=bias,
        error_std=error_std,
        bias_within_bound=within,
        pairs=pairs,
        pair_correlations=corrs,
    )


def _pooled_correlation(centered: np.ndarray, k: int, m: int) -> float:
    """Correlation of the real-stacked vectorized errors at two grid points."""
    x = centered[:, k].reshape(centered.shape[0], -1)
    y = centered[:, m].reshape(centered.shape[0], -1)
    xr = np.concatenate([x.real, x.imag], axis=1).ravel()
    yr = np.concatenate([y.real, y.imag], axis=1).ravel()
    denom = np.linalg.norm(xr) * np.linalg.norm(yr)
    if denom == 0.0:
        return 0.0
    return float(xr @ yr / denom)


def _aliased_lags(P: int, N: int) -> np.ndarray:
    """Lag in 1..N*P where IDFT block (l, m) at index n lands, as a (P, N, P) array."""
    l, n, m = np.ix_(np.arange(P), np.arange(N), np.arange(P))
    return (n * P + l - m - 1) % (N * P) + 1


def _input_slots(P: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``t, s`` over (input time beta, tag t), with s = (t - beta - 1) mod P:
    ``table.reshape(P, N, P, -1)[t, :, s]`` lists a (P, N*P) (tag t, lag r = j*P + s + 1)
    table in (beta, t, j) order, since tag t meets input time (t - r) mod P at lag r."""
    beta, t = np.ix_(np.arange(P), np.arange(P))
    return t, (t - beta - 1) % P
