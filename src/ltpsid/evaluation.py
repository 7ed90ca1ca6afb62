"""Quantitative evaluation of identified models and Monte Carlo studies.

Identified state-space matrices are only determined up to a periodic
similarity transform, so all comparisons run through impulse-response
coefficients, which are transform invariant. The headline number is the
fit score W = 100 * (1 - sqrt(sum (g - g_hat)^2 / sum (g - g_bar)^2)),
pooled over all tag times, lags up to a horizon, and scalar channels:
100 means a perfect fit, 0 means no better than the constant predictor.

The study harnesses here repeat noisy identifications under derived
seeds: fixed-configuration Monte Carlo runs for fit distributions, a
record-length sweep for the error-decay rate, and direct checks of the
frequency-response estimator's bias and cross-frequency correlation.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DegenerateReference, DimensionMismatch, LtpsidError
from .etfe import etfe
from .model import LtpModel, impulse_table, true_lifted_frequency_response
from .signal import assemble_spectra, collect_ensemble
from .subspace import identify

__all__ = [
    "FitReport",
    "MonteCarloConfig",
    "MonteCarloResult",
    "TrialRecord",
    "SweepResult",
    "EtfeErrorStats",
    "impulse_errors",
    "fit_metric",
    "monte_carlo",
    "consistency_sweep",
    "etfe_error_stats",
]

FAILURE_RATE_LIMIT = 0.10


def _check_comparable(true_model: LtpModel, est_model: LtpModel) -> None:
    if (true_model.P, true_model.ny, true_model.nu) != (
        est_model.P,
        est_model.ny,
        est_model.nu,
    ):
        raise DimensionMismatch(
            f"models have incompatible (P, ny, nu): "
            f"{(true_model.P, true_model.ny, true_model.nu)} vs "
            f"{(est_model.P, est_model.ny, est_model.nu)}"
        )


def impulse_errors(
    true_model: LtpModel, est_model: LtpModel, n_g: int
) -> np.ndarray:
    """Per-(tag time, lag) Frobenius errors of the estimated impulse response."""
    _check_comparable(true_model, est_model)
    diff = impulse_table(true_model, n_g) - impulse_table(est_model, n_g)
    return np.linalg.norm(diff, axis=(2, 3))


@dataclass(frozen=True)
class FitReport:
    """Fit score W, impulse-response errors, and their mean square."""

    W: float
    errors: np.ndarray = field(repr=False)  # (P, n_g) Frobenius errors
    n_g: int = 50
    mse: float = 0.0


def fit_metric(true_model: LtpModel, est_model: LtpModel, n_g: int = 50) -> FitReport:
    """Score the estimate against the true impulse response over lags 1..n_g.

    The reference level g_bar is the mean of the true coefficients over
    all tag times, lags, and scalar channels. A true response whose spread
    about g_bar is at most 1e-15 of its root-mean-square size counts as
    constant: the score is then undefined and ``DegenerateReference`` is
    raised, whatever the units of the data.
    """
    _check_comparable(true_model, est_model)
    g_true = impulse_table(true_model, n_g)
    g_est = impulse_table(est_model, n_g)
    errors = np.linalg.norm(g_true - g_est, axis=(2, 3))
    g_bar = float(np.mean(g_true))
    num = float(np.sum((g_true - g_est) ** 2))
    den = float(np.sum((g_true - g_bar) ** 2))
    if den <= 1e-30 * float(np.sum(g_true**2)):
        raise DegenerateReference(
            "true impulse response is constant; fit score undefined"
        )
    W = 100.0 * (1.0 - np.sqrt(num / den))
    return FitReport(W=float(W), errors=errors, n_g=n_g, mse=num / g_true.size)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Parameters of one repeated-identification study."""

    J: int
    N: int
    sigma: float
    trials: int
    q: int
    r: int
    n_x: int
    seed: int
    n_g: int = 50

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.J < 1 or self.N < 1 or self.n_g < 1:
            raise ConfigError("J, N, n_g must be >= 1")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one Monte Carlo trial; exactly one of report/error is set."""

    trial: int
    seed: int
    report: FitReport | None
    error: str | None = None


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-trial fit reports with failures kept inline."""

    trials: tuple[TrialRecord, ...]
    config: MonteCarloConfig

    @property
    def reports(self) -> tuple[FitReport, ...]:
        return tuple(t.report for t in self.trials if t.report is not None)

    @property
    def failures(self) -> tuple[TrialRecord, ...]:
        return tuple(t for t in self.trials if t.report is None)

    @property
    def W_values(self) -> np.ndarray:
        return np.array([rep.W for rep in self.reports])

    @property
    def mse_values(self) -> np.ndarray:
        return np.array([rep.mse for rep in self.reports])

    @property
    def failure_rate(self) -> float:
        return len(self.failures) / len(self.trials)

    @property
    def config_failed(self) -> bool:
        """True when more than 10% of the trials failed."""
        return self.failure_rate > FAILURE_RATE_LIMIT

    def summary(self) -> dict:
        W = self.W_values
        mse = self.mse_values
        out = {
            "trials": len(self.trials),
            "failures": len(self.failures),
            "config_failed": self.config_failed,
        }
        if W.size:
            out.update(
                W_median=float(np.median(W)),
                W_q1=float(np.quantile(W, 0.25)),
                W_q3=float(np.quantile(W, 0.75)),
                W_min=float(np.min(W)),
                W_max=float(np.max(W)),
                mse_median=float(np.median(mse)),
            )
        return out


def trial_seed(master_seed: int, *indices: int) -> int:
    """Deterministic sub-seed for one trial of a seeded study."""
    ss = np.random.SeedSequence([int(master_seed), *[int(i) for i in indices]])
    return int(ss.generate_state(1, np.uint64)[0])


def _run_one_trial(
    model: LtpModel, config: MonteCarloConfig, seed: int
) -> tuple[FitReport | None, str | None]:
    try:
        ensemble = collect_ensemble(
            model,
            J=config.J,
            N=config.N,
            sigma=config.sigma,
            master_seed=seed,
        )
        result = identify(ensemble, q=config.q, r=config.r, n_x=config.n_x)
        return fit_metric(model, result.model, n_g=config.n_g), None
    except LtpsidError as exc:
        return None, str(exc)


def monte_carlo(
    model: LtpModel, config: MonteCarloConfig, jobs: int = 1
) -> MonteCarloResult:
    """Repeat collect-identify-score under independently derived seeds.

    Failed trials (unstable estimates, rank problems) are recorded and
    excluded from the reports rather than aborting the study. With
    ``jobs > 1`` trials run in worker processes; results are identical to
    the sequential run because every trial's seed is derived up front.
    """
    seeds = [trial_seed(config.seed, t) for t in range(config.trials)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(
                pool.map(_run_one_trial, [model] * len(seeds), [config] * len(seeds), seeds)
            )
    else:
        outcomes = [_run_one_trial(model, config, s) for s in seeds]
    records = tuple(
        TrialRecord(trial=t, seed=seeds[t], report=report, error=err)
        for t, (report, err) in enumerate(outcomes)
    )
    return MonteCarloResult(trials=records, config=config)


@dataclass(frozen=True)
class SweepResult:
    """Impulse-response MSE versus record length and the fitted decay slope."""

    N_grid: tuple[int, ...]
    mses: tuple[tuple[float, ...], ...]  # per N, per successful trial
    failures: tuple[tuple[int, int, str], ...]  # (N, trial, reason)
    slope: float
    median_mse: tuple[float, ...]


def consistency_sweep(
    model: LtpModel,
    N_grid: tuple[int, ...] | list[int],
    trials: int,
    config: MonteCarloConfig,
    jobs: int = 1,
) -> SweepResult:
    """Measure how the impulse-response MSE decays with the record length.

    Runs ``trials`` noisy identifications at every N in the grid (the
    Hankel block counts stay fixed at config.q, config.r across the grid)
    and fits the least-squares slope of log median MSE against log N.
    """
    N_grid = tuple(int(n) for n in N_grid)
    if any(b <= a for a, b in zip(N_grid, N_grid[1:])) or not N_grid:
        raise ConfigError(f"N grid must be strictly increasing, got {N_grid}")
    for N in N_grid:
        if config.q + config.r - 1 > N * model.P:
            raise ConfigError(
                f"q+r-1 = {config.q + config.r - 1} infeasible at N={N} "
                f"(record length {N * model.P})"
            )
    all_mses: list[tuple[float, ...]] = []
    failures: list[tuple[int, int, str]] = []
    medians: list[float] = []
    for N in N_grid:
        cfg_N = replace(config, N=N, trials=trials, seed=trial_seed(config.seed, N))
        result = monte_carlo(model, cfg_N, jobs=jobs)
        mses = tuple(float(m) for m in result.mse_values)
        all_mses.append(mses)
        failures.extend((N, rec.trial, rec.error or "") for rec in result.failures)
        if not mses:
            raise ConfigError(f"all trials failed at N={N}; cannot fit a slope")
        medians.append(float(np.median(mses)))
    slope = float(np.polyfit(np.log(N_grid), np.log(medians), 1)[0])
    return SweepResult(
        N_grid=N_grid,
        mses=tuple(all_mses),
        failures=tuple(failures),
        slope=slope,
        median_mse=tuple(medians),
    )


@dataclass(frozen=True)
class EtfeErrorStats:
    """Empirical bias and cross-frequency correlation of the response estimate.

    ``bias[k]`` is the entrywise mean estimation error at grid point k and
    ``error_std`` the entrywise standard deviation over trials;
    ``bias_within_bound`` flags entries whose mean error magnitude stays
    below 4 * std / sqrt(trials). ``pair_correlations[i]`` is the pooled
    correlation of the vectorized errors at the frequency pair
    ``pairs[i]``.
    """

    trials: int
    bias: np.ndarray = field(repr=False)  # (N, P*ny, P*nu) complex
    error_std: np.ndarray = field(repr=False)  # (N, P*ny, P*nu)
    bias_within_bound: np.ndarray = field(repr=False)  # (N, P*ny, P*nu) bool
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

    Frequency pairs for the correlation check are drawn without
    replacement from the non-redundant half of the grid (real data ties
    grid point k to N-k by conjugation, so only one of each pair is
    informative).
    """
    G_true = true_lifted_frequency_response(model, N).G
    errors = np.empty((trials, *G_true.shape), dtype=np.complex128)
    for t in range(trials):
        ensemble = collect_ensemble(
            model,
            J=J,
            N=N,
            sigma=sigma,
            master_seed=trial_seed(seed, t),
            ma_theta=ma_theta,
        )
        errors[t] = etfe(assemble_spectra(ensemble)).G - G_true

    bias = errors.mean(axis=0)
    centered = errors - bias
    error_std = np.sqrt(np.mean(np.abs(centered) ** 2, axis=0))
    bound = 4.0 * error_std / np.sqrt(trials)
    within = np.abs(bias) <= np.maximum(bound, 1e-300)

    half = np.arange(0, N // 2 + 1)
    candidates = [(int(a), int(b)) for i, a in enumerate(half) for b in half[i + 1 :]]
    rng = np.random.default_rng(trial_seed(seed, 10**6))
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
