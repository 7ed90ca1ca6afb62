"""Quantitative evaluation of identified models and Monte Carlo studies.

Identified state-space matrices are only determined up to a periodic
similarity transform, so all comparisons run through impulse-response
coefficients, which are transform invariant. The headline number is the
fit score W = 100 * (1 - sqrt(sum (g - g_hat)^2 / sum (g - g_bar)^2)),
pooled over all tag times, lags up to a horizon, and scalar channels:
100 means a perfect fit, 0 means no better than the constant predictor.

The study harnesses here repeat noisy identifications under derived
seeds: fixed-configuration Monte Carlo runs for fit distributions and a
record-length sweep for the error-decay rate. Only numerical failures
are recorded as failed trials; any other library error stops the study.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .errors import (ConfigError, DegenerateReference, DimensionMismatch, NumericalPipelineError,
                     _integer, _real)
from .model import LtpModel, impulse_table
from .signal import collect_ensemble, derive_seed
from .subspace import identify

__all__ = [
    "FitReport",
    "MonteCarloConfig",
    "MonteCarloResult",
    "TrialRecord",
    "SweepResult",
    "fit_metric",
    "monte_carlo",
    "consistency_sweep",
]

FAILURE_RATE_LIMIT = 0.10
DEFAULT_N_G = 50  # lag horizon of the fit score


@dataclass(frozen=True, eq=False)
class FitReport:
    """Fit score W, impulse-response errors over lags 1..n_g (``errors.shape[1]``), mean square."""

    W: float
    errors: np.ndarray = field(repr=False)  # (P, n_g) Frobenius errors
    mse: float


def fit_metric(true_model: LtpModel, est_model: LtpModel, n_g: int = DEFAULT_N_G) -> FitReport:
    """Score the estimate against the true impulse response over lags 1..n_g.

    The reference level g_bar is the mean of the true coefficients over
    all tag times, lags, and scalar channels. A true response whose spread
    about g_bar is at most 1e-15 of its root-mean-square size counts as
    constant: the score is then undefined and ``DegenerateReference`` is
    raised, whatever the units of the data. ``n_g`` must be an integer >= 1.
    """
    n_g = _integer("n_g", n_g, 1)
    dims = [(model.P, model.ny, model.nu) for model in (true_model, est_model)]
    if dims[0] != dims[1]:
        raise DimensionMismatch(f"models have incompatible (P, ny, nu): {dims[0]} vs {dims[1]}")
    g_true = impulse_table(true_model, n_g)
    diff = g_true - impulse_table(est_model, n_g)
    errors = np.linalg.norm(diff, axis=(2, 3))
    g_bar = float(np.mean(g_true))
    num = float(np.sum(diff * diff))
    den = float(np.sum((g_true - g_bar) ** 2))
    if den <= 1e-30 * float(np.sum(g_true**2)):
        raise DegenerateReference(
            "true impulse response is constant; fit score undefined"
        )
    W = 100.0 * (1.0 - np.sqrt(num / den))
    return FitReport(W=float(W), errors=errors, mse=num / g_true.size)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Parameters of one repeated-identification study, each checked as it is built."""

    J: int
    N: int
    sigma: float
    trials: int
    q: int
    r: int
    n_x: int
    seed: int
    n_g: int = DEFAULT_N_G

    def __post_init__(self) -> None:
        for name in ("J", "N", "q", "r", "n_x", "n_g"):
            _integer(name, getattr(self, name), 1)
        _integer("trials", self.trials, 1, 2**32)  # trial t runs on seed index t
        _integer("master seed", self.seed, 0, np.inf)
        _real("sigma", self.sigma, 0)


@dataclass(frozen=True)
class TrialRecord:
    """One Monte Carlo trial: its fit report, or the message of its numerical failure."""

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
    def mse_median(self) -> float:
        return float(np.median([rep.mse for rep in self.reports]))

    @property
    def config_failed(self) -> bool:
        """True when more than 10% of the trials failed."""
        return len(self.failures) / len(self.trials) > FAILURE_RATE_LIMIT

    def summary(self) -> dict:
        W = self.W_values
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
                mse_median=self.mse_median,
            )
        return out


def _run_one_trial(task: tuple[LtpModel, MonteCarloConfig, int, int]) -> TrialRecord:
    model, config, trial, seed = task
    try:
        ensemble = collect_ensemble(
            model, J=config.J, N=config.N, sigma=config.sigma, master_seed=seed
        )
        result = identify(ensemble, q=config.q, r=config.r, n_x=config.n_x)
        return TrialRecord(trial, seed, fit_metric(model, result.model, n_g=config.n_g))
    except NumericalPipelineError as exc:
        return TrialRecord(trial, seed, None, str(exc))


def _run_trials(model: LtpModel, configs: list[MonteCarloConfig], jobs: int):
    """The ``TrialRecord`` of each trial of each config in turn, run in process as it is read.

    With ``jobs > 1`` one pool, imported only then, of min(jobs, trials) workers runs them all
    first, one contiguous chunk each, so the model is pickled once per chunk and each chunk
    rebuilds its memo from empty.
    """
    tasks = [(model, cfg, t, seed) for cfg in configs
             for t, seed in enumerate(derive_seed(cfg.seed, np.arange(cfg.trials)).tolist())]
    if jobs == 1:
        return map(_run_one_trial, tasks)
    from concurrent.futures import ProcessPoolExecutor
    workers = min(jobs, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one_trial, tasks, chunksize=-(-len(tasks) // workers)))


def monte_carlo(model: LtpModel, config: MonteCarloConfig, jobs: int = 1) -> MonteCarloResult:
    """Repeat collect-identify-score under independently derived seeds.

    A trial that fails numerically (an unstable estimate, a rank-deficient
    input spectrum) is recorded and left out of the reports; any other
    ``LtpsidError``, such as Hankel blocks longer than the record, leaves
    from the first trial that raises it. With ``jobs > 1`` trials run in
    worker processes; results are identical to the sequential run because
    every trial's seed is derived up front. ``jobs`` must be an integer >= 1.
    """
    return MonteCarloResult(tuple(_run_trials(model, [config], _integer("jobs", jobs, 1))), config)


@dataclass(frozen=True)
class SweepResult:
    """The ``monte_carlo`` study at each record length; ``slope`` fits log median MSE on log N."""

    results: tuple[MonteCarloResult, ...]
    slope: float

    @property
    def N_grid(self) -> tuple[int, ...]:
        return tuple(result.config.N for result in self.results)

    @property
    def median_mse(self) -> tuple[float, ...]:
        return tuple(result.mse_median for result in self.results)


def consistency_sweep(
    model: LtpModel,
    N_grid: tuple[int, ...] | list[int],
    config: MonteCarloConfig,
    jobs: int = 1,
) -> SweepResult:
    """Measure how the impulse-response MSE decays with the record length.

    Runs ``config.trials`` noisy identifications at every N of the grid, two
    or more increasing integers in 1..2**32-1 (the Hankel block counts stay fixed at config.q,
    config.r), and fits the least-squares slope of log median MSE against log N.
    A configuration error stops the sweep at its first trial, as in ``monte_carlo``;
    all trials at one N failing numerically raise ``NumericalPipelineError``.
    """
    jobs = _integer("jobs", jobs, 1)
    N_grid = tuple(_integer("N_grid entry", n, 1, 2**32 - 1) for n in N_grid)  # a seed index
    if len(N_grid) < 2 or any(b <= a for a, b in zip(N_grid, N_grid[1:])):
        raise ConfigError(f"N grid must be two or more increasing lengths, got {N_grid}")
    configs = [replace(config, N=N, seed=derive_seed(config.seed, N)) for N in N_grid]
    records, results = iter(_run_trials(model, configs, jobs)), []
    for cfg in configs:
        result = MonteCarloResult(trials=tuple(islice(records, cfg.trials)), config=cfg)
        if not result.reports:
            raise NumericalPipelineError(
                f"all {len(result.failures)} trials failed at N={cfg.N}; cannot fit a slope; "
                f"trial {result.failures[0].trial}: {result.failures[0].error}"
            )
        results.append(result)
    medians = [result.mse_median for result in results]
    slope = float(np.polyfit(np.log(N_grid), np.log(medians), 1)[0])
    return SweepResult(results=tuple(results), slope=slope)
