import concurrent.futures

import numpy as np
import pytest

from conftest import impulse_series_oracle
from ltpsid import evaluation
from ltpsid.errors import (
    BlockRangeExceeded,
    ConfigError,
    DegenerateReference,
    DimensionMismatch,
    NumericalPipelineError,
)
from ltpsid.evaluation import (
    MonteCarloConfig,
    consistency_sweep,
    fit_metric,
    monte_carlo,
)
from ltpsid.fileio import write_montecarlo_csv, write_sweep_csv
from ltpsid.model import LtpModel
from oracles import _pooled_correlation, etfe_error_stats


def _scalar_lti(a=0.5, b=1.0, c=1.0):
    return LtpModel(A=(np.array([[a]]),), B=(np.array([[b]]),), C=(np.array([[c]]),))


def test_fit_metric_errors_identical_models(example1_norm):
    errs = fit_metric(example1_norm, example1_norm, n_g=20).errors
    assert errs.shape == (2, 20)
    assert np.all(errs == 0)


def test_fit_metric_errors_scaled_B(example2_norm):
    doubled = LtpModel(
        A=example2_norm.A,
        B=tuple(2 * b for b in example2_norm.B),
        C=example2_norm.C,
    )
    errs = fit_metric(example2_norm, doubled, n_g=10).errors
    for t in range(3):
        g = np.linalg.norm(impulse_series_oracle(example2_norm, t, 10), axis=(1, 2))
        np.testing.assert_allclose(errs[t], g, atol=1e-12)


def test_fit_metric_dimension_mismatch(example1_norm, example2_norm):
    with pytest.raises(DimensionMismatch):
        fit_metric(example1_norm, example2_norm, n_g=5)


def test_fit_metric_on_a_warm_model_equals_a_fresh_one(example2_norm):
    # The true model's impulse table comes from its memo after the first call.
    est = LtpModel(A=example2_norm.A, B=tuple(1.1 * b for b in example2_norm.B), C=example2_norm.C)
    warm = fit_metric(example2_norm, est)
    assert ("impulse_table", 50) in example2_norm._memo
    fresh = LtpModel(A=example2_norm.A, B=example2_norm.B, C=example2_norm.C)
    for true in (example2_norm, fresh):
        report = fit_metric(true, est)
        assert (report.W, report.mse) == (warm.W, warm.mse)
        np.testing.assert_array_equal(report.errors, warm.errors)


def test_fit_metric_perfect(example1_norm):
    report = fit_metric(example1_norm, example1_norm, n_g=50)
    assert report.W == 100.0
    assert report.mse == 0.0


def test_fit_metric_constant_predictor_scores_zero():
    true = _scalar_lti(a=0.5, b=1.0, c=1.0)
    g = np.array([0.5 ** (r - 1) for r in range(1, 51)])
    g_bar = g.mean()
    # A=1 integrator holds its first coefficient forever: g_hat_r = g_bar.
    est = _scalar_lti(a=1.0, b=1.0, c=g_bar)
    report = fit_metric(true, est, n_g=50)
    np.testing.assert_allclose(report.W, 0.0, atol=1e-9)


def test_fit_metric_reflected_estimate_scores_zero():
    # g_hat = g_bar + 2*(g - g_bar) doubles every deviation: W = 0 again.
    true = _scalar_lti(a=0.5, b=1.0, c=1.0)
    g = np.array([0.5 ** (r - 1) for r in range(1, 51)])
    g_bar = g.mean()
    est = LtpModel(
        A=(np.diag([0.5, 1.0]),),
        B=(np.array([[1.0], [1.0]]),),
        C=(np.array([[2.0, -g_bar]]),),
    )
    report = fit_metric(true, est, n_g=50)
    np.testing.assert_allclose(report.W, 0.0, atol=1e-9)


def test_fit_metric_degenerate_reference():
    silent = LtpModel(
        A=(np.array([[0.5]]),), B=(np.array([[0.0]]),), C=(np.array([[1.0]]),)
    )
    with pytest.raises(DegenerateReference):
        fit_metric(silent, silent, n_g=10)
    # A = 1 makes every coefficient equal to B; the rounding left in the
    # mean must not pass for a spread, however large or small the level.
    for level in (1e-20, 0.3, 1 / 3, 123.456, 1e10):
        constant = _scalar_lti(a=1.0, b=level)
        for n_g in (7, 50, 333):
            with pytest.raises(DegenerateReference):
                fit_metric(constant, constant, n_g=n_g)


def test_fit_metric_rejects_empty_horizon(example1_norm):
    # No lags to score is a bad argument, not a constant true response.
    with pytest.raises(ConfigError, match="n_g must be >= 1, got 0"):
        fit_metric(example1_norm, example1_norm, n_g=0)


def test_fit_metric_invariant_to_units(example1):
    # W is a ratio of squared impulse-response errors, so rescaling B in
    # both models leaves it unchanged at any scale.
    def scaled(model, s):
        return LtpModel(A=model.A, B=tuple(s * b for b in model.B), C=model.C)

    estimate = LtpModel(A=tuple(0.98 * a for a in example1.A), B=example1.B, C=example1.C)
    W = fit_metric(example1, estimate).W
    for s in (1e-20, 1e-10, 1e10):
        W_s = fit_metric(scaled(example1, s), scaled(estimate, s)).W
        np.testing.assert_allclose(W_s, W, rtol=0, atol=1e-10)


def test_fit_metric_invariant_under_similarity_transform(example1_norm):
    T = [np.array([[1.0, 0.5], [0.2, 0.8]]), np.array([[1.1, -0.3], [0.0, 0.9]])]
    transformed = LtpModel(
        A=tuple(T[(t + 1) % 2] @ example1_norm.A[t] @ np.linalg.inv(T[t]) for t in range(2)),
        B=tuple(T[(t + 1) % 2] @ example1_norm.B[t] for t in range(2)),
        C=tuple(example1_norm.C[t] @ np.linalg.inv(T[t]) for t in range(2)),
    )
    report = fit_metric(example1_norm, transformed, n_g=50)
    assert report.W > 100 - 1e-8


def test_monte_carlo_single_noise_free_trial(example1_norm):
    cfg = MonteCarloConfig(J=20, N=50, sigma=0.0, trials=1, q=10, r=10, n_x=2, seed=0)
    result = monte_carlo(example1_norm, cfg)
    assert len(result.reports) == 1
    assert abs(result.reports[0].W - 100.0) < 0.1


def test_monte_carlo_deterministic(example1_norm):
    cfg = MonteCarloConfig(J=8, N=16, sigma=1.0, trials=4, q=6, r=6, n_x=2, seed=5)
    a = monte_carlo(example1_norm, cfg)
    b = monte_carlo(example1_norm, cfg)
    np.testing.assert_array_equal(a.W_values, b.W_values)
    assert a.summary() == b.summary()


def test_monte_carlo_parallel_matches_sequential(example1_norm):
    cfg = MonteCarloConfig(J=8, N=16, sigma=1.0, trials=4, q=6, r=6, n_x=2, seed=5)
    seq = monte_carlo(example1_norm, cfg, jobs=1)
    # The model is now warm; each worker's unpickled copy rebuilds its memo from empty.
    assert ("resolvent", cfg.N) in example1_norm._memo
    par = monte_carlo(example1_norm, cfg, jobs=2)
    np.testing.assert_array_equal(seq.W_values, par.W_values)
    assert [r.mse for r in seq.reports] == [r.mse for r in par.reports]


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every process pool a study opens, in order."""
    opened = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return opened


def test_monte_carlo_opens_no_more_workers_than_trials(example1_norm, pools, tmp_path):
    cfg = MonteCarloConfig(J=8, N=16, sigma=1.0, trials=2, q=6, r=6, n_x=2, seed=5)
    seq = monte_carlo(example1_norm, cfg, jobs=1)
    assert pools == []  # jobs=1 runs in process
    par = monte_carlo(example1_norm, cfg, jobs=3)
    assert pools == [2]
    assert par.summary() == seq.summary()
    paths = [write_montecarlo_csv(r, tmp_path / f"{i}.csv") for i, r in enumerate((seq, par))]
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("jobs", [2, 3])
def test_consistency_sweep_parallel_matches_sequential(example2_norm, pools, tmp_path, jobs):
    # Both lengths' 16 trials go through one pool (3 workers split them 6/6/4,
    # across the N boundary); trial 1 fails at N=40 and trial 7 at N=50.
    cfg = MonteCarloConfig(J=30, N=50, sigma=1.0, trials=8, q=10, r=10, n_x=2, seed=15)
    seq = consistency_sweep(example2_norm, [40, 50], cfg, jobs=1)
    par = consistency_sweep(example2_norm, [40, 50], cfg, jobs=jobs)
    assert pools == [jobs]
    assert par.slope == seq.slope
    failures = [[(t.trial, t.seed, t.error) for t in result.failures]
                for result in (*seq.results, *par.results)]
    assert [[t[0] for t in f] for f in failures] == [[1], [7], [1], [7]]
    assert failures[:2] == failures[2:]
    paths = [write_sweep_csv(s, tmp_path / f"{i}.csv") for i, s in enumerate((seq, par))]
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_monte_carlo_records_failures(example2_norm):
    # A numerical failure is recorded in its trial without aborting the study:
    # of these 24 trials only trial 23 gets an unstable estimate.
    cfg = MonteCarloConfig(J=30, N=50, sigma=1.0, trials=24, q=10, r=10, n_x=2, seed=2024)
    result = monte_carlo(example2_norm, cfg)
    assert [rec.trial for rec in result.failures] == [23]
    error = result.failures[0].error
    assert error.startswith("stage 'estimate_B': ") and "spectral radius" in error
    assert len(result.reports) == 23 and not result.config_failed


@pytest.mark.parametrize("jobs", [1, 2])
def test_monte_carlo_stops_on_config_error(example1_norm, jobs):
    # Hankel blocks longer than the record are a configuration error, not
    # trial failures: the first trial's error leaves the study.
    cfg = MonteCarloConfig(J=4, N=4, sigma=0.0, trials=3, q=8, r=8, n_x=2, seed=1)
    with pytest.raises(BlockRangeExceeded, match=r"q\+r-1 = 15 exceeds record length N\*P = 8"):
        monte_carlo(example1_norm, cfg, jobs=jobs)


def test_monte_carlo_W_decreases_with_noise(example1_norm):
    medians = {}
    for sigma in (0.0, 0.5, 1.0):
        cfg = MonteCarloConfig(
            J=20, N=50, sigma=sigma, trials=20, q=10, r=10, n_x=2, seed=123
        )
        medians[sigma] = float(np.median(monte_carlo(example1_norm, cfg).W_values))
    assert medians[0.0] >= medians[0.5] >= medians[1.0]


def test_consistency_sweep_requires_increasing_grid(example1_norm, monkeypatch):
    # A grid that cannot fit a slope is refused before any trial runs.
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the grid was checked")

    monkeypatch.setattr(evaluation, "_run_one_trial", no_trials)
    cfg = MonteCarloConfig(J=8, N=16, sigma=1.0, trials=2, q=6, r=6, n_x=2, seed=0)
    for grid in ([16, 16], [32, 16], [16], []):
        with pytest.raises(ConfigError, match="two or more increasing lengths"):
            consistency_sweep(example1_norm, grid, config=cfg)


def test_consistency_sweep_rejects_a_length_that_is_not_an_integer(example1_norm, monkeypatch):
    # 25.5 is not rounded to a length: the sweep stops before its first study.
    studies = []
    monkeypatch.setattr(evaluation, "_run_one_trial", studies.append)
    cfg = MonteCarloConfig(J=8, N=16, sigma=1.0, trials=2, q=10, r=10, n_x=2, seed=0)
    with pytest.raises(ConfigError, match="^N_grid entry must be an integer, got 25.5$"):
        consistency_sweep(example1_norm, [25.5, 50], config=cfg)
    assert studies == []


def test_consistency_sweep_infeasible_N_rejected(example1_norm):
    cfg = MonteCarloConfig(J=8, N=16, sigma=1.0, trials=2, q=10, r=10, n_x=2, seed=0)
    with pytest.raises(ConfigError):
        consistency_sweep(example1_norm, [8, 16], config=cfg)


def test_consistency_sweep_noise_free_floor(example1_norm):
    cfg = MonteCarloConfig(J=8, N=16, sigma=0.0, trials=2, q=6, r=6, n_x=2, seed=3)
    sweep = consistency_sweep(example1_norm, [8, 16, 32], config=cfg)
    assert all(m < 1e-20 for m in sweep.median_mse)


def test_consistency_sweep_noisy_slope_negative(example1_norm):
    cfg = MonteCarloConfig(J=12, N=16, sigma=1.0, trials=6, q=8, r=8, n_x=2, seed=17)
    sweep = consistency_sweep(example1_norm, [16, 64], config=cfg)
    assert sweep.slope < -0.4
    assert len(sweep.median_mse) == 2


def test_consistency_sweep_all_trials_failed_is_numerical(example2_norm):
    # At N = 4 every trial fails in the B fit: the sweep fails numerically,
    # naming N, the failure count and the first trial's own error.
    cfg = MonteCarloConfig(J=30, N=4, sigma=3.0, trials=3, q=4, r=4, n_x=2, seed=0)
    with pytest.raises(
        NumericalPipelineError,
        match=r"all 3 trials failed at N=4; cannot fit a slope; trial 0: stage 'estimate_B'",
    ):
        consistency_sweep(example2_norm, [4, 8], config=cfg)


def test_monte_carlo_config_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        MonteCarloConfig(J=4, N=4, sigma=0.0, trials=1, q=2, r=2, n_x=1, seed=-1)


@pytest.mark.parametrize("seed", [np.nan, 2.5, True])
def test_monte_carlo_config_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ConfigError, match="master seed must be an integer"):
        MonteCarloConfig(J=4, N=4, sigma=0.0, trials=1, q=2, r=2, n_x=1, seed=seed)


_COUNTS = dict(J=4, N=4, trials=2, q=2, r=2, n_x=1, n_g=5)


@pytest.mark.parametrize("name", sorted(_COUNTS))
@pytest.mark.parametrize("value", [2.5, True, "2", None, np.float64(2)])
def test_monte_carlo_config_rejects_a_count_that_is_not_an_integer(name, value):
    # Without the check trials=2.5 ran 3 trials, trials=True ran 1, and
    # N=2.5 left monte_carlo as a bare TypeError.
    with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
        MonteCarloConfig(sigma=0.0, seed=0, **{**_COUNTS, name: value})


@pytest.mark.parametrize("name", sorted(_COUNTS))
def test_monte_carlo_config_counts_are_at_least_one(name):
    with pytest.raises(ConfigError, match=f"^{name} must be >= 1, got 0"):
        MonteCarloConfig(sigma=0.0, seed=0, **{**_COUNTS, name: 0})
    assert MonteCarloConfig(sigma=0.0, seed=0, **{**_COUNTS, name: np.int64(3)})


def test_etfe_error_stats_noise_free_bias(example1_norm):
    stats = etfe_error_stats(
        example1_norm, trials=3, N=8, J=6, sigma=0.0, seed=2, n_pairs=4
    )
    assert np.max(np.abs(stats.bias)) < 1e-7


def test_etfe_error_stats_rejects_no_trials(example1_norm):
    with pytest.raises(ConfigError, match="trials must be >= 1, got 0"):
        etfe_error_stats(example1_norm, trials=0, N=8, J=6, sigma=0.0, seed=2)


def test_etfe_error_stats_bias_bound_small_scale(example1_norm):
    stats = etfe_error_stats(
        example1_norm, trials=100, N=8, J=8, sigma=1.0, seed=4, n_pairs=6
    )
    assert stats.bias_pass_fraction >= 0.9
    assert np.all(np.abs(stats.pair_correlations) < 0.3)
    for k, m in stats.pairs:
        assert k != m
        assert 0 <= k <= 4 and 0 <= m <= 4  # drawn from the half grid


def test_pooled_correlation_detects_identical_frequencies(example1_norm):
    rng = np.random.default_rng(0)
    centered = rng.standard_normal((40, 3, 2, 2)) + 1j * rng.standard_normal(
        (40, 3, 2, 2)
    )
    assert _pooled_correlation(centered, 1, 1) == pytest.approx(1.0)
    assert abs(_pooled_correlation(centered, 0, 2)) < 0.3


def test_etfe_error_variance_bounded_in_N(example1_norm):
    variances = []
    for N in (25, 50, 100):
        stats = etfe_error_stats(
            example1_norm, trials=40, N=N, J=8, sigma=1.0, seed=6, n_pairs=3
        )
        variances.append(float(np.mean(stats.error_std**2)))
    # Bounded: no blow-up as the grid grows.
    assert max(variances) < 4 * min(variances)


def test_etfe_error_stats_unbiased_under_ma_noise(example1_norm):
    # One-lag correlated noise still has fast-decaying covariances; the
    # estimator stays unbiased.
    stats = etfe_error_stats(
        example1_norm, trials=120, N=12, J=8, sigma=1.0, seed=8, n_pairs=6,
        ma_theta=0.6,
    )
    assert stats.bias_pass_fraction >= 0.9
    assert np.all(np.abs(stats.pair_correlations) < 0.3)

