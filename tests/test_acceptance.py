"""Acceptance suite: every release-gating criterion at its stated tolerance.

Each test prints one `[acceptance] <criterion>: PASS/FAIL` line (run with
``pytest tests/test_acceptance.py -s`` to see them live).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import impulse_series_oracle
from ltpsid import evaluation
from ltpsid.evaluation import (
    MonteCarloConfig,
    consistency_sweep,
    fit_metric,
    monte_carlo,
)
from ltpsid.fileio import write_json, write_montecarlo_csv
from ltpsid.model import LiftedFrequencyResponse, LtpModel
from ltpsid.signal import collect_ensemble
from ltpsid.subspace import assemble_aliased, build_hankels, identify
from oracles import (
    aliased_impulse_response_true,
    etfe_error_stats,
    ma_ensemble,
    monodromy,
    true_lifted_frequency_response,
)

BASELINES = Path(__file__).parent / "baselines" / "montecarlo_baselines.json"


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def noise_free_runs(example1_norm, example2_norm):
    runs = {}
    for name, model in (("example1", example1_norm), ("example2", example2_norm)):
        start = time.perf_counter()
        ensemble = collect_ensemble(
            model, J=10 * model.P, N=50, sigma=0.0, master_seed=7
        )
        result = identify(ensemble, q=10, r=10, n_x=2)
        runs[name] = (model, result, time.perf_counter() - start)
    return runs


def test_criterion_1_noise_free_exact_recovery(noise_free_runs):
    worst_err, worst_W_dev, worst_time = 0.0, 0.0, 0.0
    for name, (model, result, elapsed) in noise_free_runs.items():
        report = fit_metric(model, result.model, n_g=50)
        worst_err = max(worst_err, float(np.max(report.errors)))
        worst_W_dev = max(worst_W_dev, abs(report.W - 100.0))
        worst_time = max(worst_time, elapsed)
    ok = worst_err < 1e-6 and worst_W_dev < 0.1 and worst_time < 10.0
    _report(
        "1 noise-free exact recovery",
        ok,
        f"(max |g - g_hat| = {worst_err:.2e}, |W - 100| = {worst_W_dev:.2e}, "
        f"slowest run {worst_time:.2f}s)",
    )


def test_criterion_2_order_revelation(noise_free_runs):
    worst = 0.0
    for name, (_, result, _) in noise_free_runs.items():
        for sv in result.singular_values:
            worst = max(worst, float(sv[2] / sv[0]))
    _report("2 order revelation", worst < 1e-8, f"(max sigma3/sigma1 = {worst:.2e})")


def test_criterion_3_consistency_rate(example1_norm):
    start = time.perf_counter()
    config = MonteCarloConfig(
        J=20, N=50, sigma=1.0, trials=20, q=10, r=10, n_x=2, seed=7
    )
    sweep = consistency_sweep(
        example1_norm, [25, 50, 100, 200, 400], config=config
    )
    elapsed = time.perf_counter() - start
    ok = -1.3 < sweep.slope < -0.7 and elapsed < 600.0
    _report(
        "3 consistency rate ~ 1/N",
        ok,
        f"(log-log slope = {sweep.slope:.3f}, {elapsed:.1f}s)",
    )


def test_criterion_3_consistency_rate_under_ma1_noise(example1_norm, monkeypatch):
    # The paper proves consistency under mild noise assumptions: criterion 3's
    # sweep, seeds and tolerance, with each trial's output noise MA(1) at theta = 0.8.
    def coloured(model, J, N, sigma, master_seed):
        return ma_ensemble(model, J, N, sigma, master_seed, theta=0.8)

    monkeypatch.setattr(evaluation, "collect_ensemble", coloured)
    start = time.perf_counter()
    config = MonteCarloConfig(
        J=20, N=50, sigma=1.0, trials=20, q=10, r=10, n_x=2, seed=7
    )
    sweep = consistency_sweep(
        example1_norm, [25, 50, 100, 200, 400], config=config
    )
    elapsed = time.perf_counter() - start
    failed = sum(len(result.failures) for result in sweep.results)
    _report(
        "3 consistency rate ~ 1/N under MA(1) noise",
        -1.3 < sweep.slope < -0.7 and elapsed < 600.0,
        f"(log-log slope = {sweep.slope:.3f}, {failed} failed trials, {elapsed:.1f}s)",
    )


def test_criterion_4_response_estimator_statistics(example1_norm):
    start = time.perf_counter()
    stats = etfe_error_stats(
        example1_norm, trials=500, N=25, J=20, sigma=1.0, seed=3, n_pairs=50
    )
    elapsed = time.perf_counter() - start
    corr_pass = float(np.mean(np.abs(stats.pair_correlations) < 0.15))
    ok = (
        stats.bias_pass_fraction >= 0.95
        and len(stats.pairs) == 50
        and corr_pass >= 0.95
        and elapsed < 300.0
    )
    _report(
        "4 estimator bias and cross-frequency independence",
        ok,
        f"(bias pass {stats.bias_pass_fraction:.1%}, corr pass {corr_pass:.1%}, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_5_oracle_equivalences(example1_norm, example2_norm):
    # (a) aliased response assembled from the exact frequency response
    #     against the closed form.
    worst_a = 0.0
    for model in (example1_norm, example2_norm):
        N = 12
        response = true_lifted_frequency_response(model, N)
        assembled = assemble_aliased(response)
        closed = aliased_impulse_response_true(model, N)
        worst_a = max(worst_a, float(np.max(np.abs(assembled - closed))))

    # (b) Hankel factorization against the direct observability/controllability
    #     product.
    worst_b = 0.0
    for model in (example1_norm, example2_norm):
        N, q, r = 9, 5, 4
        hankels = build_hankels(aliased_impulse_response_true(model, N), q=q, r=r)
        for tau in range(model.P):
            obs = [model.C[tau % model.P]]
            prod = np.eye(model.nx)
            for s in range(1, q):
                prod = model.A[(tau + s - 1) % model.P] @ prod
                obs.append(model.C[(tau + s) % model.P] @ prod)
            ctrb = [model.B[(tau - 1) % model.P]]
            prod = np.eye(model.nx)
            for s in range(2, r + 1):
                prod = prod @ model.A[(tau - s + 1) % model.P]
                ctrb.append(prod @ model.B[(tau - s) % model.P])
            resolvent = np.linalg.inv(
                np.eye(model.nx) - np.linalg.matrix_power(monodromy(model, tau), N)
            )
            direct = np.vstack(obs) @ resolvent @ np.hstack(ctrb)
            worst_b = max(
                worst_b, float(np.max(np.abs(hankels[tau] - direct)))
            )

    # (c) the aliasing index map is a bijection for every (P, N) combination.
    bijection_ok = True
    for P in (1, 2, 3, 5):
        for N in (2, 4, 8):
            seen = set()
            for l in range(P):
                for m in range(P):
                    for n in range(N):
                        lag = n * P + l - m
                        if lag <= 0:
                            lag += N * P
                        seen.add((l, lag))
            bijection_ok &= seen == {
                (t, r) for t in range(P) for r in range(1, N * P + 1)
            }
            # The assembly itself must also accept every combination.
            blocks = np.zeros((N, P, P))
            assemble_aliased(
                LiftedFrequencyResponse(P, N, 1, 1, G=np.fft.rfft(blocks, axis=0))
            )

    ok = worst_a < 1e-7 and worst_b < 1e-9 and bijection_ok
    _report(
        "5 oracle equivalences",
        ok,
        f"(assembly vs closed form {worst_a:.2e}, factorization {worst_b:.2e}, "
        f"bijection {'ok' if bijection_ok else 'BROKEN'})",
    )


def test_criterion_6_lti_reduction():
    model = LtpModel(
        A=(np.array([[0.5]]),), B=(np.array([[1.0]]),), C=(np.array([[1.0]]),)
    )
    N = 50
    ensemble = collect_ensemble(model, J=3, N=N, sigma=0.0, master_seed=1)
    result = identify(ensemble, q=10, r=10, n_x=1)
    closed = aliased_impulse_response_true(model, N)
    worst_h = max(
        abs(closed[0, r - 1, 0, 0] - 0.5 ** (r - 1) / (1 - 0.5**N))
        for r in range(1, N + 1)
    )
    G_true = true_lifted_frequency_response(model, N).G
    G_est = true_lifted_frequency_response(result.model, N).G
    worst_G = float(np.max(np.abs(G_true - G_est)))
    ok = worst_h < 1e-9 and worst_G < 1e-6
    _report(
        "6 period-1 LTI reduction",
        ok,
        f"(aliased response vs geometric form {worst_h:.2e}, "
        f"grid response error {worst_G:.2e})",
    )


def test_criterion_7_similarity_transform_invariance(example1_norm):
    T = (
        np.array([[1.0, 0.3], [-0.2, 1.1]]),
        np.array([[0.9, -0.1], [0.4, 1.2]]),
    )
    transformed = LtpModel(
        A=tuple(T[(t + 1) % 2] @ example1_norm.A[t] @ np.linalg.inv(T[t]) for t in range(2)),
        B=tuple(T[(t + 1) % 2] @ example1_norm.B[t] for t in range(2)),
        C=tuple(example1_norm.C[t] @ np.linalg.inv(T[t]) for t in range(2)),
    )
    kwargs = dict(J=20, N=50, sigma=0.0, master_seed=7)
    res_ref = identify(collect_ensemble(example1_norm, **kwargs), q=10, r=10, n_x=2)
    res_tr = identify(collect_ensemble(transformed, **kwargs), q=10, r=10, n_x=2)
    worst = max(
        float(
            np.max(
                np.abs(
                    impulse_series_oracle(res_ref.model, t, 50)
                    - impulse_series_oracle(res_tr.model, t, 50)
                )
            )
        )
        for t in range(2)
    )
    _report(
        "7 similarity-transform invariance",
        worst < 1e-8,
        f"(max recovered-response change = {worst:.2e})",
    )


def test_criterion_8_monte_carlo_study(example1_norm, example2_norm, tmp_path):
    baselines = json.loads(BASELINES.read_text())
    details = []
    ok = True
    for name, model in (("example1", example1_norm), ("example2", example2_norm)):
        config = MonteCarloConfig(
            J=10 * model.P, N=50, sigma=1.0, trials=100, q=10, r=10, n_x=2, seed=2024
        )
        result = monte_carlo(model, config)
        write_montecarlo_csv(result, tmp_path / f"{name}_trials.csv")
        write_json(result.summary(), tmp_path / f"{name}_summary.json")
        summary = result.summary()
        base = baselines[name]
        ok &= not result.config_failed
        ok &= (tmp_path / f"{name}_trials.csv").exists()
        ok &= abs(summary["W_median"] - base["W_median"]) < 1.0
        details.append(
            f"{name}: median W {summary['W_median']:.2f} "
            f"(baseline {base['W_median']:.2f}), "
            f"failures {summary['failures']}/100"
        )
    _report("8 Monte Carlo study", ok, "(" + "; ".join(details) + ")")
