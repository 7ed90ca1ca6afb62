"""The count rule ``_integer`` and the number rule ``_real`` at every public entry point."""

import math
import re

import numpy as np
import pytest

from ltpsid.errors import ConfigError, _integer, _real
from ltpsid.evaluation import MonteCarloConfig, consistency_sweep, fit_metric, monte_carlo
from ltpsid.model import LiftedFrequencyResponse, impulse_table, markov_rows
from ltpsid.signal import Ensemble, collect_ensemble
from ltpsid.subspace import build_hankels, identify, svd_order
from oracles import aliased_impulse_response_true, true_lifted_frequency_response

N = 8


@pytest.fixture(scope="module")
def setting(example1_norm):
    """The example1 model, a small noise-free ensemble of it, and its true Hankel stack."""
    ens = collect_ensemble(example1_norm, J=4, N=N, sigma=0.0, master_seed=0)
    hankels = build_hankels(aliased_impulse_response_true(example1_norm, N), 3, 3)
    return example1_norm, ens, hankels


# A half-grid array that fits a P = 2, N = 8 SISO response.
SPECTRUM = np.zeros((N // 2 + 1, 2, 2), dtype=complex)

# Each entry point with one argument replaced by ``v``, and the name its message gives.
COUNTS = {
    "collect_ensemble J": ("J", lambda m, e, h, v: collect_ensemble(m, v, N, 0.1, 0)),
    "collect_ensemble N": ("N", lambda m, e, h, v: collect_ensemble(m, 4, v, 0.1, 0)),
    "Ensemble P": ("P", lambda m, e, h, v: Ensemble(e.u, e.y, v, e.N)),
    "Ensemble N": ("N", lambda m, e, h, v: Ensemble(e.u, e.y, e.P, v)),
    "identify q": ("q", lambda m, e, h, v: identify(e, q=v, n_x=2)),
    "identify r": ("r", lambda m, e, h, v: identify(e, q=3, r=v, n_x=2)),
    "identify n_x": ("n_x", lambda m, e, h, v: identify(e, q=3, r=3, n_x=v)),
    "build_hankels q": ("q", lambda m, e, h, v: build_hankels(np.zeros((2, N, 1, 1)), v, 3)),
    "build_hankels r": ("r", lambda m, e, h, v: build_hankels(np.zeros((2, N, 1, 1)), 3, v)),
    "svd_order n_x": ("n_x", lambda m, e, h, v: svd_order(h, n_x=v)),
    "fit_metric n_g": ("n_g", lambda m, e, h, v: fit_metric(m, m, n_g=v)),
    "consistency_sweep N_grid": ("N_grid entry", lambda m, e, h, v: consistency_sweep(
        m, [v, 50], MonteCarloConfig(J=4, N=N, sigma=0.1, trials=1, q=3, r=3, n_x=2, seed=0))),
    "monte_carlo jobs": ("jobs", lambda m, e, h, v: monte_carlo(
        m, MonteCarloConfig(J=4, N=N, sigma=0.1, trials=1, q=3, r=3, n_x=2, seed=0), jobs=v)),
    "consistency_sweep jobs": ("jobs", lambda m, e, h, v: consistency_sweep(
        m, [N, 2 * N], MonteCarloConfig(J=4, N=N, sigma=0.1, trials=1, q=3, r=3, n_x=2, seed=0),
        jobs=v)),
    "true_lifted_frequency_response N": (
        "N", lambda m, e, h, v: true_lifted_frequency_response(m, v)),
    "markov_rows max_lag": ("max_lag", lambda m, e, h, v: markov_rows(m.A, m.C, v)),
    "impulse_table max_lag": ("max_lag", lambda m, e, h, v: impulse_table(m, v)),
    "LiftedFrequencyResponse P": (
        "P", lambda m, e, h, v: LiftedFrequencyResponse(v, N, 1, 1, SPECTRUM)),
    "LiftedFrequencyResponse N": (
        "N", lambda m, e, h, v: LiftedFrequencyResponse(2, v, 1, 1, SPECTRUM)),
    "LiftedFrequencyResponse ny": (
        "ny", lambda m, e, h, v: LiftedFrequencyResponse(2, N, v, 1, SPECTRUM)),
    "LiftedFrequencyResponse nu": (
        "nu", lambda m, e, h, v: LiftedFrequencyResponse(2, N, 1, v, SPECTRUM)),
}
BAD_COUNTS = [2.0, 2.5, True, np.True_, "2", math.nan, math.inf, np.float64(3), 0, -1]

# As COUNTS, with the bound a number's message states past ">= 0".
NUMBERS = {
    "collect_ensemble sigma": ("sigma", "", lambda m, e, h, v: collect_ensemble(m, 4, N, v, 0)),
    "Ensemble sigma": ("sigma", "", lambda m, e, h, v: Ensemble(e.u, e.y, e.P, e.N, sigma=v)),
    "identify order_threshold": ("order threshold", " and < 1",
                                 lambda m, e, h, v: identify(e, q=3, r=3, order_threshold=v)),
    "svd_order threshold": ("order threshold", " and < 1",
                            lambda m, e, h, v: svd_order(h, threshold=v)),
}
BAD_NUMBERS = [True, np.True_, "abc", "0.5", 1j, math.nan, math.inf, -math.inf, -1.0, -1e-300]


@pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("entry", COUNTS)
def test_a_bad_count_raises_config_error_naming_it(setting, entry, value):
    # A whole-valued float, a bool or a numpy float is no count either: none
    # may index an array, set an order or be rounded to a record length.
    name, call = COUNTS[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be "):
        call(*setting, value)


@pytest.mark.parametrize("value", BAD_NUMBERS, ids=repr)
@pytest.mark.parametrize("entry", NUMBERS)
def test_a_bad_number_raises_config_error_naming_it(setting, entry, value):
    # A bool, a string or a complex is no number; NaN and inf are out of every range.
    name, bound, call = NUMBERS[entry]
    message = f"{name} must be a finite number >= 0{bound}, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(*setting, value)


def test_valid_values_pass_whatever_their_numeric_type(setting):
    model, ens, hankels = setting
    assert _integer("q", np.int32(3), 1) == 3 and type(_integer("q", np.uint8(3), 1)) is int
    assert _real("sigma", 2, 0) == 2.0 and type(_real("sigma", np.float32(0.5), 0)) is float
    assert svd_order(hankels, n_x=np.int64(2))[0].shape[-1] == 2
    assert svd_order(hankels, threshold=0)[2] is not None
    again = collect_ensemble(model, np.int64(4), np.int16(N), np.float64(0), 0)
    np.testing.assert_array_equal(again.y, ens.y)
    assert identify(ens, q=np.int64(5), r=np.int8(5), n_x=2).q == 5

