"""The count rule ``_integer``, the number rule ``_real`` and the array rule ``_real_array``
at every public entry point."""

import json
import math
import re
import sys

import numpy as np
import pytest

from ltpsid.cli import main
from ltpsid.errors import ConfigError, _array_fits, _integer, _real
from ltpsid.fileio import save_ensemble
from ltpsid.evaluation import MonteCarloConfig, consistency_sweep, fit_metric, monte_carlo
from ltpsid.model import LiftedFrequencyResponse, LtpModel, impulse_table, markov_rows
from ltpsid.signal import Ensemble, collect_ensemble, simulate_steady_state
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
# 2**70 is past numpy's index range: refused before numpy sees it, not met as a numpy error.
BAD_COUNTS = [2.0, 2.5, True, np.True_, "2", math.nan, math.inf, np.float64(3), 0, -1, 2**70]

# As COUNTS, with the bound a number's message states past ">= 0".
NUMBERS = {
    "collect_ensemble sigma": ("sigma", "", lambda m, e, h, v: collect_ensemble(m, 4, N, v, 0)),
    "Ensemble sigma": ("sigma", "", lambda m, e, h, v: Ensemble(e.u, e.y, e.P, e.N, sigma=v)),
    "MonteCarloConfig sigma": ("sigma", "", lambda m, e, h, v: MonteCarloConfig(
        J=4, N=N, sigma=v, trials=1, q=3, r=3, n_x=2, seed=0)),
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


# Each array entry point: the name its message gives, its valid value, and the call
# with that value replaced by ``v``.
ARRAYS = {
    "LtpModel A[0]": ("A[0]", lambda m, e: m.A[0],
                      lambda m, e, v: LtpModel(A=(v, *m.A[1:]), B=m.B, C=m.C)),
    "LtpModel B[0]": ("B[0]", lambda m, e: m.B[0],
                      lambda m, e, v: LtpModel(A=m.A, B=(v, *m.B[1:]), C=m.C)),
    "LtpModel C[0]": ("C[0]", lambda m, e: m.C[0],
                      lambda m, e, v: LtpModel(A=m.A, B=m.B, C=(v, *m.C[1:]))),
    "Ensemble u": ("u", lambda m, e: e.u, lambda m, e, v: Ensemble(v, e.y, e.P, e.N)),
    "Ensemble y": ("y", lambda m, e: e.y, lambda m, e, v: Ensemble(e.u, v, e.P, e.N)),
    "simulate_steady_state patterns": ("patterns", lambda m, e: e.u,
                                       lambda m, e, v: simulate_steady_state(m, v)),
}
# A valid array made complex, text (numerals numpy would parse), ragged or bool.
BAD_ARRAYS = {
    "complex": lambda a: a + 0.5j,
    "text": lambda a: a.astype(str),
    "ragged": lambda a: [*a.tolist(), []],
    "bool": lambda a: a > 0,
}


@pytest.mark.parametrize("kind", BAD_ARRAYS)
@pytest.mark.parametrize("entry", ARRAYS)
def test_a_bad_array_raises_config_error_naming_it(setting, entry, kind):
    # None is cast (a complex part dropped, text parsed) or left to fail inside numpy.
    model, ens, _ = setting
    name, valid, call = ARRAYS[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be an array of real numbers$"):
        call(model, ens, BAD_ARRAYS[kind](valid(model, ens)))


def test_a_model_file_with_a_text_entry_exits_3(tmp_path, capsys):
    path = tmp_path / "model.json"
    doc = {"P": 2, "A": [[["0.5", 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.5]]],
           "B": [[[1.0], [0.0]]] * 2, "C": [[[1.0, 0.0]]] * 2}
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--true", str(path), "--est", "example1",
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"error: {path}: A[0] must be an array of real numbers\n"


def test_valid_values_pass_whatever_their_numeric_type(setting):
    model, ens, hankels = setting
    assert _integer("q", np.int32(3), 1) == 3 and type(_integer("q", np.uint8(3), 1)) is int
    assert _real("sigma", 2, 0) == 2.0 and type(_real("sigma", np.float32(0.5), 0)) is float
    assert svd_order(hankels, n_x=np.int64(2))[0].shape[-1] == 2
    assert svd_order(hankels, threshold=0)[2] is not None
    again = collect_ensemble(model, np.int64(4), np.int16(N), np.float64(0), 0)
    np.testing.assert_array_equal(again.y, ens.y)
    assert identify(ens, q=np.int64(5), r=np.int8(5), n_x=2).q == 5



# Each count flag, as a flag and as a config key, with the rest of a command that
# would run; ``--trials 1`` keeps any pool a broken bound could open to one worker.
_MC = ["montecarlo", "--model", "example1", "--nx", "2", "--trials", "1"]
CLI_COUNTS = [
    (["simulate", "--model", "example1"], "N"),
    (["simulate", "--model", "example1"], "J"),
    (["montecarlo", "--model", "example1", "--nx", "2"], "trials"),
    (_MC, "jobs"),
    (["evaluate", "--true", "example1", "--est", "example1"], "n_g"),
]


@pytest.mark.parametrize("as_flag", [True, False], ids=["flag", "config"])
@pytest.mark.parametrize("argv, key", CLI_COUNTS, ids=[key for _, key in CLI_COUNTS])
def test_a_count_past_numpys_index_range_exits_2(tmp_path, capsys, argv, key, as_flag):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: 2**70}))
    value = ["--" + key.replace("_", "-"), str(2**70)] if as_flag else ["--config", str(config)]
    assert main(argv + value + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {key} must be <= {sys.maxsize}, got {2**70}\n"
    assert not (tmp_path / "o").exists()


def test_a_sweep_length_past_numpys_index_range_exits_2(tmp_path, capsys):
    argv = _MC[1:] + ["--Ns", f"50,{2**70}", "--out", str(tmp_path / "o")]
    assert main(["sweep"] + argv) == 2
    assert capsys.readouterr().err == f"error: Ns entry must be <= {2**32 - 1}, got {2**70}\n"


def test_a_manifest_J_past_numpys_index_range_exits_3(tmp_path, capsys, example1_norm):
    manifest = save_ensemble(collect_ensemble(example1_norm, 2, 4, 0.0, 1), tmp_path / "ens")
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "J": 2**70}))
    assert main(["identify", str(manifest), "--order", "2", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {manifest}: J must be <= {sys.maxsize}, got {2**70}\n"


# Trial t of a study runs on seed index t and a sweep length is itself a seed index, and
# seed indices lie in 0..2**32-1. Every value below is past that bound and is refused
# before any array is made.
def test_a_trial_count_past_the_seed_indices_raises_config_error():
    config = dict(J=4, N=N, sigma=0.1, q=3, r=3, n_x=2, seed=0)
    assert MonteCarloConfig(trials=2**32, **config).trials == 2**32  # built, never run
    for trials in (2**32 + 1, 2**62):
        with pytest.raises(ConfigError, match=f"^trials must be <= {2**32}, got {trials}$"):
            MonteCarloConfig(trials=trials, **config)


def test_a_sweep_length_past_the_seed_indices_raises_config_error(example1_norm):
    config = MonteCarloConfig(J=4, N=N, sigma=0.1, trials=1, q=3, r=3, n_x=2, seed=0)
    for length in (2**32, 2**62):
        with pytest.raises(ConfigError,
                           match=f"^N_grid entry must be <= {2**32 - 1}, got {length}$"):
            consistency_sweep(example1_norm, [N, length], config)


# The flag and the config key of a sweep length name the option, Ns, not the library's N_grid.
@pytest.mark.parametrize("argv, config, message", [
    (["sweep", "--Ns", f"5,{2**62}"], None, f"Ns entry must be <= {2**32 - 1}, got {2**62}"),
    (["sweep"], {"Ns": [5, 2**32]}, f"Ns entry must be <= {2**32 - 1}, got {2**32}"),
    (["montecarlo", "--trials", str(2**62)], None, f"trials must be <= {2**32}, got {2**62}"),
], ids=["sweep Ns", "sweep Ns config", "montecarlo trials"])
def test_a_count_past_the_seed_indices_exits_2(tmp_path, capsys, argv, config, message):
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "config.json")]
    out = tmp_path / "o"
    assert main(argv + ["--model", "example1", "--nx", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_array_fits_refuses_only_past_the_byte_limit():
    # Pure arithmetic on the counts: nothing is allocated either side of the bound.
    _array_fits("array (n,)", sys.maxsize // 8)
    with pytest.raises(ConfigError, match=re.escape(f"array (n, m) = ({sys.maxsize // 8 + 1}, 1) "
                                                    f"needs more than {sys.maxsize} bytes")):
        _array_fits("array (n, m)", sys.maxsize // 8 + 1, 1)


# Counts inside numpy's index range whose product with the other sizes is not: each is
# refused as ConfigError naming the counts, before the seeds or any array.
ARRAY_COUNTS = {
    "collect_ensemble J": (rf"ensemble \(J, N, P, channels\) = \({2**62}, 8, 2, 1\)",
                           lambda m: collect_ensemble(m, 2**62, N, 0.1, 0)),
    "collect_ensemble N": (rf"ensemble \(J, N, P, channels\) = \(4, {2**62}, 2, 1\)",
                           lambda m: collect_ensemble(m, 4, 2**62, 0.1, 0)),
    "markov_rows max_lag": (rf"Markov rows \(max_lag, P, n_y, n_x\) = \({2**62}, 2, 1, 2\)",
                            lambda m: markov_rows(m.A, m.C, 2**62)),
    "fit_metric n_g": (rf"Markov rows .* = \({2**62}, 2, 1, 2\)",
                       lambda m: fit_metric(m, m, 2**62)),
}


@pytest.mark.parametrize("entry", ARRAY_COUNTS)
def test_counts_past_numpys_array_size_raise_config_error(example1_norm, entry):
    shape, call = ARRAY_COUNTS[entry]
    with pytest.raises(ConfigError, match=f"^{shape} needs more than {sys.maxsize} bytes"):
        call(example1_norm)


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "example1", "--N", str(2**62)],
    ["simulate", "--model", "example1", "--J", str(2**62)],
    ["evaluate", "--true", "example1", "--est", "example1", "--n-g", str(2**62)],
], ids=["simulate N", "simulate J", "evaluate n_g"])
def test_counts_past_numpys_array_size_exit_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: .* = \(.*{2**62}.*\) needs more than {sys.maxsize} bytes "
                        r"of float64\n", err)
    assert not (tmp_path / "o").exists()
