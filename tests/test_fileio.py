import json

import numpy as np
import pytest

from ltpsid.errors import DataError
from ltpsid.evaluation import MonteCarloConfig, monte_carlo
from ltpsid.fileio import (
    export_frequency_response,
    load_ensemble,
    load_model,
    model_from_dict,
    save_ensemble,
    save_identification_result,
    save_model,
    write_montecarlo_csv,
)
from ltpsid.model import true_lifted_frequency_response
from ltpsid.signal import collect_ensemble
from ltpsid.subspace import identify


def test_model_json_round_trip_exact(example1_norm, tmp_path):
    path = save_model(example1_norm, tmp_path / "m.json")
    loaded = load_model(path)
    for a, b in zip(example1_norm.A, loaded.A):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(example1_norm.B, loaded.B):
        np.testing.assert_array_equal(a, b)
    # Re-serialization is byte-identical.
    again = save_model(loaded, tmp_path / "m2.json")
    assert path.read_bytes() == again.read_bytes()


def test_model_json_declared_dims_checked(tmp_path):
    doc = {
        "P": 1, "nx": 3, "ny": 1, "nu": 1,
        "A": [[[0.5]]], "B": [[[1.0]]], "C": [[[1.0]]],
    }
    with pytest.raises(DataError, match="declared dimensions"):
        model_from_dict(doc)


def test_model_json_wrong_matrix_count(tmp_path):
    doc = {"P": 2, "A": [[[0.5]]], "B": [[[1.0]]], "C": [[[1.0]]]}
    with pytest.raises(DataError, match="P=2"):
        model_from_dict(doc)


def test_model_json_unreadable(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError):
        load_model(bad)


def test_ensemble_round_trip_exact(example2_norm, tmp_path):
    ens = collect_ensemble(example2_norm, J=3, N=4, sigma=0.7, master_seed=11)
    manifest = save_ensemble(ens, tmp_path / "ens")
    loaded = load_ensemble(manifest)
    assert loaded.J == 3 and loaded.N == 4 and loaded.P == 3
    for a, b in zip(ens.experiments, loaded.experiments):
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.input_seed == b.input_seed
    # Round trip preserves identification output exactly.
    r1 = identify(ens, q=4, r=4, n_x=2)
    r2 = identify(loaded, q=4, r=4, n_x=2)
    for m1, m2 in zip(r1.model.A, r2.model.A):
        np.testing.assert_array_equal(m1, m2)


def test_ensemble_corrupt_csv_reports_location(example1_norm, tmp_path):
    ens = collect_ensemble(example1_norm, J=2, N=3, sigma=0.0, master_seed=1)
    manifest = save_ensemble(ens, tmp_path / "ens")
    csv_path = tmp_path / "ens" / "experiment_0001.csv"
    lines = csv_path.read_text().splitlines()
    lines[3] = lines[3].replace(lines[3].split(",")[1], "oops", 1)
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"experiment_0001\.csv:4"):
        load_ensemble(manifest)


def test_ensemble_manifest_mismatch(example1_norm, tmp_path):
    ens = collect_ensemble(example1_norm, J=2, N=3, sigma=0.0, master_seed=1)
    manifest = save_ensemble(ens, tmp_path / "ens")
    doc = json.loads(manifest.read_text())
    doc["J"] = 5
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="manifest"):
        load_ensemble(manifest)


def test_ensemble_manifest_bad_seed_list(example1_norm, tmp_path):
    ens = collect_ensemble(example1_norm, J=2, N=3, sigma=0.0, master_seed=1)
    manifest = save_ensemble(ens, tmp_path / "ens")
    doc = json.loads(manifest.read_text())
    for seeds in (doc["seeds"][:1], [1, 2], 7):
        manifest.write_text(json.dumps({**doc, "seeds": seeds}))
        with pytest.raises(DataError, match="'seeds' must hold one object"):
            load_ensemble(manifest)


def test_frequency_response_export(example1_norm, tmp_path):
    resp = true_lifted_frequency_response(example1_norm, 4)
    path = export_frequency_response(resp, tmp_path / "resp.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "k,omega,block_row,block_col,out_row,in_col,real,imag"
    assert len(lines) == 1 + 4 * 2 * 2  # N * P * P entries for SISO blocks
    first = lines[1].split(",")
    np.testing.assert_allclose(float(first[6]), resp.G[0, 0, 0].real)


def test_identification_result_files(example1_norm, tmp_path):
    ens = collect_ensemble(example1_norm, J=8, N=16, sigma=0.0, master_seed=3)
    result = identify(ens, q=6, r=6, n_x=2)
    save_identification_result(
        result, tmp_path / "model.json", tmp_path / "diag.json"
    )
    model = load_model(tmp_path / "model.json")
    assert model.P == 2
    diag = json.loads((tmp_path / "diag.json").read_text())
    assert diag["order_used"] == 2
    assert len(diag["singular_values"]) == 2
    assert diag["h_reconstruction_error_max"] < 1e-8


def test_montecarlo_csv_rows(example1_norm, tmp_path):
    cfg = MonteCarloConfig(J=8, N=16, sigma=0.5, trials=3, q=6, r=6, n_x=2, seed=2)
    result = monte_carlo(example1_norm, cfg)
    path = write_montecarlo_csv(result, tmp_path / "trials.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,seed,W,mse,failed,error"
    assert len(lines) == 4
    # Byte-identical on rewrite.
    again = write_montecarlo_csv(result, tmp_path / "trials2.csv")
    assert path.read_bytes() == again.read_bytes()
