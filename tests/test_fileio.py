import csv
import io
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_export_conjugate_symmetric
from ltpsid import fileio
from ltpsid.errors import ConfigError, DataError
from ltpsid.evaluation import (
    FitReport,
    MonteCarloConfig,
    MonteCarloResult,
    SweepResult,
    TrialRecord,
    consistency_sweep,
    monte_carlo,
)
from ltpsid.fileio import (
    export_frequency_response,
    load_ensemble,
    load_model,
    save_ensemble,
    save_identification_result,
    save_model,
    write_errors_csv,
    write_montecarlo_csv,
    write_sweep_csv,
)
from ltpsid.model import LiftedFrequencyResponse, LtpModel
from ltpsid.signal import Ensemble, collect_ensemble
from ltpsid.subspace import identify
from oracles import true_lifted_frequency_response


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
        "P": 1, "nx": 1, "ny": 1, "nu": 1,
        "A": [[[0.5]]], "B": [[[1.0]]], "C": [[[1.0]]],
    }
    # A count that is not a JSON integer is named, never truncated or read as 1,
    # and so is a matrix that holds NaN or an infinity, and a key the model does
    # not have (a D is no feedthrough term).
    for key, value, needle in [
        ("nx", 3, "declared dimensions"),
        ("P", 1.5, "m.json: P must be an integer, got 1.5"),
        ("nx", 1.9, "m.json: nx must be an integer, got 1.9"),
        ("ny", True, "m.json: ny must be an integer, got True"),
        ("nu", "1", "m.json: nu must be an integer, got '1'"),
        ("P", 0, "m.json: P must be >= 1, got 0"),
        ("nx", -1, "m.json: nx must be >= 1, got -1"),
        ("A", [5], "m.json: A[0] must be a 2-D matrix with no empty dimension, got shape ()"),
        ("C", [[1.0]],
         "m.json: C[0] must be a 2-D matrix with no empty dimension, got shape (1,)"),
        ("A", [[[float("nan")]]], "m.json: A[0] has a non-finite entry"),
        ("B", [[[float("inf")]]], "m.json: B[0] has a non-finite entry"),
        ("C", [[[-float("inf")]]], "m.json: C[0] has a non-finite entry"),
        ("D", [[[0.0]]], "m.json: unknown model key 'D': the model has no feedthrough term"),
        ("Q", 1, "m.json: unknown model keys: ['Q']"),
    ]:
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**doc, key: value}))
        with pytest.raises(DataError, match=re.escape(needle.replace("m.json", str(path)))):
            load_model(path)


def test_model_json_wrong_matrix_count(tmp_path):
    doc = {"P": 2, "A": [[[0.5]]] * 2, "B": [[[1.0]]] * 2, "C": [[[1.0]]] * 2}
    for key, value, needle in [
        ("A", [[[0.5]]], "P=2 needs P A-matrices, got 1"),
        ("B", [], "P=2 needs P B-matrices, got 0"),
        ("C", [[[1.0]]] * 3, "P=2 needs P C-matrices, got 3"),
    ]:
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**doc, key: value}))
        with pytest.raises(DataError, match=re.escape(f"{path}: {needle}")):
            load_model(path)


def test_model_json_inconsistent_shapes_is_data_error(tmp_path):
    # 2-D matrices whose shapes disagree make a bad file, named as such.
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"P": 1, "A": [[[0.5]]], "B": [[[1.0], [2.0]]], "C": [[[1.0]]]}))
    needle = f"{path}: B[0] has shape (2, 1), expected (1, 1)"
    with pytest.raises(DataError, match=re.escape(needle)):
        load_model(path)


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
    np.testing.assert_array_equal(ens.u, loaded.u)
    np.testing.assert_array_equal(ens.y, loaded.y)
    assert loaded.input_seeds == ens.input_seeds
    assert loaded.noise_seeds == ens.noise_seeds
    assert loaded.sigma == ens.sigma
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


def test_ensemble_field_counts_checked_per_line(example1_norm, tmp_path):
    # One line too long and a later one too short keep the total field
    # count; the first bad line is still named.
    ens = collect_ensemble(example1_norm, J=2, N=3, sigma=0.0, master_seed=1)
    manifest = save_ensemble(ens, tmp_path / "ens")
    csv_path = tmp_path / "ens" / "experiment_0000.csv"
    lines = csv_path.read_text().splitlines()
    lines[2] += ",0.5"
    lines[4] = lines[4].rsplit(",", 1)[0]
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"experiment_0000\.csv:3: expected 3 fields, got 4"):
        load_ensemble(manifest)


def test_ensemble_loader_matches_csv_reader(example2_norm, tmp_path):
    # Files with LF or CR line ends or quoted numbers load as the csv module
    # parses them. A quoted field that runs over two lines joins two records,
    # as it does for the csv module, and its t field is then no number; a lone
    # CR inside a line ends the record there.
    ens = collect_ensemble(example2_norm, J=3, N=4, sigma=0.7, master_seed=11)
    manifest = save_ensemble(ens, tmp_path / "ens")
    lf, quoted, cr = (tmp_path / "ens" / f"experiment_{i:04d}.csv" for i in range(3))
    lines = lf.read_bytes().decode().split("\r\n")
    lf.write_bytes(lf.read_bytes().replace(b"\r\n", b"\n"))
    cr.write_bytes(cr.read_bytes().replace(b"\r\n", b"\r"))
    quoted.write_bytes(re.sub(rb"([^,\r\n]+)", rb'"\1"', quoted.read_bytes()))
    spanning = tmp_path / "spanning.csv"
    spanning.write_text(
        "\r\n".join(lines[:2] + ['"' + lines[2], lines[3].replace(",", '",', 1)] + lines[4:]),
        newline="",
    )
    for path in (lf, quoted, cr, spanning):
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        data = np.array([[float(v) for v in row[1:]] for row in rows])
        if path == spanning:  # the joined record's t field holds text, not a row index
            with pytest.raises(DataError, match=r"spanning\.csv:3: bad number"):
                fileio._read_experiment_csv(path)
            continue
        u, y = fileio._read_experiment_csv(path)
        np.testing.assert_array_equal(u, data[:, :1])
        np.testing.assert_array_equal(y, data[:, 1:])
    assert header == ["t", "u_1", "y_1"]
    assert data.shape == (11, 2)  # the spanning field joins two records into one
    loaded = load_ensemble(manifest)
    np.testing.assert_array_equal(loaded.u, ens.u)
    np.testing.assert_array_equal(loaded.y, ens.y)
    stray = tmp_path / "stray.csv"
    t, u, y = lines[2].split(",")
    stray.write_text("\r\n".join(lines[:2] + [f"{t},{u}\r,{y}"] + lines[3:]), newline="")
    with pytest.raises(DataError, match=r"stray\.csv:3: expected 3 fields, got 2"):
        fileio._read_experiment_csv(stray)
    # A bad number is named by its line in a quoted and in a CR-ended file too.
    for path, end, field in ((quoted, b"\r\n", b',"'), (cr, b"\r", b",")):
        records = path.read_bytes().split(end)
        records[3] = records[3].replace(field, field + b"x", 1)
        path.write_bytes(end.join(records))
        with pytest.raises(DataError, match=rf"{re.escape(path.name)}:4: bad number: .*'x"):
            fileio._read_experiment_csv(path)


def test_ensemble_files_must_agree_in_shape(example1_norm, tmp_path):
    ens = collect_ensemble(example1_norm, J=2, N=3, sigma=0.0, master_seed=1)
    manifest = save_ensemble(ens, tmp_path)
    path = tmp_path / "experiment_0001.csv"
    path.write_bytes(path.read_bytes().rsplit(b"\r\n", 2)[0] + b"\r\n")
    with pytest.raises(DataError, match="manifest.json: experiments differ in length"):
        load_ensemble(manifest)


def test_ensemble_manifest_mismatch(example1_norm, tmp_path):
    ens = collect_ensemble(example1_norm, J=2, N=3, sigma=0.0, master_seed=1)
    manifest = save_ensemble(ens, tmp_path / "ens")
    doc = json.loads(manifest.read_text())
    # Counts must be JSON integers, seeds integers >= 0 or null, and sigma a
    # finite number >= 0: nothing is truncated, and a bool is not a count.
    # A string of J characters is no list of J file names, and no file is
    # listed twice. A manifest holds only P, N, J, sigma, seeds and files, a
    # seed entry only input and noise.
    for key, value, needle in [
        ("J", 5, "manifest lists 2 files but J=5"),
        ("P", 2.9, "P must be an integer, got 2.9"),
        ("N", 3.7, "N must be an integer, got 3.7"),
        ("J", 2.5, "J must be an integer, got 2.5"),
        ("P", True, "P must be an integer, got True"),
        ("sigma", "nan", "sigma must be a finite number >= 0, got 'nan'"),
        ("sigma", float("nan"), "sigma must be a finite number >= 0, got nan"),
        ("sigma", -1, "sigma must be a finite number >= 0, got -1"),
        ("sigma", False, "sigma must be a finite number >= 0, got False"),
        ("P", -3, "P must be >= 1, got -3"),
        ("N", 0, "N must be >= 1, got 0"),
        ("J", 0, "J must be >= 1, got 0"),
        ("seeds", [{"input": "abc"}, {}], "input_seeds[0] must be an integer, got 'abc'"),
        ("seeds", [{}, {"noise": 1.5}], "noise_seeds[1] must be an integer, got 1.5"),
        ("seeds", [{"input": True}, {}], "input_seeds[0] must be an integer, got True"),
        ("seeds", [{"input": -5}, {}], "input_seeds[0] must be >= 0, got -5"),
        ("files", 5, "'files' must be a list of file names"),
        ("files", [{"a": 1}, {}], "'files' must be a list of file names"),
        ("files", "ab", "'files' must be a list of file names"),
        ("files", [doc["files"][0]] * 2, "'files' must be a list of file names, none twice"),
        ("files", [doc["files"][0], "./" + doc["files"][0]],
         "'files' must be a list of file names, none twice"),
        ("Sigma", 0.5, "unknown manifest keys: ['Sigma']"),
        ("seeds", [{"input": 1, "Input": 1}, {}], "unknown seed keys: ['Input']"),
    ]:
        manifest.write_text(json.dumps({**doc, key: value}))
        with pytest.raises(DataError, match=re.escape(f"manifest.json: {needle}")):
            load_ensemble(manifest)


def test_ensemble_manifest_bad_seed_list(example1_norm, tmp_path):
    ens = collect_ensemble(example1_norm, J=2, N=3, sigma=0.0, master_seed=1)
    manifest = save_ensemble(ens, tmp_path / "ens")
    doc = json.loads(manifest.read_text())
    for seeds in (doc["seeds"][:1], [1, 2], 7):
        manifest.write_text(json.dumps({**doc, "seeds": seeds}))
        with pytest.raises(DataError, match="'seeds' must hold one object"):
            load_ensemble(manifest)


@pytest.mark.parametrize("header", [
    "t,y_1,u_1", "x,u_1,y_1", "u_1,t,y_1", "t,u_1", "t,y_1", "t,u_1,y_1,z", "t,u_1,y_2",
    "t,u_2,y_1", "T,u_1,y_1", "t,u_1,y_1,y_1", "t, u_1,y_1", "t,u_1,u_1,y_1", "", "t",
])
def test_experiment_csv_header_is_exactly_the_written_one(tmp_path, header):
    path = tmp_path / "e.csv"
    path.write_text(header + "\r\n" + ",".join(["0"] * (header.count(",") + 1)) + "\r\n",
                    newline="")
    with pytest.raises(DataError, match=r"e\.csv:1: header must be t, u_1\.\.u_nu, y_1\.\.y_ny"):
        fileio._read_experiment_csv(path)


def test_experiment_csv_header_of_two_by_three_channels(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("t,u_1,u_2,y_1,y_2,y_3\r\n0,1,2,3,4,5\r\n1,6,7,8,9,10\r\n", newline="")
    u, y = fileio._read_experiment_csv(path)
    np.testing.assert_array_equal(u, [[1, 2], [6, 7]])
    np.testing.assert_array_equal(y, [[3, 4, 5], [8, 9, 10]])
    assert fileio._header(2, 3) == ["t", "u_1", "u_2", "y_1", "y_2", "y_3"]


def test_experiment_csv_time_column_counts_the_rows(example1_norm, tmp_path):
    # t must read 0, 1, ..., N*P - 1 and every sample be finite; the first row
    # that breaks either is named.
    ens = collect_ensemble(example1_norm, J=2, N=3, sigma=0.5, master_seed=1)
    save_ensemble(ens, tmp_path)
    path = tmp_path / "experiment_0000.csv"
    header, *rows = path.read_bytes().decode().split("\r\n")[:-1]
    for body, needle in [
        (rows[::-1], ":2: non-finite sample or t other than 0"),
        ([rows[0], rows[2], rows[1], *rows[3:]], ":3: non-finite sample or t other than 1"),
        (rows[1:], ":2: non-finite sample or t other than 0"),
        ([*rows[:4], "4.5" + rows[4][1:], rows[5]],
         ":6: non-finite sample or t other than 4"),
        ([*rows[:5], "nan" + rows[5][1:]], ":7: non-finite sample or t other than 5"),
        ([*rows[:3], rows[3].rsplit(",", 1)[0] + ",inf", *rows[4:]],
         ":5: non-finite sample or t other than 3"),
        ([*rows[:2], "abc" + rows[2][1:], *rows[3:]], ":4: bad number: .*'abc'"),
    ]:
        path.write_text("\r\n".join([header, *body, ""]), newline="")
        with pytest.raises(DataError, match=re.escape(path.name) + needle):
            fileio._read_experiment_csv(path)
    # The same values in another spelling still count.
    path.write_text("\r\n".join([header, "0.0" + rows[0][1:], "1e0" + rows[1][1:], *rows[2:], ""]),
                    newline="")
    u, y = fileio._read_experiment_csv(path)
    np.testing.assert_array_equal(u, ens.u[0])
    np.testing.assert_array_equal(y, ens.y[0])


def test_frequency_response_export(example1_norm, tmp_path):
    resp = true_lifted_frequency_response(example1_norm, 4)
    path = export_frequency_response(resp, tmp_path / "resp.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "k,omega,block_row,block_col,out_row,in_col,real,imag"
    assert len(lines) == 1 + 4 * 2 * 2  # N * P * P entries for SISO blocks
    first = lines[1].split(",")
    np.testing.assert_allclose(float(first[6]), resp.G[0, 0, 0].real)


def _exported_entry(G, N, k, i, j):
    """``G[k, i, j]`` of a half-grid response as written on the N-point grid.

    Past N//2 it is the conjugate of ``G[N-k]``; at k = 0 and N/2, which
    are their own mirror images, only the real part is kept.
    """
    value = G[k, i, j] if k <= N // 2 else np.conj(G[N - k, i, j])
    return complex(value.real, 0.0) if 2 * k % N == 0 else value


def test_frequency_response_export_mimo_row_order(tmp_path):
    # Rows run over k = 0..N-1, then output slot l, input slot m, then block
    # entry (a, b); each holds G[k, l*ny + a, m*nu + b] written exactly.
    N, P, ny, nu = 3, 2, 2, 3
    rng = np.random.default_rng(8)
    shape = (N // 2 + 1, P * ny, P * nu)
    G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    resp = LiftedFrequencyResponse(P=P, N=N, ny=ny, nu=nu, G=G)
    path = export_frequency_response(resp, tmp_path / "resp.csv")
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    expected_order = [
        (k, l, m, a, b)
        for k in range(N)
        for l in range(P)
        for m in range(P)
        for a in range(ny)
        for b in range(nu)
    ]
    assert [tuple(int(v) for v in row[:1] + row[2:6]) for row in rows] == expected_order
    for row, (k, l, m, a, b) in zip(rows, expected_order):
        value = _exported_entry(G, N, k, l * ny + a, m * nu + b)
        assert float(row[1]) == 2 * np.pi * k / N
        assert float(row[6]) == value.real and float(row[7]) == value.imag


@pytest.mark.parametrize("N", [4, 5])
def test_frequency_response_export_own_mirror_imag_is_zero(tmp_path, N):
    # A stored -0.0 imaginary part is written as 0.0 at k = 0 (and at N/2
    # for even N), and as it is at the other half-grid points.
    G = np.full((N // 2 + 1, 2, 2), complex(1.5, -0.0))
    resp = LiftedFrequencyResponse(P=2, N=N, ny=1, nu=1, G=G)
    path = export_frequency_response(resp, tmp_path / "resp.csv")
    assert_export_conjugate_symmetric(path, N)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    imag = {int(row[0]): row[7] for row in rows}
    assert imag[0] == "0.0" and imag[1] == "-0.0" and imag[N - 1] == "0.0"


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


def test_identification_result_files_go_to_separate_new_directories(example1_norm, tmp_path):
    # Each writer creates its own file's directory, and writes the same bytes wherever it is.
    ens = collect_ensemble(example1_norm, J=8, N=16, sigma=0.0, master_seed=3)
    result = identify(ens, q=6, r=6, n_x=2)
    save_identification_result(result, tmp_path / "a" / "model.json", tmp_path / "b" / "d.json")
    save_identification_result(result, tmp_path / "model.json", tmp_path / "d.json")
    for name in ("model.json", "d.json"):
        written = (tmp_path / name).read_bytes()
        assert written.endswith(b"}\n") and b"\r" not in written
    assert (tmp_path / "a" / "model.json").read_bytes() == (tmp_path / "model.json").read_bytes()
    assert (tmp_path / "b" / "d.json").read_bytes() == (tmp_path / "d.json").read_bytes()


@pytest.mark.parametrize("key, value", [
    ("P", 2.0), ("N", 8.0), ("sigma", -1.0), ("J", 1),
    ("input_seeds", -5), ("input_seeds", 1.5), ("input_seeds", True), ("input_seeds", "abc"),
])
def test_ensemble_refuses_what_its_manifest_would_refuse(example1_norm, tmp_path, key, value):
    # Ensemble owns every value rule, so no ensemble is saved that cannot be
    # loaded, and a manifest fails with the library's message, naming the file.
    ens = collect_ensemble(example1_norm, J=2, N=8, sigma=0.0, master_seed=1)
    manifest = save_ensemble(ens, tmp_path)
    doc = json.loads(manifest.read_text())
    args = {"u": ens.u, "y": ens.y, "P": ens.P, "N": ens.N, "sigma": ens.sigma}
    if key == "J":  # fewer experiments than P*n_u = 2
        doc.update(J=value, files=doc["files"][:value], seeds=doc["seeds"][:value])
        args.update(u=ens.u[:value], y=ens.y[:value])
    elif key == "input_seeds":  # the first experiment's input seed
        doc["seeds"][0]["input"] = value
        args[key] = (value, None)
    else:
        doc[key] = args[key] = value
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DataError) as from_file:
        load_ensemble(manifest)
    with pytest.raises(ConfigError) as from_library:
        Ensemble(**args)
    assert str(from_file.value) == f"{manifest}: {from_library.value}"


@pytest.mark.parametrize("name, matrix", [
    ("A", [[float("nan")]]), ("B", [[float("inf")]]), ("A", 0.5), ("C", [2.0]), ("B", [[]]),
])
def test_model_refuses_what_its_file_would_refuse(tmp_path, name, matrix):
    # LtpModel owns every matrix rule: NaN, inf, a 0-D or 1-D matrix and an
    # empty dimension fail alike in memory and in a model JSON.
    mats = {"A": [[0.5]], "B": [[1.0]], "C": [[2.0]], name: matrix}
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"P": 1, **{key: [m] for key, m in mats.items()}}))
    with pytest.raises(DataError) as from_file:
        load_model(path)
    with pytest.raises(ConfigError) as from_library:
        LtpModel(**{key: (m,) for key, m in mats.items()})
    assert str(from_file.value) == f"{path}: {from_library.value}"


def test_numpy_counts_and_sigma_round_trip_as_json_numbers(example1_norm, tmp_path):
    # Ensemble stores P, N and each seed as int: json.dumps cannot write a numpy integer.
    ens = collect_ensemble(example1_norm, J=2, N=8, sigma=0.5, master_seed=1)
    numpy_ens = Ensemble(ens.u, ens.y, np.int64(ens.P), np.int32(ens.N),
                         np.array(ens.input_seeds, dtype=np.uint64),
                         tuple(map(np.uint64, ens.noise_seeds)), np.float64(0.5))
    assert (type(numpy_ens.P), type(numpy_ens.N), type(numpy_ens.sigma)) == (int, int, float)
    assert {type(s) for s in numpy_ens.input_seeds + numpy_ens.noise_seeds} == {int}
    manifest = save_ensemble(numpy_ens, tmp_path / "numpy")
    assert manifest.read_bytes() == save_ensemble(ens, tmp_path / "python").read_bytes()
    loaded = load_ensemble(manifest)
    assert (loaded.P, loaded.N, loaded.sigma) == (ens.P, ens.N, 0.5)
    assert (loaded.input_seeds, loaded.noise_seeds) == (ens.input_seeds, ens.noise_seeds)


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


def test_sweep_csv_rows_name_their_trial(example2_norm, tmp_path):
    # Trials 0 and 1 fail at N=8, and trials 1 and 3 at N=16: each row still
    # carries the index of the trial whose MSE it holds, and failures have no row.
    cfg = MonteCarloConfig(J=9, N=8, sigma=2.0, trials=4, q=4, r=4, n_x=2, seed=0)
    sweep = consistency_sweep(example2_norm, [8, 16], cfg)
    records = {(res.config.N, rec.trial): rec for res in sweep.results for rec in res.trials}
    assert records[8, 0].report is None and records[8, 2].report is not None
    with open(write_sweep_csv(sweep, tmp_path / "sweep.csv"), newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["N", "trial", "mse"]
    assert [(int(N), int(t)) for N, t, _ in rows] == [
        key for key, rec in records.items() if rec.report is not None
    ]
    for N, t, mse in rows:
        assert float(mse) == records[int(N), int(t)].report.mse


def _csv_bytes(header, rows) -> bytes:
    """The bytes ``csv.writer`` writes for ``header`` and ``rows``."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


def test_ensemble_csv_bytes_match_csv_writer(tmp_path):
    rng = np.random.default_rng(4)
    u = rng.standard_normal((2, 5, 2))
    y = rng.standard_normal((2, 5, 2))
    u[0, :3, 0] = [-0.0, 1.0, 5e-324]
    u[1, 4, 1] = 1e-300
    y[0, 1] = [1e300, -1.5e-05]
    y[1, 0, 0] = -0.0
    save_ensemble(Ensemble(u=u, y=y, P=1, N=5), tmp_path)
    for i in range(2):
        rows = [
            [str(t)] + [repr(float(v)) for v in u[i, t]] + [repr(float(v)) for v in y[i, t]]
            for t in range(5)
        ]
        expected = _csv_bytes(["t", "u_1", "u_2", "y_1", "y_2"], rows)
        assert (tmp_path / f"experiment_{i:04d}.csv").read_bytes() == expected


def test_frequency_response_csv_bytes_match_csv_writer(tmp_path):
    N, P, ny, nu = 3, 2, 2, 3
    rng = np.random.default_rng(9)
    shape = (N // 2 + 1, P * ny, P * nu)
    G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    G[0, 0, 0] = complex(-0.0, 5e-324)
    G[1, 0, 0] = complex(5e-324, -0.0)
    G[1, 3, 5] = complex(1e300, -1.5e-05)
    resp = LiftedFrequencyResponse(P=P, N=N, ny=ny, nu=nu, G=G)
    path = export_frequency_response(resp, tmp_path / "resp.csv")
    rows = []
    for k, l, m, a, b in np.ndindex(N, P, P, ny, nu):
        g = _exported_entry(G, N, k, l * ny + a, m * nu + b)
        rows.append([str(k), repr(2 * np.pi * k / N), str(l), str(m), str(a), str(b),
                     repr(float(g.real)), repr(float(g.imag))])
    header = ["k", "omega", "block_row", "block_col", "out_row", "in_col", "real", "imag"]
    assert path.read_bytes() == _csv_bytes(header, rows)


def test_study_csv_bytes_match_csv_writer(tmp_path):
    # Error messages holding commas, quotes and line ends are quoted as the
    # csv module quotes them.
    errors = np.array([[0.5, -0.0, 5e-324], [1e300, 1.0, -1.5e-05]])
    report = FitReport(W=97.25, errors=errors, mse=1e-300)
    cfg = MonteCarloConfig(J=8, N=16, sigma=0.5, trials=5, q=6, r=6, n_x=2, seed=0)
    messages = ["need J >= 6, got J=2", 'bad "value"', "two\nlines", "plain; no quotes"]
    result = MonteCarloResult(
        trials=(TrialRecord(0, 11, report),)
        + tuple(TrialRecord(t + 1, 20 + t, None, m) for t, m in enumerate(messages)),
        config=cfg,
    )
    path = write_montecarlo_csv(result, tmp_path / "trials.csv")
    rows = [["0", "11", repr(97.25), repr(1e-300), "0", ""]] + [
        [str(t + 1), str(20 + t), "", "", "1", m] for t, m in enumerate(messages)
    ]
    assert path.read_bytes() == _csv_bytes(["trial", "seed", "W", "mse", "failed", "error"], rows)

    def study(N, mses):
        # The study at record length N; an MSE of None marks a failed trial.
        return MonteCarloResult(
            trials=tuple(
                TrialRecord(t, t, None, "failed") if mse is None
                else TrialRecord(t, t, FitReport(W=97.25, errors=errors, mse=mse))
                for t, mse in enumerate(mses)
            ),
            config=replace(cfg, N=N),
        )

    sweep = SweepResult(results=(study(25, [0.5, 5e-324]), study(50, [-0.0, None])), slope=-1.0)
    path = write_sweep_csv(sweep, tmp_path / "sweep.csv")
    rows = [["25", "0", "0.5"], ["25", "1", "5e-324"], ["50", "0", "-0.0"]]
    assert path.read_bytes() == _csv_bytes(["N", "trial", "mse"], rows)

    path = write_errors_csv(errors, tmp_path / "errors.csv")
    rows = [
        [str(tau), str(r + 1), repr(float(errors[tau, r]))]
        for tau in range(errors.shape[0])
        for r in range(errors.shape[1])
    ]
    assert path.read_bytes() == _csv_bytes(["tau", "r", "error"], rows)
