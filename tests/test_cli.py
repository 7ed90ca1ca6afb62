import json

import numpy as np
import pytest

from ltpsid.cli import main
from ltpsid.fileio import load_model, save_ensemble, save_model
from ltpsid.signal import collect_ensemble


def run(argv):
    return main([str(a) for a in argv])


def test_simulate_writes_ensemble(tmp_path):
    out = tmp_path / "fresh" / "nested"  # missing directories get created
    code = run(
        ["simulate", "--model", "example1", "--normalize", "--N", 8, "--J", 4,
         "--sigma", 1, "--seed", 7, "--out", out]
    )
    assert code == 0
    assert (out / "manifest.json").exists()
    assert len(list(out.glob("experiment_*.csv"))) == 4


def test_simulate_rejects_small_J(tmp_path, capsys):
    code = run(
        ["simulate", "--model", "example1", "--N", 8, "--J", 1, "--sigma", 0,
         "--seed", 7, "--out", tmp_path]
    )
    assert code == 2
    assert "P*n_u" in capsys.readouterr().err


def test_identify_and_evaluate_round_trip(tmp_path, capsys):
    ens_dir = tmp_path / "ens"
    assert run(
        ["simulate", "--model", "example1", "--normalize", "--N", 50, "--J", 20,
         "--sigma", 0, "--seed", 7, "--out", ens_dir]
    ) == 0
    id_dir = tmp_path / "id"
    assert run(
        ["identify", ens_dir / "manifest.json", "--q", 10, "--r", 10,
         "--order", "auto", "--order-tol", 1e-8, "--export-response",
         "--out", id_dir]
    ) == 0
    assert "order 2" in capsys.readouterr().out
    # One row per (grid point, block row, block column) for SISO blocks.
    assert len((id_dir / "response.csv").read_text().splitlines()) == 1 + 50 * 2 * 2
    ev_dir = tmp_path / "ev"
    assert run(
        ["evaluate", "--true", "example1", "--normalize",
         "--est", id_dir / "model.json", "--out", ev_dir]
    ) == 0
    fit = json.loads((ev_dir / "fit.json").read_text())
    assert fit["max_error"] < 1e-6
    assert abs(fit["W"] - 100.0) < 0.1


def test_identify_corrupt_csv_exits_3(tmp_path, capsys, example1_norm):
    ens = collect_ensemble(example1_norm, J=2, N=4, sigma=0.0, master_seed=1)
    for i, bad_line in enumerate(["garbage_line_without_commas", "2,0.5,nan"]):
        manifest = save_ensemble(ens, tmp_path / f"ens{i}")
        csv_path = tmp_path / f"ens{i}" / "experiment_0000.csv"
        text = csv_path.read_text().splitlines()
        text[2] = bad_line
        csv_path.write_text("\n".join(text) + "\n")
        code = run(["identify", manifest, "--q", 3, "--r", 3, "--order", 2,
                    "--out", tmp_path / "id"])
        assert code == 3
        assert "experiment_0000.csv:3" in capsys.readouterr().err


def test_identify_numerical_failure_exits_4(tmp_path, capsys, example1_norm):
    ens = collect_ensemble(
        example1_norm, J=4, N=8, sigma=0.0, master_seed=2, shared_input=True
    )
    manifest = save_ensemble(ens, tmp_path / "ens")
    code = run(["identify", manifest, "--q", 4, "--r", 4, "--order", 2,
                "--out", tmp_path / "id"])
    assert code == 4
    assert "etfe" in capsys.readouterr().err


def _assert_config_exit(code, capsys, needle):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags, needle",
    [
        (["--q", 0], "q must be"),
        (["--order", 50], "order 50 outside"),
        (["--order", 0], "order"),
        (["--order", "2.5"], "order"),
    ],
)
def test_identify_bad_blocks_or_order_exits_2(tmp_path, capsys, example1_norm, flags, needle):
    ens = collect_ensemble(example1_norm, J=4, N=10, sigma=0.0, master_seed=2)
    manifest = save_ensemble(ens, tmp_path / "ens")
    capsys.readouterr()
    code = run(["identify", manifest, *flags, "--out", tmp_path / "id"])
    _assert_config_exit(code, capsys, needle)


def test_sweep_malformed_record_length_exits_2(tmp_path, capsys):
    code = run(["sweep", "--model", "example1", "--Ns", "25,abc", "--nx", 2,
                "--out", tmp_path])
    _assert_config_exit(code, capsys, "'abc'")


@pytest.mark.parametrize(
    "command, config, needle",
    [
        ("simulate", {"N": "abc"}, "N must be"),
        ("simulate", {"sigma": "x"}, "sigma must be"),
        ("simulate", {"J": 2.5}, "J must be"),
        ("identify", {"order": 2.5}, "order"),
        ("identify", {"order_tol": "x"}, "order_tol must be"),
        ("simulate", {"N": True}, "N must be"),
        ("simulate", {"sigma": True}, "sigma must be"),
        ("simulate", {"normalize": "false"}, "normalize must be"),
        ("simulate", {"normalize": 0}, "normalize must be"),
        ("evaluate", {"normalize": "false"}, "normalize must be"),
        ("evaluate", {"n_g": True}, "n_g must be"),
    ],
)
def test_malformed_config_values_exit_2(tmp_path, capsys, example1_norm, command, config, needle):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    if command == "simulate":
        argv = ["simulate", "--model", "example1"]
    elif command == "evaluate":
        argv = ["evaluate", "--true", "example1", "--est", "example1"]
    else:
        ens = collect_ensemble(example1_norm, J=4, N=8, sigma=0.0, master_seed=2)
        argv = ["identify", save_ensemble(ens, tmp_path / "ens"), "--q", 4, "--r", 4]
        if "order" not in config:
            argv += ["--order", "auto"]
    capsys.readouterr()
    code = run(argv + ["--config", path, "--out", tmp_path / "o"])
    _assert_config_exit(code, capsys, needle)


@pytest.mark.parametrize("normalize", [False, True])
def test_config_boolean_matches_flag(tmp_path, normalize):
    # JSON true/false in a config file acts as the --normalize flag does.
    base = ["simulate", "--model", "example1", "--N", 4, "--J", 2, "--sigma", 0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"normalize": normalize}))
    assert run(base + ["--config", path, "--out", tmp_path / "config"]) == 0
    flag = ["--normalize"] if normalize else []
    assert run(base + flag + ["--out", tmp_path / "flag"]) == 0
    name = "experiment_0000.csv"
    assert (tmp_path / "config" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()


def test_evaluate_same_fixture_scores_perfect(tmp_path):
    code = run(["evaluate", "--true", "example1", "--est", "example1",
                "--out", tmp_path])
    assert code == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["W"] == 100.0


def test_evaluate_mismatched_period_exits_2(tmp_path, capsys):
    code = run(["evaluate", "--true", "example1", "--est", "example2",
                "--out", tmp_path])
    assert code == 2


def test_montecarlo_reproducible(tmp_path):
    args = ["montecarlo", "--model", "example1", "--normalize", "--N", 16,
            "--J", 8, "--sigma", 1, "--q", 6, "--r", 6, "--nx", 2,
            "--trials", 3, "--seed", 11]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a" / "trials.csv").read_bytes() == (
        tmp_path / "b" / "trials.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "summary.json").read_bytes() == (
        tmp_path / "b" / "summary.json"
    ).read_bytes()
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["trials"] == 3 and summary["failures"] == 0


def test_sweep_writes_slope(tmp_path):
    code = run(
        ["sweep", "--model", "example1", "--normalize", "--Ns", "8,16",
         "--J", 8, "--sigma", 1, "--q", 6, "--r", 6, "--nx", 2,
         "--trials", 2, "--seed", 5, "--out", tmp_path / "sw"]
    )
    assert code == 0
    summary = json.loads((tmp_path / "sw" / "summary.json").read_text())
    assert "slope" in summary
    rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "N,trial,mse"
    assert len(rows) == 1 + 2 * 2


def test_fixtures_command_and_out_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LTPSID_OUT", str(tmp_path))
    assert run(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "example1" in out and "example2_normalized" in out
    for name in ("example1.json", "example2_normalized.json"):
        assert (tmp_path / "fixtures" / name).exists()
    model = load_model(tmp_path / "fixtures" / "example2_normalized.json")
    assert model.P == 3


def test_config_file_flag_precedence(tmp_path, example1_norm):
    config = tmp_path / "study.json"
    config.write_text(json.dumps({"N": 8, "J": 4, "sigma": 0.0, "seed": 3}))
    out = tmp_path / "out"
    assert run(
        ["simulate", "--model", "example1", "--normalize", "--config", config,
         "--J", 6, "--out", out]
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["J"] == 6  # flag wins
    assert manifest["N"] == 8  # config fills the rest


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "study.json"
    config.write_text(json.dumps({"bogus": 1}))
    code = run(["simulate", "--model", "example1", "--config", config,
                "--out", tmp_path / "o"])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_model_file_path_source(tmp_path, example2_norm):
    path = save_model(example2_norm, tmp_path / "model.json")
    out = tmp_path / "out"
    assert run(
        ["simulate", "--model", path, "--N", 4, "--J", 3, "--sigma", 0,
         "--seed", 1, "--out", out]
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["P"] == 3
