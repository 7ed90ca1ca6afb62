import hashlib
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_export_conjugate_symmetric, with_shared_input
from ltpsid import cli
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


def test_readme_command_line_example_runs(tmp_path, monkeypatch):
    # The simulate, identify and evaluate lines of the README's Command line
    # block, run as written from a fresh directory.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.split()[1:2] in (["simulate"], ["identify"], ["evaluate"])
    ]
    assert [c[0] for c in commands] == ["simulate", "identify", "evaluate"]
    monkeypatch.chdir(tmp_path)
    assert [main(c) for c in commands] == [0, 0, 0]
    assert json.loads((tmp_path / "score" / "fit.json").read_text())["W"] > 90


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


def test_identify_non_integer_manifest_count_exits_3(tmp_path, capsys, example1_norm):
    manifest = save_ensemble(
        collect_ensemble(example1_norm, J=2, N=4, sigma=0.0, master_seed=1), tmp_path / "ens"
    )
    doc = json.loads(manifest.read_text())
    for patch, needle in [
        ({"N": 4.5}, "N must be an integer, got 4.5"),
        ({"P": -3, "N": -8}, "P must be >= 1, got -3"),
        ({"seeds": [{"input": "abc"}, {"noise": 1.5}]},
         "input_seeds[0] must be an integer, got 'abc'"),
        # Fewer experiments than P*n_u = 2 make a bad file too.
        ({"J": 1, "files": doc["files"][:1], "seeds": doc["seeds"][:1]},
         "need J >= P*n_u = 2 experiments, got J=1"),
    ]:
        manifest.write_text(json.dumps({**doc, **patch}))
        code = run(["identify", manifest, "--order", 2, "--out", tmp_path / "id"])
        assert code == 3
        assert f"manifest.json: {needle}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["N", "P"])
def test_manifest_disagreeing_with_its_files_exits_3(tmp_path, capsys, example1_norm, key):
    # The files hold N*P = 8 samples each; a manifest declaring another N or P is a data fault.
    manifest = save_ensemble(
        collect_ensemble(example1_norm, J=2, N=4, sigma=0.0, master_seed=1), tmp_path / "ens"
    )
    doc = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**doc, key: doc[key] + 1}))
    code = run(["identify", manifest, "--order", 2, "--out", tmp_path / "id"])
    assert code == 3
    assert "manifest.json: records have length 8" in capsys.readouterr().err
    assert not (tmp_path / "id").exists()


@pytest.mark.parametrize("reader", ["model", "manifest", "experiment", "config", "csv-field"])
def test_non_utf8_file_exits_3_naming_it(tmp_path, capsys, example1_norm, reader):
    # Byte 0xE9 (Latin-1 "e acute") is not UTF-8; every reader reports bad data, not a
    # traceback. So does the csv module's error on a field over its 131072-character limit.
    manifest = save_ensemble(
        collect_ensemble(example1_norm, J=2, N=4, sigma=0.0, master_seed=1), tmp_path / "ens"
    )
    model = save_model(example1_norm, tmp_path / "model.json")
    config = tmp_path / "config.json"
    config.write_text("{}")
    experiment = tmp_path / "ens" / "experiment_0000.csv"
    bad = {"model": model, "manifest": manifest, "config": config,
           "experiment": experiment, "csv-field": experiment}[reader]
    tail = b'"' + b"9" * 131073 + b'"' if reader == "csv-field" else b"\xe9"
    bad.write_bytes(bad.read_bytes() + tail)
    if reader == "model":
        argv = ["evaluate", "--true", "example1", "--est", model]
    else:
        argv = ["identify", manifest, "--q", 3, "--r", 3, "--order", 2]
    code = run(argv + ["--config", config, "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: {bad}: cannot read ") and "Traceback" not in err


@pytest.mark.parametrize("N", [9, 50])
def test_identify_export_response_writes_conjugate_mirror(tmp_path, N):
    # The response is held on k = 0..N//2; response.csv holds all N grid
    # points, rows k and N-k being exact conjugates as written.
    ens_dir, id_dir = tmp_path / "ens", tmp_path / "id"
    assert run(
        ["simulate", "--model", "example2", "--normalize", "--N", N, "--J", 20,
         "--sigma", 0.1, "--seed", 1, "--out", ens_dir]
    ) == 0
    assert run(
        ["identify", ens_dir / "manifest.json", "--order", 2, "--export-response",
         "--out", id_dir]
    ) == 0
    path = id_dir / "response.csv"
    assert len(path.read_text().splitlines()) == 1 + N * 3 * 3  # P = 3, SISO blocks
    assert_export_conjugate_symmetric(path, N)


def test_identify_numerical_failure_exits_4(tmp_path, capsys, example1_norm):
    ens = with_shared_input(
        collect_ensemble(example1_norm, J=4, N=8, sigma=0.0, master_seed=2)
    )
    manifest = save_ensemble(ens, tmp_path / "ens")
    code = run(["identify", manifest, "--q", 4, "--r", 4, "--order", 2,
                "--out", tmp_path / "id"])
    assert code == 4
    assert "etfe" in capsys.readouterr().err


def test_sweep_all_trials_failed_exits_4_and_writes_nothing(tmp_path, capsys):
    code = run(["sweep", "--model", "example2", "--normalize", "--Ns", "4,8", "--trials", 3,
                "--nx", 2, "--sigma", 3, "--q", 4, "--r", 4, "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 4
    assert "all 3 trials failed at N=4" in err and "stage 'estimate_B'" in err
    assert not (tmp_path / "out").exists()


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
        (["--order-tol", -1], "order_tol must be a finite number >= 0 and < 1, got -1.0"),
        (["--order-tol", 2], "order_tol must be a finite number >= 0 and < 1, got 2.0"),
        (["--order", 10], "order 10 exceeds the shift-invariance bound (q-1)*ny = 9"),
        # A fixed order leaves --order-tol unread; a malformed or out-of-range one still exits 2.
        (["--order", 2, "--order-tol", "nan"],
         "order_tol must be a finite number >= 0 and < 1, got nan"),
        (["--order", 2, "--order-tol", 5],
         "order_tol must be a finite number >= 0 and < 1, got 5.0"),
    ],
)
def test_identify_bad_blocks_or_order_exits_2(tmp_path, capsys, example1_norm, flags, needle):
    ens = collect_ensemble(example1_norm, J=4, N=10, sigma=0.0, master_seed=2)
    manifest = save_ensemble(ens, tmp_path / "ens")
    capsys.readouterr()
    code = run(["identify", manifest, *flags, "--out", tmp_path / "id"])
    _assert_config_exit(code, capsys, needle)


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["simulate", "--model", "example1", "--sigma", "nan"], "sigma must be a finite number"),
        (["identify", "MANIFEST", "--order-tol", "nan"], "order_tol must be a finite number"),
        (["sweep", "--model", "example1", "--Ns", "8,16", "--nx", 2, "--sigma", "nan"],
         "sigma must be a finite number"),
        (["montecarlo", "--model", "example1", "--nx", 2, "--trials", 2, "--sigma", "inf"],
         "sigma must be a finite number"),
    ],
)
def test_non_finite_flag_exits_2_and_writes_nothing(tmp_path, capsys, example1_norm, argv, needle):
    ens = collect_ensemble(example1_norm, J=4, N=10, sigma=0.0, master_seed=2)
    manifest = save_ensemble(ens, tmp_path / "ens")
    capsys.readouterr()
    argv = [manifest if a == "MANIFEST" else a for a in argv]
    code = run(argv + ["--out", tmp_path / "out"])
    _assert_config_exit(code, capsys, needle)
    assert not (tmp_path / "out").exists()


_MC = ["montecarlo", "--model", "example1", "--normalize", "--trials", 3, "--nx", 2]
_SWEEP = ["sweep", "--model", "example1", "--normalize", "--Ns", "25,50", "--trials", 3, "--nx", 2]


@pytest.mark.parametrize(
    "argv, needle",
    [
        (_MC + ["--q", 2], "order 2 exceeds the shift-invariance bound (q-1)*ny = 1"),
        (_MC + ["--J", 1], "need J >= P*n_u = 2 experiments, got J=1"),
        (_MC + ["--N", 5], "q+r-1 = 19 exceeds record length N*P = 10"),
        (_MC + ["--nx", 30], "order 30 outside 1..min(q*ny, r*nu) = 10"),
        (_MC + ["--nx", 30, "--jobs", 2], "order 30 outside 1..min(q*ny, r*nu) = 10"),
        (_SWEEP + ["--q", 2], "order 2 exceeds the shift-invariance bound (q-1)*ny = 1"),
        (_SWEEP + ["--J", 1], "need J >= P*n_u = 2 experiments, got J=1"),
        (_SWEEP + ["--Ns", "5,10"], "q+r-1 = 19 exceeds record length N*P = 10"),
        (_SWEEP + ["--nx", 30], "order 30 outside 1..min(q*ny, r*nu) = 10"),
        (_SWEEP + ["--J", 1, "--jobs", 2], "need J >= P*n_u = 2 experiments, got J=1"),
    ],
)
def test_study_config_the_pipeline_rejects_exits_2_and_writes_nothing(tmp_path, capsys, argv, needle):
    # A study stops at the first trial whose configuration the pipeline
    # rejects; it records no trial failures and writes no output.
    code = run(argv + ["--out", tmp_path / "out"])
    _assert_config_exit(code, capsys, needle)
    assert not (tmp_path / "out").exists()


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
        ("simulate", {"sigma": float("nan")}, "sigma must be a finite number"),
        ("identify", {"rank_tol": 1e-6}, "unknown config keys: ['rank_tol']"),
        ("simulate", {"model": 5}, "model must be a fixture name or model JSON path"),
        ("identify", {"sigma": -1}, "error: sigma must be a finite number >= 0, got -1\n"),
        ("simulate", {"N": 50.0}, "error: N must be an integer, got 50.0\n"),
        # An output directory that a file stands in the way of.
        ("fixtures", {"out": "file"}, "error: cannot create output directory"),
        ("fixtures", {"out": "file/sub"}, "error: cannot create output directory"),
    ],
)
def test_malformed_config_values_exit_2(tmp_path, capsys, example1_norm, command, config, needle):
    path = tmp_path / "config.json"
    (tmp_path / "file").write_text("")
    out = ["--out", tmp_path / "o"]
    if "out" in config:  # the row's output directory, under tmp_path
        config, out = {"out": str(tmp_path / config["out"])}, []
    path.write_text(json.dumps(config))
    if command == "simulate":
        argv = ["simulate"] + ([] if "model" in config else ["--model", "example1"])
    elif command == "fixtures":
        argv = ["fixtures"]
    elif command == "evaluate":
        argv = ["evaluate", "--true", "example1", "--est", "example1"]
    else:
        ens = collect_ensemble(example1_norm, J=4, N=8, sigma=0.0, master_seed=2)
        argv = ["identify", save_ensemble(ens, tmp_path / "ens"), "--q", 4, "--r", 4]
        if "order" not in config:
            argv += ["--order", "auto"]
    capsys.readouterr()
    code = run(argv + ["--config", path] + out)
    _assert_config_exit(code, capsys, needle)


@pytest.mark.parametrize(
    "argv",
    [
        ["identify", "manifest.json"],
        ["evaluate", "--true", "example1", "--est", "example1"],
        ["sweep", "--model", "example1", "--Ns", "8,16", "--nx", 2],
        ["fixtures"],
    ],
)
def test_config_value_the_command_does_not_read_is_checked(tmp_path, capsys, argv):
    # None of these commands reads N; a malformed N in the config file still exits 2.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"N": "abc"}))
    code = run(argv + ["--config", config, "--out", tmp_path / "o"])
    _assert_config_exit(code, capsys, "N must be an integer, got 'abc'")
    assert not (tmp_path / "o").exists()


# The message of each bad text, which int() or float() reads first where it can.
_BAD_TEXT = {
    ("N", "abc"): "N must be an integer, got 'abc'",
    ("N", "2.5"): "N must be an integer, got '2.5'",
    ("J", "0"): "J must be >= 1, got 0",
    ("sigma", "x"): "sigma must be a finite number >= 0, got 'x'",
    ("sigma", "nan"): "sigma must be a finite number >= 0, got nan",
    ("seed", "-1"): "seed must be >= 0, got -1",
    ("sigma", "-1"): "sigma must be a finite number >= 0, got -1.0",
    ("order_tol", "5"): "order_tol must be a finite number >= 0 and < 1, got 5.0",
}


@pytest.mark.parametrize("key, value", list(_BAD_TEXT))
def test_malformed_flag_exits_2_with_the_config_message(tmp_path, capsys, key, value):
    # Each value is checked as it is read, before montecarlo asks for --nx
    # or identify looks for its manifest.
    command = (["identify", "manifest.json"] if key == "order_tol"
               else ["montecarlo", "--model", "example1"])
    base = command + ["--out", str(tmp_path / "o")]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    assert main(base + ["--config", str(config)]) == 2
    from_config = capsys.readouterr().err
    assert main(base + [f"--{key.replace('_', '-')}", value]) == 2
    assert capsys.readouterr().err == from_config == f"error: {_BAD_TEXT[key, value]}\n"
    assert not (tmp_path / "o").exists()


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


def test_config_out_key_sets_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LTPSID_OUT", str(tmp_path / "env"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": str(tmp_path / "from_config")}))
    assert run(["fixtures", "--config", config]) == 0
    assert sorted(p.name for p in (tmp_path / "from_config").iterdir()) == sorted(_FIXTURE_DIGESTS)
    assert run(["fixtures", "--config", config, "--out", tmp_path / "from_flag"]) == 0
    assert sorted(p.name for p in (tmp_path / "from_flag").iterdir()) == sorted(_FIXTURE_DIGESTS)
    assert not (tmp_path / "env").exists()
    config.write_text(json.dumps({"out": 5}))
    capsys.readouterr()
    _assert_config_exit(run(["fixtures", "--config", config]), capsys, "out must be")


@pytest.mark.parametrize("out", ["file", "file/mc"])
def test_out_blocked_by_a_file_exits_2_before_any_trial(tmp_path, monkeypatch, capsys, out):
    # A file at or above the output path is refused before the study runs,
    # and the failed command creates nothing.
    def no_study(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "monte_carlo", no_study)
    (tmp_path / "file").write_text("")
    code = run(["montecarlo", "--model", "example2", "--normalize", "--trials", 100,
                "--nx", 2, "--seed", 2024, "--out", tmp_path / out])
    _assert_config_exit(code, capsys, f"error: cannot create output directory {tmp_path / out}")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_every_option_is_a_config_key(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: default for key, (_, default, _) in cli._OPTIONS.items()}))
    assert run(["fixtures", "--config", config, "--out", tmp_path / "fx"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--model", "example1", "--jobs", 2],
        ["identify", "manifest.json", "--seed", 3],
        ["identify", "manifest.json", "--jobs", 2],
        ["evaluate", "--true", "example1", "--est", "example1", "--seed", 3],
        ["evaluate", "--true", "example1", "--est", "example1", "--jobs", 2],
        ["fixtures", "--seed", 3],
        ["fixtures", "--jobs", 2],
        ["identify", "manifest.json", "--rank-tol", 1e-6],
    ],
)
def test_flag_the_command_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([str(a) for a in argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["simulate", "identify", "evaluate", "montecarlo", "sweep", "fixtures"]
)
def test_subcommand_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--out" in capsys.readouterr().out


def test_readme_commands_parse():
    # Every ltpsid line in the README's code blocks names real flags.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line
        for block in readme.split("```")[1::2]
        for line in block.splitlines()
        if line.startswith("ltpsid ")
    ]
    assert len(lines) >= 6
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        assert args.command == line.split()[1]


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


# SHA-256 of each model file ``ltpsid fixtures`` writes; the exported
# builders must keep these bytes.
_FIXTURE_DIGESTS = {
    "example1.json": "67413761a5890775a3be9865e85181c21057f4f4b3bf4d8cf8ab5ce0257fdc1a",
    "example1_normalized.json": "bb5b9aac4187467811eb14143750e052da0b6717b18f14e620a27957ded7eb24",
    "example2.json": "bf4b4ff2607bb5b375992e1c663f522bcce68c35068d8f9af019d7b5710fd66f",
    "example2_normalized.json": "861fb66575d9114fed0d801794799db83c405f123a5a3e73d7c122f9a5503f6c",
}


def test_fixtures_command_and_out_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LTPSID_OUT", str(tmp_path))
    assert run(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "example1" in out and "example2_normalized" in out
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "fixtures").iterdir()}
    assert written == _FIXTURE_DIGESTS
    model = load_model(tmp_path / "fixtures" / "example2_normalized.json")
    assert model.P == 3


def test_simulate_unknown_model_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--model", "example9", "--out", tmp_path / "sim"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "example9" in err


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


def test_cached_parser_keeps_runs_apart(tmp_path):
    # Two main() calls in one process share the parser; the config file and
    # --normalize of the first must not reach the second.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sigma": 0.25, "seed": 3}))
    base = ["simulate", "--model", "example1", "--N", 5, "--J", 4]
    first = base + ["--config", config, "--normalize"]

    def files(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    assert run(first + ["--out", tmp_path / "first"]) == 0
    assert run(base + ["--out", tmp_path / "second"]) == 0
    for argv, name in ((first, "first"), (base, "second")):
        cli.build_parser.cache_clear()
        assert run(argv + ["--out", tmp_path / f"{name}_alone"]) == 0
        assert files(tmp_path / name) == files(tmp_path / f"{name}_alone")
    assert files(tmp_path / "first") != files(tmp_path / "second")
