"""Mutation fuzzing of the files the command line reads.

A valid manifest, experiment CSV, model JSON and config file are mutated
with a fixed seed and handed to ``cli.main`` in process. Every run must exit
0, 2, 3 or 4, and a failing run must print exactly one ``error:`` line to
stderr and create nothing under its ``--out``, as the README promises.
"""

import contextlib
import io
import json
import random
import shutil

from ltpsid import fixtures
from ltpsid.cli import main
from ltpsid.fileio import save_ensemble, save_model
from ltpsid.signal import collect_ensemble

MUTATIONS = 1500
# Replacement values; none of them is a count that would start a large run.
VALUES = [2**70, -1, 0, 1.5, True, None, "abc", "", float("nan"), float("inf"), [], {}]
FIELDS = [json.dumps(value).strip('"') for value in VALUES]  # the same values as CSV text
CONFIG = {"model": "example1", "normalize": True, "N": 4, "J": 4, "sigma": 0.5, "seed": 3,
          "q": 3, "r": 3, "order": 2, "order_tol": 1e-8, "n_g": 5}


def _paths(node, path=()):
    """The path of every value in a JSON document, the document itself first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, (*path, key))


def _mutate_json(rng: random.Random, text: str) -> str:
    doc = json.loads(text)
    path = rng.choice(list(_paths(doc)))
    if not path:
        return json.dumps(rng.choice(VALUES))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.5:
        del parent[path[-1]]
    else:
        parent[path[-1]] = rng.choice(VALUES)
    return json.dumps(doc, indent=2)


def _mutate_csv(rng: random.Random, text: str) -> str:
    lines = text.split("\r\n")
    row = rng.randrange(len(lines) - 1)  # the last entry is the empty tail of the final CRLF
    fields = lines[row].split(",")
    fields[rng.randrange(len(fields))] = rng.choice(FIELDS)
    lines[row] = ",".join(fields)
    return "\r\n".join(lines)


def _mutate(rng: random.Random, text: str, structured) -> str:
    """``text`` with one line deleted, cut short, or a value or field changed by ``structured``."""
    kind = rng.randrange(3)
    if kind == 0:
        lines = text.splitlines(keepends=True)
        del lines[rng.randrange(len(lines))]
        return "".join(lines)
    if kind == 1:
        return text[: rng.randrange(len(text))]
    return structured(rng, text)


def test_mutated_inputs_exit_cleanly(tmp_path):
    data = tmp_path / "data"
    manifest = save_ensemble(
        collect_ensemble(fixtures.example1(), J=4, N=8, sigma=0.5, master_seed=1), data)
    model = save_model(fixtures.example1(), tmp_path / "model.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG, indent=2))
    # A copy of the manifest that reads its first experiment from the mutated CSV.
    experiment = data / "experiment_0000.csv"
    doc = json.loads(manifest.read_text())
    csv_manifest = data / "csv_manifest.json"
    csv_manifest.write_text(json.dumps({**doc, "files": ["mutated.csv", *doc["files"][1:]]}))
    identify = ["--q", "3", "--r", "3", "--order"]
    # Per file: the valid file, where its mutant goes, how to mutate it, and the
    # command lines that read it (the mutant's path filled in for {}).
    cases = [
        (manifest, data / "mutated.json", _mutate_json,
         [["identify", "{}", *identify, "2"], ["identify", "{}", *identify, "auto"]]),
        (experiment, data / "mutated.csv", _mutate_csv,
         [["identify", csv_manifest, *identify, "2"]]),
        (model, tmp_path / "mutated_model.json", _mutate_json,
         [["simulate", "--model", "{}", "--N", "4", "--J", "4", "--seed", "1"],
          ["evaluate", "--true", "{}", "--est", "example1", "--n-g", "5"],
          ["evaluate", "--true", "example1", "--est", "{}", "--n-g", "5"]]),
        (config, tmp_path / "mutated_config.json", _mutate_json,
         [["simulate", "--config", "{}"], ["identify", manifest, "--config", "{}"],
          ["evaluate", "--true", "example1", "--est", "example1", "--config", "{}"]]),
    ]
    rng = random.Random(35)
    faults, codes = [], []
    for i in range(MUTATIONS):
        valid, target, structured, commands = cases[i % len(cases)]
        text = _mutate(rng, valid.read_bytes().decode(), structured)
        target.write_bytes(text.encode())
        out = tmp_path / "out" / str(i)
        argv = [str(target) if a == "{}" else str(a) for a in rng.choice(commands)]
        argv += ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        codes.append(code)
        lines = stderr.getvalue().splitlines()
        if code == 0:
            shutil.rmtree(out)
            ok = lines == []
        else:
            ok = (code in (2, 3, 4) and len(lines) == 1 and lines[0].startswith("error: ")
                  and not out.exists())
        if not ok:
            faults.append((argv[0], text, code, stderr.getvalue()))
    assert faults == []
    # The mutants reach every outcome: success and each class of error.
    assert set(codes) == {0, 2, 3, 4}
