"""Mutation fuzzing of the files the command line reads.

A valid manifest, experiment CSV, model JSON and config file are mutated
with a fixed seed and handed to ``cli.main`` in process. Every run must exit
0, 2, 3 or 4, and a failing run must print exactly one ``error:`` line to
stderr and create nothing under its ``--out``, as the README promises. A
run that exits 0 must have loaded exactly the arrays of the valid file,
unless the mutation replaced a value the file holds as data: a sample, a
seed, ``sigma`` or a matrix entry.
"""

import contextlib
import io
import json
import random
import shutil

from ltpsid import fixtures
from ltpsid.cli import main
from ltpsid.fileio import load_ensemble, load_model, save_ensemble, save_model
from ltpsid.signal import collect_ensemble

MUTATIONS = 2000
# Replacement values; none of them is a count that would start a large run.
VALUES = [2**70, -1, 0, 1.5, True, None, "abc", "", float("nan"), float("inf"), [], {}]
FIELDS = [json.dumps(value).strip('"') for value in VALUES]  # the same values as CSV text
KEYS = ["D", "Sigma", "P ", "extra"]  # keys that no object of these files may hold
CONFIG = {"model": "example1", "normalize": True, "N": 4, "J": 4, "sigma": 0.5, "seed": 3,
          "q": 3, "r": 3, "order": 2, "order_tol": 1e-8, "n_g": 5}


def _paths(node, path=()):
    """The path of every value in a JSON document, the document itself first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate_json(rng: random.Random, text: str) -> tuple[str, tuple | None]:
    """One value deleted or replaced; the path of a replaced value, else None."""
    doc = json.loads(text)
    path = rng.choice(list(_paths(doc)))
    if not path:
        return json.dumps(rng.choice(VALUES)), None
    parent = _at(doc, path[:-1])
    if rng.random() < 0.5:
        del parent[path[-1]]
        path = None
    else:
        parent[path[-1]] = rng.choice(VALUES)
    return json.dumps(doc, indent=2), path


def _semantic_json(rng: random.Random, text: str) -> str:
    """A key added to one object, or one ``files`` entry copied over another."""
    doc = json.loads(text)
    if "files" in doc and rng.random() < 0.5:
        i, j = rng.sample(range(len(doc["files"])), 2)
        doc["files"][i] = doc["files"][j]
    else:
        objects = [path for path in _paths(doc) if isinstance(_at(doc, path), dict)]
        _at(doc, rng.choice(objects))[rng.choice(KEYS)] = rng.choice(VALUES)
    return json.dumps(doc, indent=2)


def _mutate_csv(rng: random.Random, text: str) -> tuple[str, tuple]:
    """One field replaced; its (line, column), both from 0."""
    lines = text.split("\r\n")
    row = rng.randrange(len(lines) - 1)  # the last entry is the empty tail of the final CRLF
    fields = lines[row].split(",")
    column = rng.randrange(len(fields))
    fields[column] = rng.choice(FIELDS)
    lines[row] = ",".join(fields)
    return "\r\n".join(lines), (row, column)


def _semantic_csv(rng: random.Random, text: str) -> str:
    """Two columns swapped with their header cells, or the sample rows reversed or two swapped."""
    rows = [line.split(",") for line in text.split("\r\n")[:-1]]
    kind = rng.randrange(3)
    if kind == 0:
        a, b = rng.sample(range(len(rows[0])), 2)
        for row in rows:
            row[a], row[b] = row[b], row[a]
    elif kind == 1:
        rows[1:] = rows[:0:-1]
    else:
        a, b = rng.sample(range(1, len(rows)), 2)
        rows[a], rows[b] = rows[b], rows[a]
    return "".join(",".join(row) + "\r\n" for row in rows)


def _mutate(rng: random.Random, text: str, structured, semantic, holds_data) -> tuple[str, bool]:
    """``text`` with one line deleted, cut short, a value or field changed by ``structured``,
    or parts moved or added by ``semantic``; and whether a value the file holds as data
    (``holds_data`` of the location ``structured`` names) may have been replaced."""
    kind = rng.randrange(4)
    if kind == 0:
        lines = text.splitlines(keepends=True)
        del lines[rng.randrange(len(lines))]
        return "".join(lines), False
    if kind == 1:
        cut = rng.randrange(len(text))
        # A cut after the last comma may leave the last value (in a CSV, a sample) shorter.
        return text[:cut], cut > text.rfind(",")
    if kind == 2:
        text, where = structured(rng, text)
        return text, where is not None and holds_data(where)
    return semantic(rng, text), False


def _ensemble_bytes(manifest):
    ens = load_ensemble(manifest)
    return ens.P, ens.N, ens.u.shape, ens.u.tobytes(), ens.y.shape, ens.y.tobytes()


def _model_bytes(path):
    model = load_model(path)
    return [(m.shape, m.tobytes()) for name in "ABC" for m in getattr(model, name)]


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
    # Per file: the valid file, where its mutant goes, how to mutate it, which
    # locations hold data, the command lines that read it (the mutant's path
    # filled in for {}), and the arrays a run that exits 0 must have loaded.
    json_mutations, csv_mutations = (_mutate_json, _semantic_json), (_mutate_csv, _semantic_csv)
    valid_ensemble = _ensemble_bytes(manifest)
    cases = [
        (manifest, data / "mutated.json", json_mutations,
         lambda path: False,  # its seeds and sigma are not among the arrays compared
         [["identify", "{}", *identify, "2"], ["identify", "{}", *identify, "auto"]],
         _ensemble_bytes, valid_ensemble),
        (experiment, data / "mutated.csv", csv_mutations,
         lambda where: where[0] != 0 and where[1] != 0,  # a sample: not the header, not t
         [["identify", csv_manifest, *identify, "2"]],
         lambda target: _ensemble_bytes(csv_manifest), valid_ensemble),
        (model, tmp_path / "mutated_model.json", json_mutations,
         lambda path: len(path) == 4,  # an entry of one of the A, B, C matrices
         [["simulate", "--model", "{}", "--N", "4", "--J", "4", "--seed", "1"],
          ["evaluate", "--true", "{}", "--est", "example1", "--n-g", "5"],
          ["evaluate", "--true", "example1", "--est", "{}", "--n-g", "5"]],
         _model_bytes, _model_bytes(model)),
        (config, tmp_path / "mutated_config.json", json_mutations, lambda path: False,
         [["simulate", "--config", "{}"], ["identify", manifest, "--config", "{}"],
          ["evaluate", "--true", "example1", "--est", "example1", "--config", "{}"]],
         None, None),  # a config file holds no arrays
    ]
    rng = random.Random(35)
    faults, codes, checked = [], [], 0
    for i in range(MUTATIONS):
        valid, target, mutations, holds_data, commands, loaded, expected = cases[i % len(cases)]
        text, data_replaced = _mutate(rng, valid.read_bytes().decode(), *mutations, holds_data)
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
            if loaded is not None and not data_replaced:
                ok = ok and loaded(target) == expected
                checked += 1
        else:
            ok = (code in (2, 3, 4) and len(lines) == 1 and lines[0].startswith("error: ")
                  and not out.exists())
        if not ok:
            faults.append((argv[0], text, code, stderr.getvalue()))
    assert faults == []
    # The mutants reach every outcome: success and each class of error.
    assert set(codes) == {0, 2, 3, 4}
    assert checked >= 30  # runs that exit 0 on a file whose arrays must be unchanged
