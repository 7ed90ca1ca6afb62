"""File formats: model JSON, ensemble CSV + manifest, and study reports.

Floats are written with Python's shortest round-trip representation so
repeated runs with the same seed produce byte-identical files on any
platform. The csv module writes ``trials.csv`` (its messages may need
quoting); the numeric tables are joined in the same CRLF format. Only
``_write`` creates directories; a failed write raises ``ConfigError``.
Malformed inputs raise ``DataError`` with the offending file and location.
A loader checks only what a file adds: its keys (``check_keys``), the
experiment header (``_header``) and a ``t`` column counting rows from 0,
the number of matrices or file names, and declared dimensions or counts.
``LtpModel`` and ``Ensemble`` check the values; each loader turns their
``ConfigError`` into one ``DataError`` naming the file.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, _integer
from .evaluation import MonteCarloResult, SweepResult
from .model import LiftedFrequencyResponse, LtpModel
from .signal import Ensemble
from .subspace import IdentificationResult

__all__ = [
    "save_model",
    "load_model",
    "save_ensemble",
    "load_ensemble",
    "read_file",
    "check_keys",
    "export_frequency_response",
    "save_identification_result",
    "write_montecarlo_csv",
    "write_sweep_csv",
    "write_errors_csv",
    "write_json",
]


def _write(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` unchanged, creating its directory; OSError becomes ConfigError."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
    return path


def _write_csv(path: str | Path, header: list[str], rows: list) -> Path:
    """Write ``header`` and rows of Python ints and floats as ``csv.writer`` would, in one write.

    One ``repr`` of all ``rows`` builds the CRLF-joined lines: the ``repr`` of an int or a
    float holds no ``[``, ``]`` or ``, ``."""
    body = repr(rows)[2:-2].replace("], [", "\r\n").replace(", ", ",")
    return _write(path, ",".join(header) + "\r\n" + (body and body + "\r\n"))


def read_file(path: str | Path, what: str, parse):
    """``parse`` applied to the UTF-8 text of ``path``.

    A file that cannot be opened, is not UTF-8, or that ``parse`` rejects
    with a ``ValueError`` or ``csv.Error`` raises ``DataError`` naming the
    file and ``what``.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return parse(fh.read())
    except (OSError, ValueError, csv.Error) as exc:
        raise DataError(f"{path}: cannot read {what}: {exc}") from exc


def check_keys(path, what: str, data: dict, allowed, error=DataError) -> None:
    """Raise ``error`` naming ``path`` and the keys of the ``what`` object ``data`` not allowed."""
    if unknown := sorted(set(data) - set(allowed)):
        raise error(f"{path}: unknown {what} keys: {unknown}")


def save_model(model: LtpModel, path: str | Path) -> Path:
    data = {"P": model.P, "nx": model.nx, "ny": model.ny, "nu": model.nu,
            **{name: [m.tolist() for m in getattr(model, name)] for name in "ABC"}}
    return _write(path, json.dumps(data, indent=2) + "\n")


def load_model(path: str | Path) -> LtpModel:
    data = read_file(path, "model JSON", json.loads)
    try:
        P = _integer("P", data["P"], 1)
        if "D" in data:
            raise DataError(f"{path}: unknown model key 'D': the model has no feedthrough term")
        check_keys(path, "model", data, ("P", "nx", "ny", "nu", "A", "B", "C"))
        mats = {name: data[name] for name in "ABC"}
        for name, seq in mats.items():
            if len(seq) != P:
                raise DataError(f"{path}: P={P} needs P {name}-matrices, got {len(seq)}")
        model = LtpModel(**mats)
        shape = {"nx": model.nx, "ny": model.ny, "nu": model.nu}
        declared = {key: _integer(key, data.get(key, n), 1) for key, n in shape.items()}
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model document: {exc}") from exc
    if declared != shape:
        raise DataError(
            f"{path}: declared dimensions {tuple(declared.values())} do not match matrices "
            f"{tuple(shape.values())}"
        )
    return model


def save_ensemble(ensemble: Ensemble, directory: str | Path) -> Path:
    """Write one CSV per experiment plus ``manifest.json``; returns the manifest path."""
    directory = Path(directory)
    header = _header(ensemble.nu, ensemble.ny)
    files = [f"experiment_{i:04d}.csv" for i in range(ensemble.J)]
    for name, samples in zip(files, np.concatenate([ensemble.u, ensemble.y], axis=2)):
        rows = samples.tolist()
        for t, row in enumerate(rows):
            row.insert(0, t)
        _write_csv(directory / name, header, rows)
    manifest = {
        "P": ensemble.P,
        "N": ensemble.N,
        "J": ensemble.J,
        "sigma": ensemble.sigma,
        "seeds": [
            {"input": input_seed, "noise": noise_seed}
            for input_seed, noise_seed in zip(ensemble.input_seeds, ensemble.noise_seeds)
        ],
        "files": files,
    }
    return _write(directory / "manifest.json", json.dumps(manifest, indent=2) + "\n")


def load_ensemble(manifest_path: str | Path) -> Ensemble:
    manifest_path = Path(manifest_path)
    manifest = read_file(manifest_path, "manifest", json.loads)
    try:
        P, N, J, files = (manifest[key] for key in ("P", "N", "J", "files"))
    except (KeyError, TypeError) as exc:
        raise DataError(f"{manifest_path}: malformed manifest: {exc}") from exc
    check_keys(manifest_path, "manifest", manifest, ("P", "N", "J", "sigma", "seeds", "files"))
    try:
        J = _integer("J", J, 1)
        if not (isinstance(files, list) and all(isinstance(name, str) for name in files)
                and len(set(map(os.path.normpath, files))) == len(files)):
            raise DataError(f"{manifest_path}: 'files' must be a list of file names, none twice")
        if len(files) != J:
            raise DataError(f"{manifest_path}: manifest lists {len(files)} files but J={J}")
        seeds = manifest.get("seeds", [{}] * J)
        if not (isinstance(seeds, list) and len(seeds) == J
                and all(isinstance(entry, dict) for entry in seeds)):
            raise DataError(f"{manifest_path}: 'seeds' must hold one object per experiment (J={J})")
        check_keys(manifest_path, "seed", set().union(*seeds), ("input", "noise"))
        records = [_read_experiment_csv(manifest_path.parent / name) for name in files]
        try:
            u, y = (np.stack(signals) for signals in zip(*records))
        except ValueError as exc:
            raise DataError(
                f"{manifest_path}: experiments differ in length or channel counts: {exc}"
            ) from exc
        seed_lists = ([entry.get(key) for entry in seeds] for key in ("input", "noise"))
        return Ensemble(u, y, P, N, *seed_lists, manifest.get("sigma", 0.0))
    except ConfigError as exc:
        raise DataError(f"{manifest_path}: {exc}") from exc


def _header(nu: int, ny: int) -> list[str]:
    """The header of an experiment CSV with ``nu`` inputs and ``ny`` outputs."""
    return ["t", *(f"u_{j}" for j in range(1, nu + 1)), *(f"y_{j}" for j in range(1, ny + 1))]


def _read_experiment_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Inputs (N*P, n_u) and outputs (N*P, n_y) of one experiment CSV, parsed by the csv module.

    Every field, ``t`` too, is converted in one numpy call; only when that
    fails are the rows scanned to name the file:line of the first fault.
    """
    header, *body = read_file(
        path, "experiment CSV", lambda text: list(csv.reader(io.StringIO(text, newline="")))
    ) or [[]]
    nu = sum(h.startswith("u_") for h in header)
    if not (nu and len(header) > 1 + nu and header == _header(nu, len(header) - 1 - nu)):
        raise DataError(f"{path}:1: header must be t, u_1..u_nu, y_1..y_ny")
    try:
        # Rows of another field count make the array ragged or the reshape fail.
        data = np.array(body, dtype=float).reshape(len(body), len(header))
    except ValueError:
        for lineno, row in enumerate(body, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                list(map(float, row))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad number: {exc}") from exc
        raise
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1) | (data[:, 0] != np.arange(len(body))))
    if bad.size:
        raise DataError(f"{path}:{bad[0] + 2}: non-finite sample or t other than {bad[0]}")
    return data[:, 1 : nu + 1], data[:, nu + 1 :]


def export_frequency_response(
    response: LiftedFrequencyResponse, path: str | Path
) -> Path:
    """Flat CSV of the response on the full N-point grid: one row per (grid point, block, entry).

    Rows run over grid point k = 0..N-1, output slot l, input slot m, then
    entry (a, b) of the (n_y, n_u) block ``G[k, l*n_y + a, m*n_u + b]``. The
    rows past N//2 are the mirror ``G[k] = conj(G[N-k])`` of the stored half
    grid; grid points 0 and N/2 are their own mirror images, so their
    imaginary part is written as 0.0.
    """
    N, P, ny, nu = response.N, response.P, response.ny, response.nu
    G = np.concatenate([response.G, response.G[1 : (N + 1) // 2][::-1].conj()])
    own_mirror = [0, N // 2] if N % 2 == 0 else [0]
    G[own_mirror] = G[own_mirror].real
    blocks = G.reshape(N, P, ny, P, nu).transpose(0, 1, 3, 2, 4)
    index = np.indices(blocks.shape).reshape(5, -1).T.tolist()
    omega = (2.0 * np.pi * np.arange(N) / N).tolist()
    rows = [
        [k, omega[k], l, m, a, b, g.real, g.imag]
        for (k, l, m, a, b), g in zip(index, blocks.ravel().tolist())
    ]
    return _write_csv(
        path, ["k", "omega", "block_row", "block_col", "out_row", "in_col", "real", "imag"], rows)


def save_identification_result(
    result: IdentificationResult, model_path: str | Path, diagnostics_path: str | Path
) -> None:
    """Write the estimated model JSON and a diagnostics JSON side by side."""
    save_model(result.model, model_path)
    diagnostics = {
        "order_used": result.model.nx,
        "q": result.q,
        "r": result.r,
        "singular_values": result.singular_values.tolist(),
        "threshold_counts": None
        if result.threshold_counts is None
        else result.threshold_counts.tolist(),
        "b_residual": float(result.b_residual),
        "h_reconstruction_error_max": float(np.max(result.h_reconstruction_error)),
        "h_reconstruction_error": result.h_reconstruction_error.tolist(),
    }
    _write(diagnostics_path, json.dumps(diagnostics, indent=2) + "\n")


def write_montecarlo_csv(result: MonteCarloResult, path: str | Path) -> Path:
    """One row per trial: seed, W, MSE, failed flag (empty metrics on failure), error message."""
    text = io.StringIO()
    csv.writer(text).writerows([
        ["trial", "seed", "W", "mse", "failed", "error"],
        *([rec.trial, rec.seed, "", "", 1, rec.error] if rec.report is None
          else [rec.trial, rec.seed, float(rec.report.W), float(rec.report.mse), 0, ""]
          for rec in result.trials),
    ])
    return _write(path, text.getvalue())


def write_sweep_csv(sweep: SweepResult, path: str | Path) -> Path:
    """One row per successful trial: record length, the trial's index there, and its MSE."""
    rows = [
        [int(result.config.N), rec.trial, float(rec.report.mse)]
        for result in sweep.results for rec in result.trials if rec.report is not None
    ]
    return _write_csv(path, ["N", "trial", "mse"], rows)


def write_errors_csv(errors: np.ndarray, path: str | Path) -> Path:
    """One row per (tag tau, lag r) of the (P, n_g) impulse-response errors of ``fit_metric``."""
    rows = [[tau, r, e] for tau, row in enumerate(errors.tolist()) for r, e in enumerate(row, 1)]
    return _write_csv(path, ["tau", "r", "error"], rows)


def write_json(data: dict, path: str | Path) -> Path:
    return _write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")
