"""File formats: model JSON, ensemble CSV + manifest, and study reports.

Floats are written with Python's shortest round-trip representation so
repeated runs with the same seed produce byte-identical files on any
platform. Malformed inputs raise ``DataError`` with the offending file
and location.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import DataError
from .evaluation import MonteCarloResult, SweepResult
from .model import LiftedFrequencyResponse, LtpModel
from .signal import Ensemble, Experiment
from .subspace import IdentificationResult

__all__ = [
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
    "save_ensemble",
    "load_ensemble",
    "export_frequency_response",
    "save_identification_result",
    "write_montecarlo_csv",
    "write_sweep_csv",
    "write_json",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def _matrix_list(mats) -> list:
    return [[[float(v) for v in row] for row in m] for m in mats]


def model_to_dict(model: LtpModel) -> dict:
    return {
        "P": model.P,
        "nx": model.nx,
        "ny": model.ny,
        "nu": model.nu,
        "A": _matrix_list(model.A),
        "B": _matrix_list(model.B),
        "C": _matrix_list(model.C),
    }


def model_from_dict(data: dict, source: str = "<dict>") -> LtpModel:
    try:
        P = int(data["P"])
        A = [np.array(m, dtype=float) for m in data["A"]]
        B = [np.array(m, dtype=float) for m in data["B"]]
        C = [np.array(m, dtype=float) for m in data["C"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{source}: malformed model document: {exc}") from exc
    if len(A) != P:
        raise DataError(f"{source}: P={P} but {len(A)} A-matrices present")
    declared = (int(data.get("nx", A[0].shape[0])), int(data.get("ny", C[0].shape[0])),
                int(data.get("nu", B[0].shape[1])))
    model = LtpModel(A=tuple(A), B=tuple(B), C=tuple(C))
    if (model.nx, model.ny, model.nu) != declared:
        raise DataError(
            f"{source}: declared dimensions {declared} do not match matrices "
            f"{(model.nx, model.ny, model.nu)}"
        )
    return model


def save_model(model: LtpModel, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(model_to_dict(model), indent=2) + "\n")
    return path


def load_model(path: str | Path) -> LtpModel:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: cannot read model JSON: {exc}") from exc
    return model_from_dict(data, source=str(path))


def _experiment_csv_name(index: int) -> str:
    return f"experiment_{index:04d}.csv"


def save_ensemble(ensemble: Ensemble, directory: str | Path) -> Path:
    """Write one CSV per experiment plus ``manifest.json``; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for i, exp in enumerate(ensemble.experiments):
        name = _experiment_csv_name(i)
        files.append(name)
        with open(directory / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = (
                ["t"]
                + [f"u_{j + 1}" for j in range(exp.u.shape[1])]
                + [f"y_{j + 1}" for j in range(exp.y.shape[1])]
            )
            writer.writerow(header)
            for t in range(exp.length):
                writer.writerow(
                    [str(t)]
                    + [_fmt(v) for v in exp.u[t]]
                    + [_fmt(v) for v in exp.y[t]]
                )
    manifest = {
        "P": ensemble.P,
        "N": ensemble.N,
        "J": ensemble.J,
        "sigma": ensemble.experiments[0].sigma,
        "seeds": [
            {"input": exp.input_seed, "noise": exp.noise_seed}
            for exp in ensemble.experiments
        ],
        "files": files,
    }
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def load_ensemble(manifest_path: str | Path) -> Ensemble:
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
        P = int(manifest["P"])
        N = int(manifest["N"])
        J = int(manifest["J"])
        sigma = float(manifest.get("sigma", 0.0))
        files = manifest["files"]
        seeds = manifest.get("seeds", [{}] * J)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{manifest_path}: malformed manifest: {exc}") from exc
    if len(files) != J:
        raise DataError(
            f"{manifest_path}: manifest lists {len(files)} files but J={J}"
        )
    if not (isinstance(seeds, list) and len(seeds) == J
            and all(isinstance(entry, dict) for entry in seeds)):
        raise DataError(
            f"{manifest_path}: 'seeds' must hold one object per experiment (J={J})"
        )
    experiments = []
    for i, name in enumerate(files):
        path = manifest_path.parent / name
        experiments.append(_load_experiment_csv(path, seeds[i], sigma))
    return Ensemble(experiments=tuple(experiments), P=P, N=N)


def _load_experiment_csv(path: Path, seed_entry: dict, sigma: float) -> Experiment:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[0] != "t":
                raise DataError(f"{path}:1: expected header starting with 't'")
            nu = sum(1 for h in header if h.startswith("u_"))
            ny = sum(1 for h in header if h.startswith("y_"))
            if nu == 0 or ny == 0 or len(header) != 1 + nu + ny:
                raise DataError(f"{path}:1: header must be t, u_1..u_nu, y_1..y_ny")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataError(
                        f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                try:
                    rows.append([float(v) for v in row[1:]])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: bad number: {exc}") from exc
    except OSError as exc:
        raise DataError(f"{path}: cannot read experiment CSV: {exc}") from exc
    data = np.array(rows).reshape(-1, nu + ny)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise DataError(f"{path}:{bad[0] + 2}: non-finite sample")
    return Experiment(
        u=data[:, :nu],
        y=data[:, nu:],
        input_seed=seed_entry.get("input"),
        noise_seed=seed_entry.get("noise"),
        sigma=sigma,
    )


def export_frequency_response(
    response: LiftedFrequencyResponse, path: str | Path
) -> Path:
    """Flat CSV of the response: one row per (grid point, block, entry).

    Rows run over grid point k, output slot l, input slot m, then entry
    (a, b) of the (n_y, n_u) block ``G[k, l*n_y + a, m*n_u + b]``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k", "omega", "block_row", "block_col", "out_row", "in_col", "real", "imag"]
        )
        omega = response.frequencies
        N, P, ny, nu = response.N, response.P, response.ny, response.nu
        blocks = response.G.reshape(N, P, ny, P, nu).transpose(0, 1, 3, 2, 4)
        writer.writerows(
            [str(k), _fmt(omega[k]), str(l), str(m), str(a), str(b),
             _fmt(g.real), _fmt(g.imag)]
            for (k, l, m, a, b), g in np.ndenumerate(blocks)
        )
    return path


def save_identification_result(
    result: IdentificationResult, model_path: str | Path, diagnostics_path: str | Path
) -> None:
    """Write the estimated model JSON and a diagnostics JSON side by side."""
    save_model(result.model, model_path)
    diagnostics = {
        "order_used": result.order_used,
        "q": result.q,
        "r": result.r,
        "singular_values": [[float(s) for s in sv] for sv in result.singular_values],
        "threshold_counts": list(result.threshold_counts)
        if result.threshold_counts is not None
        else None,
        "b_residual": float(result.b_residual),
        "h_reconstruction_error_max": float(np.max(result.h_reconstruction_error)),
        "h_reconstruction_error": [
            [float(v) for v in row] for row in result.h_reconstruction_error
        ],
    }
    Path(diagnostics_path).write_text(json.dumps(diagnostics, indent=2) + "\n")


def write_montecarlo_csv(result: MonteCarloResult, path: str | Path) -> Path:
    """One row per trial: seed, W, MSE, failed flag (empty metrics on failure)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "seed", "W", "mse", "failed", "error"])
        for rec in result.trials:
            if rec.report is None:
                writer.writerow([str(rec.trial), str(rec.seed), "", "", "1", rec.error or ""])
            else:
                writer.writerow(
                    [
                        str(rec.trial),
                        str(rec.seed),
                        _fmt(rec.report.W),
                        _fmt(rec.report.mse),
                        "0",
                        "",
                    ]
                )
    return path


def write_sweep_csv(sweep: SweepResult, path: str | Path) -> Path:
    """One row per (record length, trial) with the trial's impulse-response MSE."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "trial", "mse"])
        for N, mses in zip(sweep.N_grid, sweep.mses):
            for t, mse in enumerate(mses):
                writer.writerow([str(N), str(t), _fmt(mse)])
    return path


def write_json(data: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path
