"""Impulse-response recovery study on the benchmark models.

For each benchmark, runs one noisy identification with the standard
configuration (N=50, J=10*P, unit Gaussian input and noise) and writes
the per-(tag time, lag) absolute errors of the recovered periodic impulse
response, the data behind an error-vs-lag plot.

    python scripts/run_recovery.py --sigma 1.0 --seed 7 --outdir out_recovery
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

import numpy as np

from ltpsid import fixtures
from ltpsid.evaluation import fit_metric
from ltpsid.model import impulse_table, normalize_gain
from ltpsid.signal import collect_ensemble
from ltpsid.subspace import identify


def run(name: str, sigma: float, seed: int, outdir: Path, n_g: int = 50) -> None:
    model = normalize_gain(fixtures.load(name))
    ensemble = collect_ensemble(
        model, J=10 * model.P, N=50, sigma=sigma, master_seed=seed
    )
    result = identify(ensemble, q=10, r=10, n_x=2)
    report = fit_metric(model, result.model, n_g=n_g)
    g_true = impulse_table(model, n_g)[:, :, 0, 0]
    g_est = impulse_table(result.model, n_g)[:, :, 0, 0]

    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{name}_errors.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "r", "g_true", "g_est", "abs_error"])
        for tau in range(model.P):
            for r in range(1, n_g + 1):
                g, g_hat = float(g_true[tau, r - 1]), float(g_est[tau, r - 1])
                writer.writerow(
                    [tau, r, repr(g), repr(g_hat), repr(abs(g - g_hat))]
                )
    print(
        f"{name}: W = {report.W:.3f}, max error = {np.max(report.errors):.3e}, "
        f"wrote {path}"
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n-g", type=int, default=50)
    parser.add_argument("--outdir", type=Path, default=Path("out_recovery"))
    args = parser.parse_args(argv)
    for name in fixtures.FIXTURE_NAMES:
        run(name, args.sigma, args.seed, args.outdir, n_g=args.n_g)


if __name__ == "__main__":
    main()
