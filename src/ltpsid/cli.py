"""Command-line front end for data generation, identification, and studies.

Subcommands: ``simulate``, ``identify``, ``evaluate``, ``montecarlo``,
``sweep``, ``fixtures``. Every option that a JSON config file may also set
is declared once, in ``_OPTIONS``: the check its value must pass, its
built-in default and its help. A count or number passes a rule of ``errors``
with the library's range, after ``int`` or ``float`` reads text. Each value
in a ``--config`` file is checked when the file is read, whichever command
runs, and each flag given, even one the command then ignores, with the same
message; ``main`` then settles every option the subcommand takes (flag, else
config value, else default) on ``args``, where the commands read it. Every
command is reproducible: the same inputs and seed produce byte-identical
output files. Outputs go to ``out``, which defaults to a per-command
directory under ``$LTPSID_OUT`` (or the working directory). A path that
cannot become a directory is refused before the command starts its work;
``fileio`` creates it as it writes the first result, and a failed write exits 2.

Exit codes: 0 success, 2 configuration or validation error, 3 data error,
4 numerical pipeline error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio, fixtures
from .errors import ConfigError, DataError, LtpsidError, NumericalPipelineError, _integer, _real
from .evaluation import DEFAULT_N_G, MonteCarloConfig, consistency_sweep, fit_metric, monte_carlo
from .model import dc_gain, is_stable
from .signal import collect_ensemble
from .subspace import identify

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_DATA = 3
_EXIT_NUMERICAL = 4


def _read(rule, kind, *bounds):
    """A check: ``rule`` with ``bounds`` once ``kind`` reads text; unreadable text goes as it is."""
    def check(name: str, value):
        try:
            value = kind(value) if isinstance(value, str) else value
        except ValueError:
            pass
        return rule(name, value, *bounds)
    return check


_COUNT = _read(_integer, int, 1)
_LENGTH = _read(_integer, int, 1, 2**32 - 1)  # a sweep's record length is also a seed index


def _switch(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _text(kind: str):
    """Check that a value is a string, naming ``kind`` when it is not."""
    def check(name: str, value) -> str:
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be {kind}, got {value!r}")
        return value
    return check


def _order(name: str, value) -> int | str:
    return value if value == "auto" else _COUNT(f"{name} (an integer or 'auto')", value)


def _lengths(name: str, value) -> list[int]:
    """Record lengths from "25,50" or [25, 50]."""
    if isinstance(value, str):
        value = [s for s in value.split(",") if s.strip()]
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a comma-separated string or a list, got {value!r}")
    return [_LENGTH(f"{name} entry", n) for n in value]


# Each option a flag or config key can set: (check, built-in default, help).
# A check takes the key and a flag string or JSON value and returns the
# settled value or raises ``ConfigError``. The default is None where there
# is none or the command fills it in. Key ``n_g`` is flag ``--n-g``; the
# ``_switch`` options are switches.
_OPTIONS = {
    "model": (_text("a fixture name or model JSON path"), None,
              "fixture name (example1, example2) or model JSON path"),
    "normalize": (_switch, False, "normalize the model (evaluate: the reference "
                  "model) to average steady-state gain 1"),
    "N": (_COUNT, 50, "periods per record"),
    "Ns": (_lengths, None, "comma-separated record lengths, e.g. 25,50,100"),
    "J": (_COUNT, None, "number of experiments (default 10*P)"),
    "sigma": (_read(_real, float, 0), 1.0, "output noise std"),
    "q": (_COUNT, 10, "Hankel block rows"),
    "r": (_COUNT, 10, "Hankel block columns"),
    "nx": (_COUNT, None, "state order of every study estimate"),
    "order": (_order, "auto", "state order, or 'auto' for threshold selection"),
    "order_tol": (_read(_real, float, 0, 1), 1e-8,
                  "relative singular-value threshold in [0, 1) for --order auto"),
    "n_g": (_COUNT, DEFAULT_N_G, "lag horizon of the fit score"),
    "trials": (_COUNT, 100, "noise realizations per study point"),
    "seed": (_read(_integer, int, 0, np.inf), 0, "master seed"),
    "jobs": (_COUNT, 1, "parallel trial workers"),
    "out": (_text("a directory path"), None, "output directory (default $LTPSID_OUT/<command>)"),
}


def _out_path(args) -> Path:
    """The output directory, refused before any work if a non-directory is or holds its place."""
    default = Path(os.environ.get("LTPSID_OUT", "."), args.command)
    path = default if args.out is None else Path(args.out)
    nearest = next(p for p in (path, *path.parents) if os.path.exists(p))
    if not nearest.is_dir():
        raise ConfigError(f"cannot create output directory {path}: {nearest} is not a directory")
    return path


def _load_config_file(path: str | None) -> dict:
    """Every non-null value of the JSON config file at ``path``, checked."""
    if path is None:
        return {}
    data = fileio.read_file(path, "config file", json.loads)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config file must hold a JSON object")
    fileio.check_keys(path, "config", data, _OPTIONS, ConfigError)
    return {key: _OPTIONS[key][0](key, value) for key, value in data.items() if value is not None}


def _get_model(args):
    if args.model is None:
        raise ConfigError("no model given; use --model FIXTURE_NAME_OR_PATH")
    return fixtures.resolve_model(args.model, normalize=args.normalize)


def _study_config(args, model, N: int) -> MonteCarloConfig:
    if args.nx is None:
        raise ConfigError("studies need a known order; pass --nx")
    return MonteCarloConfig(
        J=args.J or 10 * model.P, N=N, sigma=args.sigma, trials=args.trials,
        q=args.q, r=args.r, n_x=args.nx, seed=args.seed, n_g=args.n_g,
    )


def _cmd_simulate(args) -> None:
    model = _get_model(args)
    ensemble = collect_ensemble(
        model, J=args.J or 10 * model.P, N=args.N, sigma=args.sigma, master_seed=args.seed
    )
    manifest = fileio.save_ensemble(ensemble, args.out)
    print(f"wrote {ensemble.J} experiments and manifest to {manifest}")


def _cmd_identify(args) -> None:
    ensemble = fileio.load_ensemble(args.manifest)
    auto = args.order == "auto"
    result = identify(ensemble, q=args.q, r=args.r, n_x=None if auto else args.order,
                      order_threshold=args.order_tol if auto else None)
    fileio.save_identification_result(
        result, args.out / "model.json", args.out / "diagnostics.json")
    if args.export_response:
        fileio.export_frequency_response(result.response, args.out / "response.csv")
    print(
        f"identified order {result.model.nx} model "
        f"(q={result.q}, r={result.r}); wrote {args.out / 'model.json'}"
    )


def _cmd_evaluate(args) -> None:
    true_model = fixtures.resolve_model(args.true, normalize=args.normalize)
    est_model = fixtures.resolve_model(args.est)
    report = fit_metric(true_model, est_model, n_g=args.n_g)
    fileio.write_json(
        {"W": report.W, "mse": report.mse, "n_g": args.n_g,
         "max_error": float(np.max(report.errors))},
        args.out / "fit.json",
    )
    fileio.write_errors_csv(report.errors, args.out / "errors.csv")
    print(f"W = {report.W!r}, mse = {report.mse!r}; wrote {args.out / 'fit.json'}")


def _cmd_montecarlo(args) -> None:
    model = _get_model(args)
    config = _study_config(args, model, args.N)
    result = monte_carlo(model, config, jobs=args.jobs)
    fileio.write_montecarlo_csv(result, args.out / "trials.csv")
    fileio.write_json(result.summary(), args.out / "summary.json")
    print(
        f"{len(result.reports)}/{config.trials} trials succeeded; "
        f"summary in {args.out / 'summary.json'}"
    )


def _cmd_sweep(args) -> None:
    model = _get_model(args)
    if not args.Ns:
        raise ConfigError("sweep needs --Ns, a comma-separated list of record lengths")
    config = _study_config(args, model, args.Ns[0])
    sweep = consistency_sweep(model, args.Ns, config, jobs=args.jobs)
    fileio.write_sweep_csv(sweep, args.out / "sweep.csv")
    fileio.write_json(
        {
            "N_grid": list(sweep.N_grid),
            "median_mse": list(sweep.median_mse),
            "slope": sweep.slope,
            "failures": sum(len(result.failures) for result in sweep.results),
        },
        args.out / "summary.json",
    )
    print(f"slope = {sweep.slope!r}; wrote {args.out / 'sweep.csv'}")


def _cmd_fixtures(args) -> None:
    for name in fixtures.FIXTURE_NAMES:
        for normalized in (False, True):
            model = fixtures.resolve_model(name, normalize=normalized)
            suffix = "_normalized" if normalized else ""
            fileio.save_model(model, args.out / f"{name}{suffix}.json")
            stab = is_stable(model)
            print(
                f"{name}{suffix}: P={model.P} nx={model.nx} ny={model.ny} "
                f"nu={model.nu} rho={stab.spectral_radius!r} gain={dc_gain(model)!r}"
            )


def _add_options(parser: argparse.ArgumentParser, *keys: str) -> None:
    """Flags from ``_OPTIONS`` for ``keys`` and ``out``, then ``--config``."""
    for key in (*keys, "out"):
        check, default, text = _OPTIONS[key]
        flag = "--" + key.replace("_", "-")
        if check is _switch:
            parser.add_argument(flag, dest=key, action="store_const", const=True, help=text)
            continue
        if default is not None:
            text += f" (default {default})"
        parser.add_argument(flag, dest=key, help=text)
    parser.add_argument("--config", help="JSON config file; flags override its values")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ltpsid`` parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ltpsid",
        description="Frequency-domain subspace identification of linear time-periodic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate an ensemble of periodic experiments")
    _add_options(p, "model", "normalize", "N", "J", "sigma", "seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("identify", help="identify a model from an ensemble manifest")
    p.add_argument("manifest", help="path to manifest.json of a stored ensemble")
    p.add_argument("--export-response", action="store_true",
                   help="also write the estimated lifted frequency response as CSV")
    _add_options(p, "q", "r", "order", "order_tol")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("evaluate", help="score an estimated model against a reference")
    p.add_argument("--true", required=True, help="reference model (fixture name or path)")
    p.add_argument("--est", required=True, help="estimated model (fixture name or path)")
    _add_options(p, "normalize", "n_g")
    p.set_defaults(func=_cmd_evaluate)

    study = ("J", "sigma", "q", "r", "nx", "trials", "n_g", "seed", "jobs")
    p = sub.add_parser("montecarlo", help="repeated noisy identification study")
    _add_options(p, "model", "normalize", "N", *study)
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("sweep", help="record-length consistency sweep")
    _add_options(p, "model", "normalize", "Ns", *study)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fixtures", help="export the built-in benchmark models")
    _add_options(p)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config_file(args.config)
        for key, (check, default, _) in _OPTIONS.items():
            if key in args:
                flag = getattr(args, key)
                setattr(args, key, config.get(key, default) if flag is None else check(key, flag))
        args.out = _out_path(args)
        args.func(args)
    except LtpsidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DataError):
            return _EXIT_DATA
        if isinstance(exc, NumericalPipelineError):
            return _EXIT_NUMERICAL
        return _EXIT_CONFIG
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
