"""Command-line front end for data generation, identification, and studies.

Subcommands: ``simulate``, ``identify``, ``evaluate``, ``montecarlo``,
``sweep``, ``fixtures``. Every command is reproducible: the same inputs
and seed produce byte-identical output files. Outputs default to a
per-command directory under ``$LTPSID_OUT`` (or the working directory).

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
from .errors import (
    ConfigError,
    DataError,
    LtpsidError,
    NumericalPipelineError,
)
from .evaluation import (
    MonteCarloConfig,
    consistency_sweep,
    fit_metric,
    monte_carlo,
)
from .model import dc_gain, is_stable
from .signal import collect_ensemble
from .subspace import identify

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_DATA = 3
_EXIT_NUMERICAL = 4

# Built-in defaults applied after flag/config-file resolution; the standard
# benchmark study parameters.
_DEFAULTS = {
    "N": 50,
    "J": None,  # 10 * P, resolved once the model is known
    "sigma": 1.0,
    "q": 10,
    "r": 10,
    "nx": None,
    "order": "auto",
    "order_tol": 1e-8,
    "rank_tol": 1e-10,
    "n_g": 50,
    "trials": 100,
    "seed": 0,
    "jobs": 1,
    "normalize": False,
}


def _out_dir(args, command: str) -> Path:
    if args.out is not None:
        path = Path(args.out)
    else:
        root = os.environ.get("LTPSID_OUT", ".")
        path = Path(root) / command
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: cannot read config file: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config file must hold a JSON object")
    unknown = set(data) - set(_DEFAULTS) - {"model", "Ns", "out"}
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    if not isinstance(data.get("normalize", False), bool):
        raise ConfigError(f"{path}: normalize must be true or false, got {data['normalize']!r}")
    return data


def _resolve(args, key: str):
    """Flag value if given, else config-file value, else built-in default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in args._config:
        return args._config[key]
    return _DEFAULTS.get(key)


def _integer(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int >= ``minimum``; "abc", 2.5, true or None raise ``ConfigError``."""
    try:
        number = int(value)
        valid = (isinstance(value, str) or number == value) and number >= minimum
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return number


def _real(name: str, value) -> float:
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _get_model(args):
    source = _resolve(args, "model")
    if source is None:
        raise ConfigError("no model given; use --model FIXTURE_NAME_OR_PATH")
    return fixtures.resolve_model(str(source), normalize=_resolve(args, "normalize"))


def _parse_order(args) -> tuple[int | None, float | None]:
    order = _resolve(args, "order")
    if order == "auto":
        return None, _real("order_tol", _resolve(args, "order_tol"))
    return _integer("order (an integer or 'auto')", order), None


def _experiments(args, model) -> int:
    """Number of experiments J: flag or config value, else 10 * P."""
    J = _resolve(args, "J")
    return _integer("J", 10 * model.P if J is None else J)


def _study_config(args, model) -> MonteCarloConfig:
    nx = _resolve(args, "nx")
    if nx is None:
        raise ConfigError("studies need a known order; pass --nx")
    return MonteCarloConfig(
        J=_experiments(args, model),
        N=_integer("N", _resolve(args, "N")),
        sigma=_real("sigma", _resolve(args, "sigma")),
        trials=_integer("trials", _resolve(args, "trials")),
        q=_integer("q", _resolve(args, "q")),
        r=_integer("r", _resolve(args, "r")),
        n_x=_integer("nx", nx),
        seed=_integer("seed", _resolve(args, "seed"), minimum=0),
        n_g=_integer("n_g", _resolve(args, "n_g")),
    )


def _cmd_simulate(args) -> int:
    model = _get_model(args)
    out = _out_dir(args, "simulate")
    ensemble = collect_ensemble(
        model,
        J=_experiments(args, model),
        N=_integer("N", _resolve(args, "N")),
        sigma=_real("sigma", _resolve(args, "sigma")),
        master_seed=_integer("seed", _resolve(args, "seed"), minimum=0),
    )
    manifest = fileio.save_ensemble(ensemble, out)
    print(f"wrote {ensemble.J} experiments and manifest to {manifest}")
    return _EXIT_OK


def _cmd_identify(args) -> int:
    ensemble = fileio.load_ensemble(args.manifest)
    out = _out_dir(args, "identify")
    n_x, threshold = _parse_order(args)
    result = identify(
        ensemble,
        q=_integer("q", _resolve(args, "q")),
        r=_integer("r", _resolve(args, "r")),
        n_x=n_x,
        order_threshold=threshold,
        rank_tol=_real("rank_tol", _resolve(args, "rank_tol")),
    )
    fileio.save_identification_result(
        result, out / "model.json", out / "diagnostics.json"
    )
    if args.export_response:
        fileio.export_frequency_response(result.response, out / "response.csv")
    print(
        f"identified order {result.order_used} model "
        f"(q={result.q}, r={result.r}); wrote {out / 'model.json'}"
    )
    return _EXIT_OK


def _cmd_evaluate(args) -> int:
    true_model = fixtures.resolve_model(args.true, normalize=_resolve(args, "normalize"))
    est_model = fixtures.resolve_model(args.est)
    out = _out_dir(args, "evaluate")
    report = fit_metric(true_model, est_model, n_g=_integer("n_g", _resolve(args, "n_g")))
    fileio.write_json(
        {"W": report.W, "mse": report.mse, "n_g": report.n_g,
         "max_error": float(np.max(report.errors))},
        out / "fit.json",
    )
    fileio.write_errors_csv(report.errors, out / "errors.csv")
    print(f"W = {report.W!r}, mse = {report.mse!r}; wrote {out / 'fit.json'}")
    return _EXIT_OK


def _cmd_montecarlo(args) -> int:
    model = _get_model(args)
    out = _out_dir(args, "montecarlo")
    config = _study_config(args, model)
    result = monte_carlo(model, config, jobs=_integer("jobs", _resolve(args, "jobs")))
    fileio.write_montecarlo_csv(result, out / "trials.csv")
    fileio.write_json(result.summary(), out / "summary.json")
    print(
        f"{len(result.reports)}/{config.trials} trials succeeded; "
        f"summary in {out / 'summary.json'}"
    )
    return _EXIT_OK


def _cmd_sweep(args) -> int:
    model = _get_model(args)
    out = _out_dir(args, "sweep")
    Ns = _resolve(args, "Ns")
    if Ns is None:
        raise ConfigError("sweep needs --Ns, a comma-separated list of record lengths")
    if isinstance(Ns, str):
        Ns = [s for s in Ns.split(",") if s.strip()]
    if not isinstance(Ns, list):
        raise ConfigError(f"Ns must be a comma-separated string or a list, got {Ns!r}")
    grid = [_integer("Ns entry", n) for n in Ns]
    config = _study_config(args, model)
    sweep = consistency_sweep(
        model,
        grid,
        trials=config.trials,
        config=config,
        jobs=_integer("jobs", _resolve(args, "jobs")),
    )
    fileio.write_sweep_csv(sweep, out / "sweep.csv")
    fileio.write_json(
        {
            "N_grid": list(sweep.N_grid),
            "median_mse": list(sweep.median_mse),
            "slope": sweep.slope,
            "failures": len(sweep.failures),
        },
        out / "summary.json",
    )
    print(f"slope = {sweep.slope!r}; wrote {out / 'sweep.csv'}")
    return _EXIT_OK


def _cmd_fixtures(args) -> int:
    out = _out_dir(args, "fixtures")
    for name in fixtures.FIXTURE_NAMES:
        for normalized in (False, True):
            model = fixtures.resolve_model(name, normalize=normalized)
            suffix = "_normalized" if normalized else ""
            fileio.save_model(model, out / f"{name}{suffix}.json")
            stab = is_stable(model)
            print(
                f"{name}{suffix}: P={model.P} nx={model.nx} ny={model.ny} "
                f"nu={model.nu} rho={stab.spectral_radius!r} gain={dc_gain(model)!r}"
            )
    return _EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--out", help="output directory (default $LTPSID_OUT/<command>)")
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--jobs", type=int, help="parallel trial workers (default 1)")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="fixture name (example1, example2) or model JSON path")
    parser.add_argument(
        "--normalize",
        action="store_const",
        const=True,
        help="normalize the model to average steady-state gain 1",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ltpsid`` parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ltpsid",
        description="Frequency-domain subspace identification of linear time-periodic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate an ensemble of periodic experiments")
    _add_model_flags(p)
    p.add_argument("--N", type=int, help="periods per record (default 50)")
    p.add_argument("--J", type=int, help="number of experiments (default 10*P)")
    p.add_argument("--sigma", type=float, help="output noise std (default 1.0)")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("identify", help="identify a model from an ensemble manifest")
    p.add_argument("manifest", help="path to manifest.json of a stored ensemble")
    p.add_argument("--q", type=int, help="Hankel block rows (default 10)")
    p.add_argument("--r", type=int, help="Hankel block columns (default 10)")
    p.add_argument("--order", help="state order, or 'auto' for threshold selection")
    p.add_argument("--order-tol", dest="order_tol", type=float,
                   help="relative singular-value threshold for --order auto (default 1e-8)")
    p.add_argument("--rank-tol", dest="rank_tol", type=float,
                   help="relative rank tolerance of the response estimate (default 1e-10)")
    p.add_argument("--export-response", action="store_true",
                   help="also write the estimated lifted frequency response as CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("evaluate", help="score an estimated model against a reference")
    p.add_argument("--true", required=True, help="reference model (fixture name or path)")
    p.add_argument("--est", required=True, help="estimated model (fixture name or path)")
    p.add_argument("--normalize", action="store_const", const=True,
                   help="normalize the reference model before scoring")
    p.add_argument("--n-g", dest="n_g", type=int, help="lag horizon (default 50)")
    _add_common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("montecarlo", help="repeated noisy identification study")
    _add_model_flags(p)
    for flag, typ in (("--N", int), ("--J", int), ("--sigma", float), ("--q", int),
                      ("--r", int), ("--nx", int), ("--trials", int), ("--n-g", int)):
        p.add_argument(flag, dest=flag.lstrip("-").replace("-", "_"), type=typ)
    _add_common(p)
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("sweep", help="record-length consistency sweep")
    _add_model_flags(p)
    p.add_argument("--Ns", help="comma-separated record lengths, e.g. 25,50,100")
    for flag, typ in (("--J", int), ("--sigma", float), ("--q", int), ("--r", int),
                      ("--nx", int), ("--trials", int), ("--n-g", int)):
        p.add_argument(flag, dest=flag.lstrip("-").replace("-", "_"), type=typ)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fixtures", help="export the built-in benchmark models")
    _add_common(p)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = _load_config_file(getattr(args, "config", None))
        return args.func(args)
    except (ConfigError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except NumericalPipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except LtpsidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
