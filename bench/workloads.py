"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``, runs
one op per call of ``op`` (the timed unit) and checks the op's output in
``check`` (untimed). ``summary`` gives the median fit score W and the share
of estimator runs that succeeded over the distinct inputs the run covered;
both are fixed by the seed because every run covers its whole input pool.

Workloads reach ltpsid only through its public functions and
``ltpsid.cli.main``, always looked up on the module at call time so a
traced run sees the calls. The runner sets a workload's ``tracer`` around
a traced op; ``CliRoundtrip`` uses it to open one span per CLI command.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import ltpsid
import ltpsid.cli
import ltpsid.evaluation
import ltpsid.fixtures
import ltpsid.subspace
from ltpsid.errors import LtpsidError

# A noise-free ensemble of the workload's model must recover to at least this W.
NOISE_FREE_W = 100.0 - 1e-6


class CheckFailed(Exception):
    """An op or a set-up step produced a wrong output."""


def sub_seed(seed: int, *indices: int) -> int:
    ss = np.random.SeedSequence([int(seed), *[int(i) for i in indices]])
    return int(ss.generate_state(1, np.uint32)[0])


def _noise_free_check(model, J: int, N: int, q: int, r: int, n_x: int, seed: int) -> None:
    ens = ltpsid.collect_ensemble(model, J=J, N=N, sigma=0.0, master_seed=seed)
    result = ltpsid.identify(ens, q=q, r=r, n_x=n_x)
    W = ltpsid.fit_metric(model, result.model, n_g=50).W
    if not W >= NOISE_FREE_W:
        raise CheckFailed(f"noise-free recovery gave W = {W!r} < {NOISE_FREE_W!r}")


def _summary(outcomes: dict) -> tuple[float, float]:
    """Median W over successful inputs, and successes over inputs covered."""
    Ws = [w for w in outcomes.values() if w is not None]
    if not Ws:
        raise CheckFailed("every estimator run failed")
    return float(np.median(Ws)), len(Ws) / len(outcomes)


class MonteCarloExample2:
    """One trial of the paper's Monte Carlo study per op.

    Normalized example2 at N=50, J=10P=30, sigma=1, q=r=10, n_x=2, n_g=50,
    run through ``monte_carlo(..., trials=1, jobs=1)``. Op i runs trial
    i mod 100 of a 100-trial pool whose seeds come from the workload seed.
    """

    name = "mc-example2"
    pool = 100
    min_ops = 100

    def setup(self, seed: int):
        model = ltpsid.normalize_gain(ltpsid.fixtures.example2())
        _noise_free_check(model, J=30, N=50, q=10, r=10, n_x=2, seed=seed)
        self.model = model
        self.seeds = [sub_seed(seed, k) for k in range(self.pool)]
        self.outcomes: dict[int, float | None] = {}
        self.check(0, self.op(0))

    def op(self, i: int):
        config = ltpsid.MonteCarloConfig(
            J=30, N=50, sigma=1.0, trials=1, q=10, r=10, n_x=2,
            seed=self.seeds[i % self.pool], n_g=50,
        )
        return ltpsid.evaluation.monte_carlo(self.model, config, jobs=1)

    def check(self, i: int, result) -> bool:
        """Returns True when the trial's estimator failed (a recorded outcome)."""
        (trial,) = result.trials
        if trial.report is None:
            if not trial.error:
                raise CheckFailed(f"op {i}: failed trial without an error message")
            W = None
        else:
            W = trial.report.W
            if not math.isfinite(W):
                raise CheckFailed(f"op {i}: W = {W!r} is not finite")
        k = i % self.pool
        if k in self.outcomes and self.outcomes[k] != W:
            raise CheckFailed(f"op {i}: trial {k} gave W = {W!r}, before {self.outcomes[k]!r}")
        self.outcomes[k] = W
        return W is None

    def summary(self) -> tuple[float, float]:
        return _summary(self.outcomes)


def random_stable_model(seed: int, P: int = 12, nx: int = 6, nu: int = 2, ny: int = 2,
                        rho_max: float = 0.9):
    """Random LTP model with monodromy spectral radius below ``rho_max``."""
    rng = np.random.default_rng(seed)
    while True:
        model = ltpsid.LtpModel(
            A=tuple(rng.standard_normal((nx, nx)) / np.sqrt(nx) for _ in range(P)),
            B=tuple(rng.standard_normal((nx, nu)) for _ in range(P)),
            C=tuple(rng.standard_normal((ny, nx)) for _ in range(P)),
        )
        if ltpsid.is_stable(model).spectral_radius < rho_max:
            return model


class IdentifyMimo:
    """One ``identify(ens, q=10, r=10, n_x=6)`` per op on a large MIMO ensemble.

    Random stable model with P=12, n_x=6, 2 inputs and 2 outputs; ensembles
    of N=50, J=48, sigma=1 are simulated in set-up, and op i identifies pool
    entry i mod 2. W is scored outside the timed op, once per pool entry;
    later ops must reproduce that entry's estimate exactly.
    """

    name = "identify-mimo"
    pool = 2
    min_ops = 100

    def setup(self, seed: int):
        model = random_stable_model(seed)
        _noise_free_check(model, J=48, N=50, q=10, r=10, n_x=6, seed=sub_seed(seed, 0))
        self.model = model
        self.ensembles = [
            ltpsid.collect_ensemble(model, J=48, N=50, sigma=1.0,
                                    master_seed=sub_seed(seed, 1, k))
            for k in range(self.pool)
        ]
        self.outcomes: dict[int, float | None] = {}
        self.estimates: dict[int, tuple | None] = {}
        self.check(0, self.op(0))

    def op(self, i: int):
        try:
            return ltpsid.subspace.identify(self.ensembles[i % self.pool], q=10, r=10, n_x=6)
        except LtpsidError as exc:
            return exc

    def check(self, i: int, result) -> bool:
        k = i % self.pool
        failed = isinstance(result, LtpsidError)
        estimate = None if failed else result.model.A + result.model.B + result.model.C
        if k not in self.estimates:
            self.estimates[k] = estimate
            W = None if failed else ltpsid.fit_metric(self.model, result.model, n_g=50).W
            if W is not None and not math.isfinite(W):
                raise CheckFailed(f"op {i}: W = {W!r} is not finite")
            self.outcomes[k] = W
            return failed
        before = self.estimates[k]
        same = (estimate is None and before is None) or (
            estimate is not None and before is not None
            and all(np.array_equal(a, b) for a, b in zip(estimate, before))
        )
        if not same:
            raise CheckFailed(f"op {i}: estimate of pool entry {k} changed between ops")
        return failed

    def summary(self) -> tuple[float, float]:
        return _summary(self.outcomes)


class CliRoundtrip:
    """simulate -> identify --export-response -> evaluate through ``ltpsid.cli.main``.

    Each op writes into a fresh directory with stdout captured; its output
    files must be byte-identical to those of the reference op run in set-up.
    """

    name = "cli-roundtrip"
    min_ops = 100

    def __init__(self, workdir: Path):
        self.workdir = workdir
        # Set by the runner around traced ops, to open one span per command.
        self.tracer = None

    def _commands(self, out: Path) -> list[tuple[str, list[str]]]:
        return [
            ("cli.simulate", ["simulate", "--model", "example1", "--normalize", "--N", "50",
                              "--J", "20", "--sigma", "1", "--seed", str(self.seed),
                              "--out", str(out / "simulate")]),
            ("cli.identify", ["identify", str(out / "simulate" / "manifest.json"),
                              "--order", "2", "--export-response",
                              "--out", str(out / "identify")]),
            ("cli.evaluate", ["evaluate", "--true", "example1", "--normalize",
                              "--est", str(out / "identify" / "model.json"),
                              "--out", str(out / "evaluate")]),
        ]

    @staticmethod
    def _read_tree(root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    def setup(self, seed: int):
        self.seed = seed
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        ref = self.workdir / "reference"
        codes = self._run(ref)
        if codes != [0, 0, 0]:
            raise CheckFailed(f"reference op exited with codes {codes}")
        self.reference = self._read_tree(ref)
        self.W = json.loads(self.reference["evaluate/fit.json"])["W"]
        if not math.isfinite(self.W):
            raise CheckFailed(f"reference op scored W = {self.W!r}")

    def _run(self, out: Path) -> list[int]:
        codes = []
        sink = io.StringIO()
        for span_name, argv in self._commands(out):
            span = self.tracer.span(span_name) if self.tracer else contextlib.nullcontext()
            with span, contextlib.redirect_stdout(sink):
                codes.append(ltpsid.cli.main(argv))
        return codes

    def op(self, i: int):
        out = self.workdir / f"op{i:05d}"
        return out, self._run(out)

    def check(self, i: int, result) -> bool:
        out, codes = result
        try:
            if codes != [0, 0, 0]:
                raise CheckFailed(f"op {i}: commands exited with codes {codes}")
            tree = self._read_tree(out)
            if tree != self.reference:
                differ = sorted(set(tree) ^ set(self.reference)) or sorted(
                    k for k in tree if tree[k] != self.reference[k])
                raise CheckFailed(f"op {i}: output files differ from the reference: {differ[:3]}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return False

    def summary(self) -> tuple[float, float]:
        return float(self.W), 1.0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
