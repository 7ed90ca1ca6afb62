"""ltpsid benchmark: one workload, one run, one JSON result line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload mc-example2 --seed 1 --seconds 20 --trace 0

The run is a single-process closed loop: one client, ``jobs=1``, BLAS
threads pinned to 1 before numpy loads. It sets the workload up seven
times, once before the op loop and the rest spread over it (``setup_s`` is
their upper quartile), and runs ops until ``--seconds`` of op-loop time (set-ups
excluded) have passed and the workload's minimum op count is reached.
Every op's output is checked; an op that raises something other than a
recorded estimator failure, or fails its check, counts as failed and the
run exits 1.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` each op runs twice, once plain and once with the per-layer
wrappers of ``spans.py`` installed (alternating which goes first), and the
result holds the per-layer metrics, per traced op, plus
``trace.overhead_pct``; the span records go to ``.bench_out/``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the machine facts. ltpsid is imported from ``src/`` of the working
directory, and the run fails without printing a result when it is absent.
"""

import os

THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# Timed set-ups per plain run: one before the op loop, the rest spread over it.
SETUP_REPEATS = 7
# Ops stop once this much wall time has passed since start, whatever the
# minimum op count, so a run always ends well inside three minutes.
DEADLINE_S = 150.0
# In a traced run, plain+traced op pairs to reach before stopping.
MIN_TRACE_PAIRS = 50
OUT_DIR = Path(".bench_out")


def _git_commit() -> str | None:
    head = Path(".git/HEAD")
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (Path(".git") / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def machine_facts() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(THREADS),
        "git_commit": _git_commit(),
    }


class Runner:
    """Sets up, times and checks the ops of one workload."""

    def __init__(self, factory, seed: int, seconds: float, started: float):
        self.factory = factory
        self.seed = seed
        self.seconds = seconds
        self.started = started
        self.wl = None
        self.setup_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.est_failures = 0

    def new_workload(self):
        wl = self.factory()
        t0 = time.perf_counter()
        wl.setup(self.seed)
        self.setup_times.append(time.perf_counter() - t0)
        return wl

    def time_setup(self) -> float:
        """One more timed set-up, thrown away; returns the seconds it took."""
        t0 = time.perf_counter()
        close(self.new_workload())
        gc.collect()
        return time.perf_counter() - t0

    def run_op(self, i: int, tracer=None) -> float:
        """Run and check op ``i``; returns its latency in seconds."""
        self.attempted += 1
        self.wl.tracer = tracer
        scope = tracer.op(i) if tracer is not None else contextlib.nullcontext()
        elapsed = 0.0
        try:
            with scope:
                t0 = time.perf_counter()
                try:
                    result = self.wl.op(i)
                finally:
                    elapsed = time.perf_counter() - t0
            self.est_failures += bool(self.wl.check(i, result))
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        finally:
            self.wl.tracer = None
        return elapsed

    def keep_going(self, elapsed: float, done: int, wanted: int) -> bool:
        if time.perf_counter() - self.started > DEADLINE_S:
            return False
        return elapsed < self.seconds or done < wanted


def as_json(values: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def close(workload) -> None:
    if hasattr(workload, "close"):
        workload.close()


def run_plain(runner: Runner) -> tuple[dict, dict]:
    """End-to-end metrics, plus ungated run facts."""
    runner.wl = runner.new_workload()
    gc.collect()
    # The other set-ups are spread over the op loop, so that setup_s samples
    # the machine over the same stretch of time as the ops do.
    marks = [runner.seconds * k / (SETUP_REPEATS - 1) for k in range(1, SETUP_REPEATS - 1)]
    latencies = []
    paused = 0.0
    loop_start = time.perf_counter()
    i = 0
    while runner.keep_going(time.perf_counter() - loop_start - paused, i, runner.wl.min_ops):
        if marks and time.perf_counter() - loop_start - paused >= marks[0]:
            marks.pop(0)
            paused += runner.time_setup()
        latencies.append(runner.run_op(i))
        i += 1
    wall = time.perf_counter() - loop_start - paused
    while len(runner.setup_times) < SETUP_REPEATS:
        runner.time_setup()
    W_median, ok_share = runner.wl.summary()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        # Upper quartile, not median: like op_ms_p90 it stays in the host's
        # slow phase, where the median flips between phases from run to run.
        "setup_s": (float(np.percentile(runner.setup_times, 75)), "s"),
        "op_ms_p90": (float(np.percentile(latencies, 90)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "W_median": (W_median, "score"),
        "est_ok_share": (ok_share, "share"),
    }
    # Not gated: the host's speed phases swing these by more than any
    # allowed bound from run to run (see bench/README.md).
    info = {
        "op_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "ops_per_s": (i / wall, "1/s"),
        "ops": (i, "count"),
        "estimator_failures": (runner.est_failures, "count"),
    }
    return metrics, info


def run_traced(runner: Runner, workload_name: str) -> tuple[dict, dict]:
    """Per-layer metrics per traced op, plus ungated run facts."""
    from spans import Tracer

    tracer = Tracer()
    runner.wl = runner.new_workload()
    gc.collect()
    plain, traced = [], []
    loop_start = time.perf_counter()
    i = 0
    while runner.keep_going(time.perf_counter() - loop_start, i, MIN_TRACE_PAIRS):
        if i % 2:
            traced.append(runner.run_op(i, tracer))
            plain.append(runner.run_op(i))
        else:
            plain.append(runner.run_op(i))
            traced.append(runner.run_op(i, tracer))
        i += 1
    tracer.write(OUT_DIR / f"spans-{workload_name}-{runner.seed}.csv")
    metrics = tracer.per_op(len(traced))
    p50_plain, p50_traced = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_pct"] = (100.0 * (p50_traced - p50_plain) / p50_plain, "%")
    info = {
        "plain_op_ms_p50": (p50_plain * 1e3, "ms"),
        "traced_op_ms_p50": (p50_traced * 1e3, "ms"),
        "traced_ops": (len(traced), "count"),
        "spans": (len(tracer.records), "count"),
    }
    return metrics, info


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "ltpsid" / "__init__.py").is_file():
        print(f"error: no ltpsid package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ltpsid

    if Path(ltpsid.__file__).resolve().parent != src / "ltpsid":
        print(f"error: imported ltpsid from {ltpsid.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    setups = itertools.count()
    choices = {
        "mc-example2": workloads.MonteCarloExample2,
        "identify-mimo": workloads.IdentifyMimo,
        "cli-roundtrip": lambda: workloads.CliRoundtrip(
            OUT_DIR / f"cli-{os.getpid()}-{next(setups)}"),
    }
    if args.workload not in choices:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(choices)}",
              file=sys.stderr)
        return 2
    runner = Runner(choices[args.workload], args.seed, args.seconds, started)
    metrics, info = {}, {}
    try:
        metrics, info = run_traced(runner, args.workload) if args.trace else run_plain(runner)
    except Exception:
        # A failed set-up check or a broken summary voids the whole run.
        traceback.print_exc(file=sys.stderr)
        runner.attempted += 1
        runner.failed += 1
    finally:
        if runner.wl is not None:
            close(runner.wl)
    correct = runner.failed == 0

    facts = machine_facts()
    facts.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    for name, (value, unit) in info.items():
        print(f"{name:42s} {value:14.6g} {unit} (run line)")
    print(json.dumps({"machine": facts, "run": as_json(info)}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": as_json(metrics),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
