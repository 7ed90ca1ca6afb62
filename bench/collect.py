"""Repeat benchmark runs over seeds and summarize each metric's spread.

Usage, from the root of a source checkout:

    python3 bench/collect.py --workloads mc-example2,identify-mimo,cli-roundtrip \
        --seeds 1-10 --seconds 20 [--trace] [--out results.json]

Each (workload, seed) is one ``bench/run.py`` process, run one after the
other. For every metric, and every ungated number on the run line, the summary
gives the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread, the distance between the quartiles as a share of the
median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(cmd)}: {result['failed']} failed ops")
    return result, json.loads(lines[-2])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", action="store_true", help="collect per-layer metrics")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)

    summary: dict = {"seeds": parse_seeds(args.seeds), "seconds": args.seconds,
                     "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, units, in_result = [], {}, set()
        for seed in summary["seeds"]:
            result, context = run_once(workload, seed, args.seconds, args.trace)
            values = {**context["run"], **result["metrics"]}
            runs.append(values)
            units = {k: m["unit"] for k, m in values.items()}
            in_result = set(result["metrics"])
            summary["machine"] = {k: v for k, v in context["machine"].items()
                                  if k not in ("workload", "seed", "trace")}
        metrics = {name: dict(summarize([r[name]["value"] for r in runs]), unit=unit,
                              in_result=name in in_result)
                   for name, unit in units.items()}
        summary["workloads"][workload] = metrics
        for name, s in metrics.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:14s} {name:44s} median {s['median']:12.6g} {s['unit']:9s}"
                  f" q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {spread}"
                  f"{'' if s['in_result'] else ' (run line)'}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
