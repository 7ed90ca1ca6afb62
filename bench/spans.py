"""Per-layer spans recorded from outside the ltpsid package.

A ``Tracer`` wraps public ltpsid functions on the module attributes their
callers look up (``ltpsid.subspace.etfe``, ``ltpsid.evaluation.collect_ensemble``
and so on), so a call made anywhere inside the package opens a span. Span
records are kept in memory as ``[name, start_ns, end_ns, parent, op]`` and
written out when the run ends. A layer's self time is its span minus the
spans of its direct children.

A listed function that the package no longer defines is skipped: it reports
0 calls instead of failing the run.
"""

from __future__ import annotations

import csv
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

# Public functions wrapped in a traced op, as "<module>.<function>" under ltpsid.
TRACED_FUNCTIONS = (
    "signal.collect_ensemble",
    "signal.assemble_spectra",
    "etfe.etfe",
    "subspace.identify",
    "subspace.idft_blocks",
    "subspace.assemble_aliased",
    "subspace.build_hankels",
    "subspace.svd_order",
    "subspace.estimate_AC",
    "subspace.estimate_B",
    "model.aliased_impulse_response_true",
    "model.impulse_response",
    "evaluation.monte_carlo",
    "evaluation.fit_metric",
    "fileio.save_ensemble",
    "fileio.load_ensemble",
    "fileio.export_frequency_response",
    "fileio.save_identification_result",
)

# Spans the benchmark opens itself, one per ltpsid.cli.main command.
CLI_SPANS = ("cli.simulate", "cli.identify", "cli.evaluate")

SPAN_NAMES = TRACED_FUNCTIONS + CLI_SPANS

COUNTERS = (
    "fileio.bytes_written",
    "fileio.bytes_read",
    "etfe.frequencies",
    "evaluation.trials_failed",
)


class Tracer:
    """Span recorder for the traced ops of one benchmark run."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._fileio_depth = 0
        self._opened: list[tuple[str, bool]] = []
        self._hooked = False

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.records.append([name, time.perf_counter_ns(), 0, parent, self._op])
        idx = len(self.records) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.records[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one traced op; installs the wrappers for its duration."""
        self._op = op_id
        self._install()
        try:
            with self.span("op"):
                yield
        finally:
            self._uninstall()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        is_fileio = name.startswith("fileio.")

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if is_fileio:
                tracer._fileio_depth += 1
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if is_fileio:
                    tracer._fileio_depth -= 1
                    if tracer._fileio_depth == 0:
                        tracer._count_file_bytes()
            tracer._count_result(name, result)
            return result

        return wrapper

    def _count_result(self, name: str, result) -> None:
        if name == "etfe.etfe":
            self.counts["etfe.frequencies"] += int(getattr(result, "N", 0))
        elif name == "evaluation.monte_carlo":
            self.counts["evaluation.trials_failed"] += len(getattr(result, "failures", ()))

    def _audit(self, event: str, args) -> None:
        if event == "open" and self._fileio_depth:
            path, mode, _ = args
            if isinstance(path, (str, bytes, os.PathLike)):
                written = isinstance(mode, str) and any(c in mode for c in "wax+")
                self._opened.append((os.fsdecode(path), written))

    def _count_file_bytes(self) -> None:
        """Sizes of the files fileio opened, taken once the outermost call returned."""
        for path, written in self._opened:
            try:
                size = os.stat(path).st_size
            except OSError:
                continue
            self.counts["fileio.bytes_written" if written else "fileio.bytes_read"] += size
        self._opened.clear()

    def _install(self) -> None:
        if not self._hooked:
            # Audit hooks cannot be removed; the hook does nothing outside fileio spans.
            sys.addaudithook(self._audit)
            self._hooked = True
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "ltpsid" or n.startswith("ltpsid."))
        ]
        for target in TRACED_FUNCTIONS:
            mod_name, fn_name = target.split(".")
            owner = sys.modules.get(f"ltpsid.{mod_name}")
            orig = getattr(owner, fn_name, None) if owner is not None else None
            if not callable(orig):
                continue
            wrapper = self._wrappers.get(id(orig))
            if wrapper is None:
                wrapper = self._wrappers[id(orig)] = self._wrap(target, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, orig))

    def _uninstall(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def per_op(self, traced_ops: int) -> dict[str, tuple[float, str]]:
        """Calls, self time and counters per traced op, keyed by metric name."""
        child_ns = [0] * len(self.records)
        for name, start, end, parent, _ in self.records:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.records):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[idx]
        ops = max(traced_ops, 1)
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / ops, "calls/op")
            out[f"{name}.self_ms"] = (self_ns[name] / 1e6 / ops, "ms/op")
        for name in COUNTERS:
            unit = "B/op" if name.startswith("fileio.") else "count/op"
            out[name] = (self.counts[name] / ops, unit)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_ns", "end_ns", "parent", "op"])
            writer.writerows(self.records)
