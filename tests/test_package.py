import ast
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ltpsid
import oracles

MODULES = [importlib.import_module(f"ltpsid.{m.name}")
           for m in pkgutil.iter_modules(ltpsid.__path__)]
# The package and every submodule that declares __all__.
EXPORTING = [mod for mod in [ltpsid, *MODULES] if hasattr(mod, "__all__")]


def _traced_functions():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED_FUNCTIONS


# Traced functions the package has deleted on purpose. The benchmark keeps
# tracing them, so its per-layer metrics stay comparable with older commits.
RETIRED = (
    "model.aliased_impulse_response_true", "model.impulse_response", "subspace.idft_blocks",
    "signal.assemble_spectra",
)


@pytest.mark.parametrize("target", _traced_functions())
def test_traced_function_exists(target):
    # The benchmark tracer skips a function the package no longer defines, so
    # a rename or deletion would silently report 0 calls for its layer: only
    # a retired name may be missing, and it must be.
    module, name = target.split(".")
    found = getattr(importlib.import_module(f"ltpsid.{module}"), name, None)
    assert found is None if target in RETIRED else callable(found)


@pytest.mark.parametrize("module", EXPORTING, ids=lambda mod: mod.__name__)
def test_all_names_exist(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", EXPORTING, ids=lambda mod: mod.__name__)
def test_no_module_is_exported(module):
    # `from ltpsid import *` must not bind submodule names such as `signal`,
    # which would shadow the standard-library module in the caller.
    assert [name for name in module.__all__
            if isinstance(getattr(module, name), types.ModuleType)] == []


def test_dataclasses_holding_arrays_compare_by_identity():
    # A generated __eq__ compares arrays element-wise and raises on any of more
    # than one entry, so a dataclass with an ndarray field must not generate it.
    holding = {cls.__name__: cls for mod in MODULES for cls in vars(mod).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)
               and cls.__module__ == mod.__name__
               and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))}
    assert {"FitReport", "IdentificationResult", "LtpModel", "_State"} <= holding.keys()
    assert sorted(name for name, cls in holding.items() if cls.__dataclass_params__.eq) == []


def test_oracles_are_not_exported():
    # The reference implementations the tests compare against live only in tests/oracles.py.
    defined = {name for name, obj in vars(oracles).items()
               if getattr(obj, "__module__", None) == oracles.__name__}
    exported = {name for module in EXPORTING for name in module.__all__}
    assert "simulate" in defined and defined & exported == set()


def test_source_line_budget():
    # The package must stay below the line count ROADMAP sets for the round.
    lines = sum(
        len(path.read_text().splitlines()) for path in Path(ltpsid.__file__).parent.rglob("*.py")
    )
    assert lines < 2169, lines


def test_no_unused_imports():
    # Every name an import binds in the package or the tests is read somewhere
    # in its file; ltpsid/__init__.py imports only to re-export.
    root = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted([*(root / "src" / "ltpsid").rglob("*.py"), *(root / "tests").rglob("*.py")]):
        if path == Path(ltpsid.__file__).resolve():
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                unused += [f"{path.relative_to(root)}:{node.lineno} {alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in read]
    assert unused == []


def test_importing_the_package_loads_no_process_pool():
    # Only a study run with jobs > 1 pays for concurrent.futures and what it
    # pulls in; importing the package or its command line loads none of it.
    src = Path(ltpsid.__file__).resolve().parents[1]
    code = ("import sys, ltpsid, ltpsid.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing', 'subprocess')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"
