"""Built-in benchmark models.

``example1`` is a period-2 model of wind-turbine flapping dynamics that is
driven and observed only at even time steps; ``example2`` is a period-3
model whose individual state matrices are unstable while the period map
is stable. The builders below are their only definition; ``resolve_model``
gives either one, optionally input-normalized to average steady-state
gain 1, or a model read from a JSON file.
"""

from __future__ import annotations

import numpy as np

from .fileio import load_model
from .model import LtpModel, normalize_gain

__all__ = [
    "FIXTURE_NAMES",
    "example1",
    "example2",
    "resolve_model",
]

def example1() -> LtpModel:
    """Period-2 flapping-dynamics benchmark (n_x=2, SISO), raw gains."""
    return LtpModel(
        A=(
            np.array([[0.0, 0.0734], [-6.5229, -0.4997]]),
            np.array([[-0.0021, 0.0], [-0.0138, 0.5196]]),
        ),
        B=(np.array([[-0.07221], [-9.6277]]), np.array([[0.0], [0.0]])),
        C=(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])),
    )


def example2() -> LtpModel:
    """Period-3 benchmark with unstable per-step matrices (n_x=2, SISO), raw gains."""
    return LtpModel(
        A=(
            np.array([[1.0, 1.0], [0.0, 2.0]]),
            np.array([[0.2, 1.0], [0.0, 0.4]]),
            np.array([[3.0, 1.0], [0.0, 1.0]]),
        ),
        B=(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]), np.array([[1.0], [2.0]])),
        C=(np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]]), np.array([[1.0, 1.0]])),
    )


_BUILDERS = {"example1": example1, "example2": example2}
FIXTURE_NAMES = tuple(_BUILDERS)


def resolve_model(source: str, normalize: bool = False) -> LtpModel:
    """Resolve a model reference: fixture name or path to a model JSON file."""
    builder = _BUILDERS.get(source)
    model = builder() if builder is not None else load_model(source)
    return normalize_gain(model) if normalize else model
