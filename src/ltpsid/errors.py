"""Exception types raised across the identification pipeline, and the value rules.

Every failure mode surfaced by the library is a subclass of ``LtpsidError`` so callers (and the
CLI) can map them onto exit codes: configuration and validation problems, data-format problems,
and numerical failures. Every count passes ``_integer``, every bounded number ``_real`` and every
array ``_real_array`` (real and finite), library argument, file value, flag or config value alike;
no other module has a value rule (``fileio`` scans experiment samples only to name a bad line).
``_array_fits`` bounds the bytes of the float64 array its counts shape. All raise ``ConfigError``;
a file loader turns it into a ``DataError`` naming the file.
"""

from __future__ import annotations

import math
import sys
from numbers import Integral, Real

import numpy as np


class LtpsidError(Exception):
    """Base class for all library errors."""


class ConfigError(LtpsidError):
    """Invalid configuration or precondition violation (CLI exit code 2)."""


class DataError(LtpsidError):
    """Malformed input files or records (CLI exit code 3)."""


class NumericalPipelineError(LtpsidError):
    """Numerical failure inside the pipeline (CLI exit code 4)."""


class DimensionMismatch(ConfigError):
    """Matrix shapes inconsistent with the declared dimensions."""


class NumericalError(NumericalPipelineError):
    """An eigensolver or factorization failed to converge."""


class SingularMatrix(NumericalPipelineError):
    """A matrix that must be invertible is singular to working precision."""


class DegenerateGain(NumericalPipelineError):
    """Average steady-state gain too close to zero to normalize against."""


class LengthNotDivisible(ConfigError):
    """Signal length is not a multiple of the period."""


class RankDeficient(NumericalPipelineError):
    """Lifted input spectrum loses row rank at some frequency."""

    def __init__(self, frequency_index: int, smallest_singular_value: float):
        self.frequency_index = frequency_index
        self.smallest_singular_value = smallest_singular_value
        super().__init__(
            f"input spectrum rank-deficient at frequency index {frequency_index} "
            f"(smallest singular value {smallest_singular_value:.3e}); "
            "excitation insufficient or degenerate"
        )


class BlockRangeExceeded(ConfigError):
    """Hankel block sizes need lags beyond the available record length."""


class OrderTooLarge(ConfigError):
    """Requested state order exceeds what the Hankel dimensions support."""


class ShiftRankDeficient(NumericalPipelineError):
    """Shifted observability basis lost rank; order overestimated or q too small."""

    def __init__(self, tag: int):
        self.tag = tag
        super().__init__(
            f"shifted observability basis rank-deficient at tag time {tag}; "
            "increase the Hankel row count or lower the order"
        )


class UnstableEstimate(NumericalPipelineError):
    """Estimated state matrices have monodromy spectral radius >= 1."""


class IllConditioned(NumericalPipelineError):
    """A least-squares regressor is too ill-conditioned to trust."""


class DegenerateReference(NumericalPipelineError):
    """Fit-metric denominator underflows; reference response is constant."""


class PipelineError(NumericalPipelineError):
    """Wraps a sub-operation error with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}': {cause}")


def _integer(name: str, value, minimum: int, maximum: float = sys.maxsize) -> int:
    """``value`` as an int from minimum to maximum (by default numpy's index range), not a bool."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    if value > maximum:
        raise ConfigError(f"{name} must be <= {maximum}, got {value}")
    return int(value)


def _array_fits(what: str, *counts: int) -> None:
    if 8 * math.prod(counts) > sys.maxsize:
        raise ConfigError(f"{what} = {counts} needs more than {sys.maxsize} bytes of float64")


def _real(name: str, value, low: float, high: float = math.inf) -> float:
    """``value`` as a float: a real number in [low, high), not a bool, so NaN and inf fail."""
    if isinstance(value, bool) or not isinstance(value, Real) or not low <= value < high:
        bound = f" and < {high}" if high < math.inf else ""
        raise ConfigError(f"{name} must be a finite number >= {low}{bound}, got {value!r}")
    return float(value)


def _real_array(name: str, value) -> np.ndarray:
    """``value`` as a float64 array, no copy if it is one: bool, complex, text or ragged fails,
    and so does a NaN or infinite entry."""
    try:
        arr = np.asarray(value)
    except (ValueError, TypeError):  # a ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        raise ConfigError(f"{name} must be an array of real numbers")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name} has a non-finite entry")
    return arr
