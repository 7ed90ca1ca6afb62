"""Frequency-domain subspace identification of linear time-periodic systems.

Pipeline: collect an ensemble of periodic-input experiments, lift the
signals over one period, estimate the lifted frequency response by a
multi-experiment transfer-function estimate, invert it to the time-aliased
periodic impulse response, and realize the state-space matrices from the
order-revealing periodic block-Hankel decomposition.
"""

from types import ModuleType as _ModuleType

from .errors import LtpsidError
from .etfe import etfe, residual_energy
from .evaluation import (
    FitReport,
    MonteCarloConfig,
    consistency_sweep,
    fit_metric,
    monte_carlo,
)
from .model import (
    LiftedFrequencyResponse,
    LiftedLtiModel,
    LtpModel,
    is_stable,
    lift_model,
    normalize_gain,
)
from .signal import Ensemble, collect_ensemble, simulate_steady_state
from .subspace import (
    IdentificationResult,
    assemble_aliased,
    build_hankels,
    estimate_AC,
    estimate_B,
    identify,
    svd_order,
)

__version__ = "0.1.0"
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
