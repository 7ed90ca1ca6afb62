"""Frequency-domain subspace identification of linear time-periodic systems.

Pipeline: collect an ensemble of periodic-input experiments, lift the
signals over one period, estimate the lifted frequency response by a
multi-experiment transfer-function estimate, invert it to the time-aliased
periodic impulse response, and realize the state-space matrices from the
order-revealing periodic block-Hankel decomposition.
"""

from .errors import LtpsidError
from .etfe import etfe, residual_energy
from .evaluation import (
    FitReport,
    MonteCarloConfig,
    consistency_sweep,
    etfe_error_stats,
    fit_metric,
    impulse_errors,
    monte_carlo,
)
from .model import (
    LiftedFrequencyResponse,
    LiftedLtiModel,
    LtpModel,
    aliased_impulse_response_true,
    impulse_response,
    is_stable,
    lift_model,
    monodromy,
    normalize_gain,
    true_lifted_frequency_response,
    validate,
)
from .signal import (
    Ensemble,
    Experiment,
    LiftedSpectra,
    add_noise,
    assemble_spectra,
    collect_ensemble,
    generate_periodic_input,
    simulate,
    simulate_steady_state,
)
from .subspace import (
    IdentificationResult,
    PeriodicHankelSet,
    assemble_aliased,
    build_hankels,
    estimate_AC,
    estimate_B,
    identify,
    idft_blocks,
    svd_order,
)

__version__ = "0.1.0"
__all__ = [name for name in dir() if not name.startswith("_")]
