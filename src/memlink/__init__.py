"""Two-node atomic-ensemble entanglement link simulator.

Models a heralded entanglement link between an emitting quantum memory
and a receiving one joined by a frequency-converted fiber channel:
source statistics, channel loss and background, storage decoherence,
threshold detection, figure-of-merit estimation, curve fitting and a
seeded campaign runner with a CLI.
"""

from .calibrate import CalibrationResult, model_predictions
from .channel import (ChannelParams, channel_efficiency,
                      direct_transmission, fiber_transmission, latency,
                      transmit)
from .config import (CampaignConfig, ConfigError, ExperimentBundle,
                     SCENARIOS, calibrated_bundle, config_hash, load_config,
                     save_config)
from .constants import CODATA, PhysicalConstants
from .detection import (BasisSetting, CountsTable, DetectionConfig,
                        DetectorParams, tally, trial_distributions)
from .estimators import (EstimateWithError, EstimatorError, chsh,
                         correlator, fidelity, g2_wr, snr)
from .fitting import FitResult, FittingError, fit_decay, fit_oscillation
from .memory_a import (CoherenceParams, FreezingGeometry, decohere,
                       mode_lifetimes, motional_lifetime, retrieval_weights,
                       spinwave_wavevectors)
from .memory_b import EITParams, map_in, map_out
from .scenarios import CampaignResult, bell_delay_s, run_experiment
from .source import AtomPhotonState, SourceParams, atom_photon_state
from .timeline import TrialTimeline

__version__ = "0.1.0"

__all__ = [
    "AtomPhotonState", "BasisSetting", "CODATA",
    "CalibrationResult", "CampaignConfig", "CampaignResult",
    "ChannelParams", "CoherenceParams", "ConfigError", "CountsTable",
    "DetectionConfig", "DetectorParams", "EITParams", "EstimateWithError",
    "EstimatorError", "ExperimentBundle", "FitResult", "FittingError",
    "FreezingGeometry", "PhysicalConstants", "SCENARIOS", "SourceParams",
    "TrialTimeline",
    "atom_photon_state", "bell_delay_s", "calibrated_bundle",
    "channel_efficiency", "chsh", "config_hash", "correlator", "decohere",
    "direct_transmission", "fiber_transmission", "fidelity", "fit_decay",
    "fit_oscillation", "g2_wr", "latency", "load_config",
    "map_in", "map_out", "mode_lifetimes", "model_predictions",
    "motional_lifetime", "retrieval_weights",
    "run_experiment", "save_config", "snr",
    "spinwave_wavevectors", "tally", "transmit", "trial_distributions",
]
