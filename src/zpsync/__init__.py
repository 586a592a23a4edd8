"""Timing-offset estimation for zero-padded OFDM under impulsive noise.

Library layout:

- :mod:`zpsync.waveform`   transmitted ZP-OFDM blocks and frames
- :mod:`zpsync.channel`    Rayleigh multipath, mixture noise, window assembly
- :mod:`zpsync.likelihood` variance profile and per-sample likelihoods
- :mod:`zpsync.estimators` approximate-ML, weighted-energy and energy detectors
- :mod:`zpsync.harness`    the engine: Monte-Carlo sweeps, moment validation and
  runtime scaling, returned as reports
- :mod:`zpsync.cli`        experiment runner; writes every file of a run directory
"""

__version__ = "0.1.0"

from .channel import (
    DelayProfile,
    NoiseMixture,
    ReceivedWindow,
    assemble_window,
    draw_channel,
    draw_noise,
    scale_mixture_to_snr,
)
from .estimators import (
    EstimateResult,
    HypothesisSet,
    aml_estimate,
    ed_estimate,
    wed_estimate,
)
from .likelihood import (
    VarianceProfile,
    b_function,
    log_b_function,
    log_p_function,
    p_function,
    profile_window,
    variance_profile_h0,
    window_loglik,
)
from .waveform import (
    ConfigError,
    SystemConfig,
    generate_block,
    generate_frame,
    qam_constellation,
)

__all__ = [
    "ConfigError",
    "DelayProfile",
    "EstimateResult",
    "HypothesisSet",
    "NoiseMixture",
    "ReceivedWindow",
    "SystemConfig",
    "VarianceProfile",
    "aml_estimate",
    "assemble_window",
    "b_function",
    "draw_channel",
    "draw_noise",
    "ed_estimate",
    "generate_block",
    "generate_frame",
    "log_b_function",
    "log_p_function",
    "p_function",
    "profile_window",
    "qam_constellation",
    "scale_mixture_to_snr",
    "variance_profile_h0",
    "wed_estimate",
    "window_loglik",
    "__version__",
]
