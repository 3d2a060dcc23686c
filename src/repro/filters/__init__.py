"""Generic particle-filter substrate (SIS/SIR, resampling, diagnostics, baselines)."""

from .diagnostics import (
    FilterHealth,
    effective_sample_size,
    health_of,
    max_weight_ratio,
    unique_ancestors,
    weight_entropy,
)
from .gmm import GaussianMixture, fit_gmm
from .kalman import ExtendedKalmanFilter, KalmanFilter, bearing_jacobian, range_jacobian
from .particles import ParticleSet, normalize_log_weights
from .resampling import (
    RESAMPLERS,
    get_resampler,
    multinomial_resample,
    residual_resample,
    stratified_resample,
    systematic_resample,
)
from .sir import Observation, SIRFilter, SISFilter, joint_log_likelihood

__all__ = [
    "FilterHealth", "effective_sample_size", "health_of", "max_weight_ratio",
    "unique_ancestors", "weight_entropy",
    "GaussianMixture", "fit_gmm",
    "ExtendedKalmanFilter", "KalmanFilter", "bearing_jacobian", "range_jacobian",
    "ParticleSet", "normalize_log_weights",
    "RESAMPLERS", "get_resampler", "multinomial_resample", "residual_resample",
    "stratified_resample", "systematic_resample",
    "Observation", "SIRFilter", "SISFilter", "joint_log_likelihood",
]
