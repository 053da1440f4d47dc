"""Probabilistic forecasting of semisubmersible heave response.

Combines a frequency-domain physics model (directional wave spectra and the
vessel heave RAO) with a Bayesian linear adjustment fitted to measured
motions. The hybrid error structure carries AR(2) lagged residuals and a
noise scale proportional to the physics forecast, and forecasts are scored
with proper scoring rules (RMSE, CRPS).
"""

from .datasets import ForecastIssue, HorizonDataset, HorizonSeries, align, chrono_split, synthesize_horizon_series
from .model import (
    ModelSpec,
    PosteriorSamples,
    PredictiveDistribution,
    PriorSet,
    log_posterior,
    map_sigma,
    posterior_predictive,
    residuals,
)
from .motion import HeaveRecord, RawMotionSeries, apply_qa_mask, highpass_filter, rolling_m0
from .sampler import SamplerConfig, SamplerError, fit
from .scoring import ScoreReport, crps_gaussian, crps_samples, rmse, score_table
from .spectral import (
    DirectionalWaveSpectrum,
    MorisonRaoParams,
    RaoCurve,
    ResponseStatistics,
    SpectrumSeries,
    interpolate_spectrum_to_rao_grid,
    morison_rao,
    response_moments,
    response_statistics,
    significant_response,
    spectral_moment,
)

__version__ = "0.1.0"
