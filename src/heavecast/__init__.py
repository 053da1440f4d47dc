"""Probabilistic forecasting of semisubmersible heave response.

Combines a frequency-domain physics model (directional wave spectra and the
vessel heave RAO) with a Bayesian linear adjustment fitted to measured
motions. The hybrid error structure carries AR(2) lagged residuals and a
noise scale proportional to the physics forecast, and forecasts are scored
with proper scoring rules (RMSE, CRPS).

The public names below are imported from their submodules on first use
(PEP 562), so `import heavecast` and the CLI's start-up load none of them.
"""

import importlib

# public name -> the submodule that defines it
_ORIGINS = {
    name: module
    for module, names in {
        "datasets": (
            "ForecastIssue", "HorizonSeries", "IssueSet", "align", "synthesize_horizon_series",
        ),
        "horizon": ("HorizonDataset", "chrono_split"),
        "model": (
            "ModelSpec", "PosteriorSamples", "PredictiveDistribution", "PriorSet", "log_posterior",
            "map_sigma", "posterior_predictive", "residuals",
        ),
        "motion": ("HeaveRecord", "RawMotionSeries", "highpass_filter"),
        "config": ("SamplerConfig",),
        "sampler": ("SamplerError", "fit"),
        "scoring": ("ScoreReport", "crps_gaussian", "crps_samples", "rmse", "score_table"),
        "spectral": (
            "DirectionalWaveSpectrum", "MorisonRaoParams", "RaoCurve", "ResponseStatistics",
            "SpectrumSeries", "interpolate_spectrum_to_rao_grid", "morison_rao", "response_moments",
            "response_statistics", "spectral_moment",
        ),
    }.items()
    for name in names
}

__all__ = list(_ORIGINS)
__version__ = "0.1.0"


def __getattr__(name: str):
    # a name that is not public, a submodule included, raises AttributeError,
    # which lets `from heavecast import io` fall back to importing the submodule
    module = _ORIGINS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
