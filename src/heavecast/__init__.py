"""Probabilistic forecasting of semisubmersible heave response.

Combines a frequency-domain physics model (directional wave spectra and the
vessel heave RAO) with a Bayesian linear adjustment fitted to measured
motions. The hybrid error structure carries AR(2) lagged residuals and a
noise scale proportional to the physics forecast, and forecasts are scored
with proper scoring rules (RMSE, CRPS).

Each public name is imported from the submodule that defines it
(`heavecast.model`, `heavecast.sampler`, ...); `import heavecast` loads
none of them, so the CLI's start-up pays only for the modules a stage uses.
"""

__version__ = "0.1.0"
