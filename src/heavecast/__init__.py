"""Probabilistic forecasting of semisubmersible heave response.

Combines a frequency-domain physics model (directional wave spectra and the
vessel heave RAO) with a Bayesian linear adjustment fitted to measured
motions. The hybrid error structure carries AR(2) lagged residuals and a
noise scale proportional to the physics forecast, and forecasts are scored
with proper scoring rules (RMSE, CRPS).

Each public name but the tables below is imported from the submodule that
defines it (`heavecast.model`, ...); `import heavecast` loads none of them,
so the CLI's start-up pays only for the modules a stage uses.
"""

__version__ = "0.1.0"

# each model kind and its parameters in a draw's column order; one with phi1
# and phi2 has the AR(2) error block and noise scaled by x (ModelSpec.ar2)
MODEL_KINDS = {
    "basic": ("beta0", "beta1", "sigma"),
    "hybrid": ("beta0", "beta1", "phi1", "phi2", "sigma"),
}


def check_model_kind(kind: str) -> None:
    """Raise ValueError unless kind is a key of MODEL_KINDS."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"model_kind must be one of {', '.join(map(repr, MODEL_KINDS))}, found {kind!r}")


# Each out_dir file's name template of the horizon h and the model kind, as
# cli.STAGE_FILES lists them and io.FORMATS keys their columns; an issue
# file's index i is filled in last, by datasets.write_forecast_issues.
DATASET = "dataset_h{h:03d}.csv"
SAMPLES = "samples_{model}_h{h:03d}.csv"
PREDICTIONS = "predictions_{model}_h{h:03d}.csv"
ISSUES = "issues/issue_{{i:04d}}.csv"  # the index's braces doubled
MEASUREMENTS, RAO, SPECTRA = "measurements.csv", "rao.csv", "spectra.csv"
SCORES, RESPONSE = "scores.csv", "response.csv"
PACF, HETERO = "pacf_{model}_h{h:03d}.csv", "hetero_{model}_h{h:03d}.csv"
