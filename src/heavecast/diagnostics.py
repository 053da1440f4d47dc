"""Residual diagnostics behind the hybrid error structure.

The basic adjustment model leaves residuals that are autocorrelated (swell
timing errors persist across hours) and heteroskedastic (error magnitude
grows with forecast heave). The partial autocorrelation function identifies
the AR order of that structure, and the binned absolute-residual summary
exposes the variance scaling; both are emitted as plot-ready tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .horizon import HorizonDataset
from .model import ModelSpec, conditional_moments

__all__ = [
    "PacfResult",
    "pacf",
    "heteroskedasticity_summary",
    "standardized_residuals",
]


@dataclass(frozen=True, eq=False)
class PacfResult:
    """Partial autocorrelations at lags 1..L with a white-noise band."""

    lags: np.ndarray
    coefficients: np.ndarray
    confidence_band: float

    def __post_init__(self):
        if np.any(np.abs(self.coefficients) > 1.0 + 1e-9):
            raise ValueError("partial autocorrelations must lie in [-1, 1]")

    def significant(self) -> np.ndarray:
        return np.abs(self.coefficients) > self.confidence_band


def sample_autocovariance(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased (divisor N) autocovariances at lags 0..max_lag."""
    x = np.asarray(series, dtype=float) - np.mean(series)
    n = x.size
    return np.array([np.dot(x[: n - k], x[k:]) / n for k in range(max_lag + 1)])


def pacf(series: np.ndarray, max_lag: int) -> PacfResult:
    """Partial autocorrelation function via the Durbin-Levinson recursion.

    The lag-k coefficient is the k-th reflection coefficient of the
    recursion on the biased sample autocovariances, which keeps every
    coefficient inside [-1, 1]. The 95% white-noise band is 1.96/sqrt(N).
    """
    if max_lag < 1:
        raise ValueError(f"max_lag must be at least 1, found {max_lag}")
    series = np.asarray(series, dtype=float)
    n = series.size
    if n <= max_lag + 1:
        raise ValueError("series must be longer than max_lag + 1")
    if not np.all(np.isfinite(series)):
        raise ValueError("series must have no missing values")
    gamma = sample_autocovariance(series, max_lag)
    if gamma[0] == 0.0:
        raise ValueError("constant series has undefined partial autocorrelations")
    rho = gamma / gamma[0]

    coeffs = np.zeros(max_lag)
    phi_prev = np.zeros(max_lag + 1)
    v = 1.0
    for k in range(1, max_lag + 1):
        acc = rho[k] - np.dot(phi_prev[1:k], rho[1:k][::-1])
        refl = acc / v
        phi = phi_prev.copy()
        phi[k] = refl
        phi[1:k] = phi_prev[1:k] - refl * phi_prev[1:k][::-1]
        v *= 1.0 - refl**2
        coeffs[k - 1] = refl
        phi_prev = phi
        if v <= 0.0:
            v = np.finfo(float).tiny  # numerically singular; remaining lags ~0
    return PacfResult(
        lags=np.arange(1, max_lag + 1),
        coefficients=coeffs,
        confidence_band=1.96 / np.sqrt(n),
    )


def heteroskedasticity_summary(
    residuals: np.ndarray,
    x_values: np.ndarray,
    n_bins: int,
    sigma_map: float | None = None,
) -> list[dict]:
    """Mean absolute residual in equal-count bins of the physics forecast.

    Returns one dict per bin with the bin center of x, the mean |residual|,
    the row count and (when given) the flat MAP sigma overlay value, which
    is what a homoskedastic error model would draw through the panel.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be at least 1, found {n_bins}")
    res = np.asarray(residuals, dtype=float)
    x = np.asarray(x_values, dtype=float)
    if res.shape != x.shape:
        raise ValueError("residuals and x_values must have equal length")
    if res.size < n_bins:
        raise ValueError("fewer rows than bins")
    order = np.argsort(x, kind="stable")
    # constant x collapses to a single effective bin
    if np.ptp(x) == 0.0:
        n_bins = 1
    splits = np.array_split(order, n_bins)
    table = []
    for idx in splits:
        entry = {
            "x_bin_center": float(np.mean(x[idx])),
            "mean_abs_residual": float(np.mean(np.abs(res[idx]))),
            "count": int(idx.size),
        }
        if sigma_map is not None:
            entry["sigma_map"] = float(sigma_map)
        table.append(entry)
    return table


def standardized_residuals(params: np.ndarray, ds: HorizonDataset, spec: ModelSpec) -> np.ndarray:
    """Innovations (y - conditional mean) / conditional scale.

    Evaluated with teacher-forced lags, typically at the posterior-mean
    parameters; whiteness of this series is the check that the hybrid error
    structure has absorbed the residual correlation.
    """
    mean, scale = conditional_moments(params, ds.x, ds.y, ds.post_gap, spec)
    return (ds.y - mean) / scale
