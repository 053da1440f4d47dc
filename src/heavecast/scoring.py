"""Proper scoring rules for deterministic and probabilistic forecasts.

RMSE measures accuracy only; the continuous ranked probability score (CRPS)
also rewards correctly sized uncertainty, which is what distinguishes the
probabilistic adjustment from the raw physics point forecast. A deterministic
forecast is scored as a point mass, for which the CRPS reduces to absolute
error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScoreReport",
    "rmse",
    "crps_gaussian",
    "crps_samples",
    "score_table",
]


@dataclass(frozen=True)
class ScoreReport:
    """Aggregate scores of one model at one horizon."""

    model_label: str
    horizon: int
    rmse: float
    crps_mean: float
    n: int

    def __post_init__(self):
        if self.rmse < 0.0 or self.crps_mean < 0.0 or self.n < 1:
            raise ValueError("scores must be nonnegative over at least one row")


def rmse(forecast_means: np.ndarray, obs: np.ndarray) -> float:
    """Root mean square error of the forecast means.

    Probabilistic forecasts enter via their predictive mean.
    """
    f = np.asarray(forecast_means, dtype=float)
    y = np.asarray(obs, dtype=float)
    if f.shape != y.shape or f.size == 0:
        raise ValueError("forecasts and observations must match and be non-empty")
    return float(np.sqrt(np.mean((f - y) ** 2)))


def crps_gaussian(mu: float, sigma: float, y: float) -> float:
    """Closed-form CRPS of a Gaussian predictive distribution.

    sigma * [z * (2*Phi(z) - 1) + 2*phi(z) - 1/sqrt(pi)] with
    z = (y - mu)/sigma, where 2*Phi(z) - 1 = erf(z/sqrt(2)); a point mass
    (sigma = 0) scores absolute error.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return abs(y - mu)
    z = float((y - mu) / sigma)
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return float(sigma * (z * math.erf(z / math.sqrt(2.0)) + 2.0 * pdf - 1.0 / math.sqrt(math.pi)))


def crps_samples(draws: np.ndarray, y: float) -> float:
    """Energy-form CRPS estimator from predictive draws.

    mean|y* - y| - (1/2) mean_{i,j}|y*_i - y*_j|; the pairwise double sum is
    evaluated through the order statistics in O(m log m).
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 1 or draws.size < 2:
        raise ValueError("need at least two draws")
    m = draws.size
    term1 = float(np.mean(np.abs(draws - y)))
    s = np.sort(draws)
    # sum_{i<j}(s_j - s_i) via cumulative ranks; doubled for ordered pairs
    coeffs = 2.0 * np.arange(m) - (m - 1)
    pair_sum = 2.0 * float(np.dot(coeffs, s))
    return term1 - pair_sum / (2.0 * m * m)


def _crps_rows(draws: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """crps_samples of every row of draws against obs, with the same bits.

    mean|y* - y| is taken on the unsorted rows as crps_samples takes it; each
    block of 64 rows is then sorted once, and its pair sums are per-row dot
    products with the rank coefficients.
    """
    m = draws.shape[1]
    if m < 2:
        raise ValueError("need at least two draws")
    coeffs = 2.0 * np.arange(m) - (m - 1)
    out = np.empty(obs.size)
    for start in range(0, obs.size, 64):
        block = draws[start : start + 64]
        term1 = np.mean(np.abs(block - obs[start : start + 64, None]), axis=1)
        pair_sums = [2.0 * float(np.dot(coeffs, row)) for row in np.sort(block, axis=1)]
        out[start : start + 64] = term1 - np.array(pair_sums) / (2.0 * m * m)
    return out


def score_table(
    models: dict[str, dict[int, np.ndarray]],
    obs: dict[int, np.ndarray],
    horizons: list[int],
) -> list[ScoreReport]:
    """Evaluate RMSE and mean CRPS per model per horizon.

    models maps label -> {horizon: forecasts}, where forecasts is either a
    1-d array of point values or a 2-d (n_rows, n_draws) array of predictive
    draws. Horizons a model has no data for are skipped with a warning.
    """
    reports = []
    for label, per_h in models.items():
        for h in horizons:
            if h not in per_h or h not in obs:
                warnings.warn(f"no data for model {label!r} at horizon {h}", stacklevel=2)
                continue
            f = np.asarray(per_h[h], dtype=float)
            y = np.asarray(obs[h], dtype=float)
            if f.ndim == 1:
                means = f
                crps = np.abs(f - y)
            else:
                if f.shape[0] != y.size:
                    raise ValueError("draw matrix row count must match observations")
                means = np.mean(f, axis=1)
                crps = _crps_rows(f, y)
            reports.append(
                ScoreReport(
                    model_label=label,
                    horizon=h,
                    rmse=rmse(means, y),
                    crps_mean=float(np.mean(crps)),
                    n=y.size,
                )
            )
    return reports


def format_score_table(reports: list[ScoreReport]) -> str:
    """Aligned plain-text table, 3 decimal places."""
    horizons = sorted({r.horizon for r in reports})
    labels = list(dict.fromkeys(r.model_label for r in reports))
    by_key = {(r.model_label, r.horizon): r for r in reports}
    width = max([len(lb) for lb in labels] + [10])
    header = "metric  " + "model".ljust(width) + "".join(f"{h:>9d}h" for h in horizons)
    lines = [header]
    for metric in ("rmse", "crps_mean"):
        for lb in labels:
            cells = []
            for h in horizons:
                r = by_key.get((lb, h))
                cells.append(f"{getattr(r, metric):10.3f}" if r else " " * 10)
            name = "RMSE" if metric == "rmse" else "CRPS"
            lines.append(f"{name:<8}" + lb.ljust(width) + "".join(cells))
    return "\n".join(lines)
