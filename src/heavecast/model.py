"""Bayesian linear adjustment of the physics forecast.

Two model variants share the mean structure y = beta0 + beta1 * x + error:

* basic  -- independent Gaussian errors with a common variance.
* hybrid -- the error carries lagged-residual (AR(2)) terms and the noise
  standard deviation scales with the physics forecast x, so large forecast
  heave implies proportionally larger uncertainty.

Residual lags follow measurement time: eps_{t-1} = y_{t-1} - beta0 -
beta1 * x_{t-1}. Rows whose hourly predecessor is missing (post-gap rows)
have the corresponding lag set to zero, its unconditional mean. Every row is
scored, the first two of a training set included: their missing lags are
zero in the same way.

log_posterior is the readable reference density. LogPosterior evaluates the
same density for one dataset at a per-call cost independent of its length,
which is what the sampler calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .datasets import HorizonDataset

__all__ = [
    "PriorSet",
    "ModelSpec",
    "PosteriorSamples",
    "PredictiveDistribution",
    "predictive_summaries",
    "residuals",
    "log_posterior",
    "LogPosterior",
    "ar2_stationary",
    "posterior_predictive",
    "map_sigma",
    "credible_interval",
    "conditional_moments",
]

DEFAULT_X_FLOOR = 0.01  # m; keeps the scaled-noise likelihood proper as x -> 0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PriorSet:
    """Prior hyperparameters.

    beta0 ~ N(mean, var); beta1 ~ N(mean, var) truncated to (0, inf);
    (phi1, phi2) ~ independent N(0, phi_sd^2) jointly truncated to the AR(2)
    stationarity triangle; sigma ~ half-Gaussian(sigma_scale).
    """

    beta0_mean: float = 0.0
    beta0_var: float = 3.0
    beta1_mean: float = 1.0
    beta1_var: float = 3.0
    phi_sd: float = 1.0
    sigma_scale: float = 1.0

    def __post_init__(self):
        for v in (self.beta0_var, self.beta1_var, self.phi_sd, self.sigma_scale):
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError("prior scales must be finite and positive")

    @cached_property
    def log_norms(self) -> tuple[float, float, float, float]:
        """Log normalising constants of the beta0, beta1, sigma and each phi density."""
        sd1 = math.sqrt(self.beta1_var)
        # beta1 is renormalised by its prior mass above zero; the half-Gaussian
        # sigma density is twice the Gaussian one on (0, inf)
        beta1_mass = 0.5 * math.erfc(-self.beta1_mean / (sd1 * math.sqrt(2.0)))
        return (
            -0.5 * math.log(self.beta0_var) - _HALF_LOG_2PI,
            -math.log(sd1) - _HALF_LOG_2PI - math.log(beta1_mass),
            math.log(2.0) - math.log(self.sigma_scale) - _HALF_LOG_2PI,
            -math.log(self.phi_sd) - _HALF_LOG_2PI,
        )


@dataclass(frozen=True)
class ModelSpec:
    """Which adjustment model to fit, with its priors, for one horizon."""

    kind: str  # "basic" | "hybrid"
    priors: PriorSet = field(default_factory=PriorSet)
    horizon: int = 0

    def __post_init__(self):
        if self.kind not in ("basic", "hybrid"):
            raise ValueError("kind must be 'basic' or 'hybrid'")

    @property
    def param_names(self) -> tuple[str, ...]:
        if self.kind == "basic":
            return ("beta0", "beta1", "sigma")
        return ("beta0", "beta1", "phi1", "phi2", "sigma")

    @property
    def n_params(self) -> int:
        return len(self.param_names)


@dataclass(frozen=True)
class PosteriorSamples:
    """Retained MCMC draws plus convergence diagnostics."""

    draws: np.ndarray  # (n_draws, n_params)
    param_names: tuple[str, ...]
    chain_ids: np.ndarray
    diagnostics: dict  # per-parameter {"rhat": ..., "ess": ...}
    acceptance_rate: float

    def column(self, name: str) -> np.ndarray:
        return self.draws[:, self.param_names.index(name)]

    def __len__(self) -> int:
        return self.draws.shape[0]


@dataclass(frozen=True)
class PredictiveDistribution:
    """Posterior-predictive draws of y* at one valid time."""

    valid_time: np.datetime64
    draws: np.ndarray
    levels: tuple[float, ...] = (0.05, 0.5, 0.95)

    @property
    def mean(self) -> float:
        return float(np.mean(self.draws))

    @property
    def summaries(self) -> dict[str, float]:
        out = {"mean": self.mean}
        qs = np.quantile(self.draws, self.levels)
        for lv, q in zip(self.levels, qs):
            out[f"p{round(lv * 100):02d}"] = float(q)
        return out


def predictive_summaries(dists: list[PredictiveDistribution]) -> np.ndarray:
    """PredictiveDistribution.summaries of many rows as one (rows, 1 + levels) array.

    Column 0 is the mean, then one column per quantile level. The mean and
    quantiles are taken along axis 1 of contiguous (rows, draws) blocks,
    which gives the same bits as each row's summaries. Blocks of 64 rows
    keep the copies small: one block of all rows raised the predict stage's
    peak RSS by about 10 MB on a 4380-hour campaign (850 rows x 1500 draws).
    """
    if not dists:
        raise ValueError("no predictive distributions to summarise")
    levels = dists[0].levels
    if any(d.levels != levels for d in dists):
        raise ValueError("predictive distributions must share their quantile levels")
    out = np.empty((len(dists), 1 + len(levels)))
    for start in range(0, len(dists), 64):
        block = np.stack([d.draws for d in dists[start : start + 64]])
        out[start : start + 64, 0] = block.mean(axis=1)
        out[start : start + 64, 1:] = np.quantile(block, levels, axis=1).T
    return out


def ar2_stationary(p1, p2):
    """AR(2) stationarity triangle: |p2| < 1, p1 + p2 < 1 and p2 - p1 < 1.

    Works elementwise on arrays as well as on scalars.
    """
    return (abs(p2) < 1.0) & (p1 + p2 < 1.0) & (p2 - p1 < 1.0)


def in_support(params: np.ndarray, spec: ModelSpec) -> bool:
    """Prior support: beta1 > 0, sigma > 0 and AR(2) stationarity."""
    beta1, sigma = params[1], params[-1]
    if not (beta1 > 0.0 and sigma > 0.0):
        return False
    return spec.kind != "hybrid" or bool(ar2_stationary(params[2], params[3]))


def _log_prior(params: np.ndarray, spec: ModelSpec) -> float:
    pr = spec.priors
    n_beta0, n_beta1, n_sigma, n_phi = pr.log_norms
    beta0, beta1, sigma = float(params[0]), float(params[1]), float(params[-1])
    lp = (
        n_beta0
        - 0.5 * (beta0 - pr.beta0_mean) ** 2 / pr.beta0_var
        + n_beta1
        - 0.5 * (beta1 - pr.beta1_mean) ** 2 / pr.beta1_var
        + n_sigma
        - 0.5 * (sigma / pr.sigma_scale) ** 2
    )
    if spec.kind == "hybrid":
        # joint truncation to the stationarity triangle contributes only a
        # constant, which is irrelevant to sampling and omitted here
        p1, p2 = float(params[2]), float(params[3])
        lp += 2.0 * n_phi - 0.5 * (p1 * p1 + p2 * p2) / pr.phi_sd**2
    return lp


def residuals(params: np.ndarray, ds: HorizonDataset) -> np.ndarray:
    """Plain adjustment residuals eps_t = y_t - beta0 - beta1 * x_t."""
    beta0, beta1 = float(params[0]), float(params[1])
    return ds.y - beta0 - beta1 * ds.x


def _lagged(a: np.ndarray, post_gap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lag-1 and lag-2 copies of a along its last axis, zeroed where missing.

    A lag is missing before the first rows and wherever a gap breaks the
    hourly chain: lag 1 at post-gap rows, lag 2 also on the row after one.
    """
    e1 = np.zeros_like(a)
    e2 = np.zeros_like(a)
    e1[..., 1:] = a[..., :-1]
    e2[..., 2:] = a[..., :-2]
    e1[..., post_gap] = 0.0
    # lag-2 needs both predecessors present
    bad2 = post_gap.copy()
    bad2[1:] |= post_gap[:-1]
    e2[..., bad2] = 0.0
    return e1, e2


def conditional_moments(
    params: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    post_gap: np.ndarray,
    spec: ModelSpec,
    x_floor: float = DEFAULT_X_FLOOR,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row conditional mean and noise scale, teacher-forcing the lags.

    For the basic model the mean is beta0 + beta1*x and the scale is sigma.
    For the hybrid model the mean adds phi1*eps_{t-1} + phi2*eps_{t-2} and
    the scale is max(x, x_floor) * sigma.
    """
    beta0, beta1, sigma = float(params[0]), float(params[1]), float(params[-1])
    mean = beta0 + beta1 * x
    if spec.kind == "basic":
        return mean, np.full_like(x, sigma)
    p1, p2 = float(params[2]), float(params[3])
    e1, e2 = _lagged(y - mean, post_gap)
    mean = mean + p1 * e1 + p2 * e2
    scale = np.maximum(x, x_floor) * sigma
    return mean, scale


def log_posterior(
    params: np.ndarray,
    ds: HorizonDataset,
    spec: ModelSpec,
    x_floor: float = DEFAULT_X_FLOOR,
) -> float:
    """Unnormalised log posterior density; -inf outside the prior support.

    Every row contributes a Gaussian term; rows whose lagged residuals are
    unavailable (the first rows and post-gap rows) have those lags zeroed,
    matching a residual recursion initialised at its unconditional mean.
    With phi1 = phi2 = 0 and x identically 1 the hybrid likelihood is
    therefore exactly the basic one.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.n_params,):
        raise ValueError(f"expected {spec.n_params} parameters for {spec.kind}")
    if not in_support(params, spec):
        return -np.inf
    mean, scale = conditional_moments(params, ds.x, ds.y, ds.post_gap, spec, x_floor)
    z = (ds.y - mean) / scale
    loglik = -0.5 * np.sum(z * z) - np.sum(np.log(scale)) - 0.5 * z.size * np.log(2.0 * np.pi)
    return float(loglik) + _log_prior(params, spec)


class LogPosterior:
    """log_posterior for one dataset, at a per-call cost independent of its length.

    The innovation of row t is u_t = c' A_t b with c = (1, -phi1, -phi2),
    b = (1, beta0, beta1) and A_t the 3x3 block whose rows are the lag-0,
    lag-1 and lag-2 values of (y, -1, -x), with missing lags zeroed as in
    conditional_moments. Hence sum_t (u_t / w_t)^2 = v' G v with v = c (x) b
    and G = sum_t vec(A_t) vec(A_t)' / w_t^2, w_t = max(x_t, x_floor), a 9x9
    matrix built once; sum_t log(w_t * sigma) = sum_t log w_t + N log sigma.
    The basic model keeps only the lag-0 row (a 3x3 G, w_t = 1).

    G is built in coordinates centred on the least-squares line
    y = y_mean + slope * (x - x_mean): y enters as its residual r from that
    line, x as x - x_mean, and b = (1, beta0 + beta1 * x_mean - y_mean,
    beta1 - slope). Near the posterior mode every entry of v is then as
    small as the innovations, so v' G v does not cancel large terms (rows
    with x below the floor weigh up to 1/x_floor^2 in G).
    """

    def __init__(self, ds: HorizonDataset, spec: ModelSpec, x_floor: float = DEFAULT_X_FLOOR):
        self.ds = ds
        self.spec = spec
        self._x_mean = float(np.mean(ds.x))
        self._y_mean = float(np.mean(ds.y))
        dx = ds.x - self._x_mean
        sxx = float(dx @ dx)
        self._slope = float(dx @ (ds.y - self._y_mean)) / sxx if sxx > 0.0 else 0.0
        resid = ds.y - self._y_mean - self._slope * dx
        block = np.stack([resid, -np.ones_like(dx), -dx])  # (3, N)
        n = len(ds)
        self._log_norm = -0.5 * n * math.log(2.0 * math.pi)
        if spec.kind == "hybrid":
            w = np.maximum(ds.x, x_floor)
            self._log_norm -= float(np.sum(np.log(w)))
            block = np.concatenate([block, *_lagged(block, ds.post_gap)]) / w  # (9, N)
        self._gram = block @ block.T
        self._n = n

    def __call__(self, params: np.ndarray) -> float:
        """Unnormalised log posterior density; -inf outside the prior support."""
        spec = self.spec
        params = np.asarray(params, dtype=float)
        if params.shape != (spec.n_params,):
            raise ValueError(f"expected {spec.n_params} parameters for {spec.kind}")
        if not in_support(params, spec):
            return -np.inf
        beta0, beta1, sigma = float(params[0]), float(params[1]), float(params[-1])
        v = np.array([1.0, beta0 + beta1 * self._x_mean - self._y_mean, beta1 - self._slope])
        if spec.kind == "hybrid":
            v = np.outer((1.0, -float(params[2]), -float(params[3])), v).ravel()
        sum_z2 = float(v @ self._gram @ v) / (sigma * sigma)
        loglik = -0.5 * sum_z2 - self._n * math.log(sigma) + self._log_norm
        return loglik + _log_prior(params, spec)


def posterior_predictive(
    samples: PosteriorSamples,
    ds: HorizonDataset,
    spec: ModelSpec,
    seed: int,
    x_floor: float = DEFAULT_X_FLOOR,
    context: HorizonDataset | None = None,
    levels: tuple[float, ...] = (0.05, 0.5, 0.95),
    allow_reset: bool = True,
) -> list[PredictiveDistribution]:
    """Posterior-predictive distributions for every row of ds.

    One y* draw per retained parameter draw, N(mean_t, scale_t^2), with
    lagged residuals teacher-forced from the observed y series. A context
    dataset (typically the training tail) supplies the lags of the first
    rows when it abuts ds in time.
    """
    x, y, post_gap, n_ctx = ds.x, ds.y, ds.post_gap, 0
    if context is not None and len(context) >= 1:
        tail = context.rows(slice(max(0, len(context) - 2), len(context)))
        if ds.valid_times.size and tail.valid_times[-1] + np.timedelta64(1, "h") == ds.valid_times[0]:
            n_ctx = len(tail)
            x = np.concatenate([tail.x, x])
            y = np.concatenate([tail.y, y])
            vt = np.concatenate([tail.valid_times, ds.valid_times])
            post_gap = np.ones(vt.size, dtype=bool)
            post_gap[1:] = np.diff(vt) != np.timedelta64(1, "h")
    if spec.kind == "hybrid" and not allow_reset and bool(np.any(post_gap)):
        raise ValueError("lagged residuals unavailable and post-gap reset disallowed")

    draws = samples.draws
    n_draws, n_rows = draws.shape[0], x.size
    beta0 = draws[:, 0:1]
    beta1 = draws[:, 1:2]
    sigma = draws[:, -1:]
    mean = beta0 + beta1 * x[None, :]
    if spec.kind == "hybrid":
        e1, e2 = _lagged(y[None, :] - mean, post_gap)
        mean = mean + draws[:, 2:3] * e1 + draws[:, 3:4] * e2
        scale = np.maximum(x, x_floor)[None, :] * sigma
    else:
        scale = np.broadcast_to(sigma, (n_draws, n_rows))
    rng = np.random.default_rng(seed)
    ystar = mean + scale * rng.standard_normal((n_draws, n_rows))
    return [
        PredictiveDistribution(valid_time=ds.valid_times[i - n_ctx], draws=ystar[:, i], levels=levels)
        for i in range(n_ctx, n_rows)
    ]


def map_sigma(samples: PosteriorSamples) -> float:
    """Histogram-mode MAP estimate of the noise scale sigma."""
    draws = samples.column("sigma")
    if draws.size < 100:
        raise ValueError("need at least 100 draws for a mode estimate")
    if np.ptp(draws) == 0.0:
        return float(draws[0])
    n_bins = int(np.clip(np.sqrt(draws.size), 10, 500))
    counts, edges = np.histogram(draws, bins=n_bins)
    k = int(np.argmax(counts))
    return float(0.5 * (edges[k] + edges[k + 1]))


def credible_interval(
    dist: PredictiveDistribution, levels: tuple[float, ...]
) -> dict[float, float]:
    """Empirical quantiles (interpolated order statistics) of the draws."""
    if dist.draws.size < 2:
        raise ValueError("need at least two draws")
    levels = tuple(levels)
    if any(not 0.0 < lv < 1.0 for lv in levels):
        raise ValueError("levels must lie in (0, 1)")
    qs = np.quantile(dist.draws, levels)
    return {lv: float(q) for lv, q in zip(levels, qs)}
