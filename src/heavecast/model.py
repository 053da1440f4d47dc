"""Bayesian linear adjustment of the physics forecast.

Two model kinds, with their parameters in heavecast.MODEL_KINDS, share the
mean structure y = beta0 + beta1 * x + error:

* basic  -- independent Gaussian errors with a common variance.
* hybrid -- the error carries lagged-residual (AR(2)) terms and the noise
  standard deviation scales with the physics forecast x, so large forecast
  heave implies proportionally larger uncertainty.

Residual lags follow measurement time: eps_{t-1} = y_{t-1} - beta0 -
beta1 * x_{t-1}. Rows whose hourly predecessor is missing (post-gap rows)
have the corresponding lag set to zero, its unconditional mean. Every row is
scored, the first two of a training set included: their missing lags are
zero in the same way.

conditional_moments is the one definition of each row's conditional mean and
noise scale; log_posterior, posterior_predictive and standardized residuals use it.

log_posterior is the readable reference density, the oracle of the sampler's
Gibbs conditionals (sampler._Conditionals), which never evaluate it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import MODEL_KINDS, check_model_kind
from .io import HOUR, MIN_DRAWS, HorizonDataset

__all__ = [
    "PriorSet",
    "ModelSpec",
    "PosteriorSamples",
    "PredictiveDistribution",
    "PredictiveDraws",
    "predictive_summaries",
    "residuals",
    "log_posterior",
    "ar2_stationary",
    "in_support",
    "check_samples",
    "posterior_predictive",
    "map_sigma",
    "conditional_moments",
    "noise_weights",
]

X_FLOOR = 0.01  # m; keeps the scaled-noise likelihood proper as x -> 0
QUANTILE_LEVELS = (0.05, 0.5, 0.95)  # predictive quantiles reported per row
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

    kind: str  # a key of heavecast.MODEL_KINDS
    priors: PriorSet = field(default_factory=PriorSet)
    horizon: int = 0

    def __post_init__(self):
        check_model_kind(self.kind)

    @property
    def param_names(self) -> tuple[str, ...]:
        return MODEL_KINDS[self.kind]

    @property
    def ar2(self) -> bool:
        """Whether the kind has the AR(2) error block (phi1, phi2), and with it noise scaled by noise_weights(x)."""
        return "phi1" in self.param_names

    @property
    def n_params(self) -> int:
        return len(self.param_names)


@dataclass(frozen=True, eq=False)
class PosteriorSamples:
    """Retained MCMC draws plus convergence diagnostics."""

    draws: np.ndarray  # (n_draws, n_params)
    param_names: tuple[str, ...]
    chain_ids: np.ndarray
    diagnostics: dict  # per-parameter {"rhat": ..., "ess": ...}
    acceptance_rate: float  # of the sigma step, over all sweeps
    # deterministic facts of the fit: sweeps, rejections, min ESS
    sampler_facts: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        return self.draws[:, self.param_names.index(name)]

    def __len__(self) -> int:
        return self.draws.shape[0]


@dataclass(frozen=True, eq=False)
class PredictiveDistribution:
    """Posterior-predictive draws of y* at one valid time."""

    valid_time: np.datetime64
    draws: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.mean(self.draws))

    @property
    def summaries(self) -> dict[str, float]:
        qs = _sorted_quantiles(np.sort(self.draws)[None, :], QUANTILE_LEVELS)[0]
        return {"mean": self.mean} | {f"p{round(lv * 100):02d}": float(q) for lv, q in zip(QUANTILE_LEVELS, qs)}


@dataclass(frozen=True, eq=False)
class PredictiveDraws:
    """Posterior-predictive draws of y* for many valid times, as one matrix.

    draws[:, i] are the draws at valid_times[i]. Like a sequence of
    PredictiveDistribution, it has a length, and indexing or iterating
    gives one per valid time, whose draws are a column view of the matrix.
    """

    valid_times: np.ndarray  # (n_rows,) datetime64[s]
    draws: np.ndarray  # (n_draws, n_rows)

    def __len__(self) -> int:
        return self.valid_times.size

    def __getitem__(self, i: int) -> PredictiveDistribution:
        i = operator.index(i)
        return PredictiveDistribution(valid_time=self.valid_times[i], draws=self.draws[:, i])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def predictive_summaries(rows: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Predictive summaries and sample CRPS of each row of draws, as one array.

    rows is an (n_rows, n_draws) matrix in any memory order, such as the
    transposed view PredictiveDraws.draws.T, and obs the n_rows measured
    values. Column 0 is the mean, then one column per level of
    QUANTILE_LEVELS, then the energy-form CRPS mean|y* - y| - (1/2)
    mean_{i,j}|y*_i - y*_j| of the row against its obs (Gneiting & Raftery
    2007); PredictiveDistribution.summaries and scoring.crps_samples read
    theirs from here. Every block of 64 rows is copied once to C order, which
    stores each row's draws contiguously, and the mean and mean|y* - y| are
    taken on the copy along axis 1. The copy is then sorted in place, every
    quantile is read from it by _sorted_quantiles, and its pair sums are
    per-row dot products with the rank coefficients, O(m log m) in all.
    Blocks of 64 rows keep the copies small: one block of all rows raised
    the predict stage's peak RSS by about 10 MB on a 4380-hour campaign
    (850 rows x 1500 draws).
    """
    n, m = rows.shape
    if not n:
        raise ValueError("no predictive distributions to summarise")
    if m < 2:
        raise ValueError("need at least two draws")
    if obs.shape != (n,):
        raise ValueError("draw matrix row count must match observations")
    coeffs = 2.0 * np.arange(m) - (m - 1)
    out = np.empty((n, 2 + len(QUANTILE_LEVELS)))
    for start in range(0, n, 64):
        block = np.array(rows[start : start + 64], order="C")
        chunk = out[start : start + 64]
        chunk[:, 0] = block.mean(axis=1)
        term1 = np.mean(np.abs(block - obs[start : start + 64, None]), axis=1)
        block.sort(axis=1)
        chunk[:, 1:-1] = _sorted_quantiles(block, QUANTILE_LEVELS)
        pair_sums = [2.0 * float(np.dot(coeffs, row)) for row in block]
        # never negative (the CRPS of the draws' own distribution), but rounding can take near-equal draws below 0
        chunk[:, -1] = np.maximum(term1 - np.array(pair_sums) / (2.0 * m * m), 0.0)
    return out


def _sorted_quantiles(rows: np.ndarray, levels) -> np.ndarray:
    """np.quantile(rows, levels, axis=1).T, bit for bit, for rows sorted along axis 1.

    Each level reads the two order statistics a, b around (n - 1) * level and
    interpolates as numpy's default 'linear' method (Hyndman & Fan 1996,
    type 7) does: a + (b - a) * t, or b - (b - a) * (1 - t) when the
    fraction t is at least one half. np.quantile itself imports numpy.ma.
    """
    n = rows.shape[1]
    out = np.empty((rows.shape[0], len(levels)))
    for j, level in enumerate(levels):
        virtual = (n - 1) * level
        lo = math.floor(virtual)
        t = virtual - lo
        a, b = rows[:, lo], rows[:, min(lo + 1, n - 1)]
        diff = b - a
        out[:, j] = b - diff * (1.0 - t) if t >= 0.5 else a + diff * t
    return out


def ar2_stationary(p1, p2):
    """AR(2) stationarity triangle: |p2| < 1, p1 + p2 < 1 and p2 - p1 < 1.

    Works elementwise on arrays as well as on scalars.
    """
    return (abs(p2) < 1.0) & (p1 + p2 < 1.0) & (p2 - p1 < 1.0)


def in_support(params: np.ndarray, spec: ModelSpec):
    """Prior support: finite values, beta1 > 0, sigma > 0 and AR(2) stationarity.

    params is one parameter vector or an array of them along the last axis;
    the result has one bool per vector.
    """
    params = np.asarray(params, dtype=float)
    ok = np.all(np.isfinite(params), axis=-1) & (params[..., 1] > 0.0) & (params[..., -1] > 0.0)
    if spec.ar2:
        ok &= ar2_stationary(params[..., 2], params[..., 3])
    return ok


def check_samples(samples: PosteriorSamples, spec: ModelSpec) -> None:
    """Raise ValueError unless samples hold spec's parameters in MIN_DRAWS or more draws, all in the prior support."""
    if samples.param_names != spec.param_names:
        raise ValueError(
            f"expected {spec.kind} parameters {list(spec.param_names)}, found {list(samples.param_names)}"
        )
    if len(samples) < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} posterior draws, found {len(samples)}")
    outside = np.flatnonzero(~in_support(samples.draws, spec))
    if outside.size:
        raise ValueError(
            f"{outside.size} of {len(samples)} draws are not finite or lie outside the prior support,"
            f" the first at row {outside[0] + 1}"
        )


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
    if spec.ar2:
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
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row conditional mean and noise scale, teacher-forcing the lags.

    Without the AR(2) block (the basic model) the mean is beta0 + beta1*x and
    the scale is sigma. With it (the hybrid model) the mean adds
    phi1*eps_{t-1} + phi2*eps_{t-2} and the scale is noise_weights(x) * sigma.

    params is one parameter vector, or a stack of them along the last axis as
    in_support takes them; a stack gives one row of means and scales per vector.
    """
    params = np.asarray(params, dtype=float)
    beta0, beta1, sigma = params[..., 0, None], params[..., 1, None], params[..., -1, None]
    mean = beta0 + beta1 * x
    if not spec.ar2:
        return mean, np.broadcast_to(sigma, mean.shape)
    e1, e2 = _lagged(y - mean, post_gap)
    mean = mean + params[..., 2, None] * e1 + params[..., 3, None] * e2
    return mean, noise_weights(x) * sigma


def noise_weights(x: np.ndarray) -> np.ndarray:
    """Each row's noise weight max(x_t, X_FLOOR): a kind with the AR(2) block has noise scale sigma times it."""
    return np.maximum(x, X_FLOOR)


def log_posterior(params: np.ndarray, ds: HorizonDataset, spec: ModelSpec) -> float:
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
    mean, scale = conditional_moments(params, ds.x, ds.y, ds.post_gap, spec)
    z = (ds.y - mean) / scale
    loglik = -0.5 * np.sum(z * z) - np.sum(np.log(scale)) - z.size * _HALF_LOG_2PI
    return float(loglik) + _log_prior(params, spec)


def posterior_predictive(
    samples: PosteriorSamples,
    ds: HorizonDataset,
    spec: ModelSpec,
    seed: int,
    context: HorizonDataset | None = None,
) -> PredictiveDraws:
    """Posterior-predictive draws for every row of ds.

    One y* draw per retained parameter draw, N(mean_t, scale_t^2), with
    lagged residuals teacher-forced from the observed y series. A context
    dataset (typically the training tail) supplies the lags of the first
    rows when it abuts ds in time.

    The (n_draws, n_rows) matrix of standard normals z is drawn whole and
    turned into y* = mean + scale * z in place, 64 draws at a time, so no
    other array is larger than one block. Each element gets the same IEEE
    operations on the same operands as that expression on whole matrices
    would apply, so the draws do not depend on the block size.
    """
    rows, n_ctx = ds, 0
    if context is not None and len(context) >= 1:
        tail = context.rows(slice(max(0, len(context) - 2), len(context)))
        if len(ds) and tail.valid_times[-1] + HOUR == ds.valid_times[0]:
            n_ctx = len(tail)
            rows = HorizonDataset(
                horizon=ds.horizon,
                valid_times=np.concatenate([tail.valid_times, ds.valid_times]),
                x=np.concatenate([tail.x, ds.x]),
                y=np.concatenate([tail.y, ds.y]),
                issue_times=np.concatenate([tail.issue_times, ds.issue_times]),
            )

    draws = samples.draws
    ystar = np.random.default_rng(seed).standard_normal((draws.shape[0], len(rows)))
    for start in range(0, draws.shape[0], 64):
        mean, scale = conditional_moments(draws[start : start + 64], rows.x, rows.y, rows.post_gap, spec)
        z = ystar[start : start + 64]
        z *= scale
        z += mean
    return PredictiveDraws(valid_times=ds.valid_times, draws=ystar[:, n_ctx:])


def map_sigma(samples: PosteriorSamples) -> float:
    """Histogram-mode MAP estimate of the noise scale sigma."""
    draws = samples.column("sigma")
    if draws.size < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} draws for a mode estimate")
    if np.ptp(draws) == 0.0:
        return float(draws[0])
    n_bins = int(np.clip(np.sqrt(draws.size), 10, 500))
    counts, edges = np.histogram(draws, bins=n_bins)
    k = int(np.argmax(counts))
    return float(0.5 * (edges[k] + edges[k + 1]))

