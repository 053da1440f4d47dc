"""Simulation-based calibration of the Gibbs sampler.

Talts, Betancourt, Simpson, Vehtari & Gelman 2018, arXiv:1804.06788,
"Validating Bayesian inference algorithms with simulation-based
calibration"; Cook, Gelman & Rubin 2006, J. Comput. Graph. Stat. 15(3).

Each replicate draws the parameters from the default priors (each
truncation by rejection), simulates y from the model's conditional with the
lags zeroed as model.log_posterior zeroes them, fits one chain and takes the
rank of each true parameter among every 10th retained draw. When the sampler
targets the posterior, the ranks are uniform whatever the data, so a
chi-squared test per parameter over rank bins that each hold the same number
of rank values must not reject. The conditional tests of test_sampler.py
check the sweep's helpers at fixed states; this checks the chain's
stationary distribution, which carries the sigma step's prior ratio, the
Gamma shape, the zeroed first lags and the two truncations.

The sample size is small (N = 12) so that the prior weighs enough for a
wrong prior ratio or Gamma shape to show. Seeds are fixed, so the result is
the same on every run. A fit that raises SamplerError (a truncated block
stuck at the prior's extremes) leaves its replicate out; the count is
reported and bounded.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import chdtrc

from heavecast.io import HOUR, HorizonDataset, SamplerConfig
from heavecast.model import X_FLOOR, ModelSpec, ar2_stationary
from heavecast.sampler import SamplerError, fit

N_ROWS = 12
CONFIG = SamplerConfig(chains=1, warmup_draws=200, retained_draws=990, rhat_limit=10.0)
THIN = 10  # every 10th retained draw: 99 draws, so 100 rank values
BINS = 10  # of 10 rank values each
REPLICATES = 1000
P_FLOOR = 1e-3
T0 = np.datetime64("2024-06-01T00:00:00", "s")


def prior_draw(rng: np.random.Generator, spec: ModelSpec) -> np.ndarray:
    """One parameter vector from spec's priors, each truncation by rejection."""
    pr = spec.priors
    beta0 = pr.beta0_mean + np.sqrt(pr.beta0_var) * rng.standard_normal()
    beta1 = -1.0
    while not beta1 > 0.0:
        beta1 = pr.beta1_mean + np.sqrt(pr.beta1_var) * rng.standard_normal()
    sigma = pr.sigma_scale * abs(rng.standard_normal())
    if spec.kind == "basic":
        return np.array([beta0, beta1, sigma])
    phi = np.full(2, 2.0)
    while not ar2_stationary(*phi):
        phi = pr.phi_sd * rng.standard_normal(2)
    return np.array([beta0, beta1, *phi, sigma])


def simulated_rows(rng: np.random.Generator, params: np.ndarray, spec: ModelSpec, hours: np.ndarray) -> HorizonDataset:
    """Rows at the given hours with y drawn from the model given params.

    A lag is zero before the first row and where a gap breaks the hourly
    chain, as model._lagged makes it.
    """
    t = np.arange(hours.size)
    x = np.abs(1.0 + 0.8 * np.sin(t / 15.0) + 0.3 * rng.standard_normal(hours.size))
    z = rng.standard_normal(hours.size)
    beta0, beta1, sigma = params[0], params[1], params[-1]
    if spec.kind == "basic":
        eps = sigma * z
    else:
        phi1, phi2 = params[2], params[3]
        hourly = np.concatenate([[False], np.diff(hours) == 1])  # the row an hour before is present
        eps = np.zeros(hours.size)
        for k in range(hours.size):
            lag1 = eps[k - 1] if hourly[k] else 0.0
            lag2 = eps[k - 2] if hourly[k] and hourly[k - 1] else 0.0
            eps[k] = phi1 * lag1 + phi2 * lag2 + max(x[k], X_FLOOR) * sigma * z[k]
    times = T0 + hours * HOUR
    return HorizonDataset(horizon=0, valid_times=times, x=x, y=beta0 + beta1 * x + eps, issue_times=times)


def calibration(kind: str, hours: np.ndarray, seed: int) -> tuple[dict[str, float], int]:
    """The chi-squared p-value of each parameter's ranks, and the number of fits that raised SamplerError."""
    spec = ModelSpec(kind=kind)
    rng = np.random.default_rng(seed)
    ranks, failed = [], 0
    for r in range(REPLICATES):
        truth = prior_draw(rng, spec)
        ds = simulated_rows(rng, truth, spec, hours)
        try:
            draws = fit(ds, spec, CONFIG, seed=seed * 100_000 + r).draws[::THIN]
        except SamplerError:
            failed += 1
            continue
        ranks.append(np.sum(draws < truth, axis=0))
    ranks = np.array(ranks)
    n_ranks = CONFIG.retained_draws // THIN + 1
    assert n_ranks % BINS == 0, "each bin must hold the same number of rank values"
    p_values = {}
    for name, column in zip(spec.param_names, ranks.T):
        counts = np.bincount(column // (n_ranks // BINS), minlength=BINS)
        expected = column.size / BINS
        p_values[name] = float(chdtrc(BINS - 1, np.sum((counts - expected) ** 2) / expected))
    return p_values, failed


HOURLY = np.arange(N_ROWS)
GAP = np.concatenate([np.arange(6), np.arange(9, 15)])  # a 3-hour gap: row 6 is post-gap


@pytest.mark.parametrize(
    "kind, hours, seed",
    [("basic", HOURLY, 777), ("hybrid", HOURLY, 778), ("hybrid", GAP, 779)],
    ids=["basic", "hybrid", "hybrid-gap"],
)
def test_ranks_of_the_true_parameters_are_uniform(kind, hours, seed, record_property):
    p_values, failed = calibration(kind, hours, seed)
    report = f"{kind}, N = {hours.size}: {failed} of {REPLICATES} fits raised SamplerError; p-values {p_values}"
    print(report)
    record_property("sampler_errors", failed)
    assert failed < 0.05 * REPLICATES, report
    assert min(p_values.values()) >= P_FLOOR, report
