"""Two-phase adaptive random-walk Metropolis sampler for the adjustment models.

The posterior has at most five parameters, so random-walk Metropolis with
adapted proposals is sufficient and avoids any gradient infrastructure. Each
chain runs in three phases:

* warm-up phase 1 (first half of the warm-up): component-wise random walks
  whose per-parameter scales adapt towards the target acceptance (around
  30%), which survives arbitrarily bad initial scales;
* warm-up phase 2 (second half): joint proposals from the empirical
  covariance of the chain so far, scaled by 2.38^2 / d (the adaptive
  Metropolis of Haario et al. 2001, with the scaling of Roberts & Rosenthal
  2001), with a global scale adapted towards the target acceptance and the
  covariance refreshed every adaptation window;
* sampling: the joint proposal frozen, d proposals per retained draw.

The log posterior is built once per fit as a model.LogPosterior, whose cost
per call does not grow with the training set; model.log_posterior stays the
reference it is tested against. Chains are independent, each with its own
deterministic random stream spawned from the fit seed, so results are
reproducible bit-for-bit.

The regression pair (beta0, beta1) is strongly correlated when x has a
nonzero mean; the sampler therefore works internally with the centred
intercept alpha = beta0 + beta1 * mean(x), which decorrelates the pair, and
maps draws back to beta0 for storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import HorizonDataset
from .model import X_FLOOR, LogPosterior, ModelSpec, PosteriorSamples, ar2_stationary

__all__ = ["SamplerConfig", "SamplerError", "InitializationError", "fit", "rhat", "ess"]

TARGET_ACCEPTANCE = 0.3  # acceptance rate the warm-up scales adapt towards
ADAPT_INTERVAL = 50  # warm-up iterations per adaptation window


class SamplerError(RuntimeError):
    """Sampling failed: divergence or unconverged chains."""


class InitializationError(SamplerError):
    """Log posterior non-finite at the starting point."""


@dataclass(frozen=True)
class SamplerConfig:
    chains: int = 3
    warmup_draws: int = 1000
    retained_draws: int = 1000
    rhat_limit: float = 1.05

    def __post_init__(self):
        if self.chains < 1 or self.warmup_draws < 100 or self.retained_draws < 100:
            raise ValueError("need >= 1 chain, >= 100 warmup and retained draws")


def rhat(chains: np.ndarray) -> float:
    """Split potential-scale-reduction statistic for one parameter.

    chains has shape (n_chains, n_draws); each chain is split in half so
    within-chain drift also inflates the statistic.
    """
    n_chains, n_draws = chains.shape
    half = n_draws // 2
    split = chains[:, : 2 * half].reshape(2 * n_chains, half)
    w = np.mean(np.var(split, axis=1, ddof=1))
    b = half * np.var(np.mean(split, axis=1), ddof=1)
    if w == 0.0:
        return 1.0
    var_plus = (half - 1) / half * w + b / half
    return float(np.sqrt(var_plus / w))


def ess(chains: np.ndarray) -> float:
    """Effective sample size via Geyer's initial-monotone autocorrelations."""
    n_chains, n_draws = chains.shape
    total = n_chains * n_draws
    acs = []
    for c in chains:
        c = c - np.mean(c)
        var = np.dot(c, c) / n_draws
        if var == 0.0:
            return float(total)
        full = np.correlate(c, c, mode="full")[n_draws - 1 :] / (n_draws * var)
        acs.append(full)
    rho = np.mean(acs, axis=0)
    # sum paired autocorrelations while they stay positive and decreasing
    tau = 1.0
    prev = np.inf
    for k in range(1, n_draws // 2):
        pair = rho[2 * k - 1] + rho[2 * k]
        if pair < 0.0:
            break
        pair = min(pair, prev)
        prev = pair
        tau += 2.0 * pair
    return float(total / tau)


def _initial_point(ds: HorizonDataset, spec: ModelSpec) -> np.ndarray:
    """Least-squares-flavoured starting point inside the prior support."""
    x, y = ds.x, ds.y
    vx = np.var(x)
    beta1 = float(np.cov(x, y, ddof=0)[0, 1] / vx) if vx > 0 else 1.0
    beta1 = max(beta1, 0.05)
    beta0 = float(np.mean(y) - beta1 * np.mean(x))
    resid = y - beta0 - beta1 * x
    if spec.kind == "basic":
        sigma = max(float(np.std(resid)), 1e-4)
        return np.array([beta0, beta1, sigma])
    scaled = resid / np.maximum(x, X_FLOOR)
    sigma = max(float(np.std(scaled)), 1e-4)
    return np.array([beta0, beta1, 0.0, 0.0, sigma])


def _run_chain(
    log_post: LogPosterior,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    start: np.ndarray,
) -> tuple[np.ndarray, float]:
    """One chain: component-wise warm-up, then covariance-matched proposals.

    The first warm-up half runs component-wise random walks with scale
    adaptation, which survives arbitrarily bad initial scales. Its trace
    seeds an empirical covariance; the second half and the sampling phase
    propose jointly from that covariance (rescaled towards the target
    acceptance), which is what lets the chain traverse the narrow (phi1,
    phi2) ridge the near-unit-root hybrid posterior develops.
    """
    x_mean = float(np.mean(log_post.ds.x))
    n_params = log_post.spec.n_params

    def to_natural(state: np.ndarray) -> np.ndarray:
        out = state.copy()
        out[0] = state[0] - state[1] * x_mean  # alpha -> beta0
        return out

    def logpost(state: np.ndarray) -> float:
        return log_post(to_natural(state))

    state = start.copy()
    state[0] = start[0] + start[1] * x_mean  # beta0 -> alpha
    current_lp = logpost(state)
    if not np.isfinite(current_lp):
        raise InitializationError("log posterior is not finite at the starting point")

    scales = np.full(n_params, 0.1)
    scales[-1] = max(0.25 * start[-1], 1e-3)
    jitter = rng.standard_normal(n_params) * 0.01 * scales
    trial = state + jitter
    trial_lp = logpost(trial)
    if np.isfinite(trial_lp):
        state, current_lp = trial, trial_lp

    # phase 1: component-wise scale adaptation over the first warm-up half
    phase1 = cfg.warmup_draws // 2
    trace = np.empty((cfg.warmup_draws, n_params))
    window_accepts = np.zeros(n_params)
    window_count = 0
    accepted_since_adapt = 0
    for it in range(phase1):
        for j in range(n_params):
            prop = state.copy()
            prop[j] += scales[j] * rng.standard_normal()
            prop_lp = logpost(prop)
            if np.log(rng.random()) < prop_lp - current_lp:
                state, current_lp = prop, prop_lp
                window_accepts[j] += 1
                accepted_since_adapt += 1
        trace[it] = state
        window_count += 1
        if window_count == ADAPT_INTERVAL:
            rates = window_accepts / window_count
            scales *= np.exp(np.clip(2.0 * (rates - TARGET_ACCEPTANCE), -1.0, 1.0))
            if accepted_since_adapt == 0 and it > 2 * ADAPT_INTERVAL:
                raise SamplerError("sampler diverged: no accepted proposal over an adaptation window")
            window_accepts[:] = 0.0
            window_count = 0
            accepted_since_adapt = 0

    def proposal_chol(sample: np.ndarray) -> np.ndarray:
        cov = np.cov(sample.T) if n_params > 1 else np.array([[np.var(sample)]])
        cov = np.atleast_2d(cov) + np.diag(np.maximum(1e-12, 1e-6 * np.diag(np.atleast_2d(cov))))
        cov += 1e-12 * np.eye(n_params)
        return np.linalg.cholesky((2.38**2 / n_params) * cov)

    chol = proposal_chol(trace[max(0, phase1 // 2) : phase1])
    log_lam = 0.0

    # phase 2: jointly proposed warm-up with global-scale adaptation and
    # periodic covariance refreshes
    window_joint = 0
    window_count = 0
    for it in range(phase1, cfg.warmup_draws):
        prop = state + np.exp(log_lam) * (chol @ rng.standard_normal(n_params))
        prop_lp = logpost(prop)
        if np.log(rng.random()) < prop_lp - current_lp:
            state, current_lp = prop, prop_lp
            window_joint += 1
        trace[it] = state
        window_count += 1
        if window_count == ADAPT_INTERVAL:
            rate = window_joint / window_count
            log_lam += np.clip(2.0 * (rate - TARGET_ACCEPTANCE), -1.0, 1.0)
            chol = proposal_chol(trace[phase1 // 2 : it + 1])
            window_joint = 0
            window_count = 0

    # sampling phase: frozen proposal, thinned so each retained draw costs
    # the same as one sweep of the component-wise phase
    draws = np.empty((cfg.retained_draws, n_params))
    n_accept_total = 0
    for it in range(cfg.retained_draws):
        for _ in range(n_params):
            prop = state + np.exp(log_lam) * (chol @ rng.standard_normal(n_params))
            prop_lp = logpost(prop)
            if np.log(rng.random()) < prop_lp - current_lp:
                state, current_lp = prop, prop_lp
                n_accept_total += 1
        draws[it] = to_natural(state)

    accept_rate = n_accept_total / (cfg.retained_draws * n_params)
    return draws, accept_rate


def fit(
    ds: HorizonDataset,
    spec: ModelSpec,
    cfg: SamplerConfig | None = None,
    seed: int = 0,
) -> PosteriorSamples:
    """Draw posterior samples for the model on the training rows of ds.

    Runs cfg.chains independent chains and pools the retained draws. Raises
    SamplerError when the split potential-scale-reduction statistic of any
    parameter exceeds cfg.rhat_limit.
    """
    if cfg is None:
        cfg = SamplerConfig()
    if len(ds) < 3 + spec.n_params:
        raise ValueError("too few training rows for the parameter count")
    start = _initial_point(ds, spec)
    log_post = LogPosterior(ds, spec)
    streams = np.random.SeedSequence(seed).spawn(cfg.chains)
    per_chain = []
    rates = []
    for chain_seed in streams:
        rng = np.random.default_rng(chain_seed)
        draws, rate = _run_chain(log_post, cfg, rng, start)
        per_chain.append(draws)
        rates.append(rate)

    stacked = np.stack(per_chain)  # (chains, draws, params)
    diagnostics = {}
    for j, name in enumerate(spec.param_names):
        diagnostics[name] = {
            "rhat": rhat(stacked[:, :, j]),
            "ess": ess(stacked[:, :, j]),
        }
    bad = {k: v["rhat"] for k, v in diagnostics.items() if v["rhat"] > cfg.rhat_limit}
    if bad:
        raise SamplerError(f"chains not converged, rhat over limit: {bad}")

    samples = PosteriorSamples(
        draws=stacked.reshape(-1, spec.n_params),
        param_names=spec.param_names,
        chain_ids=np.repeat(np.arange(cfg.chains), cfg.retained_draws),
        diagnostics=diagnostics,
        acceptance_rate=float(np.mean(rates)),
    )
    _check_support(samples, spec)
    return samples


def _check_support(samples: PosteriorSamples, spec: ModelSpec) -> None:
    """Raise SamplerError if any retained draw lies outside the prior support."""
    ok = np.all(samples.column("beta1") > 0.0) and np.all(samples.column("sigma") > 0.0)
    if spec.kind == "hybrid":
        ok = ok and np.all(ar2_stationary(samples.column("phi1"), samples.column("phi2")))
    if not ok:
        raise SamplerError("retained draws outside the prior support")
