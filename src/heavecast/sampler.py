"""Blocked Gibbs sampler for the adjustment models.

The noise weights w_t = max(x_t, X_FLOOR) are fixed, so the hybrid model is a
regression with AR(2) errors (Chib 1993, J. Econometrics 58, "Bayes
regression with autoregressive errors: a Gibbs sampling approach") whose
blocks have closed-form full conditionals. One sweep draws

* (beta0, beta1) | phi, sigma from a bivariate Gaussian, redrawn until
  beta1 > 0;
* (phi1, phi2) | beta, sigma from a bivariate Gaussian, redrawn until it lies
  in the AR(2) stationarity triangle (hybrid only);
* sigma | beta, phi by independence Metropolis-Hastings: 1/sigma^2 is
  proposed from Gamma((N - 1)/2, rate S/2), S the weighted sum of squared
  innovations, and accepted by the half-Gaussian prior's density ratio alone.

The conditionals come from one Gram matrix of the training rows, built once
by _Conditionals, so a sweep costs the same whatever the training-set size.
_run_chain strings the sweep's steps together: _form evaluates a block's
quadratic form, _precision turns it into the block's conditional precision
and linear term, _truncated draws the block from its bivariate Gaussian and
redraws until the draw lies inside its support (each phi draw is tested by
model.ar2_stationary, the one definition of the triangle), and _quadratic
gives the sum of squares. The tests check these helpers against
model.log_posterior. A truncated block that rejects MAX_REJECTIONS draws in
a row raises SamplerError.

Chains are independent. Each has its own Generator spawned from the fit
seed, which draws the chain's normals, gammas and uniforms up front (and
further normals only when a truncated block rejects), so results are
reproducible bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .io import HorizonDataset, SamplerConfig
from .model import X_FLOOR, ModelSpec, PosteriorSamples, _lagged, ar2_stationary, in_support

__all__ = ["SamplerConfig", "SamplerError", "fit", "rhat", "ess"]

MAX_REJECTIONS = 1000  # redraws in a row of one truncated block before SamplerError
_STUCK = f"truncated block rejected {MAX_REJECTIONS} draws in a row"
_NOT_POSITIVE_DEFINITE = "conditional precision is not positive definite"

# upper-triangle entries of a symmetric 3x3 matrix, in the order forms use
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


class SamplerError(ArithmeticError):
    """Sampling failed: a stuck truncated block or unconverged chains.

    An ArithmeticError, so cli.main exits 3 on it as on any numerical failure.
    """


def rhat(chains: np.ndarray) -> float:
    """Split potential-scale-reduction statistic for one parameter.

    chains has shape (n_chains, n_draws); each chain is split in half so
    within-chain drift also inflates the statistic. Constant split chains
    read 1.0 when they agree and infinity when they do not: chains stuck at
    different values have not converged.
    """
    n_chains, n_draws = chains.shape
    half = n_draws // 2
    split = chains[:, : 2 * half].reshape(2 * n_chains, half)
    w = np.mean(np.var(split, axis=1, ddof=1))
    b = half * np.var(np.mean(split, axis=1), ddof=1)
    if w == 0.0:
        return 1.0 if b == 0.0 else math.inf
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
        # a constant chain's autocorrelation is 1 at every lag
        acs.append(np.correlate(c, c, mode="full")[n_draws - 1 :] / (n_draws * var) if var else np.ones(n_draws))
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


class _Conditionals:
    """The sum of squares S of one dataset as a quadratic form in each block.

    Row t's innovation is u_t = c' A_t b with c = (1, -phi1, -phi2), b the
    regression coordinates and A_t the 3x3 block whose rows are the lag-0, -1
    and -2 values of (y, -1, -x), missing lags zeroed as in model._lagged. So
    S = sum_t (u_t / w_t)^2 = v'Gv with v = c (x) b, w_t = max(x_t, X_FLOOR)
    and G = sum_t vec(A_t) vec(A_t)' / w_t^2, a 9x9 matrix built once; the
    basic model keeps the lag-0 row (a 3x3 G, w_t = 1), zero-padded to 9x9.
    G is centred on the least-squares line y = y_mean + slope * (x - x_mean):
    y enters as its residual from that line, x as x - x_mean, and b = (1, a, d)
    with a = beta0 + beta1 * x_mean - y_mean and d = beta1 - slope. Near the
    mode every entry of v is then as small as the innovations, so v'Gv does
    not cancel large terms (rows with x below the floor weigh up to
    1/X_FLOOR^2 in G). With G reshaped to G4 (3, 3, 3, 3), S is b'H(c)b with
    H = c.G4.c and c'K(b)c with K = b.G4.b. beta_terms and phi_terms hold
    the coefficients of these quadratic polynomials, read from G once: per
    upper entry of Q = H or K (in _UPPER order), those of 1, v1, v2, v1^2,
    v1 v2 and v2^2, with (v1, v2) = (-phi1, -phi2) for H and (a, d) for K.

    The beta block is drawn as (a, d), the phi block as (-phi1, -phi2). Given
    sigma each has the density exp(-x'Px/2 + h'x) with P = Q[1:, 1:]/sigma^2
    plus the prior precision and h = -Q[0, 1:]/sigma^2 plus the prior's
    linear term; beta_prior and phi_prior hold (P11, P12, P22, h1, h2) of
    the priors.
    """

    def __init__(self, ds: HorizonDataset, spec: ModelSpec):
        pr = spec.priors
        self.n, self.sigma_scale = len(ds), pr.sigma_scale
        self.x_mean, self.y_mean = float(np.mean(ds.x)), float(np.mean(ds.y))
        dx = ds.x - self.x_mean
        sxx = float(dx @ dx)
        self.slope = float(dx @ (ds.y - self.y_mean)) / sxx if sxx > 0.0 else 0.0
        block = np.stack([ds.y - self.y_mean - self.slope * dx, -np.ones_like(dx), -dx])  # (3, N)
        if spec.kind == "hybrid":
            block = np.concatenate([block, *_lagged(block, ds.post_gap)]) / np.maximum(ds.x, X_FLOOR)  # (9, N)
        gram = np.zeros((9, 9))
        gram[: len(block), : len(block)] = block @ block.T
        # the start: phi = 0, and sigma the weighted RMS residual of the least-squares line (a = d = 0)
        self.sigma_start = max(math.sqrt(gram[0, 0] / self.n), 1e-4)
        # products v_i v_j of v = (1, v1, v2) over the monomials 1, v1, v2, v1^2, v1 v2, v2^2
        mono = np.zeros((3, 3, 6))
        for m, (i, j) in enumerate(_UPPER):
            mono[i, j, m] = mono[j, i, m] = 1.0
        g4 = gram.reshape(3, 3, 3, 3)
        beta_terms = np.einsum("lkmn,lmp->knp", g4, mono)
        phi_terms = np.einsum("lkmn,knp->lmp", g4, mono)
        self.beta_terms = tuple(tuple(beta_terms[i, j].tolist()) for i, j in _UPPER)
        self.phi_terms = tuple(tuple(phi_terms[i, j].tolist()) for i, j in _UPPER)
        # beta0 - beta0_mean = a - x_mean * d + e0 and beta1 - beta1_mean = d + e1
        e0 = self.y_mean - self.slope * self.x_mean - pr.beta0_mean
        e1 = self.slope - pr.beta1_mean
        v0, v1, xm = pr.beta0_var, pr.beta1_var, self.x_mean
        self.beta_prior = (1.0 / v0, -xm / v0, xm * xm / v0 + 1.0 / v1, -e0 / v0, xm * e0 / v0 - e1 / v1)
        self.phi_prior = (pr.phi_sd**-2, 0.0, pr.phi_sd**-2, 0.0, 0.0)


def _form(terms: tuple, v1: float, v2: float) -> list:
    """Upper entries of a block's 3x3 form Q at (v1, v2), in _UPPER order.

    terms is _Conditionals.beta_terms or phi_terms: per entry, the
    coefficients of 1, v1, v2, v1^2, v1 v2 and v2^2.
    """
    m11, m12, m22 = v1 * v1, v1 * v2, v2 * v2
    return [t0 + t1 * v1 + t2 * v2 + t3 * m11 + t4 * m12 + t5 * m22 for t0, t1, t2, t3, t4, t5 in terms]


def _quadratic(q: list, x1: float, x2: float) -> float:
    """v'Qv for v = (1, x1, x2), Q given by its upper entries."""
    q00, q01, q02, q11, q12, q22 = q
    return q00 + 2.0 * (x1 * q01 + x2 * q02 + x1 * x2 * q12) + x1 * x1 * q11 + x2 * x2 * q22


def _precision(q: list, sigma2: float, prior: tuple) -> tuple:
    """(P11, P12, P22, h1, h2) of the block whose form is q, given sigma^2 and the block's prior."""
    p11, p12, p22, h1, h2 = prior
    return q[3] / sigma2 + p11, q[4] / sigma2 + p12, q[5] / sigma2 + p22, h1 - q[1] / sigma2, h2 - q[2] / sigma2


def _truncated(p: tuple, z1: float, z2: float, inside, rng: np.random.Generator) -> tuple:
    """A draw from the density proportional to exp(-x'Px/2 + h'x) restricted to inside(x1, x2).

    p is (P11, P12, P22, h1, h2). With P = LL', x = L'^-1 (L^-1 h + z) has
    mean P^-1 h and covariance P^-1; z is (z1, z2), then two fresh standard
    normals from rng after each draw outside. Returns x1, x2 and the number
    of redraws.
    """
    p11, p12, p22, h1, h2 = p
    if not p11 > 0.0:
        raise SamplerError(_NOT_POSITIVE_DEFINITE)
    l11 = math.sqrt(p11)
    l21 = p12 / l11
    pivot = p22 - l21 * l21
    if not pivot > 0.0:
        raise SamplerError(_NOT_POSITIVE_DEFINITE)
    l22 = math.sqrt(pivot)
    y1 = h1 / l11
    y2 = (h2 - l21 * y1) / l22
    rejected = 0
    while True:
        x2 = (y2 + z2) / l22
        x1 = (y1 + z1 - l21 * x2) / l11
        if inside(x1, x2):
            return x1, x2, rejected
        rejected += 1
        if rejected == MAX_REJECTIONS:
            raise SamplerError(_STUCK)
        z1, z2 = rng.standard_normal(2).tolist()


def _run_chain(cond: _Conditionals, cfg: SamplerConfig, hybrid: bool, rng: np.random.Generator):
    """One chain of Gibbs sweeps.

    Returns the retained (beta0, beta1, phi1, phi2, sigma) draws, less the
    phi columns for the basic model, the number of accepted sigma proposals
    over all sweeps and the redraws of the beta and phi blocks.
    """
    sweeps = cfg.warmup_draws + cfg.retained_draws
    normals = rng.standard_normal((sweeps, 4)).tolist()
    gammas = rng.standard_gamma(0.5 * (cond.n - 1), sweeps).tolist()
    log_us = np.log(rng.random(sweeps)).tolist()
    half_inv_scale2 = 0.5 / cond.sigma_scale**2
    x_mean, y_mean, slope, warmup = cond.x_mean, cond.y_mean, cond.slope, cfg.warmup_draws
    beta_terms, beta_prior, phi_terms, phi_prior = cond.beta_terms, cond.beta_prior, cond.phi_terms, cond.phi_prior

    def beta_inside(a, d):
        return d + slope > 0.0

    def phi_inside(c1, c2):
        return ar2_stationary(-c1, -c2)

    phi1 = phi2 = 0.0
    sigma2 = cond.sigma_start**2
    draws = []
    accepted = beta_rejected = phi_rejected = 0
    for i, (z1, z2, z3, z4), gamma, log_u in zip(range(sweeps), normals, gammas, log_us):
        # beta block, drawn as (a, d), then phi block, drawn as (-phi1, -phi2)
        p = _precision(_form(beta_terms, -phi1, -phi2), sigma2, beta_prior)
        a, d, rejected = _truncated(p, z1, z2, beta_inside, rng)
        beta_rejected += rejected
        q = _form(phi_terms, a, d)  # also gives the sum of squares
        if hybrid:
            c1, c2, rejected = _truncated(_precision(q, sigma2, phi_prior), z3, z4, phi_inside, rng)
            phi_rejected += rejected
            phi1, phi2 = -c1, -c2
        # sigma by independence MH: S = v'Qv at v = (1, -phi1, -phi2)
        ss = _quadratic(q, -phi1, -phi2)
        if not ss > 0.0:
            raise SamplerError("weighted sum of squared innovations is not positive")
        proposal = 0.5 * ss / gamma
        if log_u < (sigma2 - proposal) * half_inv_scale2:
            sigma2 = proposal
            accepted += 1
        if i >= warmup:
            beta1 = d + slope
            draws.append((a - beta1 * x_mean + y_mean, beta1, phi1, phi2, math.sqrt(sigma2)))
    draws = np.array(draws)
    return (draws if hybrid else draws[:, [0, 1, 4]]), accepted, beta_rejected, phi_rejected


def fit(ds: HorizonDataset, spec: ModelSpec, cfg: SamplerConfig | None = None, seed: int = 0) -> PosteriorSamples:
    """Draw posterior samples for the model on the training rows of ds.

    Runs cfg.chains independent chains and pools the retained draws. Raises
    SamplerError when the split potential-scale-reduction statistic of any
    parameter exceeds cfg.rhat_limit.
    """
    if cfg is None:
        cfg = SamplerConfig()
    if len(ds) < 3 + spec.n_params:
        raise ValueError("too few training rows for the parameter count")
    cond = _Conditionals(ds, spec)
    streams = np.random.SeedSequence(seed).spawn(cfg.chains)
    runs = [_run_chain(cond, cfg, spec.kind == "hybrid", np.random.default_rng(s)) for s in streams]
    per_chain, accepted, beta_rejected, phi_rejected = zip(*runs)

    stacked = np.stack(per_chain)  # (chains, draws, params)
    diagnostics = {
        name: {"rhat": rhat(stacked[:, :, j]), "ess": ess(stacked[:, :, j])} for j, name in enumerate(spec.param_names)
    }
    bad = {k: v["rhat"] for k, v in diagnostics.items() if v["rhat"] > cfg.rhat_limit}
    if bad:
        raise SamplerError(f"chains not converged, rhat over limit: {bad}")

    rejections = {"beta": sum(beta_rejected)}
    if spec.kind == "hybrid":
        rejections["phi"] = sum(phi_rejected)
    samples = PosteriorSamples(
        draws=stacked.reshape(-1, spec.n_params),
        param_names=spec.param_names,
        chain_ids=np.repeat(np.arange(cfg.chains), cfg.retained_draws),
        diagnostics=diagnostics,
        acceptance_rate=sum(accepted) / (cfg.chains * (cfg.warmup_draws + cfg.retained_draws)),
        sampler_facts={
            "burn_in_sweeps": cfg.warmup_draws,
            "retained_sweeps": cfg.retained_draws,
            "rejections": rejections,
            "min_ess": min(v["ess"] for v in diagnostics.values()),
        },
    )
    _check_support(samples, spec)
    return samples


def _check_support(samples: PosteriorSamples, spec: ModelSpec) -> None:
    """Raise SamplerError if any retained draw lies outside the prior support."""
    if not np.all(in_support(samples.draws, spec)):
        raise SamplerError("retained draws outside the prior support")
