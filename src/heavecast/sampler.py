"""Blocked Gibbs sampler for the adjustment models.

The noise weights w_t = noise_weights(x_t) are fixed, so the hybrid model is a
regression with AR(2) errors (Chib 1993, J. Econometrics 58, "Bayes
regression with autoregressive errors: a Gibbs sampling approach") whose
blocks have closed-form full conditionals. One sweep draws

* (beta0, beta1) | phi, sigma from a bivariate Gaussian, redrawn until
  beta1 > 0;
* (phi1, phi2) | beta, sigma from a bivariate Gaussian, redrawn until it lies
  in the AR(2) stationarity triangle (hybrid only: ModelSpec.ar2);
* sigma | beta, phi by independence Metropolis-Hastings: 1/sigma^2 is
  proposed from Gamma((N - 1)/2, rate S/2), S the weighted sum of squared
  innovations, and accepted by the half-Gaussian prior's density ratio alone.

The conditionals come from one Gram matrix of the training rows, built once
by _Conditionals, so a sweep costs the same whatever the training-set size.
Under cli's floating-point policy a Gram matrix that overflows raises
FloatingPointError; under numpy's defaults it warns, and SamplerError follows.
_run_chain is the sweep, written out on local floats: each block's quadratic
form, its conditional precision and linear term, their 2x2 Cholesky factor
and the block's first draw, then the sum of squares and the sigma step.
A block whose first draw falls outside its support (beta1 > 0; each phi draw
is tested by model.ar2_stationary, the one definition of the triangle) goes
to _redraw, which redraws it from fresh normals; after MAX_REJECTIONS draws
in a row outside, it raises SamplerError. The tests drive _run_chain with
scripted numbers and check each block's conditional against
model.log_posterior.

Chains are independent. Each has its own Generator spawned from the fit
seed, an int or a tuple of ints (the entropy numpy's SeedSequence takes;
cli's fit passes the tuple io.STREAMS["fit"] gives), which draws the
chain's normals, gammas and uniforms up front (and further normals only
when a truncated block rejects), so results are reproducible bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .io import HorizonDataset, SamplerConfig
from .model import ModelSpec, PosteriorSamples, _lagged, ar2_stationary, in_support, noise_weights

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
    S = sum_t (u_t / w_t)^2 = v'Gv with v = c (x) b, w = model.noise_weights(x)
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
        if spec.ar2:
            block = np.concatenate([block, *_lagged(block, ds.post_gap)]) / noise_weights(ds.x)  # (9, N)
        gram = np.zeros((9, 9))
        gram[: len(block), : len(block)] = block @ block.T
        # products v_i v_j of v = (1, v1, v2) over the monomials 1, v1, v2, v1^2, v1 v2, v2^2
        mono = np.zeros((3, 3, 6))
        for m, (i, j) in enumerate(_UPPER):
            mono[i, j, m] = mono[j, i, m] = 1.0
        g4 = gram.reshape(3, 3, 3, 3)
        beta_terms = np.einsum("lkmn,lmp->knp", g4, mono)
        phi_terms = np.einsum("lkmn,knp->lmp", g4, mono)
        # the start: phi = 0, and sigma the weighted RMS residual of the least-squares line (a = d = 0)
        self.sigma_start = max(math.sqrt(gram[0, 0] / self.n), 1e-4)
        self.beta_terms = tuple(tuple(beta_terms[i, j].tolist()) for i, j in _UPPER)
        self.phi_terms = tuple(tuple(phi_terms[i, j].tolist()) for i, j in _UPPER)
        # beta0 - beta0_mean = a - x_mean * d + e0 and beta1 - beta1_mean = d + e1
        e0 = self.y_mean - self.slope * self.x_mean - pr.beta0_mean
        e1 = self.slope - pr.beta1_mean
        v0, v1, xm = pr.beta0_var, pr.beta1_var, self.x_mean
        self.beta_prior = (1.0 / v0, -xm / v0, xm * xm / v0 + 1.0 / v1, -e0 / v0, xm * e0 / v0 - e1 / v1)
        self.phi_prior = (pr.phi_sd**-2, 0.0, pr.phi_sd**-2, 0.0, 0.0)


def _redraw(l11: float, l21: float, l22: float, y1: float, y2: float, inside, rng: np.random.Generator) -> tuple:
    """Redraw a truncated block whose first draw fell outside its support.

    The block has the density proportional to exp(-x'Px/2 + h'x) restricted
    to inside(x1, x2), with P = LL' (L lower triangular, entries l11, l21,
    l22) and (y1, y2) = L^-1 h. Each redraw is x = L'^-1 (y + z), z two fresh
    standard normals from rng, as _run_chain draws the first. Returns x1, x2
    and the number of draws rejected, the first one included; raises
    SamplerError when MAX_REJECTIONS draws in a row fall outside.
    """
    rejected = 1
    while rejected < MAX_REJECTIONS:
        z1, z2 = rng.standard_normal(2).tolist()
        x2 = (y2 + z2) / l22
        x1 = (y1 + z1 - l21 * x2) / l11
        if inside(x1, x2):
            return x1, x2, rejected
        rejected += 1
    raise SamplerError(_STUCK)


def _run_chain(cond: _Conditionals, cfg: SamplerConfig, ar2: bool, rng: np.random.Generator):
    """One chain of Gibbs sweeps, with the phi block when ar2 is true.

    Returns the retained (beta0, beta1, phi1, phi2, sigma) draws, less the
    phi columns without ar2, the number of accepted sigma proposals
    over all sweeps and the redraws of the beta and phi blocks.
    """
    sweeps = cfg.warmup_draws + cfg.retained_draws
    normals = rng.standard_normal((sweeps, 4)).tolist()
    gammas = rng.standard_gamma(0.5 * (cond.n - 1), sweeps).tolist()
    log_us = np.log(rng.random(sweeps)).tolist()
    sqrt, stationary = math.sqrt, ar2_stationary
    half_inv_scale2 = 0.5 / cond.sigma_scale**2
    slope = cond.slope
    # per entry of a block's form, the coefficients of 1, v1, v2, v1^2, v1 v2
    # and v2^2 (see _Conditionals): the beta form's q1-q5 (its q0 is not
    # read) and the phi form's q0-q5
    (_, (b10, b11, b12, b13, b14, b15), (b20, b21, b22, b23, b24, b25), (b30, b31, b32, b33, b34, b35),
     (b40, b41, b42, b43, b44, b45), (b50, b51, b52, b53, b54, b55)) = cond.beta_terms
    ((f00, f01, f02, f03, f04, f05), (f10, f11, f12, f13, f14, f15), (f20, f21, f22, f23, f24, f25),
     (f30, f31, f32, f33, f34, f35), (f40, f41, f42, f43, f44, f45), (f50, f51, f52, f53, f54, f55)) = cond.phi_terms
    bp11, bp12, bp22, bh1, bh2 = cond.beta_prior
    fp11, fp12, fp22, fh1, fh2 = cond.phi_prior

    def beta_inside(a, d):
        return d + slope > 0.0

    def phi_inside(c1, c2):
        return stationary(-c1, -c2)

    # the phi block is drawn as (c1, c2) = (-phi1, -phi2); phi starts at 0
    phi1 = phi2 = 0.0
    c1, c2 = -phi1, -phi2
    sigma2 = cond.sigma_start**2
    states = []
    accepted = beta_rejected = phi_rejected = 0
    for (z1, z2, z3, z4), gamma, log_u in zip(normals, gammas, log_us):
        # beta block, drawn as (a, d): its form at (c1, c2) gives, with sigma,
        # its precision P and linear term h; with P = LL' and y = L^-1 h the
        # draw is L'^-1 (y + z)
        m11, m12, m22 = c1 * c1, c1 * c2, c2 * c2
        q1 = b10 + b11 * c1 + b12 * c2 + b13 * m11 + b14 * m12 + b15 * m22
        q2 = b20 + b21 * c1 + b22 * c2 + b23 * m11 + b24 * m12 + b25 * m22
        q3 = b30 + b31 * c1 + b32 * c2 + b33 * m11 + b34 * m12 + b35 * m22
        q4 = b40 + b41 * c1 + b42 * c2 + b43 * m11 + b44 * m12 + b45 * m22
        q5 = b50 + b51 * c1 + b52 * c2 + b53 * m11 + b54 * m12 + b55 * m22
        p11 = q3 / sigma2 + bp11
        if not p11 > 0.0:
            raise SamplerError(_NOT_POSITIVE_DEFINITE)
        l11 = sqrt(p11)
        l21 = (q4 / sigma2 + bp12) / l11
        pivot = q5 / sigma2 + bp22 - l21 * l21
        if not pivot > 0.0:
            raise SamplerError(_NOT_POSITIVE_DEFINITE)
        l22 = sqrt(pivot)
        y1 = (bh1 - q1 / sigma2) / l11
        y2 = (bh2 - q2 / sigma2 - l21 * y1) / l22
        d = (y2 + z2) / l22
        a = (y1 + z1 - l21 * d) / l11
        if not d + slope > 0.0:
            a, d, rejected = _redraw(l11, l21, l22, y1, y2, beta_inside, rng)
            beta_rejected += rejected

        # phi block: its form at (a, d), which also gives the sum of squares
        m11, m12, m22 = a * a, a * d, d * d
        q0 = f00 + f01 * a + f02 * d + f03 * m11 + f04 * m12 + f05 * m22
        q1 = f10 + f11 * a + f12 * d + f13 * m11 + f14 * m12 + f15 * m22
        q2 = f20 + f21 * a + f22 * d + f23 * m11 + f24 * m12 + f25 * m22
        q3 = f30 + f31 * a + f32 * d + f33 * m11 + f34 * m12 + f35 * m22
        q4 = f40 + f41 * a + f42 * d + f43 * m11 + f44 * m12 + f45 * m22
        q5 = f50 + f51 * a + f52 * d + f53 * m11 + f54 * m12 + f55 * m22
        if ar2:
            p11 = q3 / sigma2 + fp11
            if not p11 > 0.0:
                raise SamplerError(_NOT_POSITIVE_DEFINITE)
            l11 = sqrt(p11)
            l21 = (q4 / sigma2 + fp12) / l11
            pivot = q5 / sigma2 + fp22 - l21 * l21
            if not pivot > 0.0:
                raise SamplerError(_NOT_POSITIVE_DEFINITE)
            l22 = sqrt(pivot)
            y1 = (fh1 - q1 / sigma2) / l11
            y2 = (fh2 - q2 / sigma2 - l21 * y1) / l22
            c2 = (y2 + z4) / l22
            c1 = (y1 + z3 - l21 * c2) / l11
            if not stationary(-c1, -c2):
                c1, c2, rejected = _redraw(l11, l21, l22, y1, y2, phi_inside, rng)
                phi_rejected += rejected

        # sigma by independence MH: S = v'Qv at v = (1, c1, c2)
        ss = q0 + 2.0 * (c1 * q1 + c2 * q2 + c1 * c2 * q4) + c1 * c1 * q3 + c2 * c2 * q5
        if not ss > 0.0:
            raise SamplerError("weighted sum of squared innovations is not positive")
        proposal = 0.5 * ss / gamma
        if log_u < (sigma2 - proposal) * half_inv_scale2:
            sigma2 = proposal
            accepted += 1
        states.append((a, d, c1, c2, sigma2))
    # the retained states back to (beta0, beta1, phi1, phi2, sigma), by the operations a sweep would use
    a, d, c1, c2, sigma2 = np.array(states[cfg.warmup_draws :]).T
    beta1 = d + slope
    beta0 = a - beta1 * cond.x_mean + cond.y_mean
    columns = [beta0, beta1, -c1, -c2, np.sqrt(sigma2)] if ar2 else [beta0, beta1, np.sqrt(sigma2)]
    return np.column_stack(columns), accepted, beta_rejected, phi_rejected


def fit(
    ds: HorizonDataset, spec: ModelSpec, cfg: SamplerConfig | None = None, seed: int | tuple[int, ...] = 0
) -> PosteriorSamples:
    """Draw posterior samples for the model on the training rows of ds.

    Runs cfg.chains independent chains, each on its own stream spawned from
    seed (an int or a tuple of ints), and pools the retained draws. Raises
    SamplerError when the split potential-scale-reduction statistic of any
    parameter exceeds cfg.rhat_limit.
    """
    if cfg is None:
        cfg = SamplerConfig()
    if len(ds) < 3 + spec.n_params:
        raise ValueError(f"{len(ds)} training rows, at least {3 + spec.n_params} needed for the {spec.kind} model")
    cond = _Conditionals(ds, spec)
    streams = np.random.SeedSequence(seed).spawn(cfg.chains)
    runs = [_run_chain(cond, cfg, spec.ar2, np.random.default_rng(s)) for s in streams]
    per_chain, accepted, beta_rejected, phi_rejected = zip(*runs)

    stacked = np.stack(per_chain)  # (chains, draws, params)
    diagnostics = {
        name: {"rhat": rhat(stacked[:, :, j]), "ess": ess(stacked[:, :, j])} for j, name in enumerate(spec.param_names)
    }
    bad = {k: v["rhat"] for k, v in diagnostics.items() if v["rhat"] > cfg.rhat_limit}
    if bad:
        raise SamplerError(f"chains not converged, rhat over limit: {bad}")

    rejections = {"beta": sum(beta_rejected)}
    if spec.ar2:
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
