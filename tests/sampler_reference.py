"""The Gibbs sweep of heavecast.sampler written as small helpers.

sampler._run_chain fuses one sweep into a single loop over local floats.
These helpers spell out its steps one at a time (the quadratic form of a
block, its precision and linear term, the bivariate Gaussian draw, the
truncated redraws and the sum of squares), and run_chain strings them
together in the same order with the same floating-point operations, so the
fused loop must reproduce its draws and counts bit for bit. The conditional
tests check the helpers against model.log_posterior.
"""

from __future__ import annotations

import math

import numpy as np

from heavecast.io import SamplerConfig
from heavecast.model import ar2_stationary
from heavecast.sampler import MAX_REJECTIONS, SamplerError, _Conditionals


def _form(terms: tuple, v1: float, v2: float) -> tuple:
    """Upper entries of a 3x3 matrix whose entries are quadratic in (v1, v2); terms
    holds, per entry of sampler._UPPER, the coefficients of 1, v1, v2, v1^2, v1 v2 and v2^2."""
    m11, m12, m22 = v1 * v1, v1 * v2, v2 * v2
    return tuple(t0 + t1 * v1 + t2 * v2 + t3 * m11 + t4 * m12 + t5 * m22 for t0, t1, t2, t3, t4, t5 in terms)


def _quadratic(q: tuple, x1: float, x2: float) -> float:
    """v' Q v for v = (1, x1, x2), Q given by its upper entries."""
    q00, q01, q02, q11, q12, q22 = q
    return q00 + 2.0 * (x1 * q01 + x2 * q02 + x1 * x2 * q12) + x1 * x1 * q11 + x2 * x2 * q22


def _gaussian2(p11: float, p12: float, p22: float, h1: float, h2: float, z1: float, z2: float):
    """A draw from the density proportional to exp(-x'Px/2 + h'x) from two standard normals.

    With P = LL', x = L'^-1 (L^-1 h + z) has mean P^-1 h and covariance P^-1.
    """
    if not p11 > 0.0:
        raise SamplerError("conditional precision is not positive definite")
    l11 = math.sqrt(p11)
    l21 = p12 / l11
    pivot = p22 - l21 * l21
    if not pivot > 0.0:
        raise SamplerError("conditional precision is not positive definite")
    l22 = math.sqrt(pivot)
    y1 = h1 / l11
    x2 = ((h2 - l21 * y1) / l22 + z2) / l22
    return (y1 + z1 - l21 * x2) / l11, x2


def _precision(q: tuple, sigma2: float, prior: tuple) -> tuple:
    """(P11, P12, P22, h1, h2) of the block whose form is q, given sigma^2 and the block's prior."""
    p11, p12, p22, h1, h2 = prior
    return q[3] / sigma2 + p11, q[4] / sigma2 + p12, q[5] / sigma2 + p22, h1 - q[1] / sigma2, h2 - q[2] / sigma2


def _truncated(p: tuple, z1: float, z2: float, inside, rng: np.random.Generator) -> tuple[float, float, int]:
    """A _gaussian2 draw redrawn until inside(x1, x2), with the redraw count."""
    x1, x2 = _gaussian2(*p, z1, z2)
    rejected = 0
    while not inside(x1, x2):
        rejected += 1
        if rejected == MAX_REJECTIONS:
            raise SamplerError(f"truncated block rejected {MAX_REJECTIONS} draws in a row")
        z1, z2 = rng.standard_normal(2).tolist()
        x1, x2 = _gaussian2(*p, z1, z2)
    return x1, x2, rejected


def run_chain(cond: _Conditionals, cfg: SamplerConfig, hybrid: bool, rng: np.random.Generator):
    """One chain of Gibbs sweeps, returned as sampler._run_chain returns it."""
    sweeps = cfg.warmup_draws + cfg.retained_draws
    normals = rng.standard_normal((sweeps, 4)).tolist()
    gammas = rng.standard_gamma(0.5 * (cond.n - 1), sweeps).tolist()
    log_u = np.log(rng.random(sweeps)).tolist()
    half_inv_scale2 = 0.5 / cond.sigma_scale**2
    x_mean, y_mean, slope = cond.x_mean, cond.y_mean, cond.slope
    phi1 = phi2 = 0.0
    sigma2 = cond.sigma_start**2
    draws = []
    accepted = beta_rejected = phi_rejected = 0
    for i, (z1, z2, z3, z4) in enumerate(normals):
        p = _precision(_form(cond.beta_terms, -phi1, -phi2), sigma2, cond.beta_prior)
        a, d, rejected = _truncated(p, z1, z2, lambda a, d: d + slope > 0.0, rng)
        beta_rejected += rejected
        q = _form(cond.phi_terms, a, d)
        if hybrid:
            p = _precision(q, sigma2, cond.phi_prior)
            c1, c2, rejected = _truncated(p, z3, z4, lambda c1, c2: ar2_stationary(-c1, -c2), rng)
            phi_rejected += rejected
            phi1, phi2 = -c1, -c2
        ss = _quadratic(q, -phi1, -phi2)
        if not ss > 0.0:
            raise SamplerError("weighted sum of squared innovations is not positive")
        proposal = 0.5 * ss / gammas[i]
        if log_u[i] < (sigma2 - proposal) * half_inv_scale2:
            sigma2 = proposal
            accepted += 1
        if i >= cfg.warmup_draws:
            beta1 = d + slope
            draws.append((a - beta1 * x_mean + y_mean, beta1, phi1, phi2, math.sqrt(sigma2)))
    draws = np.array(draws)
    return (draws if hybrid else draws[:, [0, 1, 4]]), accepted, beta_rejected, phi_rejected
