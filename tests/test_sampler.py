"""Blocked Gibbs sampler: conditionals against the reference density, the
bivariate draw, the rejection cap and the fused chain against the reference
chain built from the helpers."""

import math
import re

import numpy as np
import pytest

from heavecast import sampler
from heavecast.datasets import HorizonDataset
from heavecast.model import X_FLOOR, ModelSpec, PriorSet, log_posterior
from heavecast.sampler import MAX_REJECTIONS, SamplerConfig, SamplerError, _Conditionals, _run_chain, fit
from sampler_reference import _form, _gaussian2, _precision, _quadratic, _truncated, run_chain

T0 = np.datetime64("2024-06-01T00:00:00", "s")
HOUR = np.timedelta64(1, "h")


def gappy_dataset(n, seed):
    """Hourly rows with a few gaps and some forecasts below X_FLOOR."""
    rng = np.random.default_rng(seed)
    x = np.abs(1.2 + 0.8 * np.sin(np.arange(n) / 30.0) + 0.3 * rng.standard_normal(n))
    x[rng.choice(n, max(1, n // 40), replace=False)] = 0.5 * X_FLOOR
    eps = np.zeros(n)
    for t in range(n):
        eps[t] = 0.5 * eps[t - 1] + 0.2 * eps[t - 2] + 0.05 * max(x[t], X_FLOOR) * rng.standard_normal()
    steps = np.ones(n, dtype=int)
    steps[rng.choice(np.arange(1, n), max(1, n // 100), replace=False)] = 3
    times = T0 + np.cumsum(steps) * HOUR
    return HorizonDataset(horizon=0, valid_times=times, x=x, y=0.1 + 0.9 * x + eps, issue_times=np.full(n, T0))


def state(kind, rng):
    """A random parameter vector near the data's values, where log_posterior
    is small enough for its rounding to stay far below the prior's terms."""
    beta0, beta1 = rng.normal(0.1, 0.01), rng.normal(0.9, 0.01)
    if kind == "basic":
        return [beta0, beta1, rng.uniform(0.05, 0.1)]
    return [beta0, beta1, rng.uniform(0.3, 0.6), rng.uniform(0.0, 0.3), rng.uniform(0.04, 0.08)]


def centred(cond, beta0, beta1):
    """(a, d), the coordinates the beta block is drawn in."""
    return beta0 + beta1 * cond.x_mean - cond.y_mean, beta1 - cond.slope


def gaussian_log_density(p, x1, x2):
    """-x'Px/2 + h'x for p = (P11, P12, P22, h1, h2)."""
    p11, p12, p22, h1, h2 = p
    return -0.5 * (p11 * x1 * x1 + 2.0 * p12 * x1 * x2 + p22 * x2 * x2) + h1 * x1 + h2 * x2


def assert_constant(diffs, refs):
    """The differences agree within 1e-9 relative to the log posterior's size."""
    assert np.ptp(diffs) <= 1e-9 * max(1.0, np.max(np.abs(refs))), np.ptp(diffs)


# n = 20000 is the large-N case the centred coordinates exist for: rows with
# x below the floor weigh up to 1/X_FLOOR^2 in the Gram matrix
SIZES = [10, 57, 3428, 20000]
CASES = [(kind, n) for kind in ("basic", "hybrid") for n in SIZES]


class TestConditionalsOracle:
    """log_posterior minus a block's conditional log-density does not depend on the block."""

    @pytest.mark.parametrize("kind,n", CASES)
    def test_beta_block(self, kind, n):
        priors = PriorSet(beta0_mean=0.3, beta0_var=0.01, beta1_mean=0.7, beta1_var=0.02)
        spec = ModelSpec(kind=kind, priors=priors)
        ds = gappy_dataset(n, seed=n)
        cond = _Conditionals(ds, spec)
        rng = np.random.default_rng(1)
        for _ in range(5):
            params = state(kind, rng)
            sigma = params[-1]
            phi = params[2:4] if kind == "hybrid" else (0.0, 0.0)
            p = _precision(_form(cond.beta_terms, -phi[0], -phi[1]), sigma**2, cond.beta_prior)
            refs, diffs = [], []
            for beta0, beta1 in zip(rng.normal(0.1, 0.01, 8), rng.uniform(0.88, 0.92, 8)):
                params[0], params[1] = beta0, beta1
                refs.append(log_posterior(np.array(params), ds, spec))
                diffs.append(refs[-1] - gaussian_log_density(p, *centred(cond, beta0, beta1)))
            assert_constant(diffs, refs)

    @pytest.mark.parametrize("n", SIZES)
    def test_phi_block(self, n):
        spec = ModelSpec(kind="hybrid", priors=PriorSet(phi_sd=0.4))
        ds = gappy_dataset(n, seed=n + 1)
        cond = _Conditionals(ds, spec)
        rng = np.random.default_rng(2)
        for _ in range(5):
            params = state("hybrid", rng)
            q = _form(cond.phi_terms, *centred(cond, params[0], params[1]))
            p = _precision(q, params[-1] ** 2, cond.phi_prior)
            refs, diffs = [], []
            for phi1, phi2 in zip(rng.uniform(-0.9, 0.9, 8), rng.uniform(-0.8, 0.05, 8)):
                params[2], params[3] = phi1, phi2
                refs.append(log_posterior(np.array(params), ds, spec))
                diffs.append(refs[-1] - gaussian_log_density(p, -phi1, -phi2))
            assert_constant(diffs, refs)

    @pytest.mark.parametrize("kind,n", CASES)
    def test_sigma_block(self, kind, n):
        # sigma | rest has log density -N log sigma - S / (2 sigma^2) minus the
        # half-Gaussian prior's sigma^2 / (2 scale^2)
        spec = ModelSpec(kind=kind, priors=PriorSet(sigma_scale=0.2))
        ds = gappy_dataset(n, seed=n + 2)
        cond = _Conditionals(ds, spec)
        rng = np.random.default_rng(3)
        for _ in range(5):
            params = state(kind, rng)
            phi = params[2:4] if kind == "hybrid" else (0.0, 0.0)
            ss = _quadratic(_form(cond.phi_terms, *centred(cond, params[0], params[1])), -phi[0], -phi[1])
            refs, diffs = [], []
            for sigma in rng.uniform(0.03, 0.2, 8):
                params[-1] = sigma
                refs.append(log_posterior(np.array(params), ds, spec))
                conditional = -n * math.log(sigma) - 0.5 * ss / sigma**2 - 0.5 * (sigma / 0.2) ** 2
                diffs.append(refs[-1] - conditional)
            assert_constant(diffs, refs)


class TestGaussian2:
    P = (4.0, 1.5, 2.0, 1.0, -2.0)

    def test_mean_and_covariance_exact(self):
        # the draw is affine in the normals: x(0) = P^-1 h and the columns of
        # x(e_k) - x(0) are a square root of P^-1
        prec = np.array([[4.0, 1.5], [1.5, 2.0]])
        mean = np.array(_gaussian2(*self.P, 0.0, 0.0))
        np.testing.assert_allclose(mean, np.linalg.solve(prec, [1.0, -2.0]), rtol=1e-14)
        root = np.column_stack([np.array(_gaussian2(*self.P, *e)) - mean for e in ((1.0, 0.0), (0.0, 1.0))])
        np.testing.assert_allclose(root @ root.T, np.linalg.inv(prec), rtol=1e-13)

    def test_sample_moments(self):
        prec = np.array([[4.0, 1.5], [1.5, 2.0]])
        z = np.random.default_rng(5).standard_normal((20000, 2)).tolist()
        x = np.array([_gaussian2(*self.P, z1, z2) for z1, z2 in z])
        cov = np.linalg.inv(prec)
        se = np.sqrt(np.diag(cov) / len(x))
        np.testing.assert_array_less(np.abs(x.mean(axis=0) - cov @ [1.0, -2.0]), 4.0 * se)
        np.testing.assert_allclose(np.cov(x.T), cov, rtol=0.05, atol=0.01 * cov[0, 0])

    def test_not_positive_definite(self):
        with pytest.raises(SamplerError, match="positive definite"):
            _gaussian2(1.0, 2.0, 1.0, 0.0, 0.0, 0.1, 0.1)
        with pytest.raises(SamplerError, match="positive definite"):
            _gaussian2(float("nan"), 0.0, 1.0, 0.0, 0.0, 0.1, 0.1)


class TestRejectionCap:
    def test_truncated_gives_up(self):
        rng = np.random.default_rng(6)
        with pytest.raises(SamplerError, match=f"rejected {MAX_REJECTIONS} draws in a row"):
            _truncated((1.0, 0.0, 1.0, 0.0, 0.0), 0.0, 0.0, lambda x1, x2: False, rng)

    def test_truncated_counts_redraws(self):
        rng = np.random.default_rng(7)
        x1, _, rejected = _truncated((1.0, 0.0, 1.0, 0.0, 0.0), -1.0, 0.0, lambda x1, x2: x1 > 0.0, rng)
        assert x1 > 0.0 and rejected >= 1

    def test_fit_with_prior_outside_support(self):
        # a beta1 prior packed far below zero leaves the beta block no mass above it
        spec = ModelSpec(kind="basic", priors=PriorSet(beta1_mean=-5.0, beta1_var=1e-6))
        message = f"truncated block rejected {MAX_REJECTIONS} draws in a row"
        with pytest.raises(SamplerError, match=f"^{re.escape(message)}$"):
            fit(gappy_dataset(200, seed=8), spec, SamplerConfig(chains=1, warmup_draws=100, retained_draws=100))


class TestFitFacts:
    def test_facts_and_rates(self):
        cfg = SamplerConfig(chains=2, warmup_draws=200, retained_draws=300)
        samples = fit(gappy_dataset(400, seed=9), ModelSpec(kind="hybrid"), cfg, seed=1)
        facts = samples.sampler_facts
        assert facts["burn_in_sweeps"] == 200 and facts["retained_sweeps"] == 300
        assert set(facts["rejections"]) == {"beta", "phi"}
        assert facts["min_ess"] == min(v["ess"] for v in samples.diagnostics.values())
        assert 0.5 < samples.acceptance_rate <= 1.0
        assert samples.draws.shape == (600, 5)


# a tight beta1 prior at 0 puts half the beta block's mass below beta1 = 0, and
# on 20 rows a wide phi prior puts much of the phi block's outside the triangle
REDRAWS = PriorSet(beta1_mean=0.0, beta1_var=1e-6, phi_sd=10.0)


class TestFusedChain:
    """sampler._run_chain against the reference chain of sampler_reference, bit for bit."""

    @pytest.mark.parametrize("kind", ["basic", "hybrid"])
    @pytest.mark.parametrize("n,priors", [(400, PriorSet()), (3428, PriorSet()), (20, REDRAWS)], ids=["400", "3428", "redraws"])
    def test_same_draws_and_counts(self, kind, n, priors):
        ds = gappy_dataset(n, seed=n + 3)
        assert np.any(ds.x < X_FLOOR)
        cond = _Conditionals(ds, ModelSpec(kind=kind, priors=priors))
        cfg = SamplerConfig(chains=1, warmup_draws=300, retained_draws=200)
        hybrid = kind == "hybrid"
        draws, *counts = _run_chain(cond, cfg, hybrid, np.random.default_rng(n))
        ref_draws, *ref_counts = run_chain(cond, cfg, hybrid, np.random.default_rng(n))
        assert draws.shape == ref_draws.shape == (200, 5 if hybrid else 3)
        assert draws.tobytes() == ref_draws.tobytes()
        assert counts == ref_counts
        if priors is REDRAWS:
            _, beta_rejected, phi_rejected = counts
            assert beta_rejected > 0 and (phi_rejected > 0 or not hybrid)


def with_conditionals(monkeypatch, **attrs):
    """Have fit build _Conditionals whose given attributes are replaced."""

    class Patched(_Conditionals):
        def __init__(self, ds, spec):
            super().__init__(ds, spec)
            for name, value in attrs.items():
                setattr(self, name, value)

    monkeypatch.setattr(sampler, "_Conditionals", Patched)


class TestFitErrors:
    """The fused loop's checks raise through fit with the reference helpers' messages."""

    CFG = SamplerConfig(chains=1, warmup_draws=100, retained_draws=100)

    @pytest.mark.parametrize("block", ["beta_prior", "phi_prior"])
    @pytest.mark.parametrize("prior", [(math.nan, 0.0, 1.0, 0.0, 0.0), (1.0, math.nan, 1.0, 0.0, 0.0)], ids=["p11", "pivot"])
    def test_not_positive_definite(self, monkeypatch, block, prior):
        with_conditionals(monkeypatch, **{block: prior})
        with pytest.raises(SamplerError, match="^conditional precision is not positive definite$"):
            fit(gappy_dataset(200, seed=10), ModelSpec(kind="hybrid"), self.CFG)

    def test_phi_block_gives_up(self, monkeypatch):
        # a prior packed at phi1 = -10, far outside the stationarity triangle
        with_conditionals(monkeypatch, phi_prior=(1e6, 0.0, 1e6, 1e7, 0.0))
        message = f"truncated block rejected {MAX_REJECTIONS} draws in a row"
        with pytest.raises(SamplerError, match=f"^{re.escape(message)}$"):
            fit(gappy_dataset(200, seed=11), ModelSpec(kind="hybrid"), self.CFG)
