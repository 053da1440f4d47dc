"""Blocked Gibbs sampler: each block's conditional, read from _run_chain
itself, against the reference density; the bivariate draw, the rejection cap,
the redraws of one chain, its centre against the posterior mode and its
draws against digests.

The conditional tests run _run_chain on scripted numbers: Script stands in
for the chain's Generator and no_warmup for its config, so a chain of two
sweeps retains both. A block's draw is affine in its sweep's two normals,
so runs that differ only in those normals give the block's conditional mean
(normals 0) and a square root of its covariance (the steps along each
normal), at the state the sweep before left."""

import hashlib
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

from heavecast import sampler
from heavecast.datasets import HorizonDataset
from heavecast.model import X_FLOOR, ModelSpec, PriorSet, in_support, log_posterior
from heavecast.sampler import MAX_REJECTIONS, SamplerConfig, SamplerError, _Conditionals, _run_chain, fit

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


def centred(cond, beta0, beta1):
    """(a, d), the coordinates the beta block is drawn in."""
    return beta0 + beta1 * cond.x_mean - cond.y_mean, beta1 - cond.slope


class Script:
    """A stand-in for a chain's Generator that hands out given numbers.

    normals holds each sweep's four standard normals, gammas and uniforms
    one number per sweep, and each redraw takes the next pair of fresh.
    """

    def __init__(self, normals, gammas, uniforms, fresh=()):
        self.normals, self.gammas, self.uniforms = normals, gammas, uniforms
        self.fresh = list(fresh)
        self.redraws = 0

    def standard_normal(self, size):
        if size == 2:
            assert self.redraws < len(self.fresh), "a block redrew past its scripted normals"
            self.redraws += 1
            return np.array(self.fresh[self.redraws - 1], dtype=float)
        assert size == (len(self.normals), 4)
        return np.array(self.normals, dtype=float)

    def standard_gamma(self, shape, size):
        assert size == len(self.gammas)
        return np.array(self.gammas, dtype=float)

    def random(self, size):
        assert size == len(self.uniforms)
        return np.array(self.uniforms, dtype=float)


def no_warmup(sweeps):
    """A config for _run_chain that retains each of its sweeps (SamplerConfig asks for at least 100 of each kind)."""
    return SimpleNamespace(warmup_draws=0, retained_draws=sweeps)


# log(1e-300) is below any log acceptance ratio here, so each sigma proposal is accepted
ACCEPT = 1e-300
# the steps along each normal are read at this length, short enough for the
# phi draws of 10 rows to stay inside the triangle
STEP = 0.1


def gaussian_log_density(mean, root, x):
    """-(x - mean)'C^-1(x - mean)/2 for the covariance C = root root'."""
    r = np.linalg.solve(root, np.asarray(x) - mean)
    return -0.5 * float(r @ r)


def assert_constant(diffs, refs):
    """The differences agree within 1e-9 relative to the log posterior's size."""
    assert np.ptp(diffs) <= 1e-9 * max(1.0, np.max(np.abs(refs))), np.ptp(diffs)


# n = 20000 is the large-N case the centred coordinates exist for: rows with
# x below the floor weigh up to 1/X_FLOOR^2 in the Gram matrix
SIZES = [10, 57, 3428, 20000]
CASES = [(kind, n) for kind in ("basic", "hybrid") for n in SIZES]


class TwoSweeps:
    """Chains of two sweeps on one dataset that share a random first sweep.

    The first sweep's normals and gamma are drawn from rng, so it leaves a
    random state; the second sweep takes the given normals and the gamma
    (N - 1)/2. Both sweeps accept their sigma proposals.
    """

    def __init__(self, ds, spec, rng):
        self.cond = _Conditionals(ds, spec)
        self.hybrid = spec.kind == "hybrid"
        self.gammas = [rng.standard_gamma(0.5 * (len(ds) - 1)), 0.5 * (len(ds) - 1)]
        self.first = rng.uniform(-1.0, 1.0, 4).tolist()

    def run(self, second=(0.0, 0.0, 0.0, 0.0)):
        """Both sweeps' draws, as (beta0, beta1, phi1, phi2, sigma) rows with phi = 0 for the basic model."""
        rng = Script([self.first, list(second)], self.gammas, [ACCEPT, ACCEPT])
        draws, accepted, _, _ = _run_chain(self.cond, no_warmup(2), self.hybrid, rng)
        assert accepted == 2
        return draws if self.hybrid else np.insert(draws, [2, 2], 0.0, axis=1)

    def block(self, first_normal, coordinates):
        """The second sweep's conditional mean of a block and a square root of
        its covariance, in coordinates(row) of its draw."""
        steps = [np.eye(4)[first_normal + k] * STEP for k in (0, 1)]
        mean = np.asarray(coordinates(self.run()[1]))
        root = np.column_stack([(np.asarray(coordinates(self.run(z)[1])) - mean) / STEP for z in steps])
        return mean, root


class TestConditionalsOracle:
    """log_posterior minus a block's conditional log-density, read from
    _run_chain's draws, does not depend on the block."""

    @pytest.mark.parametrize("kind,n", CASES)
    def test_beta_block(self, kind, n):
        # the beta block given the first sweep's phi and sigma
        priors = PriorSet(beta0_mean=0.3, beta0_var=0.01, beta1_mean=0.7, beta1_var=0.02)
        spec = ModelSpec(kind=kind, priors=priors)
        ds = gappy_dataset(n, seed=n)
        rng = np.random.default_rng(1)
        for _ in range(5):
            chain = TwoSweeps(ds, spec, rng)
            state = chain.run()[0]
            mean, root = chain.block(0, lambda row: centred(chain.cond, row[0], row[1]))
            refs, diffs = [], []
            for beta0, beta1 in zip(rng.normal(0.1, 0.01, 8), rng.uniform(0.88, 0.92, 8)):
                params = [beta0, beta1, *state[2:4], state[4]] if kind == "hybrid" else [beta0, beta1, state[4]]
                refs.append(log_posterior(np.array(params), ds, spec))
                diffs.append(refs[-1] - gaussian_log_density(mean, root, centred(chain.cond, beta0, beta1)))
            assert_constant(diffs, refs)

    @pytest.mark.parametrize("n", SIZES)
    def test_phi_block(self, n):
        # the phi block given the second sweep's beta and the first sweep's sigma
        spec = ModelSpec(kind="hybrid", priors=PriorSet(phi_sd=0.4))
        ds = gappy_dataset(n, seed=n + 1)
        rng = np.random.default_rng(2)
        for _ in range(5):
            chain = TwoSweeps(ds, spec, rng)
            first, second = chain.run()
            beta, sigma = second[:2], first[4]
            mean, root = chain.block(2, lambda row: row[2:4])
            refs, diffs = [], []
            for phi1, phi2 in zip(rng.uniform(-0.9, 0.9, 8), rng.uniform(-0.8, 0.05, 8)):
                refs.append(log_posterior(np.array([*beta, phi1, phi2, sigma]), ds, spec))
                diffs.append(refs[-1] - gaussian_log_density(mean, root, [phi1, phi2]))
            assert_constant(diffs, refs)

    @pytest.mark.parametrize("kind,n", CASES)
    def test_sigma_block(self, kind, n):
        # sigma | rest has log density -N log sigma - S / (2 sigma^2) minus the
        # half-Gaussian prior's sigma^2 / (2 scale^2); the second sweep's
        # accepted proposal is sigma^2 = S / (2 gamma), S at its beta and phi
        spec = ModelSpec(kind=kind, priors=PriorSet(sigma_scale=0.2))
        ds = gappy_dataset(n, seed=n + 2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            chain = TwoSweeps(ds, spec, rng)
            state = chain.run()[1]
            ss = 2.0 * chain.gammas[1] * state[4] ** 2
            params = list(state) if kind == "hybrid" else [state[0], state[1], state[4]]
            refs, diffs = [], []
            for sigma in rng.uniform(0.03, 0.2, 8):
                params[-1] = sigma
                refs.append(log_posterior(np.array(params), ds, spec))
                conditional = -n * math.log(sigma) - 0.5 * ss / sigma**2 - 0.5 * (sigma / 0.2) ** 2
                diffs.append(refs[-1] - conditional)
            assert_constant(diffs, refs)


def flat(beta_prior=(1.0, 0.0, 1.0, 0.0, 0.0), phi_prior=(1.0, 0.0, 1.0, 0.0, 0.0), slope=0.0):
    """Conditionals whose forms are zero but for a sum of squares of 1, so
    each block's precision and linear term are its prior's. With x_mean =
    y_mean = 0 the beta block's draw (a, d) is (beta0, beta1 - slope), and
    the phi block's is (-phi1, -phi2)."""
    zero = (0.0,) * 6
    return SimpleNamespace(
        n=3, sigma_scale=1.0, x_mean=0.0, y_mean=0.0, slope=slope, sigma_start=1.0,
        beta_terms=(zero,) * 6, phi_terms=((1.0, *zero[1:]),) + (zero,) * 5,
        beta_prior=beta_prior, phi_prior=phi_prior,
    )


def one_sweep(cond, normals, fresh=(), hybrid=False):
    """The draw of one scripted sweep, its counts and its Script."""
    rng = Script([normals], [1.0], [0.5], fresh)
    draws, *counts = _run_chain(cond, no_warmup(1), hybrid, rng)
    return draws[0], counts, rng


class TestGaussian2:
    """The beta block's draw from its bivariate Gaussian."""

    P = (4.0, 1.5, 2.0, -1.0, 2.0)
    PREC = np.array([[4.0, 1.5], [1.5, 2.0]])

    def test_mean_and_covariance_exact(self):
        # the draw is affine in the normals: x(0) = P^-1 h and the columns of
        # x(e_k) - x(0) are a square root of P^-1; every draw here has beta1 > 0
        def draw(z1, z2):
            return one_sweep(flat(self.P), [z1, z2, 0.0, 0.0])[0][:2]

        mean = draw(0.0, 0.0)
        np.testing.assert_allclose(mean, np.linalg.solve(self.PREC, [-1.0, 2.0]), rtol=1e-14)
        root = np.column_stack([draw(*e) - mean for e in ((1.0, 0.0), (0.0, 1.0))])
        np.testing.assert_allclose(root @ root.T, np.linalg.inv(self.PREC), rtol=1e-13)

    def test_sample_moments(self):
        # with beta1 = d + 10 the support lies 14 standard deviations away
        cond = flat(self.P, slope=10.0)
        draws, _, beta_rejected, _ = _run_chain(cond, no_warmup(20000), False, np.random.default_rng(5))
        x = draws[:, :2] - [0.0, 10.0]
        cov = np.linalg.inv(self.PREC)
        se = np.sqrt(np.diag(cov) / len(x))
        assert beta_rejected == 0
        np.testing.assert_array_less(np.abs(x.mean(axis=0) - cov @ [-1.0, 2.0]), 4.0 * se)
        np.testing.assert_allclose(np.cov(x.T), cov, rtol=0.05, atol=0.01 * cov[0, 0])

    @pytest.mark.parametrize("prior", [(1.0, 2.0, 1.0, 0.0, 0.0), (math.nan, 0.0, 1.0, 0.0, 0.0)], ids=["pivot", "p11"])
    def test_not_positive_definite(self, prior):
        with pytest.raises(SamplerError, match="^conditional precision is not positive definite$"):
            one_sweep(flat(prior), [0.1, 0.1, 0.0, 0.0])


class TestRejectionCap:
    def test_truncated_gives_up(self):
        # beta1 > 0 would need d > 1e6, 1e6 standard deviations out: the
        # first draw and MAX_REJECTIONS - 1 redraws fall outside
        rng = Script([[0.0] * 4], [1.0], [0.5], [(0.0, 0.0)] * MAX_REJECTIONS)
        message = f"truncated block rejected {MAX_REJECTIONS} draws in a row"
        with pytest.raises(SamplerError, match=f"^{re.escape(message)}$"):
            _run_chain(flat(slope=-1e6), no_warmup(1), False, rng)
        assert rng.redraws == MAX_REJECTIONS - 1

    def test_truncated_counts_redraws(self):
        # each block's first draw falls outside its support, then the beta
        # block takes two redraws and the phi block one; the prior's mean is
        # 0 and its covariance I, so each draw is its normals, the phi block's
        # negated
        fresh = [(0.5, -0.2), (0.7, 0.4), (-0.5, 0.1)]
        draw, counts, rng = one_sweep(flat(), [0.3, -1.0, 2.0, 0.0], fresh, hybrid=True)
        assert counts == [1, 2, 1] and rng.redraws == 3
        np.testing.assert_array_equal(draw[:4], [0.7, 0.4, 0.5, -0.1])

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


class TestRedraws:
    """A chain whose truncated blocks often draw outside the support keeps only draws inside it."""

    @pytest.mark.parametrize("kind", ["basic", "hybrid"])
    def test_chain_redraws_into_the_support(self, kind):
        ds = gappy_dataset(20, seed=23)
        assert np.any(ds.x < X_FLOOR)
        spec = ModelSpec(kind=kind, priors=REDRAWS)
        cond = _Conditionals(ds, spec)
        cfg = SamplerConfig(chains=1, warmup_draws=300, retained_draws=200)
        draws, _, beta_rejected, phi_rejected = _run_chain(cond, cfg, kind == "hybrid", np.random.default_rng(20))
        assert draws.shape == (200, 5 if kind == "hybrid" else 3)
        assert np.all(in_support(draws, spec))
        assert beta_rejected > 0 and (phi_rejected > 0 or kind == "basic")


class TestChain:
    """One chain at the default priors: reproducible from its generator and centred on the posterior mode."""

    @pytest.mark.parametrize("kind", ["basic", "hybrid"])
    @pytest.mark.parametrize("n", [400, 3428])
    def test_chain_centres_on_the_posterior_mode(self, kind, n):
        ds = gappy_dataset(n, seed=n + 3)
        spec = ModelSpec(kind=kind)
        cond = _Conditionals(ds, spec)
        cfg = SamplerConfig(chains=1, warmup_draws=300, retained_draws=200)
        draws, *counts = _run_chain(cond, cfg, kind == "hybrid", np.random.default_rng(n))
        again, *counts_again = _run_chain(cond, cfg, kind == "hybrid", np.random.default_rng(n))
        assert draws.tobytes() == again.tobytes() and counts == counts_again
        assert draws.shape == (200, spec.n_params)
        assert np.all(in_support(draws, spec))
        # the posterior is close to Gaussian at these sizes, so its mean lies
        # within a small part of a standard deviation of the mode
        start = [0.1, 0.9, 0.0, 0.0, 0.1] if kind == "hybrid" else [0.1, 0.9, 0.1]
        options = {"xatol": 1e-10, "fatol": 1e-10, "maxiter": 20000, "maxfev": 40000}
        mode = minimize(lambda p: -log_posterior(p, ds, spec), start, method="Nelder-Mead", options=options)
        assert mode.success
        np.testing.assert_array_less(np.abs(draws.mean(axis=0) - mode.x), 0.5 * draws.std(axis=0))


# sha256 of a chain's retained draws (their float64 bytes) followed by its
# counts [accepted, beta redraws, phi redraws] as JSON, made with this
# numpy: the bits a Generator hands out may differ under another version
DIGESTS_NUMPY = "2.4.6"
DIGESTS = {
    # TestChain's chains on 400 rows, and TestRedraws' hybrid chain
    "basic": ("basic", PriorSet(), 400, 403, 400, "dc01ea0821898b6ee97631ed6268db07b6423a160f688c8e098f531e9fc24cc1"),
    "hybrid": ("hybrid", PriorSet(), 400, 403, 400, "2814ea3d06e97ca345500a35f8336376678172da7b8ef1f4f73ee8e0e9062035"),
    "redraws": ("hybrid", REDRAWS, 20, 23, 20, "8de0e9956d5f18e0bd314ffc533bc592a250651348261a01be48cfe9958328f5"),
}


class TestChainDigests:
    """A chain's draws and counts stay bit for bit what they were when the digests were made."""

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_chain_matches_its_digest(self, case):
        kind, priors, n, data_seed, chain_seed, digest = DIGESTS[case]
        if np.__version__ != DIGESTS_NUMPY:
            pytest.fail(f"the digests were made with numpy {DIGESTS_NUMPY}, and this is numpy {np.__version__}")
        cond = _Conditionals(gappy_dataset(n, seed=data_seed), ModelSpec(kind=kind, priors=priors))
        cfg = SamplerConfig(chains=1, warmup_draws=300, retained_draws=200)
        draws, *counts = _run_chain(cond, cfg, kind == "hybrid", np.random.default_rng(chain_seed))
        assert hashlib.sha256(draws.tobytes() + json.dumps(counts).encode()).hexdigest() == digest, counts


@pytest.mark.parametrize("seed", [7, (7, 1, 24)])
def test_each_chain_draws_from_its_spawn_of_the_seed(seed):
    # an int or a tuple of ints, as io.STREAMS gives fit; chain k draws from
    # spawn k of the seed's SeedSequence, the rule tests/test_streams.py reads
    ds, spec = gappy_dataset(60, seed=3), ModelSpec(kind="hybrid")
    cfg = SamplerConfig(chains=3, warmup_draws=100, retained_draws=100, rhat_limit=10.0)
    cond = _Conditionals(ds, spec)
    chains = [_run_chain(cond, cfg, True, np.random.default_rng(s))[0] for s in np.random.SeedSequence(seed).spawn(3)]
    np.testing.assert_array_equal(fit(ds, spec, cfg, seed=seed).draws, np.concatenate(chains))


def with_conditionals(monkeypatch, **attrs):
    """Have fit build _Conditionals whose given attributes are replaced."""

    class Patched(_Conditionals):
        def __init__(self, ds, spec):
            super().__init__(ds, spec)
            for name, value in attrs.items():
                setattr(self, name, value)

    monkeypatch.setattr(sampler, "_Conditionals", Patched)


class TestFitErrors:
    """The sweep's checks raise through fit."""

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
