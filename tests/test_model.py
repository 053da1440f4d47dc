import math

import numpy as np
import pytest
from scipy.stats import norm

from heavecast.datasets import HorizonDataset
from heavecast.model import (
    X_FLOOR,
    ModelSpec,
    PosteriorSamples,
    PredictiveDistribution,
    PriorSet,
    _sorted_quantiles,
    ar2_stationary,
    check_samples,
    conditional_moments,
    in_support,
    log_posterior,
    map_sigma,
    posterior_predictive,
    residuals,
)
from heavecast.sampler import SamplerConfig, SamplerError, _check_support, ess, fit, rhat

T0 = np.datetime64("2024-06-01T00:00:00")
HOUR = np.timedelta64(1, "h")

BASIC = ModelSpec(kind="basic")
HYBRID = ModelSpec(kind="hybrid")


def make_ds(x, y, gap_after=()):
    """Hourly dataset; indices in gap_after get an extra skipped hour before them."""
    x = np.asarray(x, dtype=float)
    times = []
    t = T0
    for k in range(x.size):
        if k in gap_after:
            t = t + 2 * HOUR
        else:
            t = t + HOUR
        times.append(t)
    return HorizonDataset(
        horizon=0,
        valid_times=np.array(times, dtype="datetime64[s]"),
        x=x,
        y=np.asarray(y, dtype=float),
        issue_times=np.array([T0] * x.size, dtype="datetime64[s]"),
    )


def log_prior_oracle(params, spec):
    """Independent density arithmetic for the prior terms."""
    pr = spec.priors
    lp = norm.logpdf(params[0], pr.beta0_mean, np.sqrt(pr.beta0_var))
    lp += norm.logpdf(params[1], pr.beta1_mean, np.sqrt(pr.beta1_var))
    lp -= np.log(1.0 - norm.cdf(0.0, pr.beta1_mean, np.sqrt(pr.beta1_var)))
    lp += np.log(2.0) + norm.logpdf(params[-1], 0.0, pr.sigma_scale)
    if spec.kind == "hybrid":
        lp += norm.logpdf(params[2], 0.0, pr.phi_sd)
        lp += norm.logpdf(params[3], 0.0, pr.phi_sd)
    return float(lp)


class TestResiduals:
    def test_row_by_row(self):
        ds = make_ds([0.5, 1.0, 2.0], [0.7, 1.4, 2.5])
        eps = residuals(np.array([0.1, 1.2, 0.3]), ds)
        for k in range(3):
            assert eps[k] == pytest.approx(ds.y[k] - 0.1 - 1.2 * ds.x[k], abs=1e-15)

    def test_perfect_fit_is_zero(self):
        x = np.linspace(0.2, 2.0, 20)
        ds = make_ds(x, 0.3 + 0.9 * x)
        np.testing.assert_allclose(residuals(np.array([0.3, 0.9, 0.1]), ds), 0.0, atol=1e-14)


class TestConditionalMoments:
    def test_basic(self):
        ds = make_ds([0.5, 1.0], [1.0, 1.0])
        mean, scale = conditional_moments(
            np.array([0.2, 1.1, 0.4]), ds.x, ds.y, ds.post_gap, BASIC
        )
        np.testing.assert_allclose(mean, 0.2 + 1.1 * ds.x)
        np.testing.assert_allclose(scale, 0.4)

    def test_hybrid_teacher_forced_lags(self):
        params = np.array([0.1, 1.0, 0.5, 0.25, 0.2])
        ds = make_ds([1.0, 1.0, 1.0, 1.0], [1.4, 1.0, 1.3, 1.1])
        eps = ds.y - 0.1 - 1.0 * ds.x
        mean, scale = conditional_moments(params, ds.x, ds.y, ds.post_gap, HYBRID)
        # row 0: no lags; row 1: only lag 1; rows 2+: both lags
        assert mean[0] == pytest.approx(1.1)
        assert mean[1] == pytest.approx(1.1 + 0.5 * eps[0])
        assert mean[2] == pytest.approx(1.1 + 0.5 * eps[1] + 0.25 * eps[0])
        assert mean[3] == pytest.approx(1.1 + 0.5 * eps[2] + 0.25 * eps[1])
        np.testing.assert_allclose(scale, 1.0 * 0.2)

    def test_post_gap_resets_lags(self):
        params = np.array([0.0, 1.0, 0.7, 0.2, 0.1])
        ds = make_ds([1.0] * 5, [1.5, 1.2, 1.4, 1.3, 1.6], gap_after={3})
        eps = ds.y - ds.x
        mean, _ = conditional_moments(params, ds.x, ds.y, ds.post_gap, HYBRID)
        assert mean[3] == pytest.approx(1.0)  # both lags reset after the gap
        assert mean[4] == pytest.approx(1.0 + 0.7 * eps[3])  # lag 2 still missing

    def test_x_floor_applies(self):
        params = np.array([0.0, 1.0, 0.0, 0.0, 1.0])
        ds = make_ds([0.001, 0.5], [0.0, 0.5])
        _, scale = conditional_moments(params, ds.x, ds.y, ds.post_gap, HYBRID)
        assert scale[0] == pytest.approx(X_FLOOR)
        assert scale[1] == pytest.approx(0.5)


    @pytest.mark.parametrize("spec, params", [(BASIC, [[0.2, 1.1, 0.4], [0.1, 0.9, 0.3]]),
                                              (HYBRID, [[0.1, 1.0, 0.5, 0.25, 0.2], [0.0, 1.2, -0.3, 0.1, 0.4]])])
    def test_stack_of_vectors_gives_each_vectors_rows(self, spec, params):
        ds = make_ds([0.001, 0.5, 1.0, 1.0, 1.0], [0.1, 0.7, 1.3, 1.1, 0.9], gap_after={3})
        stack = np.array([params, params[::-1]])  # (2, 2, n_params)
        mean, scale = conditional_moments(stack, ds.x, ds.y, ds.post_gap, spec)
        assert mean.shape == scale.shape == (2, 2, len(ds))
        for idx in np.ndindex(2, 2):
            one_mean, one_scale = conditional_moments(stack[idx], ds.x, ds.y, ds.post_gap, spec)
            assert mean[idx].tobytes() == one_mean.tobytes() and scale[idx].tobytes() == one_scale.tobytes()


class TestReferenceDensity:
    def test_basic_single_row_oracle(self):
        ds = make_ds([0.8], [1.1])
        params = np.array([0.05, 1.2, 0.3])
        expected = float(norm.logpdf(1.1, 0.05 + 1.2 * 0.8, 0.3)) + log_prior_oracle(params, BASIC)
        assert log_posterior(params, ds, BASIC) == pytest.approx(expected, rel=1e-12)

    def test_hybrid_three_row_oracle(self):
        params = np.array([0.05, 1.1, 0.4, 0.2, 0.15])
        ds = make_ds([0.6, 0.9, 1.2], [0.8, 1.1, 1.5])
        eps = ds.y - 0.05 - 1.1 * ds.x
        means = np.array(
            [
                0.05 + 1.1 * ds.x[0],
                0.05 + 1.1 * ds.x[1] + 0.4 * eps[0],
                0.05 + 1.1 * ds.x[2] + 0.4 * eps[1] + 0.2 * eps[0],
            ]
        )
        scales = ds.x * 0.15
        expected = float(np.sum(norm.logpdf(ds.y, means, scales))) + log_prior_oracle(params, HYBRID)
        assert log_posterior(params, ds, HYBRID) == pytest.approx(expected, rel=1e-12)

    def test_outside_support_is_minus_inf(self):
        ds = make_ds([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert log_posterior(np.array([0.0, -0.1, 0.2]), ds, BASIC) == -np.inf
        assert log_posterior(np.array([0.0, 1.0, 0.0]), ds, BASIC) == -np.inf
        assert log_posterior(np.array([0.0, 1.0, 0.9, 0.5, 0.1]), ds, HYBRID) == -np.inf

    def test_hybrid_nests_basic(self):
        # phi = 0 and x identically 1 make the likelihoods coincide, so the
        # posteriors differ exactly by the two phi prior terms
        rng = np.random.default_rng(11)
        ds = make_ds(np.ones(30), 1.0 + 0.1 * rng.standard_normal(30))
        for _ in range(10):
            b0 = rng.normal(0.0, 0.5)
            b1 = rng.uniform(0.2, 2.0)
            s = rng.uniform(0.05, 0.5)
            basic_lp = log_posterior(np.array([b0, b1, s]), ds, BASIC)
            hybrid_lp = log_posterior(np.array([b0, b1, 0.0, 0.0, s]), ds, HYBRID)
            delta = 2.0 * norm.logpdf(0.0, 0.0, HYBRID.priors.phi_sd)
            assert hybrid_lp == pytest.approx(basic_lp + delta, rel=1e-12)

    def test_wrong_length_rejected(self):
        ds = make_ds([1.0], [1.0])
        with pytest.raises(ValueError):
            log_posterior(np.array([0.0, 1.0, 0.1, 0.1]), ds, BASIC)

    def test_in_support_triangle(self):
        assert in_support(np.array([0.0, 1.0, 0.5, 0.3, 0.1]), HYBRID)
        assert not in_support(np.array([0.0, 1.0, 0.9, 0.2, 0.1]), HYBRID)
        assert not in_support(np.array([0.0, 1.0, -1.3, 0.2, 0.1]), HYBRID)
        assert not in_support(np.array([0.0, 1.0, 0.0, 1.1, 0.1]), HYBRID)

    def test_in_support_rows_match_single_vectors(self):
        rng = np.random.default_rng(3)
        draws = rng.uniform(-1.5, 1.5, (500, 5))
        draws[::7, 0] = np.inf
        draws[::11, 4] = np.nan
        for spec in (BASIC, HYBRID):
            rows = draws[:, : spec.n_params] if spec.kind == "hybrid" else draws[:, [0, 1, 4]]
            expected = [support_reference(row, spec) for row in rows]
            assert in_support(rows, spec).tolist() == expected
            assert 0 < sum(expected) < len(expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_in_support_rejects_non_finite_values(self, bad):
        for j in range(5):
            params = np.array([0.0, 1.0, 0.5, 0.3, 0.1])
            params[j] = bad
            assert not in_support(params, HYBRID)

    def test_ar2_stationary_elementwise(self):
        p1 = np.array([0.5, 0.9, -1.3, 0.0, 1.0])
        p2 = np.array([0.3, 0.2, 0.2, 1.1, -0.5])
        expected = [True, False, False, False, True]
        assert ar2_stationary(p1, p2).tolist() == expected
        assert [bool(ar2_stationary(a, b)) for a, b in zip(p1.tolist(), p2.tolist())] == expected


def support_reference(params, spec):
    """Prior support of one parameter vector, spelled out scalar by scalar."""
    if not all(math.isfinite(v) for v in params):
        return False
    if not (params[1] > 0.0 and params[-1] > 0.0):
        return False
    if spec.kind == "basic":
        return True
    p1, p2 = params[2], params[3]
    return abs(p2) < 1.0 and p1 + p2 < 1.0 and p2 - p1 < 1.0


def point_mass_samples(params, names, n=400):
    return PosteriorSamples(
        draws=np.tile(np.asarray(params, float), (n, 1)),
        param_names=tuple(names),
        chain_ids=np.zeros(n, dtype=int),
        diagnostics={},
        acceptance_rate=0.3,
    )


class TestPosteriorPredictive:
    def test_point_params_center(self):
        samples = point_mass_samples([0.1, 1.2, 0.05], BASIC.param_names, n=4000)
        ds = make_ds([0.5, 1.0, 1.5], [0.7, 1.3, 1.9])
        dists = posterior_predictive(samples, ds, BASIC, seed=0)
        assert len(dists) == 3
        for d, x in zip(dists, ds.x):
            assert d.mean == pytest.approx(0.1 + 1.2 * x, abs=4 * 0.05 / np.sqrt(4000))
            assert np.std(d.draws) == pytest.approx(0.05, rel=0.1)

    def test_hybrid_scale_proportional_to_x(self):
        samples = point_mass_samples([0.0, 1.0, 0.0, 0.0, 0.2], HYBRID.param_names, n=20000)
        ds = make_ds([0.5, 2.0], [0.5, 2.0])
        d_lo, d_hi = posterior_predictive(samples, ds, HYBRID, seed=1)
        ratio = np.std(d_hi.draws) / np.std(d_lo.draws)
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_hybrid_lags_teacher_forced(self):
        params = np.array([0.0, 1.0, 0.6, 0.0, 1e-9])
        samples = point_mass_samples(params, HYBRID.param_names)
        ds = make_ds([1.0, 1.0, 1.0], [1.5, 1.0, 1.0])
        dists = posterior_predictive(samples, ds, HYBRID, seed=2)
        # eps = (0.5, 0, 0): row 1 mean pulled up by 0.6*0.5
        assert dists[1].mean == pytest.approx(1.0 + 0.6 * 0.5, abs=1e-6)
        assert dists[2].mean == pytest.approx(1.0, abs=1e-6)

    def test_context_supplies_lags(self):
        params = np.array([0.0, 1.0, 0.6, 0.0, 1e-9])
        samples = point_mass_samples(params, HYBRID.param_names)
        full = make_ds([1.0] * 6, [1.0, 1.0, 1.0, 1.0, 1.5, 1.0])
        train, test = full.rows(slice(0, 5)), full.rows(slice(5, 6))
        with_ctx = posterior_predictive(samples, test, HYBRID, seed=3, context=train)
        without = posterior_predictive(samples, test, HYBRID, seed=3)
        assert len(with_ctx) == 1
        assert with_ctx[0].mean == pytest.approx(1.0 + 0.6 * 0.5, abs=1e-6)
        assert without[0].mean == pytest.approx(1.0, abs=1e-6)

    def test_reproducible(self):
        samples = point_mass_samples([0.1, 1.0, 0.2], BASIC.param_names)
        ds = make_ds([1.0, 2.0], [1.0, 2.0])
        a = posterior_predictive(samples, ds, BASIC, seed=9)
        b = posterior_predictive(samples, ds, BASIC, seed=9)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.draws, db.draws)


class TestMapSigma:
    def test_unimodal_mode(self):
        rng = np.random.default_rng(3)
        draws = 0.3 + 0.02 * rng.standard_normal(5000)
        samples = PosteriorSamples(
            draws=draws[:, None].repeat(3, axis=1),
            param_names=("beta0", "beta1", "sigma"),
            chain_ids=np.zeros(5000, dtype=int),
            diagnostics={},
            acceptance_rate=0.3,
        )
        assert map_sigma(samples) == pytest.approx(0.3, abs=0.01)

    def test_needs_draws(self):
        samples = point_mass_samples([0.0, 1.0, 0.5], BASIC.param_names, n=50)
        with pytest.raises(ValueError):
            map_sigma(samples)

    def test_degenerate_draws(self):
        samples = point_mass_samples([0.0, 1.0, 0.5], BASIC.param_names, n=200)
        assert map_sigma(samples) == 0.5


class TestPredictiveDistribution:
    def test_known_quantiles(self):
        dist = PredictiveDistribution(valid_time=T0, draws=np.arange(1001, dtype=float))
        assert dist.summaries == pytest.approx({"mean": 500.0, "p05": 50.0, "p50": 500.0, "p95": 950.0})

    @pytest.mark.parametrize("n_draws", [2, 3, 10, 21, 1000, 1001, 1500])
    def test_sorted_quantiles_match_numpy(self, n_draws):
        rng = np.random.default_rng(n_draws)
        rows = rng.gamma(2.0, 0.4, (70, n_draws))
        rows[3] = 0.7  # a point mass
        levels = (0.05, 0.1, 0.25, 0.5, 0.75, 0.95)
        expected = np.quantile(rows, levels, axis=1).T
        rows.sort(axis=1)
        np.testing.assert_array_equal(_sorted_quantiles(rows, levels), expected)


class TestDiagStats:
    def test_rhat_identical_chains(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(500)
        assert rhat(np.stack([c, c, c])) == pytest.approx(1.0, abs=0.05)

    def test_rhat_flags_separated_chains(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(500)
        b = rng.standard_normal(500) + 5.0
        assert rhat(np.stack([a, b])) > 1.5

    def test_rhat_of_constant_chains(self):
        # chains stuck at different values have not converged; stuck at one value they agree
        assert rhat(np.repeat([[1.0], [2.0], [3.0]], 200, axis=1)) == math.inf
        assert rhat(np.full((3, 200), 2.0)) == 1.0

    def test_ess_with_a_constant_chain(self):
        # a constant chain is correlated at every lag: it adds almost nothing, not all 200 draws
        rng = np.random.default_rng(9)
        chains = np.stack([rng.standard_normal(100), np.full(100, 0.5)])
        assert ess(chains) < 10.0
        assert ess(np.full((2, 100), 0.5)) < 2.0

    def test_ess_iid_near_total(self):
        rng = np.random.default_rng(7)
        chains = rng.standard_normal((3, 2000))
        assert ess(chains) > 0.5 * chains.size

    def test_ess_correlated_much_smaller(self):
        rng = np.random.default_rng(8)
        n = 4000
        z = rng.standard_normal((2, n))
        ar = np.zeros_like(z)
        for t in range(1, n):
            ar[:, t] = 0.95 * ar[:, t - 1] + z[:, t]
        assert ess(ar) < 0.1 * ar.size


class TestCheckSupport:
    GOOD = {"basic": [0.1, 1.0, 0.2], "hybrid": [0.1, 1.0, 0.5, 0.2, 0.2]}

    @pytest.mark.parametrize(
        "kind,bad",
        [
            ("basic", [0.1, 0.0, 0.2]),
            ("basic", [0.1, -0.5, 0.2]),
            ("basic", [0.1, 1.0, -0.2]),
            ("hybrid", [0.1, -0.1, 0.5, 0.2, 0.2]),
            ("hybrid", [0.1, 1.0, 0.9, 0.2, 0.2]),
            ("hybrid", [0.1, 1.0, 0.0, -1.0, 0.2]),
        ],
    )
    def test_draw_outside_support_raises(self, kind, bad):
        spec = ModelSpec(kind=kind)
        samples = point_mass_samples(self.GOOD[kind], spec.param_names)
        samples.draws[-1] = bad
        with pytest.raises(SamplerError):
            _check_support(samples, spec)
        with pytest.raises(ValueError, match="outside the prior support, the first at row 400"):
            check_samples(samples, spec)

    @pytest.mark.parametrize("kind", ["basic", "hybrid"])
    def test_check_samples_accepts_draws_in_support(self, kind):
        spec = ModelSpec(kind=kind)
        check_samples(point_mass_samples(self.GOOD[kind], spec.param_names), spec)

    def test_check_samples_rejects_other_parameters(self):
        # a hybrid file without its phi2 column would otherwise read sigma as phi2
        names = ("beta0", "beta1", "phi1", "sigma")
        samples = point_mass_samples([0.1, 1.0, 0.5, 0.2], names)
        with pytest.raises(ValueError, match="expected hybrid parameters"):
            check_samples(samples, HYBRID)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.2])
    def test_check_samples_rejects_bad_sigma(self, sigma):
        samples = point_mass_samples(self.GOOD["hybrid"], HYBRID.param_names)
        samples.draws[:, -1] = sigma
        with pytest.raises(ValueError, match="400 of 400 draws"):
            check_samples(samples, HYBRID)


class TestFit:
    CFG = SamplerConfig(chains=3, warmup_draws=500, retained_draws=300)

    def make_regression(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.3, 2.5, n)
        y = 0.1 + 1.2 * x + 0.08 * rng.standard_normal(n)
        return make_ds(x, y)

    def test_basic_recovery(self):
        ds = self.make_regression()
        samples = fit(ds, BASIC, self.CFG, seed=42)
        assert np.mean(samples.column("beta0")) == pytest.approx(0.1, abs=0.05)
        assert np.mean(samples.column("beta1")) == pytest.approx(1.2, abs=0.05)
        assert np.mean(samples.column("sigma")) == pytest.approx(0.08, abs=0.02)
        assert all(d["rhat"] <= 1.05 for d in samples.diagnostics.values())
        assert 0.5 < samples.acceptance_rate <= 1.0

    def test_bit_identical_reproducibility(self):
        ds = self.make_regression(n=120, seed=1)
        a = fit(ds, BASIC, self.CFG, seed=7)
        b = fit(ds, BASIC, self.CFG, seed=7)
        np.testing.assert_array_equal(a.draws, b.draws)

    def test_different_seed_differs(self):
        ds = self.make_regression(n=120, seed=1)
        a = fit(ds, BASIC, self.CFG, seed=7)
        b = fit(ds, BASIC, self.CFG, seed=8)
        assert not np.array_equal(a.draws, b.draws)

    def test_too_few_rows(self):
        ds = make_ds([1.0, 1.1, 0.9], [1.0, 1.1, 0.9])
        with pytest.raises(ValueError):
            fit(ds, HYBRID, self.CFG, seed=0)

    def test_prior_override_honoured(self):
        # an absurdly tight prior on beta1 must dominate a weak likelihood
        tight = ModelSpec(kind="basic", priors=PriorSet(beta1_mean=0.5, beta1_var=1e-6))
        ds = self.make_regression(n=30, seed=2)
        samples = fit(ds, tight, self.CFG, seed=3)
        assert np.mean(samples.column("beta1")) == pytest.approx(0.5, abs=0.05)
