import numpy as np
import pytest
from scipy.linalg import toeplitz

from heavecast.diagnostics import (
    PacfResult,
    heteroskedasticity_summary,
    pacf,
    sample_autocovariance,
    standardized_residuals,
)
from heavecast.datasets import HorizonDataset
from heavecast.model import ModelSpec

T0 = np.datetime64("2024-06-01T00:00:00")
HOUR = np.timedelta64(1, "h")


def ar_series(phis, n, seed, sigma=1.0, burn=500):
    rng = np.random.default_rng(seed)
    p = len(phis)
    x = np.zeros(n + burn)
    z = sigma * rng.standard_normal(n + burn)
    for t in range(n + burn):
        for k, phi in enumerate(phis, start=1):
            if t - k >= 0:
                x[t] += phi * x[t - k]
        x[t] += z[t]
    return x[burn:]


def pacf_toeplitz_oracle(series, max_lag):
    """Direct Yule-Walker solve per lag: the k-th PACF value is the last
    coefficient of the order-k autoregression."""
    gamma = sample_autocovariance(series, max_lag)
    rho = gamma / gamma[0]
    out = []
    for k in range(1, max_lag + 1):
        phi = np.linalg.solve(toeplitz(rho[:k]), rho[1 : k + 1])
        out.append(phi[-1])
    return np.array(out)


class TestSampleAutocovariance:
    def test_lag_zero_is_population_variance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        gamma = sample_autocovariance(x, 3)
        assert gamma[0] == pytest.approx(np.var(x), rel=1e-12)

    def test_biased_divisor(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        gamma = sample_autocovariance(x, 1)
        # mean is 0; lag-1 products sum to -3, divided by N = 4
        assert gamma[1] == pytest.approx(-0.75)


class TestPacf:
    def test_matches_toeplitz_solve(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            x = ar_series([0.5, 0.2], 800, seed=seed)
            result = pacf(x, 10)
            np.testing.assert_allclose(
                result.coefficients, pacf_toeplitz_oracle(x, 10), atol=1e-8
            )

    def test_white_noise_insignificant(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5000)
        result = pacf(x, 20)
        assert np.sum(result.significant()) <= 2

    def test_ar1_truncates_after_lag1(self):
        x = ar_series([0.8], 5000, seed=3)
        result = pacf(x, 10)
        assert result.coefficients[0] == pytest.approx(0.8, abs=0.05)
        assert result.significant()[0]
        assert np.sum(result.significant()[2:]) == 0

    def test_ar2_truncates_after_lag2(self):
        x = ar_series([0.6, 0.2], 8000, seed=4)
        result = pacf(x, 10)
        assert result.significant()[0] and result.significant()[1]
        # lag-2 PACF of an AR(2) equals phi2
        assert result.coefficients[1] == pytest.approx(0.2, abs=0.05)
        assert np.sum(result.significant()[2:]) <= 1

    def test_band_value(self):
        x = ar_series([0.5], 400, seed=5)
        assert pacf(x, 5).confidence_band == pytest.approx(1.96 / np.sqrt(400))

    def test_errors(self):
        with pytest.raises(ValueError):
            pacf(np.ones(50), 5)  # constant
        with pytest.raises(ValueError):
            pacf(np.arange(5, dtype=float), 5)  # too short
        with pytest.raises(ValueError):
            pacf(np.array([1.0, np.nan, 2.0] * 20), 3)

    @pytest.mark.parametrize("max_lag", [0, -3])
    def test_max_lag_below_one_rejected(self, max_lag):
        with pytest.raises(ValueError, match="max_lag must be at least 1"):
            pacf(ar_series([0.5], 100, seed=9), max_lag)

    def test_result_validation(self):
        with pytest.raises(ValueError):
            PacfResult(lags=np.array([1]), coefficients=np.array([1.5]), confidence_band=0.1)


class TestHeteroskedasticitySummary:
    def test_scaled_noise_is_monotone(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0.2, 3.0, 4000)
        res = x * 0.2 * rng.standard_normal(4000)
        table = heteroskedasticity_summary(res, x, n_bins=5)
        mags = [row["mean_abs_residual"] for row in table]
        centers = [row["x_bin_center"] for row in table]
        assert centers == sorted(centers)
        assert all(a < b for a, b in zip(mags, mags[1:]))
        # |N(0, s^2)| has mean s * sqrt(2/pi)
        assert mags[-1] / centers[-1] == pytest.approx(0.2 * np.sqrt(2 / np.pi), rel=0.1)

    def test_flat_noise_is_flat(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.2, 3.0, 4000)
        res = 0.3 * rng.standard_normal(4000)
        table = heteroskedasticity_summary(res, x, n_bins=4, sigma_map=0.3)
        mags = [row["mean_abs_residual"] for row in table]
        assert max(mags) / min(mags) < 1.25
        assert all(row["sigma_map"] == 0.3 for row in table)

    def test_counts_cover_all_rows(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0.0, 1.0, 103)
        table = heteroskedasticity_summary(np.zeros(103), x, n_bins=5)
        assert sum(row["count"] for row in table) == 103

    def test_constant_x_single_bin(self):
        table = heteroskedasticity_summary(np.ones(50), np.full(50, 2.0), n_bins=5)
        assert len(table) == 1 and table[0]["count"] == 50

    def test_errors(self):
        with pytest.raises(ValueError):
            heteroskedasticity_summary(np.ones(3), np.ones(4), 2)
        with pytest.raises(ValueError):
            heteroskedasticity_summary(np.ones(3), np.ones(3), 10)

    @pytest.mark.parametrize("n_bins", [0, -2])
    def test_bins_below_one_rejected(self, n_bins):
        with pytest.raises(ValueError, match="n_bins must be at least 1"):
            heteroskedasticity_summary(np.ones(20), np.arange(20.0), n_bins)


class TestStandardizedResiduals:
    def make_ds(self, x, y):
        n = len(x)
        return HorizonDataset(
            horizon=0,
            valid_times=np.array([T0 + k * HOUR for k in range(n)], dtype="datetime64[s]"),
            x=np.asarray(x, float),
            y=np.asarray(y, float),
            issue_times=np.array([T0] * n, dtype="datetime64[s]"),
        )

    def test_basic_formula(self):
        ds = self.make_ds([1.0, 2.0], [1.2, 2.4])
        z = standardized_residuals(np.array([0.0, 1.0, 0.1]), ds, ModelSpec(kind="basic"))
        np.testing.assert_allclose(z, [2.0, 4.0])

    def test_hybrid_true_params_white(self):
        # standardising with the generating parameters must whiten the series
        from heavecast.synthetic import generate_observations

        rng = np.random.default_rng(9)
        x = rng.uniform(0.3, 2.0, 4000)
        params = (0.05, 1.3, 0.6, 0.2, 0.1)
        y = generate_observations(x, params, seed=10)
        ds = self.make_ds(x, y)
        z = standardized_residuals(np.array(params), ds, ModelSpec(kind="hybrid"))
        result = pacf(z[2:], 10)
        assert np.sum(result.significant()) <= 1
        assert np.std(z[2:]) == pytest.approx(1.0, rel=0.05)
