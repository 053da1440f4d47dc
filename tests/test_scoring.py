import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from heavecast.scoring import (
    ScoreReport,
    crps_gaussian,
    crps_samples,
    format_score_table,
    rmse,
    score_table,
)


def crps_quadrature(mu, sigma, y):
    """Definition-level oracle: integral of (F(t) - 1{t >= y})^2 dt."""

    def integrand(t):
        return (norm.cdf(t, mu, sigma) - float(t >= y)) ** 2

    lo = min(mu - 12 * sigma, y - 1.0)
    hi = max(mu + 12 * sigma, y + 1.0)
    val, _ = quad(integrand, lo, hi, points=[y], limit=200)
    return val


def crps_samples_naive(draws, y):
    """O(m^2) double-loop oracle for the energy form."""
    draws = np.asarray(draws, dtype=float)
    m = draws.size
    t1 = np.mean(np.abs(draws - y))
    t2 = np.mean(np.abs(draws[:, None] - draws[None, :]))
    return t1 - 0.5 * t2


class TestRmse:
    def test_known_value(self):
        assert rmse(np.array([1.0, 2.0]), np.array([0.0, 4.0])) == pytest.approx(np.sqrt(2.5))

    def test_perfect(self):
        assert rmse(np.ones(5), np.ones(5)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            rmse(np.ones(0), np.ones(0))


class TestCrpsGaussian:
    def test_matches_quadrature_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mu = rng.normal(0.0, 2.0)
            sigma = rng.uniform(0.05, 3.0)
            y = rng.normal(mu, 2.0 * sigma)
            assert crps_gaussian(mu, sigma, y) == pytest.approx(
                crps_quadrature(mu, sigma, y), abs=1e-6
            )

    def test_point_mass_is_absolute_error(self):
        assert crps_gaussian(1.5, 0.0, 0.3) == abs(0.3 - 1.5)
        assert crps_gaussian(2.0, 0.0, 2.0) == 0.0

    def test_center_value(self):
        # at y = mu the CRPS is sigma * (2/sqrt(2*pi) - 1/sqrt(pi))
        sigma = 0.7
        expected = sigma * (2.0 / np.sqrt(2.0 * np.pi) - 1.0 / np.sqrt(np.pi))
        assert crps_gaussian(0.0, sigma, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            crps_gaussian(0.0, -0.1, 0.0)


class TestCrpsSamples:
    def test_two_point_hand_value(self):
        # draws {0, 2}, y = 1: mean|d - y| = 1, pairwise mean = 1 -> 0.5
        assert crps_samples(np.array([0.0, 2.0]), 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            draws = rng.normal(rng.normal(), rng.uniform(0.1, 2.0), rng.integers(2, 200))
            y = rng.normal()
            assert crps_samples(draws, y) == pytest.approx(
                crps_samples_naive(draws, y), rel=1e-10, abs=1e-12
            )

    def test_converges_to_gaussian_closed_form(self):
        rng = np.random.default_rng(2)
        mu, sigma, y = 0.4, 0.8, 1.1
        draws = rng.normal(mu, sigma, 100_000)
        assert crps_samples(draws, y) == pytest.approx(
            crps_gaussian(mu, sigma, y), rel=0.01
        )

    def test_order_invariant(self):
        rng = np.random.default_rng(3)
        draws = rng.standard_normal(500)
        assert crps_samples(draws, 0.2) == pytest.approx(
            crps_samples(draws[::-1], 0.2), rel=1e-12
        )

    def test_needs_two_draws(self):
        with pytest.raises(ValueError):
            crps_samples(np.array([1.0]), 0.0)


class TestPropriety:
    def test_true_distribution_beats_misstated_ones(self):
        # expected CRPS is minimised by the data-generating distribution
        rng = np.random.default_rng(4)
        ys = rng.normal(0.0, 1.0, 4000)
        honest = np.mean([crps_gaussian(0.0, 1.0, y) for y in ys])
        overconfident = np.mean([crps_gaussian(0.0, 0.3, y) for y in ys])
        underconfident = np.mean([crps_gaussian(0.0, 3.0, y) for y in ys])
        shifted = np.mean([crps_gaussian(1.0, 1.0, y) for y in ys])
        assert honest < overconfident
        assert honest < underconfident
        assert honest < shifted


class TestScoreTable:
    def test_point_and_draw_models(self):
        obs = {0: np.array([1.0, 2.0])}
        point = np.array([1.5, 2.5])
        draws = np.array([[1.0, 1.0], [2.0, 2.0]])
        reports = score_table({"raw": {0: point}, "adj": {0: draws}}, obs, [0])
        by = {r.model_label: r for r in reports}
        assert by["raw"].rmse == pytest.approx(0.5)
        assert by["raw"].crps_mean == pytest.approx(0.5)  # point mass -> |error|
        assert by["adj"].rmse == pytest.approx(0.0)

    def test_draw_rows_match_crps_samples(self):
        # 150 rows span three 64-row blocks; ties and a point-mass row included
        rng = np.random.default_rng(12)
        draws = rng.gamma(2.0, 0.4, (150, 301))
        draws[7] = 1.25
        draws[8, 1::3] = draws[8, ::3][:100]
        y = rng.gamma(2.0, 0.4, 150)
        (report,) = score_table({"adj": {0: draws}}, {0: y}, [0])
        crps = np.array([crps_samples(draws[i], y[i]) for i in range(150)])
        assert report.crps_mean == float(np.mean(crps))
        assert report.rmse == rmse(np.mean(draws, axis=1), y)

    def test_missing_horizon_raises(self):
        # no report is dropped without a sound: a model or obs that lacks a horizon raises
        obs = {0: np.array([1.0]), 6: np.array([1.0])}
        with pytest.raises(KeyError):
            score_table({"raw": {0: np.array([1.0])}}, obs, [0, 6])
        with pytest.raises(KeyError):
            score_table({"raw": {0: np.array([1.0]), 6: np.array([1.0])}}, {0: obs[0]}, [0, 6])

    def test_row_mismatch_rejected(self):
        obs = {0: np.array([1.0, 2.0])}
        with pytest.raises(ValueError):
            score_table({"m": {0: np.zeros((3, 5))}}, obs, [0])

    def test_report_validation(self):
        with pytest.raises(ValueError):
            ScoreReport(model_label="m", horizon=0, rmse=-1.0, crps_mean=0.0, n=1)
        with pytest.raises(ValueError):
            ScoreReport(model_label="m", horizon=0, rmse=0.0, crps_mean=0.0, n=0)

    def test_format_contains_all_cells(self):
        reports = [
            ScoreReport(model_label="raw", horizon=0, rmse=0.123, crps_mean=0.456, n=10),
            ScoreReport(model_label="raw", horizon=6, rmse=0.234, crps_mean=0.567, n=10),
        ]
        text = format_score_table(reports)
        assert "0.123" in text and "0.567" in text
        assert "RMSE" in text and "CRPS" in text
