"""The posterior-predictive matrix and its readers against the list-of-rows path they replaced.

The reference functions below are the earlier implementation: one
PredictiveDistribution per row, read back by np.stack of their draws. Every
value the matrix path produces must equal theirs bit for bit.
"""

import numpy as np
import pytest

from heavecast.datasets import HorizonDataset
from heavecast.io import write_predictions
from heavecast.model import (
    QUANTILE_LEVELS,
    X_FLOOR,
    ModelSpec,
    PosteriorSamples,
    PredictiveDistribution,
    PredictiveDraws,
    _lagged,
    posterior_predictive,
    predictive_summaries,
)
from heavecast.scoring import crps_samples, rmse, score_table

T0 = np.datetime64("2024-06-01T00:00:00", "s")
HOUR = np.timedelta64(1, "h")


def reference_predictive(samples, ds, spec, seed, context=None):
    """posterior_predictive as a list of rows, its mean and scale built out of place."""
    x, y, post_gap, n_ctx = ds.x, ds.y, ds.post_gap, 0
    if context is not None and len(context) >= 1:
        tail = context.rows(slice(max(0, len(context) - 2), len(context)))
        if ds.valid_times.size and tail.valid_times[-1] + HOUR == ds.valid_times[0]:
            n_ctx = len(tail)
            x = np.concatenate([tail.x, x])
            y = np.concatenate([tail.y, y])
            vt = np.concatenate([tail.valid_times, ds.valid_times])
            post_gap = np.ones(vt.size, dtype=bool)
            post_gap[1:] = np.diff(vt) != HOUR
    draws = samples.draws
    n_draws, n_rows = draws.shape[0], x.size
    beta0, beta1, sigma = draws[:, 0:1], draws[:, 1:2], draws[:, -1:]
    mean = beta0 + beta1 * x[None, :]
    if spec.kind == "hybrid":
        e1, e2 = _lagged(y[None, :] - mean, post_gap)
        mean = mean + draws[:, 2:3] * e1 + draws[:, 3:4] * e2
        scale = np.maximum(x, X_FLOOR)[None, :] * sigma
    else:
        scale = np.broadcast_to(sigma, (n_draws, n_rows))
    ystar = mean + scale * np.random.default_rng(seed).standard_normal((n_draws, n_rows))
    return [
        PredictiveDistribution(valid_time=ds.valid_times[i - n_ctx], draws=ystar[:, i])
        for i in range(n_ctx, n_rows)
    ]


def reference_summaries(dists):
    out = np.empty((len(dists), 1 + len(QUANTILE_LEVELS)))
    for start in range(0, len(dists), 64):
        block = np.stack([d.draws for d in dists[start : start + 64]])
        out[start : start + 64, 0] = block.mean(axis=1)
        out[start : start + 64, 1:] = np.quantile(block, QUANTILE_LEVELS, axis=1).T
    return out


def reference_scores(stacked, obs):
    """(rmse, mean CRPS) of a C-ordered (rows, draws) matrix, as score_table took them."""
    m = stacked.shape[1]
    coeffs = 2.0 * np.arange(m) - (m - 1)
    crps = np.empty(obs.size)
    for start in range(0, obs.size, 64):
        block = stacked[start : start + 64]
        term1 = np.mean(np.abs(block - obs[start : start + 64, None]), axis=1)
        pair_sums = [2.0 * float(np.dot(coeffs, row)) for row in np.sort(block, axis=1)]
        crps[start : start + 64] = term1 - np.array(pair_sums) / (2.0 * m * m)
    return rmse(np.mean(stacked, axis=1), obs), float(np.mean(crps))


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def dataset(n, start=T0, gaps=(), seed=0):
    """n rows of positive x and y, hourly from start; each index in gaps follows a skipped hour."""
    rng = np.random.default_rng(seed)
    steps = np.ones(n, dtype=int)
    steps[list(gaps)] = 2
    times = start + (np.cumsum(steps) - 1) * HOUR
    x = rng.gamma(2.0, 0.5, n)
    x[::17] = 0.003  # below the noise floor
    return HorizonDataset(
        horizon=0, valid_times=times, x=x, y=1.1 * x + 0.1 * rng.standard_normal(n) ** 2, issue_times=times
    )


def samples_for(spec, n_draws, seed=1):
    rng = np.random.default_rng(seed)
    cols = {
        "beta0": 0.05 + 0.01 * rng.standard_normal(n_draws),
        "beta1": 1.1 + 0.02 * rng.standard_normal(n_draws),
        "phi1": 0.5 + 0.05 * rng.standard_normal(n_draws),
        "phi2": -0.2 + 0.05 * rng.standard_normal(n_draws),
        "sigma": 0.1 * rng.gamma(20.0, 0.05, n_draws),
    }
    return PosteriorSamples(
        draws=np.column_stack([cols[name] for name in spec.param_names]),
        param_names=spec.param_names,
        chain_ids=np.zeros(n_draws, dtype=int),
        diagnostics={},
        acceptance_rate=1.0,
    )


CASES = {
    # name: (kind, test rows, test rows after a gap, context rows, context abuts test, draws)
    "basic": ("basic", 150, (), 0, True, 301),
    "hybrid": ("hybrid", 150, (), 0, True, 301),
    "hybrid-gaps": ("hybrid", 150, (1, 40, 41, 64, 65, 149), 0, True, 300),
    "hybrid-context": ("hybrid", 150, (5,), 40, True, 301),
    "basic-context": ("basic", 150, (), 40, True, 301),
    "hybrid-context-apart": ("hybrid", 150, (), 40, False, 301),
    "hybrid-one-context-row": ("hybrid", 129, (), 1, True, 2),
    "hybrid-one-block": ("hybrid", 64, (0,), 30, True, 1500),
    "hybrid-one-row": ("hybrid", 1, (), 30, True, 11),
}


@pytest.fixture(params=list(CASES))
def case(request):
    kind, n, gaps, n_ctx, abut, n_draws = CASES[request.param]
    spec = ModelSpec(kind=kind)
    context = None
    start = T0
    if n_ctx:
        context = dataset(n_ctx, seed=2)
        start = context.valid_times[-1] + (1 if abut else 5) * HOUR
    test = dataset(n, start=start, gaps=gaps, seed=3)
    return spec, samples_for(spec, n_draws), test, context


class TestAgainstListPath:
    def test_draws_and_rows(self, case):
        spec, samples, test, context = case
        pred = posterior_predictive(samples, test, spec, seed=7, context=context)
        ref = reference_predictive(samples, test, spec, seed=7, context=context)
        assert isinstance(pred, PredictiveDraws)
        assert pred.draws.shape == (len(samples), len(test))
        np.testing.assert_array_equal(pred.valid_times, test.valid_times)
        assert_same_bits(pred.draws, np.stack([d.draws for d in ref], axis=1))
        assert len(pred) == len(ref)
        for got, want in zip(pred, ref):
            assert got.valid_time == want.valid_time
            assert_same_bits(got.draws, want.draws)
        assert pred[-1].valid_time == ref[-1].valid_time

    def test_predictions(self, case, tmp_path):
        spec, samples, test, context = case
        pred = posterior_predictive(samples, test, spec, seed=8, context=context)
        ref = reference_predictive(samples, test, spec, seed=8, context=context)
        crps = [crps_samples(d.draws, y) for d, y in zip(ref, test.y)]
        table = predictive_summaries(pred.draws.T, test.y)
        assert_same_bits(table[:, :-1], reference_summaries(ref))
        assert_same_bits(table[:, -1], crps)
        write_predictions(tmp_path / "pred.csv", pred, test.y)
        lines = (tmp_path / "pred.csv").read_text().splitlines()[1:]
        # the first five columns as the list path spells them, then each row's crps_samples
        assert lines == [
            ", ".join([str(d.valid_time)] + [f"{v:.10g}" for v in [*row, c]])
            for d, row, c in zip(ref, reference_summaries(ref).tolist(), crps)
        ]

    def test_scores(self, case):
        spec, samples, test, context = case
        pred = posterior_predictive(samples, test, spec, seed=9, context=context)
        stacked = np.stack([d.draws for d in reference_predictive(samples, test, spec, seed=9, context=context)])
        # the transposed view scores as the stacked copy does
        (report,) = score_table({"adj": {0: pred.draws.T}}, {0: test.y}, [0])
        assert (report.rmse, report.crps_mean) == reference_scores(stacked, test.y)
        (from_stacked,) = score_table({"adj": {0: stacked}}, {0: test.y}, [0])
        assert (from_stacked.rmse, from_stacked.crps_mean) == (report.rmse, report.crps_mean)


def test_f_ordered_draws_score_as_their_c_ordered_copy():
    rng = np.random.default_rng(4)
    draws = np.asfortranarray(rng.gamma(2.0, 0.4, (200, 257)))
    draws[3] = 0.9  # a point mass
    y = rng.gamma(2.0, 0.4, 200)
    (report,) = score_table({"adj": {0: draws}}, {0: y}, [0])
    crps = [crps_samples(draws[i], y[i]) for i in range(200)]
    assert report.crps_mean == float(np.mean(crps))
    assert (report.rmse, report.crps_mean) == reference_scores(np.ascontiguousarray(draws), y)
    assert draws.flags.f_contiguous  # scoring read it in place


def test_rows_index_like_a_sequence():
    pred = PredictiveDraws(valid_times=T0 + np.arange(3) * HOUR, draws=np.arange(12.0).reshape(4, 3))
    assert [d.valid_time for d in pred] == list(pred.valid_times)
    np.testing.assert_array_equal(pred[1].draws, [1.0, 4.0, 7.0, 10.0])
    assert np.shares_memory(pred[1].draws, pred.draws)
    with pytest.raises(IndexError):
        pred[3]
    with pytest.raises(TypeError):
        pred[0:2]
