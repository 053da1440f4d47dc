"""Fits of the README campaign with only its seed changed.

An adaptive random-walk Metropolis sampler stopped with split R-hat over
the 1.05 limit on seeds 5 and 9 at h = 24 (1.11 on phi, 2.86 on beta0).
Only the public API is used, so the same file runs against any sampler.
"""

import numpy as np
import pytest

from heavecast.datasets import align, chrono_split, synthesize_horizon_series
from heavecast.io import STREAMS
from heavecast.model import ModelSpec
from heavecast.motion import HeaveRecord
from heavecast.sampler import SamplerConfig, fit
from heavecast.synthetic import (
    ErrorInjection,
    SwellEvent,
    SwellScenario,
    generate_forecast_issues,
    generate_spectra,
    reference_rao,
    true_response_series,
)

T0 = np.datetime64("2024-06-01T00:00:00", "s")


def readme_training_rows(seed, horizon):
    """Training split of the README campaign, as simulate and build make it for this seed."""
    scenario = SwellScenario(
        start=T0, duration_h=504, background_hs=0.6, seed=STREAMS["spectra_jitter"](seed),
        events=(SwellEvent(arrival_h=96, hs=2.2, tp=16.0), SwellEvent(arrival_h=260, hs=1.6, tp=14.0)),
    )
    times, sig = true_response_series(generate_spectra(scenario), reference_rao())
    noise = np.random.default_rng(STREAMS["measurement_noise"](seed)).standard_normal(sig.size)
    y = np.maximum(sig + 0.01 * noise, 0.0)
    records = [HeaveRecord(timestamp=t, sig_heave=v) for t, v in zip(times, y)]
    injection = ErrorInjection(bias_factor=0.85, noise_scale=0.02, noise_ar=0.6, seed=STREAMS["issue_noise"](seed))
    issues = generate_forecast_issues(times, sig, injection)
    ds = align(synthesize_horizon_series(issues, horizon), records, horizon=horizon)
    return chrono_split(ds, 0.8)[0]


@pytest.mark.parametrize("seed", [5, 9])
def test_readme_seeds_converge(seed):
    train = readme_training_rows(seed, 24)
    cfg = SamplerConfig(chains=3, warmup_draws=1000, retained_draws=1000)
    samples = fit(train, ModelSpec(kind="hybrid", horizon=24), cfg, seed=STREAMS["fit"](seed, 24))
    assert max(v["rhat"] for v in samples.diagnostics.values()) <= 1.05
