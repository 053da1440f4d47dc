import dataclasses

import numpy as np
import pytest

from heavecast.datasets import DEFAULT_MAX_LEADS, ForecastIssue, IssueSet
from heavecast.io import FORECAST_DIRS_RAD, FORECAST_FREQS_HZ
from heavecast.model import X_FLOOR, noise_weights
from heavecast.spectral import SpectrumSeries, midpoint_widths
from heavecast.synthetic import (
    ErrorInjection,
    SwellEvent,
    SwellScenario,
    generate_forecast_issues,
    generate_observations,
    generate_spectra,
    reference_rao,
    true_response_series,
)

T0 = np.datetime64("2024-06-01T00:00:00")
HOUR = np.timedelta64(1, "h")


def lone_event_scenario(hs=2.5, tp=16.0, arrival=24, duration=49):
    return SwellScenario(
        start=T0,
        duration_h=duration,
        events=(SwellEvent(arrival_h=arrival, hs=hs, tp=tp),),
        background_hs=0.0,
    )


def wave_m0(spectra):
    """Each hour's zeroth moment of the sea surface, the grid sum of S Dw Dtheta."""
    return spectra.density @ spectra.dir_widths @ spectra.freq_widths


class TestGrid:
    def test_forecast_grid_shape(self):
        assert FORECAST_FREQS_HZ.size == 28
        assert FORECAST_DIRS_RAD.size == 30
        assert FORECAST_FREQS_HZ[0] == pytest.approx(0.0412)
        assert FORECAST_FREQS_HZ[-1] == pytest.approx(0.5399)
        # log spacing: constant ratio between consecutive bins
        ratios = FORECAST_FREQS_HZ[1:] / FORECAST_FREQS_HZ[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)


class TestGenerateSpectra:
    def test_hs_normalisation_at_peak(self):
        hs = 2.5
        spectra = generate_spectra(lone_event_scenario(hs=hs))
        assert 4.0 * np.sqrt(wave_m0(spectra)[24]) == pytest.approx(hs, rel=0.02)

    def test_energy_peaks_at_tp_bin(self):
        tp = 16.0
        spectra = generate_spectra(lone_event_scenario(tp=tp))
        omnidir = spectra.density[24] @ spectra.dir_widths
        k = int(np.argmax(omnidir))
        f_bin = spectra.freqs[k] / (2.0 * np.pi)
        # the peak must land in the grid bin closest to 1/Tp
        expected = int(np.argmin(np.abs(FORECAST_FREQS_HZ - 1.0 / tp)))
        assert k == expected
        assert f_bin == pytest.approx(1.0 / tp, rel=0.1)

    def test_envelope_rise_and_decay(self):
        energy = wave_m0(generate_spectra(lone_event_scenario(arrival=24)))
        assert energy[24] == max(energy)
        assert energy[12] < energy[18] < energy[24]
        assert energy[24] > energy[36] > energy[48]

    def test_hourly_timestamps(self):
        spectra = generate_spectra(lone_event_scenario(duration=30))
        assert isinstance(spectra, SpectrumSeries)
        assert spectra.density.shape == (30, FORECAST_FREQS_HZ.size, FORECAST_DIRS_RAD.size)
        assert len(spectra) == 30
        np.testing.assert_array_equal(spectra.times, T0 + np.arange(30) * HOUR)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            SwellEvent(arrival_h=0, hs=-1.0, tp=15.0)
        with pytest.raises(ValueError):
            SwellEvent(arrival_h=0, hs=1.0, tp=30.0)  # outside the band
        with pytest.raises(ValueError):
            SwellEvent(arrival_h=0, hs=1.0, tp=15.0, rise_h=0.0)


def per_hour_spectra(scn):
    """Per-hour, per-component densities: the loop generate_spectra batches."""
    freqs_hz, dirs = FORECAST_FREQS_HZ, FORECAST_DIRS_RAD
    fw, dw = midpoint_widths(2.0 * np.pi * freqs_hz), midpoint_widths(dirs)

    def component(hs, tp, direction, spread_exp, bandwidth_hz):
        shape_f = np.exp(-0.5 * ((freqs_hz - 1.0 / tp) / bandwidth_hz) ** 2)
        ang = 0.5 * (np.mod(dirs - direction + np.pi, 2.0 * np.pi) - np.pi)
        density = shape_f[:, None] * (np.abs(np.cos(ang)) ** (2.0 * spread_exp))[None, :]
        total = np.sum(density * fw[:, None] * dw[None, :])
        return density if total == 0.0 else density * ((hs / 4.0) ** 2 / total)

    jitter = np.ones(scn.duration_h)
    if scn.hs_jitter > 0.0:
        rng = np.random.default_rng(scn.seed)
        g = np.empty(scn.duration_h)
        g[0] = rng.standard_normal()
        for k in range(1, scn.duration_h):
            g[k] = scn.hs_jitter_ar * g[k - 1] + np.sqrt(1.0 - scn.hs_jitter_ar**2) * rng.standard_normal()
        jitter = np.maximum(1.0 + scn.hs_jitter * g, 0.2)
    out = []
    for k in range(scn.duration_h):
        density = np.zeros((freqs_hz.size, dirs.size))
        if scn.background_hs > 0.0:
            density += component(
                scn.background_hs, scn.background_tp, scn.background_direction, scn.background_spread_exp, 0.06
            )
        for ev in scn.events:
            dt = k - ev.arrival_h
            hs_t = ev.hs * (np.exp(dt / ev.rise_h) if dt < 0 else np.exp(-dt / ev.decay_h))
            if hs_t >= 1e-6:
                density += component(hs_t, ev.tp, ev.direction, ev.spread_exp, ev.bandwidth_hz)
        out.append(density * jitter[k] ** 2)
    return np.array(out)


class TestBatchedSpectra:
    def test_matches_per_hour_reference(self):
        # the second event decays below the 1e-6 m cutoff after hour 30 and the
        # third rises above it at hour 62, so hours with and without each occur
        scn = SwellScenario(
            start=T0,
            duration_h=120,
            events=(
                SwellEvent(arrival_h=10, hs=2.0, tp=15.0, rise_h=3.0, decay_h=30.0),
                SwellEvent(arrival_h=4, hs=0.5, tp=9.0, rise_h=2.0, decay_h=2.0),
                SwellEvent(arrival_h=90, hs=1.2, tp=19.0, rise_h=2.0, decay_h=6.0, direction=1.0),
            ),
            background_hs=0.8,
            hs_jitter=0.25,
            hs_jitter_ar=0.8,
            seed=7,
        )
        ref = per_hour_spectra(scn)
        spectra = generate_spectra(scn)
        assert len(spectra) == scn.duration_h
        np.testing.assert_allclose(spectra.density, ref, rtol=1e-14, atol=0.0)

    def test_hours_below_cutoff_stay_empty(self):
        # no background: the second event falls below 1e-6 m after hour 8, the
        # third rises above it at hour 12 and the fourth is too narrow for the
        # grid, so hours 9-11 hold no energy
        scn = SwellScenario(
            start=T0,
            duration_h=30,
            events=(
                SwellEvent(arrival_h=5, hs=0.0, tp=12.0),
                SwellEvent(arrival_h=2, hs=1.0, tp=12.0, decay_h=0.5),
                SwellEvent(arrival_h=25, hs=1.0, tp=12.0, rise_h=1.0),
                SwellEvent(arrival_h=10, hs=1.0, tp=12.0, bandwidth_hz=1e-6),  # vanishes on the grid
            ),
            background_hs=0.0,
        )
        ref = per_hour_spectra(scn)
        assert np.all(ref[9:12] == 0.0) and ref[8].max() > 0.0 and ref[12].max() > 0.0
        np.testing.assert_allclose(generate_spectra(scn).density, ref, rtol=1e-14, atol=0.0)


def per_hour_jitter(scn):
    """The hs-jitter as it was drawn before: one standard_normal call per hour."""
    rng = np.random.default_rng(scn.seed)
    rho = scn.hs_jitter_ar
    g = np.empty(scn.duration_h)
    g[0] = rng.standard_normal()
    for k in range(1, scn.duration_h):
        g[k] = rho * g[k - 1] + np.sqrt(1.0 - rho**2) * rng.standard_normal()
    return np.maximum(1.0 + scn.hs_jitter * g, 0.2)


class TestJitterDraws:
    def test_one_call_draws_the_scalar_stream(self):
        rng = np.random.default_rng(77)
        scalars = np.array([rng.standard_normal() for _ in range(4380)])
        assert np.random.default_rng(77).standard_normal(4380).tobytes() == scalars.tobytes()

    @pytest.mark.parametrize("rho, seed", [(0.9, 77), (0.0, 3), (0, 5), (0.999, 11)])
    def test_spectra_match_per_hour_draws_bit_for_bit(self, rho, seed):
        scn = SwellScenario(
            start=T0, duration_h=500, events=(SwellEvent(arrival_h=200, hs=2.0, tp=15.0),),
            background_hs=0.7, hs_jitter=0.18, hs_jitter_ar=rho, seed=seed,
        )
        smooth = generate_spectra(dataclasses.replace(scn, hs_jitter=0.0)).density
        expected = smooth * (per_hour_jitter(scn) ** 2)[:, None, None]
        assert generate_spectra(scn).density.tobytes() == expected.tobytes()


class TestReferenceRao:
    def test_resonance_location(self):
        rao = reference_rao()
        assert rao.resonance_freq == pytest.approx(2.0 * np.pi / 18.5, abs=0.02)

    def test_cancellation_below_resonance(self):
        rao = reference_rao()
        assert rao.cancellation_freq < rao.resonance_freq
        k_c = int(np.argmin(np.abs(rao.freqs - rao.cancellation_freq)))
        k_r = int(np.argmin(np.abs(rao.freqs - rao.resonance_freq)))
        assert rao.amplitudes[k_c] < 0.2 * rao.amplitudes[k_r]

    def test_true_response_series(self):
        spectra = generate_spectra(lone_event_scenario(duration=12))
        times, sig = true_response_series(spectra, reference_rao())
        assert times.size == sig.size == 12
        assert np.all(sig >= 0.0)
        assert np.all(np.diff(times) == HOUR)


class TestGenerateForecastIssues:
    def setup_method(self):
        hours = np.arange(24 * 8 + 1)
        self.times = T0 + hours * HOUR
        self.sig = 1.0 + 0.4 * np.sin(2 * np.pi * hours / 36.0)

    def test_cycles_and_caps(self):
        issues = generate_forecast_issues(self.times, self.sig, ErrorInjection())
        cycles = ((issues.issue_times - issues.issue_times.astype("datetime64[D]")) // HOUR).tolist()
        assert set(cycles) == {0, 6, 12, 18}
        caps = [{0: 240, 6: 72, 12: 240, 18: 72}[c] for c in cycles]
        assert np.all(issues.leads[issues.bounds[1:] - 1] <= caps)

    def test_pure_bias(self):
        inj = ErrorInjection(bias_factor=0.8)
        issues = generate_forecast_issues(self.times, self.sig, inj)
        hours = (self.times - T0) / HOUR
        expected = 0.8 * np.interp((issues.valid_times() - T0) / HOUR, hours, self.sig)
        np.testing.assert_allclose(issues.values, expected, atol=1e-12)

    def test_timing_shift(self):
        inj = ErrorInjection(timing_shift_h=6.0)
        issues = generate_forecast_issues(self.times, self.sig, inj)
        hours = (self.times - T0) / HOUR
        expected = np.interp((issues.valid_times() - T0) / HOUR - 6.0, hours, self.sig)
        np.testing.assert_allclose(issues.values, expected, atol=1e-12)

    def test_noise_reproducible_and_seed_sensitive(self):
        inj = ErrorInjection(noise_scale=0.05, noise_ar=0.9, seed=5)
        a = generate_forecast_issues(self.times, self.sig, inj)
        b = generate_forecast_issues(self.times, self.sig, inj)
        c = generate_forecast_issues(self.times, self.sig, ErrorInjection(noise_scale=0.05, noise_ar=0.9, seed=6))
        np.testing.assert_array_equal(a.values, b.values)
        first = slice(0, a.bounds[1])
        assert not np.array_equal(a.values[first], c.values[first])

    def test_noise_grows_with_lead(self):
        inj = ErrorInjection(noise_scale=0.02, error_growth_rate=0.05, seed=1)
        issues = generate_forecast_issues(self.times, self.sig, inj)
        hours = (self.times - T0) / HOUR
        err = issues.values - np.interp((issues.valid_times() - T0) / HOUR, hours, self.sig)
        # the first and the last 24 leads of each issue that reaches 180 h
        last = issues.leads[issues.bounds[1:] - 1][issues.row_issues()]
        short = (last >= 180) & (issues.leads < 24)
        long = (last >= 180) & (issues.leads > last - 24)
        assert np.std(err[long]) > 2.0 * np.std(err[short])

    def test_values_nonnegative(self):
        inj = ErrorInjection(noise_scale=2.0, seed=2)
        issues = generate_forecast_issues(self.times, self.sig, inj)
        assert np.all(issues.values >= 0.0)

    def test_injection_validation(self):
        with pytest.raises(ValueError):
            ErrorInjection(noise_scale=-0.1)
        with pytest.raises(ValueError):
            ErrorInjection(noise_ar=1.0)


def per_issue_forecasts(truth_times, truth_sig, inj):
    """Issue by issue and lead by lead: the loop generate_forecast_issues batches."""
    times = np.asarray(truth_times, dtype="datetime64[s]")
    sig = np.asarray(truth_sig, dtype=float)
    hours = (times - times[0]) / np.timedelta64(1, "h")
    span_h = float(hours[-1])
    issues = []
    root = np.random.SeedSequence(inj.seed)
    first_day = times[0].astype("datetime64[D]")
    issue_idx = 0
    day = 0
    while True:
        any_in_span = False
        for cycle in sorted(DEFAULT_MAX_LEADS):
            issue_time = first_day.astype("datetime64[s]") + np.timedelta64(day * 24 + cycle, "h")
            offset_h = float((issue_time - times[0]) / np.timedelta64(1, "h"))
            if offset_h < 0.0:
                issue_idx += 1
                continue
            if offset_h > span_h:
                continue
            any_in_span = True
            max_lead = int(min(DEFAULT_MAX_LEADS[cycle], np.floor(span_h - offset_h)))
            leads = np.arange(max_lead + 1)
            rng = np.random.default_rng(np.random.SeedSequence(entropy=root.entropy, spawn_key=(issue_idx,)))
            issue_idx += 1
            base = np.interp(offset_h + leads - inj.timing_shift_h, hours, sig)
            noise = np.zeros(leads.size)
            if inj.noise_scale > 0.0:
                z = rng.standard_normal(leads.size)
                amp = inj.noise_scale * (1.0 + inj.error_growth_rate * leads)
                rho = inj.noise_ar * np.exp(-leads / inj.noise_ar_lead_decay)
                noise[0] = amp[0] * z[0]
                for i in range(1, leads.size):
                    noise[i] = rho[i] * noise[i - 1] + amp[i] * np.sqrt(1.0 - rho[i] ** 2) * z[i]
            values = np.maximum(inj.bias_factor * base + noise, 0.0)
            issues.append(ForecastIssue(issue_time=issue_time, horizon_hours=leads, values=values))
        if not any_in_span and day > 0:
            break
        day += 1
    return issues


class TestForecastIssuesOracle:
    """generate_forecast_issues against the per-issue loop, bit for bit."""

    @staticmethod
    def truth(start, hours, seed=0):
        rng = np.random.default_rng(seed)
        times = start + np.arange(hours) * HOUR
        return times, 1.0 + 0.5 * np.sin(np.arange(hours) / 9.0) + 0.1 * rng.standard_normal(hours)

    @staticmethod
    def assert_same(times, sig, inj):
        got = generate_forecast_issues(times, sig, inj)
        ref = IssueSet.from_issues(per_issue_forecasts(times, sig, inj))
        assert len(got) == len(ref)
        np.testing.assert_array_equal(got.issue_times, ref.issue_times)
        np.testing.assert_array_equal(got.bounds, ref.bounds)
        np.testing.assert_array_equal(got.leads, ref.leads)
        assert got.values.tobytes() == ref.values.tobytes()
        return got

    @pytest.mark.parametrize(
        "inj",
        [
            ErrorInjection(),
            ErrorInjection(bias_factor=0.85, noise_scale=0.02, noise_ar=0.6, seed=3),
            ErrorInjection(noise_scale=0.05, error_growth_rate=0.03, noise_ar=0.9, noise_ar_lead_decay=20.0, seed=4),
            ErrorInjection(timing_shift_h=2.5, noise_scale=0.03, noise_ar=0.5, seed=5),
            ErrorInjection(timing_shift_h=-7.0, bias_factor=1.2, noise_scale=1.5, seed=6),  # floored at zero
        ],
    )
    def test_long_campaign_ending_mid_issue(self, inj):
        # 20 days and 5 hours: the last 00Z and 12Z issues stop short of 240 h
        times, sig = self.truth(T0, 20 * 24 + 5)
        issues = self.assert_same(times, sig, inj)
        assert issues.leads[-1] < 72
        assert np.diff(issues.bounds).max() == 241

    @pytest.mark.parametrize("start_hour", [1, 5, 6, 13, 23])
    def test_start_not_at_00z(self, start_hour):
        times, sig = self.truth(T0 + start_hour * HOUR, 5 * 24 + 3, seed=start_hour)
        inj = ErrorInjection(noise_scale=0.04, error_growth_rate=0.02, noise_ar=0.7, timing_shift_h=1.5, seed=8)
        issues = self.assert_same(times, sig, inj)
        assert issues.issue_times[0] >= times[0]

    def test_start_between_whole_hours(self):
        times, sig = self.truth(T0 + np.timedelta64(5430, "s"), 50)
        self.assert_same(times, sig, ErrorInjection(noise_scale=0.02, noise_ar=0.4, seed=9))

    def test_span_holding_no_issue_time(self):
        # 19:00 to 23:00 of one day: no cycle time falls inside
        times, sig = self.truth(T0 + 19 * HOUR, 5)
        assert len(self.assert_same(times, sig, ErrorInjection(noise_scale=0.02, seed=1))) == 0


class TestGenerateObservations:
    def test_mean_structure(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 2.0, 20000)
        y = generate_observations(x, (0.05, 1.3, 0.0, 0.0, 0.001), seed=1)
        np.testing.assert_allclose(y, 0.05 + 1.3 * x, atol=0.01)

    def test_ar2_stationary_variance(self):
        # for constant x the residual is a stationary AR(2); its variance has
        # the closed form s^2 (1 - phi2) / ((1 + phi2)((1 - phi2)^2 - phi1^2))
        phi1, phi2, sigma, xc = 0.6, 0.2, 0.1, 1.5
        x = np.full(200_000, xc)
        y = generate_observations(x, (0.0, 1.0, phi1, phi2, sigma), seed=2)
        eps = y - xc
        s2 = (xc * sigma) ** 2
        expected = s2 * (1 - phi2) / ((1 + phi2) * ((1 - phi2) ** 2 - phi1**2))
        assert np.var(eps[500:]) == pytest.approx(expected, rel=0.05)

    def test_noise_below_the_floor_has_the_models_scale(self):
        # the hybrid likelihood scales the noise by max(x, X_FLOOR), so at
        # x = 0.001 m its sd is X_FLOOR * sigma, ten times x * sigma; the
        # sample sd's standard error is about sd / sqrt(2n), 0.5 % here
        x = np.full(20_000, 0.001)
        eps = generate_observations(x, (0.0, 1.0, 0.0, 0.0, 0.5), seed=4) - x
        assert np.std(eps) == pytest.approx(X_FLOOR * 0.5, rel=0.03)

    def test_noise_is_the_model_weight_times_eta(self):
        x = np.array([0.0, 0.005, 0.01, 0.02, 1.5])
        eps = generate_observations(x, (0.0, 1.0, 0.0, 0.0, 0.5), seed=4) - x
        eta = 0.5 * np.random.default_rng(4).standard_normal(x.size)
        np.testing.assert_allclose(eps, noise_weights(x) * eta, rtol=1e-12, atol=1e-15)

    def test_reproducible(self):
        x = np.linspace(0.5, 2.0, 100)
        a = generate_observations(x, (0.0, 1.0, 0.5, 0.2, 0.1), seed=3)
        b = generate_observations(x, (0.0, 1.0, 0.5, 0.2, 0.1), seed=3)
        np.testing.assert_array_equal(a, b)

    def test_nonstationary_rejected(self):
        x = np.ones(10)
        with pytest.raises(ValueError):
            generate_observations(x, (0.0, 1.0, 0.9, 0.3, 0.1), seed=0)
        with pytest.raises(ValueError):
            generate_observations(x, (0.0, 1.0, 0.0, 0.0, -0.1), seed=0)
