import numpy as np
import pytest

from heavecast.motion import HeaveRecord, RawMotionSeries, highpass_filter

T0 = np.datetime64("2024-06-01T00:00:00")


def make_series(values, rate=1.0, gaps=()):
    return RawMotionSeries(start=T0, sample_rate=rate, values=values, gaps=gaps)


def sine(freq_hz, rate, n, amp=1.0, phase=0.0):
    t = np.arange(n) / rate
    return amp * np.sin(2 * np.pi * freq_hz * t + phase)


class TestHighpassFilter:
    def test_cutoff_must_be_below_nyquist(self):
        series = make_series(np.zeros(100))
        with pytest.raises(ValueError):
            highpass_filter(series, cutoff=0.5)
        with pytest.raises(ValueError):
            highpass_filter(series, cutoff=0.6)

    def test_constant_rejected(self):
        series = make_series(np.full(4000, 3.7))
        out = highpass_filter(series, cutoff=0.04)
        assert np.max(np.abs(out.values)) < 1e-6 * 3.7

    def test_passband_amplitude_preserved(self):
        # 10x cutoff: the squared 5th-order Butterworth response is within
        # 1 ppm of unity, so the output amplitude must be within 1%
        rate, cutoff = 4.0, 0.04
        x = sine(10 * cutoff, rate, 40000)
        out = highpass_filter(make_series(x, rate=rate), cutoff=cutoff)
        mid = out.values[5000:-5000]
        amp = np.sqrt(2.0 * np.mean(mid**2))
        assert amp == pytest.approx(1.0, rel=0.01)

    def test_half_power_at_cutoff(self):
        # two passes at the -3 dB point leave half the power: amplitude 0.5
        rate, cutoff = 4.0, 0.05
        x = sine(cutoff, rate, 200000)
        out = highpass_filter(make_series(x, rate=rate), cutoff=cutoff)
        mid = out.values[20000:-20000]
        amp = np.sqrt(2.0 * np.mean(mid**2))
        assert amp == pytest.approx(0.5, rel=0.02)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5000)
        y = rng.standard_normal(5000)
        a, b = 2.3, -0.7
        fx = highpass_filter(make_series(x), 0.04).values
        fy = highpass_filter(make_series(y), 0.04).values
        combined = highpass_filter(make_series(a * x + b * y), 0.04).values
        scale = np.max(np.abs(combined))
        np.testing.assert_allclose(combined, a * fx + b * fy, atol=1e-9 * scale)

    def test_gap_segments_filtered_independently(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2000)
        gapped = make_series(x, gaps=((900, 1000),))
        out = highpass_filter(gapped, 0.04)
        first = highpass_filter(make_series(x[:900]), 0.04).values
        np.testing.assert_allclose(out.values[:900], first)
        assert np.all(out.values[900:1000] == 0.0)

    def test_short_segment_becomes_gap(self):
        x = np.ones(200)
        gapped = make_series(x, gaps=((20, 190),))
        out = highpass_filter(gapped, 0.04)
        assert out.gaps == ((0, 200),) or (0, 20) in out.gaps

    def test_offset_invariance(self):
        # a constant offset is all slow drift: the filtered series does not see it
        rng = np.random.default_rng(2)
        x = rng.standard_normal(6 * 3600)
        base = highpass_filter(make_series(x), 0.04).values
        shifted = highpass_filter(make_series(x + 5.0), 0.04).values
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-6)


class TestRawMotionSeries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_values_must_be_finite_outside_gaps(self, bad):
        x = np.zeros(10)
        x[4] = bad
        with pytest.raises(ValueError, match="values must be finite outside gaps"):
            make_series(x)
        assert make_series(x, gaps=((4, 5),)).gap_mask()[4]


class TestHeaveRecord:
    def test_negative_sig_rejected_when_valid(self):
        with pytest.raises(ValueError):
            HeaveRecord(timestamp=T0, sig_heave=-0.1, valid=True)
        HeaveRecord(timestamp=T0, sig_heave=np.nan, valid=False)
