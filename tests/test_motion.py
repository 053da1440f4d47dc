import numpy as np
import pytest
from scipy import signal

from heavecast.motion import RawMotionSeries, highpass_filter

T0 = np.datetime64("2024-06-01T00:00:00")


def make_series(values, rate=1.0):
    return RawMotionSeries(start=T0, sample_rate=rate, values=values)


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

    @pytest.mark.parametrize("rate, cutoff", [(1.0, 0.04), (4.0, 0.05)])
    def test_one_sosfiltfilt_over_the_whole_series(self, rate, cutoff):
        x = np.random.default_rng(3).standard_normal(5000)
        sos = signal.butter(5, cutoff, "highpass", fs=rate, output="sos")
        out = highpass_filter(make_series(x, rate=rate), cutoff)
        assert out.values.tobytes() == signal.sosfiltfilt(sos, x).tobytes()

    def test_series_of_padlen_samples_or_fewer_is_refused(self):
        # sosfiltfilt's default padlen, 3 * (2 * sections + 1 - first-order sections):
        # the order-5 filter has two second-order sections and one first-order one
        sos = signal.butter(5, 0.04, "highpass", fs=1.0, output="sos")
        padlen = 3 * (2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum()))
        assert padlen == 18
        for n in (1, padlen):
            with pytest.raises(ValueError, match="padlen"):
                highpass_filter(make_series(np.ones(n)), 0.04)
        assert highpass_filter(make_series(np.ones(padlen + 1)), 0.04).values.size == padlen + 1

    def test_offset_invariance(self):
        # a constant offset is all slow drift: the filtered series does not see it
        rng = np.random.default_rng(2)
        x = rng.standard_normal(6 * 3600)
        base = highpass_filter(make_series(x), 0.04).values
        shifted = highpass_filter(make_series(x + 5.0), 0.04).values
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-6)


class TestRawMotionSeries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_values_must_be_finite(self, bad):
        x = np.zeros(10)
        x[4] = bad
        with pytest.raises(ValueError, match="values must be finite"):
            make_series(x)
