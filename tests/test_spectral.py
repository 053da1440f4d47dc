import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavecast.datasets import read_spectra, write_spectra
from heavecast.spectral import (
    DirectionalWaveSpectrum,
    MorisonRaoParams,
    RaoCurve,
    SpectrumSeries,
    interpolate_spectrum_to_rao_grid,
    midpoint_widths,
    morison_rao,
    response_moments,
    response_statistics,
    spectral_moment,
)
from heavecast.synthetic import SwellEvent, SwellScenario, generate_spectra, reference_rao

T0 = np.datetime64("2024-06-01T00:00:00")


def brute_force_moment(spec, rao, order):
    """Independent double-loop oracle for the discrete moment sum."""
    total = 0.0
    for i, w in enumerate(spec.freqs):
        for j in range(spec.dirs.size):
            total += (
                w**order
                * rao.amplitudes[i] ** 2
                * spec.density[i, j]
                * spec.freq_widths[i]
                * spec.dir_widths[j]
            )
    return total


def random_case(rng, n_f=5, n_d=4):
    freqs = np.sort(rng.uniform(0.1, 2.0, n_f))
    while np.any(np.diff(freqs) < 1e-6):
        freqs = np.sort(rng.uniform(0.1, 2.0, n_f))
    dirs = np.sort(rng.uniform(0.0, 2 * np.pi - 1e-6, n_d))
    while np.any(np.diff(dirs) < 1e-6):
        dirs = np.sort(rng.uniform(0.0, 2 * np.pi - 1e-6, n_d))
    density = rng.uniform(0.0, 3.0, (n_f, n_d))
    spec = DirectionalWaveSpectrum(timestamp=T0, freqs=freqs, dirs=dirs, density=density)
    rao = RaoCurve(freqs=freqs, amplitudes=rng.uniform(0.0, 3.0, n_f))
    return spec, rao


def series_of(spectra):
    """The SpectrumSeries of per-hour spectra that share one grid."""
    first = spectra[0]
    return SpectrumSeries(
        times=[s.timestamp for s in spectra],
        freqs=first.freqs,
        dirs=first.dirs,
        density=np.array([s.density for s in spectra]),
    )


class TestRaoCurve:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            RaoCurve(freqs=[0.2, 0.1], amplitudes=[1.0, 1.0])
        with pytest.raises(ValueError):
            RaoCurve(freqs=[0.1, 0.2], amplitudes=[1.0, -1.0])
        with pytest.raises(ValueError):
            RaoCurve(freqs=[-0.1, 0.2], amplitudes=[1.0, 1.0])
        with pytest.raises(ValueError):
            RaoCurve(freqs=[0.1], amplitudes=[1.0])

    def test_resonance_and_cancellation_metadata(self):
        freqs = np.array([0.1, 0.2, 0.25, 0.3, 0.4])
        amps = np.array([1.0, 0.8, 0.1, 2.5, 0.5])
        rao = RaoCurve(freqs=freqs, amplitudes=amps)
        assert rao.resonance_freq == 0.3
        assert rao.cancellation_freq == 0.25

    def test_constant_curve_has_no_structure(self):
        rao = RaoCurve(freqs=[0.1, 0.2], amplitudes=[1.0, 1.0])
        with pytest.raises(ValueError):
            rao.resonance_freq


class TestMorisonRao:
    def test_long_wave_limit_follows_hull(self):
        params = MorisonRaoParams(omega_r=0.3, damping_ratio_term=1.0)
        rao = morison_rao(params, np.array([1e-6, 0.01]))
        assert rao.amplitudes[0] == pytest.approx(1.0, abs=1e-6)

    def test_undamped_resonance_is_singular(self):
        params = MorisonRaoParams(omega_r=0.3, damping_ratio_term=0.0)
        with pytest.raises(ZeroDivisionError):
            morison_rao(params, np.array([0.1, 0.3]))

    def test_resonance_amplitude(self):
        # direct substitution: amplitude at resonance is E/(d*omega_r)
        params = MorisonRaoParams(omega_r=0.3, damping_ratio_term=1.0)
        rao = morison_rao(params, np.array([0.1, 0.3]))
        assert rao.amplitudes[1] == pytest.approx(1.0 / (1.0 * 0.3), rel=1e-12)

    def test_matches_symbolic_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w_r = rng.uniform(0.1, 1.0)
            d = rng.uniform(0.01, 2.0)
            w = rng.uniform(0.05, 2.0)
            expected = 1.0 / np.sqrt((1 - (w / w_r) ** 2) ** 2 + (d * w) ** 2)
            params = MorisonRaoParams(omega_r=w_r, damping_ratio_term=d)
            rao = morison_rao(params, np.array([w / 2, w]))
            assert rao.amplitudes[1] == pytest.approx(expected, rel=1e-12)

    def test_tabulated_excitation_interpolates(self):
        params = MorisonRaoParams(
            omega_r=0.3,
            damping_ratio_term=1.0,
            excitation_ratio=(np.array([0.1, 0.5]), np.array([0.0, 2.0])),
        )
        rao = morison_rao(params, np.array([0.29, 0.3]))
        assert rao.amplitudes[1] == pytest.approx(1.0 / 0.3, rel=1e-12)

    def test_peak_near_resonance_with_small_damping(self):
        params = MorisonRaoParams(omega_r=0.34, damping_ratio_term=0.15)
        freqs = np.linspace(0.05, 1.5, 300)
        rao = morison_rao(params, freqs)
        peak = freqs[np.argmax(rao.amplitudes)]
        assert abs(peak - 0.34) <= np.diff(freqs)[0]


class TestInterpolation:
    def test_identity_on_same_grid(self):
        spec, rao = random_case(np.random.default_rng(0))
        out = interpolate_spectrum_to_rao_grid(spec, rao)
        np.testing.assert_array_equal(out.density, spec.density)

    def test_constant_density_preserved(self):
        freqs = np.linspace(0.2, 1.0, 6)
        spec = DirectionalWaveSpectrum(
            timestamp=T0, freqs=freqs, dirs=np.array([1.0, 2.0]),
            density=np.full((6, 2), 3.3),
        )
        rao = RaoCurve(freqs=np.linspace(0.25, 0.95, 9), amplitudes=np.ones(9))
        out = interpolate_spectrum_to_rao_grid(spec, rao)
        np.testing.assert_allclose(out.density, 3.3)

    def test_midpoint_of_line(self):
        spec = DirectionalWaveSpectrum(
            timestamp=T0, freqs=np.array([0.2, 0.4]), dirs=np.array([1.0, 2.0]),
            density=np.array([[0.0, 0.0], [2.0, 2.0]]),
        )
        rao = RaoCurve(freqs=np.array([0.2, 0.3, 0.4]), amplitudes=np.ones(3))
        out = interpolate_spectrum_to_rao_grid(spec, rao)
        assert out.density[1, 0] == pytest.approx(1.0)

    def test_zero_outside_support(self):
        spec = DirectionalWaveSpectrum(
            timestamp=T0, freqs=np.array([0.3, 0.4]), dirs=np.array([1.0, 2.0]),
            density=np.full((2, 2), 5.0),
        )
        rao = RaoCurve(freqs=np.array([0.1, 0.35, 0.9]), amplitudes=np.ones(3))
        out = interpolate_spectrum_to_rao_grid(spec, rao)
        assert out.density[0, 0] == 0.0
        assert out.density[2, 0] == 0.0
        assert out.density[1, 0] == pytest.approx(5.0)


class TestSpectralMoment:
    def test_zero_spectrum(self):
        spec, rao = random_case(np.random.default_rng(1))
        spec = DirectionalWaveSpectrum(
            timestamp=T0, freqs=spec.freqs, dirs=spec.dirs,
            density=np.zeros_like(spec.density),
        )
        for i in (0, 1, 2):
            assert spectral_moment(spec, rao, i) == 0.0

    def test_single_occupied_bin(self):
        freqs = np.array([0.25, 0.5, 1.0])
        dirs = np.array([1.0, 2.0])
        density = np.zeros((3, 2))
        fw = midpoint_widths(freqs)
        dw = midpoint_widths(dirs)
        density[1, 0] = 2.0 / (fw[1] * dw[0])  # S*dw*dth = 2.0 in the 0.5 bin
        spec = DirectionalWaveSpectrum(timestamp=T0, freqs=freqs, dirs=dirs, density=density)
        rao = RaoCurve(freqs=freqs, amplitudes=np.ones(3))
        assert spectral_moment(spec, rao, 0) == pytest.approx(2.0, rel=1e-12)
        assert spectral_moment(spec, rao, 2) == pytest.approx(2.0 * 0.5**2, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            spec, rao = random_case(rng)
            for order in (0, 2):
                assert spectral_moment(spec, rao, order) == pytest.approx(
                    brute_force_moment(spec, rao, order), rel=1e-12
                )

    def test_grid_mismatch_rejected(self):
        spec, rao = random_case(np.random.default_rng(3))
        other = RaoCurve(freqs=spec.freqs * 1.01, amplitudes=rao.amplitudes)
        with pytest.raises(ValueError):
            spectral_moment(spec, other, 0)

    @given(scale=st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_moment_scales_linearly(self, scale):
        spec, rao = random_case(np.random.default_rng(4))
        scaled = DirectionalWaveSpectrum(
            timestamp=T0, freqs=spec.freqs, dirs=spec.dirs,
            density=spec.density * scale,
        )
        m_base = spectral_moment(spec, rao, 0)
        assert spectral_moment(scaled, rao, 0) == pytest.approx(scale * m_base, rel=1e-9, abs=1e-12)

    def test_direction_redistribution_invariance(self):
        # direction-independent RAO: moving energy between direction bins at
        # fixed frequency must not change the response moments
        rng = np.random.default_rng(5)
        spec, rao = random_case(rng)
        uniform_dw = DirectionalWaveSpectrum(
            timestamp=T0, freqs=spec.freqs, dirs=np.linspace(0.5, 5.5, 4), density=spec.density,
        )
        # the midpoint widths of an evenly spaced grid are all equal
        np.testing.assert_allclose(uniform_dw.dir_widths, np.full(4, 5.0 / 3.0), rtol=1e-12)
        row_sums = uniform_dw.density.sum(axis=1)
        shuffled = uniform_dw.density.copy()
        for i in range(shuffled.shape[0]):
            p = rng.dirichlet(np.ones(4))
            shuffled[i] = row_sums[i] * p
        redistributed = DirectionalWaveSpectrum(
            timestamp=T0, freqs=uniform_dw.freqs, dirs=uniform_dw.dirs, density=shuffled,
        )
        for order in (0, 2):
            assert spectral_moment(redistributed, rao, order) == pytest.approx(
                spectral_moment(uniform_dw, rao, order), rel=1e-12
            )


class TestResponseStatistics:
    def test_pipeline_helper(self):
        spec, rao = random_case(np.random.default_rng(8))
        m0, m2 = response_statistics(spec, rao)
        on_grid = interpolate_spectrum_to_rao_grid(spec, rao)
        assert m0 == pytest.approx(spectral_moment(on_grid, rao, 0), rel=1e-12)
        assert m2 == pytest.approx(spectral_moment(on_grid, rao, 2), rel=1e-12)


class TestResponseMoments:
    """response_moments against a loop of response_statistics, the reference."""

    @staticmethod
    def assert_matches_loop(spectra, rao):
        m0, m2 = response_moments(spectra, rao)
        ref = np.array([
            response_statistics(
                DirectionalWaveSpectrum(timestamp=t, freqs=spectra.freqs, dirs=spectra.dirs, density=density), rao
            )
            for t, density in zip(spectra.times, spectra.density)
        ]).reshape(-1, 2)
        np.testing.assert_allclose(m0, ref[:, 0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(m2, ref[:, 1], rtol=1e-12, atol=0.0)
        return m0, m2

    def test_generated_spectra(self):
        scn = SwellScenario(
            start=T0,
            duration_h=72,
            events=(SwellEvent(arrival_h=20, hs=2.5, tp=16.0), SwellEvent(arrival_h=50, hs=1.5, tp=11.0)),
            background_hs=0.7,
            hs_jitter=0.2,
            seed=4,
        )
        m0, _ = self.assert_matches_loop(generate_spectra(scn), reference_rao())
        assert np.all(m0 > 0.0)

    def test_spectra_read_from_file(self, tmp_path):
        rng = np.random.default_rng(9)
        freqs = 2 * np.pi * np.linspace(0.05, 0.3, 9)
        dirs = np.deg2rad(np.arange(0.0, 360.0, 45.0))
        spectra = series_of([
            DirectionalWaveSpectrum(
                timestamp=T0 + k * np.timedelta64(1, "h"), freqs=freqs, dirs=dirs, density=rng.uniform(0.0, 2.0, (9, 8))
            )
            for k in range(5)
        ])
        write_spectra(tmp_path / "spectra.csv", spectra)
        self.assert_matches_loop(read_spectra(tmp_path / "spectra.csv"), reference_rao())

    def test_rao_grid_past_spectrum_support(self):
        rng = np.random.default_rng(10)
        freqs = np.linspace(0.5, 1.5, 7)
        dirs = np.linspace(0.1, 6.0, 5)
        spectra = series_of([
            DirectionalWaveSpectrum(timestamp=T0, freqs=freqs, dirs=dirs, density=rng.uniform(0.0, 1.0, (7, 5)))
            for _ in range(4)
        ])
        # RAO points below, between, on and above the spectrum frequencies
        rao_freqs = np.concatenate([[0.1, 0.3], np.linspace(0.5, 1.5, 23), [1.7, 2.5]])
        rao = RaoCurve(freqs=rao_freqs, amplitudes=rng.uniform(0.2, 2.0, rao_freqs.size))
        self.assert_matches_loop(spectra, rao)

    def test_all_zero_hours(self):
        scn = SwellScenario(start=T0, duration_h=6, background_hs=0.0)
        spectra = generate_spectra(scn)
        m0, m2 = self.assert_matches_loop(spectra, reference_rao())
        assert np.all(m0 == 0.0) and np.all(m2 == 0.0)

    def test_empty_and_mixed_grids(self):
        spec, rao = random_case(np.random.default_rng(11))
        m0, m2 = response_moments(series_of([spec])[:0], rao)
        assert m0.size == 0 and m2.size == 0
        # one series holds one grid: a spectrum of another grid does not fit in
        smaller, _ = random_case(np.random.default_rng(12), n_f=4)
        with pytest.raises(ValueError, match="shaped"):
            SpectrumSeries(
                times=[T0, T0], freqs=spec.freqs, dirs=spec.dirs, density=np.array([spec.density[:4], smaller.density])
            )


def test_values_a_record_works_out_are_not_given():
    spec, rao = random_case(np.random.default_rng(13))
    grid = dict(freqs=spec.freqs, dirs=spec.dirs)
    for name in ("freq_widths", "dir_widths"):
        np.testing.assert_array_equal(getattr(spec, name), midpoint_widths(grid[name.replace("_widths", "s")]))
        with pytest.raises(TypeError, match=name):
            DirectionalWaveSpectrum(timestamp=T0, **grid, density=spec.density, **{name: np.ones(4)})
        with pytest.raises(TypeError, match=name):
            SpectrumSeries(times=[T0], **grid, density=spec.density[None], **{name: np.ones(4)})
    with pytest.raises(TypeError, match="label"):
        RaoCurve(freqs=rao.freqs, amplitudes=rao.amplitudes, label="rao")
    with pytest.raises(TypeError, match="label"):
        morison_rao(MorisonRaoParams(omega_r=0.3, damping_ratio_term=1.0), rao.freqs, label="rao")


class TestSpectrumSeries:
    """SpectrumSeries checks once what DirectionalWaveSpectrum checks per hour."""

    @staticmethod
    def grid(n_times=6, seed=20):
        rng = np.random.default_rng(seed)
        return dict(
            times=T0 + np.arange(n_times) * np.timedelta64(1, "h"),
            freqs=np.linspace(0.3, 1.5, 5),
            dirs=np.linspace(0.2, 6.0, 4),
            density=rng.uniform(0.0, 2.0, (n_times, 5, 4)),
        )

    @staticmethod
    def per_hour(fields, k):
        return DirectionalWaveSpectrum(
            timestamp=fields["times"][k],
            freqs=fields["freqs"],
            dirs=fields["dirs"],
            density=fields["density"][k],
        )

    @pytest.mark.parametrize("fault", ["negative", "nan", "inf", "decreasing_freqs", "dir_at_2pi", "negative_dir"])
    def test_rejects_what_the_per_hour_type_rejects(self, fault):
        fields = self.grid()
        density = fields["density"].copy()
        if fault == "negative":
            density[5, 4, 3] = -1e-12  # last hour, last bin: the whole array is checked
        elif fault == "nan":
            density[3, 0, 0] = np.nan
        elif fault == "inf":
            density[5, 2, 1] = np.inf
        elif fault == "decreasing_freqs":
            fields["freqs"] = fields["freqs"][::-1]
        elif fault == "dir_at_2pi":
            fields["dirs"] = np.array([0.5, 1.0, 3.0, 2.0 * np.pi])
        elif fault == "negative_dir":
            fields["dirs"] = np.array([-0.1, 1.0, 3.0, 4.0])
        fields["density"] = density
        hour = 5 if fault in ("negative", "inf") else 3 if fault == "nan" else 0
        with pytest.raises(ValueError) as per_hour:
            self.per_hour(fields, hour)
        with pytest.raises(ValueError) as series:
            SpectrumSeries(**fields)
        assert str(series.value) == str(per_hour.value)

    def test_rejects_bad_shapes(self):
        fields = self.grid()
        with pytest.raises(ValueError, match="shaped"):
            SpectrumSeries(**{**fields, "density": fields["density"][:, :4]})
        with pytest.raises(ValueError, match="shaped"):
            SpectrumSeries(**{**fields, "density": fields["density"][:5]})
        with pytest.raises(ValueError, match="shaped"):
            SpectrumSeries(**{**fields, "density": fields["density"][0]})
        with pytest.raises(ValueError, match="1-d"):
            SpectrumSeries(**{**fields, "times": fields["times"].reshape(2, 3)})

    def test_one_hour_slice_holds_the_per_hour_spectrum(self):
        fields = self.grid()
        series = SpectrumSeries(**fields)
        assert len(series) == 6
        for k in (0, 3, 5, -1):
            got, ref = series[k:k + 1 or None], self.per_hour(fields, k)
            assert got.times.tolist() == [ref.timestamp]
            np.testing.assert_array_equal(got.density[0], ref.density)
            for name in ("freqs", "dirs", "freq_widths", "dir_widths"):
                np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
        assert len(series[6:]) == 0

    def test_slices_are_series(self):
        fields = self.grid()
        series = SpectrumSeries(**fields)
        for sl in (slice(1, 4), slice(None, None, 2), slice(4, None), slice(2, 2)):
            part = series[sl]
            assert isinstance(part, SpectrumSeries)
            np.testing.assert_array_equal(part.times, fields["times"][sl])
            np.testing.assert_array_equal(part.density, fields["density"][sl])
            np.testing.assert_array_equal(part.freq_widths, series.freq_widths)
            np.testing.assert_array_equal(part.dir_widths, series.dir_widths)

    def test_series_is_read_only_to_callers(self):
        series = SpectrumSeries(**self.grid())
        with pytest.raises(dataclasses.FrozenInstanceError):
            series.density = np.zeros((6, 5, 4))

    def test_moments_of_slices(self):
        series = SpectrumSeries(**self.grid(n_times=12, seed=21))
        rao = RaoCurve(freqs=np.linspace(0.2, 1.8, 30), amplitudes=np.linspace(0.5, 1.5, 30))
        m0, m2 = response_moments(series, rao)
        part0, part2 = response_moments(series[3:9], rao)
        np.testing.assert_array_equal(part0, m0[3:9])
        np.testing.assert_array_equal(part2, m2[3:9])
        ref = [
            response_statistics(DirectionalWaveSpectrum(timestamp=t, freqs=series.freqs, dirs=series.dirs, density=d), rao)
            for t, d in zip(series.times, series.density)
        ]
        np.testing.assert_allclose(m0, [m0_ for m0_, _ in ref], rtol=1e-12, atol=0.0)


# NaN compares false with every bound, so each record checks finiteness itself
@pytest.mark.parametrize(
    "grid, what",
    [
        ({"freqs": [0.5, np.nan, 1.5]}, "frequencies"),
        ({"freqs": [np.nan, 1.0, 1.5]}, "frequencies"),
        ({"freqs": [0.5, 1.0, np.inf]}, "frequencies"),
        ({"dirs": [0.5, np.nan]}, "directions"),
        ({"dirs": [np.nan, 2.0]}, "directions"),
    ],
)
def test_spectra_refuse_a_grid_point_that_is_not_finite(grid, what):
    grid = {"freqs": [0.5, 1.0, 1.5], "dirs": [0.5, 2.0], **grid}
    message = f"^{what} must be finite and strictly increasing"
    with pytest.raises(ValueError, match=message):
        DirectionalWaveSpectrum(timestamp=T0, density=np.ones((3, 2)), **grid)
    with pytest.raises(ValueError, match=message):
        SpectrumSeries(times=[T0], density=np.ones((1, 3, 2)), **grid)


@pytest.mark.parametrize("freqs", [[-0.1, 0.0, 0.1], [0.0, 0.5, 1.0], [-1.5, -1.0, -0.5]])
def test_spectra_refuse_a_frequency_that_is_not_positive(freqs):
    # RaoCurve refuses these too; a spectrum used to take them, and response wrote an m0 from them
    with pytest.raises(ValueError, match="^frequencies must be positive$"):
        DirectionalWaveSpectrum(timestamp=T0, freqs=freqs, dirs=[0.5, 2.0], density=np.ones((3, 2)))
    with pytest.raises(ValueError, match="^frequencies must be positive$"):
        SpectrumSeries(times=[T0], freqs=freqs, dirs=[0.5, 2.0], density=np.ones((1, 3, 2)))


@pytest.mark.parametrize(
    "params, message",
    [
        ({"omega_r": np.inf}, "omega_r must be finite and positive"),
        ({"damping_ratio_term": np.nan}, "damping_ratio_term must be finite and nonnegative"),
        ({"damping_ratio_term": np.inf}, "damping_ratio_term must be finite and nonnegative"),
        ({"excitation_ratio": np.nan}, "excitation_ratio must be finite and nonnegative"),
        ({"excitation_ratio": np.inf}, "excitation_ratio must be finite and nonnegative"),
        (
            {"excitation_ratio": (np.array([0.1, np.nan, 0.9]), np.ones(3))},
            "excitation_ratio frequencies must be finite and strictly increasing",
        ),
        (
            {"excitation_ratio": (np.array([0.1, 0.5]), np.array([1.0, np.nan]))},
            "excitation_ratio values must be finite and nonnegative",
        ),
    ],
)
def test_morison_params_refuse_a_value_that_is_not_finite(params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MorisonRaoParams(**{"omega_r": 0.3, "damping_ratio_term": 1.0, **params})
