import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavecast.io import read_spectra, write_spectra
from heavecast.spectral import (
    DirectionalWaveSpectrum,
    MorisonRaoParams,
    RaoCurve,
    ResponseStatistics,
    interpolate_spectrum_to_rao_grid,
    midpoint_widths,
    morison_rao,
    response_moments,
    response_statistics,
    significant_response,
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
        spec = DirectionalWaveSpectrum(
            timestamp=T0, freqs=freqs, dirs=dirs, density=density,
            freq_widths=fw, dir_widths=dw,
        )
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
            freq_widths=spec.freq_widths, dir_widths=spec.dir_widths,
        )
        m_base = spectral_moment(spec, rao, 0)
        assert spectral_moment(scaled, rao, 0) == pytest.approx(scale * m_base, rel=1e-9, abs=1e-12)

    def test_direction_redistribution_invariance(self):
        # direction-independent RAO: moving energy between direction bins at
        # fixed frequency must not change the response moments
        rng = np.random.default_rng(5)
        spec, rao = random_case(rng)
        uniform_dw = DirectionalWaveSpectrum(
            timestamp=T0, freqs=spec.freqs, dirs=np.linspace(0.5, 5.5, 4),
            density=spec.density, freq_widths=spec.freq_widths,
            dir_widths=np.full(4, 1.0),
        )
        row_sums = uniform_dw.density.sum(axis=1)
        shuffled = uniform_dw.density.copy()
        for i in range(shuffled.shape[0]):
            p = rng.dirichlet(np.ones(4))
            shuffled[i] = row_sums[i] * p
        redistributed = DirectionalWaveSpectrum(
            timestamp=T0, freqs=uniform_dw.freqs, dirs=uniform_dw.dirs,
            density=shuffled, freq_widths=uniform_dw.freq_widths,
            dir_widths=uniform_dw.dir_widths,
        )
        for order in (0, 2):
            assert spectral_moment(redistributed, rao, order) == pytest.approx(
                spectral_moment(uniform_dw, rao, order), rel=1e-12
            )


class TestSignificantResponse:
    @pytest.mark.parametrize("m0,expected", [(0.0, 0.0), (1.0, 2.0), (0.0625, 0.5)])
    def test_values(self, m0, expected):
        assert significant_response(m0) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            significant_response(-1e-9)

    def test_sqrt_scaling(self):
        spec, rao = random_case(np.random.default_rng(6))
        m0 = spectral_moment(spec, rao, 0)
        assert significant_response(4.0 * m0) == pytest.approx(
            2.0 * significant_response(m0), rel=1e-12
        )


class TestResponseStatistics:
    def test_sig_amplitude_identity(self):
        st_ = ResponseStatistics(timestamp=T0, m0=0.25, m2=0.1)
        assert st_.sig_amplitude == 2.0 * np.sqrt(0.25)

    def test_pipeline_helper(self):
        spec, rao = random_case(np.random.default_rng(8))
        st_ = response_statistics(spec, rao)
        on_grid = interpolate_spectrum_to_rao_grid(spec, rao)
        assert st_.m0 == pytest.approx(spectral_moment(on_grid, rao, 0), rel=1e-12)
        assert st_.sig_amplitude == 2.0 * np.sqrt(st_.m0)


class TestResponseMoments:
    """response_moments against a loop of response_statistics, the reference."""

    @staticmethod
    def assert_matches_loop(spectra, rao):
        m0, m2 = response_moments(spectra, rao)
        ref = [response_statistics(s, rao) for s in spectra]
        np.testing.assert_allclose(m0, [r.m0 for r in ref], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(m2, [r.m2 for r in ref], rtol=1e-12, atol=0.0)
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
        spectra = [
            DirectionalWaveSpectrum(
                timestamp=T0 + k * np.timedelta64(1, "h"), freqs=freqs, dirs=dirs, density=rng.uniform(0.0, 2.0, (9, 8))
            )
            for k in range(5)
        ]
        write_spectra(tmp_path / "spectra.csv", spectra)
        self.assert_matches_loop(read_spectra(tmp_path / "spectra.csv"), reference_rao())

    def test_rao_grid_past_spectrum_support(self):
        rng = np.random.default_rng(10)
        freqs = np.linspace(0.5, 1.5, 7)
        dirs = np.linspace(0.1, 6.0, 5)
        spectra = [
            DirectionalWaveSpectrum(timestamp=T0, freqs=freqs, dirs=dirs, density=rng.uniform(0.0, 1.0, (7, 5)))
            for _ in range(4)
        ]
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
        m0, m2 = response_moments([], reference_rao())
        assert m0.size == 0 and m2.size == 0
        spec, rao = random_case(np.random.default_rng(11))
        other = DirectionalWaveSpectrum(timestamp=T0, freqs=spec.freqs * 1.01, dirs=spec.dirs, density=spec.density)
        with pytest.raises(ValueError, match="grid"):
            response_moments([spec, other], rao)
        smaller, _ = random_case(np.random.default_rng(12), n_f=4)
        with pytest.raises(ValueError, match="grid"):
            response_moments([spec, smaller], rao)
