"""Physics-based heave response statistics from directional wave spectra and RAOs.

The response model is the standard frequency-domain one: the vessel heave
spectrum is |RAO(w)|^2 * S(w, theta), and operational statistics follow from
its spectral moments. A spectrum's bin widths are not given but worked out:
they are the midpoint widths of its frequency and direction grids
(midpoint_widths). A parametric single-degree-of-freedom RAO generator in
Morison form is included for vessels where only the resonance frequency and
damping-to-restoring ratio are known.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RaoCurve",
    "MorisonRaoParams",
    "DirectionalWaveSpectrum",
    "SpectrumSeries",
    "ResponseStatistics",
    "morison_rao",
    "interpolate_spectrum_to_rao_grid",
    "spectral_moment",
    "response_statistics",
    "response_moments",
    "midpoint_widths",
]


def midpoint_widths(centers: np.ndarray) -> np.ndarray:
    """Bin widths for a strictly increasing grid of bin centers.

    Interior widths use the midpoint rule, Dw_j = (w_{j+1} - w_{j-1}) / 2;
    the end bins use one-sided widths.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 1 or centers.size < 2:
        raise ValueError("need at least two bin centers")
    edges = np.empty(centers.size + 1)
    edges[1:-1] = 0.5 * (centers[:-1] + centers[1:])
    edges[0] = centers[0] - (edges[1] - centers[0])
    edges[-1] = centers[-1] + (centers[-1] - edges[-2])
    return np.diff(edges)


@dataclass(frozen=True, eq=False)
class RaoCurve:
    """Heave RAO magnitude (m/m) tabulated against angular frequency (rad/s)."""

    freqs: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=float)
        if freqs.ndim != 1 or freqs.size < 2:
            raise ValueError("RAO needs at least two frequency points")
        if amps.shape != freqs.shape:
            raise ValueError("freqs and amplitudes must have equal length")
        if not np.all(np.isfinite(freqs)) or np.any(freqs <= 0.0) or np.any(np.diff(freqs) <= 0.0):
            raise ValueError("frequencies must be finite, strictly increasing and positive")
        if np.any(amps < 0.0) or not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite and nonnegative")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def resonance_freq(self) -> float:
        """Frequency of maximum response (rad/s)."""
        self._require_nonconstant()
        return float(self.freqs[int(np.argmax(self.amplitudes))])

    @property
    def cancellation_freq(self) -> float:
        """Frequency of minimum response below resonance (rad/s)."""
        self._require_nonconstant()
        below = self.freqs < self.resonance_freq
        if not np.any(below):
            raise ValueError("no frequencies below resonance")
        idx = int(np.argmin(self.amplitudes[below]))
        return float(self.freqs[below][idx])

    def _require_nonconstant(self):
        if np.ptp(self.amplitudes) == 0.0:
            raise ValueError("constant RAO has no resonance/cancellation structure")


@dataclass(frozen=True, eq=False)
class MorisonRaoParams:
    """Parameters of the Morison-form heave RAO.

    excitation_ratio is the excitation force normalised by the restoring force
    of the incident wave amplitude, given either as a constant or tabulated as
    (freqs, values) over angular frequency and linearly interpolated.
    damping_ratio_term is the damping-to-restoring coefficient ratio, in
    seconds; omega_r is the heave resonance frequency in rad/s.
    """

    omega_r: float
    damping_ratio_term: float
    excitation_ratio: float | tuple[np.ndarray, np.ndarray] = 1.0

    def __post_init__(self):
        if not self.omega_r > 0.0:
            raise ValueError("omega_r must be positive")
        if self.damping_ratio_term < 0.0:
            raise ValueError("damping_ratio_term must be nonnegative")
        if not np.isscalar(self.excitation_ratio):
            f, v = (np.asarray(a, dtype=float) for a in self.excitation_ratio)
            if f.shape != v.shape or f.ndim != 1:
                raise ValueError("tabulated excitation_ratio needs matching 1-d arrays")
            if np.any(np.diff(f) <= 0.0):
                raise ValueError("excitation_ratio frequencies must be strictly increasing")
            if np.any(v < 0.0):
                raise ValueError("excitation_ratio values must be nonnegative")
            object.__setattr__(self, "excitation_ratio", (f, v))
        elif self.excitation_ratio < 0.0:
            raise ValueError("excitation_ratio must be nonnegative")

    def excitation_at(self, freqs: np.ndarray) -> np.ndarray:
        freqs = np.asarray(freqs, dtype=float)
        if np.isscalar(self.excitation_ratio):
            return np.full_like(freqs, float(self.excitation_ratio))
        f, v = self.excitation_ratio
        return np.interp(freqs, f, v)


def _checked_grid(freqs, dirs, density, n_times=None):
    """Grid, density and the grid's midpoint widths as float arrays, after
    the checks both spectrum types make; density is (n_freqs, n_dirs), or
    (n_times, n_freqs, n_dirs) when n_times is given."""
    freqs = np.asarray(freqs, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    density = np.asarray(density, dtype=float)
    fw, dw = midpoint_widths(freqs), midpoint_widths(dirs)
    if np.any(np.diff(freqs) <= 0.0):
        raise ValueError("frequencies must be strictly increasing")
    if np.any(np.diff(dirs) <= 0.0) or np.any(dirs < 0.0) or np.any(dirs >= 2.0 * np.pi):
        raise ValueError("directions must be strictly increasing in [0, 2*pi)")
    if n_times is None and density.shape != (freqs.size, dirs.size):
        raise ValueError("density must be shaped (n_freqs, n_dirs)")
    if n_times is not None and density.shape != (n_times, freqs.size, dirs.size):
        raise ValueError("density must be shaped (n_times, n_freqs, n_dirs)")
    if np.any(density < 0.0) or not np.all(np.isfinite(density)):
        raise ValueError("density must be finite and nonnegative")
    return freqs, dirs, density, fw, dw


@dataclass(frozen=True, eq=False)
class DirectionalWaveSpectrum:
    """Directional spectral density on a frequency x direction grid.

    Density is in m^2 s/rad per rad of direction; freqs in rad/s, dirs in
    radians in [0, 2*pi). The bin widths are the grid's midpoint widths
    (midpoint_widths of freqs and of dirs), worked out from the grid; the
    grid integral with them gives the zeroth moment of the sea surface.
    """

    timestamp: np.datetime64
    freqs: np.ndarray
    dirs: np.ndarray
    density: np.ndarray
    freq_widths: np.ndarray = field(init=False)
    dir_widths: np.ndarray = field(init=False)

    def __post_init__(self):
        grid = _checked_grid(self.freqs, self.dirs, self.density)
        object.__setattr__(self, "timestamp", np.datetime64(self.timestamp, "s"))
        for name, value in zip(("freqs", "dirs", "density", "freq_widths", "dir_widths"), grid):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class SpectrumSeries:
    """Directional spectra of many timestamps on one frequency x direction grid.

    density is (times, freqs, dirs), in the units of DirectionalWaveSpectrum;
    the grid and the whole density array are checked once, by the same rules,
    and the bin widths are the grid's midpoint widths, as there.
    series[k] is the spectrum at times[k] and series[a:b] a shorter series.
    """

    times: np.ndarray  # datetime64[s]
    freqs: np.ndarray
    dirs: np.ndarray
    density: np.ndarray
    freq_widths: np.ndarray = field(init=False)
    dir_widths: np.ndarray = field(init=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype="datetime64[s]")
        if times.ndim != 1:
            raise ValueError("times must be a 1-d array")
        grid = _checked_grid(self.freqs, self.dirs, self.density, times.size)
        object.__setattr__(self, "times", times)
        for name, value in zip(("freqs", "dirs", "density", "freq_widths", "dir_widths"), grid):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, key):
        if isinstance(key, slice):
            return dataclasses.replace(self, times=self.times[key], density=self.density[key])
        return DirectionalWaveSpectrum(
            timestamp=self.times[key],
            freqs=self.freqs,
            dirs=self.dirs,
            density=self.density[key],
        )

    def __iter__(self):
        return (self[k] for k in range(len(self)))


@dataclass(frozen=True)
class ResponseStatistics:
    """Spectral moments of the heave response and the significant amplitude."""

    timestamp: np.datetime64
    m0: float
    m2: float
    sig_amplitude: float = field(init=False)  # 2*sqrt(m0)

    def __post_init__(self):
        if self.m0 < 0.0 or self.m2 < 0.0:
            raise ValueError("spectral moments must be nonnegative")
        object.__setattr__(self, "sig_amplitude", 2.0 * np.sqrt(self.m0))
        object.__setattr__(self, "timestamp", np.datetime64(self.timestamp, "s"))


def morison_rao(params: MorisonRaoParams, freqs: np.ndarray) -> RaoCurve:
    """Evaluate the Morison-form heave RAO magnitude on a frequency grid.

    amplitude(w) = E(w) / sqrt([1 - (w/w_R)^2]^2 + [d*w]^2) with E the
    excitation ratio and d the damping-to-restoring term. At resonance this
    reduces to E(w_R) / (d * w_R); an undamped curve evaluated at resonance
    is a genuine singularity and raises.
    """
    freqs = np.asarray(freqs, dtype=float)
    if np.any(freqs <= 0.0):
        raise ValueError("frequencies must be positive")
    ratio = freqs / params.omega_r
    denom_sq = (1.0 - ratio**2) ** 2 + (params.damping_ratio_term * freqs) ** 2
    if np.any(denom_sq < np.finfo(float).eps**2):
        raise ZeroDivisionError(
            "undamped resonance: RAO singular at omega = omega_r with zero damping"
        )
    amps = params.excitation_at(freqs) / np.sqrt(denom_sq)
    return RaoCurve(freqs=freqs, amplitudes=amps)


def interpolate_spectrum_to_rao_grid(
    spec: DirectionalWaveSpectrum, rao: RaoCurve
) -> DirectionalWaveSpectrum:
    """Re-grid wave energy onto the RAO frequency grid, per direction.

    Linear interpolation of the spectral density in frequency, with zero
    density outside the source grid's support. This preserves nonnegativity
    but not total energy exactly; the resonance peak of the RAO is what the
    target grid must resolve.
    """
    density = np.empty((rao.freqs.size, spec.dirs.size))
    for j in range(spec.dirs.size):
        density[:, j] = np.interp(
            rao.freqs, spec.freqs, spec.density[:, j], left=0.0, right=0.0
        )
    return DirectionalWaveSpectrum(
        timestamp=spec.timestamp,
        freqs=rao.freqs.copy(),
        dirs=spec.dirs,
        density=density,
    )


def spectral_moment(spec: DirectionalWaveSpectrum, rao: RaoCurve, order: int = 0) -> float:
    """i-th spectral moment of the heave response.

    Discrete approximation sum_{w,theta} w^i |RAO(w)|^2 S(w,theta) Dw Dtheta
    over the (center-frequency, center-direction) grid. The spectrum must
    already live on the RAO frequency grid; interpolate first.
    """
    if order < 0 or int(order) != order:
        raise ValueError("moment order must be a nonnegative integer")
    if spec.freqs.shape != rao.freqs.shape or not np.array_equal(spec.freqs, rao.freqs):
        raise ValueError("spectrum frequency grid does not match the RAO grid")
    weights = spec.freqs**order * rao.amplitudes**2 * spec.freq_widths
    return float(weights @ (spec.density @ spec.dir_widths))


def response_statistics(
    spec: DirectionalWaveSpectrum, rao: RaoCurve
) -> ResponseStatistics:
    """Interpolate, take moments and the significant amplitude in one call."""
    on_grid = interpolate_spectrum_to_rao_grid(spec, rao)
    m0 = spectral_moment(on_grid, rao, 0)
    m2 = spectral_moment(on_grid, rao, 2)
    return ResponseStatistics(timestamp=spec.timestamp, m0=m0, m2=m2)


def response_moments(series: SpectrumSeries, rao: RaoCurve) -> tuple[np.ndarray, np.ndarray]:
    """Response moments m0 and m2 of every spectrum of a series.

    Equal to response_statistics per spectrum (the reference), computed
    array-at-a-time. Interpolation onto the RAO grid and the moment sum are
    both linear in the density, so sum_{w,theta} w^i |RAO|^2 S Dw Dtheta
    over the re-gridded spectrum equals (S @ Dtheta) @ P^T (w^i |RAO|^2 Dw),
    with P the zero-extended linear interpolation matrix from the spectrum
    frequencies to the RAO grid. Only the (times, freqs) omnidirectional
    densities are formed, never a spectrum on the RAO grid; the summation
    order differs from the reference, so results agree to rounding.
    """
    omni = series.density @ series.dir_widths
    interp = np.column_stack(
        [np.interp(rao.freqs, series.freqs, unit, left=0.0, right=0.0) for unit in np.eye(series.freqs.size)]
    )
    widths = midpoint_widths(rao.freqs)
    weights = np.column_stack([rao.freqs**order * rao.amplitudes**2 * widths for order in (0, 2)])
    moments = omni @ (interp.T @ weights)
    return moments[:, 0], moments[:, 1]
