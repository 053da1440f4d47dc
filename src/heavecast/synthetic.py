"""Synthetic swell campaigns: controlled ground truth for tests and demos.

Generates bimodal directional spectra (long-period swell events over a broad
wind-sea background) on the operational 28 x 30 forecast grid, derives the
"true" vessel response through the spectral engine, fabricates forecast
issues by corrupting the truth with bias, timing error and autocorrelated
noise, and simulates observation series from the hybrid model's generative
process. Everything is driven by explicit seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import DEFAULT_MAX_LEADS, ForecastIssue
from .model import ar2_stationary
from .spectral import (
    DirectionalWaveSpectrum,
    MorisonRaoParams,
    RaoCurve,
    morison_rao,
    response_moments,
)

__all__ = [
    "SwellEvent",
    "SwellScenario",
    "ErrorInjection",
    "generate_spectra",
    "generate_forecast_issues",
    "generate_observations",
    "reference_rao",
    "true_response_series",
    "FORECAST_FREQS_HZ",
    "FORECAST_DIRS_RAD",
]

# Operational forecast grid: 28 log-spaced frequency bins, 30 direction bins.
FORECAST_FREQS_HZ = np.logspace(np.log10(0.0412), np.log10(0.5399), 28)
FORECAST_DIRS_RAD = (np.arange(30) + 0.5) * (2.0 * np.pi / 30.0)

_TP_MIN = 1.0 / FORECAST_FREQS_HZ[-1]  # ~1.85 s
_TP_MAX = 1.0 / FORECAST_FREQS_HZ[0]  # ~24.3 s

HOUR = np.timedelta64(1, "h")


@dataclass(frozen=True)
class SwellEvent:
    """One swell pulse: peak Hs/Tp with exponential rise and decay."""

    arrival_h: float  # hours after scenario start
    hs: float  # m at peak
    tp: float  # s at peak
    rise_h: float = 12.0
    decay_h: float = 24.0
    direction: float = np.deg2rad(200.0)
    spread_exp: float = 12.0
    bandwidth_hz: float = 0.008

    def __post_init__(self):
        if self.hs < 0.0:
            raise ValueError("Hs must be nonnegative")
        if not _TP_MIN <= self.tp <= _TP_MAX:
            raise ValueError(f"Tp must lie within the forecast band [{_TP_MIN:.2f}, {_TP_MAX:.2f}] s")
        if self.rise_h <= 0.0 or self.decay_h <= 0.0:
            raise ValueError("rise and decay time constants must be positive")


@dataclass(frozen=True)
class SwellScenario:
    """Campaign description: event schedule plus wind-sea background."""

    start: np.datetime64
    duration_h: int
    events: tuple[SwellEvent, ...] = ()
    background_hs: float = 0.8
    background_tp: float = 6.0
    background_direction: float = np.deg2rad(90.0)
    background_spread_exp: float = 2.0
    hs_jitter: float = 0.0  # relative hourly Hs modulation (AR(1) in time)
    hs_jitter_ar: float = 0.7  # hour-to-hour persistence of the modulation
    seed: int = 0

    def __post_init__(self):
        if self.duration_h < 1:
            raise ValueError("duration must be at least one hour")
        if self.background_hs < 0.0:
            raise ValueError("background Hs must be nonnegative")
        if self.hs_jitter < 0.0:
            raise ValueError("Hs jitter must be nonnegative")
        if not 0.0 <= self.hs_jitter_ar < 1.0:
            raise ValueError("Hs jitter persistence must lie in [0, 1)")
        if self.background_hs > 0.0 and not _TP_MIN <= self.background_tp <= _TP_MAX:
            raise ValueError("background Tp outside the forecast band")
        object.__setattr__(self, "start", np.datetime64(self.start, "s"))
        object.__setattr__(self, "events", tuple(self.events))


@dataclass(frozen=True)
class ErrorInjection:
    """Forecast corruption: bias, swell-timing error and lead-grown noise.

    The additive noise is AR(1) across lead time within an issue, with
    amplitude noise_scale * (1 + error_growth_rate * lead) and persistence
    noise_ar * exp(-lead / noise_ar_lead_decay), so short leads carry small
    but strongly correlated errors while long leads carry larger, whiter
    ones.
    """

    bias_factor: float = 1.0
    timing_shift_h: float = 0.0
    error_growth_rate: float = 0.0  # per hour of lead
    noise_scale: float = 0.0  # m
    noise_ar: float = 0.0
    noise_ar_lead_decay: float = 48.0
    seed: int = 0

    def __post_init__(self):
        if self.noise_scale < 0.0:
            raise ValueError("noise scale must be nonnegative")
        if not 0.0 <= self.noise_ar < 1.0:
            raise ValueError("noise persistence must lie in [0, 1)")


def _peak_shape(
    freqs_hz: np.ndarray,
    dirs: np.ndarray,
    freq_widths: np.ndarray,
    dir_widths: np.ndarray,
    tp: float,
    direction: float,
    spread_exp: float,
    bandwidth_hz: float,
) -> tuple[np.ndarray, float]:
    """One spectral component's unnormalised shape and its grid integral.

    The component of significant height Hs is shape * (Hs/4)^2 / total, so
    its grid integral is (Hs/4)^2. Frequency axes here are angular (rad/s);
    shape parameters are given in Hz for readability and converted.
    """
    f_peak = 1.0 / tp
    shape_f = np.exp(-0.5 * ((freqs_hz - f_peak) / bandwidth_hz) ** 2)
    ang = 0.5 * (np.mod(dirs - direction + np.pi, 2.0 * np.pi) - np.pi)
    shape_d = np.abs(np.cos(ang)) ** (2.0 * spread_exp)
    shape = shape_f[:, None] * shape_d[None, :]
    total = np.sum(shape * freq_widths[:, None] * dir_widths[None, :])
    return shape, total


def _energy_scale(hs, total: float):
    """(Hs/4)^2 / total, or 1 for a shape that vanishes on the grid."""
    return np.ones(np.shape(hs)) if total == 0.0 else (hs / 4.0) ** 2 / total


def generate_spectra(scn: SwellScenario) -> list[DirectionalWaveSpectrum]:
    """Hourly directional spectra over the scenario span.

    Each event contributes a narrow Gaussian swell peak whose Hs follows an
    exponential rise/decay envelope around its arrival; the wind sea is a
    broad constant hump. Component energies are normalised exactly, so
    4*sqrt(m0) of a lone event reproduces its scheduled Hs at the peak hour.
    A nonzero hs_jitter roughens the campaign with an hourly AR(1)
    modulation of the whole field's Hs, seeded by the scenario seed.

    The densities are built as one (hours, freqs, dirs) array: the
    background is added once, each event's shape and normaliser are
    computed once and its shape * (hs_t/4)^2 / total is added, in event
    order, on the hours where hs_t >= 1e-6; the jitter's square scales
    every hour last. This is the sum a per-hour loop over the components
    makes (the reference in tests/test_synthetic.py), equal to it within
    rounding of the squares.
    """
    from .spectral import midpoint_widths

    freqs_hz = FORECAST_FREQS_HZ
    omega = 2.0 * np.pi * freqs_hz
    dirs = FORECAST_DIRS_RAD
    fw = midpoint_widths(omega)
    dw = midpoint_widths(dirs)
    jitter = np.ones(scn.duration_h)
    if scn.hs_jitter > 0.0:
        rng = np.random.default_rng(scn.seed)
        g = np.empty(scn.duration_h)
        rho = scn.hs_jitter_ar
        g[0] = rng.standard_normal()
        for k in range(1, scn.duration_h):
            g[k] = rho * g[k - 1] + np.sqrt(1.0 - rho**2) * rng.standard_normal()
        jitter = np.maximum(1.0 + scn.hs_jitter * g, 0.2)
    # component normalisation works in the same angular-frequency measure the
    # spectrum is stored in
    density = np.zeros((scn.duration_h, freqs_hz.size, dirs.size))
    if scn.background_hs > 0.0:
        shape, total = _peak_shape(
            freqs_hz, dirs, fw, dw, scn.background_tp,
            scn.background_direction, scn.background_spread_exp, bandwidth_hz=0.06,
        )
        density += shape * _energy_scale(scn.background_hs, total)
    hours = np.arange(scn.duration_h)
    for ev in scn.events:
        dt = hours - ev.arrival_h
        hs_t = ev.hs * np.exp(np.where(dt < 0, dt / ev.rise_h, -dt / ev.decay_h))
        active = hs_t >= 1e-6
        shape, total = _peak_shape(freqs_hz, dirs, fw, dw, ev.tp, ev.direction, ev.spread_exp, ev.bandwidth_hz)
        density[active] += shape * _energy_scale(hs_t[active], total)[:, None, None]
    density *= (jitter**2)[:, None, None]  # Hs scales with sqrt(energy)
    return [
        DirectionalWaveSpectrum(
            timestamp=scn.start + k * HOUR,
            freqs=omega,
            dirs=dirs,
            density=density[k],
            freq_widths=fw,
            dir_widths=dw,
        )
        for k in range(scn.duration_h)
    ]


def reference_rao(n_points: int = 240) -> RaoCurve:
    """Representative semisubmersible heave RAO for synthetic campaigns.

    Morison form with resonance at an 18.5 s period and a tabulated
    excitation ratio that dips towards zero just below resonance, giving
    the characteristic cancellation/resonance pair of a twin-pontoon semi.
    """
    omega = np.linspace(0.05, 3.5, n_points)
    tab_w = np.linspace(0.04, 3.6, 400)
    dip = 1.0 - 0.92 * np.exp(-0.5 * ((tab_w - 0.255) / 0.02) ** 2)
    rolloff = np.exp(-0.5 * (np.maximum(tab_w - 0.6, 0.0) / 0.5) ** 2)
    params = MorisonRaoParams(
        omega_r=2.0 * np.pi / 18.5,
        damping_ratio_term=1.0,
        excitation_ratio=(tab_w, dip * rolloff),
    )
    return morison_rao(params, omega, label="reference semisubmersible")


def true_response_series(
    spectra: list[DirectionalWaveSpectrum], rao: RaoCurve
) -> tuple[np.ndarray, np.ndarray]:
    """Significant heave response of the true sea states: (times, 2*sqrt(m0)).

    m0 comes from spectral.response_moments over all hours at once; a loop
    of spectral.response_statistics is the reference it matches to rounding.
    """
    times = np.array([s.timestamp for s in spectra], dtype="datetime64[s]")
    m0, _ = response_moments(spectra, rao)
    return times, 2.0 * np.sqrt(m0)


def generate_forecast_issues(
    truth_times: np.ndarray,
    truth_sig: np.ndarray,
    inj: ErrorInjection,
    max_leads: dict[int, int] | None = None,
) -> list[ForecastIssue]:
    """Forecast issues at 00/06/12/18Z corrupted per the injection settings.

    Each issue reads the truth at (valid time - timing shift), scales it by
    the bias factor and adds the lead-correlated noise; lead caps follow the
    per-cycle capability table. Values are floored at zero.
    """
    if max_leads is None:
        max_leads = DEFAULT_MAX_LEADS
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
        for cycle in sorted(max_leads):
            issue_time = first_day.astype("datetime64[s]") + np.timedelta64(day * 24 + cycle, "h")
            offset_h = float((issue_time - times[0]) / np.timedelta64(1, "h"))
            if offset_h < 0.0:
                issue_idx += 1
                continue
            if offset_h > span_h:
                continue
            any_in_span = True
            cap = max_leads[cycle]
            max_lead = int(min(cap, np.floor(span_h - offset_h)))
            leads = np.arange(max_lead + 1)
            rng = np.random.default_rng(np.random.SeedSequence(entropy=root.entropy, spawn_key=(issue_idx,)))
            issue_idx += 1
            shifted = offset_h + leads - inj.timing_shift_h
            base = np.interp(shifted, hours, sig)
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


def generate_observations(
    x_series: np.ndarray,
    true_params: tuple[float, float, float, float, float],
    seed: int,
) -> np.ndarray:
    """Forward-simulate observations from the hybrid generative process.

    y_t = beta0 + beta1*x_t + phi1*eps_{t-1} + phi2*eps_{t-2} + x_t*eta_t
    with eta ~ N(0, sigma^2), eps_t = y_t - beta0 - beta1*x_t and the
    residual recursion initialised at zero.
    """
    beta0, beta1, phi1, phi2, sigma = (float(v) for v in true_params)
    if not ar2_stationary(phi1, phi2):
        raise ValueError("(phi1, phi2) outside the AR(2) stationarity region")
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    x = np.asarray(x_series, dtype=float)
    rng = np.random.default_rng(seed)
    eta = sigma * rng.standard_normal(x.size)
    eps = np.zeros(x.size)
    e1 = e2 = 0.0
    for t in range(x.size):
        eps[t] = phi1 * e1 + phi2 * e2 + x[t] * eta[t]
        e2, e1 = e1, eps[t]
    return beta0 + beta1 * x + eps
