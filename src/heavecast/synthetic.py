"""Synthetic swell campaigns: controlled ground truth for tests and demos.

Generates bimodal directional spectra (long-period swell events over a broad
wind-sea background) on the operational 28 x 30 forecast grid, derives the
"true" vessel response through the spectral engine, fabricates forecast
issues by corrupting the truth with bias, timing error and autocorrelated
noise, and simulates observation series from the hybrid model's generative
process. Everything is driven by explicit seeds.
"""

from __future__ import annotations

import numpy as np

from .config import FORECAST_DIRS_RAD, FORECAST_FREQS_HZ, ErrorInjection, SwellEvent, SwellScenario
from .datasets import DEFAULT_MAX_LEADS, IssueSet
from .horizon import HOUR
from .spectral import (
    MorisonRaoParams,
    RaoCurve,
    SpectrumSeries,
    midpoint_widths,
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
]


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


def generate_spectra(scn: SwellScenario) -> SpectrumSeries:
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
    freqs_hz = FORECAST_FREQS_HZ
    omega = 2.0 * np.pi * freqs_hz
    dirs = FORECAST_DIRS_RAD
    fw = midpoint_widths(omega)
    dw = midpoint_widths(dirs)
    jitter = np.ones(scn.duration_h)
    if scn.hs_jitter > 0.0:
        # one call draws the stream that one call per hour drew
        z = np.random.default_rng(scn.seed).standard_normal(scn.duration_h)
        rho = scn.hs_jitter_ar
        g = [float(z[0])]
        for innovation in (np.sqrt(1.0 - rho**2) * z[1:]).tolist():
            g.append(rho * g[-1] + innovation)
        jitter = np.maximum(1.0 + scn.hs_jitter * np.array(g), 0.2)
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
        # hs_t rises to the peak and then decays, so its active hours are one run
        active = np.flatnonzero(hs_t >= 1e-6)
        if not active.size:
            continue
        on = slice(active[0], active[-1] + 1)
        shape, total = _peak_shape(freqs_hz, dirs, fw, dw, ev.tp, ev.direction, ev.spread_exp, ev.bandwidth_hz)
        density[on] += shape * _energy_scale(hs_t[on], total)[:, None, None]
    density *= (jitter**2)[:, None, None]  # Hs scales with sqrt(energy)
    return SpectrumSeries(times=scn.start + hours * HOUR, freqs=omega, dirs=dirs, density=density)


def reference_rao() -> RaoCurve:
    """Representative semisubmersible heave RAO for synthetic campaigns.

    Morison form with resonance at an 18.5 s period and a tabulated
    excitation ratio that dips towards zero just below resonance, giving
    the characteristic cancellation/resonance pair of a twin-pontoon semi.
    """
    omega = np.linspace(0.05, 3.5, 240)
    tab_w = np.linspace(0.04, 3.6, 400)
    dip = 1.0 - 0.92 * np.exp(-0.5 * ((tab_w - 0.255) / 0.02) ** 2)
    rolloff = np.exp(-0.5 * (np.maximum(tab_w - 0.6, 0.0) / 0.5) ** 2)
    params = MorisonRaoParams(
        omega_r=2.0 * np.pi / 18.5,
        damping_ratio_term=1.0,
        excitation_ratio=(tab_w, dip * rolloff),
    )
    return morison_rao(params, omega)


def true_response_series(spectra: SpectrumSeries, rao: RaoCurve) -> tuple[np.ndarray, np.ndarray]:
    """Significant heave response of the true sea states: (times, 2*sqrt(m0)).

    m0 comes from spectral.response_moments over all hours at once; a loop
    of spectral.response_statistics is the reference it matches to rounding.
    """
    m0, _ = response_moments(spectra, rao)
    return spectra.times, 2.0 * np.sqrt(m0)


def generate_forecast_issues(
    truth_times: np.ndarray,
    truth_sig: np.ndarray,
    inj: ErrorInjection,
) -> IssueSet:
    """Forecast issues at 00/06/12/18Z corrupted per the injection settings.

    Each issue reads the truth at (valid time - timing shift), scales it by
    the bias factor and adds the lead-correlated noise; lead caps follow the
    per-cycle capability table (DEFAULT_MAX_LEADS). Values are floored at
    zero.

    The cycle slots are numbered from 00Z of the first day, and slot k
    draws its noise from its own stream, spawn key (k,) of the injection
    seed, so an issue's noise does not depend on how many issues follow it.
    The AR(1) recursion then runs over the lead index for all issues at
    once; a loop over issues and leads (the reference in
    tests/test_synthetic.py) gives the same bits. The issues come back as
    one IssueSet, rows in issue order.
    """
    times = np.asarray(truth_times, dtype="datetime64[s]")
    sig = np.asarray(truth_sig, dtype=float)
    hours = (times - times[0]) / np.timedelta64(1, "h")
    span_h = float(hours[-1])

    # every cycle slot from 00Z of the first day through the span, in time order
    cycles = np.array(sorted(DEFAULT_MAX_LEADS))
    first_day = times[0].astype("datetime64[D]").astype("datetime64[s]")
    days = int((times[-1] - first_day) // np.timedelta64(1, "D")) + 1
    slot_h = (24 * np.arange(days)[:, None] + cycles[None, :]).ravel()
    issue_times = first_day + slot_h * HOUR
    offsets = (issue_times - times[0]) / HOUR
    slots = np.flatnonzero((offsets >= 0.0) & (offsets <= span_h))
    if not slots.size:
        return IssueSet.from_issues([])
    caps = np.array([DEFAULT_MAX_LEADS[c] for c in cycles])[slots % cycles.size]
    sizes = np.minimum(caps, np.floor(span_h - offsets[slots])).astype(int) + 1

    leads = np.arange(sizes.max())
    shifted = offsets[slots, None] + leads[None, :] - inj.timing_shift_h
    base = np.interp(shifted, hours, sig)
    noise = np.zeros(shifted.shape)
    if inj.noise_scale > 0.0:
        root = np.random.SeedSequence(inj.seed)
        z = np.zeros(shifted.shape)
        for row, (slot, size) in enumerate(zip(slots.tolist(), sizes.tolist())):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=root.entropy, spawn_key=(slot,)))
            z[row, :size] = rng.standard_normal(size)
        amp = inj.noise_scale * (1.0 + inj.error_growth_rate * leads)
        rho = inj.noise_ar * np.exp(-leads / inj.noise_ar_lead_decay)
        noise[:, 0] = amp[0] * z[:, 0]
        for i in range(1, leads.size):
            noise[:, i] = rho[i] * noise[:, i - 1] + amp[i] * np.sqrt(1.0 - rho[i] ** 2) * z[:, i]
    values = np.maximum(inj.bias_factor * base + noise, 0.0)
    # row by row, the first `size` leads of each issue
    kept = leads[None, :] < sizes[:, None]
    return IssueSet(
        issue_times=issue_times[slots],
        bounds=np.concatenate([[0], np.cumsum(sizes)]),
        leads=np.broadcast_to(leads, kept.shape)[kept],
        values=values[kept],
    )


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
    from .model import ar2_stationary

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
