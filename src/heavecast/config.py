"""Settings the run manifest carries: the sampler, scenario and error-injection sections.

These dataclasses check their own values, and io.RunManifest.load checks a
manifest's keys against their fields and builds each section, so every
stage validates every section by importing this small module alone.
sampler and synthetic, which act on the settings, import them from here.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SamplerConfig",
    "SwellEvent",
    "SwellScenario",
    "ErrorInjection",
    "FORECAST_FREQS_HZ",
    "FORECAST_DIRS_RAD",
]

# Operational forecast grid: 28 log-spaced frequency bins, 30 direction bins.
FORECAST_FREQS_HZ = np.logspace(np.log10(0.0412), np.log10(0.5399), 28)
FORECAST_DIRS_RAD = (np.arange(30) + 0.5) * (2.0 * np.pi / 30.0)

_TP_MIN = 1.0 / FORECAST_FREQS_HZ[-1]  # ~1.85 s
_TP_MAX = 1.0 / FORECAST_FREQS_HZ[0]  # ~24.3 s


def _check_finite(settings) -> None:
    """Every float field must hold a finite number: NaN compares false with
    every bound, so a range check alone would let it through."""
    for f in dataclasses.fields(settings):
        if f.type == "float":
            value = getattr(settings, f.name)
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise ValueError(f"{f.name} must be a finite number, found {value!r}")


@dataclass(frozen=True)
class SamplerConfig:
    chains: int = 3
    warmup_draws: int = 1000  # burn-in sweeps per chain
    retained_draws: int = 1000
    rhat_limit: float = 1.05

    def __post_init__(self):
        if self.chains < 1 or self.warmup_draws < 100 or self.retained_draws < 100:
            raise ValueError("need >= 1 chain, >= 100 warmup and retained draws")
        # a NaN limit would make every R-hat comparison false and pass any chains
        if not 1.0 <= self.rhat_limit < math.inf:
            raise ValueError(f"rhat_limit must be finite and at least 1.0, found {self.rhat_limit!r}")


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
        _check_finite(self)
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
        _check_finite(self)
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
        _check_finite(self)
        if self.noise_scale < 0.0:
            raise ValueError("noise scale must be nonnegative")
        if not 0.0 <= self.noise_ar < 1.0:
            raise ValueError("noise persistence must lie in [0, 1)")
        if self.noise_ar_lead_decay <= 0.0:
            raise ValueError(f"noise_ar_lead_decay must be positive, found {self.noise_ar_lead_decay!r}")
