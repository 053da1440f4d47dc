"""Raw motion-sensor displacement and its high-pass filter.

A RawMotionSeries is raw heave displacement (typically 1 Hz from a motion
reference unit), which highpass_filter strips of slow-drift content.
HeaveRecord, one hour's measured significant heave, is defined in
datasets; the acceptance tests import it from here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datasets import HeaveRecord

__all__ = [
    "RawMotionSeries",
    "HeaveRecord",
    "highpass_filter",
]


@dataclass(frozen=True, eq=False)
class RawMotionSeries:
    """Uniformly sampled, finite heave displacement."""

    start: np.datetime64
    sample_rate: float  # Hz
    values: np.ndarray  # m

    def __post_init__(self):
        if not self.sample_rate > 0.0:
            raise ValueError("sample_rate must be positive")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "start", np.datetime64(self.start, "s"))
        object.__setattr__(self, "values", values)


def highpass_filter(series: RawMotionSeries, cutoff: float) -> RawMotionSeries:
    """Zero-phase five-pole Butterworth high-pass filter.

    Applied forward-backward over the whole series (so the magnitude
    response per pass is squared and the phase is zero), realised as
    cascaded biquad sections for stability at low cutoff-to-Nyquist
    ratios. sosfiltfilt pads each end with 18 samples, its default padlen
    for these three sections, one of which has a single pole, so a series
    of 18 samples or fewer raises ValueError.

    The cutoff is deliberately a required argument: it must be chosen
    against the lowest frequency of the wave forecast band in use.
    """
    nyquist = series.sample_rate / 2.0
    if not 0.0 < cutoff < nyquist:
        raise ValueError(f"cutoff must lie in (0, {nyquist}) Hz")
    # imported here: scipy.signal is costly to import and no CLI stage filters
    from scipy import signal

    sos = signal.butter(5, cutoff, btype="highpass", fs=series.sample_rate, output="sos")
    return replace(series, values=signal.sosfiltfilt(sos, series.values))
