"""Measured heave: raw motion-sensor displacement and hourly significant heave.

A HeaveRecord is one hour's measured significant heave, 2*sqrt(m0), as
simulate writes and build reads it. A RawMotionSeries is raw heave
displacement (typically 1 Hz from a motion reference unit), which
highpass_filter strips of slow-drift content.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "RawMotionSeries",
    "HeaveRecord",
    "highpass_filter",
]


@dataclass(frozen=True, eq=False)
class RawMotionSeries:
    """Uniformly sampled heave displacement with excluded (gap) index ranges."""

    start: np.datetime64
    sample_rate: float  # Hz
    values: np.ndarray  # m
    gaps: tuple[tuple[int, int], ...] = ()  # half-open [lo, hi) index ranges

    def __post_init__(self):
        if not self.sample_rate > 0.0:
            raise ValueError("sample_rate must be positive")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        mask = self._gap_mask(values.size, self.gaps)
        if not np.all(np.isfinite(values[~mask])):
            raise ValueError("values must be finite outside gaps")
        object.__setattr__(self, "start", np.datetime64(self.start, "s"))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "gaps", tuple((int(a), int(b)) for a, b in self.gaps))

    @staticmethod
    def _gap_mask(n: int, gaps) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        for lo, hi in gaps:
            mask[max(lo, 0) : min(hi, n)] = True
        return mask

    def gap_mask(self) -> np.ndarray:
        """Boolean mask, True on excluded samples."""
        return self._gap_mask(self.values.size, self.gaps)


@dataclass(frozen=True)
class HeaveRecord:
    """Windowed significant heave, 2*sqrt(m0), with a quality flag."""

    timestamp: np.datetime64  # window end
    sig_heave: float
    valid: bool = True

    def __post_init__(self):
        if self.valid and not self.sig_heave >= 0.0:
            raise ValueError("sig_heave must be nonnegative when valid")
        object.__setattr__(self, "timestamp", np.datetime64(self.timestamp, "s"))


def _merged_gaps(gaps) -> tuple[tuple[int, int], ...]:
    if not gaps:
        return ()
    ordered = sorted((int(a), int(b)) for a, b in gaps)
    merged = [list(ordered[0])]
    for lo, hi in ordered[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((a, b) for a, b in merged if b > a)


def highpass_filter(series: RawMotionSeries, cutoff: float, order: int = 5) -> RawMotionSeries:
    """Zero-phase Butterworth high-pass filter.

    Applied forward-backward (so the magnitude response per pass is squared
    and the phase is zero), realised as cascaded second-order sections for
    stability at low cutoff-to-Nyquist ratios. Each contiguous non-gap
    segment is filtered independently; segments too short for the filter
    transient are converted to gaps.

    The cutoff is deliberately a required argument: it must be chosen
    against the lowest frequency of the wave forecast band in use.
    """
    nyquist = series.sample_rate / 2.0
    if not 0.0 < cutoff < nyquist:
        raise ValueError(f"cutoff must lie in (0, {nyquist}) Hz")
    if order < 1:
        raise ValueError("order must be >= 1")
    # imported here: scipy.signal is costly to import and no CLI stage filters
    from scipy import signal

    sos = signal.butter(order, cutoff, btype="highpass", fs=series.sample_rate, output="sos")
    padlen = 3 * (2 * sos.shape[0] + 1)  # sosfiltfilt default

    out = np.zeros_like(series.values)
    gaps = list(_merged_gaps(series.gaps))
    mask = series.gap_mask()
    edges = np.flatnonzero(np.diff(np.concatenate(([True], mask, [True])).astype(int)))
    # edges pair up as [seg_start, seg_end) over non-gap runs
    for lo, hi in zip(edges[::2], edges[1::2]):
        seg = series.values[lo:hi]
        if seg.size <= padlen:
            gaps.append((int(lo), int(hi)))
            continue
        out[lo:hi] = signal.sosfiltfilt(sos, seg)
    return replace(series, values=out, gaps=_merged_gaps(gaps))
