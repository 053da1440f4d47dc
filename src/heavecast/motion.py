"""Hourly significant-heave statistics from raw motion-sensor displacement.

Raw heave displacement (typically 1 Hz from a motion reference unit) is
high-pass filtered to strip slow-drift content, quality masked, and reduced to
windowed zeroth-moment statistics: sig_heave = 2*sqrt(variance of the window).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "RawMotionSeries",
    "HeaveRecord",
    "highpass_filter",
    "rolling_m0",
    "apply_qa_mask",
]


@dataclass(frozen=True)
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

    def time_of(self, index: int) -> np.datetime64:
        return self.start + np.timedelta64(round(index / self.sample_rate * 1e3), "ms")

    def index_of(self, when: np.datetime64) -> float:
        dt = (np.datetime64(when, "ms") - np.datetime64(self.start, "ms")) / np.timedelta64(1, "s")
        return float(dt) * self.sample_rate


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


def apply_qa_mask(
    series: RawMotionSeries,
    events: list[tuple[tuple[np.datetime64, np.datetime64], str]],
) -> RawMotionSeries:
    """Exclude time intervals flagged by quality assurance (transits, draft
    changes, heading changes) by adding them to the gap set.

    Events entirely outside the series span are ignored with a warning.
    Idempotent: gaps are stored as a merged union.
    """
    n = series.values.size
    gaps = list(series.gaps)
    skipped = 0
    for (start, end), _reason in events:
        lo = int(np.floor(series.index_of(start)))
        hi = int(np.ceil(series.index_of(end)))
        if hi <= 0 or lo >= n:
            skipped += 1
            continue
        gaps.append((max(lo, 0), min(hi, n)))
    if skipped:
        warnings.warn(f"{skipped} QA event(s) fell outside the series span", stacklevel=2)
    return replace(series, gaps=_merged_gaps(gaps))


def rolling_m0(
    series: RawMotionSeries,
    window: np.timedelta64,
    step: np.timedelta64,
) -> list[HeaveRecord]:
    """Windowed zeroth-moment statistics of a (filtered) heave series.

    m0 for each window is the population variance of its samples, which by
    Parseval equals the integrated displacement spectrum without taper
    choices. Records are stamped with the window end so a record at t uses
    only data up to t. Windows overlapping any gap are marked invalid.
    """
    window_s = window / np.timedelta64(1, "s")
    step_s = step / np.timedelta64(1, "s")
    if window_s < step_s or step_s <= 0:
        raise ValueError("need window >= step > 0")
    n_win = int(round(window_s * series.sample_rate))
    n_step = int(round(step_s * series.sample_rate))
    if n_win < 2 or series.values.size < n_win:
        raise ValueError("series shorter than the averaging window")
    mask = series.gap_mask()
    records = []
    for lo in range(0, series.values.size - n_win + 1, n_step):
        hi = lo + n_win
        stamp = series.time_of(hi - 1) + np.timedelta64(round(1e3 / series.sample_rate), "ms")
        if mask[lo:hi].any():
            records.append(HeaveRecord(timestamp=stamp, sig_heave=np.nan, valid=False))
            continue
        m0 = float(np.var(series.values[lo:hi]))
        records.append(HeaveRecord(timestamp=stamp, sig_heave=2.0 * np.sqrt(m0)))
    return records
