"""Per-horizon forecast series synthesis, measurement alignment and splitting.

Operational wave-model runs are issued on a fixed cycle (00/06/12/18Z here)
with a per-cycle maximum lead time. For a fixed horizon h, an hourly series is
synthesised by always taking, for each valid time, the most recent issue whose
lead at that valid time is at least h and within the issue's capability. With
6-hourly issues this concatenates leads h..h+5 per issue; when only 00Z/12Z
issues reach far enough (long horizons) it concatenates leads h..h+11.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ForecastIssue",
    "HorizonDataset",
    "HorizonSeries",
    "DEFAULT_MAX_LEADS",
    "DEFAULT_HORIZONS",
    "synthesize_horizon_series",
    "align",
    "chrono_split",
]

HOUR = np.timedelta64(1, "h")

# Maximum lead (hours) each issue cycle extends to. The 06Z and 18Z runs of
# the reference product stop at 72 h; 00Z and 12Z run out to 10 days.
DEFAULT_MAX_LEADS: dict[int, int] = {0: 240, 6: 72, 12: 240, 18: 72}

DEFAULT_HORIZONS: tuple[int, ...] = (0, 6, 12, 24, 48, 72, 96)


@dataclass(frozen=True)
class ForecastIssue:
    """One forecast run: significant-heave values against lead time."""

    issue_time: np.datetime64
    horizon_hours: np.ndarray
    values: np.ndarray  # m

    def __post_init__(self):
        leads = np.asarray(self.horizon_hours, dtype=int)
        values = np.asarray(self.values, dtype=float)
        if leads.ndim != 1 or leads.shape != values.shape:
            raise ValueError("horizon_hours and values must be matching 1-d arrays")
        if leads.size and (np.any(leads < 0) or np.any(np.diff(leads) != 1)):
            raise ValueError("lead times must be nonnegative, hourly and increasing")
        object.__setattr__(self, "issue_time", np.datetime64(self.issue_time, "s"))
        object.__setattr__(self, "horizon_hours", leads)
        object.__setattr__(self, "values", values)

    @property
    def cycle_hour(self) -> int:
        secs = (self.issue_time - self.issue_time.astype("datetime64[D]")) / np.timedelta64(1, "s")
        return int(secs // 3600) % 24


@dataclass(frozen=True)
class HorizonDataset:
    """Time-aligned (forecast, measurement) pairs for one horizon.

    post_gap marks rows whose hourly predecessor is absent, so lagged-residual
    terms must be reset there.
    """

    horizon: int
    valid_times: np.ndarray  # datetime64[s]
    x: np.ndarray  # forecast sig-heave (m)
    y: np.ndarray  # measured sig-heave (m)
    issue_times: np.ndarray
    post_gap: np.ndarray = None

    def __post_init__(self):
        vt = np.asarray(self.valid_times, dtype="datetime64[s]")
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        it = np.asarray(self.issue_times, dtype="datetime64[s]")
        if not (vt.shape == x.shape == y.shape == it.shape):
            raise ValueError("all row arrays must have equal length")
        if vt.size and np.any(np.diff(vt) <= np.timedelta64(0, "s")):
            raise ValueError("valid_times must be strictly increasing")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("x and y must be finite in every row")
        post_gap = self.post_gap
        if post_gap is None:
            post_gap = np.ones(vt.size, dtype=bool)
            if vt.size:
                post_gap[1:] = np.diff(vt) != HOUR
        object.__setattr__(self, "valid_times", vt)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "issue_times", it)
        object.__setattr__(self, "post_gap", np.asarray(post_gap, dtype=bool))

    def __len__(self) -> int:
        return self.valid_times.size

    def rows(self, sl: slice) -> "HorizonDataset":
        return HorizonDataset(
            horizon=self.horizon,
            valid_times=self.valid_times[sl],
            x=self.x[sl],
            y=self.y[sl],
            issue_times=self.issue_times[sl],
        )


@dataclass(frozen=True)
class HorizonSeries:
    """A fixed-horizon forecast series, one row per valid time in time order.

    Iterating yields (valid_time, value, issue_time) tuples.
    """

    valid_times: np.ndarray  # datetime64[s]
    values: np.ndarray  # m
    issue_times: np.ndarray  # datetime64[s]

    def __post_init__(self):
        object.__setattr__(self, "valid_times", np.asarray(self.valid_times, dtype="datetime64[s]"))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "issue_times", np.asarray(self.issue_times, dtype="datetime64[s]"))
        if not self.valid_times.shape == self.values.shape == self.issue_times.shape == (self.valid_times.size,):
            raise ValueError("valid_times, values and issue_times must be matching 1-d arrays")

    def __len__(self) -> int:
        return self.valid_times.size

    def __iter__(self):
        return zip(self.valid_times, self.values.tolist(), self.issue_times)


def synthesize_horizon_series(issues: list[ForecastIssue], h: int) -> HorizonSeries:
    """Continuous hourly forecast series at fixed horizon h.

    Issues are admitted for horizon h only when their cycle's maximum lead
    (DEFAULT_MAX_LEADS) covers the whole lead window [h, h + block - 1],
    where block is 6 h for h < 72 (all four daily cycles qualify) and 12 h
    otherwise (00Z/12Z only, since the short cycles stop at 72 h). Each
    hourly valid time then takes the most recent admitted issue, which keeps
    every lead inside the window and guarantees no future information is
    used. Hours whose issue
    is missing are simply absent: gaps are recorded by omission, never
    interpolated from an older issue.

    Where windows overlap, the issue latest in issue-time order (the later
    one in the input among equal issue times) wins.
    """
    if h < 0:
        raise ValueError("horizon must be nonnegative")
    block = 6 if h < 72 else 12
    admitted = sorted(
        (i for i in issues if DEFAULT_MAX_LEADS.get(i.cycle_hour, 0) >= h + block - 1),
        key=lambda i: i.issue_time,
    )
    if not admitted:
        return HorizonSeries(valid_times=[], values=[], issue_times=[])
    # an issue's leads are sorted, so its window [h, h + block) is one slice
    parts = []
    for issue in admitted:
        lo, hi = np.searchsorted(issue.horizon_hours, (h, h + block))
        leads = issue.horizon_hours[lo:hi]
        parts.append((issue.issue_time + leads * HOUR, issue.values[lo:hi], np.full(leads.size, issue.issue_time)))
    valid_times, values, issue_times = (np.concatenate(column) for column in zip(*parts))
    # the most recent issue wins: the last row of each valid time after a stable sort
    order = np.argsort(valid_times, kind="stable")
    valid_times = valid_times[order]
    last = np.ones(valid_times.size, dtype=bool)
    last[:-1] = valid_times[1:] != valid_times[:-1]
    return HorizonSeries(
        valid_times=valid_times[last], values=values[order][last], issue_times=issue_times[order][last]
    )


def align(forecast_series, measurements, horizon: int) -> HorizonDataset:
    """Inner-join the horizon forecast series with QA-valid measurements.

    forecast_series is a HorizonSeries or (valid_time, value, issue_time)
    rows; rows keep their order. Where several valid measurements share a
    timestamp, the last one counts.
    """
    if not isinstance(forecast_series, HorizonSeries):
        rows = list(forecast_series)
        vt, x, it = zip(*rows) if rows else ((), (), ())
        forecast_series = HorizonSeries(valid_times=vt, values=x, issue_times=it)
    valid = [m for m in measurements if m.valid]
    meas_times = np.array([m.timestamp for m in valid], dtype="datetime64[s]")
    meas_values = np.array([float(m.sig_heave) for m in valid])
    order = np.argsort(meas_times, kind="stable")
    meas_times, meas_values = meas_times[order], meas_values[order]
    idx = np.searchsorted(meas_times, forecast_series.valid_times, side="right") - 1
    hit = idx >= 0
    hit[hit] = meas_times[idx[hit]] == forecast_series.valid_times[hit]
    if not hit.any():
        raise ValueError("forecast series and measurements share no valid times")
    return HorizonDataset(
        horizon=horizon,
        valid_times=forecast_series.valid_times[hit],
        x=forecast_series.values[hit],
        y=meas_values[idx[hit]],
        issue_times=forecast_series.issue_times[hit],
    )


def chrono_split(
    ds: HorizonDataset, train_fraction: float = 0.8
) -> tuple[HorizonDataset, HorizonDataset]:
    """Chronological train/test split: first ceil(fraction*N) rows train."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly inside (0, 1)")
    n = len(ds)
    if n < 10:
        raise ValueError("too few rows to split")
    k = int(np.ceil(train_fraction * n))
    return ds.rows(slice(0, k)), ds.rows(slice(k, n))
