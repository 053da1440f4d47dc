"""Per-horizon forecast series synthesis, measurement alignment and splitting.

Operational wave-model runs are issued on a fixed cycle (00/06/12/18Z here)
with a per-cycle maximum lead time. For a fixed horizon h, an hourly series is
synthesised by always taking, for each valid time, the most recent issue whose
lead at that valid time is at least h and within the issue's capability. With
6-hourly issues this concatenates leads h..h+5 per issue; when only 00Z/12Z
issues reach far enough (long horizons) it concatenates leads h..h+11.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ForecastIssue",
    "IssueSet",
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
        if _irregular_issues(np.array([0, leads.size]), leads).size:
            raise ValueError("lead times must be nonnegative, hourly and increasing")
        object.__setattr__(self, "issue_time", np.datetime64(self.issue_time, "s"))
        object.__setattr__(self, "horizon_hours", leads)
        object.__setattr__(self, "values", values)

    @property
    def cycle_hour(self) -> int:
        return int(_cycle_hours(self.issue_time))


def _cycle_hours(issue_times) -> np.ndarray:
    """The UTC hour of day of each issue time."""
    secs = (issue_times - issue_times.astype("datetime64[D]")).astype(np.int64)
    return secs // 3600 % 24


def _irregular_issues(bounds: np.ndarray, leads: np.ndarray) -> np.ndarray:
    """Indices of the issues, rows bounds[i]:bounds[i + 1], whose leads are
    not nonnegative, hourly and increasing."""
    bad = np.zeros(leads.size, dtype=bool)
    bad[1:] = np.diff(leads) != 1
    starts = bounds[:-1][np.diff(bounds) > 0]
    bad[starts] = leads[starts] < 0
    bad_issue = np.zeros(bounds.size - 1, dtype=bool)  # not np.unique, which imports numpy.ma
    bad_issue[np.searchsorted(bounds, np.flatnonzero(bad), side="right") - 1] = True
    return np.flatnonzero(bad_issue)


@dataclass(frozen=True, eq=False)
class IssueSet(Sequence):
    """Forecast issues as one table: issue i owns rows bounds[i]:bounds[i + 1].

    simulate, build and synthesize_horizon_series work on the flat arrays.
    As a sequence the set yields one ForecastIssue per issue, built when it
    is indexed, so code that walks issues one at a time reads it as a list.
    """

    issue_times: np.ndarray  # datetime64[s], one per issue
    bounds: np.ndarray  # row offsets, one more than the issues
    leads: np.ndarray  # hours after the issue time, one per row
    values: np.ndarray  # m, one per row

    def __post_init__(self):
        issue_times = np.asarray(self.issue_times, dtype="datetime64[s]")
        bounds = np.asarray(self.bounds, dtype=np.int64)
        leads = np.asarray(self.leads, dtype=int)
        values = np.asarray(self.values, dtype=float)
        if issue_times.ndim != 1 or bounds.shape != (issue_times.size + 1,):
            raise ValueError("bounds must hold one more offset than there are issue times")
        if leads.ndim != 1 or leads.shape != values.shape:
            raise ValueError("leads and values must be matching 1-d arrays")
        if bounds[0] != 0 or bounds[-1] != leads.size or np.any(np.diff(bounds) < 0):
            raise ValueError("bounds must rise from 0 to the number of rows")
        bad = _irregular_issues(bounds, leads)
        if bad.size:
            raise ValueError(f"issue {bad[0]}: lead times must be nonnegative, hourly and increasing")
        object.__setattr__(self, "issue_times", issue_times)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "leads", leads)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_issues(cls, issues) -> "IssueSet":
        """The issues, in the order given, as one table."""
        issues = list(issues)
        sizes = [i.horizon_hours.size for i in issues]
        return cls(
            issue_times=np.array([i.issue_time for i in issues], dtype="datetime64[s]"),
            bounds=np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)]),
            leads=np.concatenate([i.horizon_hours for i in issues] or [np.zeros(0, dtype=int)]),
            values=np.concatenate([i.values for i in issues] or [np.zeros(0)]),
        )

    def __len__(self) -> int:
        return self.issue_times.size

    def __eq__(self, other):
        # compared as the list of issues it stands for
        if not isinstance(other, (list, IssueSet)):
            return NotImplemented
        return list(self) == list(other)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[i] for i in range(*key.indices(len(self)))]
        i = range(len(self))[key]  # from the end when negative; IndexError when out of range
        lo, hi = self.bounds[i], self.bounds[i + 1]
        return ForecastIssue(issue_time=self.issue_times[i], horizon_hours=self.leads[lo:hi], values=self.values[lo:hi])

    def row_issues(self) -> np.ndarray:
        """The index of each row's issue."""
        return np.repeat(np.arange(len(self)), np.diff(self.bounds))

    def valid_times(self) -> np.ndarray:
        """Each row's valid time, its issue time plus its lead."""
        return self.issue_times[self.row_issues()] + self.leads * HOUR


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


def synthesize_horizon_series(issues: IssueSet | list[ForecastIssue], h: int) -> HorizonSeries:
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
    one in the input among equal issue times) wins. The rows are picked
    from the set's flat arrays; a list of issues is made one table first.
    """
    if h < 0:
        raise ValueError("horizon must be nonnegative")
    if not isinstance(issues, IssueSet):
        issues = IssueSet.from_issues(issues)
    block = 6 if h < 72 else 12
    caps = np.array([DEFAULT_MAX_LEADS.get(hour, 0) for hour in range(24)])
    admitted = caps[_cycle_hours(issues.issue_times)] >= h + block - 1
    row_issue = issues.row_issues()
    rows = np.flatnonzero(admitted[row_issue] & (issues.leads >= h) & (issues.leads < h + block))
    # issue by issue in issue-time order, each issue's window in lead order
    rank = np.empty(len(issues), dtype=np.intp)
    rank[np.argsort(issues.issue_times, kind="stable")] = np.arange(len(issues))
    rows = rows[np.argsort(rank[row_issue[rows]], kind="stable")]
    issue_times = issues.issue_times[row_issue[rows]]
    valid_times = issue_times + issues.leads[rows] * HOUR
    # the most recent issue wins: the last row of each valid time after a stable sort
    order = np.argsort(valid_times, kind="stable")
    valid_times = valid_times[order]
    last = np.ones(valid_times.size, dtype=bool)
    last[:-1] = valid_times[1:] != valid_times[:-1]
    return HorizonSeries(
        valid_times=valid_times[last], values=issues.values[rows][order][last], issue_times=issue_times[order][last]
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
    """Chronological train/test split: first ceil(fraction*N) rows train.

    Both parts must keep at least one row.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly inside (0, 1)")
    n = len(ds)
    if n < 10:
        raise ValueError(f"too few rows to split: {n} rows at horizon {ds.horizon}, at least 10 needed")
    k = int(np.ceil(train_fraction * n))
    if k >= n:
        raise ValueError(
            f"train_fraction {train_fraction} leaves no test row of the {n} rows at horizon {ds.horizon}"
        )
    return ds.rows(slice(0, k)), ds.rows(slice(k, n))
