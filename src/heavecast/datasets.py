"""The campaign's inputs, forecast issues and measured heave, and the
per-horizon datasets built from them.

simulate writes the campaign's files (RAO, spectra, heave records and
forecast issues), build and response read them, and no other stage loads
this module; io resolves five of its readers and writers as attributes.
Files hold frequencies in Hz and directions in degrees, converted to rad/s
and radians on reading. Each reader converts whole columns. A spectra file
holds one row per (timestamp, frequency, direction) cell, in any order:
read_spectra sorts the rows once, checks each timestamp's run of rows
against the first run's grid and reshapes the density column. An IssueSet
holds its issues as flat arrays, never as a list of ForecastIssue records;
it is written into a staging directory that one rename puts in place of the
issue directory, so a reader never sees a mix of two sets.

Issues come on a fixed cycle, each cycle with its maximum lead
(DEFAULT_MAX_LEADS). The series at horizon h takes, for each valid time, the
most recent issue of a cycle that serves h: leads h..h+5 of the 00/06/12/18Z
issues for h up to 67, h..h+11 of the 00Z and 12Z issues for h 68 to 229,
and none beyond. align joins it with the valid heave records into a
HorizonDataset. That type and chrono_split are io's, and are exported here
because the acceptance tests import both from datasets and the bench
traces datasets.chrono_split.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .io import _naming, _numbers, _parse_times, _read_cells, _readable, _refuse_cell, _table_text, _write_table
from .io import HOUR, HorizonDataset, atomic_write_text, chrono_split

if TYPE_CHECKING:
    from .spectral import RaoCurve, SpectrumSeries

__all__ = [
    "ForecastIssue",
    "IssueSet",
    "HeaveRecord",
    "HorizonDataset",
    "HorizonSeries",
    "DEFAULT_MAX_LEADS",
    "synthesize_horizon_series",
    "align",
    "chrono_split",
    "read_rao",
    "write_rao",
    "read_spectra",
    "write_spectra",
    "read_heave_records",
    "write_heave_records",
    "read_forecast_issue",
    "read_forecast_issues",
    "write_forecast_issue",
    "write_forecast_issues",
]

# Maximum lead (hours) of each issue cycle by UTC hour, which alone decides each horizon's
# cycles and lead window (_lead_window): the reference product's 06Z and 18Z runs stop at 72 h.
DEFAULT_MAX_LEADS: dict[int, int] = {0: 240, 6: 72, 12: 240, 18: 72}

TWO_PI = 2.0 * np.pi

# each file's columns: its reader requires this header and its writer writes it
_RAO_HEADER = ["freq_hz", "amplitude"]
_SPECTRA_HEADER = ["timestamp_utc", "freq_hz", "dir_deg", "density_m2_s_per_deg"]
_HEAVE_HEADER = ["timestamp_utc", "sig_heave_m", "valid"]
_ISSUE_HEADER = ["issue_time_utc", "valid_time_utc", "sig_heave_m"]


# -- forecast issues ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ForecastIssue:
    """One forecast run: significant-heave values, finite and nonnegative, against lead time."""

    issue_time: np.datetime64
    horizon_hours: np.ndarray
    values: np.ndarray  # m

    def __post_init__(self):
        leads = np.asarray(self.horizon_hours, dtype=int)
        values = np.asarray(self.values, dtype=float)
        if leads.ndim != 1 or leads.shape != values.shape:
            raise ValueError("horizon_hours and values must be matching 1-d arrays")
        if _irregular_rows(np.array([0, leads.size]), leads).size:
            raise ValueError("lead times must be nonnegative, hourly and increasing")
        bad = _bad_values(values)
        if bad.size:
            raise ValueError(f"lead {leads[bad[0]]}: values must be finite nonnegative numbers, found {values[bad[0]]}")
        object.__setattr__(self, "issue_time", np.datetime64(self.issue_time, "s"))
        object.__setattr__(self, "horizon_hours", leads)
        object.__setattr__(self, "values", values)


def _bad_values(values: np.ndarray) -> np.ndarray:
    """Indices of the values that are not finite nonnegative numbers."""
    return np.flatnonzero(~((values >= 0.0) & (values < np.inf)))


def _cycle_hours(issue_times) -> np.ndarray:
    """The UTC hour of day of each issue time."""
    secs = (issue_times - issue_times.astype("datetime64[D]")).astype(np.int64)
    return secs // 3600 % 24


def _irregular_rows(bounds: np.ndarray, leads: np.ndarray) -> np.ndarray:
    """Indices of the rows, issue i owning rows bounds[i]:bounds[i + 1], that
    break its leads' rule: nonnegative, hourly and increasing. That is an
    issue's first row with a negative lead, and any other row whose lead is
    not one more than the row before."""
    bad = np.zeros(leads.size, dtype=bool)
    bad[1:] = np.diff(leads) != 1
    starts = bounds[:-1][np.diff(bounds) > 0]
    bad[starts] = leads[starts] < 0
    return np.flatnonzero(bad)


@dataclass(frozen=True, eq=False)
class IssueSet:
    """Forecast issues as one table: issue i owns rows bounds[i]:bounds[i + 1].

    simulate, build and synthesize_horizon_series work on the flat arrays,
    and len(issues) is the number of issues. Like every record with array
    fields, a set compares by identity.
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
        bad = _irregular_rows(bounds, leads)
        if bad.size:
            issue = np.searchsorted(bounds, bad[0], side="right") - 1
            raise ValueError(f"issue {issue}: lead times must be nonnegative, hourly and increasing")
        bad = _bad_values(values)
        if bad.size:
            row = bad[0]
            issue = np.searchsorted(bounds, row, side="right") - 1
            raise ValueError(
                f"issue {issue}, lead {leads[row]}: values must be finite nonnegative numbers, found {values[row]}"
            )
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

    def row_issues(self) -> np.ndarray:
        """The index of each row's issue."""
        return np.repeat(np.arange(len(self)), np.diff(self.bounds))

    def valid_times(self) -> np.ndarray:
        """Each row's valid time, its issue time plus its lead."""
        return self.issue_times[self.row_issues()] + self.leads * HOUR


# -- fixed-horizon series ----------------------------------------------------

@dataclass(frozen=True, eq=False)
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

    def __iter__(self):
        return zip(self.valid_times, self.values.tolist(), self.issue_times)


def _lead_window(h: int) -> tuple[list[int], int]:
    """The cycle hours that serve horizon h, if any, and the length of their lead window.

    The window is the longest wait from one serving cycle to the next, wrapping
    over 24 h, and a cycle serves while its maximum lead reaches h + window - 1.
    Dropping a cycle lengthens the window, so cycles drop until all left reach.
    """
    cycles = sorted(DEFAULT_MAX_LEADS)
    while cycles:
        window = max(b - a for a, b in zip(cycles, [*cycles[1:], cycles[0] + 24]))
        reaching = [c for c in cycles if DEFAULT_MAX_LEADS[c] >= h + window - 1]
        if reaching == cycles:
            return cycles, window
        cycles = reaching
    return [], 0


def synthesize_horizon_series(issues: IssueSet | list[ForecastIssue], h: int) -> HorizonSeries:
    """Continuous hourly forecast series at fixed horizon h, which some cycle must serve.

    Each hourly valid time takes the most recent issue, of a cycle that serves
    h (_lead_window), whose lead there lies in the window, so no future
    information is used; among equal issue times the later in the input wins.
    Hours whose issue is missing are absent: gaps are recorded by omission,
    never interpolated from an older issue. A list of issues is made one table first.
    """
    if h < 0:
        raise ValueError("horizon must be nonnegative")
    cycles, window = _lead_window(h)
    if not cycles:
        reach = next((k for k in range(min(h, max(DEFAULT_MAX_LEADS.values())), -1, -1) if _lead_window(k)[0]), -1)
        raise ValueError(f"horizon {h}: no issue cycle reaches it; the cycle table serves horizons up to {reach}")
    if not isinstance(issues, IssueSet):
        issues = IssueSet.from_issues(issues)
    admitted = np.array([hour in cycles for hour in range(24)])[_cycle_hours(issues.issue_times)]
    row_issue = issues.row_issues()
    rows = np.flatnonzero(admitted[row_issue] & (issues.leads >= h) & (issues.leads < h + window))
    issue_times = issues.issue_times[row_issue[rows]]
    valid_times = issue_times + issues.leads[rows] * HOUR
    # the most recent issue wins: the last row of each valid time, stably sorted by valid and then issue time
    order = np.lexsort((issue_times, valid_times))
    valid_times = valid_times[order]
    last = np.ones(valid_times.size, dtype=bool)
    last[:-1] = valid_times[1:] != valid_times[:-1]
    return HorizonSeries(
        valid_times=valid_times[last], values=issues.values[rows][order][last], issue_times=issue_times[order][last]
    )


# -- measured heave and the per-horizon datasets -----------------------------

@dataclass(frozen=True)
class HeaveRecord:
    """One hour's measured significant heave, 2*sqrt(m0), with a quality flag."""

    timestamp: np.datetime64  # window end
    sig_heave: float
    valid: bool = True

    def __post_init__(self):
        if self.valid and not 0.0 <= self.sig_heave < math.inf:
            raise ValueError(f"sig_heave must be a finite nonnegative number when valid, found {self.sig_heave}")
        object.__setattr__(self, "timestamp", np.datetime64(self.timestamp, "s"))


def read_heave_records(path: Path) -> list[HeaveRecord]:
    """Each row's record; valid reads true or false in any case, and
    sig_heave_m is read only where true, where it must be a finite
    nonnegative number."""
    _, (time_col, sig_col, valid_col), _ = _read_cells([path], _HEAVE_HEADER)
    times = _parse_times(time_col, path, "timestamp_utc")
    flags = [cell.strip().lower() for cell in valid_col]
    for row, flag in enumerate(flags):
        if flag not in ("true", "false"):
            _refuse_cell(path, valid_col, row, "valid", "true or false")
    valid = [flag == "true" for flag in flags]
    sig = _numbers([c if ok else "nan" for c, ok in zip(sig_col, valid)], path, "sig_heave_m")
    bad = _bad_values(np.where(valid, sig, 0.0))
    if bad.size:
        _refuse_cell(path, sig_col, bad[0], "sig_heave_m", "a finite nonnegative number")
    return [HeaveRecord(timestamp=t, sig_heave=v, valid=ok) for t, v, ok in zip(times, sig.tolist(), valid)]


def write_heave_records(path: Path, records: list[HeaveRecord]) -> None:
    """sig_heave_m reads nan where a record is not valid."""
    cells = [*zip(*((r.timestamp, r.sig_heave if r.valid else np.nan, str(r.valid).lower()) for r in records))]
    _write_table(path, _HEAVE_HEADER, "%s, %.10g, %s", cells)


def align(forecast_series: HorizonSeries, measurements, horizon: int) -> HorizonDataset:
    """Inner-join the horizon forecast series with QA-valid measurements.

    The series' rows keep their order. Where several valid measurements
    share a timestamp, the last one counts.
    """
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


# -- RAO ---------------------------------------------------------------------

def read_rao(path: Path) -> RaoCurve:
    from .spectral import RaoCurve

    _, (freq_col, amp_col), _ = _read_cells([path], _RAO_HEADER)
    freqs_hz, amps = _numbers(freq_col, path, "freq_hz"), _numbers(amp_col, path, "amplitude")
    with _naming(path):
        return RaoCurve(freqs=TWO_PI * freqs_hz, amplitudes=amps)


def write_rao(path: Path, rao: RaoCurve) -> None:
    _write_table(path, _RAO_HEADER, "%.10g, %.10g", [(rao.freqs / TWO_PI).tolist(), rao.amplitudes.tolist()])


# -- directional spectra -----------------------------------------------------

def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted array starts."""
    return np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """The values of a sorted array, each once (not np.unique, which imports numpy.ma)."""
    return ordered[_run_starts(ordered)]


def read_spectra(path: Path) -> SpectrumSeries:
    """Long-format spectrum file covering one or more timestamps.

    One row per (timestamp, freq, dir) cell, in any order. The (freq, dir)
    grid must be identical for every timestamp, each cell once, and every
    frequency positive; the density column is m^2 s per degree of direction
    (per-Hz, per-deg) and is converted to the per-rad/s, per-rad convention
    used internally.
    """
    from .spectral import SpectrumSeries

    _, (time_col, freq_col, *number_cols), _ = _read_cells([path], _SPECTRA_HEADER)
    if not time_col:
        raise ValueError(f"{path}: no spectrum rows")
    freqs, dirs = (_numbers(c, path, n, finite=True) for c, n in zip([freq_col, number_cols[0]], _SPECTRA_HEADER[1:]))
    density = _numbers(number_cols[1], path, _SPECTRA_HEADER[3])
    if (freqs <= 0.0).any():
        _refuse_cell(path, freq_col, int(np.argmax(freqs <= 0.0)), "freq_hz", "positive")
    times = _parse_times(time_col, path, _SPECTRA_HEADER[0])
    # each timestamp's rows become one run, its cells in (freq, dir) order
    order = np.lexsort((dirs, freqs, times))
    times, freqs, dirs = times[order], freqs[order], dirs[order]
    starts = _run_starts(times)
    runs = list(zip(starts.tolist(), [*starts[1:].tolist(), times.size]))
    first = slice(*runs[0])
    freqs_hz, dirs_deg = _distinct(freqs[first]), _distinct(np.sort(dirs[first]))
    shape = (starts.size, freqs_hz.size, dirs_deg.size)
    cell_freqs, cell_dirs = np.repeat(freqs_hz, shape[2]), np.tile(dirs_deg, shape[1])
    for lo, hi in runs:
        f, d = freqs[lo:hi], dirs[lo:hi]
        if not (np.array_equal(_distinct(f), freqs_hz) and np.array_equal(_distinct(np.sort(d)), dirs_deg)):
            raise ValueError(f"{path}: inconsistent grid across timestamps")
        if not (np.array_equal(f, cell_freqs) and np.array_equal(d, cell_dirs)):
            raise ValueError(f"{path}: irregular grid at {times[lo]}")
    with _naming(path):
        return SpectrumSeries(
            times=times[starts],
            freqs=TWO_PI * freqs_hz,
            dirs=np.deg2rad(dirs_deg),
            # per-Hz per-deg  ->  per-(rad/s) per-rad
            density=density[order].reshape(shape) * ((1.0 / TWO_PI) * (180.0 / np.pi)),
        )


def write_spectra(path: Path, spectra: SpectrumSeries) -> None:
    """One row per (timestamp, frequency, direction), in that nesting order."""
    stamps = np.datetime_as_string(spectra.times).astype(object)
    grid = np.meshgrid(stamps, spectra.freqs / TWO_PI, np.rad2deg(spectra.dirs), indexing="ij")
    # per-(rad/s) per-rad  ->  per-Hz per-deg
    columns = [*grid, spectra.density * TWO_PI * (np.pi / 180.0)]
    _write_table(path, _SPECTRA_HEADER, "%s, %.10g, %.10g, %.10g", [c.ravel().tolist() for c in columns])


# -- forecast issue files ----------------------------------------------------

# issue files parsed together: one split and one float conversion per batch,
# while the text held at once stays a small part of the set
_ISSUE_BATCH = 64


def read_forecast_issue(path: Path) -> ForecastIssue:
    issues = read_forecast_issues([path])
    return ForecastIssue(issue_time=issues.issue_times[0], horizon_hours=issues.leads, values=issues.values)


def read_forecast_issues(paths: list[Path]) -> IssueSet:
    """The issue files, in the order given, as one IssueSet.

    Every row of a file must repeat one issue time, and every valid time
    must lie a whole number of hours after it; the leads must be
    nonnegative, hourly and increasing, and each sig_heave_m a finite
    nonnegative number. A file that breaks a rule raises a
    ValueError naming it, and the row and column of a cell that breaks one:
    the first such file in the order given, as when the files are read one
    at a time.
    """
    paths = list(paths)
    parts = [_read_issue_batch(paths[k:k + _ISSUE_BATCH]) for k in range(0, len(paths), _ISSUE_BATCH)]
    if not parts:
        return IssueSet.from_issues([])
    issue_times, sizes, leads, values = (np.concatenate(column) for column in zip(*parts))
    del parts  # before the set checks itself, which takes as much memory again
    return IssueSet(issue_times=issue_times, bounds=np.concatenate([[0], np.cumsum(sizes)]), leads=leads, values=values)


def _read_issue_batch(paths: list[Path]) -> tuple[np.ndarray, ...]:
    try:
        return _parse_issue_files(paths)
    except (ValueError, OSError):
        if len(paths) == 1:
            raise
        # the batch holds a bad file: find the first, as a file-by-file read would
        for path in paths:
            _parse_issue_files([path])
        raise


def _parse_issue_files(paths: list[Path]) -> tuple[np.ndarray, ...]:
    """The files' issue times, row counts, leads and values, their rows split
    and converted together, then checked file by file. A refusal names the
    first file: _read_issue_batch reads a failed batch again file by file."""
    _, (issue_col, valid_col, value_col), sizes = _read_cells(paths, _ISSUE_HEADER)
    if 0 in sizes:
        raise ValueError(f"{paths[0]}: empty forecast issue")
    bounds = np.cumsum([0] + sizes)
    # each file's first issue-time cell; a file that spells its others otherwise is parsed whole
    issue_times = _parse_times([issue_col[lo] for lo in bounds[:-1].tolist()], paths[0], "issue_time_utc")
    for issued, lo, hi in zip(issue_times, bounds.tolist(), bounds[1:].tolist()):
        cells = issue_col[lo:hi]
        if cells.count(cells[0]) < hi - lo:
            other = np.flatnonzero(_parse_times(cells, paths[0], "issue_time_utc") != issued)
            if other.size:
                _refuse_cell(paths[0], cells, int(other[0]), "issue_time_utc", "the first row's issue time")
    valid_times = _parse_times(valid_col, paths[0], "valid_time_utc")
    values = _numbers(value_col, paths[0], "sig_heave_m")
    bad = _bad_values(values)
    if bad.size:
        _refuse_cell(paths[0], value_col, bad[0], "sig_heave_m", "a finite nonnegative number")
    seconds = (valid_times - np.repeat(issue_times, sizes)).astype(np.int64)
    off_hour = np.flatnonzero(seconds % 3600)
    if off_hour.size:
        rule = "a whole number of hours after the issue time"
        _refuse_cell(paths[0], valid_col, int(off_hour[0]), "valid_time_utc", rule)
    leads = seconds // 3600
    bad = _irregular_rows(bounds, leads)
    if bad.size:
        row = int(bad[0])
        rule = "no earlier than the issue time" if leads[row] < 0 else "an hour after the row before"
        _refuse_cell(paths[0], valid_col, row, "valid_time_utc", rule)
    return issue_times, np.array(sizes), leads, values


def _issue_texts(issues: IssueSet):
    """Each issue's file text, in issue order, as the table _table_text spells.

    The valid-time strings come from one table of the set's distinct valid
    times, and each file's values from one %.10g format, which spells a
    float as f"{v:.10g}" does. The table comes from a sort, not np.unique,
    which imports numpy.ma (about 16 ms at the start of a stage).
    """
    valid = issues.valid_times()
    order = np.argsort(valid, kind="stable")
    valid = valid[order]
    new = np.ones(valid.size, dtype=bool)
    new[1:] = valid[1:] != valid[:-1]
    stamps = np.asarray(np.datetime_as_string(valid[new]), dtype=object)
    row_stamp = np.empty(valid.size, dtype=np.intp)
    row_stamp[order] = np.cumsum(new) - 1
    bounds = issues.bounds.tolist()
    for issued, lo, hi in zip(np.datetime_as_string(issues.issue_times).tolist(), bounds, bounds[1:]):
        # one file's cells at a time, so no Python object per row of the set is held
        cells = [stamps[row_stamp[lo:hi]].tolist(), issues.values[lo:hi].tolist()]
        yield _table_text(_ISSUE_HEADER, f"{issued}, %s, %.10g", cells)


def write_forecast_issue(path: Path, issue: ForecastIssue) -> None:
    (text,) = _issue_texts(IssueSet.from_issues([issue]))
    atomic_write_text(path, _readable(path, text))


def write_forecast_issues(pattern: Path, issues: IssueSet) -> None:
    """The set as the files pattern names with each issue's index i, and nothing else in their directory.

    The files are written into a staging directory beside the issue
    directory. Then the issue directory, if there is one, is moved into the
    staging directory, and one rename puts the new set in its place, so a
    reader finds the old set, no directory or the new set, never a mix. The
    staging directory, with the old set, is removed last; if a write fails,
    the issue directory is left as it was.
    """
    issue_dir, template = Path(pattern).parent, Path(pattern).name
    issue_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=issue_dir.parent, prefix=f".{issue_dir.name}."))
    try:
        new, old = staging / issue_dir.name, staging / "replaced"
        new.mkdir()
        for i, text in enumerate(_issue_texts(issues)):
            name = template.format(i=i)
            text = _readable(issue_dir / name, text)
            with open(new / name, "x") as fh:
                fh.write(text)
        if os.path.lexists(issue_dir):
            os.rename(issue_dir, old)
        try:
            os.rename(new, issue_dir)
        except OSError:
            if os.path.lexists(old):
                os.rename(old, issue_dir)
            raise
    finally:
        shutil.rmtree(staging)
