"""The campaign's inputs, forecast issues and measured heave, and the
per-horizon datasets built from them.

simulate writes the campaign's files (RAO, spectra, heave records and
forecast issues), build and response read them, and no other stage loads
this module; io resolves five of its readers and writers as attributes.
Each file's columns and cell rules are io.FORMATS'; frequencies in Hz and
directions in degrees are converted to rad/s and radians on reading. A
spectra file holds one row per (timestamp, frequency, direction) cell, in
any order: read_spectra sorts the rows once, checks each timestamp's run
against the first run's grid, naming the file row of the first cell out of
place, and reshapes the density column. An IssueSet
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

from . import ISSUES, MEASUREMENTS, RAO, SPECTRA
from .io import _PER_RAD, _RULES, _distinct, _naming, _read_table, _readable, _refuse_row, _run_starts
from .io import HOUR, HorizonDataset, _table_texts, _write_table, atomic_write_text, chrono_split

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
        # an issue file's rules not_before and hourly (io.FORMATS), held on the leads
        lags, first = leads.astype("m8[h]"), np.arange(leads.size) == 0
        if (_RULES["not_before"][1](lags, 0 * HOUR, first) | _RULES["hourly"][1](lags, None, first)).any():
            raise ValueError("lead times must be nonnegative, hourly and increasing")
        bad = np.flatnonzero(_RULES["nonnegative"][1](values, None, None))
        if bad.size:
            raise ValueError(f"lead {leads[bad[0]]}: values must be finite nonnegative numbers, found {values[bad[0]]}")
        object.__setattr__(self, "issue_time", np.datetime64(self.issue_time, "s"))
        object.__setattr__(self, "horizon_hours", leads)
        object.__setattr__(self, "values", values)


def _cycle_hours(issue_times) -> np.ndarray:
    """The UTC hour of day of each issue time."""
    secs = (issue_times - issue_times.astype("datetime64[D]")).astype(np.int64)
    return secs // 3600 % 24


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
        lags, first = leads.astype("m8[h]"), np.zeros(leads.size, dtype=bool)
        first[bounds[:-1][np.diff(bounds) > 0]] = True  # each issue's first row
        bad = np.flatnonzero(_RULES["not_before"][1](lags, 0 * HOUR, first) | _RULES["hourly"][1](lags, None, first))
        if bad.size:
            issue = np.searchsorted(bounds, bad[0], side="right") - 1
            raise ValueError(f"issue {issue}: lead times must be nonnegative, hourly and increasing")
        bad = np.flatnonzero(_RULES["nonnegative"][1](values, None, None))
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
    """A fixed-horizon forecast series, one row per valid time in time order."""

    valid_times: np.ndarray  # datetime64[s]
    values: np.ndarray  # m
    issue_times: np.ndarray  # datetime64[s]

    def __post_init__(self):
        object.__setattr__(self, "valid_times", np.asarray(self.valid_times, dtype="datetime64[s]"))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "issue_times", np.asarray(self.issue_times, dtype="datetime64[s]"))
        if not self.valid_times.shape == self.values.shape == self.issue_times.shape == (self.valid_times.size,):
            raise ValueError("valid_times, values and issue_times must be matching 1-d arrays")


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
    """Each row's record, its cells read by io.FORMATS: valid reads true or
    false in any case, and sig_heave_m is read only where true."""
    _, (times, sig, valid), _ = _read_table([path], MEASUREMENTS)
    return [HeaveRecord(timestamp=t, sig_heave=v, valid=ok) for t, v, ok in zip(times, sig.tolist(), valid.tolist())]


def write_heave_records(path: Path, records: list[HeaveRecord]) -> None:
    """sig_heave_m is written nan where a record is not valid, as io.FORMATS has it."""
    _write_table(path, MEASUREMENTS, [*zip(*((r.timestamp, r.sig_heave, r.valid) for r in records))])


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

    _, (freqs_hz, amps), _ = _read_table([path], RAO)
    with _naming(path):
        return RaoCurve(freqs=TWO_PI * freqs_hz, amplitudes=amps)


def write_rao(path: Path, rao: RaoCurve) -> None:
    _write_table(path, RAO, [rao.freqs / TWO_PI, rao.amplitudes])


# -- directional spectra -----------------------------------------------------

def read_spectra(path: Path) -> SpectrumSeries:
    """Long-format spectrum file covering one or more timestamps, its cells read by io.FORMATS.

    One row per (timestamp, freq, dir) cell, in any order; each timestamp
    must hold each cell of the first one's (freq, dir) grid once. The density
    is m^2 s per Hz per degree, converted to the per-rad/s, per-rad convention.
    """
    from .spectral import SpectrumSeries

    _, (times, freqs, dirs, density), _ = _read_table([path], SPECTRA)
    if not times.size:
        raise ValueError(f"{path}: no spectrum rows")
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
        if np.array_equal(f, cell_freqs) and np.array_equal(d, cell_dirs):
            continue
        # the first cell out of the grid's place, or the last of a run that stops short, by its row in the file
        n = min(f.size, cell_freqs.size)
        off = np.flatnonzero((f[:n] != cell_freqs[:n]) | (d[:n] != cell_dirs[:n]))
        row = order[lo + (off[0] if off.size else min(n, f.size - 1))]
        if np.array_equal(_distinct(f), freqs_hz) and np.array_equal(_distinct(np.sort(d)), dirs_deg):
            _refuse_row(path, row, f"irregular grid at {times[lo]}")
        _refuse_row(path, row, "inconsistent grid across timestamps")
    with _naming(path):
        return SpectrumSeries(
            times=times[starts],
            freqs=TWO_PI * freqs_hz,
            dirs=np.deg2rad(dirs_deg),
            # per-Hz per-deg  ->  per-(rad/s) per-rad
            density=density[order].reshape(shape) * _PER_RAD,
        )


def write_spectra(path: Path, spectra: SpectrumSeries) -> None:
    """One row per (timestamp, frequency, direction), in that nesting order."""
    grid = np.meshgrid(spectra.times, spectra.freqs / TWO_PI, np.rad2deg(spectra.dirs), indexing="ij")
    # per-(rad/s) per-rad  ->  per-Hz per-deg
    _write_table(path, SPECTRA, [c.ravel() for c in (*grid, spectra.density * TWO_PI * (np.pi / 180.0))])


# -- forecast issue files ----------------------------------------------------

# issue files parsed together: one split and one float conversion per batch,
# while the text held at once stays a small part of the set
_ISSUE_BATCH = 64


def read_forecast_issue(path: Path) -> ForecastIssue:
    issues = read_forecast_issues([path])
    return ForecastIssue(issue_time=issues.issue_times[0], horizon_hours=issues.leads, values=issues.values)


def read_forecast_issues(paths: list[Path]) -> IssueSet:
    """The issue files, in the order given, as one IssueSet.

    Their cells are read by io.FORMATS, whose rules also hold each file's
    leads nonnegative, hourly and increasing. A file that breaks a rule raises a
    ValueError naming it, and the row and column of a cell that breaks one:
    the first such file in the order given, as a file-by-file read would.
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
        for path in paths:  # the first bad file, as a file-by-file read would find it
            _parse_issue_files([path])
        raise


def _parse_issue_files(paths: list[Path]) -> tuple[np.ndarray, ...]:
    """The files' issue times, row counts, leads and values, read together, every cell held to io.FORMATS
    by _read_table. A refusal names the first file, so _read_issue_batch reads a failed batch again file by file."""
    _, (issue_times, valid_times, values), sizes = _read_table(paths, ISSUES)
    if 0 in sizes:
        raise ValueError(f"{paths[0]}: empty forecast issue")
    leads = (valid_times - issue_times).astype(np.int64) // 3600
    return issue_times[np.cumsum([0] + sizes[:-1])], np.array(sizes), leads, values


def _issue_texts(issues: IssueSet):
    """Each issue's file text, in issue order, one block of the set's rows each (io._table_texts)."""
    return _table_texts(ISSUES, [issues.issue_times, issues.valid_times(), issues.values], issues.bounds)


def write_forecast_issue(path: Path, issue: ForecastIssue) -> None:
    atomic_write_text(path, _readable(path, next(_issue_texts(IssueSet.from_issues([issue])))))


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
