"""The campaign's input files: RAO, spectra, heave records and forecast
issues.

simulate writes these files, and build and response read them; no other
stage loads this module. Each reader and writer also resolves as an
attribute of io on first use. The table helpers and atomic writes are io's.

Frequencies are stored in files as Hz and directions in degrees (the
operational product conventions); everything is converted to rad/s and
radians on ingestion. A forecast-issue set is written into a staging
directory that one rename puts in place of the issue directory, so a reader
never sees a mix of two sets.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .datasets import ForecastIssue, IssueSet, _bad_values, _irregular_issues
from .io import _CAMPAIGN_NAMES, _floats, _naming, _parse_times, _read_columns, _readable, _table_lines, _write_table
from .io import atomic_write_text

if TYPE_CHECKING:
    from .motion import HeaveRecord
    from .spectral import RaoCurve, SpectrumSeries

__all__ = list(_CAMPAIGN_NAMES)

TWO_PI = 2.0 * np.pi

# each file's columns: its reader requires this header and its writer writes it
_RAO_HEADER = ["freq_hz", "amplitude"]
_SPECTRA_HEADER = ["timestamp_utc", "freq_hz", "dir_deg", "density_m2_s_per_deg"]
_HEAVE_HEADER = ["timestamp_utc", "sig_heave_m", "valid"]
_ISSUE_HEADER = ["issue_time_utc", "valid_time_utc", "sig_heave_m"]


# -- RAO ---------------------------------------------------------------------

def read_rao(path: Path) -> RaoCurve:
    from .spectral import RaoCurve

    freq_col, amp_col = _read_columns(path, _RAO_HEADER)
    freqs_hz, amps = _floats(freq_col, path, "freq_hz"), _floats(amp_col, path, "amplitude")
    with _naming(path):
        return RaoCurve(freqs=TWO_PI * freqs_hz, amplitudes=amps)


def write_rao(path: Path, rao: RaoCurve) -> None:
    _write_table(path, _RAO_HEADER, "%.10g, %.10g", zip((rao.freqs / TWO_PI).tolist(), rao.amplitudes.tolist()))


# -- directional spectra -----------------------------------------------------

def read_spectra(path: Path) -> SpectrumSeries:
    """Long-format spectrum file covering one or more timestamps.

    The (freq, dir) grid must be identical for every timestamp, each cell once;
    the density column is m^2 s per degree of direction (per-Hz, per-deg) and
    is converted to the per-rad/s, per-rad convention used internally.
    """
    from .spectral import SpectrumSeries

    time_col, *number_cols = _read_columns(path, _SPECTRA_HEADER)
    if not time_col:
        raise ValueError(f"{path}: no spectrum rows")
    freqs, dirs, density = (_floats(col, path, name).tolist() for col, name in zip(number_cols, _SPECTRA_HEADER[1:]))
    if not np.isfinite([freqs, dirs]).all():
        raise ValueError(f"{path}: freq_hz and dir_deg must be finite")
    by_time: dict[np.datetime64, list[tuple[float, float, float]]] = {}
    for stamp, f, d, v in zip(_parse_times(time_col, path, _SPECTRA_HEADER[0]), freqs, dirs, density):
        by_time.setdefault(stamp, []).append((f, d, v))

    densities = []
    grid_key = None
    for stamp in sorted(by_time):
        entries = by_time[stamp]
        freqs_hz = np.array(sorted({e[0] for e in entries}))
        dirs_deg = np.array(sorted({e[1] for e in entries}))
        key = (freqs_hz.tobytes(), dirs_deg.tobytes())
        if grid_key is None:
            grid_key = key
        elif key != grid_key:
            raise ValueError(f"{path}: inconsistent grid across timestamps")
        if len({e[:2] for e in entries}) != len(entries) or len(entries) != freqs_hz.size * dirs_deg.size:
            raise ValueError(f"{path}: irregular grid at {stamp}")
        fi = {f: i for i, f in enumerate(freqs_hz)}
        di = {d: j for j, d in enumerate(dirs_deg)}
        density = np.zeros((freqs_hz.size, dirs_deg.size))
        for f, d, v in entries:
            density[fi[f], di[d]] = v
        densities.append(density)
    with _naming(path):
        return SpectrumSeries(
            times=sorted(by_time),
            freqs=TWO_PI * freqs_hz,
            dirs=np.deg2rad(dirs_deg),
            # per-Hz per-deg  ->  per-(rad/s) per-rad
            density=np.array(densities) * ((1.0 / TWO_PI) * (180.0 / np.pi)),
        )


def write_spectra(path: Path, spectra: SpectrumSeries) -> None:
    """One row per (timestamp, frequency, direction), in that nesting order."""
    stamps = np.datetime_as_string(spectra.times).astype(object)
    grid = np.meshgrid(stamps, spectra.freqs / TWO_PI, np.rad2deg(spectra.dirs), indexing="ij")
    # per-(rad/s) per-rad  ->  per-Hz per-deg
    columns = [*grid, spectra.density * TWO_PI * (np.pi / 180.0)]
    _write_table(path, _SPECTRA_HEADER, "%s, %.10g, %.10g, %.10g", zip(*(c.ravel().tolist() for c in columns)))


# -- heave records -----------------------------------------------------------

def read_heave_records(path: Path) -> list[HeaveRecord]:
    """Each row's record; valid reads true or false in any case, and sig_heave_m is read only where true."""
    from .motion import HeaveRecord

    time_col, sig_col, valid_col = _read_columns(path, _HEAVE_HEADER)
    times = _parse_times(time_col, path, "timestamp_utc")
    for row, cell in enumerate(valid_col, 1):
        if cell.lower() not in ("true", "false"):
            raise ValueError(f"{path}, row {row}: valid must be true or false, found {cell!r}")
    valid = [cell.lower() == "true" for cell in valid_col]
    sig = _floats([c if ok else "nan" for c, ok in zip(sig_col, valid)], path, "sig_heave_m").tolist()
    with _naming(path):
        return [HeaveRecord(timestamp=t, sig_heave=v, valid=ok) for t, v, ok in zip(times, sig, valid)]


def write_heave_records(path: Path, records: list[HeaveRecord]) -> None:
    """sig_heave_m reads nan where a record is not valid."""
    rows = ((r.timestamp, r.sig_heave if r.valid else np.nan, str(r.valid).lower()) for r in records)
    _write_table(path, _HEAVE_HEADER, "%s, %.10g, %s", rows)


# -- forecast issues and horizon datasets ------------------------------------

# issue files parsed together: one split and one float conversion per batch,
# while the text held at once stays a small part of the set
_ISSUE_BATCH = 64


def read_forecast_issue(path: Path) -> ForecastIssue:
    return read_forecast_issues([path])[0]


def read_forecast_issues(paths: list[Path]) -> IssueSet:
    """The issue files, in the order given, as one IssueSet.

    Every row of a file must repeat one issue time, and every valid time
    must lie a whole number of hours after it; the leads must be
    nonnegative, hourly and increasing, and each sig_heave_m a finite
    nonnegative number. A file that breaks a rule raises a
    ValueError naming it: the first such file in the order given, as when
    the files are read one at a time.
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
    and converted together, then checked file by file."""
    sizes, bodies = [], []
    for path in paths:
        header, body = _table_lines(path)
        if header != _ISSUE_HEADER:
            raise ValueError(f"{path}: expected header {_ISSUE_HEADER}, found {header}")
        if not body:
            raise ValueError(f"{path}: empty forecast issue")
        sizes.append(len(body))
        bodies.append(",".join(body))  # one string per file: its lines need not be held
    bounds = np.cumsum([0] + sizes)
    cells = ",".join(bodies).split(",")
    del bodies
    where = paths[0] if len(paths) == 1 else f"{len(paths)} issue files"

    def file_of(rows: np.ndarray) -> Path:
        return paths[np.searchsorted(bounds, rows[0], side="right") - 1]

    row_issue_times = _parse_times(cells[0::3], where, "issue time")
    issue_times = row_issue_times[bounds[:-1]]
    mixed = np.flatnonzero(row_issue_times != np.repeat(issue_times, sizes))
    if mixed.size:
        raise ValueError(f"{file_of(mixed)}: multiple issue times in one file")
    valid_times = _parse_times(cells[1::3], where, "valid time")
    with _naming(where):
        values = np.array(cells[2::3], dtype=float)
    bad = _bad_values(values)
    if bad.size:
        k = np.searchsorted(bounds, bad[0], side="right") - 1
        raise ValueError(
            f"{paths[k]}, row {bad[0] - bounds[k] + 1}: sig_heave_m must be a finite nonnegative number, "
            f"found {cells[3 * bad[0] + 2].strip()!r}"
        )
    seconds = (valid_times - row_issue_times).astype(np.int64)
    off_hour = np.flatnonzero(seconds % 3600)
    if off_hour.size:
        row = off_hour[0]
        raise ValueError(
            f"{file_of(off_hour)}: valid time {valid_times[row]} is not a whole number of hours "
            f"after the issue time {row_issue_times[row]}"
        )
    leads = seconds // 3600
    irregular = _irregular_issues(bounds, leads)
    if irregular.size:
        raise ValueError(f"{paths[irregular[0]]}: lead times must be nonnegative, hourly and increasing")
    return issue_times, np.array(sizes), leads, values


def _issue_texts(issues: IssueSet):
    """Each issue's file text, in issue order, formatted by column.

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
    header = ", ".join(_ISSUE_HEADER)
    for issued, lo, hi in zip(np.datetime_as_string(issues.issue_times).tolist(), bounds, bounds[1:]):
        # one file's cells at a time, so no Python object per row of the set is held
        cells = [None] * (2 * (hi - lo))
        cells[0::2] = stamps[row_stamp[lo:hi]].tolist()
        cells[1::2] = issues.values[lo:hi].tolist()
        yield f"{header}\n" + (f"{issued}, %s, %.10g\n" * (hi - lo)) % tuple(cells)


def write_forecast_issue(path: Path, issue: ForecastIssue) -> None:
    (text,) = _issue_texts(IssueSet.from_issues([issue]))
    atomic_write_text(path, _readable(path, text))


def write_forecast_issues(issue_dir: Path, issues: IssueSet) -> None:
    """The set as issue_0000.csv, issue_0001.csv, ... and nothing else in issue_dir.

    The files are written into a staging directory beside issue_dir. Then
    issue_dir, if there is one, is moved into the staging directory, and one
    rename puts the new set in its place, so a reader finds the old set, no
    directory or the new set, never a mix. The staging directory, with the
    old set, is removed last; if a write fails, issue_dir is left as it was.
    """
    issue_dir = Path(issue_dir)
    issue_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=issue_dir.parent, prefix=f".{issue_dir.name}."))
    try:
        new, old = staging / issue_dir.name, staging / "replaced"
        new.mkdir()
        for i, text in enumerate(_issue_texts(issues)):
            name = f"issue_{i:04d}.csv"
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
