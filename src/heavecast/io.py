"""Delimited-text file formats and the run manifest.

All artefacts are plain comma-separated text with a header line so any
plotting tool can consume them. Frequencies are stored in files as Hz and
directions in degrees (the operational product conventions); everything is
converted to rad/s and radians on ingestion. Writes are atomic: a file is
written as a temp file in the target directory, then renamed, and a
forecast-issue set is written into a staging directory that one rename puts
in place of the issue directory, so a reader never sees a mix of two sets.

A reader imports the type it builds, and write_predictions the predictive
helpers, when it runs, so a stage loads only the modules behind the files it
reads or writes.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import math
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import yaml

from .config import ErrorInjection, SamplerConfig, SwellEvent, SwellScenario
from .datasets import DEFAULT_HORIZONS, ForecastIssue, HorizonDataset, IssueSet, _irregular_issues

if TYPE_CHECKING:
    from .model import PosteriorSamples, PredictiveDraws
    from .motion import HeaveRecord, RawMotionSeries
    from .scoring import ScoreReport
    from .spectral import RaoCurve, SpectrumSeries

__all__ = [
    "RunManifest",
    "atomic_write_text",
    "read_rao",
    "write_rao",
    "read_spectra",
    "write_spectra",
    "read_motion_series",
    "read_qa_events",
    "read_heave_records",
    "write_heave_records",
    "read_forecast_issue",
    "read_forecast_issues",
    "write_forecast_issue",
    "write_forecast_issues",
    "read_horizon_dataset",
    "write_horizon_dataset",
    "read_posterior_samples",
    "write_posterior_samples",
    "write_predictions",
    "write_score_reports",
]

TWO_PI = 2.0 * np.pi


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v: float) -> str:
    return f"{float(v):.10g}"


def _parse_times(cells, where, what: str) -> np.ndarray:
    """One column of ISO-8601 UTC cells (optional trailing Z) as datetime64[s].

    numpy alone also reads `now` and `today`, in any case, as the wall-clock
    time, and `NaT` and empty cells as NaT. A column with such a cell, or one
    numpy cannot parse, raises a ValueError naming where, the file, and what,
    the column.
    """
    try:
        times = np.array([c.removesuffix("Z") for c in cells], dtype="datetime64[s]")
    except ValueError as exc:
        raise ValueError(f"{where}: {what}: {exc}") from exc
    # an ISO-8601 cell starts with a digit or a sign, both of which sort
    # before every letter, so the largest cell starts with a letter if any does
    if times.size and (max(cells)[:1] > "9" or np.isnat(times).any()):
        bad = next(c for c, t in zip(cells, np.isnat(times).tolist()) if t or c[:1] > "9")
        raise ValueError(f"{where}: {what} is not a time ({bad!r})")
    return times


def _table_lines(path: Path) -> tuple[list[str], list[str]]:
    """Header cells and the data lines.

    Blank lines are skipped; every other row must have the header's cell
    count, or a ValueError names the file and the line.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    top = next((n for n, ln in enumerate(lines) if ln.strip()), None)
    if top is None:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in lines[top].split(",")]
    body = lines[top + 1:]
    commas = len(header) - 1
    if not commas or set(map(str.count, body, repeat(","))) != {commas}:
        # blank lines (a one-column row looks like one) or a row of the wrong width
        kept = []
        for n, ln in enumerate(body, top + 2):
            if ln.strip():
                if ln.count(",") != commas:
                    raise ValueError(f"{path}, line {n}: expected {len(header)} cells, found {ln.count(',') + 1}")
                kept.append(ln)
        body = kept
    return header, body


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header cells and the data cells column by column (see _table_lines)."""
    header, body = _table_lines(path)
    cells = ",".join(body).split(",") if body else []
    return header, [list(map(str.strip, cells[j::len(header)])) for j in range(len(header))]


def _read_columns(path: Path, expected_header: list[str]) -> list[list[str]]:
    """The data cells column by column, for a file with the expected header."""
    header, columns = _read_table(path)
    if header != expected_header:
        raise ValueError(f"{path}: expected header {expected_header}, found {header}")
    return columns


# -- RAO ---------------------------------------------------------------------

def read_rao(path: Path) -> RaoCurve:
    from .spectral import RaoCurve

    freq_col, amp_col = _read_columns(path, ["freq_hz", "amplitude"])
    freqs_hz = np.array(freq_col, dtype=float)
    amps = np.array(amp_col, dtype=float)
    return RaoCurve(freqs=TWO_PI * freqs_hz, amplitudes=amps, label=Path(path).stem)


def write_rao(path: Path, rao: RaoCurve) -> None:
    lines = ["freq_hz, amplitude"]
    for w, a in zip(rao.freqs, rao.amplitudes):
        lines.append(f"{_fmt(w / TWO_PI)}, {_fmt(a)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- directional spectra -----------------------------------------------------

def read_spectra(path: Path) -> SpectrumSeries:
    """Long-format spectrum file covering one or more timestamps.

    The (freq, dir) grid must be identical for every timestamp; the density
    column is m^2 s per degree of direction (per-Hz, per-deg) and is
    converted to the per-rad/s, per-rad convention used internally.
    """
    from .spectral import SpectrumSeries

    time_col, freq_col, dir_col, density_col = _read_columns(
        path, ["timestamp_utc", "freq_hz", "dir_deg", "density_m2_s_per_deg"]
    )
    if not time_col:
        raise ValueError(f"{path}: no spectrum rows")
    by_time: dict[np.datetime64, list[tuple[float, float, float]]] = {}
    for stamp, f, d, v in zip(_parse_times(time_col, path, "timestamp_utc"), freq_col, dir_col, density_col):
        by_time.setdefault(stamp, []).append((float(f), float(d), float(v)))

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
        if len(entries) != freqs_hz.size * dirs_deg.size:
            raise ValueError(f"{path}: irregular grid at {stamp}")
        fi = {f: i for i, f in enumerate(freqs_hz)}
        di = {d: j for j, d in enumerate(dirs_deg)}
        density = np.zeros((freqs_hz.size, dirs_deg.size))
        for f, d, v in entries:
            density[fi[f], di[d]] = v
        densities.append(density)
    return SpectrumSeries(
        times=sorted(by_time),
        freqs=TWO_PI * freqs_hz,
        dirs=np.deg2rad(dirs_deg),
        # per-Hz per-deg  ->  per-(rad/s) per-rad
        density=np.array(densities) * ((1.0 / TWO_PI) * (180.0 / np.pi)),
    )


def write_spectra(path: Path, spectra: SpectrumSeries) -> None:
    lines = ["timestamp_utc, freq_hz, dir_deg, density_m2_s_per_deg"]
    freqs_hz = spectra.freqs / TWO_PI
    dirs_deg = np.rad2deg(spectra.dirs)
    for stamp, density in zip(spectra.times, spectra.density * TWO_PI * (np.pi / 180.0)):
        for i, f in enumerate(freqs_hz):
            for j, d in enumerate(dirs_deg):
                lines.append(f"{stamp}, {_fmt(f)}, {_fmt(d)}, {_fmt(density[i, j])}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- motion measurements -----------------------------------------------------

def read_motion_series(path: Path) -> RawMotionSeries:
    """Uniformly sampled heave displacement, `timestamp_utc, heave_m`."""
    from .motion import RawMotionSeries

    time_col, value_col = _read_columns(path, ["timestamp_utc", "heave_m"])
    if len(time_col) < 2:
        raise ValueError(f"{path}: need at least two samples")
    times = _parse_times(time_col, path, "timestamp_utc").astype("datetime64[ms]")
    steps = np.diff(times) / np.timedelta64(1, "s")
    if np.ptp(steps) > 1e-9 or steps[0] <= 0:
        raise ValueError(f"{path}: samples must be uniform in time")
    values = np.array(value_col, dtype=float)
    return RawMotionSeries(start=times[0], sample_rate=1.0 / float(steps[0]), values=values)


def read_qa_events(path: Path) -> list[tuple[tuple[np.datetime64, np.datetime64], str]]:
    start_col, end_col, reasons = _read_columns(path, ["start_utc", "end_utc", "reason"])
    starts, ends = _parse_times(start_col, path, "start_utc"), _parse_times(end_col, path, "end_utc")
    return [((a, b), r) for a, b, r in zip(starts, ends, reasons)]


def read_heave_records(path: Path) -> list[HeaveRecord]:
    from .motion import HeaveRecord

    time_col, sig_col, valid_col = _read_columns(path, ["timestamp_utc", "sig_heave_m", "valid"])
    out = []
    for stamp, sig, flag in zip(_parse_times(time_col, path, "timestamp_utc"), sig_col, valid_col):
        valid = flag.lower() == "true"
        out.append(HeaveRecord(timestamp=stamp, sig_heave=float(sig) if valid else np.nan, valid=valid))
    return out


def write_heave_records(path: Path, records: list[HeaveRecord]) -> None:
    lines = ["timestamp_utc, sig_heave_m, valid"]
    for rec in records:
        sig = _fmt(rec.sig_heave) if rec.valid else "nan"
        lines.append(f"{rec.timestamp}, {sig}, {str(rec.valid).lower()}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- forecast issues and horizon datasets ------------------------------------

_ISSUE_HEADER = ["issue_time_utc", "valid_time_utc", "sig_heave_m"]

# issue files parsed together: one split and one float conversion per batch,
# while the text held at once stays a small part of the set
_ISSUE_BATCH = 64


def read_forecast_issue(path: Path) -> ForecastIssue:
    return read_forecast_issues([path])[0]


def read_forecast_issues(paths: list[Path]) -> IssueSet:
    """The issue files, in the order given, as one IssueSet.

    Every row of a file must repeat one issue time, and every valid time
    must lie a whole number of hours after it; the leads must be
    nonnegative, hourly and increasing. A file that breaks a rule raises a
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


def _column_times(cells: list[str], where, what: str) -> np.ndarray:
    """_parse_times of a column that repeats a few spellings, each parsed once."""
    spellings = {c: k for k, c in enumerate(dict.fromkeys(cells))}
    times = _parse_times([c.strip() for c in spellings], where, what)
    return times[np.fromiter(map(spellings.__getitem__, cells), dtype=np.intp, count=len(cells))]


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

    # every row repeats its file's issue time: parse each distinct spelling once
    issue_cells = cells[0::3]
    spelled = [set(issue_cells[lo:hi]) for lo, hi in zip(bounds.tolist(), bounds[1:].tolist())]
    distinct = list(set().union(*spelled))
    times = _parse_times([s.strip() for s in distinct], where, "issue time")
    seconds_of = dict(zip(distinct, times.view(np.int64).tolist()))
    issue_seconds = []
    for path, spellings in zip(paths, spelled):
        seconds = {seconds_of[s] for s in spellings}
        if len(seconds) > 1:
            raise ValueError(f"{path}: multiple issue times in one file")
        issue_seconds.append(seconds.pop())
    issue_times = np.array(issue_seconds, dtype="datetime64[s]")
    row_issue_times = np.repeat(issue_times, np.diff(bounds))
    valid_times = _column_times(cells[1::3], where, "valid time")
    try:
        values = np.array(cells[2::3], dtype=float)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
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
    atomic_write_text(path, text)


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
            with open(new / f"issue_{i:04d}.csv", "x") as fh:
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


def read_horizon_dataset(path: Path, horizon: int) -> HorizonDataset:
    valid_col, x_col, y_col, issue_col, _ = _read_columns(
        path, ["valid_time_utc", "x_m", "y_m", "issue_time_utc", "post_gap_flag"]
    )
    valid_times = _parse_times(valid_col, path, "valid_time_utc")
    issue_times = _parse_times(issue_col, path, "issue_time_utc")
    try:
        return HorizonDataset(
            horizon=horizon,
            valid_times=valid_times,
            x=np.array(x_col, dtype=float),
            y=np.array(y_col, dtype=float),
            issue_times=issue_times,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_horizon_dataset(path: Path, ds: HorizonDataset) -> None:
    rows = zip(
        np.datetime_as_string(ds.valid_times).tolist(),
        ds.x.tolist(),
        ds.y.tolist(),
        np.datetime_as_string(ds.issue_times).tolist(),
        ds.post_gap.astype(int).tolist(),
    )
    lines = ["valid_time_utc, x_m, y_m, issue_time_utc, post_gap_flag"]
    lines += [f"{vt}, {x:.10g}, {y:.10g}, {it}, {gap}" for vt, x, y, it, gap in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- posterior samples -------------------------------------------------------

def write_posterior_samples(path: Path, samples: PosteriorSamples) -> None:
    """Draw matrix as delimited text plus a JSON diagnostics sidecar.

    The sidecar holds per-parameter R-hat and ESS, the sigma-step acceptance
    rate and the sampler's deterministic facts: burn-in and retained sweeps,
    rejections per truncated block and the smallest ESS. No wall-clock value
    goes in, so a fixed manifest and seed reproduce it bit for bit.
    """
    row = "%d, " + ", ".join(["%.12g"] * samples.draws.shape[1])
    lines = ["chain, " + ", ".join(samples.param_names)]
    lines += [row % (cid, *values) for cid, values in zip(samples.chain_ids.tolist(), samples.draws.tolist())]
    atomic_write_text(path, "\n".join(lines) + "\n")
    sidecar = {
        "acceptance_rate": samples.acceptance_rate,
        "parameters": samples.diagnostics,
        "sampler": samples.sampler_facts,
    }
    atomic_write_text(Path(str(path) + ".diag.json"), json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def read_posterior_samples(path: Path) -> PosteriorSamples:
    from .model import PosteriorSamples

    header, columns = _read_table(path)
    if header[0] != "chain":
        raise ValueError(f"{path}: expected a 'chain' column first")
    if not columns[0]:
        raise ValueError(f"{path}: no posterior draws")
    names = tuple(header[1:])
    try:
        chain_ids = [int(c) for c in columns[0]]
        # (n_draws, n_params), row-major like the draws fit wrote
        draws = np.array(columns[1:], dtype=float).reshape(len(names), len(chain_ids)).T.copy()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    sidecar_path = Path(str(path) + ".diag.json")
    try:
        meta = json.loads(sidecar_path.read_text()) if sidecar_path.exists() else {}
    except ValueError as exc:
        raise ValueError(f"{sidecar_path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar_path}: expected a JSON object, found {type(meta).__name__}")
    return PosteriorSamples(
        draws=draws,
        param_names=names,
        chain_ids=np.array(chain_ids),
        diagnostics=meta.get("parameters", {}),
        acceptance_rate=meta.get("acceptance_rate", float("nan")),
        sampler_facts=meta.get("sampler", {}),
    )


# -- predictions and scores --------------------------------------------------

def write_predictions(path: Path, pred: PredictiveDraws) -> None:
    """Predictive summaries per valid time: mean and the quantile levels."""
    from .model import QUANTILE_LEVELS, predictive_summaries

    table = predictive_summaries(pred)
    cols = ["valid_time_utc", "mean_m"] + [f"p{round(lv * 100):02d}_m" for lv in QUANTILE_LEVELS]
    lines = [", ".join(cols)]
    for vt, row in zip(pred.valid_times, table.tolist()):
        lines.append(", ".join([str(vt)] + [_fmt(v) for v in row]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_score_reports(path: Path, reports: list[ScoreReport]) -> None:
    lines = ["model, horizon_h, rmse_m, crps_m, n"]
    for r in reports:
        lines.append(f"{r.model_label}, {r.horizon}, {r.rmse:.3f}, {r.crps_mean:.3f}, {r.n}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- run manifest ------------------------------------------------------------

# value types checked per dataclass field annotation; other fields are not
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "dict": ((dict,), "a mapping"),
    "str": ((str,), "a string"),
    "Path": ((str,), "a path"),
    "Path | None": ((str, type(None)), "a path"),
    # YAML reads an unquoted ISO-8601 time as a timestamp
    "str | date": ((str, datetime.date), "an ISO-8601 time"),
}

# libyaml's loader when PyYAML was built with it, else the pure-Python one
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_ISO_TIME = re.compile(r"\d{4}-\d\d-\d\d(?:[T ]\d\d(?::\d\d(?::\d\d(?:\.\d+)?)?)?)?Z?")

# where a scenario starts when its manifest names no start
_DEFAULT_START = np.datetime64("2024-06-01T00:00:00", "s")


def _check_section(what: str, raw, cls, skip=frozenset(), extra=None) -> None:
    """A manifest mapping must set every field of cls without a default and
    may set the others, less skip, and the keys of extra, which maps each to
    its type annotation; int, float, dict, str and path values must have
    that type."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a mapping, found {raw!r}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in skip}
    types = {name: f.type for name, f in fields.items()} | (extra or {})
    unknown = set(raw) - set(types)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown, key=str)}")
    missing = [
        name for name, f in fields.items()
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING and name not in raw
    ]
    if missing:
        raise ValueError(f"{what} must set {missing}")
    for key, value in raw.items():
        typed = _FIELD_TYPES.get(types[key])
        if typed and (isinstance(value, bool) or not isinstance(value, typed[0])):
            raise ValueError(f"{what} key {key} must be {typed[1]}, found {value!r}")


def _iso_time(value) -> np.datetime64:
    """An ISO-8601 string (date, optional time, optional Z) or a YAML
    timestamp, as a UTC datetime64[s]."""
    if isinstance(value, datetime.datetime) and value.tzinfo is not None:
        value = value.astimezone(datetime.timezone.utc).replace(tzinfo=None)
    if isinstance(value, str) and not _ISO_TIME.fullmatch(value):
        raise ValueError(f"{value!r} is not an ISO-8601 time")
    return np.datetime64(value.removesuffix("Z") if isinstance(value, str) else value, "s")


@dataclass
class RunManifest:
    """Paths and settings steering one end-to-end run."""

    out_dir: Path
    rao_file: Path | None = None
    spectra_file: Path | None = None
    issue_files: list[Path] = field(default_factory=list)
    measurements_file: Path | None = None
    horizons: list[int] = field(default_factory=lambda: list(DEFAULT_HORIZONS))
    model_kind: str = "hybrid"
    seed: int = 0
    train_fraction: float = 0.8
    sampler: dict = field(default_factory=dict)
    scenario: dict = field(default_factory=dict)
    injection: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        try:
            raw = yaml.load(Path(path).read_text(), Loader=_YAML_LOADER) or {}
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: malformed YAML: {exc}") from exc
        _check_section("manifest", raw, cls)
        _check_section("manifest sampler", raw.get("sampler", {}), SamplerConfig)
        _check_section("manifest injection", raw.get("injection", {}), ErrorInjection, skip={"seed"})
        files = raw.get("issue_files", [])
        if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
            raise ValueError(f"issue_files must be a list of paths, found {files!r}")
        if "scenario" in raw:
            # simulate defaults the start time; the seeds come from the manifest seed
            scenario = raw["scenario"]
            _check_section(
                "manifest scenario", scenario, SwellScenario,
                skip={"seed", "start"}, extra={"start": "str | date", "measurement_noise": "float"},
            )
            if "start" in scenario:
                try:
                    scenario["start"] = _iso_time(scenario["start"])
                except ValueError as exc:
                    raise ValueError(f"manifest scenario key start: {exc}") from exc
            noise = scenario.get("measurement_noise", 0.0)
            if not 0.0 <= noise < math.inf:
                raise ValueError(
                    f"manifest scenario key measurement_noise must be finite and nonnegative, found {noise!r}"
                )
            events = scenario.get("events", [])
            if not isinstance(events, list):
                raise ValueError("manifest scenario events must be a list")
            for event in events:
                _check_section("manifest scenario event", event, SwellEvent)
        base = Path(path).parent
        m = cls(out_dir=base / raw.pop("out_dir"))
        for key, value in raw.items():
            if key.endswith("_file") and value is not None:
                value = base / value
            if key == "issue_files":
                value = [base / v for v in value]
            setattr(m, key, value)
        if not isinstance(m.horizons, list) or not all(
            isinstance(h, int) and not isinstance(h, bool) and h >= 0 for h in m.horizons
        ):
            raise ValueError(f"horizons must be a list of nonnegative integers, found {m.horizons!r}")
        if m.model_kind not in ("basic", "hybrid"):
            raise ValueError("model_kind must be 'basic' or 'hybrid'")
        # the settings check their own values, so every stage refuses what simulate or fit would
        SamplerConfig(**m.sampler)
        m.error_injection()
        if "scenario" in raw:
            m.swell_scenario()
        return m

    def error_injection(self) -> ErrorInjection:
        """The injection section, seeded from the manifest seed."""
        return ErrorInjection(seed=self.seed + 17, **self.injection)

    def swell_scenario(self) -> SwellScenario:
        """The scenario section, seeded by the manifest seed; it starts at
        2024-06-01T00:00:00 unless it names a start."""
        raw = {k: v for k, v in self.scenario.items() if k != "measurement_noise"}
        events = tuple(SwellEvent(**e) for e in raw.pop("events", []))
        raw.setdefault("start", _DEFAULT_START)
        return SwellScenario(events=events, seed=self.seed, **raw)

    def require(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if value is None or (isinstance(value, list) and not value):
                raise ValueError(f"manifest is missing {name}")
            paths = value if isinstance(value, list) else [value]
            for p in paths:
                if isinstance(p, Path) and not p.exists():
                    raise FileNotFoundError(f"{name}: {p} does not exist")
