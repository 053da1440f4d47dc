"""What every stage reads or writes: the run manifest with its settings,
the horizon datasets, and their delimited-text files.

All artefacts are plain comma-separated text with a header line so any
plotting tool can consume them; a samples file's JSON sidecar is written
by fit and read by no stage. Writes are atomic: a temp file in the target
directory, which the kernel gives the umask's mode as for open(path, "w"),
renamed into place. Every reader takes its columns from _read_cells. A cell
may carry spaces or tabs around it: numbers and times are parsed through
them, and a cell compared as text is stripped where it is compared.

The manifest's settings (SamplerConfig, SwellEvent, SwellScenario,
ErrorInjection) check their own values, and RunManifest.load checks a
manifest's keys against their fields and builds each section, so every
stage validates every section. Every seed a stage draws from comes from
STREAMS, through RunManifest.stream. A HorizonDataset holds one horizon's
aligned (forecast, measurement) rows, which chrono_split splits in time
order; the model stages need nothing else of datasets, which builds them.

The campaign's own files (RAO, spectra, heave records and forecast
issues), which only simulate, build and response touch, are read and
written by datasets. Five of its functions, write_rao, read_heave_records,
write_heave_records, read_forecast_issue and write_forecast_issue, still
resolve as attributes of this module, importing datasets on first use
(PEP 562), so fit, predict, score and diagnose never load it. Likewise a
reader imports the type it builds, and write_predictions
model.predictive_summaries (the one pass over the draws that gives each
row's summaries and CRPS), when it runs, so score, which reads only the
predictions table, never loads model; PyYAML is imported only for a
manifest that is not a JSON document.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime
import json
import math
import os
import re
import reprlib
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import check_model_kind

if TYPE_CHECKING:
    from .model import PosteriorSamples, PredictiveDraws
    from .scoring import ScoreReport

# readers and writers datasets defines that bench/tracer.py traces under
# this module, resolved here on first use
_CAMPAIGN_NAMES = (
    "write_rao",
    "read_heave_records",
    "write_heave_records",
    "read_forecast_issue",
    "write_forecast_issue",
)

__all__ = [
    "RunManifest",
    "SamplerConfig",
    "SwellEvent",
    "SwellScenario",
    "ErrorInjection",
    "FORECAST_FREQS_HZ",
    "FORECAST_DIRS_RAD",
    "HorizonDataset",
    "DEFAULT_HORIZONS",
    "chrono_split",
    "atomic_write_text",
    *_CAMPAIGN_NAMES,
    "read_horizon_dataset",
    "write_horizon_dataset",
    "read_posterior_samples",
    "write_posterior_samples",
    "write_predictions",
    "read_predictions",
    "write_score_reports",
]


def __getattr__(name: str):
    if name not in _CAMPAIGN_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import datasets

    value = getattr(datasets, name)
    globals()[name] = value
    return value


def atomic_write_text(path: Path, text: str) -> None:
    """Write text to path through a temp file beside it, renamed into place.

    The temp file gets a random hidden name and is created with mode 0666,
    which the kernel masks with the umask, as open(path, "w") does; the
    umask itself is never read or set.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _naming(where):
    """Give a ValueError or ArithmeticError raised in the block the message
    f"{where}: {message}", keeping its type."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    except ArithmeticError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _readable(path: Path, text: str) -> str:
    """text, or a ValueError naming path when text spells a finite number
    past the largest float, which its reader would read as infinite.

    Only an exponent of 308 can overflow: %.10g spells every finite value
    from 1.7976931345e308 up as 1.797693135e+308.
    """
    if "e+308" in text:
        for number in re.findall(r"-?[\d.]+e\+308", text):
            if math.isinf(float(number)):
                raise ValueError(f"{path}: {number} is past the largest float and would read back as infinite")
    return text


def _table_text(columns: list[str], row_format: str, cells: list) -> str:
    """The columns' header line, then row_format for each row, filled by one % from cells, a list per placeholder."""
    flat = [None] * sum(map(len, cells))
    for k, column in enumerate(cells):
        flat[k :: len(cells)] = column
    return f"{', '.join(columns)}\n" + f"{row_format}\n" * (len(flat) // (len(cells) or 1)) % tuple(flat)


def _write_table(path: Path, columns: list[str], row_format: str, cells: list) -> None:
    """Write _table_text's text to path atomically, once _readable accepts it."""
    atomic_write_text(path, _readable(path, _table_text(columns, row_format, cells)))


# the README's time grammar, YYYY-MM-DD[(T| )HH[:MM[:SS[.f]]]][Z] in ASCII digits
_ISO_TIME = re.compile(r"\d{4}-\d\d-\d\d(?:[T ]\d\d(?::\d\d(?::\d\d(?:\.\d+)?)?)?)?Z?", re.ASCII)


def _refuse_cell(where, cells, row: int, column: str, rule: str):
    """Refuse the cell cells[row] of column in the file where, naming its data row counted from 1."""
    raise ValueError(f"{where}, row {row + 1}: {column} must be {rule}, found {cells[row].strip()!r}")


def _time(spelling: str):
    """A time spelling, blanks stripped, as datetime64[s]; None outside _ISO_TIME's grammar or the calendar."""
    try:
        return np.datetime64(spelling.removesuffix("Z"), "s") if _ISO_TIME.fullmatch(spelling) else None
    except ValueError:
        return None


def _parse_times(cells, where, column: str) -> np.ndarray:
    """One column of ISO-8601 UTC cells (blanks around each ignored) as
    datetime64[s], each distinct cell checked and parsed once. The first row
    whose cell _time refuses is refused: numpy alone would also read `now` and
    `today` as the wall-clock time, `NaT` and an empty cell as no time, `2024`
    and `2024-06` as the first of the month, `20240601` as the year 20240601,
    and an offset such as `+01:00` by converting to UTC.
    """
    cells = list(cells)
    distinct = list(dict.fromkeys(cells))
    spellings = [c.strip() for c in distinct]
    try:
        if not all(map(_ISO_TIME.fullmatch, spellings)):
            raise ValueError
        times = np.array([c.removesuffix("Z") for c in spellings], dtype="datetime64[s]")
    except ValueError:
        bad = next(c for c in distinct if _time(c.strip()) is None)
        _refuse_cell(where, cells, cells.index(bad), column, "a time")
    if len(distinct) == len(cells):
        return times
    position = {c: k for k, c in enumerate(distinct)}
    return times[np.fromiter(map(position.__getitem__, cells), dtype=np.intp, count=len(cells))]


def _numbers(cells, where, column: str, dtype=float, finite: bool = False) -> np.ndarray:
    """Number cells, blanks around each ignored, as an array of dtype; the first
    cell numpy refuses, or with finite the first that is not finite, is refused
    by _refuse_cell."""
    try:
        values = np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        for row, cell in enumerate(cells):
            try:
                np.array(cell, dtype=dtype)
            except (ValueError, OverflowError):
                _refuse_cell(where, cells, row, column, "a number" if dtype is float else "an integer")
        raise
    if finite and not np.isfinite(values).all():
        _refuse_cell(where, cells, int(np.argmin(np.isfinite(values))), column, "a finite number")
    return values


def _table_lines(path: Path) -> tuple[list[str], str, int]:
    """Header cells, then the data lines joined by commas and their count.

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
    return header, ",".join(body), len(body)


def _read_cells(paths: list[Path], header: list[str] | None = None) -> tuple[list[str], list[list[str]], list[int]]:
    """The header, the data cells column by column and each file's row count
    of delimited-text files that share header (the first file's if None),
    else a ValueError names the file. The rows are split at once, and each
    cell keeps the blanks around it, which _numbers and _parse_times ignore.
    """
    texts, sizes = [], []
    for path in paths:
        found, text, rows = _table_lines(path)
        header = found if header is None else header
        if found != header:
            raise ValueError(f"{path}: expected header {header}, found {found}")
        texts.append(text)
        sizes.append(rows)
    # the text goes once split, so only the cells are held while they are dealt into columns
    text = ",".join(filter(None, texts))
    texts.clear()
    cells = text.split(",") if text else []
    del text
    return header, [cells[j::len(header)] for j in range(len(header))], sizes


# -- horizon datasets --------------------------------------------------------

HOUR = np.timedelta64(1, "h")

DEFAULT_HORIZONS: tuple[int, ...] = (0, 6, 12, 24, 48, 72, 96)


@dataclass(frozen=True, eq=False)
class HorizonDataset:
    """Time-aligned (forecast, measurement) pairs for one horizon.

    post_gap is worked out from the valid times: it marks the rows whose
    hourly predecessor is absent (the first row, and each row more than an
    hour after the row before), so lagged-residual terms must be reset there.
    """

    horizon: int
    valid_times: np.ndarray  # datetime64[s]
    x: np.ndarray  # forecast sig-heave (m)
    y: np.ndarray  # measured sig-heave (m)
    issue_times: np.ndarray
    post_gap: np.ndarray = field(init=False)

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
        post_gap = np.ones(vt.size, dtype=bool)
        if vt.size:
            post_gap[1:] = np.diff(vt) != HOUR
        object.__setattr__(self, "valid_times", vt)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "issue_times", it)
        object.__setattr__(self, "post_gap", post_gap)

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


def chrono_split(ds: HorizonDataset, train_fraction: float) -> tuple[HorizonDataset, HorizonDataset]:
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


_DATASET_HEADER = ["valid_time_utc", "x_m", "y_m", "issue_time_utc", "post_gap_flag"]


def read_horizon_dataset(path: Path, horizon: int) -> HorizonDataset:
    """The dataset write_horizon_dataset wrote.

    Each valid time must be later than the row before, and x_m and y_m
    finite numbers, or a ValueError names the file, the row and the column.
    HorizonDataset recomputes post_gap from the valid times, so the
    post_gap_flag column is only checked: each cell must be 0 or 1 and
    agree with the recomputed flag, or a ValueError names the file and row.
    """
    _, (valid_col, x_col, y_col, issue_col, flag_col), _ = _read_cells([path], _DATASET_HEADER)
    valid_times = _parse_times(valid_col, path, "valid_time_utc")
    early = np.flatnonzero(np.diff(valid_times) <= np.timedelta64(0, "s"))
    if early.size:
        _refuse_cell(path, valid_col, int(early[0]) + 1, "valid_time_utc", "later than the row before")
    issue_times = _parse_times(issue_col, path, "issue_time_utc")
    x, y = _numbers(x_col, path, "x_m", finite=True), _numbers(y_col, path, "y_m", finite=True)
    ds = HorizonDataset(horizon=horizon, valid_times=valid_times, x=x, y=y, issue_times=issue_times)
    flag_col = list(map(str.strip, flag_col))
    expected = np.where(ds.post_gap, "1", "0").tolist()
    if flag_col != expected:
        row, cell, flag = next((k, c, e) for k, (c, e) in enumerate(zip(flag_col, expected)) if c != e)
        if cell not in ("0", "1"):
            _refuse_cell(path, flag_col, row, "post_gap_flag", "0 or 1")
        raise ValueError(f"{path}, row {row + 1}: post_gap_flag is {cell}, but the valid times make it {flag}")
    return ds


def write_horizon_dataset(path: Path, ds: HorizonDataset) -> None:
    cells = [np.datetime_as_string(ds.valid_times).tolist(), ds.x.tolist(), ds.y.tolist(),
             np.datetime_as_string(ds.issue_times).tolist(), ds.post_gap.astype(int).tolist()]
    _write_table(path, _DATASET_HEADER, "%s, %.10g, %.10g, %s, %d", cells)


# -- posterior samples -------------------------------------------------------

def write_posterior_samples(path: Path, samples: PosteriorSamples, sidecar: Path) -> None:
    """Draw matrix as delimited text at path and a JSON diagnostics sidecar at sidecar.

    The sidecar holds per-parameter R-hat and ESS, the sigma-step acceptance
    rate and the sampler's deterministic facts: burn-in and retained sweeps,
    rejections per truncated block and the smallest ESS. It is written for
    people and tools; no stage reads it back. No wall-clock value goes in,
    so a fixed manifest and seed reproduce it bit for bit.
    """
    cells = [samples.chain_ids.tolist(), *samples.draws.T.tolist()]
    _write_table(path, ["chain", *samples.param_names], "%d" + ", %.12g" * samples.draws.shape[1], cells)
    facts = {"acceptance_rate": samples.acceptance_rate, "parameters": samples.diagnostics,
             "sampler": samples.sampler_facts}
    atomic_write_text(sidecar, _json_text(facts) + "\n")


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True) of nested dicts whose
    leaves are JSON scalars (numbers, strings, booleans, None).

    json indents in pure Python, and each such call leaves a cycle of
    closures that only the cyclic collector frees; without indent it encodes
    in C and leaves none, so only the layout is written here.
    """
    if not isinstance(value, dict) or not value:
        return json.dumps(value)
    inner = indent + "  "
    items = [f"{inner}{json.dumps(key)}: {_json_text(v, inner)}" for key, v in sorted(value.items())]
    return "{\n" + ",\n".join(items) + f"\n{indent}}}"


def read_posterior_samples(path: Path) -> PosteriorSamples:
    """The draws, parameter names and chain ids write_posterior_samples wrote.

    Every draw must be a finite number, or a ValueError names the file, the
    row and the column. The sidecar is not opened: no stage that reads samples
    uses what it holds, so the samples get empty diagnostics and a NaN
    acceptance rate.
    """
    from .model import PosteriorSamples

    header, columns, _ = _read_cells([path])
    if header[0] != "chain":
        raise ValueError(f"{path}: expected a 'chain' column first")
    if not columns[0]:
        raise ValueError(f"{path}: no posterior draws")
    names = tuple(header[1:])
    chain_ids = _numbers(columns[0], path, "chain", int)
    # (n_draws, n_params), row-major like the draws fit wrote
    draws = np.array([_numbers(c, path, n, finite=True) for c, n in zip(columns[1:], names)])
    draws = draws.reshape(len(names), chain_ids.size).T.copy()
    return PosteriorSamples(draws=draws, param_names=names, chain_ids=chain_ids, diagnostics={},
                            acceptance_rate=float("nan"))


# -- predictions and scores --------------------------------------------------

_PREDICTIONS_HEADER = ["valid_time_utc", "mean_m", "p05_m", "p50_m", "p95_m", "crps_m"]


def write_predictions(path: Path, pred: PredictiveDraws, obs: np.ndarray) -> None:
    """Per valid time: the predictive mean, the quantiles at model.QUANTILE_LEVELS
    and the sample CRPS of the draws against the measured value in obs."""
    from .model import predictive_summaries

    table = predictive_summaries(pred.draws.T, obs)
    cells = [np.datetime_as_string(pred.valid_times).tolist(), *table.T.tolist()]
    _write_table(path, _PREDICTIONS_HEADER, "%s" + ", %.10g" * table.shape[1], cells)


def read_predictions(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The valid times and the (rows, columns) number table write_predictions wrote.

    Every number must be finite and crps_m nonnegative, or a ValueError
    names the file, the column and the row.
    """
    _, (valid_col, *number_cols), _ = _read_cells([path], _PREDICTIONS_HEADER)
    valid_times = _parse_times(valid_col, path, "valid_time_utc")
    table = np.column_stack([_numbers(c, path, n) for c, n in zip(number_cols, _PREDICTIONS_HEADER[1:])])
    bad = ~np.isfinite(table)
    bad[:, -1] |= table[:, -1] < 0.0
    if bad.any():
        row, col = np.argwhere(bad)[0].tolist()
        name = _PREDICTIONS_HEADER[1 + col]
        _refuse_cell(path, number_cols[col], row, name, "finite and nonnegative" if name == "crps_m" else "finite")
    return valid_times, table


def write_score_reports(path: Path, reports: list[ScoreReport]) -> None:
    cells = [*zip(*((r.model_label, r.horizon, r.rmse, r.crps_mean, r.n) for r in reports))]
    _write_table(path, ["model", "horizon_h", "rmse_m", "crps_m", "n"], "%s, %s, %.3f, %.3f, %s", cells)


# -- run manifest settings ---------------------------------------------------

# Operational forecast grid: 28 log-spaced frequency bins, 30 direction bins.
FORECAST_FREQS_HZ = np.logspace(np.log10(0.0412), np.log10(0.5399), 28)
FORECAST_DIRS_RAD = (np.arange(30) + 0.5) * (2.0 * np.pi / 30.0)

_TP_MIN = 1.0 / FORECAST_FREQS_HZ[-1]  # ~1.85 s
_TP_MAX = 1.0 / FORECAST_FREQS_HZ[0]  # ~24.3 s
MIN_DRAWS = 100  # fewest posterior draws a stage accepts; fit warms up and retains at least this many per chain


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
        if self.chains < 1 or self.warmup_draws < MIN_DRAWS or self.retained_draws < MIN_DRAWS:
            raise ValueError(f"need >= 1 chain, >= {MIN_DRAWS} warmup and retained draws")
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
        if self.bandwidth_hz <= 0.0:
            raise ValueError(f"bandwidth_hz must be positive, found {self.bandwidth_hz!r}")
        if self.spread_exp < 0.0:
            raise ValueError(f"spread_exp must be nonnegative, found {self.spread_exp!r}")


@dataclass(frozen=True)
class SwellScenario:
    """Campaign description: event schedule plus wind-sea background."""

    duration_h: int
    start: np.datetime64 = np.datetime64("2024-06-01T00:00:00", "s")
    events: tuple[SwellEvent, ...] = ()
    background_hs: float = 0.8
    background_tp: float = 6.0
    background_direction: float = np.deg2rad(90.0)
    background_spread_exp: float = 2.0
    hs_jitter: float = 0.0  # relative hourly Hs modulation (AR(1) in time)
    hs_jitter_ar: float = 0.7  # hour-to-hour persistence of the modulation
    measurement_noise: float = 0.0  # m, the standard deviation of the measured heave's error
    seed: int = 0

    def __post_init__(self):
        _check_finite(self)
        if self.duration_h < 1:
            raise ValueError("duration must be at least one hour")
        if self.background_hs < 0.0:
            raise ValueError("background Hs must be nonnegative")
        if self.background_spread_exp < 0.0:
            raise ValueError(f"background_spread_exp must be nonnegative, found {self.background_spread_exp!r}")
        if self.hs_jitter < 0.0:
            raise ValueError("Hs jitter must be nonnegative")
        if not 0.0 <= self.hs_jitter_ar < 1.0:
            raise ValueError("Hs jitter persistence must lie in [0, 1)")
        if self.background_hs > 0.0 and not _TP_MIN <= self.background_tp <= _TP_MAX:
            raise ValueError("background Tp outside the forecast band")
        if self.measurement_noise < 0.0:
            raise ValueError(f"measurement_noise must be nonnegative, found {self.measurement_noise!r}")
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
    "np.datetime64": ((str, datetime.date), "an ISO-8601 time"),
}

def _check_section(what: str, raw, cls, skip=frozenset()) -> None:
    """A manifest mapping must set every field of cls without a default and
    may set the others, less skip; int, float, dict, str, path and time
    values must have that type."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a mapping, found {reprlib.repr(raw)}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in skip}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown, key=str)}")
    missing = [
        name for name, f in fields.items()
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING and name not in raw
    ]
    if missing:
        raise ValueError(f"{what} must set {missing}")
    for key, value in raw.items():
        typed = _FIELD_TYPES.get(fields[key].type)
        if typed and (isinstance(value, bool) or not isinstance(value, typed[0])):
            raise ValueError(f"{what} key {key} must be {typed[1]}, found {reprlib.repr(value)}")


def _iso_time(value: datetime.date) -> np.datetime64:
    """A YAML timestamp (a date, or a time with or without an offset) as a UTC datetime64[s]."""
    if isinstance(value, datetime.datetime) and value.tzinfo is not None:
        value = value.astimezone(datetime.timezone.utc).replace(tzinfo=None)
    return np.datetime64(value, "s")


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# libyaml's composer recurses once per level and crashes 20000 to 40000 levels deep
_YAML_DEPTH_LIMIT = 5000


def _manifest_document(path: Path):
    """The manifest file's document: read by json when it is JSON, else by
    PyYAML, which this imports only then.

    PyYAML reads a JSON document as flow YAML and gives the same values,
    with three differences. It reads NaN and Infinity as strings, which the
    manifest checks refuse, so a document that spells them goes to PyYAML.
    It reads a number with an exponent but no dot or no exponent sign
    (1e-05, as json.dumps writes 0.00001, or 1.5e3) as a string, where JSON
    and YAML 1.2 read a number, as json does here. And libyaml refuses the
    surrogate-pair escape of a character beyond U+FFFF, which json reads.
    Refused: a document deeper than json reads, or than _YAML_DEPTH_LIMIT, or
    than the pure-Python composer can recurse. PyYAML's parser keeps its own
    stack, so its events are walked first, and only to the first level past
    the limit, since libyaml parses deep flow nesting in quadratic time.
    """
    text = path.read_text()
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except ValueError:
        pass
    except RecursionError:
        raise ValueError("nested too deeply") from None
    import yaml

    # libyaml's loader when PyYAML was built with it, else the pure-Python one
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        depth = 0
        for event in yaml.parse(text, Loader=loader):
            depth += isinstance(event, yaml.CollectionStartEvent) - isinstance(event, yaml.CollectionEndEvent)
            if depth > _YAML_DEPTH_LIMIT:
                raise ValueError("nested too deeply")
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ValueError(f"malformed YAML: {exc}") from exc
    except RecursionError:  # the pure-Python composer's, a few hundred levels deep
        raise ValueError("nested too deeply") from None


# The random streams of a run: each maps the manifest seed (and, for fit and
# predict, the horizon) to the seed its stage draws from, an int or a tuple of
# ints as numpy's SeedSequence takes. numpy pads entropy with zero words
# (default_rng(s) draws as default_rng([s, 0])), and SeedSequence(e).spawn(n)[k]
# is spawn key (k,) of e, so fit's key keeps three words with a nonzero second:
# no other stream, and no cycle slot of the issue noise, draws its chains'
# numbers. bench/probe.py recomputes the predictive draws with predict's seed.
STREAMS = {
    "spectra_jitter": lambda seed: seed,
    "issue_noise": lambda seed: seed + 17,  # spawned per cycle slot by synthetic
    "measurement_noise": lambda seed: seed + 29,
    "fit": lambda seed, h: (seed, 1, h),  # spawned per chain by sampler.fit
    "predict": lambda seed, h: seed + 1000 + h,
}


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
    # the file load read, which names the manifest in require's messages
    _path = None

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        """The manifest at path, its keys, their types and values checked; a
        ValueError's message starts with the path, as require's do."""
        path = Path(path)
        with _naming(path):
            m = cls._from_document(_manifest_document(path) or {}, path.parent)
        m._path = path
        return m

    @classmethod
    def _from_document(cls, raw, base: Path) -> "RunManifest":
        _check_section("manifest", raw, cls)
        _check_section("manifest sampler", raw.get("sampler", {}), SamplerConfig)
        _check_section("manifest injection", raw.get("injection", {}), ErrorInjection, skip={"seed"})
        files = raw.get("issue_files", [])
        if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
            raise ValueError(f"issue_files must be a list of paths, found {reprlib.repr(files)}")
        if "scenario" in raw:
            # the seed comes from the manifest seed
            scenario = raw["scenario"]
            _check_section("manifest scenario", scenario, SwellScenario, skip={"seed"})
            start = scenario.get("start")
            if start is not None:
                scenario["start"] = _time(start.strip()) if isinstance(start, str) else _iso_time(start)
                if scenario["start"] is None:
                    raise ValueError(f"manifest scenario: start must be a time, found {start.strip()!r}")
            events = scenario.get("events", [])
            if not isinstance(events, list):
                raise ValueError("manifest scenario events must be a list")
            for event in events:
                _check_section("manifest scenario event", event, SwellEvent)
        m = cls(out_dir=base / raw.pop("out_dir"))
        for key, value in raw.items():
            if key.endswith("_file") and value is not None:
                value = base / value
            if key == "issue_files":
                value = [base / v for v in value]
            setattr(m, key, value)
        m.check()
        # the settings check their own values, so every stage refuses what simulate or fit would
        SamplerConfig(**m.sampler)
        m.error_injection()
        if m.scenario:
            m.swell_scenario()
        return m

    def check(self) -> None:
        """Refuse a top-level value no stage runs with; load calls this, and
        each command after its overrides."""
        if not isinstance(self.horizons, list) or not all(
            isinstance(h, int) and not isinstance(h, bool) and h >= 0 for h in self.horizons
        ):
            raise ValueError(f"horizons must be a list of nonnegative integers, found {reprlib.repr(self.horizons)}")
        if not self.horizons:
            raise ValueError("horizons must not be empty")
        if len(set(self.horizons)) < len(self.horizons):
            raise ValueError(f"horizons must not repeat a horizon, found {self.horizons!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, found {self.seed!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"manifest key train_fraction must lie strictly inside (0, 1), found {self.train_fraction!r}"
            )
        check_model_kind(self.model_kind)

    def stream(self, name: str, *index: int) -> int | tuple[int, ...]:
        """The seed stream name of STREAMS draws from in this run, at index (the horizon, for fit and predict)."""
        return STREAMS[name](self.seed, *index)

    def error_injection(self) -> ErrorInjection:
        """The injection section, seeded with the issue-noise stream."""
        return ErrorInjection(seed=self.stream("issue_noise"), **self.injection)

    def swell_scenario(self) -> SwellScenario:
        """The scenario section, seeded with the spectra-jitter stream."""
        raw = dict(self.scenario)
        events = tuple(SwellEvent(**e) for e in raw.pop("events", []))
        return SwellScenario(events=events, seed=self.stream("spectra_jitter"), **raw)

    def require(self, *names: str) -> None:
        """Refuse a key the manifest leaves unset or empty, or a file it names that does not exist."""
        for name in names:
            value = getattr(self, name)
            if value is None or (isinstance(value, (list, dict)) and not value):
                where = "manifest" if self._path is None else f"{self._path}: manifest"
                raise ValueError(f"{where} is missing {name}")
            paths = value if isinstance(value, list) else [value]
            for p in paths:
                if isinstance(p, Path) and not p.exists():
                    raise FileNotFoundError(f"{name}: {p} does not exist")
