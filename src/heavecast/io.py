"""What every stage reads or writes: the run manifest with its settings,
the horizon datasets, and their delimited-text files.

All artefacts are plain comma-separated text with a header line so any
plotting tool can consume them; a samples file's JSON sidecar is written
by fit and read by no stage. Writes are atomic: a temp file in the target
directory, which the kernel gives the umask's mode as for open(path, "w"),
renamed into place. FORMATS declares each table file's columns, _read_table
reads them and _table_text spells them, each cell by its column's kind,
from typed columns: a numpy array per column, or a scalar for one value in
every row, of datetime64 for a time, bool for a flag, and numbers, integers
or text. A cell may carry spaces or tabs around it: numbers and times are
parsed through them, and a cell compared as text is stripped where it is
compared.

Each manifest setting's value rules are declared on its dataclass field
(_setting, naming rules of _SETTING_RULES), and _check_settings checks them:
RunManifest.load through _check_section, naming each section and key, and
each settings class (SamplerConfig, SwellEvent, SwellScenario,
ErrorInjection) when built, so every stage validates every section. Only
the scenario's background_tp rule, which reads background_hs, and the list
rules of horizons, issue_files and events are code. Every seed a stage
draws from comes from STREAMS, through RunManifest.stream. A
HorizonDataset holds one horizon's aligned (forecast, measurement) rows,
which chrono_split splits in time order; the model stages need nothing
else of datasets, which builds them.

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

from . import DATASET, HETERO, ISSUES, MEASUREMENTS, PACF, PREDICTIONS, RAO, RESPONSE, SAMPLES, SCORES, SPECTRA
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
    "FORMATS",
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


# Each table file's columns in order, by its out_dir name template, each
# "name kind format rule ...". A cell's kind: time (_ISO_TIME's grammar),
# number, integer, flag (_FLAGS' spellings for its format, in any case) or
# text, which no reader reads. Each rule, a key of _RULES, is what every value
# must be, checked in order within each file; "rule:C" names the column C,
# read first, and only_where:C reads a cell only where the flag in C is true.
# A last column named * stands for every header column after those before it.
FORMATS = {
    RAO: ("freq_hz number %.10g finite positive rad increasing", "amplitude number %.10g nonnegative"),
    SPECTRA: ("timestamp_utc time %s", "freq_hz number %.10g finite positive rad", "dir_deg number %.10g finite",
              "density_m2_s_per_deg number %.10g nonnegative per_rad"),
    MEASUREMENTS: ("timestamp_utc time %s", "sig_heave_m number %.10g only_where:valid nonnegative", "valid flag %s"),
    ISSUES: ("issue_time_utc time %s constant",
             "valid_time_utc time %s hours_after:issue_time_utc not_before:issue_time_utc hourly",
             "sig_heave_m number %.10g nonnegative"),
    DATASET: ("valid_time_utc time %s later", "x_m number %.10g finite", "y_m number %.10g finite",
              "issue_time_utc time %s", "post_gap_flag flag %d gaps:valid_time_utc"),
    SAMPLES: ("chain integer %d", "* number %.12g finite"),
    PREDICTIONS: ("valid_time_utc time %s", "mean_m number %.10g finite", "p05_m number %.10g finite",
                  "p50_m number %.10g finite", "p95_m number %.10g finite", "crps_m number %.10g nonnegative"),
    SCORES: ("model text %s", "horizon_h integer %d", "rmse_m number %.3f", "crps_m number %.3f", "n integer %d"),
    PACF: ("lag integer %d", "coefficient number %.6f", "band number %.6f"),
    HETERO: ("x_bin_center_m number %.6f", "mean_abs_residual_m number %.6f", "count integer %d",
             "sigma_map number %.6f"),
    RESPONSE: ("timestamp_utc time %s", "m0_m2 number %.10g", "m2_m2_per_s2 number %.10g", "sig_heave_m number %.10g"),
}

# a flag's spellings by its write format, each with the value it reads as
_FLAGS = {"%d": {"0": False, "1": True}, "%s": {"true": True, "false": False}}


def _falls(v, other, first) -> np.ndarray:
    """The rows no greater than the row before, each file's first row excepted."""
    return np.concatenate(([False], v[1:] <= v[:-1])) & ~first


def _post_gap(times: np.ndarray, first=False) -> np.ndarray:
    """The rows whose hourly predecessor is absent: the first row, each file's
    first row, and each row that is not an hour after the row before."""
    return np.concatenate(([True], times[1:] - times[:-1] != HOUR))[:times.size] | first


# a density per Hz per degree times this is the density per rad/s per radian
_PER_RAD = (1.0 / (2.0 * np.pi)) * (180.0 / np.pi)
# a value times a unit conversion's factor is past the largest float when, scaled by 1/16 (a power of two,
# so the product cannot overflow), its product is past this
_LARGEST_16 = np.finfo(float).max / 16.0


# each rule: what a refusal says the value must be, and the mask of the rows that break it,
# given the values, the column the rule names and the mask of each file's first row
_RULES = {
    "finite": ("a finite number", lambda v, other, first: ~np.isfinite(v)),
    "nonnegative": ("a finite nonnegative number", lambda v, other, first: ~((v >= 0.0) & (v < np.inf))),
    "positive": ("positive", lambda v, other, first: ~(v > 0.0)),
    "later": ("later than the row before", _falls),
    "increasing": ("greater than the row before", _falls),
    "constant": ("the first row's", lambda v, other, first: v != v[first][np.cumsum(first) - 1]),
    "hours_after": ("a whole number of hours after {}", lambda v, other, first: (v - other) % HOUR != 0),
    "not_before": ("no earlier than the issue time", lambda v, other, first: first & (v < other)),
    "hourly": ("an hour after the row before", lambda v, other, first: _post_gap(v) & ~first),
    "gaps": ("1 exactly where {} is not an hour after the row before",
             lambda v, other, first: v != _post_gap(other, first)),
    "rad": ("finite in rad/s", lambda v, other, first: np.abs(v / 16.0) * (2.0 * np.pi) > _LARGEST_16),
    "per_rad": ("finite per rad/s and radian", lambda v, other, first: np.abs(v / 16.0) * _PER_RAD > _LARGEST_16),
}


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted array starts."""
    return np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]])[:ordered.size])


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """The values of a sorted array, each once (not np.unique, which imports numpy.ma)."""
    return ordered[_run_starts(ordered)]


def _time_texts(times: np.ndarray) -> np.ndarray:
    """Each time's ISO-8601 seconds, from one table of the distinct times; a stable sort is quick on the
    nearly sorted times the writers hand over."""
    seconds = times.astype("datetime64[s]", copy=False)
    table = _distinct(np.sort(seconds, kind="stable"))
    return np.datetime_as_string(table, unit="s").astype(object)[np.searchsorted(table, seconds)]


def _table_texts(key: str, columns: list, bounds, names=()):
    """FORMATS[key]'s text of each block of rows bounds[i]:bounds[i + 1], as
    _table_text spells one, each column spelled once for every block. A
    column under the rule constant holds a value per block, not per row."""
    spec = [column.split() for column in FORMATS[key]]
    header = [name for name, *_ in spec if name != "*"] + list(names)
    spec = spec[:-1] + spec[-1:] * len(columns)
    # a constant column's cell is spelled into each block's row format
    fixed = {k for k, column in enumerate(spec[:len(columns)]) if "constant" in column[3:]}
    typed = [np.broadcast_to(c, (len(bounds) - 1 if k in fixed else bounds[-1],)) for k, c in enumerate(columns)]
    cells = []  # each column's spelled values and the conversion that fills them in
    for values, (_, kind, fmt, *rules) in zip(typed, spec):
        flags = [typed[header.index(r.partition(":")[2])] for r in rules if r.startswith("only_where:")]
        if flags:
            values = np.where(flags[0], values, np.nan)
        if kind == "time":
            values = _time_texts(values)
        elif kind == "flag":  # its spellings go through the format's conversion as text
            spelled = {value: text for text, value in _FLAGS[fmt].items()}
            values, fmt = np.where(values, spelled[True], spelled[False]), fmt[:-1] + "s"
        cells.append((values, fmt))
    head, rows = f"{', '.join(header)}\n", [c for k, (c, _) in enumerate(cells) if k not in fixed]
    bounds = np.asarray(bounds).tolist()
    for block, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        row_format = ", ".join((f % c[block]).replace("%", "%%") if k in fixed else f for k, (c, f) in enumerate(cells))
        flat = [None] * ((hi - lo) * len(rows))
        for k, column in enumerate(rows):
            flat[k :: len(rows)] = column[lo:hi].tolist()
        yield head + f"{row_format}\n" * (hi - lo) % tuple(flat)


def _table_text(key: str, columns: list, names=()) -> str:
    """FORMATS[key]'s header line, with names for its column *, then a line
    per row, filled by one % from the cells spelled by each column's kind.

    Each column is a numpy array (or what numpy makes one of) of a value per
    row, or a scalar for the value of every row, as a constant column is:
    datetime64 for a time, spelled as ISO-8601 seconds; bool for a flag,
    spelled as _FLAGS has it for its format; and numbers, integers or text,
    spelled by the format. A column under only_where:C is written nan in the
    rows where C is false.
    """
    rows = next((np.size(column) for column in columns if np.ndim(column)), 0)
    return next(_table_texts(key, columns, [0, rows], names))


def _write_table(path: Path, key: str, columns: list, names=()) -> None:
    """Write _table_text's text to path atomically, once _readable accepts it."""
    atomic_write_text(path, _readable(path, _table_text(key, columns, names)))


# the README's time grammar, YYYY-MM-DD[(T| )HH[:MM[:SS[.f]]]][Z] in ASCII digits
_ISO_TIME = re.compile(r"\d{4}-\d\d-\d\d(?:[T ]\d\d(?::\d\d(?::\d\d(?:\.\d+)?)?)?)?Z?", re.ASCII)


def _refuse_cell(where, cells, row: int, column: str, rule: str):
    """Refuse the cell cells[row] of column in the file where, naming its data row counted from 1."""
    raise ValueError(f"{where}, row {row + 1}: {column} must be {rule}, found {cells[row].strip()!r}")


def _refuse_row(where, row: int, message: str):
    """Refuse the data row row of the file where, for a rule over the whole file, naming the row counted from 1."""
    raise ValueError(f"{where}, row {row + 1}: {message}")


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


def _parse(cells, where, column: str, kind: str, fmt: str) -> np.ndarray:
    """One column's cells, blanks around each ignored, as values of kind; the
    first cell that is not one is refused by _refuse_cell."""
    if kind == "time":
        return _parse_times(cells, where, column)
    if kind == "flag":
        found = list(map(_FLAGS[fmt].get, map(str.lower, map(str.strip, cells))))
        if None in found:
            _refuse_cell(where, cells, found.index(None), column, " or ".join(_FLAGS[fmt]))
        return np.array(found, dtype=bool)
    dtype, rule = (int, "an integer") if kind == "integer" else (float, "a number")
    try:
        return np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        for row, cell in enumerate(cells):
            try:
                np.array(cell, dtype=dtype)
            except (ValueError, OverflowError):
                _refuse_cell(where, cells, row, column, rule)
        raise


def _table_lines(path: Path) -> tuple[list[str], str, int]:
    """Header cells, then the data lines joined by commas and their count. Blank lines
    are skipped; a row without the header's cell count is refused by its line in the file."""
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


def _read_table(paths: list[Path], key: str) -> tuple[list[str], list[np.ndarray], list[int]]:
    """The header, the values column by column and each file's row count of
    files in the format FORMATS[key] with the first one's header, their rows split at once.

    Each column's cells are parsed by its kind, then held to its rules in order, the columns in
    order but each after those its rules name; the first cell that breaks one is refused, naming
    paths[0] and counting rows over every file. A constant column whose every file spells one
    cell is parsed at each file's first row.
    """
    spec = [column.split() for column in FORMATS[key]]
    names = [name for name, *_ in spec if name != "*"]
    header, texts, sizes = None if spec[-1][0] == "*" else names, [], []
    for path in paths:
        found, text, rows = _table_lines(path)
        header = found if header is None else header
        if found != header:
            raise ValueError(f"{path}: expected header {header}, found {found}")
        texts.append(text)
        sizes.append(rows)
    if header[:len(names)] != names:
        raise ValueError(f"{paths[0]}: expected a header starting {names}, found {header}")
    # the text goes once split, so only the cells are held while they are dealt into columns
    text = ",".join(filter(None, texts))
    texts.clear()
    cells = text.split(",") if text else []
    del text
    cells = [cells[j::len(header)] for j in range(len(header))]
    spec += spec[-1:] * (len(header) - len(spec))
    bounds = np.cumsum([0, *sizes])
    lo, hi = bounds[:-1][np.diff(bounds) > 0].tolist(), bounds[1:][np.diff(bounds) > 0].tolist()
    first = np.zeros(bounds[-1], dtype=bool)
    first[lo] = True
    named = [[header.index(r.partition(":")[2]) for r in rules if ":" in r] for _, _, _, *rules in spec]
    values = [None] * len(header)
    for j in dict.fromkeys(k for j in range(len(header)) for k in [*named[j], j]):
        (_, kind, fmt, *rules), name = spec[j], header[j]
        flags = [values[header.index(r.partition(":")[2])] for r in rules if r.startswith("only_where:")]
        read = flags[0] if flags else np.ones_like(first)
        if not read.all():  # the cells of the other rows are not read
            unread = np.array(cells[j], dtype=object)
            unread[~read] = "nan"
            cells[j] = unread.tolist()
        column = cells[j]
        if "constant" in rules and all(column[a:b].count(column[a]) == b - a for a, b in zip(lo, hi)):
            values[j] = _parse([column[a] for a in lo], paths[0], name, kind, fmt)[np.cumsum(first) - 1]
        else:
            values[j] = _parse(column, paths[0], name, kind, fmt)
        for rule, _, other in (r.partition(":") for r in rules if not r.startswith("only_where:")):
            phrase, breaks = _RULES[rule]
            bad = breaks(values[j], values[header.index(other)] if other else None, first) & read
            if bad.any():
                _refuse_cell(paths[0], column, int(np.argmax(bad)), name, phrase.format(other))
    return header, values, sizes


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
        if _falls(vt, None, False).any():
            raise ValueError("valid_times must be strictly increasing")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("x and y must be finite in every row")
        post_gap = _post_gap(vt)
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

    train_fraction must keep RunManifest.train_fraction's rule, and both parts
    must keep at least one row.
    """
    _check_settings(RunManifest, {"train_fraction": train_fraction})
    n = len(ds)
    if n < 10:
        raise ValueError(f"too few rows to split: {n} rows at horizon {ds.horizon}, at least 10 needed")
    k = int(np.ceil(train_fraction * n))
    if k >= n:
        raise ValueError(
            f"train_fraction {train_fraction} leaves no test row of the {n} rows at horizon {ds.horizon}"
        )
    return ds.rows(slice(0, k)), ds.rows(slice(k, n))


def read_horizon_dataset(path: Path, horizon: int) -> HorizonDataset:
    """The dataset write_horizon_dataset wrote, its cells checked by
    FORMATS[DATASET], whose rule gaps holds each post_gap_flag to the post_gap
    HorizonDataset works out from the valid times, so the flags are not kept."""
    _, (valid_times, x, y, issue_times, _), _ = _read_table([path], DATASET)
    return HorizonDataset(horizon=horizon, valid_times=valid_times, x=x, y=y, issue_times=issue_times)


def write_horizon_dataset(path: Path, ds: HorizonDataset) -> None:
    _write_table(path, DATASET, [ds.valid_times, ds.x, ds.y, ds.issue_times, ds.post_gap])


# -- posterior samples -------------------------------------------------------

def write_posterior_samples(path: Path, samples: PosteriorSamples, sidecar: Path) -> None:
    """Draw matrix as delimited text at path and a JSON diagnostics sidecar at sidecar.

    The sidecar holds per-parameter R-hat and ESS, the sigma-step acceptance
    rate and the sampler's deterministic facts: burn-in and retained sweeps,
    rejections per truncated block and the smallest ESS. It is written for
    people and tools; no stage reads it back. No wall-clock value goes in,
    so a fixed manifest and seed reproduce it bit for bit.
    """
    _write_table(path, SAMPLES, [samples.chain_ids, *samples.draws.T], samples.param_names)
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

    The sidecar is not opened: no stage that reads samples uses what it
    holds, so the samples get empty diagnostics and a NaN acceptance rate.
    """
    from .model import PosteriorSamples

    header, (chain_ids, *columns), _ = _read_table([path], SAMPLES)
    if not chain_ids.size:
        raise ValueError(f"{path}: no posterior draws")
    # (n_draws, n_params), row-major like the draws fit wrote
    draws = np.array(columns).reshape(len(columns), chain_ids.size).T.copy()
    return PosteriorSamples(draws=draws, param_names=tuple(header[1:]), chain_ids=chain_ids, diagnostics={},
                            acceptance_rate=float("nan"))


# -- predictions and scores --------------------------------------------------

def write_predictions(path: Path, pred: PredictiveDraws, obs: np.ndarray) -> None:
    """Per valid time: the predictive mean, the quantiles at model.QUANTILE_LEVELS
    and the sample CRPS of the draws against the measured value in obs."""
    from .model import predictive_summaries

    table = predictive_summaries(pred.draws.T, obs)
    _write_table(path, PREDICTIONS, [pred.valid_times, *table.T])


def read_predictions(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The valid times and the (rows, columns) number table write_predictions wrote."""
    _, (valid_times, *numbers), _ = _read_table([path], PREDICTIONS)
    return valid_times, np.column_stack(numbers)


def write_score_reports(path: Path, reports: list[ScoreReport]) -> None:
    _write_table(path, SCORES, [*zip(*((r.model_label, r.horizon, r.rmse, r.crps_mean, r.n) for r in reports))])


# -- run manifest settings ---------------------------------------------------

# Operational forecast grid: 28 log-spaced frequency bins, 30 direction bins.
FORECAST_FREQS_HZ = np.logspace(np.log10(0.0412), np.log10(0.5399), 28)
FORECAST_DIRS_RAD = (np.arange(30) + 0.5) * (2.0 * np.pi / 30.0)

_TP_MIN = 1.0 / FORECAST_FREQS_HZ[-1]  # ~1.85 s
_TP_MAX = 1.0 / FORECAST_FREQS_HZ[0]  # ~24.3 s
MIN_DRAWS = 100  # fewest posterior draws a stage accepts; fit warms up and retains at least this many per chain


def _finite(value) -> bool:
    """Whether value is a finite number; an integer past the float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# each rule a setting may declare: what a refusal says the value must be, and whether a value keeps
# it, given the text after the rule's colon; NaN keeps none (it compares false with every bound)
_SETTING_RULES = {
    "finite": ("a finite number", lambda v, arg: _finite(v)),
    "nonnegative": ("a finite nonnegative number", lambda v, arg: _finite(v) and v >= 0.0),
    "positive": ("a finite positive number", lambda v, arg: _finite(v) and v > 0.0),
    "at_least": ("at least {}", lambda v, arg: v >= float(arg)),
    "persistence": ("in [0, 1)", lambda v, arg: 0.0 <= v < 1.0),
    "fraction": ("strictly inside (0, 1)", lambda v, arg: 0.0 < v < 1.0),
    "tp_band": (f"within the forecast band [{_TP_MIN:.2f}, {_TP_MAX:.2f}] s", lambda v, arg: _TP_MIN <= v <= _TP_MAX),
}


def _setting(*rules: str, **kwargs):
    """A settings field whose value must keep each of rules, in order: keys
    of _SETTING_RULES, each with ":argument" where it takes one."""
    return field(metadata={"rules": rules}, **kwargs)


def _check_settings(cls, values: dict, what: str = "") -> None:
    """Refuse the first of values, by field name, that breaks a rule its field
    of cls declares: "<what> key <name> must be <rule>, found <value>", or
    "<name> must be ..." without what."""
    for f in dataclasses.fields(cls):
        for rule in f.metadata.get("rules", ()) if f.name in values else ():
            name, _, arg = rule.partition(":")
            phrase, keeps = _SETTING_RULES[name]
            if not keeps(values[f.name], arg):
                key = f"{what} key {f.name}" if what else f.name
                raise ValueError(f"{key} must be {phrase.format(arg)}, found {reprlib.repr(values[f.name])}")


@dataclass(frozen=True)
class SamplerConfig:
    chains: int = _setting("at_least:1", default=3)
    warmup_draws: int = _setting(f"at_least:{MIN_DRAWS}", default=1000)  # burn-in sweeps per chain
    retained_draws: int = _setting(f"at_least:{MIN_DRAWS}", default=1000)
    rhat_limit: float = _setting("finite", "at_least:1.0", default=1.05)

    def __post_init__(self):
        _check_settings(SamplerConfig, vars(self))


@dataclass(frozen=True)
class SwellEvent:
    """One swell pulse: peak Hs/Tp with exponential rise and decay."""

    arrival_h: float = _setting("finite")  # hours after scenario start
    hs: float = _setting("nonnegative")  # m at peak
    tp: float = _setting("tp_band")  # s at peak
    rise_h: float = _setting("positive", default=12.0)
    decay_h: float = _setting("positive", default=24.0)
    direction: float = _setting("finite", default=np.deg2rad(200.0))
    spread_exp: float = _setting("nonnegative", default=12.0)
    bandwidth_hz: float = _setting("positive", default=0.008)

    def __post_init__(self):
        _check_settings(SwellEvent, vars(self))


@dataclass(frozen=True)
class SwellScenario:
    """Campaign description: event schedule plus wind-sea background."""

    duration_h: int = _setting("at_least:1")
    start: np.datetime64 = np.datetime64("2024-06-01T00:00:00", "s")
    events: tuple[SwellEvent, ...] = ()
    background_hs: float = _setting("nonnegative", default=0.8)
    background_tp: float = _setting("finite", default=6.0)
    background_direction: float = _setting("finite", default=np.deg2rad(90.0))
    background_spread_exp: float = _setting("nonnegative", default=2.0)
    hs_jitter: float = _setting("nonnegative", default=0.0)  # relative hourly Hs modulation (AR(1) in time)
    hs_jitter_ar: float = _setting("persistence", default=0.7)  # hour-to-hour persistence of the modulation
    measurement_noise: float = _setting("nonnegative", default=0.0)  # m, std of the measured heave's error
    seed: int = 0

    def __post_init__(self):
        _check_settings(SwellScenario, vars(self))
        # the one rule across fields: a background sea has its peak period in the band
        phrase, keeps = _SETTING_RULES["tp_band"]
        if self.background_hs > 0.0 and not keeps(self.background_tp, ""):
            raise ValueError(f"background_tp must be {phrase} when background_hs > 0, "
                             f"found {reprlib.repr(self.background_tp)}")
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

    bias_factor: float = _setting("finite", default=1.0)
    timing_shift_h: float = _setting("finite", default=0.0)
    error_growth_rate: float = _setting("finite", default=0.0)  # per hour of lead
    noise_scale: float = _setting("nonnegative", default=0.0)  # m
    noise_ar: float = _setting("persistence", default=0.0)
    noise_ar_lead_decay: float = _setting("positive", default=48.0)
    seed: int = 0

    def __post_init__(self):
        _check_settings(ErrorInjection, vars(self))


# -- run manifest ------------------------------------------------------------

# value types checked per dataclass field annotation, before the values' rules; other fields are not
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
    values must have that type, and each value must keep its field's rules."""
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
    _check_settings(cls, raw, what)


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
    seed: int = _setting("at_least:0", default=0)
    train_fraction: float = _setting("fraction", default=0.8)
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
            raise ValueError(f"manifest key issue_files must be a list of paths, found {reprlib.repr(files)}")
        if "scenario" in raw:
            # the seed comes from the manifest seed
            scenario = raw["scenario"]
            _check_section("manifest scenario", scenario, SwellScenario, skip={"seed"})
            start = scenario.get("start")
            if start is not None:
                scenario["start"] = _time(start.strip()) if isinstance(start, str) else _iso_time(start)
                if scenario["start"] is None:
                    raise ValueError(f"manifest scenario key start must be a time, found {start.strip()!r}")
            events = scenario.get("events", [])
            if not isinstance(events, list):
                raise ValueError(f"manifest scenario key events must be a list, found {reprlib.repr(events)}")
            for event in events:
                _check_section("manifest scenario event", event, SwellEvent)
        m = cls(out_dir=base / raw.pop("out_dir"))
        for key, value in raw.items():
            if key.endswith("_file") and value is not None:
                value = base / value
            if key == "issue_files":
                value = [base / v for v in value]
            setattr(m, key, value)
        try:  # the top-level rules check leaves to code, spelled as _check_section spells the others
            m.check()
        except ValueError as exc:
            raise ValueError(f"manifest key {exc}") from exc
        try:  # the scenario's rule across fields, which _check_section leaves to the scenario
            if m.scenario:
                m.swell_scenario()
        except ValueError as exc:
            raise ValueError(f"manifest scenario key {exc}") from exc
        return m

    def check(self) -> None:
        """Refuse a top-level value no stage runs with, by the horizons' list
        rules and the fields' own; load calls this, and each command after its
        overrides."""
        if not isinstance(self.horizons, list) or not all(
            isinstance(h, int) and not isinstance(h, bool) and h >= 0 for h in self.horizons
        ):
            raise ValueError(f"horizons must be a list of nonnegative integers, found {reprlib.repr(self.horizons)}")
        if not self.horizons:
            raise ValueError(f"horizons must not be empty, found {self.horizons!r}")
        if len(set(self.horizons)) < len(self.horizons):
            raise ValueError(f"horizons must not repeat a horizon, found {self.horizons!r}")
        _check_settings(RunManifest, vars(self))
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
