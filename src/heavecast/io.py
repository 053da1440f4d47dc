"""Delimited-text file formats and the run manifest.

All artefacts are plain comma-separated text with a header line so any
plotting tool can consume them. Writes are atomic: a file is written as a
temp file in the target directory, then renamed.

This module holds what every stage reads or writes: the run manifest, the
horizon datasets, posterior samples, predictions and scores, and the table
helpers. The campaign's own files (RAO, spectra, heave records and
forecast issues), which only simulate, build and response touch, are read
and written by campaign; their readers and writers still resolve as
attributes of this module, importing campaign on first use (PEP 562), so
fit, predict, score and diagnose never load it.

A reader imports the type it builds, and write_predictions the predictive
helpers, when it runs, so a stage loads only the modules behind the files it
reads or writes. Likewise the run manifest is read with json when it is a
JSON document, and PyYAML is imported only for one that is not.
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
import tempfile
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import ErrorInjection, SamplerConfig, SwellEvent, SwellScenario
from .horizon import DEFAULT_HORIZONS, HorizonDataset

if TYPE_CHECKING:
    from .model import PosteriorSamples, PredictiveDraws
    from .scoring import ScoreReport

# the readers and writers campaign defines, resolved here on first use
_CAMPAIGN_NAMES = (
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
)

__all__ = [
    "RunManifest",
    "atomic_write_text",
    *_CAMPAIGN_NAMES,
    "read_horizon_dataset",
    "write_horizon_dataset",
    "read_posterior_samples",
    "write_posterior_samples",
    "write_predictions",
    "write_score_reports",
]


def __getattr__(name: str):
    if name not in _CAMPAIGN_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import campaign

    value = getattr(campaign, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


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


@contextlib.contextmanager
def _naming(where):
    """Give a ValueError raised in the block the message f"{where}: {message}"."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


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


def _write_table(path: Path, columns: list[str], row_format: str, rows) -> None:
    """The delimited-text file every table is: a header line of the columns,
    then row_format % row for each row (a tuple), written atomically."""
    line = row_format + "\n"
    atomic_write_text(path, _readable(path, "".join([", ".join(columns) + "\n", *map(line.__mod__, rows)])))


def _parse_times(cells, where, what: str) -> np.ndarray:
    """One column of ISO-8601 UTC cells (optional trailing Z, blanks around
    ignored) as datetime64[s]; each distinct cell is parsed once, so a column
    that repeats a few spellings, as an issue-time column does, costs little.

    numpy alone also reads `now` and `today`, in any case, as the wall-clock
    time, and `NaT` and empty cells as NaT. A column with such a cell, or one
    numpy cannot parse, raises a ValueError naming where, the file, and what,
    the column, and the first such cell.
    """
    cells = list(cells)
    distinct = list(dict.fromkeys(cells))
    spellings = [c.strip() for c in distinct]
    with _naming(f"{where}: {what}"):
        times = np.array([c.removesuffix("Z") for c in spellings], dtype="datetime64[s]")
    # an ISO-8601 cell starts with a digit or a sign, both of which sort
    # before every letter, so the largest cell starts with a letter if any does
    if times.size and (max(spellings)[:1] > "9" or np.isnat(times).any()):
        bad = next(c for c, t in zip(spellings, np.isnat(times).tolist()) if t or c[:1] > "9")
        raise ValueError(f"{where}: {what} is not a time ({bad!r})")
    if len(distinct) == len(cells):
        return times
    position = {c: k for k, c in enumerate(distinct)}
    return times[np.fromiter(map(position.__getitem__, cells), dtype=np.intp, count=len(cells))]


def _floats(cells, where, what: str) -> np.ndarray:
    """A column of number cells as floats; a bad cell raises a ValueError naming where, the file, and what."""
    with _naming(f"{where}: {what}"):
        return np.array(cells, dtype=float)


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


_DATASET_HEADER = ["valid_time_utc", "x_m", "y_m", "issue_time_utc", "post_gap_flag"]


def read_horizon_dataset(path: Path, horizon: int) -> HorizonDataset:
    """The dataset write_horizon_dataset wrote.

    HorizonDataset recomputes post_gap from the valid times, so the
    post_gap_flag column is only checked: each cell must be 0 or 1 and
    agree with the recomputed flag, or a ValueError names the file and row.
    """
    valid_col, x_col, y_col, issue_col, flag_col = _read_columns(path, _DATASET_HEADER)
    valid_times = _parse_times(valid_col, path, "valid_time_utc")
    issue_times = _parse_times(issue_col, path, "issue_time_utc")
    x, y = _floats(x_col, path, "x_m"), _floats(y_col, path, "y_m")
    with _naming(path):
        ds = HorizonDataset(horizon=horizon, valid_times=valid_times, x=x, y=y, issue_times=issue_times)
    expected = np.where(ds.post_gap, "1", "0").tolist()
    if flag_col != expected:
        row, cell, flag = next((k, c, e) for k, (c, e) in enumerate(zip(flag_col, expected), 1) if c != e)
        if cell not in ("0", "1"):
            raise ValueError(f"{path}, row {row}: post_gap_flag must be 0 or 1, found {cell!r}")
        raise ValueError(f"{path}, row {row}: post_gap_flag is {cell}, but the valid times make it {flag}")
    return ds


def write_horizon_dataset(path: Path, ds: HorizonDataset) -> None:
    rows = zip(
        np.datetime_as_string(ds.valid_times).tolist(),
        ds.x.tolist(),
        ds.y.tolist(),
        np.datetime_as_string(ds.issue_times).tolist(),
        ds.post_gap.astype(int).tolist(),
    )
    _write_table(path, _DATASET_HEADER, "%s, %.10g, %.10g, %s, %d", rows)


# -- posterior samples -------------------------------------------------------

def write_posterior_samples(path: Path, samples: PosteriorSamples) -> None:
    """Draw matrix as delimited text plus a JSON diagnostics sidecar.

    The sidecar holds per-parameter R-hat and ESS, the sigma-step acceptance
    rate and the sampler's deterministic facts: burn-in and retained sweeps,
    rejections per truncated block and the smallest ESS. No wall-clock value
    goes in, so a fixed manifest and seed reproduce it bit for bit.
    """
    rows = ((cid, *values) for cid, values in zip(samples.chain_ids.tolist(), samples.draws.tolist()))
    _write_table(path, ["chain", *samples.param_names], "%d" + ", %.12g" * samples.draws.shape[1], rows)
    sidecar = {
        "acceptance_rate": samples.acceptance_rate,
        "parameters": samples.diagnostics,
        "sampler": samples.sampler_facts,
    }
    atomic_write_text(Path(str(path) + ".diag.json"), _json_text(sidecar) + "\n")


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
    from .model import PosteriorSamples

    header, columns = _read_table(path)
    if header[0] != "chain":
        raise ValueError(f"{path}: expected a 'chain' column first")
    if not columns[0]:
        raise ValueError(f"{path}: no posterior draws")
    names = tuple(header[1:])
    with _naming(path):
        chain_ids = [int(c) for c in columns[0]]
        # (n_draws, n_params), row-major like the draws fit wrote
        draws = np.array(columns[1:], dtype=float).reshape(len(names), len(chain_ids)).T.copy()
    sidecar_path = Path(str(path) + ".diag.json")
    with _naming(sidecar_path):
        meta = json.loads(sidecar_path.read_text()) if sidecar_path.exists() else {}
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
    rows = ((vt, *row) for vt, row in zip(pred.valid_times, table.tolist()))
    _write_table(path, cols, "%s" + ", %.10g" * table.shape[1], rows)


def write_score_reports(path: Path, reports: list[ScoreReport]) -> None:
    rows = ((r.model_label, r.horizon, r.rmse, r.crps_mean, r.n) for r in reports)
    _write_table(path, ["model", "horizon_h", "rmse_m", "crps_m", "n"], "%s, %s, %.3f, %.3f, %s", rows)


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

_ISO_TIME = re.compile(r"\d{4}-\d\d-\d\d(?:[T ]\d\d(?::\d\d(?::\d\d(?:\.\d+)?)?)?)?Z?")

# where a scenario starts when its manifest names no start
_DEFAULT_START = np.datetime64("2024-06-01T00:00:00", "s")


def _check_section(what: str, raw, cls, skip=frozenset(), extra=None) -> None:
    """A manifest mapping must set every field of cls without a default and
    may set the others, less skip, and the keys of extra, which maps each to
    its type annotation; int, float, dict, str and path values must have
    that type."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a mapping, found {reprlib.repr(raw)}")
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
            raise ValueError(f"{what} key {key} must be {typed[1]}, found {reprlib.repr(value)}")


def _iso_time(value) -> np.datetime64:
    """An ISO-8601 string (date, optional time, optional Z) or a YAML
    timestamp, as a UTC datetime64[s]."""
    if isinstance(value, datetime.datetime) and value.tzinfo is not None:
        value = value.astimezone(datetime.timezone.utc).replace(tzinfo=None)
    if isinstance(value, str) and not _ISO_TIME.fullmatch(value):
        raise ValueError(f"{value!r} is not an ISO-8601 time")
    return np.datetime64(value.removesuffix("Z") if isinstance(value, str) else value, "s")


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
            # simulate defaults the start time; the seeds come from the manifest seed
            scenario = raw["scenario"]
            _check_section(
                "manifest scenario", scenario, SwellScenario,
                skip={"seed", "start"}, extra={"start": "str | date", "measurement_noise": "float"},
            )
            if "start" in scenario:
                with _naming("manifest scenario key start"):
                    scenario["start"] = _iso_time(scenario["start"])
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
        m = cls(out_dir=base / raw.pop("out_dir"))
        for key, value in raw.items():
            if key.endswith("_file") and value is not None:
                value = base / value
            if key == "issue_files":
                value = [base / v for v in value]
            setattr(m, key, value)
        m.check()
        return m

    def check(self) -> None:
        """Refuse a value no stage runs with; load calls this, and each command after its overrides."""
        if not isinstance(self.horizons, list) or not all(
            isinstance(h, int) and not isinstance(h, bool) and h >= 0 for h in self.horizons
        ):
            raise ValueError(f"horizons must be a list of nonnegative integers, found {reprlib.repr(self.horizons)}")
        if len(set(self.horizons)) < len(self.horizons):
            raise ValueError(f"horizons must not repeat a horizon, found {self.horizons!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, found {self.seed!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"manifest key train_fraction must lie strictly inside (0, 1), found {self.train_fraction!r}"
            )
        if self.model_kind not in ("basic", "hybrid"):
            raise ValueError("model_kind must be 'basic' or 'hybrid'")
        # the settings check their own values, so every stage refuses what simulate or fit would
        SamplerConfig(**self.sampler)
        self.error_injection()
        if self.scenario:
            self.swell_scenario()

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
