"""Delimited-text file formats and the run manifest.

All artefacts are plain comma-separated text with a header line so any
plotting tool can consume them. Frequencies are stored in files as Hz and
directions in degrees (the operational product conventions); everything is
converted to rad/s and radians on ingestion. Writes are atomic: temp file in
the target directory, then rename.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .datasets import ForecastIssue, HorizonDataset
from .model import PosteriorSamples, predictive_summaries
from .motion import HeaveRecord, RawMotionSeries
from .sampler import SamplerConfig
from .scoring import ScoreReport
from .spectral import DirectionalWaveSpectrum, RaoCurve, midpoint_widths
from .synthetic import ErrorInjection, SwellEvent, SwellScenario

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
    "write_forecast_issue",
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


def _parse_times(cells) -> np.ndarray:
    """One column of ISO-8601 UTC cells (optional trailing Z) as datetime64[s]."""
    return np.array([c.removesuffix("Z") for c in cells], dtype="datetime64[s]")


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header cells and data rows; every row must have the header's cell count."""
    lines = [(n, ln) for n, ln in enumerate(Path(path).read_text().splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in lines[0][1].split(",")]
    rows = []
    for n, ln in lines[1:]:
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(header):
            raise ValueError(f"{path}, line {n}: expected {len(header)} cells, found {len(cells)}")
        rows.append(cells)
    return header, rows


def _read_rows(path: Path, expected_header: list[str]) -> list[list[str]]:
    header, rows = _read_table(path)
    if header != expected_header:
        raise ValueError(f"{path}: expected header {expected_header}, found {header}")
    return rows


# -- RAO ---------------------------------------------------------------------

def read_rao(path: Path, label: str | None = None) -> RaoCurve:
    rows = _read_rows(path, ["freq_hz", "amplitude"])
    freqs_hz = np.array([float(r[0]) for r in rows])
    amps = np.array([float(r[1]) for r in rows])
    return RaoCurve(freqs=TWO_PI * freqs_hz, amplitudes=amps, label=label or Path(path).stem)


def write_rao(path: Path, rao: RaoCurve) -> None:
    lines = ["freq_hz, amplitude"]
    for w, a in zip(rao.freqs, rao.amplitudes):
        lines.append(f"{_fmt(w / TWO_PI)}, {_fmt(a)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- directional spectra -----------------------------------------------------

def read_spectra(path: Path) -> list[DirectionalWaveSpectrum]:
    """Long-format spectrum file covering one or more timestamps.

    The (freq, dir) grid must be identical for every timestamp; the density
    column is m^2 s per degree of direction (per-Hz, per-deg) and is
    converted to the per-rad/s, per-rad convention used internally.
    """
    rows = _read_rows(path, ["timestamp_utc", "freq_hz", "dir_deg", "density_m2_s_per_deg"])
    if not rows:
        raise ValueError(f"{path}: no spectrum rows")
    by_time: dict[np.datetime64, list[tuple[float, float, float]]] = {}
    for stamp, r in zip(_parse_times(r[0] for r in rows), rows):
        by_time.setdefault(stamp, []).append((float(r[1]), float(r[2]), float(r[3])))

    spectra = []
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
        # per-Hz per-deg  ->  per-(rad/s) per-rad
        density *= (1.0 / TWO_PI) * (180.0 / np.pi)
        spectra.append(
            DirectionalWaveSpectrum(
                timestamp=stamp,
                freqs=TWO_PI * freqs_hz,
                dirs=np.deg2rad(dirs_deg),
                density=density,
            )
        )
    return spectra


def write_spectra(path: Path, spectra: list[DirectionalWaveSpectrum]) -> None:
    lines = ["timestamp_utc, freq_hz, dir_deg, density_m2_s_per_deg"]
    for spec in spectra:
        freqs_hz = spec.freqs / TWO_PI
        dirs_deg = np.rad2deg(spec.dirs)
        density = spec.density * TWO_PI * (np.pi / 180.0)
        for i, f in enumerate(freqs_hz):
            for j, d in enumerate(dirs_deg):
                lines.append(f"{spec.timestamp}, {_fmt(f)}, {_fmt(d)}, {_fmt(density[i, j])}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- motion measurements -----------------------------------------------------

def read_motion_series(path: Path) -> RawMotionSeries:
    """Uniformly sampled heave displacement, `timestamp_utc, heave_m`."""
    rows = _read_rows(path, ["timestamp_utc", "heave_m"])
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two samples")
    times = _parse_times(r[0] for r in rows).astype("datetime64[ms]")
    steps = np.diff(times) / np.timedelta64(1, "s")
    if np.ptp(steps) > 1e-9 or steps[0] <= 0:
        raise ValueError(f"{path}: samples must be uniform in time")
    values = np.array([float(r[1]) for r in rows])
    return RawMotionSeries(start=times[0], sample_rate=1.0 / float(steps[0]), values=values)


def read_qa_events(path: Path) -> list[tuple[tuple[np.datetime64, np.datetime64], str]]:
    rows = _read_rows(path, ["start_utc", "end_utc", "reason"])
    starts = _parse_times(r[0] for r in rows)
    ends = _parse_times(r[1] for r in rows)
    return [((a, b), r[2]) for a, b, r in zip(starts, ends, rows)]


def read_heave_records(path: Path) -> list[HeaveRecord]:
    rows = _read_rows(path, ["timestamp_utc", "sig_heave_m", "valid"])
    out = []
    for stamp, r in zip(_parse_times(r[0] for r in rows), rows):
        valid = r[2].lower() == "true"
        sig = float(r[1]) if valid else np.nan
        out.append(HeaveRecord(timestamp=stamp, sig_heave=sig, valid=valid))
    return out


def write_heave_records(path: Path, records: list[HeaveRecord]) -> None:
    lines = ["timestamp_utc, sig_heave_m, valid"]
    for rec in records:
        sig = _fmt(rec.sig_heave) if rec.valid else "nan"
        lines.append(f"{rec.timestamp}, {sig}, {str(rec.valid).lower()}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- forecast issues and horizon datasets ------------------------------------

def read_forecast_issue(path: Path) -> ForecastIssue:
    rows = _read_rows(path, ["issue_time_utc", "valid_time_utc", "sig_heave_m"])
    if not rows:
        raise ValueError(f"{path}: empty forecast issue")
    issue_col, valid_col, value_col = zip(*rows)
    issue_times = _parse_times(issue_col)
    issue_time = issue_times[0]
    if np.any(issue_times != issue_time):
        raise ValueError(f"{path}: multiple issue times in one file")
    leads = ((_parse_times(valid_col) - issue_time) / np.timedelta64(1, "h")).astype(int)
    values = np.array([float(v) for v in value_col])
    return ForecastIssue(issue_time=issue_time, horizon_hours=leads, values=values)


def write_forecast_issue(path: Path, issue: ForecastIssue) -> None:
    valid = np.datetime_as_string(issue.issue_time + issue.horizon_hours * np.timedelta64(1, "h"))
    lines = ["issue_time_utc, valid_time_utc, sig_heave_m"]
    lines += [f"{issue.issue_time}, {vt}, {v:.10g}" for vt, v in zip(valid, issue.values.tolist())]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_horizon_dataset(path: Path, horizon: int) -> HorizonDataset:
    rows = _read_rows(path, ["valid_time_utc", "x_m", "y_m", "issue_time_utc", "post_gap_flag"])
    valid_col, x_col, y_col, issue_col, _ = zip(*rows) if rows else ((),) * 5
    return HorizonDataset(
        horizon=horizon,
        valid_times=_parse_times(valid_col),
        x=np.array([float(v) for v in x_col]),
        y=np.array([float(v) for v in y_col]),
        issue_times=_parse_times(issue_col),
    )


def write_horizon_dataset(path: Path, ds: HorizonDataset) -> None:
    lines = ["valid_time_utc, x_m, y_m, issue_time_utc, post_gap_flag"]
    for i in range(len(ds)):
        lines.append(
            f"{ds.valid_times[i]}, {_fmt(ds.x[i])}, {_fmt(ds.y[i])}, "
            f"{ds.issue_times[i]}, {int(ds.post_gap[i])}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- posterior samples -------------------------------------------------------

def write_posterior_samples(path: Path, samples: PosteriorSamples) -> None:
    """Draw matrix as delimited text plus a JSON diagnostics sidecar."""
    lines = ["chain, " + ", ".join(samples.param_names)]
    for cid, row in zip(samples.chain_ids, samples.draws):
        lines.append(f"{int(cid)}, " + ", ".join(f"{v:.12g}" for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")
    sidecar = {
        "acceptance_rate": samples.acceptance_rate,
        "parameters": samples.diagnostics,
    }
    atomic_write_text(Path(str(path) + ".diag.json"), json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def read_posterior_samples(path: Path) -> PosteriorSamples:
    header, rows = _read_table(path)
    if header[0] != "chain":
        raise ValueError(f"{path}: expected a 'chain' column first")
    if not rows:
        raise ValueError(f"{path}: no posterior draws")
    names = tuple(header[1:])
    chain_ids = [int(r[0]) for r in rows]
    draws = [[float(c) for c in r[1:]] for r in rows]
    sidecar_path = Path(str(path) + ".diag.json")
    diagnostics, acceptance = {}, float("nan")
    if sidecar_path.exists():
        meta = json.loads(sidecar_path.read_text())
        diagnostics = meta.get("parameters", {})
        acceptance = meta.get("acceptance_rate", float("nan"))
    return PosteriorSamples(
        draws=np.array(draws),
        param_names=names,
        chain_ids=np.array(chain_ids),
        diagnostics=diagnostics,
        acceptance_rate=acceptance,
    )


# -- predictions and scores --------------------------------------------------

def write_predictions(path: Path, dists) -> None:
    """Predictive summaries per valid time: mean and the quantile levels."""
    table = predictive_summaries(dists)
    levels = dists[0].levels
    cols = ["valid_time_utc", "mean_m"] + [f"p{round(lv * 100):02d}_m" for lv in levels]
    lines = [", ".join(cols)]
    for d, row in zip(dists, table.tolist()):
        lines.append(", ".join([str(d.valid_time)] + [_fmt(v) for v in row]))
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
}


def _check_section(what: str, raw, cls, skip=frozenset(), extra=frozenset()) -> None:
    """A manifest mapping must set every field of cls without a default and
    may set the others, less skip and plus extra; int, float and dict fields
    must hold values of that type."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a mapping, found {raw!r}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in skip}
    unknown = set(raw) - set(fields) - set(extra)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [
        name for name, f in fields.items()
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING and name not in raw
    ]
    if missing:
        raise ValueError(f"{what} must set {missing}")
    for key, value in raw.items():
        typed = _FIELD_TYPES.get(getattr(fields.get(key), "type", None))
        if typed and (isinstance(value, bool) or not isinstance(value, typed[0])):
            raise ValueError(f"{what} key {key} must be {typed[1]}, found {value!r}")


@dataclass
class RunManifest:
    """Paths and settings steering one end-to-end run."""

    out_dir: Path
    rao_file: Path | None = None
    spectra_file: Path | None = None
    issue_files: list[Path] = field(default_factory=list)
    measurements_file: Path | None = None
    qa_events_file: Path | None = None
    horizons: list[int] = field(default_factory=lambda: [0, 6, 12, 24, 48, 72, 96])
    model_kind: str = "hybrid"
    seed: int = 0
    train_fraction: float = 0.8
    sampler: dict = field(default_factory=dict)
    scenario: dict = field(default_factory=dict)
    injection: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        raw = yaml.safe_load(Path(path).read_text()) or {}
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
                skip={"seed", "start"}, extra={"start", "measurement_noise"},
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
        return m

    def require(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if value is None or (isinstance(value, list) and not value):
                raise ValueError(f"manifest is missing {name}")
            paths = value if isinstance(value, list) else [value]
            for p in paths:
                if isinstance(p, Path) and not p.exists():
                    raise FileNotFoundError(f"{name}: {p} does not exist")
