"""Command-line pipeline: simulate -> build -> fit -> predict -> score.

Every command reads a YAML run manifest, takes flag overrides, writes plain
delimited text into the manifest's output directory and is idempotent for a
fixed manifest and seed. Exit codes: 0 success, 2 validation error,
3 sampler or numerical failure.

Start-up loads only the standard library and click: each command and helper
imports the heavecast modules it calls (and with them numpy and PyYAML) at
the top of its body, so `--help` parses no more than it prints and a stage
loads only the modules its own work needs.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

if TYPE_CHECKING:
    from . import config, datasets, io, model

VALIDATION_EXIT = 2
NUMERICAL_EXIT = 3


def _numerical_errors() -> tuple[type[BaseException], ...]:
    """The exception types that exit NUMERICAL_EXIT.

    SamplerError is looked up only once an exception is being handled: it is
    defined in sampler, which only fit imports, so when sampler is not loaded
    nothing can have raised it.
    """
    sampler = sys.modules.get(f"{__package__}.sampler")
    return (ZeroDivisionError, FloatingPointError) + ((sampler.SamplerError,) if sampler else ())


def _failsoft(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, OSError, KeyError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(VALIDATION_EXIT)
        except _numerical_errors() as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(NUMERICAL_EXIT)

    return wrapper


def _common(fn):
    fn = click.option("--manifest", "-m", required=True, type=click.Path(exists=True, dir_okay=False))(fn)
    fn = click.option("--horizon", "-H", "horizons", multiple=True, type=int, help="override manifest horizons")(fn)
    fn = click.option("--model", "model_kind", type=click.Choice(["basic", "hybrid"]), default=None)(fn)
    fn = click.option("--seed", type=int, default=None)(fn)
    fn = click.option(
        "--out", type=click.Path(file_okay=False), default=None,
        help="override output directory (relative to the current directory, not the manifest)",
    )(fn)
    return fn


def _load(manifest, horizons, model_kind, seed, out) -> io.RunManifest:
    from . import io

    m = io.RunManifest.load(Path(manifest))
    if horizons:
        m.horizons = sorted(set(horizons))
    if model_kind:
        m.model_kind = model_kind
    if seed is not None:
        m.seed = seed
    if out:
        m.out_dir = Path(out)
    m.sampler = dict(m.sampler)
    m.out_dir.mkdir(parents=True, exist_ok=True)
    return m


def _sampler_config(m: io.RunManifest) -> config.SamplerConfig:
    from . import config

    return config.SamplerConfig(**m.sampler)


def _model_spec(m: io.RunManifest, horizon: int) -> model.ModelSpec:
    from . import model

    return model.ModelSpec(kind=m.model_kind, horizon=horizon)


def _dataset_path(m: io.RunManifest, h: int) -> Path:
    return m.out_dir / f"dataset_h{h:03d}.csv"


def _samples_path(m: io.RunManifest, h: int) -> Path:
    return m.out_dir / f"samples_{m.model_kind}_h{h:03d}.csv"


def _split(m: io.RunManifest, h: int) -> tuple[datasets.HorizonDataset, datasets.HorizonDataset]:
    """The horizon-h dataset, split chronologically into (train, test)."""
    from . import datasets, io

    ds = io.read_horizon_dataset(_dataset_path(m, h), h)
    return datasets.chrono_split(ds, m.train_fraction)


def _read_samples(m: io.RunManifest, h: int, spec: model.ModelSpec) -> model.PosteriorSamples:
    """The horizon-h posterior samples, checked to be spec's parameters inside the prior support."""
    from . import io, model

    path = _samples_path(m, h)
    samples = io.read_posterior_samples(path)
    try:
        model.check_samples(samples, spec)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return samples


def _test_predictive(m: io.RunManifest, h: int) -> tuple[datasets.HorizonDataset, model.PredictiveDraws]:
    """The horizon-h test split and its posterior-predictive draws.

    predict and score both call this, so they draw the same y* values.
    """
    from . import model

    train, test = _split(m, h)
    spec = _model_spec(m, h)
    samples = _read_samples(m, h, spec)
    pred = model.posterior_predictive(samples, test, spec, seed=m.seed + 1000 + h, context=train)
    return test, pred


@click.group()
def main():
    """Probabilistic heave-response forecasting pipeline."""


@main.command()
@_common
@_failsoft
def response(**kwargs):
    """Physics response statistics from a spectra file and an RAO file."""
    import numpy as np

    from . import io, spectral

    m = _load(**kwargs)
    m.require("rao_file", "spectra_file")
    rao = io.read_rao(m.rao_file)
    spectra = io.read_spectra(m.spectra_file)
    m0, m2 = spectral.response_moments(spectra, rao)
    rows = zip(np.datetime_as_string(spectra.times).tolist(), m0.tolist(), m2.tolist(), (2.0 * np.sqrt(m0)).tolist())
    lines = ["timestamp_utc, m0_m2, m2_m2_per_s2, sig_heave_m"]
    lines += [f"{t}, {a:.10g}, {b:.10g}, {sig:.10g}" for t, a, b, sig in rows]
    io.atomic_write_text(m.out_dir / "response.csv", "\n".join(lines) + "\n")
    click.echo(f"wrote {m.out_dir / 'response.csv'} ({len(spectra)} timestamps)")


@main.command()
@_common
@_failsoft
def build(**kwargs):
    """Synthesise per-horizon datasets from forecast issues and measurements."""
    from . import datasets, io

    m = _load(**kwargs)
    if not m.issue_files:
        m.issue_files = sorted((m.out_dir / "issues").glob("issue_*.csv"))
    if m.measurements_file is None and (m.out_dir / "measurements.csv").exists():
        m.measurements_file = m.out_dir / "measurements.csv"
    m.require("issue_files", "measurements_file")
    issues = [io.read_forecast_issue(p) for p in m.issue_files]
    measurements = io.read_heave_records(m.measurements_file)

    for h in m.horizons:
        series = datasets.synthesize_horizon_series(issues, h)
        ds = datasets.align(series, measurements, horizon=h)
        io.write_horizon_dataset(_dataset_path(m, h), ds)
        click.echo(f"h={h}: {len(ds)} aligned rows -> {_dataset_path(m, h)}")


@main.command()
@_common
@_failsoft
def fit(**kwargs):
    """Fit the adjustment model per horizon on the training split."""
    from . import io, sampler

    m = _load(**kwargs)
    cfg = _sampler_config(m)

    for h in m.horizons:
        train, _ = _split(m, h)
        samples = sampler.fit(train, _model_spec(m, h), cfg, seed=m.seed + h)
        io.write_posterior_samples(_samples_path(m, h), samples)
        worst = max(v["rhat"] for v in samples.diagnostics.values())
        click.echo(f"h={h}: {len(samples)} draws, max rhat {worst:.3f} -> {_samples_path(m, h)}")


@main.command()
@_common
@_failsoft
def predict(**kwargs):
    """Posterior-predictive quantiles for the test split of each horizon."""
    from . import io

    m = _load(**kwargs)
    for h in m.horizons:
        _, pred = _test_predictive(m, h)
        path = m.out_dir / f"predictions_{m.model_kind}_h{h:03d}.csv"
        io.write_predictions(path, pred)
        click.echo(f"h={h}: {len(pred)} predictive rows -> {path}")
        del pred  # before the next horizon's draws are made


@main.command()
@_common
@_failsoft
def score(**kwargs):
    """Score the fitted model against the raw physics forecast.

    Each horizon is scored as soon as its draws exist, and the draws are
    released before the next horizon's are made; the reports are then put in
    label-major order, every horizon of one model before the next model.
    """
    from . import io, scoring

    m = _load(**kwargs)
    labels = [f"{m.model_kind} adjustment", "raw physics"]
    reports = []
    for h in m.horizons:
        test, pred = _test_predictive(m, h)
        models = {labels[0]: {h: pred.draws.T}, labels[1]: {h: test.x}}
        reports += scoring.score_table(models, {h: test.y}, [h])
        del pred, models
    reports.sort(key=lambda r: labels.index(r.model_label))
    io.write_score_reports(m.out_dir / "scores.csv", reports)
    table = scoring.format_score_table(reports)
    io.atomic_write_text(m.out_dir / "scores.txt", table + "\n")
    click.echo(table)


@main.command()
@_common
@click.option("--max-lag", type=int, default=20, show_default=True)
@click.option("--bins", type=int, default=10, show_default=True)
@_failsoft
def diagnose(max_lag, bins, **kwargs):
    """Residual PACF and heteroskedasticity tables per horizon."""
    import numpy as np

    from . import diagnostics, io, model

    m = _load(**kwargs)
    for h in m.horizons:
        train, _ = _split(m, h)
        spec = _model_spec(m, h)
        samples = _read_samples(m, h, spec)
        at_mean = np.mean(samples.draws, axis=0)

        eps = model.residuals(at_mean, train)
        series = eps if spec.kind == "basic" else diagnostics.standardized_residuals(at_mean, train, spec)
        # both tables are computed before either is written, so a bad option writes nothing
        pac = diagnostics.pacf(series, max_lag)
        table = diagnostics.heteroskedasticity_summary(eps, train.x, bins, sigma_map=model.map_sigma(samples))
        lines = ["lag, coefficient, band"]
        for lag, c in zip(pac.lags, pac.coefficients):
            lines.append(f"{lag}, {c:.6f}, {pac.confidence_band:.6f}")
        io.atomic_write_text(m.out_dir / f"pacf_{m.model_kind}_h{h:03d}.csv", "\n".join(lines) + "\n")

        lines = ["x_bin_center_m, mean_abs_residual_m, count, sigma_map"]
        for row in table:
            lines.append(
                f"{row['x_bin_center']:.6f}, {row['mean_abs_residual']:.6f}, "
                f"{row['count']}, {row['sigma_map']:.6f}"
            )
        io.atomic_write_text(m.out_dir / f"hetero_{m.model_kind}_h{h:03d}.csv", "\n".join(lines) + "\n")
        click.echo(f"h={h}: diagnostics written")


@main.command()
@_common
@click.option("--spectra-hours", type=int, default=0, show_default=True,
              help="also write the first N hours of true spectra (large files)")
@_failsoft
def simulate(spectra_hours, **kwargs):
    """Generate a synthetic campaign: RAO, measurements and forecast issues."""
    import numpy as np

    from . import config, io, motion, synthetic

    m = _load(**kwargs)
    scn = _scenario_from(m)
    inj = config.ErrorInjection(seed=m.seed + 17, **m.injection)
    spectra = synthetic.generate_spectra(scn)
    rao = synthetic.reference_rao()
    times, sig = synthetic.true_response_series(spectra, rao)

    meas_noise = float(m.scenario.get("measurement_noise", 0.0))
    rng = np.random.default_rng(m.seed + 29)
    y = np.maximum(sig + meas_noise * rng.standard_normal(sig.size), 0.0)
    records = [motion.HeaveRecord(timestamp=t, sig_heave=v) for t, v in zip(times, y)]

    issues = synthetic.generate_forecast_issues(times, sig, inj)
    issue_dir = m.out_dir / "issues"
    # simulate owns issues/: build reads every issue file there, so none may
    # survive from an earlier campaign
    for stale in issue_dir.glob("issue_*.csv"):
        stale.unlink()
    for i, issue in enumerate(issues):
        io.write_forecast_issue(issue_dir / f"issue_{i:04d}.csv", issue)
    io.write_rao(m.out_dir / "rao.csv", rao)
    io.write_heave_records(m.out_dir / "measurements.csv", records)
    if spectra_hours > 0:
        io.write_spectra(m.out_dir / "spectra.csv", spectra[:spectra_hours])
    click.echo(f"simulated {len(spectra)} hours, {len(issues)} forecast issues -> {m.out_dir}")


def _scenario_from(m: io.RunManifest) -> config.SwellScenario:
    import numpy as np

    from . import config

    raw = dict(m.scenario)
    raw.pop("measurement_noise", None)
    events = tuple(config.SwellEvent(**e) for e in raw.pop("events", []))
    raw.setdefault("start", np.datetime64("2024-06-01T00:00:00", "s"))
    return config.SwellScenario(events=events, seed=m.seed, **raw)


if __name__ == "__main__":
    main()
