"""Command-line pipeline: simulate -> build -> fit -> predict -> score ->
diagnose, and response, the physics response of a spectra file and an RAO.

Every command reads a run manifest (JSON or YAML), takes flag overrides,
writes plain delimited text into the manifest's output directory and is
idempotent for a fixed manifest and seed. Exit codes: 0 success, 2
validation or usage error (an unknown command or option, a missing or
malformed value), 3 sampler or numerical failure.

The command layer is argparse, one parser per command, and start-up loads
nothing outside the standard library: each command and helper imports the
heavecast modules it calls (and with them numpy, and PyYAML for a manifest
that is not JSON) at the top of its body, so `--help` parses no more than
it prints and a stage loads only the modules its own work needs. Only the
command that runs gets its options built.
"""

from __future__ import annotations

import argparse
import errno
import functools
import gc
import sys
import textwrap
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

if TYPE_CHECKING:
    from collections.abc import Callable

    from . import horizon, io, model

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
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(VALIDATION_EXIT)
        except _numerical_errors() as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            sys.exit(NUMERICAL_EXIT)

    return wrapper


def _option(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """One option of a command: the arguments of ArgumentParser.add_argument."""
    return flags, kwargs


# options every command takes
_COMMON = (
    _option("-m", "--manifest", required=True, metavar="FILE"),
    _option("-H", "--horizon", dest="horizons", action="append", type=int, metavar="HOURS",
            help="override manifest horizons"),
    _option("--model", dest="model_kind", choices=["basic", "hybrid"]),
    _option("--seed", type=int),
    _option("--out", metavar="DIR",
            help="override output directory (relative to the current directory, not the manifest)"),
)

# name -> (command, its options), filled by @_command
_COMMANDS: dict[str, tuple] = {}


def _command(*options: tuple[tuple[str, ...], dict]):
    """Make fn the command named after it, with the common options and options.

    The command receives every option as a keyword argument, and its
    ValueError, OSError and KeyError exit VALIDATION_EXIT (see _failsoft).
    """

    def register(fn):
        fn = _failsoft(fn)
        _COMMANDS[fn.__name__] = (fn, _COMMON + options)
        return fn

    return register


# every parser: no option prefix accepted, help only as --help, descriptions kept as written
_PARSER = dict(add_help=False, allow_abbrev=False, formatter_class=argparse.RawDescriptionHelpFormatter)


def _parser(prog: str, chosen: str | None) -> argparse.ArgumentParser:
    """The program's parser, with one subparser per command.

    Only the chosen command's subparser gets its description and options:
    argparse hands the arguments after the command name to that subparser
    alone, so the others need no more than their name and summary, which
    the program's help lists.
    """
    parser = argparse.ArgumentParser(prog=prog, description=main.__doc__.partition("\n")[0], **_PARSER)
    parser.add_argument("--help", action="help", help="show this message and exit")
    commands = parser.add_subparsers(title="commands", dest="command", metavar="COMMAND", required=True)
    for name, (fn, options) in sorted(_COMMANDS.items()):
        summary, newline, details = fn.__doc__.partition("\n")
        if name != chosen:
            commands.add_parser(name, help=summary, **_PARSER)
            continue
        description = summary + newline + textwrap.dedent(details)
        sub = commands.add_parser(name, help=summary, description=description, **_PARSER)
        sub.add_argument("--help", action="help", help="show this message and exit")
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
    return parser


def _load(manifest, horizons, model_kind, seed, out) -> io.RunManifest:
    """The manifest with the command's overrides, checked.

    A manifest path that is missing or a directory, and an --out that is a
    file, raise OSError, which exits VALIDATION_EXIT. The output directory
    is not made here but by the first file written into it, so a command
    that refuses its manifest or its inputs before it writes leaves nothing.
    """
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
    m.check()
    m.sampler = dict(m.sampler)
    if m.out_dir.exists() and not m.out_dir.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, "Not a directory", str(m.out_dir))
    return m


def _model_spec(m: io.RunManifest, horizon: int) -> model.ModelSpec:
    from . import model

    return model.ModelSpec(kind=m.model_kind, horizon=horizon)


def _dataset_path(m: io.RunManifest, h: int) -> Path:
    return m.out_dir / f"dataset_h{h:03d}.csv"


def _samples_path(m: io.RunManifest, h: int) -> Path:
    return m.out_dir / f"samples_{m.model_kind}_h{h:03d}.csv"


def _split(m: io.RunManifest, h: int) -> tuple[horizon.HorizonDataset, horizon.HorizonDataset]:
    """The horizon-h dataset, split chronologically into (train, test)."""
    from . import horizon, io

    path = _dataset_path(m, h)
    ds = io.read_horizon_dataset(path, h)
    with io._naming(path):
        return horizon.chrono_split(ds, m.train_fraction)


def _read_samples(m: io.RunManifest, h: int, spec: model.ModelSpec) -> model.PosteriorSamples:
    """The horizon-h posterior samples, checked to be spec's parameters inside the prior support."""
    from . import io, model

    path = _samples_path(m, h)
    samples = io.read_posterior_samples(path)
    with io._naming(path):
        model.check_samples(samples, spec)
    return samples


def _test_predictive(m: io.RunManifest, h: int) -> tuple[horizon.HorizonDataset, model.PredictiveDraws]:
    """The horizon-h test split and its posterior-predictive draws.

    predict and score both call this, so they draw the same y* values.
    """
    from . import model

    train, test = _split(m, h)
    spec = _model_spec(m, h)
    samples = _read_samples(m, h, spec)
    pred = model.posterior_predictive(samples, test, spec, seed=m.seed + 1000 + h, context=train)
    return test, pred


def _parse(args: list[str], prog: str) -> tuple[Callable[..., None], dict]:
    """The command args name and its options as keyword arguments.

    A usage error exits VALIDATION_EXIT, and --help exits 0, as argparse does.
    """
    # the program itself takes no option with a value, so its first
    # argument that is not an option names the command, if any does
    chosen = next((arg for arg in args if not arg.startswith("-")), None)
    options = vars(_parser(prog, chosen).parse_args(args))
    command, _ = _COMMANDS[options.pop("command")]
    return command, options


def main(args: list[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """Probabilistic heave-response forecasting pipeline.

    Parses args (default sys.argv[1:]), runs the command they name and
    exits as a program does: it always ends in SystemExit, whose code is 0
    on success, 2 on a usage or validation error and 3 on a numerical
    failure.
    """
    command, options = _parse(sys.argv[1:] if args is None else list(args), prog_name or "heavecast")
    command(**options)
    sys.exit(0)


def run() -> None:
    """Run main as the program, with no cyclic garbage collection.

    The stages make no reference cycles (tests/test_cli.py checks that
    gc.collect() finds nothing after each), so the collections the
    interpreter would start as a stage allocates find nothing to free: run
    turns the collector off before main. When main returns or exits, the
    process holds every object of numpy and heavecast (and of PyYAML, for
    a YAML manifest), and the collections of interpreter shutdown would
    free them one at a time just before the process's memory goes back to
    the system anyway.
    gc.freeze() moves every object into the permanent generation, which
    those collections skip. Output streams are still flushed and atexit
    handlers still run.

    This relies on every file the program writes being closed before run
    returns (with-blocks, io.atomic_write_text), so no write waits for a
    collection to close it; pytest enforces that by turning ResourceWarning
    into an error. main itself leaves the collector as it finds it, on for
    library callers and for tests that call it in process.
    """
    gc.disable()
    try:
        main()
    finally:
        gc.freeze()


@_command()
def response(**kwargs):
    """Physics response statistics from a spectra file and an RAO file."""
    import numpy as np

    from . import campaign, io, spectral

    m = _load(**kwargs)
    m.require("rao_file", "spectra_file")
    rao = campaign.read_rao(m.rao_file)
    spectra = campaign.read_spectra(m.spectra_file)
    m0, m2 = spectral.response_moments(spectra, rao)
    rows = zip(np.datetime_as_string(spectra.times).tolist(), m0.tolist(), m2.tolist(), (2.0 * np.sqrt(m0)).tolist())
    columns = ["timestamp_utc", "m0_m2", "m2_m2_per_s2", "sig_heave_m"]
    io._write_table(m.out_dir / "response.csv", columns, "%s, %.10g, %.10g, %.10g", rows)
    print(f"wrote {m.out_dir / 'response.csv'} ({len(spectra)} timestamps)", flush=True)


@_command()
def build(**kwargs):
    """Synthesise per-horizon datasets from forecast issues and measurements."""
    from . import campaign, datasets, io

    m = _load(**kwargs)
    if not m.issue_files:
        m.issue_files = sorted((m.out_dir / "issues").glob("issue_*.csv"))
    if m.measurements_file is None and (m.out_dir / "measurements.csv").exists():
        m.measurements_file = m.out_dir / "measurements.csv"
    m.require("issue_files", "measurements_file")
    issues = campaign.read_forecast_issues(m.issue_files)
    measurements = campaign.read_heave_records(m.measurements_file)

    for h in m.horizons:
        series = datasets.synthesize_horizon_series(issues, h)
        ds = datasets.align(series, measurements, horizon=h)
        io.write_horizon_dataset(_dataset_path(m, h), ds)
        print(f"h={h}: {len(ds)} aligned rows -> {_dataset_path(m, h)}", flush=True)


@_command()
def fit(**kwargs):
    """Fit the adjustment model per horizon on the training split."""
    from . import config, io, sampler

    m = _load(**kwargs)
    cfg = config.SamplerConfig(**m.sampler)

    for h in m.horizons:
        train, _ = _split(m, h)
        samples = sampler.fit(train, _model_spec(m, h), cfg, seed=m.seed + h)
        io.write_posterior_samples(_samples_path(m, h), samples)
        worst = max(v["rhat"] for v in samples.diagnostics.values())
        print(f"h={h}: {len(samples)} draws, max rhat {worst:.3f} -> {_samples_path(m, h)}", flush=True)


@_command()
def predict(**kwargs):
    """Posterior-predictive quantiles for the test split of each horizon."""
    from . import io

    m = _load(**kwargs)
    for h in m.horizons:
        _, pred = _test_predictive(m, h)
        path = m.out_dir / f"predictions_{m.model_kind}_h{h:03d}.csv"
        io.write_predictions(path, pred)
        print(f"h={h}: {len(pred)} predictive rows -> {path}", flush=True)
        del pred  # before the next horizon's draws are made


@_command()
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
    print(table, flush=True)


@_command(
    _option("--max-lag", type=int, default=20, help="[default: %(default)s]"),
    _option("--bins", type=int, default=10, help="[default: %(default)s]"),
)
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
        # the basic model's innovations are eps / sigma, whose PACF is that of eps
        series = diagnostics.standardized_residuals(at_mean, train, spec)
        sigma_map = model.map_sigma(samples)
        # both tables are computed before either is written, so a bad option writes nothing
        with io._naming(f"{_dataset_path(m, h)}, horizon {h}"):
            pac = diagnostics.pacf(series, max_lag)
            table = diagnostics.heteroskedasticity_summary(eps, train.x, bins, sigma_map=sigma_map)
        rows = ((lag, c, pac.confidence_band) for lag, c in zip(pac.lags.tolist(), pac.coefficients.tolist()))
        io._write_table(
            m.out_dir / f"pacf_{m.model_kind}_h{h:03d}.csv", ["lag", "coefficient", "band"], "%d, %.6f, %.6f", rows
        )
        columns = ["x_bin_center_m", "mean_abs_residual_m", "count", "sigma_map"]
        rows = ((r["x_bin_center"], r["mean_abs_residual"], r["count"], r["sigma_map"]) for r in table)
        io._write_table(m.out_dir / f"hetero_{m.model_kind}_h{h:03d}.csv", columns, "%.6f, %.6f, %d, %.6f", rows)
        print(f"h={h}: diagnostics written", flush=True)


@_command(
    _option("--spectra-hours", type=int, default=0, metavar="N",
            help="also write the first N hours of true spectra (large files) [default: %(default)s]"),
)
def simulate(spectra_hours, **kwargs):
    """Generate a synthetic campaign: RAO, measurements and forecast issues."""
    import numpy as np

    from . import campaign, motion, synthetic

    if spectra_hours < 0:
        raise ValueError(f"spectra_hours must be nonnegative, found {spectra_hours}")
    m = _load(**kwargs)
    m.require("scenario")
    scn = m.swell_scenario()
    inj = m.error_injection()
    spectra = synthetic.generate_spectra(scn)
    rao = synthetic.reference_rao()
    times, sig = synthetic.true_response_series(spectra, rao)

    meas_noise = float(m.scenario.get("measurement_noise", 0.0))
    rng = np.random.default_rng(m.seed + 29)
    y = np.maximum(sig + meas_noise * rng.standard_normal(sig.size), 0.0)
    records = [motion.HeaveRecord(timestamp=t, sig_heave=v) for t, v in zip(times, y)]

    issues = synthetic.generate_forecast_issues(times, sig, inj)
    # simulate owns issues/: build reads every issue file there, so the set
    # replaces the whole directory and no file of an earlier campaign survives
    campaign.write_forecast_issues(m.out_dir / "issues", issues)
    campaign.write_rao(m.out_dir / "rao.csv", rao)
    campaign.write_heave_records(m.out_dir / "measurements.csv", records)
    if spectra_hours > 0:
        campaign.write_spectra(m.out_dir / "spectra.csv", spectra[:spectra_hours])
    print(f"simulated {len(spectra)} hours, {len(issues)} forecast issues -> {m.out_dir}", flush=True)


if __name__ == "__main__":
    run()
