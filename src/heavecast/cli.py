"""Command-line pipeline: simulate -> build -> fit -> predict -> score ->
diagnose, and response, the physics response of a spectra file and an RAO.

Every command reads a run manifest (JSON or YAML), takes flag overrides,
writes plain delimited text into the manifest's output directory and is
idempotent for a fixed manifest and seed. Each stage reads what the stages
before it wrote, as STAGE_FILES lists them: score reads the predictions
predict wrote (with each test row's CRPS), so it draws nothing itself. Exit codes: 0 success, 2
validation or usage error (an unknown command or option, a missing or
malformed value), 3 numerical failure. main does once what every command
shares: it loads the manifest, runs the command (a function of the loaded
RunManifest and its own options) under one floating-point policy, in which
an overflow or an invalid value raises FloatingPointError instead of a
warning (simulate alone overrides it), and maps what the command raises to
the exit code: ValueError, OSError and KeyError exit 2, and any
ArithmeticError, sampler.SamplerError included, exits 3.

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
import gc
import re
import sys
import textwrap
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from . import (DATASET, HETERO, ISSUES, MEASUREMENTS, MODEL_KINDS, PACF, PREDICTIONS, RAO, RESPONSE, SAMPLES,
               SCORES, SPECTRA, check_model_kind)

if TYPE_CHECKING:
    from collections.abc import Callable

    import numpy as np

    from . import io, model, scoring

VALIDATION_EXIT = 2
NUMERICAL_EXIT = 3


def _option(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """One option of a command: the arguments of ArgumentParser.add_argument."""
    return flags, kwargs


# options every command takes
_COMMON = (
    _option("-m", "--manifest", required=True, metavar="FILE"),
    _option("--out", metavar="DIR",
            help="override output directory (relative to the current directory, not the manifest)"),
)


def _model_kind(kind: str) -> str:
    """kind, refused as the manifest and the model refuse it; argparse names --model."""
    try:
        check_model_kind(kind)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return kind


# overrides a command takes only where its work reads the manifest value
_HORIZONS = _option("-H", "--horizon", dest="horizons", action="append", type=int, metavar="HOURS",
                    help="override manifest horizons")
_MODEL = _option("--model", dest="model_kind", type=_model_kind, metavar="{" + ",".join(MODEL_KINDS) + "}")
_SEED = _option("--seed", type=int)

# name -> (command, its options), filled by @_command
_COMMANDS: dict[str, tuple] = {}


def _command(*options: tuple[tuple[str, ...], dict]):
    """Make fn the command named after it, with the common options and options.

    _run calls it with the loaded manifest and, as keyword arguments, the
    options _load does not take; main maps what it raises to the exit code.
    """

    def register(fn):
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


def _load(manifest, out, horizons=None, model_kind=None, seed=None, **options) -> tuple[io.RunManifest, dict]:
    """The manifest with the command's overrides, checked, and the command's own options.

    A manifest path that is missing or a directory, and an --out that is a
    file, raise OSError, which exits VALIDATION_EXIT. The output directory
    is not made here but by the first file written into it, so a command
    that refuses its manifest or its inputs before it writes leaves nothing.
    """
    from . import io

    m = io.RunManifest.load(Path(manifest))
    if horizons:
        m.horizons = list(horizons)
    if model_kind:
        m.model_kind = model_kind
    if seed is not None:
        m.seed = seed
    if out:
        m.out_dir = Path(out)
    m.check()
    if m.out_dir.exists() and not m.out_dir.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, "Not a directory", str(m.out_dir))
    return m, options


def _run(command: Callable[..., None], options: dict) -> None:
    """Run command, with its parsed options, on the manifest they name, under main's floating-point policy."""
    import numpy as np

    m, own = _load(**options)
    with np.errstate(over="raise", invalid="raise"):
        command(m, **own)


# command -> (the out_dir templates it reads, those it writes); every command takes its
# paths from here. response reads the manifest's rao_file and spectra_file, and simulate
# writes spectra.csv only with --spectra-hours.
STAGE_FILES = {
    "simulate": ((), (ISSUES, RAO, MEASUREMENTS, SPECTRA)),
    "build": ((ISSUES, MEASUREMENTS), (DATASET,)),
    "fit": ((DATASET,), (SAMPLES, SAMPLES + ".diag.json")),  # the samples, then their diagnostics sidecar
    "predict": ((DATASET, SAMPLES), (PREDICTIONS,)),
    "score": ((DATASET, PREDICTIONS), (SCORES, "scores.txt")),
    "diagnose": ((DATASET, SAMPLES), (PACF, HETERO)),
    "response": ((RAO, SPECTRA), (RESPONSE,)),
}


def _paths(m: io.RunManifest, names: tuple[str, ...], h: int | None = None) -> list[Path]:
    """The out_dir paths of the name templates names, at horizon h and m's model kind."""
    return [m.out_dir / name.format(h=h, model=m.model_kind) for name in names]


def _split(m: io.RunManifest, dataset: Path, h: int) -> tuple[io.HorizonDataset, io.HorizonDataset]:
    """The horizon-h dataset at path dataset, split chronologically into (train, test)."""
    from . import io

    ds = io.read_horizon_dataset(dataset, h)
    with io._naming(dataset):
        return io.chrono_split(ds, m.train_fraction)


def _read_samples(path: Path, spec: model.ModelSpec) -> model.PosteriorSamples:
    """The posterior samples at path, checked to be spec's parameters inside the prior support."""
    from . import io, model

    samples = io.read_posterior_samples(path)
    with io._naming(path):
        model.check_samples(samples, spec)
    return samples


def _read_predictions(m: io.RunManifest, path: Path, h: int, test: io.HorizonDataset) -> np.ndarray:
    """The number table of the horizon-h predictions file at path, written for test.

    A file that is missing, unreadable, strictly older than a file predict
    reads, or whose valid times are not test's, raises a ValueError that
    names it and says to re-run predict.
    """
    import numpy as np

    from . import io

    sources = _paths(m, STAGE_FILES["predict"][0], h)  # the dataset, then the samples
    try:
        valid_times, table = io.read_predictions(path)
    except FileNotFoundError:
        raise ValueError(f"{path}: no such file; run predict first") from None
    except ValueError as exc:
        raise ValueError(f"{exc}; re-run predict") from None
    for source in sources:
        if source.exists() and source.stat().st_mtime_ns > path.stat().st_mtime_ns:
            raise ValueError(f"{path}: older than {source}; re-run predict")
    if not np.array_equal(valid_times, test.valid_times):
        raise ValueError(f"{path}: valid times differ from the test split of {sources[0]}; re-run predict")
    return table


def _score_reports(m: io.RunManifest) -> list[scoring.ScoreReport]:
    """Every horizon's report of the model, then every horizon's of the raw physics forecast.

    The model's RMSE is that of the predictive means and its CRPS the mean
    of the per-row CRPS, both read from the predictions file predict wrote;
    the raw physics forecast is scored as a point forecast.
    """
    import numpy as np

    from . import io, scoring

    reports, raw = [], []
    reads, _ = STAGE_FILES["score"]
    for h in m.horizons:
        dataset, predictions = _paths(m, reads, h)
        _, test = _split(m, dataset, h)
        table = _read_predictions(m, predictions, h, test)
        with io._naming(f"{dataset}, horizon {h}"):
            rmse, crps = scoring.rmse(table[:, 0], test.y), float(np.mean(table[:, -1]))
            reports.append(scoring.ScoreReport(f"{m.model_kind} adjustment", h, rmse, crps, len(test)))
            raw += scoring.score_table({"raw physics": {h: test.x}}, {h: test.y}, [h])
    return reports + raw


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

    Parses args (default sys.argv[1:]), runs the command they name (_run)
    and exits as a program does: it always ends in SystemExit, whose code is
    0 on success, 2 on a usage or validation error or when memory runs out,
    and 3 on a numerical failure, an overflow or invalid value included.
    """
    command, options = _parse(sys.argv[1:] if args is None else list(args), prog_name or "heavecast")
    try:
        _run(command, options)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(VALIDATION_EXIT)
    except MemoryError as exc:  # numpy's names the array it could not allocate; Python's is empty
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        sys.exit(VALIDATION_EXIT)
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        sys.exit(NUMERICAL_EXIT)
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
def response(m):
    """Physics response statistics from a spectra file and an RAO file."""
    import numpy as np

    from . import datasets, io, spectral

    m.require("rao_file", "spectra_file")
    (path,) = _paths(m, STAGE_FILES["response"][1])
    rao = datasets.read_rao(m.rao_file)
    spectra = datasets.read_spectra(m.spectra_file)
    with io._naming(m.spectra_file):
        m0, m2 = spectral.response_moments(spectra, rao)
    io._write_table(path, RESPONSE, [spectra.times, m0, m2, 2.0 * np.sqrt(m0)])
    print(f"wrote {path} ({len(spectra)} timestamps)", flush=True)


@_command(_HORIZONS)
def build(m):
    """Synthesise per-horizon datasets from forecast issues and measurements."""
    from . import datasets, io

    reads, writes = STAGE_FILES["build"]
    issue_files, measured = _paths(m, reads)
    issue_files = issue_files.with_name(re.sub(r"\{.*?\}", "*", issue_files.name))  # every index
    m.issue_files = m.issue_files or sorted(issue_files.parent.glob(issue_files.name), key=str)
    if m.measurements_file is None and measured.exists():
        m.measurements_file = measured
    for name, searched in (("issue_files", issue_files), ("measurements_file", measured)):
        if not getattr(m, name):
            raise ValueError(f"{m._path}: manifest is missing {name}, and build found no {searched}")
    m.require("issue_files", "measurements_file")
    issues = datasets.read_forecast_issues(m.issue_files)
    measurements = datasets.read_heave_records(m.measurements_file)

    for h in m.horizons:
        series = datasets.synthesize_horizon_series(issues, h)
        with io._naming(f"{m.measurements_file}, horizon {h}"):
            ds = datasets.align(series, measurements, horizon=h)
        (path,) = _paths(m, writes, h)
        io.write_horizon_dataset(path, ds)
        print(f"h={h}: {len(ds)} aligned rows -> {path}", flush=True)


@_command(_HORIZONS, _MODEL, _SEED)
def fit(m):
    """Fit the adjustment model per horizon on the training split."""
    from . import io, model, sampler

    cfg = io.SamplerConfig(**m.sampler)
    reads, writes = STAGE_FILES["fit"]

    for h in m.horizons:
        (dataset,), (path, sidecar) = _paths(m, reads, h), _paths(m, writes, h)
        train, _ = _split(m, dataset, h)
        with io._naming(f"{dataset}, horizon {h}"):
            samples = sampler.fit(train, model.ModelSpec(kind=m.model_kind, horizon=h), cfg, seed=m.stream("fit", h))
        io.write_posterior_samples(path, samples, sidecar)
        worst = max(v["rhat"] for v in samples.diagnostics.values())
        print(f"h={h}: {len(samples)} draws, max rhat {worst:.3f} -> {path}", flush=True)


@_command(_HORIZONS, _MODEL, _SEED)
def predict(m):
    """Posterior-predictive quantiles and CRPS for the test split of each horizon.

    Each test row's draws give its mean, quantiles and sample CRPS against
    the measured value in one pass; score reads them from the file written
    here. Each horizon's draws are released before the next horizon's are
    made.
    """
    from . import io, model

    reads, writes = STAGE_FILES["predict"]
    for h in m.horizons:
        (dataset, samples_path), (path,) = _paths(m, reads, h), _paths(m, writes, h)
        train, test = _split(m, dataset, h)
        spec = model.ModelSpec(kind=m.model_kind, horizon=h)
        samples = _read_samples(samples_path, spec)
        # an overflow in the draws or in the summaries the writer takes of them raises before it writes
        with io._naming(f"{dataset}, horizon {h}"):
            pred = model.posterior_predictive(samples, test, spec, seed=m.stream("predict", h), context=train)
            io.write_predictions(path, pred, test.y)
        print(f"h={h}: {len(pred)} predictive rows -> {path}", flush=True)
        del pred  # before the next horizon's draws are made


@_command(_HORIZONS, _MODEL)
def score(m):
    """Score the fitted model's predictions against the raw physics forecast.

    Reads each horizon's test split and the predictions file predict wrote
    for it, and draws nothing: a predictions file older than its dataset or
    samples file is refused, and after fit predict must run again.
    """
    from . import io, scoring

    csv_path, text_path = _paths(m, STAGE_FILES["score"][1])
    reports = _score_reports(m)
    io.write_score_reports(csv_path, reports)
    table = scoring.format_score_table(reports)
    io.atomic_write_text(text_path, table + "\n")
    print(table, flush=True)


@_command(
    _HORIZONS,
    _MODEL,
    _option("--max-lag", type=int, default=20, help="[default: %(default)s]"),
    _option("--bins", type=int, default=10, help="[default: %(default)s]"),
)
def diagnose(m, max_lag, bins):
    """Residual PACF and heteroskedasticity tables per horizon."""
    import numpy as np

    from . import diagnostics, io, model

    reads, writes = STAGE_FILES["diagnose"]
    for h in m.horizons:
        (dataset, samples_path), (pacf_path, hetero_path) = _paths(m, reads, h), _paths(m, writes, h)
        train, _ = _split(m, dataset, h)
        spec = model.ModelSpec(kind=m.model_kind, horizon=h)
        samples = _read_samples(samples_path, spec)
        # both tables are computed before either is written, so a bad option writes nothing
        with io._naming(f"{dataset}, horizon {h}"):
            at_mean = np.mean(samples.draws, axis=0)
            eps = model.residuals(at_mean, train)
            # the basic model's innovations are eps / sigma, whose PACF is that of eps
            series = diagnostics.standardized_residuals(at_mean, train, spec)
            sigma_map = model.map_sigma(samples)
            pac = diagnostics.pacf(series, max_lag)
            table = diagnostics.heteroskedasticity_summary(eps, train.x, bins, sigma_map)
        io._write_table(pacf_path, PACF, [pac.lags, pac.coefficients, pac.confidence_band])
        io._write_table(hetero_path, HETERO, [*zip(*table)])
        print(f"h={h}: diagnostics written", flush=True)


@_command(
    _SEED,
    _option("--spectra-hours", type=int, default=0, metavar="N",
            help="also write the first N hours of true spectra (large files) [default: %(default)s]"),
)
def simulate(m, spectra_hours):
    """Generate a synthetic campaign: RAO, measurements and forecast issues."""
    import numpy as np

    from . import datasets, synthetic

    if spectra_hours < 0:
        raise ValueError(f"spectra_hours must be nonnegative, found {spectra_hours}")
    m.require("scenario")
    scn = m.swell_scenario()
    inj = m.error_injection()
    rao = synthetic.reference_rao()
    # a value too large for a float (an Hs, a jitter, a bias) makes a product
    # infinite: refused by the section that set it, not by main's policy
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            spectra = synthetic.generate_spectra(scn)
        except (OverflowError, ValueError):  # a float's, or SpectrumSeries refusing an infinite density
            raise ValueError(f"{m._path}: manifest scenario overflows the wave spectra") from None
        times, sig = synthetic.true_response_series(spectra, rao)
        if not np.isfinite(sig).all():
            raise ValueError(f"{m._path}: manifest scenario overflows the heave response")
        rng = np.random.default_rng(m.stream("measurement_noise"))
        noisy = sig + scn.measurement_noise * rng.standard_normal(sig.size)
        if not np.isfinite(noisy).all():
            raise ValueError(f"{m._path}: measurement_noise {scn.measurement_noise!r} overflows the measured heave")
        try:
            issues = synthetic.generate_forecast_issues(times, sig, inj)
        except ValueError:  # IssueSet refusing an infinite value
            raise ValueError(f"{m._path}: manifest injection overflows the forecast issues") from None
    y = np.maximum(noisy, 0.0)
    records = [datasets.HeaveRecord(timestamp=t, sig_heave=v) for t, v in zip(times, y)]

    # simulate owns the issue files' directory: build reads every issue file
    # there, so the set replaces the whole directory and no file of an
    # earlier campaign survives
    issue_files, rao_path, measured, spectra_path = _paths(m, STAGE_FILES["simulate"][1])
    datasets.write_forecast_issues(issue_files, issues)
    datasets.write_rao(rao_path, rao)
    datasets.write_heave_records(measured, records)
    if spectra_hours > 0:
        datasets.write_spectra(spectra_path, spectra[:spectra_hours])
    print(f"simulated {len(spectra)} hours, {len(issues)} forecast issues -> {m.out_dir}", flush=True)


if __name__ == "__main__":
    run()
