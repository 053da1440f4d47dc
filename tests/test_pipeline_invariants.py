"""Properties of whole pipeline runs on the README campaign, run in process.

Each test runs the campaign again with one thing changed that must not
matter (the horizons asked for, the order and names of the issue files, the
output directory, measurements no forecast reaches, a start whole days
later) and compares the files with those of one reference run. One runs
each stage on only the files cli.STAGE_FILES says it reads.
"""

import json
import random
import re
import shutil
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from heavecast import cli
from heavecast.datasets import read_forecast_issues
from clirun import invoke
from layout import glob, reads, writes
from outdir_digest import workloads

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("simulate", "build", "fit", "predict", "score", "diagnose")
HORIZONS = ("-H", "0", "-H", "12")
SCORE_FILES = writes("score")


def readme_manifest(directory: Path) -> Path:
    """The README's run.yaml, written into directory."""
    text = re.search(r"`run.yaml`:\n\n```yaml\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    path = directory / "run.yaml"
    path.write_text(text)
    return path


def run(manifest: Path, *flags: str, horizons=(), stages=STAGES) -> None:
    """Run the stages with flags, and with horizons' -H flags where the stage takes them (all but simulate)."""
    for stage in stages:
        result = invoke([stage, "--manifest", str(manifest), *flags, *(horizons if stage != "simulate" else ())])
        assert result.exit_code == 0, (stage, result.output)


def files(out: Path) -> dict[str, bytes]:
    """Every file under out, by its path relative to out."""
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def differing(got: dict[str, bytes], expected: dict[str, bytes]) -> list[str]:
    """The names of the files that are not in both or whose bytes differ."""
    return sorted(name for name in got.keys() | expected.keys() if got.get(name) != expected.get(name))


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> Path:
    """The output directory of the README campaign at horizons 0 and 12, every stage run."""
    tmp = tmp_path_factory.mktemp("reference")
    run(readme_manifest(tmp), horizons=HORIZONS)
    return tmp / "out"


def test_one_horizon_run_reproduces_its_files(reference, tmp_path):
    run(readme_manifest(tmp_path), horizons=("-H", "12"))
    got, expected = files(tmp_path / "out"), files(reference)
    got_scores, expected_scores = ({name: run.pop(name).decode() for name in SCORE_FILES} for run in (got, expected))
    assert differing(got, {name: data for name, data in expected.items() if "_h000" not in name}) == []
    # the scores lose the rows of horizon 0, and the table its column
    rows = expected_scores["scores.csv"].splitlines()
    assert got_scores["scores.csv"].splitlines() == [row for row in rows if row.split(", ")[1] != "0"]
    table = expected_scores["scores.txt"].splitlines()
    start = table[0].index("        0h")
    assert got_scores["scores.txt"].splitlines() == [line[:start] + line[start + 10:] for line in table]


def test_issue_file_order_and_names_do_not_matter(reference, tmp_path):
    issue_files, measured = reads("build")
    issues = sorted(reference.glob(issue_files))
    renamed = tmp_path / "renamed"
    renamed.mkdir()
    names = [f"{k:04d}-forecast.csv" for k in range(len(issues))]
    random.Random(5).shuffle(names)
    for path, name in zip(issues, names):
        shutil.copyfile(path, renamed / name)
    listings = {
        "reversed": issues[::-1],
        "shuffled": random.Random(6).sample(issues, len(issues)),
        "renamed": sorted(renamed.iterdir()),
    }
    expected = {name: (reference / name).read_bytes() for name in writes("build", horizons=(0, 12))}
    for label, listing in listings.items():
        manifest = tmp_path / f"{label}.json"
        manifest.write_text(json.dumps({
            "out_dir": f"out-{label}",
            "issue_files": [str(p) for p in listing],
            "measurements_file": str(reference / measured),
        }))
        run(manifest, horizons=HORIZONS, stages=("build",))
        got = {name: (tmp_path / f"out-{label}" / name).read_bytes() for name in expected}
        assert differing(got, expected) == [], label


def test_output_directory_does_not_matter(reference, tmp_path):
    elsewhere = tmp_path / "some" / "other place"
    run(readme_manifest(tmp_path), "--out", str(elsewhere), horizons=HORIZONS)
    assert differing(files(elsewhere), files(reference)) == []


def test_measurements_outside_every_issue_window_change_nothing(reference, tmp_path):
    out = tmp_path / "out"
    later = (glob(name) for stage in STAGES[1:] for name in cli.STAGE_FILES[stage][1])
    shutil.copytree(reference, out, ignore=shutil.ignore_patterns(*later))
    issue_files, measured = reads("build")
    valid = read_forecast_issues(sorted(out.glob(issue_files))).valid_times()
    first, last = valid.min(), valid.max()
    hour = np.timedelta64(1, "h")
    # valid rows of a large heave after the last valid time, put first, and
    # before the first issue, put last, so the file is out of time order
    header, *rows = (out / measured).read_text().splitlines()
    late = [f"{last + k * hour}, 9.5, true" for k in range(1, 49)]
    early = [f"{first - k * hour}, 9.5, true" for k in range(1, 49)]
    (out / measured).write_text("\n".join([header, *late, *rows, *early]) + "\n")
    run(readme_manifest(tmp_path), horizons=HORIZONS, stages=STAGES[1:])
    expected = {k: v for k, v in files(reference).items() if k != measured}
    assert differing({k: v for k, v in files(out).items() if k != measured}, expected) == []


# a time cell as the writers spell it
TIME = re.compile(rb"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d")


def test_whole_days_later_the_campaign_is_the_same(tmp_path):
    # the bench's readme-hybrid campaign (seed 1, no outages) started 274 days
    # later, 2025-03-02: the issue cycles sit at fixed UTC hours, so every file
    # is the same once its times are moved back
    later = np.timedelta64(274, "D")
    runs = {}
    for label, start in (("default", None), ("later", np.datetime64("2024-06-01T00:00:00") + later)):
        raw = workloads.WORKLOADS["readme-hybrid"](1).manifest
        if start is not None:
            raw["scenario"]["start"] = str(start)
        (tmp_path / label).mkdir()
        (tmp_path / label / "run.json").write_text(json.dumps(raw))
        run(tmp_path / label / "run.json")
        runs[label] = files(tmp_path / label / "out")
    moved_back = {name: TIME.sub(lambda t: str(np.datetime64(t.group().decode()) - later).encode(), data)
                  for name, data in runs["later"].items()}
    assert moved_back != runs["later"] and differing(moved_back, runs["default"]) == []


def test_score_equals_score_table_on_the_predictive_draws(reference, tmp_path):
    """score's unrounded reports equal score_table on the posterior-predictive
    draws, rebuilt from the samples as bench/probe.py check rebuilds them.

    score reads each row's mean and CRPS as predict spelled them (%.10g), so
    the two agree to that rounding, not bit for bit.
    """
    from heavecast import io, model, scoring

    m, _ = cli._load(readme_manifest(tmp_path), str(reference), horizons=[0, 12])
    label = f"{m.model_kind} adjustment"
    models, obs = {label: {}, "raw physics": {}}, {}
    for h in m.horizons:
        dataset, samples = reads("predict", m.model_kind, (h,))
        train, test = io.chrono_split(io.read_horizon_dataset(reference / dataset, h), m.train_fraction)
        samples = io.read_posterior_samples(reference / samples)
        spec = model.ModelSpec(kind=m.model_kind, horizon=h)
        pred = model.posterior_predictive(samples, test, spec, seed=m.seed + 1000 + h, context=train)
        models[label][h], models["raw physics"][h], obs[h] = pred.draws.T, test.x, test.y
    expected = scoring.score_table(models, obs, m.horizons)
    got = cli._score_reports(m)
    assert [(r.model_label, r.horizon, r.n) for r in got] == [(r.model_label, r.horizon, r.n) for r in expected]
    for r, e in zip(got, expected):
        assert r.rmse == pytest.approx(e.rmse, rel=1e-9, abs=0)
        assert r.crps_mean == pytest.approx(e.crps_mean, rel=1e-9, abs=0)
    assert got[len(m.horizons):] == expected[len(m.horizons):]  # the raw physics rows, bit for bit


# the README campaign with spectra and their response, as tests/outdir_digest.py runs it
CAMPAIGN = (*STAGES, "response")
FLAGS = {"simulate": ("--spectra-hours", "24"), "response": ()}


def run_alone(stage: str, directory: Path):
    """Run stage on the README manifest in directory, which names out/'s
    RAO and spectra files for response, and return what it printed."""
    directory.mkdir(parents=True, exist_ok=True)
    manifest = readme_manifest(directory)
    if stage == "response":
        manifest.write_text(manifest.read_text() + "rao_file: out/rao.csv\nspectra_file: out/spectra.csv\n")
    return invoke([stage, "--manifest", str(manifest), *FLAGS.get(stage, HORIZONS)])


def matching(found, declared: list[str]) -> list[str]:
    """The names of found that one of the declared names or globs matches."""
    return sorted(name for name in found if any(fnmatch(name, pattern) for pattern in declared))


def inputs(stage: str, campaign: Path, directory: Path, leave_out: str | None = None) -> None:
    """Copy into directory/out, times kept, the campaign's files stage reads, but those leave_out matches."""
    for name in matching(files(campaign), reads(stage, horizons=(0, 12))):
        if leave_out is None or not fnmatch(name, leave_out):
            (directory / "out" / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(campaign / name, directory / "out" / name)


@pytest.fixture(scope="module")
def stage_by_stage(tmp_path_factory) -> Path:
    """The campaign's out_dir, each stage run alone in a directory holding
    only the files it declares it reads, and the files it changed copied back.

    Each stage must create or change exactly the files it declares it
    writes, and each file it declares it reads must be one an earlier stage
    wrote.
    """
    tmp = tmp_path_factory.mktemp("stages")
    campaign = tmp / "campaign"
    campaign.mkdir()
    for stage in CAMPAIGN:
        declared = reads(stage, horizons=(0, 12))
        assert [name for name in declared if not matching(files(campaign), [name])] == [], stage
        directory = tmp / stage
        inputs(stage, campaign, directory)
        before = files(directory / "out")
        result = run_alone(stage, directory)
        assert result.exit_code == 0, (stage, result.output)
        after = files(directory / "out")
        changed = sorted(name for name, data in after.items() if before.get(name) != data)
        declared = writes(stage, horizons=(0, 12))
        assert changed == matching(changed, declared), stage
        assert [name for name in declared if not matching(changed, [name])] == [], stage
        for name in changed:
            (campaign / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(directory / "out" / name, campaign / name)
    return campaign


def test_each_stage_writes_exactly_what_it_declares(stage_by_stage, reference):
    # the stages run alone write what the reference run's wrote, and the spectra and their response
    assert differing(files(stage_by_stage), files(reference)) == sorted([*writes("response"), cli.SPECTRA])


@pytest.mark.parametrize(
    "stage, name", [(stage, name) for stage in CAMPAIGN for name in reads(stage, horizons=(0, 12))]
)
def test_each_declared_read_is_needed(stage_by_stage, tmp_path, stage, name):
    # every file the name or glob matches is left out, and the message names the path
    inputs(stage, stage_by_stage, tmp_path, leave_out=name)
    result = run_alone(stage, tmp_path)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ") and str(tmp_path / "out" / name) in result.stderr, result.stderr
