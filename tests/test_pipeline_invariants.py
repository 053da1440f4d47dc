"""Properties of whole pipeline runs on the README campaign, run in process.

Each test runs the campaign again with one thing changed that must not
matter (the horizons asked for, the order and names of the issue files, the
output directory, measurements no forecast reaches) and compares the files
with those of one reference run.
"""

import json
import random
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from heavecast.io import read_forecast_issues
from clirun import invoke

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("simulate", "build", "fit", "predict", "score", "diagnose")
HORIZONS = ("-H", "0", "-H", "12")
SCORE_FILES = ("scores.csv", "scores.txt")


def readme_manifest(directory: Path) -> Path:
    """The README's run.yaml, written into directory."""
    text = re.search(r"`run.yaml`:\n\n```yaml\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    path = directory / "run.yaml"
    path.write_text(text)
    return path


def run(manifest: Path, *flags: str, stages=STAGES) -> None:
    for stage in stages:
        result = invoke([stage, "--manifest", str(manifest), *flags])
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
    run(readme_manifest(tmp), *HORIZONS)
    return tmp / "out"


def test_one_horizon_run_reproduces_its_files(reference, tmp_path):
    run(readme_manifest(tmp_path), "-H", "12")
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
    issues = sorted((reference / "issues").glob("issue_*.csv"))
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
    expected = {name: (reference / name).read_bytes() for name in ("dataset_h000.csv", "dataset_h012.csv")}
    for label, listing in listings.items():
        manifest = tmp_path / f"{label}.json"
        manifest.write_text(json.dumps({
            "out_dir": f"out-{label}",
            "issue_files": [str(p) for p in listing],
            "measurements_file": str(reference / "measurements.csv"),
        }))
        run(manifest, *HORIZONS, stages=("build",))
        got = {name: (tmp_path / f"out-{label}" / name).read_bytes() for name in expected}
        assert differing(got, expected) == [], label


def test_output_directory_does_not_matter(reference, tmp_path):
    elsewhere = tmp_path / "some" / "other place"
    run(readme_manifest(tmp_path), *HORIZONS, "--out", str(elsewhere))
    assert differing(files(elsewhere), files(reference)) == []


def test_measurements_outside_every_issue_window_change_nothing(reference, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(reference, out, ignore=shutil.ignore_patterns("dataset_*", "samples_*", "predictions_*",
                                                                 "pacf_*", "hetero_*", "scores.*"))
    valid = read_forecast_issues(sorted((out / "issues").glob("issue_*.csv"))).valid_times()
    first, last = valid.min(), valid.max()
    hour = np.timedelta64(1, "h")
    # valid rows of a large heave after the last valid time, put first, and
    # before the first issue, put last, so the file is out of time order
    header, *rows = (out / "measurements.csv").read_text().splitlines()
    late = [f"{last + k * hour}, 9.5, true" for k in range(1, 49)]
    early = [f"{first - k * hour}, 9.5, true" for k in range(1, 49)]
    (out / "measurements.csv").write_text("\n".join([header, *late, *rows, *early]) + "\n")
    run(readme_manifest(tmp_path), *HORIZONS, stages=STAGES[1:])
    expected = {k: v for k, v in files(reference).items() if k != "measurements.csv"}
    assert differing({k: v for k, v in files(out).items() if k != "measurements.csv"}, expected) == []
