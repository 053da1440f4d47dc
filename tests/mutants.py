"""Checked-in mutants of src/heavecast that the tests must kill.

    python tests/mutants.py [NAME ...]

Each mutant is a file under src/heavecast, an exact source fragment that
occurs in it once, the fragment's replacement, the tests that must fail
with it, and one line saying what it breaks (mutation analysis: DeMillo,
Lipton & Sayward 1978, "Hints on test data selection"). The list is written
by hand, not generated.

Run as a script, it first runs every listed test on an unmutated copy of
src/heavecast, which must pass. Then, for each mutant (or only those
named), it copies src/heavecast into a temporary directory, applies the
mutant there and runs that mutant's tests with the copy first on
PYTHONPATH. A mutant is killed when every one of its tests has a failing
case; one that any of its tests passes survives. It prints one line per
mutant and the wall time, and exits 1 if any mutant survived or the
unmutated copy failed.

Under pytest, test_each_fragment_occurs_once checks only that every
fragment still occurs exactly once in its file, so a change that moves or
rewrites one fails tier-1 until its mutant is updated.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heavecast"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/heavecast
    fragment: str  # occurs once in file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, each of which must have a failing case
    breaks: str


MUTANTS = (
    Mutant(
        "noise-floor-dropped", "model.py",
        "    return np.maximum(x, X_FLOOR)\n", "    return np.asarray(x, dtype=float)\n",
        ("tests/test_model.py", "tests/test_sampler.py", "tests/test_synthetic.py::TestGenerateObservations"),
        "a row with x below X_FLOOR gets a noise scale below the model's floor",
    ),
    Mutant(
        "likelihood-unweighted", "model.py",
        "    return mean, noise_weights(x) * sigma\n", "    return mean, x * sigma\n",
        ("tests/test_model.py", "tests/test_sampler.py"),
        "the hybrid likelihood scales its noise by x, not by the weights the sampler's Gram matrix uses",
    ),
    Mutant(
        "gram-unweighted", "sampler.py",
        " / noise_weights(ds.x)  # (9, N)", "  # (9, N)",
        ("tests/test_sampler.py::TestConditionalsOracle",),
        "the Gibbs conditionals drop the noise weights that the likelihood applies",
    ),
    Mutant(
        "generator-unfloored", "synthetic.py",
        "noise = noise_weights(x) * (sigma", "noise = x * (sigma",
        ("tests/test_synthetic.py::TestGenerateObservations::test_noise_below_the_floor_has_the_models_scale",
         "tests/test_synthetic.py::TestGenerateObservations::test_noise_is_the_model_weight_times_eta"),
        "the synthetic generator draws x_t * eta_t, below the model's floor where x_t < X_FLOOR",
    ),
    Mutant(
        "dataset-non-finite-accepted", "io.py",
        'x, y = _numbers(x_col, path, "x_m", finite=True), _numbers(y_col, path, "y_m", finite=True)',
        'x, y = _numbers(x_col, path, "x_m"), _numbers(y_col, path, "y_m")',
        ("tests/test_io.py::TestIssueAndDataset::test_dataset_rows_name_the_bad_cell",
         "tests/test_artifact_fuzz.py::test_garbled_table"),
        "a non-finite x_m or y_m cell is refused without its row and column",
    ),
    Mutant(
        "dataset-order-unchecked", "io.py",
        "    if early.size:\n", "    if False:\n",
        ("tests/test_io.py::TestIssueAndDataset::test_dataset_rows_name_the_bad_cell",
         "tests/test_artifact_fuzz.py::test_garbled_table"),
        "a valid time no later than the row before is refused without its row and column",
    ),
    Mutant(
        "samples-non-finite-accepted", "io.py",
        "_numbers(c, path, n, finite=True) for c, n in zip(columns[1:], names)",
        "_numbers(c, path, n) for c, n in zip(columns[1:], names)",
        ("tests/test_io.py::test_non_finite_draw_is_refused_by_row_and_column",
         "tests/test_cli.py::TestBadSamples::test_non_finite_draw_names_the_row_and_column"),
        "a non-finite draw is refused without its row and column",
    ),
    Mutant(
        "issue-times-unchecked", "datasets.py",
        "            if other.size:\n", "            if False:\n",
        ("tests/test_issue_files.py::TestSetReader::test_first_file_with_two_issue_times_is_named",
         "tests/test_io.py::TestIssueAndDataset::test_multiple_issue_times_rejected"),
        "an issue file with a second issue time is read as one issue",
    ),
    Mutant(
        "off-hour-unchecked", "datasets.py",
        "    if off_hour.size:\n", "    if False:\n",
        ("tests/test_issue_files.py::TestSetReader::test_off_hour_valid_time_rejected",
         "tests/test_cli.py::TestExitCodes::test_off_hour_valid_time_is_validation_error"),
        "a valid time off the issue's hourly grid is truncated to a whole lead",
    ),
    Mutant(
        "leads-unchecked", "datasets.py",
        "    bad = _irregular_rows(bounds, leads)\n    if bad.size:\n        row = int(bad[0])",
        "    bad = _irregular_rows(bounds, leads)[:0]\n    if bad.size:\n        row = int(bad[0])",
        ("tests/test_issue_files.py::TestSetReader::test_bad_leads_and_times_name_the_file",),
        "an issue file whose leads are not hourly is refused without its file, row and column",
    ),
    Mutant(
        "issue-writer-digits", "datasets.py",
        'f"{issued}, %s, %.10g"', 'f"{issued}, %s, %.9g"',
        ("tests/test_golden.py", "tests/test_issue_files.py::TestSetWriter::test_bytes_match_per_file_writer"),
        "the issue files keep 9 significant digits, so build reads other forecasts than simulate made",
    ),
    Mutant(
        "issue-noise-offset", "io.py",
        '"issue_noise": lambda seed: seed + 17,', '"issue_noise": lambda seed: seed + 18,',
        ("tests/test_golden.py", "tests/test_streams.py"),
        "the forecast-error noise draws from another run's stream",
    ),
    Mutant(
        "redraw-ignores-support", "sampler.py",
        "        if inside(x1, x2):\n", "        if True:\n",
        ("tests/test_sampler.py::TestRejectionCap",),
        "a truncated block's redraw is kept outside its support",
    ),
    Mutant(
        "pair-sum-halved", "model.py",
        "np.array(pair_sums) / (2.0 * m * m)", "np.array(pair_sums) / (4.0 * m * m)",
        ("tests/test_acceptance.py", "tests/test_scoring.py::TestCrpsSamples", "tests/test_predictive.py"),
        "the sample CRPS halves its spread term, so it overstates the error of a wide forecast",
    ),
)


def mutated(mutant: Mutant, text: str) -> str:
    """text with the mutant's fragment replaced; ValueError unless the fragment occurs exactly once."""
    count = text.count(mutant.fragment)
    if count != 1:
        raise ValueError(f"{mutant.name}: fragment occurs {count} times in {mutant.file}, not once")
    return text.replace(mutant.fragment, mutant.replacement)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_fragment_occurs_once(mutant):
    assert mutant.replacement != mutant.fragment
    mutated(mutant, (PACKAGE / mutant.file).read_text())


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def _failing_ids(tests: tuple[str, ...], src: Path) -> tuple[int, set[str]]:
    """pytest's exit code on tests, run with the package copy under src first
    on PYTHONPATH, and the node ids of the cases that failed."""
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    return run.returncode, set(re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE))


def _killed_by(test: str, failed: set[str]) -> bool:
    """Whether the node id test, a file, class or case, has a failing case among failed."""
    return any(f == test or f.startswith(test + "::") or f.startswith(test + "[") for f in failed)


def _copy(mutant: Mutant | None, tmp: Path) -> Path:
    """A copy of src/heavecast under tmp, with mutant applied, and the directory to put on PYTHONPATH."""
    src = tmp / "src"
    shutil.copytree(PACKAGE, src / "heavecast", ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / "heavecast" / mutant.file
        path.write_text(mutated(mutant, path.read_text()))
    return src


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        code, failed = _failing_ids(tests, _copy(None, Path(tmp)))
    if code != 0:
        print(f"the unmutated source fails its tests (pytest exit {code}): {sorted(failed)}")
        return 1
    survivors = []
    for mutant in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            code, failed = _failing_ids(mutant.tests, _copy(mutant, Path(tmp)))
        missed = [t for t in mutant.tests if not _killed_by(t, failed)]
        if code != 1 or missed:
            survivors.append(mutant.name)
            print(f"SURVIVED {mutant.name} (pytest exit {code}; no failure in {missed}): {mutant.breaks}")
        else:
            print(f"killed   {mutant.name}: {len(failed)} failing cases")
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
