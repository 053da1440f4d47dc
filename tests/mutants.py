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


# the table-driven tests that break each cell rule of io.FORMATS: at its reader, and at the first stage that reads it
READER_RULES = "tests/test_io.py::test_each_reader_holds_every_cell_to_its_rules"
STAGE_RULES = "tests/test_artifact_fuzz.py::test_every_rule_refuses_by_row_and_column"

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
        '"x_m number %.10g finite", "y_m number %.10g finite"', '"x_m number %.10g", "y_m number %.10g"',
        (READER_RULES, "tests/test_artifact_fuzz.py::test_garbled_table"),
        "a non-finite x_m or y_m cell is refused without its row and column",
    ),
    Mutant(
        "dataset-order-unchecked", "io.py",
        '"valid_time_utc time %s later"', '"valid_time_utc time %s"',
        (READER_RULES, "tests/test_artifact_fuzz.py::test_garbled_table"),
        "a valid time no later than the row before is refused without its row and column",
    ),
    Mutant(
        "samples-non-finite-accepted", "io.py",
        '"* number %.12g finite"', '"* number %.12g"',
        (READER_RULES, STAGE_RULES),
        "a non-finite draw is refused without its row and column",
    ),
    Mutant(
        "issue-times-unchecked", "io.py",
        '"issue_time_utc time %s constant"', '"issue_time_utc time %s"',
        ("tests/test_issue_files.py::TestSetReader::test_first_file_with_two_issue_times_is_named",
         READER_RULES),
        "an issue file with a second issue time is read as one issue",
    ),
    Mutant(
        "off-hour-unchecked", "io.py",
        '"valid_time_utc time %s hours_after:issue_time_utc ', '"valid_time_utc time %s ',
        (READER_RULES, STAGE_RULES),
        "a valid time off the issue's hourly grid is truncated to a whole lead",
    ),
    Mutant(
        "leads-unchecked", "io.py",
        ' not_before:issue_time_utc hourly"', '"',
        ("tests/test_issue_files.py::TestSetReader::test_bad_leads_and_times_name_the_file",),
        "an issue file whose leads are not hourly is refused without its file, row and column",
    ),
    Mutant(
        "post-gap-unchecked", "io.py",
        ' gaps:valid_time_utc"', '"',
        (READER_RULES,),
        "a dataset whose post_gap_flag disagrees with its valid times is read as if it agreed",
    ),
    Mutant(
        "nonnegative-accepts-inf", "io.py",
        "~((v >= 0.0) & (v < np.inf))", "~(v >= 0.0)",
        (READER_RULES, STAGE_RULES),
        "an infinite measurement, forecast, density, amplitude or CRPS is read as a value",
    ),
    Mutant(
        "positive-accepts-zero", "io.py",
        "lambda v, other, first: ~(v > 0.0)", "lambda v, other, first: ~(v >= 0.0)",
        (READER_RULES, STAGE_RULES),
        "an RAO or spectra frequency of zero is read, whose response period is infinite",
    ),
    Mutant(
        "rao-frequencies-unordered", "io.py",
        " rad increasing\"", " rad\"",
        (READER_RULES,),
        "an RAO frequency no greater than the row before is refused without its row and column",
    ),
    Mutant(
        "rad-without-its-factor", "io.py",
        "np.abs(v / 16.0) * (2.0 * np.pi) > _LARGEST_16", "np.abs(v / 16.0) > _LARGEST_16",
        (READER_RULES, STAGE_RULES),
        "a frequency finite in Hz but past the largest float in rad/s is read, and overflows later",
    ),
    Mutant(
        "per-rad-without-its-factor", "io.py",
        "np.abs(v / 16.0) * _PER_RAD > _LARGEST_16", "np.abs(v / 16.0) > _LARGEST_16",
        (READER_RULES, STAGE_RULES),
        "a density finite per Hz and degree but past the largest float per rad/s and radian is read as infinite",
    ),
    Mutant(
        "invalid-measurement-read", "io.py",
        " only_where:valid nonnegative", " nonnegative",
        (READER_RULES,),
        "the value of a measurement flagged not valid is read and checked, so its nan or blank is refused",
    ),
    Mutant(
        "issue-writer-digits", "io.py",
        '"sig_heave_m number %.10g nonnegative"', '"sig_heave_m number %.9g nonnegative"',
        ("tests/test_golden.py", "tests/test_issue_files.py::TestSetWriter::test_bytes_match_per_file_writer"),
        "the issue files keep 9 significant digits, so build reads other forecasts than simulate made",
    ),
    Mutant(
        "dataset-writer-digits", "io.py",
        '"x_m number %.10g', '"x_m number %.9g',
        ("tests/test_golden.py", "tests/test_io.py::TestIssueAndDataset::test_dataset_bytes_match_row_loop"),
        "the datasets keep 9 significant digits of the forecast, so fit reads other values than build aligned",
    ),
    Mutant(
        "predictions-writer-digits", "io.py",
        '"mean_m number %.10g', '"mean_m number %.9g',
        ("tests/test_golden.py", "tests/test_io.py::TestPosteriorAndPredictions::test_predictions_equal_row_summaries"),
        "the predictive means keep 9 significant digits, so score's RMSE is not that of the means predict made",
    ),
    Mutant(
        "samples-writer-digits", "io.py",
        '"* number %.12g', '"* number %.11g',
        ("tests/test_golden.py", "tests/test_io.py::test_samples_rows_spelled_as_per_value_f_strings"),
        "the draws keep 11 significant digits, so predict and diagnose read other draws than fit made",
    ),
    Mutant(
        "issue-noise-offset", "io.py",
        '"issue_noise": lambda seed: seed + 17,', '"issue_noise": lambda seed: seed + 18,',
        ("tests/test_golden.py", "tests/test_streams.py"),
        "the forecast-error noise draws from another run's stream",
    ),
    Mutant(
        "measurement-noise-replays-jitter", "io.py",
        '"measurement_noise": lambda seed: seed + 29,', '"measurement_noise": lambda seed: seed,',
        ("tests/test_golden.py", "tests/test_streams.py::test_no_two_streams_of_a_run_draw_the_same_numbers"),
        "the measurement noise draws the numbers of the spectra jitter",
    ),
    Mutant(
        "fit-key-without-horizon", "io.py",
        '"fit": lambda seed, h: (seed, 1, h),', '"fit": lambda seed, h: (seed, 1, 0),',
        ("tests/test_golden.py", "tests/test_streams.py::test_no_two_streams_of_a_run_draw_the_same_numbers"),
        "every horizon's chains draw the same numbers",
    ),
    Mutant(
        "predict-seed-without-horizon", "io.py",
        '"predict": lambda seed, h: seed + 1000 + h,', '"predict": lambda seed, h: seed + 1000,',
        ("tests/test_golden.py", "tests/test_streams.py::test_no_two_streams_of_a_run_draw_the_same_numbers",
         "tests/test_streams.py::test_predict_draws_from_the_seed_bench_probe_recomputes"),
        "every horizon's predictive draws use the same numbers, and not the seed bench/probe.py recomputes",
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
    Mutant(
        "persistence-bound-closed", "io.py",
        "lambda v, arg: 0.0 <= v < 1.0)", "lambda v, arg: 0.0 <= v <= 1.0)",
        ("tests/test_cli.py::TestExitCodes::test_every_stage_refuses_a_value_breaking_its_rule",
         "tests/test_io.py::test_settings_built_in_code_refuse_by_key"),
        "a noise or jitter persistence of 1 is kept, whose AR(1) noise never decays",
    ),
    Mutant(
        "tp-band-lower-edge-open", "io.py",
        "lambda v, arg: _TP_MIN <= v", "lambda v, arg: _TP_MIN < v",
        ("tests/test_cli.py::TestExitCodes::test_a_value_at_the_edge_of_its_rule_is_kept",),
        "a swell whose peak period is the forecast grid's shortest is refused",
    ),
    Mutant(
        "at-least-strict", "io.py",
        "lambda v, arg: v >= float(arg)", "lambda v, arg: v > float(arg)",
        ("tests/test_cli.py::TestExitCodes::test_a_value_at_the_edge_of_its_rule_is_kept",),
        "one chain, 100 warmup or retained draws, a one-hour campaign, seed 0 and an R-hat limit of 1 are refused",
    ),
    Mutant(
        "flag-spelled-inverted", "io.py",
        "np.where(values, spelled[True], spelled[False])", "np.where(values, spelled[False], spelled[True])",
        ("tests/test_golden.py", "tests/test_io.py::test_every_table_format_round_trips_its_typed_columns"),
        "every flag is written as its opposite, so a dataset's post_gap_flag disagrees with its valid times",
    ),
    Mutant(
        "unread-cell-written", "io.py",
        "values = np.where(flags[0], values, np.nan)", "values = np.where(flags[0], values, values)",
        ("tests/test_io.py::test_every_table_format_round_trips_its_typed_columns",
         "tests/test_roundtrip.py::test_heave_records_round_trip"),
        "a measurement that is not valid is written as its value instead of nan",
    ),
    Mutant(
        "time-spelled-without-seconds", "io.py",
        'np.datetime_as_string(table, unit="s")', 'np.datetime_as_string(table, unit="m")',
        ("tests/test_golden.py", "tests/test_io.py::test_every_table_format_round_trips_its_typed_columns"),
        "every time cell drops its seconds, so a time off the minute reads back as another time",
    ),
    Mutant(
        "predictive-mean-short", "model.py",
        "chunk[:, 0] = block.mean(axis=1)", "chunk[:, 0] = block[:, :-1].mean(axis=1)",
        ("tests/test_golden.py", "tests/test_io.py::TestPosteriorAndPredictions::test_predictions_equal_row_summaries"),
        "the predictive mean leaves out each row's last draw",
    ),
    *(
        Mutant(
            f"predictive-{column}-misread", "model.py",
            "        chunk[:, 1:-1] = _sorted_quantiles(block, QUANTILE_LEVELS)\n",
            f"        chunk[:, 1:-1] = _sorted_quantiles(block, QUANTILE_LEVELS)\n        chunk[:, {j}] = block[:, {k}]\n",
            ("tests/test_golden.py",
             "tests/test_io.py::TestPosteriorAndPredictions::test_predictions_equal_row_summaries"),
            f"the {column} column is each row's {draw} draw, not the quantile interpolated between two draws",
        )
        for column, j, k, draw in (("p05", 1, "0", "smallest"), ("p50", 2, "block.shape[1] // 2", "upper middle"),
                                   ("p95", 3, "-1", "largest"))
    ),
    Mutant(
        "predictive-crps-against-the-mean", "model.py",
        "np.abs(block - obs[start : start + 64, None])", "np.abs(block - chunk[:, :1])",
        ("tests/test_golden.py", "tests/test_io.py::TestPosteriorAndPredictions::test_predictions_equal_row_summaries"),
        "the sample CRPS is taken against the predictive mean, not the measured value",
    ),
    Mutant(
        "beta-form-lags-swapped", "sampler.py",
        "b11 * c1 + b12 * c2", "b11 * c2 + b12 * c1",
        ("tests/test_sampler.py::TestConditionalsOracle::test_beta_block",),
        "the beta block's form reads the phi block's two coordinates swapped",
    ),
    Mutant(
        "phi-form-betas-swapped", "sampler.py",
        "f11 * a + f12 * d", "f11 * d + f12 * a",
        ("tests/test_sampler.py::TestConditionalsOracle::test_phi_block",),
        "the phi block's form reads the beta block's two coordinates swapped",
    ),
    Mutant(
        "time-spelled-in-local-time", "io.py",
        'np.datetime_as_string(table, unit="s")',
        'np.array([__import__("time").strftime("%Y-%m-%dT%H:%M:%S", __import__("time").localtime(t))'
        ' for t in table.astype(np.int64).tolist()])',
        ("tests/test_golden.py::test_the_environment_leaves_every_byte_alone",),
        "every time cell is spelled in the local time zone, which is UTC only where TZ is unset or UTC",
    ),
    Mutant(
        "cycle-slots-from-the-month", "synthetic.py",
        'times[0].astype("datetime64[D]")', 'times[0].astype("datetime64[M]")',
        ("tests/test_pipeline_invariants.py::test_whole_days_later_the_campaign_is_the_same",),
        "the issue cycle slots are counted from the first of the month, so a campaign's forecast noise depends on"
        " the day of the month it starts, which the golden start, 2024-06-01, does not show",
    ),
    Mutant(
        "sigma-proposal-doubled", "sampler.py",
        "        proposal = 0.5 * ss / gamma\n", "        proposal = ss / gamma\n",
        ("tests/test_sampler.py::TestConditionalsOracle::test_sigma_block",
         "tests/test_calibration.py::test_ranks_of_the_true_parameters_are_uniform"),
        "the sigma step proposes from twice its conditional's scale, so the chains do not target the posterior",
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
    return run.returncode, _failed_ids(run.stdout)


def _failed_ids(report: str) -> set[str]:
    """The node ids of pytest's -rfE summary lines in report, each read whole,
    spaces in a parametrized id included, up to the ` - ` before the reason."""
    return set(re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", report, re.MULTILINE))


def test_failed_ids_hold_their_spaces():
    # two cases whose ids share their text up to a space were read as one
    report = ("FAILED tests/t.py::test_a[2024-06-01T00:00:00, x] - AssertionError: assert 1 == 2\n"
              "FAILED tests/t.py::test_a[2024-06-01T00:00:00, y] - ValueError: row 2: a - b\n"
              "ERROR tests/t.py::test_b[c d]\n= 3 failed in 0.1s =\n")
    assert _failed_ids(report) == {"tests/t.py::test_a[2024-06-01T00:00:00, x]",
                                   "tests/t.py::test_a[2024-06-01T00:00:00, y]", "tests/t.py::test_b[c d]"}


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
