import copy
import dataclasses
import itertools
import json
import math
import os
import random
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heavecast import datasets
from heavecast import io as heavecast_io
from heavecast.datasets import ForecastIssue, HeaveRecord, HorizonDataset, read_rao, read_spectra, write_spectra
from heavecast.io import (
    _YAML_DEPTH_LIMIT,
    RunManifest,
    atomic_write_text,
    read_forecast_issue,
    read_heave_records,
    read_horizon_dataset,
    read_posterior_samples,
    read_predictions,
    write_forecast_issue,
    write_heave_records,
    write_horizon_dataset,
    write_posterior_samples,
    write_predictions,
    write_rao,
    write_score_reports,
)
from heavecast.model import QUANTILE_LEVELS, PosteriorSamples, PredictiveDraws, predictive_summaries
from heavecast.sampler import SamplerConfig
from heavecast.scoring import ScoreReport
from heavecast.spectral import RaoCurve, SpectrumSeries, midpoint_widths
from heavecast.synthetic import ErrorInjection, SwellEvent, SwellScenario, generate_spectra
from test_predictive import reference_crps

ROOT = Path(__file__).resolve().parents[1]
T0 = np.datetime64("2024-06-01T00:00:00")
HOUR = np.timedelta64(1, "h")


def test_readme_file_formats_are_the_readers_and_writers_headers():
    # the README's File formats table against the one header constant that
    # each file's reader requires and its writer writes
    section = (ROOT / "README.md").read_text().split("\n## File formats\n", 1)[1]
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", section, flags=re.M)
    assert {name: header.split(", ") for name, header in rows} == {
        "rao.csv": datasets._RAO_HEADER,
        "spectra.csv": datasets._SPECTRA_HEADER,
        "measurements.csv": datasets._HEAVE_HEADER,
        "issues/issue_NNNN.csv": datasets._ISSUE_HEADER,
        "dataset_hHHH.csv": heavecast_io._DATASET_HEADER,
        "predictions_<model>_hHHH.csv": heavecast_io._PREDICTIONS_HEADER,
    }


class TestAtomicWrite:
    def test_creates_parents_and_no_temp_left(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        assert list(target.parent.glob("*.tmp")) == []

    def test_overwrites(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "one\n")
        atomic_write_text(target, "two\n")
        assert target.read_text() == "two\n"

    def test_follows_the_umask_without_setting_it(self, tmp_path, monkeypatch):
        # setting the umask, even to read it, would change the mode of a file another thread creates meanwhile
        def refuse(mask):
            raise AssertionError("os.umask called")

        target = tmp_path / "out.txt"
        previous = os.umask(0o027)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(os, "umask", refuse)
                atomic_write_text(target, "hello\n")
        finally:
            os.umask(previous)
        assert target.read_text() == "hello\n"
        assert target.stat().st_mode & 0o777 == 0o640


class TestRaoRoundTrip:
    def test_round_trip(self, tmp_path):
        rao = RaoCurve(freqs=np.linspace(0.1, 2.0, 40), amplitudes=np.linspace(0.0, 2.0, 40))
        p = tmp_path / "rao.csv"
        write_rao(p, rao)
        back = read_rao(p)
        np.testing.assert_allclose(back.freqs, rao.freqs, rtol=1e-9)
        np.testing.assert_allclose(back.amplitudes, rao.amplitudes, rtol=1e-9)

    def test_header_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("omega, amp\n0.1, 1.0\n")
        with pytest.raises(ValueError):
            read_rao(p)


class TestSpectraRoundTrip:
    def make_spectra(self, n=2):
        rng = np.random.default_rng(0)
        return SpectrumSeries(
            times=T0 + np.arange(n) * HOUR,
            freqs=2 * np.pi * np.linspace(0.05, 0.5, 6),
            dirs=np.deg2rad(np.array([15.0, 105.0, 195.0, 285.0])),
            density=rng.uniform(0.0, 4.0, (n, 6, 4)),
        )

    def test_round_trip(self, tmp_path):
        spectra = self.make_spectra()
        p = tmp_path / "spec.csv"
        write_spectra(p, spectra)
        back = read_spectra(p)
        assert isinstance(back, SpectrumSeries)
        assert len(back) == 2
        np.testing.assert_array_equal(back.times, spectra.times)
        np.testing.assert_allclose(back.freqs, spectra.freqs, rtol=1e-9)
        np.testing.assert_allclose(back.dirs, spectra.dirs, rtol=1e-9)
        np.testing.assert_allclose(back.density, spectra.density, rtol=1e-8)

    def test_slice_round_trip_and_rewrite(self, tmp_path):
        # a written-and-read series writes the same file again
        spectra = self.make_spectra(n=5)
        write_spectra(tmp_path / "a.csv", spectra[1:4])
        back = read_spectra(tmp_path / "a.csv")
        np.testing.assert_array_equal(back.times, spectra.times[1:4])
        np.testing.assert_allclose(back.density, spectra.density[1:4], rtol=1e-8)
        np.testing.assert_array_equal(back.freq_widths, midpoint_widths(back.freqs))
        write_spectra(tmp_path / "b.csv", back)
        assert (tmp_path / "b.csv").read_text() == (tmp_path / "a.csv").read_text()

    def test_read_peak_stays_within_nine_times_the_file(self, tmp_path):
        # a reader that held each cell twice, as split and stripped, peaked at 11 times the file's size
        p = tmp_path / "spectra.csv"
        datasets.write_spectra(p, generate_spectra(SwellScenario(duration_h=48)))
        read_spectra(p)  # imports happen untraced
        tracemalloc.start()
        try:
            read_spectra(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * p.stat().st_size, peak / p.stat().st_size

    def test_mixed_grids_rejected(self, tmp_path):
        p = tmp_path / "spec.csv"
        lines = ["timestamp_utc, freq_hz, dir_deg, density_m2_s_per_deg"]
        for stamp, freqs in (("2024-06-01T00:00:00", (0.1, 0.2)), ("2024-06-01T01:00:00", (0.1, 0.3))):
            lines += [f"{stamp}, {f}, {d}, 1.0" for f in freqs for d in (10, 20)]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="inconsistent grid"):
            read_spectra(p)

    def test_irregular_grid_rejected(self, tmp_path):
        p = tmp_path / "spec.csv"
        lines = [
            "timestamp_utc, freq_hz, dir_deg, density_m2_s_per_deg",
            "2024-06-01T00:00:00, 0.1, 10, 1.0",
            "2024-06-01T00:00:00, 0.1, 20, 1.0",
            "2024-06-01T00:00:00, 0.2, 10, 1.0",
        ]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_spectra(p)


class TestHeaveRecords:
    def test_heave_record_round_trip(self, tmp_path):
        records = [
            HeaveRecord(timestamp=T0, sig_heave=0.5, valid=True),
            HeaveRecord(timestamp=T0 + HOUR, sig_heave=np.nan, valid=False),
        ]
        p = tmp_path / "heave.csv"
        write_heave_records(p, records)
        back = read_heave_records(p)
        assert back[0].sig_heave == pytest.approx(0.5)
        assert not back[1].valid and np.isnan(back[1].sig_heave)


class TestIssueAndDataset:
    def test_issue_round_trip(self, tmp_path):
        issue = ForecastIssue(
            issue_time=T0, horizon_hours=np.arange(10), values=np.linspace(1.0, 2.0, 10)
        )
        p = tmp_path / "issue.csv"
        write_forecast_issue(p, issue)
        back = read_forecast_issue(p)
        assert back.issue_time == issue.issue_time
        np.testing.assert_array_equal(back.horizon_hours, issue.horizon_hours)
        np.testing.assert_allclose(back.values, issue.values, rtol=1e-9)

    @pytest.mark.parametrize("issue_time", ["2024-06-01T06:00:00", "2024-12-31T18:00:00"])
    def test_issue_round_trip_exact(self, tmp_path, issue_time):
        # a non-midnight issue of the 00/12Z length (241 leads) crossing a day
        # and, for the second, a year boundary; 10-digit values survive exactly
        rng = np.random.default_rng(3)
        t0 = np.datetime64(issue_time, "s")
        issue = ForecastIssue(
            issue_time=t0, horizon_hours=np.arange(241), values=np.round(rng.uniform(0.0, 4.0, 241), 9)
        )
        p = tmp_path / "issue.csv"
        write_forecast_issue(p, issue)
        lines = p.read_text().splitlines()
        assert len(lines) == 242
        # the row-by-row format the column writer replaced
        for k, line in enumerate(lines[1:]):
            assert line == f"{t0}, {t0 + k * HOUR}, {float(issue.values[k]):.10g}"
        back = read_forecast_issue(p)
        assert back.issue_time == t0
        np.testing.assert_array_equal(back.horizon_hours, issue.horizon_hours)
        np.testing.assert_array_equal(back.values, issue.values)
        write_forecast_issue(tmp_path / "again.csv", back)
        assert (tmp_path / "again.csv").read_bytes() == p.read_bytes()

    def test_issue_times_with_z_suffix(self, tmp_path):
        p = tmp_path / "issue.csv"
        p.write_text(
            "issue_time_utc, valid_time_utc, sig_heave_m\n"
            "2024-06-01T12:00:00Z, 2024-06-01T12:00:00Z, 1.5\n"
            "2024-06-01T12:00:00Z, 2024-06-01T13:00:00Z, 1.25\n"
        )
        issue = read_forecast_issue(p)
        assert issue.issue_time == T0 + 12 * HOUR
        np.testing.assert_array_equal(issue.horizon_hours, [0, 1])
        np.testing.assert_array_equal(issue.values, [1.5, 1.25])

    def test_issue_time_spelled_two_ways(self, tmp_path):
        # the distinct spellings are parsed: with and without Z name one time
        p = tmp_path / "issue.csv"
        p.write_text(
            "issue_time_utc, valid_time_utc, sig_heave_m\n"
            "2024-06-01T12:00:00Z, 2024-06-01T12:00:00, 1.5\n"
            "2024-06-01T12:00:00, 2024-06-01T13:00:00, 1.25\n"
            " 2024-06-01T12:00:00Z , 2024-06-01T14:00:00Z, 1.0\n"
        )
        issue = read_forecast_issue(p)
        assert issue.issue_time == T0 + 12 * HOUR
        np.testing.assert_array_equal(issue.horizon_hours, [0, 1, 2])

    @pytest.mark.parametrize("bad", ["1.5x", "", "true"])
    def test_bad_value_cell_rejected(self, tmp_path, bad):
        p = tmp_path / "issue.csv"
        p.write_text(
            "issue_time_utc, valid_time_utc, sig_heave_m\n"
            "2024-06-01T00:00:00, 2024-06-01T00:00:00, 1.5\n"
            f"2024-06-01T00:00:00, 2024-06-01T01:00:00, {bad}\n"
        )
        with pytest.raises(ValueError) as exc:
            read_forecast_issue(p)
        assert str(exc.value) == f"{p}, row 2: sig_heave_m must be a number, found {bad!r}"

    def test_multiple_issue_times_rejected(self, tmp_path):
        p = tmp_path / "issue.csv"
        p.write_text(
            "issue_time_utc, valid_time_utc, sig_heave_m\n"
            "2024-06-01T00:00:00, 2024-06-01T00:00:00, 1.5\n"
            "2024-06-01T06:00:00, 2024-06-01T07:00:00, 1.25\n"
        )
        refused = "row 2: issue_time_utc must be the first row's issue time, found '2024-06-01T06:00:00'$"
        with pytest.raises(ValueError, match=refused):
            read_forecast_issue(p)

    def test_dataset_round_trip(self, tmp_path):
        times = np.array([T0, T0 + HOUR, T0 + 3 * HOUR], dtype="datetime64[s]")
        ds = HorizonDataset(
            horizon=6,
            valid_times=times,
            x=np.array([1.0, 1.1, 1.2]),
            y=np.array([0.9, 1.0, 1.3]),
            issue_times=np.array([T0 - 6 * HOUR] * 3, dtype="datetime64[s]"),
        )
        p = tmp_path / "ds.csv"
        write_horizon_dataset(p, ds)
        back = read_horizon_dataset(p, horizon=6)
        np.testing.assert_array_equal(back.valid_times, ds.valid_times)
        np.testing.assert_allclose(back.x, ds.x)
        np.testing.assert_allclose(back.y, ds.y)
        # the gap between rows 1 and 2 is reconstructed
        np.testing.assert_array_equal(back.post_gap, [True, False, True])

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["1", "0", "abc"], "row 3: post_gap_flag must be 0 or 1, found 'abc'"),
            (["1", "nan", "1"], "row 2: post_gap_flag must be 0 or 1, found 'nan'"),
            (["1", "0", ""], "row 3: post_gap_flag must be 0 or 1, found ''"),
            (["1", "1", "1"], "row 2: post_gap_flag is 1, but the valid times make it 0"),
            (["0", "0", "1"], "row 1: post_gap_flag is 0, but the valid times make it 1"),
        ],
    )
    def test_dataset_post_gap_flag_is_checked(self, tmp_path, flags, message):
        # the flag is recomputed from the valid times (1, 0, 1 here), so a
        # cell that is not that flag means the file is not what was written
        rows = [
            ("2024-06-01T00:00:00", "1.0", "0.9", "2024-05-31T18:00:00"),
            ("2024-06-01T01:00:00", "1.1", "1.0", "2024-05-31T18:00:00"),
            ("2024-06-01T03:00:00", "1.2", "1.3", "2024-05-31T18:00:00"),
        ]
        p = tmp_path / "ds.csv"
        p.write_text(
            "valid_time_utc, x_m, y_m, issue_time_utc, post_gap_flag\n"
            + "".join(", ".join((*cells, flag)) + "\n" for cells, flag in zip(rows, flags))
        )
        with pytest.raises(ValueError) as exc:
            read_horizon_dataset(p, horizon=6)
        assert str(exc.value) == f"{p}, {message}"

    @pytest.mark.parametrize(
        "edit, message",
        [
            ((1, 1, "nan"), "row 2: x_m must be a finite number, found 'nan'"),
            ((2, 2, "inf"), "row 3: y_m must be a finite number, found 'inf'"),
            ((0, 2, "1e999"), "row 1: y_m must be a finite number, found '1e999'"),
            ((1, 1, "-inf"), "row 2: x_m must be a finite number, found '-inf'"),
            ((2, 0, "2024-06-01T01:00:00"), "row 3: valid_time_utc must be later than the row before, "
                                            "found '2024-06-01T01:00:00'"),
            ((1, 0, "2024-05-31T23:00:00"), "row 2: valid_time_utc must be later than the row before, "
                                            "found '2024-05-31T23:00:00'"),
        ],
    )
    def test_dataset_rows_name_the_bad_cell(self, tmp_path, edit, message):
        # these were refused as "x and y must be finite in every row" and
        # "valid_times must be strictly increasing", naming neither row nor column
        rows = [
            ["2024-06-01T00:00:00", "1.0", "0.9", "2024-05-31T18:00:00", "1"],
            ["2024-06-01T01:00:00", "1.1", "1.0", "2024-05-31T18:00:00", "0"],
            ["2024-06-01T03:00:00", "1.2", "1.3", "2024-05-31T18:00:00", "1"],
        ]
        row, col, cell = edit
        rows[row][col] = cell
        p = tmp_path / "ds.csv"
        p.write_text("valid_time_utc, x_m, y_m, issue_time_utc, post_gap_flag\n"
                     + "".join(", ".join(r) + "\n" for r in rows))
        with pytest.raises(ValueError) as exc:
            read_horizon_dataset(p, horizon=6)
        assert str(exc.value) == f"{p}, {message}"

    def test_dataset_bytes_match_row_loop(self, tmp_path):
        # hours with gaps, values from tiny to large and with 10+ digits
        rng = np.random.default_rng(4)
        n = 500
        steps = rng.choice([1, 1, 1, 2, 5], n)
        times = (T0 + np.cumsum(steps) * HOUR).astype("datetime64[s]")
        x = rng.uniform(0.0, 4.0, n) * 10.0 ** rng.integers(-12, 3, n)
        ds = HorizonDataset(
            horizon=24, valid_times=times, x=x, y=rng.normal(1.0, 0.7, n),
            issue_times=(times - rng.integers(24, 36, n) * HOUR).astype("datetime64[s]"),
        )
        p = tmp_path / "ds.csv"
        write_horizon_dataset(p, ds)
        # the row-by-row format the column writer replaced
        lines = ["valid_time_utc, x_m, y_m, issue_time_utc, post_gap_flag"]
        for i in range(len(ds)):
            lines.append(
                f"{ds.valid_times[i]}, {float(ds.x[i]):.10g}, {float(ds.y[i]):.10g}, "
                f"{ds.issue_times[i]}, {int(ds.post_gap[i])}"
            )
        assert p.read_text() == "\n".join(lines) + "\n"


# one good file per reader; its last data row loses a cell in the test below
SHORT_ROW_CASES = {
    "rao": (read_rao, "freq_hz, amplitude\n0.1, 1.0\n0.2, 1.5\n"),
    "spectra": (
        read_spectra,
        "timestamp_utc, freq_hz, dir_deg, density_m2_s_per_deg\n"
        + "".join(f"2024-06-01T00:00:00, {f}, {d}, 1.0\n" for f in (0.1, 0.2) for d in (10, 20)),
    ),
    "measurements": (
        read_heave_records,
        "timestamp_utc, sig_heave_m, valid\n2024-06-01T00:00:00, 0.5, true\n2024-06-01T01:00:00, 0.6, true\n",
    ),
    "issue": (
        read_forecast_issue,
        "issue_time_utc, valid_time_utc, sig_heave_m\n2024-06-01T00:00:00, 2024-06-01T00:00:00, 1.0\n"
        "2024-06-01T00:00:00, 2024-06-01T01:00:00, 1.1\n",
    ),
    "dataset": (
        lambda p: read_horizon_dataset(p, horizon=0),
        "valid_time_utc, x_m, y_m, issue_time_utc, post_gap_flag\n"
        "2024-06-01T00:00:00, 1.0, 0.9, 2024-06-01T00:00:00, 1\n"
        "2024-06-01T01:00:00, 1.1, 1.0, 2024-06-01T00:00:00, 0\n",
    ),
    "samples": (read_posterior_samples, "chain, beta0, sigma\n0, 0.1, 0.5\n1, 0.2, 0.6\n"),
}


# blanks a hand-edited file may put around a cell
BLANKS = ["", " \t"]


def with_last_row_cell(text: str, column: str, cell: str) -> str:
    """text with the cell of column in its last row replaced."""
    lines = text.splitlines()
    cells = lines[-1].split(", ")
    cells[lines[0].split(", ").index(column)] = cell
    lines[-1] = ", ".join(cells)
    return "\n".join(lines) + "\n"


def as_compared(value):
    """A reader's result as plain values: each array as its bytes, anything else as its repr."""
    if isinstance(value, list):
        return [as_compared(v) for v in value]
    return {k: v.tobytes() if isinstance(v, np.ndarray) else repr(v) for k, v in vars(value).items()}


@pytest.mark.parametrize("kind", sorted(SHORT_ROW_CASES))
def test_blanks_around_cells_read_as_the_writers_spelling(tmp_path, kind):
    reader, text = SHORT_ROW_CASES[kind]
    # spaces and tabs before, after and in place of the writer's one space after each comma
    spaced = "".join(" \t" + " ,\t ".join(c.strip() for c in line.split(",")) + "\t \n" for line in text.splitlines())
    plain, padded = tmp_path / f"{kind}.csv", tmp_path / f"{kind}_padded.csv"
    plain.write_text(text)
    padded.write_text(spaced)
    assert as_compared(reader(padded)) == as_compared(reader(plain))


@pytest.mark.parametrize(
    "kind, column, cell, message",
    [
        ("spectra", "freq_hz", "-0.1", "row 4: freq_hz must be positive"),
        ("measurements", "sig_heave_m", "-0.5", "row 2: sig_heave_m must be a finite nonnegative number"),
        ("measurements", "valid", "yes", "row 2: valid must be true or false"),
        ("issue", "sig_heave_m", "-1", "row 2: sig_heave_m must be a finite nonnegative number"),
        ("dataset", "post_gap_flag", "2", "row 2: post_gap_flag must be 0 or 1"),
    ],
)
@pytest.mark.parametrize("blank", BLANKS)
def test_refused_cell_is_quoted_without_its_blanks(tmp_path, kind, column, cell, message, blank):
    reader, text = SHORT_ROW_CASES[kind]
    p = tmp_path / f"{kind}.csv"
    p.write_text(with_last_row_cell(text, column, blank + cell + blank[::-1]))
    with pytest.raises(ValueError) as exc:
        reader(p)
    assert str(exc.value) == f"{p}, {message}, found {cell!r}"


# numpy's datetime64 reads these as the wall-clock time or as NaT
WALL_CLOCK_SPELLINGS = ["now", "NOW", "nowZ", "today", "Today", "NaT", "nat", ""]


@pytest.mark.parametrize("blank", BLANKS)
@pytest.mark.parametrize("spelling", WALL_CLOCK_SPELLINGS)
@pytest.mark.parametrize("kind", sorted(set(SHORT_ROW_CASES) - {"rao", "samples"}))
def test_wall_clock_time_cell_names_the_file(tmp_path, kind, spelling, blank):
    reader, text = SHORT_ROW_CASES[kind]
    lines = text.splitlines()
    # each of these files starts a row with a time; the message names its row and column
    # and quotes it without its blanks
    lines[-1] = ", ".join([blank + spelling + blank] + lines[-1].split(", ")[1:])
    p = tmp_path / f"{kind}.csv"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        reader(p)
    column = lines[0].split(", ")[0]
    assert str(exc.value) == f"{p}, row {len(lines) - 1}: {column} must be a time, found {spelling!r}"


# the time columns of SHORT_ROW_CASES
TIME_COLUMNS = [
    ("spectra", "timestamp_utc"),
    ("measurements", "timestamp_utc"),
    ("issue", "issue_time_utc"),
    ("issue", "valid_time_utc"),
    ("dataset", "valid_time_utc"),
    ("dataset", "issue_time_utc"),
]
# numpy reads these as the first of a month, the year 20240601, the first
# of June, and 04:00 UTC (with a UserWarning); none is in the README grammar
OFF_GRAMMAR_SPELLINGS = ["2024", "2024-06", "20240601", "+2024-06-01", "2024-06-01T05:00:00+01:00"]


@pytest.mark.parametrize("spelling", OFF_GRAMMAR_SPELLINGS)
@pytest.mark.parametrize("kind, column", TIME_COLUMNS)
def test_time_cell_outside_the_grammar_names_file_column_and_cell(tmp_path, kind, column, spelling):
    reader, text = SHORT_ROW_CASES[kind]
    p = tmp_path / f"{kind}.csv"
    p.write_text(with_last_row_cell(text, column, f" {spelling}\t"))
    with pytest.raises(ValueError) as exc:
        reader(p)
    row = len(text.splitlines()) - 1
    assert str(exc.value) == f"{p}, row {row}: {column} must be a time, found {spelling!r}"


# in the grammar, but no date or hour numpy knows: its own message named neither file nor column
NO_DATE_SPELLINGS = ["2024-13-01", "2024-02-30T00", "2024-06-01T25", "2024-06-01T00:60"]


@pytest.mark.parametrize("spelling", NO_DATE_SPELLINGS)
@pytest.mark.parametrize("kind, column", TIME_COLUMNS)
def test_time_cell_in_the_grammar_but_no_date_names_file_row_and_column(tmp_path, kind, column, spelling):
    reader, text = SHORT_ROW_CASES[kind]
    p = tmp_path / f"{kind}.csv"
    p.write_text(with_last_row_cell(text, column, f"\t{spelling}Z "))
    with pytest.raises(ValueError) as exc:
        reader(p)
    row = len(text.splitlines()) - 1
    assert str(exc.value) == f"{p}, row {row}: {column} must be a time, found '{spelling}Z'"


def test_refused_row_counts_data_rows_and_skips_blank_lines(tmp_path):
    # a short row is named by its line in the file, a refused cell by its data row
    p = tmp_path / "measurements.csv"
    text = "\ntimestamp_utc, sig_heave_m, valid\n\n2024-06-01T00:00:00, 0.5, true\n\n2024-06-01T01:00:00, {}, true\n"
    p.write_text(text.format("x"))
    with pytest.raises(ValueError) as exc:
        read_heave_records(p)
    assert str(exc.value) == f"{p}, row 2: sig_heave_m must be a number, found 'x'"
    p.write_text(text.format("0.6").replace(", 0.5, true", ", 0.5"))
    with pytest.raises(ValueError) as exc:
        read_heave_records(p)
    assert str(exc.value) == f"{p}, line 4: expected 3 cells, found 2"


def test_first_bad_time_row_is_named_whichever_rule_it_breaks(tmp_path):
    # a date numpy refuses at row 2 comes before a spelling outside the grammar at row 3
    p = tmp_path / "measurements.csv"
    p.write_text("timestamp_utc, sig_heave_m, valid\n2024-06-01T00:00:00, 0.5, true\n"
                 "2024-13-01, 0.5, true\nnow, 0.5, true\n2024-13-01, 0.5, true\n")
    with pytest.raises(ValueError) as exc:
        read_heave_records(p)
    assert str(exc.value) == f"{p}, row 2: timestamp_utc must be a time, found '2024-13-01'"


def test_chain_past_the_integer_range_is_refused(tmp_path):
    # numpy raised OverflowError, which exits 3, not a refusal of the cell
    p = tmp_path / "samples.csv"
    p.write_text("chain, beta0, sigma\n0, 0.1, 0.5\n99999999999999999999999, 0.2, 0.6\n")
    with pytest.raises(ValueError) as exc:
        read_posterior_samples(p)
    assert str(exc.value) == f"{p}, row 2: chain must be an integer, found '99999999999999999999999'"


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_non_finite_draw_is_refused_by_row_and_column(tmp_path, cell):
    p = tmp_path / "samples.csv"
    p.write_text(f"chain, beta0, sigma\n0, 0.1, 0.5\n0, 0.2, 0.6\n1, 0.3, {cell}\n")
    with pytest.raises(ValueError) as exc:
        read_posterior_samples(p)
    assert str(exc.value) == f"{p}, row 3: sigma must be a finite number, found {cell!r}"


# the column check before cells were checked one at a time: one match of the
# distinct cells joined by line breaks, when no cell held a line break of its own
JOINED_TIMES = re.compile(
    r"(?:{0}\n)*{0}".format(r"\d{4}-\d\d-\d\d(?:[T ]\d\d(?::\d\d(?::\d\d(?:\.\d+)?)?)?)?Z?"), re.ASCII
)
GRAMMAR_TIMES = st.builds(
    lambda day, clock, zone, blank: f"{blank}{day}{clock}{zone}{blank}",
    st.sampled_from(["2024-06-01", "1999-12-31", "2024-13-01"]),  # month 13 is in the grammar, though no date
    st.sampled_from(["", "T05", " 05", "T05:30", "T05:30:00", "T05:30:00.25"]),
    st.sampled_from(["", "Z"]),
    st.sampled_from(["", " ", "\t"]),
)
TIME_PIECES = ["2024-06-01", "T", " ", "05", ":00", ":30", ".5", "Z", "\n", "\t", "1", "-", "+01:00", "\u0663", "now"]
# one character of a grammar time replaced, removed or doubled, the pieces above joined, or any text
OTHER_CELLS = (
    st.builds(lambda t, i, c: t[:i] + c.replace("*", t[i : i + 1] * 2) + t[i + 1 :], GRAMMAR_TIMES,
              st.integers(0, 30), st.sampled_from(["\u0663", "\n", "x", "", "*"]))
    | st.lists(st.sampled_from(TIME_PIECES), max_size=6).map("".join)
    | st.text(max_size=12)
)


@given(cells=st.lists(GRAMMAR_TIMES, max_size=5), odd=st.none() | OTHER_CELLS, at=st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_time_cells_are_checked_as_the_joined_match_checked_them(cells, odd, at):
    column = cells if odd is None else [*cells[:at], odd, *cells[at:]]
    spellings = [c.strip() for c in dict.fromkeys(column)]
    text = "\n".join(spellings)
    in_grammar = not spellings or (text.count("\n") < len(spellings) and JOINED_TIMES.fullmatch(text))
    # a cell in the grammar may still be no date numpy knows, such as month 13
    no_date = {c for c in spellings if JOINED_TIMES.fullmatch(c) and "\n" not in c and not numpy_reads(c)}
    expected = None
    if not in_grammar or no_date:
        row = next(k for k, c in enumerate(column)
                   if "\n" in c.strip() or not JOINED_TIMES.fullmatch(c.strip()) or c.strip() in no_date)
        expected = f"f.csv, row {row + 1}: t must be a time, found {column[row].strip()!r}"
    try:
        heavecast_io._parse_times(column, "f.csv", "t")
        refused = None
    except ValueError as exc:
        refused = str(exc)
    assert refused == expected


def numpy_reads(spelling: str) -> bool:
    try:
        np.datetime64(spelling.removesuffix("Z"), "s")
    except ValueError:
        return False
    return True


@pytest.mark.parametrize(
    "spell",
    [
        lambda t: t.replace("T", " "),  # a space for the T
        lambda t: t[:-3],  # no seconds
        lambda t: t[:-6],  # the hour alone
        lambda t: t + ".75",  # a fraction, dropped
        lambda t: t + "Z",
        lambda t: " \t" + t.replace("T", " ") + "Z\t ",  # blanks around
    ],
    ids=["space", "minutes", "hour", "fraction", "Z", "blanks"],
)
@pytest.mark.parametrize("kind, column", TIME_COLUMNS)
def test_time_cells_in_the_grammar_read_as_the_writers_spelling(tmp_path, kind, column, spell):
    reader, text = SHORT_ROW_CASES[kind]
    canonical = text.splitlines()[-1].split(", ")[text.splitlines()[0].split(", ").index(column)]
    plain, spelled = tmp_path / f"{kind}.csv", tmp_path / f"{kind}_spelled.csv"
    plain.write_text(text)
    spelled.write_text(with_last_row_cell(text, column, spell(canonical)))
    assert as_compared(reader(spelled)) == as_compared(reader(plain))


class TestShortRows:
    @pytest.mark.parametrize("kind", sorted(SHORT_ROW_CASES))
    def test_short_row_names_file_and_line(self, tmp_path, kind):
        reader, text = SHORT_ROW_CASES[kind]
        p = tmp_path / f"{kind}.csv"
        p.write_text(text)
        reader(p)  # the intact file reads
        lines = text.splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"{kind}\.csv, line {len(lines)}: expected \d+ cells, found \d+"):
            reader(p)

    def test_blank_lines_do_not_shift_line_numbers(self, tmp_path):
        p = tmp_path / "rao.csv"
        p.write_text("freq_hz, amplitude\n\n0.1, 1.0\n0.2\n")
        with pytest.raises(ValueError, match="line 4"):
            read_rao(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "rao.csv"
        p.write_text("\n  \nfreq_hz, amplitude\n0.1, 1.0\n \n\n0.2,2.5\n\n")
        rao = read_rao(p)
        np.testing.assert_allclose(rao.freqs, 2 * np.pi * np.array([0.1, 0.2]))
        np.testing.assert_array_equal(rao.amplitudes, [1.0, 2.5])

    def test_long_row_and_short_row_that_cancel(self, tmp_path):
        # the cell total is right, but no row may borrow a cell from another
        p = tmp_path / "measurements.csv"
        p.write_text(
            "timestamp_utc, sig_heave_m, valid\n"
            "2024-06-01T00:00:00, 0.5, true, 7\n"
            "2024-06-01T01:00:00, 0.6\n"
        )
        with pytest.raises(ValueError, match=r"measurements\.csv, line 2: expected 3 cells, found 4"):
            read_heave_records(p)


# the number columns of each reader's file in SHORT_ROW_CASES
NUMBER_COLUMNS = [
    ("rao", "freq_hz"),
    ("rao", "amplitude"),
    ("spectra", "freq_hz"),
    ("spectra", "dir_deg"),
    ("spectra", "density_m2_s_per_deg"),
    ("measurements", "sig_heave_m"),
    ("issue", "sig_heave_m"),
    ("dataset", "x_m"),
    ("dataset", "y_m"),
    ("samples", "chain"),
    ("samples", "beta0"),
    ("samples", "sigma"),
]


@pytest.mark.parametrize("blank", BLANKS)
@pytest.mark.parametrize("kind, column", NUMBER_COLUMNS)
def test_bad_number_cell_names_the_file_and_column(tmp_path, kind, column, blank):
    reader, text = SHORT_ROW_CASES[kind]
    p = tmp_path / f"{kind}.csv"
    p.write_text(with_last_row_cell(text, column, blank + "x" + blank))
    # the chain is an integer; the cell is quoted without its blanks
    rule = "an integer" if column == "chain" else "a number"
    with pytest.raises(ValueError) as exc:
        reader(p)
    assert str(exc.value) == f"{p}, row {len(text.splitlines()) - 1}: {column} must be {rule}, found 'x'"


@pytest.mark.parametrize(
    "kind, reader, text, message",
    [
        ("rao", read_rao, "freq_hz, amplitude\n0.2, 1.0\n0.1, 1.5\n", "strictly increasing"),
        # an infinite last frequency passed, and its bin width came out NaN
        ("rao", read_rao, "freq_hz, amplitude\n0.1, 1.0\ninf, 1.5\n", "frequencies must be finite"),
        (
            "spectra",
            read_spectra,
            "timestamp_utc, freq_hz, dir_deg, density_m2_s_per_deg\n"
            + "".join(f"2024-06-01T00:00:00, {f}, {d}, -1.0\n" for f in (0.1, 0.2) for d in (10, 20)),
            "density must be finite and nonnegative",
        ),
        (
            "measurements",
            read_heave_records,
            "timestamp_utc, sig_heave_m, valid\n2024-06-01T00:00:00, -0.5, true\n",
            "sig_heave_m must be a finite nonnegative number",
        ),
    ],
)
def test_value_error_of_the_built_type_names_the_file(tmp_path, kind, reader, text, message):
    p = tmp_path / f"{kind}.csv"
    p.write_text(text)
    # the heave-record reader checks its values itself, and names the row too
    with pytest.raises(ValueError, match=rf"{kind}\.csv(, row \d+)?: .*{message}"):
        reader(p)


class TestValidCells:
    def test_any_case_of_true_and_false_reads(self, tmp_path):
        p = tmp_path / "measurements.csv"
        p.write_text(
            "timestamp_utc, sig_heave_m, valid\n"
            "2024-06-01T00:00:00, 0.5, TRUE\n"
            "2024-06-01T01:00:00, nan, False\n"
            "2024-06-01T02:00:00, 0.7, tRuE\n"
        )
        assert [r.valid for r in read_heave_records(p)] == [True, False, True]

    @pytest.mark.parametrize("cell", ["yes", "1", "ture", "", "no", "0", "YES"])
    def test_other_cells_name_the_file_and_row(self, tmp_path, cell):
        # these used to read as false, which silently dropped the measurement; the cell is quoted as written
        p = tmp_path / "measurements.csv"
        p.write_text(
            "timestamp_utc, sig_heave_m, valid\n"
            "2024-06-01T00:00:00, 0.5, true\n"
            f"2024-06-01T01:00:00, 0.6, {cell}\n"
        )
        message = f"measurements.csv, row 2: valid must be true or false, found {cell!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_heave_records(p)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999", "-0.5", "-0"])
    def test_valid_row_value_not_finite_and_nonnegative_names_the_file_and_row(self, tmp_path, cell):
        # an infinite value was read, and build then said only "x and y must be finite in every row"
        p = tmp_path / "measurements.csv"
        p.write_text(
            "timestamp_utc, sig_heave_m, valid\n"
            "2024-06-01T00:00:00, inf, false\n"
            f"2024-06-01T01:00:00, {cell}, TRUE\n"
        )
        if cell == "-0":  # negative zero is zero
            assert read_heave_records(p)[1].sig_heave == 0.0
            return
        message = f"{p}, row 2: sig_heave_m must be a finite nonnegative number, found {cell!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_heave_records(p)

    def test_invalid_row_value_is_not_read(self, tmp_path):
        p = tmp_path / "measurements.csv"
        p.write_text("timestamp_utc, sig_heave_m, valid\n2024-06-01T00:00:00, ?, false\n")
        (record,) = read_heave_records(p)
        assert not record.valid and np.isnan(record.sig_heave)


class TestSpectraGrid:
    HEADER = "timestamp_utc, freq_hz, dir_deg, density_m2_s_per_deg"

    def test_duplicate_row_hiding_a_missing_cell_rejected(self, tmp_path):
        # the (0.2, 20) cell is missing and (0.1, 10) appears twice: the count is right
        p = tmp_path / "spec.csv"
        rows = [("0.1", "10", "1.0"), ("0.1", "20", "2.0"), ("0.2", "10", "3.0"), ("0.1", "10", "4.0")]
        p.write_text("\n".join([self.HEADER] + [f"2024-06-01T00:00:00, {f}, {d}, {v}" for f, d, v in rows]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: irregular grid at 2024-06-01T00:00:00")):
            read_spectra(p)

    def test_rows_in_any_order_read_as_sorted(self, tmp_path):
        stamps = ("2024-06-01T01:00:00", "2024-06-01T00:00:00")
        lines = [f"{t}, {f}, {d}, {k}" for k, (t, f, d) in enumerate(itertools.product(stamps, (0.2, 0.1), (20, 10)))]
        random.Random(3).shuffle(lines)
        p = tmp_path / "spec.csv"
        p.write_text("\n".join([self.HEADER] + lines) + "\n")
        back = read_spectra(p)
        np.testing.assert_array_equal(back.times, np.array(stamps[::-1], dtype="datetime64[s]"))
        # time 0 held 4..7 and time 1 held 0..3, each as (0.2, 20), (0.2, 10), (0.1, 20), (0.1, 10)
        per_deg = back.density / ((1.0 / (2 * np.pi)) * (180.0 / np.pi))
        np.testing.assert_allclose(per_deg, [[[7, 6], [5, 4]], [[3, 2], [1, 0]]])

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["nan, 10"], "row 1: freq_hz must be a finite number, found 'nan'"),
            (["0.1, 10", "0.2,  inf"], "row 2: dir_deg must be a finite number, found 'inf'"),
            (["0.1, 10", "-inf, 20"], "row 2: freq_hz must be a finite number, found '-inf'"),
        ],
    )
    def test_non_finite_grid_value_rejected(self, tmp_path, rows, message):
        p = tmp_path / "spec.csv"
        p.write_text("\n".join([self.HEADER, *(f"2024-06-01T00:00:00, {r}, 1.0" for r in rows)]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}, {message}')}$"):
            read_spectra(p)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("duplicate cell", "irregular grid at 2024-06-01T01:00:00"),
            ("missing cell", "irregular grid at 2024-06-01T01:00:00"),
            ("extra frequency", "inconsistent grid across timestamps"),
        ],
    )
    def test_fault_at_the_second_timestamp(self, tmp_path, fault, message):
        cells = [(f, d) for f in (0.1, 0.2) for d in (10, 20)]
        second = {
            "duplicate cell": cells + cells[1:2],
            "missing cell": cells[:-1],
            "extra frequency": cells + [(0.3, 10), (0.3, 20)],
        }[fault]
        lines = [f"2024-06-01T00:00:00, {f}, {d}, 1.0" for f, d in cells]
        lines += [f"2024-06-01T01:00:00, {f}, {d}, 1.0" for f, d in second]
        random.Random(4).shuffle(lines)
        p = tmp_path / "spec.csv"
        p.write_text("\n".join([self.HEADER] + lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: {message}')}$"):
            read_spectra(p)

    @pytest.mark.parametrize("cell", ["-0.1", "0.0", "-0", "-1e-300"])
    def test_frequency_not_positive_names_the_file_and_cell(self, tmp_path, cell):
        # these rows were read, and response wrote m0 from them
        p = tmp_path / "spec.csv"
        freqs = (cell, "0.1", "0.2")
        lines = [f"2024-06-01T00:00:00, {f}, {d}, 1.0" for f in freqs for d in (10, 20)]
        p.write_text("\n".join([self.HEADER, *lines[2:], *lines[:2]]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}, row 5: freq_hz must be positive, found {cell!r}')}$"):
            read_spectra(p)


class TestPosteriorAndPredictions:
    @pytest.mark.parametrize("text", ["", "\n", "chain, beta0, sigma\n"])
    def test_samples_without_draws_rejected(self, tmp_path, text):
        p = tmp_path / "samples.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match="samples.csv"):
            read_posterior_samples(p)

    def test_predictions_equal_row_summaries(self, tmp_path):
        # the draws are strided columns of one (draws, rows) array, as
        # posterior_predictive makes them; 150 rows span three row blocks
        rng = np.random.default_rng(5)
        ystar = rng.gamma(2.0, 0.4, (1500, 150))
        obs = rng.gamma(2.0, 0.4, 150)
        dists = PredictiveDraws(valid_times=T0 + np.arange(150) * HOUR, draws=ystar)
        table = predictive_summaries(dists.draws.T, obs)
        crps = reference_crps(np.ascontiguousarray(ystar.T), obs)
        for d, c, row in zip(dists, crps, table):
            assert list(row) == [np.mean(d.draws), *np.quantile(d.draws, QUANTILE_LEVELS), c]
        p = tmp_path / "pred.csv"
        write_predictions(p, dists, obs)
        lines = p.read_text().splitlines()[1:]
        for d, c, line in zip(dists, crps, lines):
            cells = [np.mean(d.draws), *np.quantile(d.draws, QUANTILE_LEVELS), c]
            assert line == ", ".join([str(d.valid_time)] + [f"{v:.10g}" for v in cells])
        valid_times, back = read_predictions(p)
        np.testing.assert_array_equal(valid_times, dists.valid_times)
        assert back.tolist() == [[float(f"{v:.10g}") for v in row] for row in table.tolist()]

    def test_samples_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = PosteriorSamples(
            draws=rng.standard_normal((30, 3)),
            param_names=("beta0", "beta1", "sigma"),
            chain_ids=np.repeat([0, 1, 2], 10),
            diagnostics={"beta0": {"rhat": 1.0, "ess": 25.0}},
            acceptance_rate=0.31,
        )
        p = tmp_path / "samples.csv"
        write_posterior_samples(p, samples, tmp_path / "samples.csv.diag.json")
        back = read_posterior_samples(p)
        np.testing.assert_allclose(back.draws, samples.draws, rtol=1e-10)
        np.testing.assert_array_equal(back.chain_ids, samples.chain_ids)
        assert back.param_names == samples.param_names
        # the sidecar is read as bench/run.py reads it; the samples reader never opens it
        sidecar = json.loads(Path(f"{p}.diag.json").read_text())
        assert sidecar["acceptance_rate"] == pytest.approx(0.31)
        assert sidecar["parameters"]["beta0"]["rhat"] == 1.0
        assert sidecar["sampler"] == {}
        assert back.diagnostics == {} and math.isnan(back.acceptance_rate) and back.sampler_facts == {}

    def test_sampler_facts_round_trip(self, tmp_path):
        facts = {"burn_in_sweeps": 1000, "retained_sweeps": 10, "rejections": {"beta": 2, "phi": 0}, "min_ess": 9.5}
        samples = PosteriorSamples(
            draws=np.ones((10, 3)),
            param_names=("beta0", "beta1", "sigma"),
            chain_ids=np.zeros(10, dtype=int),
            diagnostics={"beta0": {"rhat": 1.0, "ess": 9.5}},
            acceptance_rate=0.99,
            sampler_facts=facts,
        )
        p = tmp_path / "samples.csv"
        write_posterior_samples(p, samples, tmp_path / "samples.csv.diag.json")
        assert json.loads(Path(f"{p}.diag.json").read_text())["sampler"] == facts

    def test_predictions_file(self, tmp_path):
        draws = np.linspace(0, 1, 101)[:, None].repeat(3, axis=1)
        dists = PredictiveDraws(valid_times=T0 + np.arange(3) * HOUR, draws=draws)
        p = tmp_path / "pred.csv"
        write_predictions(p, dists, np.array([0.0, 0.5, 1.0]))
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "valid_time_utc, mean_m, p05_m, p50_m, p95_m, crps_m"
        assert lines[0].split(", ")[2:-1] == [f"p{round(lv * 100):02d}_m" for lv in QUANTILE_LEVELS]
        assert len(lines) == 4
        empty = PredictiveDraws(valid_times=dists.valid_times[:0], draws=draws[:, :0])
        with pytest.raises(ValueError):
            write_predictions(tmp_path / "empty.csv", empty, np.array([]))
        with pytest.raises(ValueError, match="row count must match"):
            write_predictions(tmp_path / "short.csv", dists, np.array([0.0, 0.5]))

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            (1, "nan", "mean_m must be finite, found 'nan'"),
            (3, "inf", "p50_m must be finite, found 'inf'"),
            (5, "-1e-3", "crps_m must be finite and nonnegative, found '-1e-3'"),
            (5, " -inf", "crps_m must be finite and nonnegative, found '-inf'"),
        ],
    )
    def test_predictions_cell_refused(self, tmp_path, column, cell, message):
        draws = np.linspace(0, 1, 101)[:, None].repeat(3, axis=1)
        p = tmp_path / "pred.csv"
        write_predictions(p, PredictiveDraws(valid_times=T0 + np.arange(3) * HOUR, draws=draws), np.zeros(3))
        header, *lines = p.read_text().splitlines()
        cells = lines[1].split(", ")
        cells[column] = cell
        p.write_text("\n".join([header, lines[0], ", ".join(cells), lines[2]]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}, row 2: {message}')}$"):
            read_predictions(p)

    def test_score_reports_file(self, tmp_path):
        reports = [ScoreReport(model_label="raw", horizon=0, rmse=0.2, crps_mean=0.1, n=5)]
        p = tmp_path / "scores.csv"
        write_score_reports(p, reports)
        assert "raw, 0, 0.200, 0.100, 5" in p.read_text()


def per_value_samples_text(samples: PosteriorSamples) -> str:
    """The samples file as the writer once spelled it: one f-string per numpy scalar."""
    lines = ["chain, " + ", ".join(samples.param_names)]
    for cid, row in zip(samples.chain_ids, samples.draws):
        lines.append(f"{int(cid)}, " + ", ".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308,
               3.0, -12.0, 1e16, 123456789012.0, 0.1, 1234567890123.5]


@given(
    rows=st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS), min_size=5, max_size=5),
        min_size=1,
        max_size=12,
    ),
    hybrid=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_samples_rows_spelled_as_per_value_f_strings(rows, hybrid):
    draws = np.array(rows) if hybrid else np.array(rows)[:, :3]
    names = ("beta0", "beta1", "phi1", "phi2", "sigma") if hybrid else ("beta0", "beta1", "sigma")
    samples = PosteriorSamples(
        draws=draws,
        param_names=names,
        chain_ids=np.arange(len(rows)) % 3,
        diagnostics={},
        acceptance_rate=1.0,
    )
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "samples.csv"
        write_posterior_samples(p, samples, Path(tmp) / "samples.csv.diag.json")
        assert p.read_text() == per_value_samples_text(samples)
        # the table and its sidecar, and no temp file left beside them
        assert sorted(q.name for q in Path(tmp).iterdir()) == ["samples.csv", "samples.csv.diag.json"]
        back = read_posterior_samples(p)
    expected = np.array([[float(f"{v:.12g}") for v in row] for row in draws.tolist()])
    assert back.draws.tobytes() == expected.tobytes()
    assert back.chain_ids.tolist() == samples.chain_ids.tolist()


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)


@given(
    sidecar=st.recursive(
        st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=3),
        lambda inner: st.dictionaries(st.text(max_size=4), JSON_SCALARS | inner, max_size=3),
        max_leaves=12,
    ),
    rhat=st.floats(),
)
@settings(max_examples=200, deadline=None)
def test_samples_sidecar_spelled_as_json_dumps(sidecar, rhat):
    # the sidecar is laid out without json's indenting encoder, which leaves
    # cyclic garbage; json.dumps stays the reference for every byte
    samples = PosteriorSamples(
        draws=np.zeros((2, 3)),
        param_names=("beta0", "beta1", "sigma"),
        chain_ids=np.zeros(2, dtype=int),
        diagnostics={"sigma": {"rhat": rhat, "ess": 2}, "beta0": {}},
        acceptance_rate=rhat,
        sampler_facts=sidecar,
    )
    expected = {"acceptance_rate": rhat, "parameters": samples.diagnostics, "sampler": sidecar}
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "samples.csv"
        write_posterior_samples(p, samples, Path(tmp, "samples.csv.diag.json"))
        assert Path(tmp, "samples.csv.diag.json").read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


class TestRunManifest:
    def test_load_resolves_paths(self, tmp_path):
        (tmp_path / "rao.csv").write_text("freq_hz, amplitude\n0.1, 1\n0.2, 1\n")
        manifest = tmp_path / "run.yaml"
        manifest.write_text(
            "out_dir: out\n"
            "rao_file: rao.csv\n"
            "horizons: [0, 6]\n"
            "model_kind: basic\n"
            "seed: 7\n"
        )
        m = RunManifest.load(manifest)
        assert m.out_dir == tmp_path / "out"
        assert m.rao_file == tmp_path / "rao.csv"
        assert m.horizons == [0, 6]
        assert m.model_kind == "basic"
        assert m.seed == 7
        m.require("rao_file")

    def test_unknown_key_rejected(self, tmp_path):
        manifest = tmp_path / "run.yaml"
        manifest.write_text("out_dir: out\nbogus: 1\n")
        with pytest.raises(ValueError):
            RunManifest.load(manifest)

    def test_missing_out_dir(self, tmp_path):
        manifest = tmp_path / "run.yaml"
        manifest.write_text("seed: 1\n")
        with pytest.raises(ValueError):
            RunManifest.load(manifest)

    def test_require_missing_file(self, tmp_path):
        manifest = tmp_path / "run.yaml"
        manifest.write_text("out_dir: out\nrao_file: nope.csv\n")
        m = RunManifest.load(manifest)
        with pytest.raises(FileNotFoundError):
            m.require("rao_file")
        with pytest.raises(ValueError, match=f"^{re.escape(str(manifest))}: manifest is missing spectra_file$"):
            m.require("spectra_file")

    def test_bad_model_kind(self, tmp_path):
        manifest = tmp_path / "run.yaml"
        manifest.write_text("out_dir: out\nmodel_kind: fancy\n")
        with pytest.raises(ValueError):
            RunManifest.load(manifest)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("horizons: [6, a]", "horizons must be a list"),
            ("horizons: 6", "horizons must be a list"),
            ("horizons: [6.5]", "horizons must be a list"),
            ("seed: 1.5", "seed must be an integer"),
            ("rao_file: 5", "rao_file must be a path"),
            ("issue_files: 5", "issue_files must be a list of paths"),
            ("issue_files: [a.csv, 5]", "issue_files must be a list of paths"),
            ("train_fraction: high", "train_fraction must be a number"),
            ("7: 1\nbogus: 2", "unknown manifest keys: [7, 'bogus']"),
            ("sampler: 3", "sampler must be a mapping"),
            ("sampler: {chainz: 3}", "unknown manifest sampler keys"),
            ("sampler: {chains: three}", "chains must be an integer"),
            ("injection: {seed: 4}", "unknown manifest injection keys"),
            ("injection: {noise_scale: [1]}", "noise_scale must be a number"),
            ("scenario: {duration_h: 48, extra: 1}", "unknown manifest scenario keys"),
            ("scenario: {background_hs: 0.5}", "scenario must set ['duration_h']"),
            ("scenario: {duration_h: 48, events: {hs: 1}}", "events must be a list"),
            ("scenario: {duration_h: 48, events: [{hs: 1.0, tp: 12}]}", "event must set ['arrival_h']"),
            ("scenario: {duration_h: 48, events: [{arrival_h: 0, hs: true, tp: 12}]}", "hs must be a number"),
        ],
    )
    def test_section_types_checked(self, tmp_path, body, message):
        manifest = tmp_path / "run.yaml"
        manifest.write_text(f"out_dir: out\n{body}\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            RunManifest.load(manifest)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("scenario: {duration_h: 48, measurement_noise: [1]}", "measurement_noise must be a number, found [1]"),
            ("scenario: {duration_h: 48, measurement_noise: true}", "measurement_noise must be a number"),
            ("scenario: {duration_h: 48, start: 5}", "start must be an ISO-8601 time, found 5"),
            ("scenario: {duration_h: 48, start: [2024]}", "start must be an ISO-8601 time"),
            ("scenario: {duration_h: 48, start: '5'}", "manifest scenario: start must be a time, found '5'"),
            ("scenario: {duration_h: 48, start: now}", "manifest scenario: start must be a time, found 'now'"),
            ("scenario: {duration_h: 48, start: ''}", "manifest scenario: start must be a time, found ''"),
            # in the grammar, but no date: numpy's own message named no key
            ("scenario: {duration_h: 48, start: '2024-02-30'}", "manifest scenario: start must be a time, found '2024-02-30'"),
            # each line in the grammar, and numpy printed a UserWarning before refusing it
            ('scenario: {duration_h: 48, start: "2024-06-01T00\\n2024-06-01"}',
             "start must be a time, found '2024-06-01T00\\n2024-06-01'"),
        ],
    )
    def test_scenario_extras_checked(self, tmp_path, body, message):
        manifest = tmp_path / "run.yaml"
        manifest.write_text(f"out_dir: out\n{body}\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            RunManifest.load(manifest)

    @pytest.mark.parametrize("spelling", OFF_GRAMMAR_SPELLINGS)
    def test_start_outside_the_grammar_is_refused(self, tmp_path, spelling):
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({"out_dir": "out", "scenario": {"duration_h": 48, "start": spelling}}))
        with pytest.raises(ValueError) as exc:
            RunManifest.load(manifest)
        assert str(exc.value) == f"{manifest}: manifest scenario: start must be a time, found {spelling!r}"

    @pytest.mark.parametrize(
        "start", ["2024-06-01T06:00:00", "2024-06-01 06:00", "2024-06-01T06", "2024-06-01T06:00:00.5Z", " 2024-06-01T06Z "]
    )
    def test_start_in_the_grammar_reads_as_the_canonical_time(self, tmp_path, start):
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({"out_dir": "out", "scenario": {"duration_h": 48, "start": start}}))
        assert RunManifest.load(manifest).swell_scenario().start == np.datetime64("2024-06-01T06:00:00", "s")

    def test_empty_horizons_are_refused(self, tmp_path):
        # fit and score ran no horizon and exited 0, and score wrote a header-only table
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({"out_dir": "out", "horizons": []}))
        with pytest.raises(ValueError) as exc:
            RunManifest.load(manifest)
        assert str(exc.value) == f"{manifest}: horizons must not be empty"

    @pytest.mark.parametrize(
        "start, expected",
        [
            ("2024-01-01T06:00:00", "2024-01-01T06:00:00"),
            ("'2024-01-01T06:00:00'", "2024-01-01T06:00:00"),
            ("'2024-01-01T06:00:00Z'", "2024-01-01T06:00:00"),
            ("2024-01-01T06:00:00Z", "2024-01-01T06:00:00"),
            ("2024-01-01T08:00:00+02:00", "2024-01-01T06:00:00"),
            ("2024-01-01", "2024-01-01T00:00:00"),
            ("'2024-01-01 06:30'", "2024-01-01T06:30:00"),
        ],
    )
    def test_scenario_start_forms(self, tmp_path, start, expected):
        manifest = tmp_path / "run.yaml"
        manifest.write_text(f"out_dir: out\nscenario:\n  duration_h: 48\n  start: {start}\n")
        assert RunManifest.load(manifest).scenario["start"] == np.datetime64(expected, "s")

    def test_full_sections_accepted(self, tmp_path):
        manifest = tmp_path / "run.yaml"
        manifest.write_text(
            "out_dir: out\n"
            "sampler: {chains: 2, warmup_draws: 200, retained_draws: 100, rhat_limit: 1.04}\n"
            "injection: {bias_factor: 0.9, noise_scale: 0}\n"
            "scenario:\n"
            "  start: 2024-01-01T06:00:00\n"
            "  duration_h: 48\n"
            "  measurement_noise: 0.01\n"
            "  events: [{arrival_h: 10, hs: 2, tp: 14.5, decay_h: 12}]\n"
        )
        m = RunManifest.load(manifest)
        assert m.sampler["chains"] == 2
        assert m.scenario["events"][0]["hs"] == 2


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 5000), st.floats(), st.text(max_size=6)
)
# any YAML value: scalars, lists and mappings nested a few levels deep
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_VALID_MANIFEST = {
    "out_dir": "out",
    "horizons": [0, 6],
    "model_kind": "hybrid",
    "seed": 1,
    "train_fraction": 0.8,
    "rao_file": "rao.csv",
    "issue_files": ["issue.csv"],
    "sampler": {"chains": 2, "warmup_draws": 200, "retained_draws": 100, "rhat_limit": 1.05},
    "injection": {"bias_factor": 0.9, "noise_scale": 0.02},
    "scenario": {
        "duration_h": 48,
        "start": "2024-01-01T00:00:00",
        "measurement_noise": 0.01,
        "events": [{"arrival_h": 10, "hs": 2.0, "tp": 14.0}],
    },
}
_UNKNOWN_KEYS = ["bogus", 7, None]


def _keys(cls) -> list:
    return [f.name for f in dataclasses.fields(cls)] + _UNKNOWN_KEYS


# every key of the manifest and of its sampler, injection, scenario and
# event sections, as a path into the manifest mapping
_KEY_PATHS = (
    [(k,) for k in _keys(RunManifest)]
    + [("sampler", k) for k in _keys(SamplerConfig)]
    + [("injection", k) for k in _keys(ErrorInjection)]
    + [("scenario", k) for k in _keys(SwellScenario)]
    + [("scenario", "events", 0, k) for k in _keys(SwellEvent)]
)
_DELETE = object()


def _mutated(edits) -> dict:
    """The valid manifest with each (key path, value) edit applied in turn;
    an edit whose parent is no longer a mapping or list is skipped."""
    raw = copy.deepcopy(_VALID_MANIFEST)
    for path, value in edits:
        parent = raw
        for step in path[:-1]:
            ok = isinstance(parent, dict) and step in parent
            ok = ok or (isinstance(parent, list) and isinstance(step, int) and step < len(parent))
            if not ok:
                break
            parent = parent[step]
        else:
            if not isinstance(parent, dict):
                continue
            if value is _DELETE:
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = value
    return raw


_MANIFESTS = st.lists(
    st.tuples(st.sampled_from(_KEY_PATHS), _VALUES | st.just(_DELETE)), max_size=4
).map(_mutated)


def _load_text(text: str) -> None:
    """RunManifest.load on a manifest file holding text; it returns or fails
    with the ValueError/OSError that the CLI maps to exit code 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.yaml"
        path.write_text(text)
        try:
            RunManifest.load(path)
        except (ValueError, OSError):
            pass


class TestRunManifestFuzz:
    @given(raw=_MANIFESTS)
    @settings(max_examples=150, deadline=None)
    def test_edited_manifests(self, raw):
        _load_text(yaml.safe_dump(raw, sort_keys=False))

    @given(text=st.text(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_text(self, text):
        _load_text(text)


def _readme_text() -> str:
    """The README's run.yaml, block YAML with comments."""
    readme = (ROOT / "README.md").read_text()
    return re.search(r"`run.yaml`:\n\n```yaml\n(.*?)```", readme, re.S).group(1)


def _readme_manifest() -> dict:
    return yaml.safe_load(_readme_text())


def _year_manifest() -> dict:
    """A half-year campaign's manifest: dozens of swell events with rounded
    times, heights and periods, a start time, and full injection and sampler
    sections."""
    rng = random.Random(7)
    events = []
    t = rng.uniform(24.0, 120.0)
    while t < 4356:
        hs, tp = rng.uniform(1.2, 3.5), rng.uniform(12.0, 19.0)
        events.append({"arrival_h": round(t, 1), "hs": round(hs, 3), "tp": round(tp, 3)})
        t += rng.uniform(80.0, 200.0)
    events[0].update(rise_h=6, decay_h=30.5, direction=3.4906585039886591, spread_exp=8, bandwidth_hz=0.0125)
    return {
        "out_dir": "out",
        "horizons": [6, 72],
        "model_kind": "hybrid",
        "seed": 3,
        "train_fraction": 0.8,
        "sampler": {"chains": 3, "warmup_draws": 1000, "retained_draws": 500, "rhat_limit": 1.05},
        "scenario": {
            "duration_h": 4380,
            "start": "2024-01-01T00:00:00Z",
            "background_hs": 0.6,
            "measurement_noise": 0.01,
            "events": events,
        },
        "injection": {
            "bias_factor": 0.8,
            "timing_shift_h": -1.5,
            "noise_scale": 0.012,
            "error_growth_rate": 0.0025,
            "noise_ar": 0.9,
            "noise_ar_lead_decay": 20.0,
        },
    }


def _load_as(tmp_path: Path, text: str, name: str) -> RunManifest:
    path = tmp_path / name
    path.write_text(text)
    return RunManifest.load(path)


class TestJsonManifest:
    """A JSON manifest is read by json, and reads as PyYAML reads the same text.

    A leading YAML comment makes the same document invalid JSON, so load
    hands it to PyYAML.
    """

    @pytest.mark.parametrize("raw", [_readme_manifest(), _year_manifest()], ids=["readme", "year"])
    @pytest.mark.parametrize("indent", [None, 2, "\t"])
    def test_json_reads_as_yaml_reads(self, tmp_path, monkeypatch, raw, indent):
        text = json.dumps(raw, indent=indent)
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, "yaml", None)  # so that `import yaml` fails
            by_json = _load_as(tmp_path, text, "run.json")
        by_yaml = _load_as(tmp_path, "# the same document, as YAML\n" + text, "run.json")
        assert repr(by_json) == repr(by_yaml)
        assert by_json == by_yaml

    def test_readme_manifest_reads_as_its_yaml(self, tmp_path):
        by_json = _load_as(tmp_path, json.dumps(_readme_manifest()), "run.json")
        by_yaml = _load_as(tmp_path, _readme_text(), "run.yaml")
        assert repr(by_json) == repr(by_yaml)

    def test_exponent_without_dot_is_a_number(self, tmp_path):
        # PyYAML 1.1 reads 1e-05 and 1.5e3 as strings; JSON and YAML 1.2 read numbers
        text = json.dumps({"out_dir": "out", "injection": {"noise_scale": 0.00001, "bias_factor": 1.5e3}})
        text = text.replace("1500.0", "1.5e3")
        assert "1e-05" in text and "1.5e3" in text
        m = _load_as(tmp_path, text, "run.json")
        assert m.injection == {"noise_scale": 1e-05, "bias_factor": 1500.0}
        assert m.error_injection().noise_scale == 1e-05
        with pytest.raises(ValueError, match=re.escape("noise_scale must be a number, found '1e-05'")):
            _load_as(tmp_path, "out_dir: out\ninjection: {noise_scale: 1e-05}\n", "run.yaml")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_nan_and_infinity_go_to_yaml_and_are_refused(self, tmp_path, constant):
        # json.loads would read them as floats; PyYAML reads them as strings
        text = f'{{"out_dir": "out", "train_fraction": {constant}}}'
        with pytest.raises(ValueError, match=re.escape(f"train_fraction must be a number, found '{constant}'")):
            _load_as(tmp_path, text, "run.json")

    @pytest.mark.parametrize("text", ['{"out_dir": "out",', '{"out_dir": "out"} x', '{"out_dir": [1, }'])
    def test_neither_json_nor_yaml_names_the_file(self, tmp_path, text):
        path = tmp_path / "run.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed YAML: ")):
            RunManifest.load(path)

    def test_nesting_deeper_than_json_reads_is_refused(self, tmp_path):
        # json stops at its recursion limit; libyaml would crash on a document deep enough
        nested = "[" * 2000 + "]" * 2000
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'run.json'}: nested too deeply")):
            _load_as(tmp_path, f'{{"out_dir": "out", "bogus": {nested}}}', "run.json")

    def test_deeply_nested_yaml_value_has_a_bounded_message(self, tmp_path):
        # PyYAML reads this; the message's repr of the value must not recurse 2000 levels
        nested = "[" * 2000 + "]" * 2000
        with pytest.raises(ValueError, match=re.escape("found [[[[[[[...]]]]]]]")):
            _load_as(tmp_path, f"out_dir: out\nhorizons: {nested}\n", "run.yaml")

    def test_yaml_nesting_limit(self, tmp_path):
        # the top mapping is one level of the document; libyaml crashed some 20000 levels deep
        def nested(depth):
            return f"out_dir: out\nhorizons: {'[' * depth}{']' * depth}\n"

        with pytest.raises(ValueError, match=re.escape("horizons must be a list of nonnegative integers")):
            _load_as(tmp_path, nested(_YAML_DEPTH_LIMIT - 1), "run.yaml")
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'run.yaml'}: nested too deeply")):
            _load_as(tmp_path, nested(_YAML_DEPTH_LIMIT), "run.yaml")

    def test_pure_python_yaml_loader_refuses_deep_nesting(self, tmp_path, monkeypatch):
        # without libyaml the composer's recursion ran out of stack and raised RecursionError
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        nested = "[" * 2000 + "]" * 2000
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'run.yaml'}: nested too deeply")):
            _load_as(tmp_path, f"out_dir: out\nhorizons: {nested}\n", "run.yaml")
        assert _load_as(tmp_path, "out_dir: out\nhorizons: [0, 6]\n", "run.yaml").horizons == [0, 6]

    def test_duplicate_key_keeps_the_last(self, tmp_path):
        assert _load_as(tmp_path, '{"out_dir": "out", "seed": 1, "seed": 2}', "run.json").seed == 2

    @pytest.mark.parametrize("text", ["", "null", "  \n"])
    def test_empty_document_sets_nothing(self, tmp_path, text):
        with pytest.raises(ValueError, match=re.escape("manifest must set ['out_dir']")):
            _load_as(tmp_path, text, "run.json")

    @pytest.mark.parametrize("horizons", [[12, 12], [0, 6, 0]])
    def test_repeated_horizon_rejected(self, tmp_path, horizons):
        text = json.dumps({"out_dir": "out", "horizons": horizons})
        with pytest.raises(ValueError, match=re.escape(f"horizons must not repeat a horizon, found {horizons}")):
            _load_as(tmp_path, text, "run.json")

    @pytest.mark.parametrize(
        "fraction, value",
        [("0", 0), ("1", 1), ("-0.5", -0.5), ("1.0e+400", math.inf), (".nan", math.nan), ("-.inf", -math.inf)],
    )
    def test_train_fraction_outside_unit_interval_rejected(self, tmp_path, fraction, value):
        # YAML here: json reads NaN and infinity only as constants, which load hands to PyYAML
        message = f"manifest key train_fraction must lie strictly inside (0, 1), found {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            _load_as(tmp_path, f"out_dir: out\ntrain_fraction: {fraction}\n", "run.yaml")


def _has_exponent(value) -> bool:
    """Whether a float json.dumps spells with an exponent is anywhere in value."""
    if isinstance(value, float):
        return "e" in repr(value)
    if isinstance(value, dict):
        return any(map(_has_exponent, value.values()))
    return isinstance(value, list) and any(map(_has_exponent, value))


def _outcome(tmp: str, text: str, name: str) -> str:
    """repr of the manifest load reads from text, or of the error it raises."""
    path = Path(tmp) / name
    path.write_text(text)
    try:
        return repr(RunManifest.load(path))
    except (ValueError, OSError) as exc:
        return f"{type(exc).__name__}: {str(exc).replace(str(path), '<path>')}"


@given(raw=_MANIFESTS)
@settings(max_examples=150, deadline=None)
def test_json_manifest_loads_as_yaml_loads(raw):
    # the documented differences aside: exponents, and characters JSON escapes as surrogate pairs
    text = json.dumps(raw)
    assume(not _has_exponent(raw) and "\\ud8" not in text and "\\ud9" not in text)
    assume("\\uda" not in text and "\\udb" not in text)
    with tempfile.TemporaryDirectory() as tmp:
        assert _outcome(tmp, text, "run.json") == _outcome(tmp, "# as YAML\n" + text, "run.json")
