"""The forecast-issue set as files: the set writer and the batched reader.

The per-file writer and reader they replaced are kept here as oracles, and
`heavecast build` is fed garbled issue files.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from heavecast import cli, datasets, io
from heavecast.datasets import ForecastIssue, IssueSet, read_forecast_issues, write_forecast_issues
from heavecast.io import read_forecast_issue, write_forecast_issue
from clirun import invoke

# the name of each issue file in its directory, formatted with its index i
ISSUE_NAME = Path(cli.ISSUES.format()).name

T0 = np.datetime64("2024-06-01T00:00:00", "s")
HOUR = np.timedelta64(1, "h")
HEADER = "issue_time_utc, valid_time_utc, sig_heave_m"


def oracle_write(path: Path, issue: ForecastIssue) -> None:
    """The per-file, row-by-row writer the set writer replaced."""
    valid = np.datetime_as_string(issue.issue_time + issue.horizon_hours * np.timedelta64(1, "h")).tolist()
    issued = f"{issue.issue_time}, "
    lines = [HEADER]
    lines += [f"{issued}{vt}, {v:.10g}" for vt, v in zip(valid, issue.values.tolist())]
    path.write_text("\n".join(lines) + "\n")


def oracle_read(path: Path) -> ForecastIssue:
    """The per-file reader the batched reader replaced (it truncated off-hour leads)."""
    header, text, _ = io._table_lines(path)
    if header != HEADER.split(", "):
        raise ValueError(f"{path}: expected header {HEADER.split(', ')}, found {header}")
    cells = text.split(",") if text else []
    issue_col, valid_col, value_col = cells[0::3], cells[1::3], cells[2::3]
    if not issue_col:
        raise ValueError(f"{path}: empty forecast issue")
    issue_times = io._parse_times(issue_col, path, "issue_time_utc")
    issue_time = issue_times[0]
    if np.any(issue_times != issue_time):
        row = int(np.argmax(issue_times != issue_time))
        raise ValueError(f"{path}, row {row + 1}: issue_time_utc must be the first row's, "
                         f"found {issue_col[row].strip()!r}")
    leads = ((io._parse_times(valid_col, path, "valid_time_utc") - issue_time) / np.timedelta64(1, "h")).astype(int)
    values = np.array(value_col, dtype=float)
    return ForecastIssue(issue_time=issue_time, horizon_hours=leads, values=values)


def assert_same_issue(a: ForecastIssue, b: ForecastIssue) -> None:
    assert a.issue_time == b.issue_time
    assert a.horizon_hours.tobytes() == b.horizon_hours.tobytes()
    assert a.values.tobytes() == b.values.tobytes()


@st.composite
def issue_sets(draw, max_issues=12):
    """Issues on and off the hourly grid, of 1 to 241 rows, leads that may
    start late, and values from 1e-12 to 1e3 that survive 10 digits."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    issues = []
    for _ in range(draw(st.integers(0, max_issues))):
        issue_time = T0 + np.timedelta64(draw(st.sampled_from([0, 6, 12, 18, 24 * 400])), "h")
        if draw(st.booleans()):
            issue_time += np.timedelta64(draw(st.integers(1, 3599)), "s")  # off the hourly grid
        first = draw(st.sampled_from([0, 0, 1, 30]))
        size = draw(st.sampled_from([1, 2, 73, 241]))
        raw = rng.uniform(0.0, 4.0, size) * 10.0 ** rng.integers(-12, 3, size)
        values = np.array([float(f"{v:.10g}") for v in raw.tolist()])
        issues.append(ForecastIssue(issue_time=issue_time, horizon_hours=first + np.arange(size), values=values))
    return issues


class TestSetWriter:
    @given(issues=issue_sets())
    @settings(max_examples=40, deadline=None)
    def test_bytes_match_per_file_writer(self, issues):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_forecast_issues(tmp / "issues" / ISSUE_NAME, IssueSet.from_issues(issues))
            names = sorted(p.name for p in (tmp / "issues").iterdir())
            assert names == [f"issue_{i:04d}.csv" for i in range(len(issues))]
            # each issue's files get fresh names: replacing a file just written can take
            # tens of milliseconds, writing a new name tens of microseconds
            for i, issue in enumerate(issues):
                oracle, one = tmp / f"oracle_{i}.csv", tmp / f"one_{i}.csv"
                oracle_write(oracle, issue)
                assert (tmp / "issues" / names[i]).read_bytes() == oracle.read_bytes()
                write_forecast_issue(one, issue)
                assert one.read_bytes() == oracle.read_bytes()
            assert [p.name for p in tmp.iterdir() if p.name.startswith(".")] == []

    def test_replaces_the_whole_directory(self, tmp_path):
        issue_dir = tmp_path / "issues"
        issue_dir.mkdir()
        (issue_dir / "issue_0007.csv").write_text("stale\n")
        (issue_dir / "notes.txt").write_text("not an issue\n")
        issues = [ForecastIssue(issue_time=T0, horizon_hours=np.arange(3), values=np.ones(3))]
        write_forecast_issues(issue_dir / ISSUE_NAME, IssueSet.from_issues(issues))
        assert sorted(p.name for p in issue_dir.iterdir()) == ["issue_0000.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["issues"]

    def test_failed_write_keeps_earlier_set(self, tmp_path, monkeypatch):
        issue_dir = tmp_path / "issues"
        first = [ForecastIssue(issue_time=T0 + 6 * k * HOUR, horizon_hours=np.arange(4), values=np.full(4, k))
                 for k in range(8)]
        write_forecast_issues(issue_dir / ISSUE_NAME, IssueSet.from_issues(first))
        before = {p.name: p.read_bytes() for p in issue_dir.iterdir()}
        opened = []

        def failing_open(path, mode="r", *args, **kwargs):
            opened.append(path)
            if len(opened) == 6:  # the writes of files 0-4 succeed
                raise OSError(28, "No space left on device")
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(datasets, "open", failing_open, raising=False)
        second = [ForecastIssue(issue_time=T0, horizon_hours=np.arange(2), values=np.zeros(2))] * 10
        with pytest.raises(OSError, match="No space left"):
            write_forecast_issues(issue_dir / ISSUE_NAME, IssueSet.from_issues(second))
        assert len(opened) == 6
        assert {p.name: p.read_bytes() for p in issue_dir.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["issues"]


def spell(text: str, rng: np.random.Generator) -> str:
    """The same issue file with Z suffixes and padding on some time cells."""
    lines = text.splitlines()
    for k in range(1, len(lines)):
        issued, valid, value = lines[k].split(", ")
        if rng.integers(2):
            issued += "Z"
        if rng.integers(2):
            valid = f"{valid}Z "
        lines[k] = f"{issued}, {valid}, {value}"
    return "\n".join(lines) + "\n"


class TestSetReader:
    @given(issues=issue_sets(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_file_reader(self, issues, seed):
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, issue in enumerate(issues):
                paths.append(Path(tmp) / f"issue_{i}.csv")
                oracle_write(paths[-1], issue)
                paths[-1].write_text(spell(paths[-1].read_text(), rng))
            got = read_forecast_issues(paths)
            assert len(got) == len(paths)
            expected = IssueSet.from_issues([oracle_read(path) for path in paths])
            for name in ("issue_times", "bounds", "leads", "values"):
                assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
            for path in paths:
                assert_same_issue(read_forecast_issue(path), oracle_read(path))

    @given(issues=issue_sets())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_bit_identical(self, issues):
        written = IssueSet.from_issues(issues)
        with tempfile.TemporaryDirectory() as tmp:
            write_forecast_issues(Path(tmp) / "issues" / ISSUE_NAME, written)
            back = read_forecast_issues(sorted((Path(tmp) / "issues").glob("issue_*.csv")))
        for name in ("issue_times", "bounds", "leads", "values"):
            assert getattr(back, name).tobytes() == getattr(written, name).tobytes(), name

    def test_sets_across_batches(self, tmp_path):
        # 150 files of one or two rows span three batches
        issues = [
            ForecastIssue(issue_time=T0 + k * HOUR, horizon_hours=np.arange(1 + k % 2), values=np.full(1 + k % 2, k))
            for k in range(150)
        ]
        write_forecast_issues(tmp_path / "issues" / ISSUE_NAME, IssueSet.from_issues(issues))
        back = read_forecast_issues(sorted((tmp_path / "issues").glob("issue_*.csv")))
        written = IssueSet.from_issues(issues)
        for name in ("issue_times", "bounds", "leads", "values"):
            assert getattr(back, name).tobytes() == getattr(written, name).tobytes(), name

    def test_first_bad_file_in_order_is_named(self, tmp_path):
        # a bad value in file 70 and a bad header in file 100, both in batch 2
        paths = []
        for k in range(130):
            paths.append(tmp_path / f"f{k:03d}.csv")
            oracle_write(paths[-1], ForecastIssue(issue_time=T0, horizon_hours=np.arange(2), values=np.ones(2)))
        paths[70].write_text(paths[70].read_text().replace(", 1\n", ", one\n", 1))
        paths[100].write_text("issued, valid, value\n")
        with pytest.raises(ValueError, match=r"f070\.csv, row 1: sig_heave_m must be a number, found 'one'$"):
            read_forecast_issues(paths)
        with pytest.raises(ValueError, match=r"f100\.csv: expected header"):
            read_forecast_issues(paths[:70] + paths[71:])

    def test_first_file_with_two_issue_times_is_named(self, tmp_path):
        # files 5 and 9 each repeat a second issue time; file 2 spells its one time two ways
        paths = []
        for k in range(12):
            paths.append(tmp_path / f"f{k:02d}.csv")
            oracle_write(paths[-1], ForecastIssue(issue_time=T0, horizon_hours=np.arange(3), values=np.ones(3)))
        for k in (5, 9):
            text = paths[k].read_text()
            paths[k].write_text(text[: text.rindex("\n", 0, -1) + 1] + "2024-06-01T06:00:00, 2024-06-01T06:00:00, 1\n")
        paths[2].write_text(paths[2].read_text().replace("2024-06-01T00:00:00, ", "2024-06-01T00:00:00Z, ", 1))
        message = r"\.csv, row 3: issue_time_utc must be the first row's, found '2024-06-01T06:00:00'$"
        with pytest.raises(ValueError, match=r"f05" + message):
            read_forecast_issues(paths)
        with pytest.raises(ValueError, match=r"f09" + message):
            read_forecast_issues(paths[:5] + paths[6:])
        assert read_forecast_issue(paths[2]).issue_time == T0

    def test_short_row_names_file_and_line_inside_a_batch(self, tmp_path):
        paths = []
        for k in range(5):
            paths.append(tmp_path / f"f{k}.csv")
            oracle_write(paths[-1], ForecastIssue(issue_time=T0, horizon_hours=np.arange(4), values=np.ones(4)))
        lines = paths[3].read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        paths[3].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"f3\.csv, line 4: expected 3 cells, found 2"):
            read_forecast_issues(paths)

    def test_off_grid_issue_with_whole_hour_leads(self, tmp_path):
        p = tmp_path / "issue.csv"
        p.write_text(
            f"{HEADER}\n"
            "2024-06-01T00:30:00, 2024-06-01T00:30:00, 1.5\n"
            "2024-06-01T00:30:00, 2024-06-01T01:30:00, 2\n"
        )
        issue = read_forecast_issue(p)
        assert issue.issue_time == T0 + np.timedelta64(30, "m")
        assert issue.horizon_hours.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("2024-06-01T00:00:00, 2024-06-01T01:00:00, 1\n2024-06-01T00:00:00, 2024-06-01T00:00:00, 1\n",
             ", row 2: valid_time_utc must be an hour after the row before, found '2024-06-01T00:00:00'"),
            ("2024-06-01T00:00:00, 2024-05-31T23:00:00, 1\n",
             ", row 1: valid_time_utc must be no earlier than the issue time, found '2024-05-31T23:00:00'"),
            ("NaT, 2024-06-01T00:00:00, 1\n", ", row 1: issue_time_utc must be a time, found 'NaT'"),
            ("2024-06-01T00:00:00, , 1\n", ", row 1: valid_time_utc must be a time, found ''"),
            ("now, now, 1\n", ", row 1: issue_time_utc must be a time, found 'now'"),
            ("2024-06-01T00:00:00, today, 1\n", ", row 1: valid_time_utc must be a time, found 'today'"),
        ],
    )
    def test_bad_leads_and_times_name_the_file(self, tmp_path, rows, message):
        p = tmp_path / "issue.csv"
        p.write_text(f"{HEADER}\n{rows}")
        with pytest.raises(ValueError) as exc:
            read_forecast_issue(p)
        assert str(exc.value) == f"{p}{message}"

    def test_a_lead_is_refused_before_a_later_column(self, tmp_path):
        # the rules are held in column order, so valid_time_utc's lead rules come before sig_heave_m's
        p = tmp_path / "issue.csv"
        p.write_text(f"{HEADER}\n2024-06-01T00:00:00, 2024-06-01T00:00:00, -1\n"
                     "2024-06-01T00:00:00, 2024-06-01T02:00:00, 1\n")
        with pytest.raises(ValueError) as exc:
            read_forecast_issue(p)
        assert str(exc.value) == (f"{p}, row 2: valid_time_utc must be an hour after the row before, "
                                  "found '2024-06-01T02:00:00'")


# -- build on garbled issue files -------------------------------------------

GARBLES = (
    "bad header",
    "short row",
    "bad value cell",
    "non-finite value",
    "negative value",
    "two issue times",
    "off-hour valid time",
    "wall-clock time",
)


def garble(text: str, kind: str, row: int, junk: str) -> str:
    lines = text.splitlines()
    k = 1 + row % (len(lines) - 1)  # a data row
    issued, valid, value = lines[k].split(", ")
    if kind == "bad header":
        lines[0] = junk or "issue_time, valid_time, sig_heave"
    elif kind == "short row":
        lines[k] = lines[k][: len(issued) + 2 + row % (len(valid) + 1)]
    elif kind == "bad value cell":
        lines[k] = f"{issued}, {valid}, {value}{junk or 'x'}x"
    elif kind == "non-finite value":
        lines[k] = f"{issued}, {valid}, {('nan', 'inf', '-inf', 'NaN')[row % 4]}"
    elif kind == "negative value":
        lines[k] = f"{issued}, {valid}, -{value}"
    elif kind == "two issue times":
        lines[k] = f"{issued[:-8]}23:00:00, {valid}, {value}"
    elif kind == "wall-clock time":
        spelling = ("now", "Today", "NaT", "")[row % 4]
        lines[k] = f"{spelling}, {valid}, {value}" if row % 8 < 4 else f"{issued}, {spelling}, {value}"
    else:
        lines[k] = f"{issued}, {valid[:-5]}{row % 59 + 1:02d}:00, {value}"
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def issue_texts():
    issues = [ForecastIssue(issue_time=T0 + 6 * k * HOUR, horizon_hours=np.arange(30), values=np.linspace(0.5, 2.0, 30))
              for k in range(4)]
    with tempfile.TemporaryDirectory() as tmp:
        write_forecast_issues(Path(tmp) / "issues" / ISSUE_NAME, IssueSet.from_issues(issues))
        return [p.read_text() for p in sorted((Path(tmp) / "issues").glob("issue_*.csv"))]


@given(
    kind=st.sampled_from(GARBLES),
    which=st.integers(0, 3),
    row=st.integers(0, 10_000),
    junk=st.text(alphabet="abc ;:_", max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_build_refuses_garbled_issue_file(issue_texts, kind, which, row, junk):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        names = []
        for k, text in enumerate(issue_texts):
            names.append(f"issue_{k}.csv")
            (tmp / names[-1]).write_text(garble(text, kind, row, junk) if k == which else text)
        hours = T0 + np.arange(96) * HOUR
        (tmp / "measurements.csv").write_text(
            "timestamp_utc, sig_heave_m, valid\n" + "".join(f"{t}, 1.0, true\n" for t in hours)
        )
        manifest = tmp / "run.yaml"
        manifest.write_text(yaml.safe_dump(
            {"out_dir": "out", "horizons": [0], "issue_files": names, "measurements_file": "measurements.csv"}
        ))
        result = invoke(["build", "--manifest", str(manifest)])
    assert result.exit_code == 2, result.output
    assert f"issue_{which}.csv" in result.output
    assert "Traceback" not in result.output
    if kind not in ("bad header", "short row"):
        # every rule but the header's and a row's width names the row of the cell it refuses
        assert f"issue_{which}.csv, row " in result.output, result.output


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -5.0])
def test_issue_records_refuse_a_value_that_is_not_finite_and_nonnegative(value):
    values = np.array([1.0, 2.0, value])
    refused = re.escape(f"values must be finite nonnegative numbers, found {value}")
    with pytest.raises(ValueError, match=f"^lead 2: {refused}$"):
        ForecastIssue(issue_time=T0, horizon_hours=np.arange(3), values=values)
    with pytest.raises(ValueError, match=f"^issue 1, lead 2: {refused}$"):
        IssueSet(issue_times=[T0, T0 + HOUR], bounds=[0, 0, 3], leads=np.arange(3), values=values)


@pytest.mark.parametrize("leads", [[0, 1, 0, 2, 3], [0, 1, -1, 0, 1]])
def test_issue_records_refuse_irregular_leads_naming_the_issue(leads):
    refused = "lead times must be nonnegative, hourly and increasing"
    with pytest.raises(ValueError, match=f"^{refused}$"):
        ForecastIssue(issue_time=T0, horizon_hours=np.array(leads[2:]), values=np.ones(3))
    # issue 1 is empty, so the first row that breaks the rule, row 2 or 3, is issue 2's
    with pytest.raises(ValueError, match=f"^issue 2: {refused}$"):
        IssueSet(issue_times=[T0, T0, T0 + HOUR], bounds=[0, 2, 2, 5], leads=np.array(leads), values=np.ones(5))
