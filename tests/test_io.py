import copy
import dataclasses
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from heavecast.datasets import ForecastIssue, HorizonDataset
from heavecast.io import (
    RunManifest,
    atomic_write_text,
    read_forecast_issue,
    read_heave_records,
    read_horizon_dataset,
    read_motion_series,
    read_posterior_samples,
    read_qa_events,
    read_rao,
    read_spectra,
    write_forecast_issue,
    write_heave_records,
    write_horizon_dataset,
    write_posterior_samples,
    write_predictions,
    write_rao,
    write_score_reports,
    write_spectra,
)
from heavecast.model import PosteriorSamples, PredictiveDraws, predictive_summaries
from heavecast.motion import HeaveRecord
from heavecast.sampler import SamplerConfig
from heavecast.scoring import ScoreReport
from heavecast.spectral import RaoCurve, SpectrumSeries
from heavecast.synthetic import ErrorInjection, SwellEvent, SwellScenario

T0 = np.datetime64("2024-06-01T00:00:00")
HOUR = np.timedelta64(1, "h")


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
        for a, b in zip(spectra, back):
            assert a.timestamp == b.timestamp
            np.testing.assert_allclose(b.freqs, a.freqs, rtol=1e-9)
            np.testing.assert_allclose(b.dirs, a.dirs, rtol=1e-9)
            np.testing.assert_allclose(b.density, a.density, rtol=1e-8)

    def test_slice_round_trip_and_rewrite(self, tmp_path):
        # a written-and-read series writes the same file again
        spectra = self.make_spectra(n=5)
        write_spectra(tmp_path / "a.csv", spectra[1:4])
        back = read_spectra(tmp_path / "a.csv")
        np.testing.assert_array_equal(back.times, spectra.times[1:4])
        np.testing.assert_allclose(back.density, spectra.density[1:4], rtol=1e-8)
        np.testing.assert_array_equal(back.freq_widths, back[0].freq_widths)
        write_spectra(tmp_path / "b.csv", back)
        assert (tmp_path / "b.csv").read_text() == (tmp_path / "a.csv").read_text()

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


class TestMotionAndQa:
    def test_motion_series(self, tmp_path):
        p = tmp_path / "motion.csv"
        lines = ["timestamp_utc, heave_m"]
        for k in range(5):
            lines.append(f"2024-06-01T00:00:{k:02d}, {0.1 * k}")
        p.write_text("\n".join(lines) + "\n")
        series = read_motion_series(p)
        assert series.sample_rate == pytest.approx(1.0)
        np.testing.assert_allclose(series.values, 0.1 * np.arange(5))

    def test_nonuniform_rejected(self, tmp_path):
        p = tmp_path / "motion.csv"
        p.write_text(
            "timestamp_utc, heave_m\n"
            "2024-06-01T00:00:00, 0.0\n"
            "2024-06-01T00:00:01, 0.1\n"
            "2024-06-01T00:00:03, 0.2\n"
        )
        with pytest.raises(ValueError):
            read_motion_series(p)

    def test_qa_events(self, tmp_path):
        p = tmp_path / "qa.csv"
        p.write_text(
            "start_utc, end_utc, reason\n"
            "2024-06-01T00:00:00, 2024-06-01T06:00:00, transit\n"
        )
        events = read_qa_events(p)
        assert len(events) == 1
        (start, end), reason = events[0]
        assert reason == "transit"
        assert end - start == 6 * HOUR

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
        with pytest.raises(ValueError, match="could not convert"):
            read_forecast_issue(p)

    def test_multiple_issue_times_rejected(self, tmp_path):
        p = tmp_path / "issue.csv"
        p.write_text(
            "issue_time_utc, valid_time_utc, sig_heave_m\n"
            "2024-06-01T00:00:00, 2024-06-01T00:00:00, 1.5\n"
            "2024-06-01T06:00:00, 2024-06-01T07:00:00, 1.25\n"
        )
        with pytest.raises(ValueError, match="multiple issue times"):
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
    "motion": (read_motion_series, "timestamp_utc, heave_m\n2024-06-01T00:00:00, 0.0\n2024-06-01T00:00:01, 0.1\n"),
    "qa_events": (read_qa_events, "start_utc, end_utc, reason\n2024-06-01T00:00:00, 2024-06-01T06:00:00, transit\n"),
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


# numpy's datetime64 reads these as the wall-clock time or as NaT
WALL_CLOCK_SPELLINGS = ["now", "NOW", "nowZ", "today", "Today", "NaT", "nat", ""]


@pytest.mark.parametrize("spelling", WALL_CLOCK_SPELLINGS)
@pytest.mark.parametrize("kind", sorted(set(SHORT_ROW_CASES) - {"rao", "samples"}))
def test_wall_clock_time_cell_names_the_file(tmp_path, kind, spelling):
    reader, text = SHORT_ROW_CASES[kind]
    lines = text.splitlines()
    lines[-1] = ", ".join([spelling] + lines[-1].split(", ")[1:])  # each of these files starts a row with a time
    p = tmp_path / f"{kind}.csv"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"{kind}\.csv: .* is not a time \({re.escape(repr(spelling))}\)"):
        reader(p)


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
        dists = PredictiveDraws(valid_times=T0 + np.arange(150) * HOUR, draws=ystar)
        table = predictive_summaries(dists)
        for d, row in zip(dists, table):
            s = d.summaries
            assert list(row) == [s["mean"], s["p05"], s["p50"], s["p95"]]
        p = tmp_path / "pred.csv"
        write_predictions(p, dists)
        lines = p.read_text().splitlines()[1:]
        for d, line in zip(dists, lines):
            s = d.summaries
            assert line == ", ".join([str(d.valid_time)] + [f"{s[k]:.10g}" for k in ("mean", "p05", "p50", "p95")])

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
        write_posterior_samples(p, samples)
        back = read_posterior_samples(p)
        np.testing.assert_allclose(back.draws, samples.draws, rtol=1e-10)
        np.testing.assert_array_equal(back.chain_ids, samples.chain_ids)
        assert back.param_names == samples.param_names
        assert back.acceptance_rate == pytest.approx(0.31)
        assert back.diagnostics["beta0"]["rhat"] == 1.0
        assert back.sampler_facts == {}

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
        write_posterior_samples(p, samples)
        assert read_posterior_samples(p).sampler_facts == facts

    def test_predictions_file(self, tmp_path):
        draws = np.linspace(0, 1, 101)[:, None].repeat(3, axis=1)
        dists = PredictiveDraws(valid_times=T0 + np.arange(3) * HOUR, draws=draws)
        p = tmp_path / "pred.csv"
        write_predictions(p, dists)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "valid_time_utc, mean_m, p05_m, p50_m, p95_m"
        assert len(lines) == 4
        empty = PredictiveDraws(valid_times=dists.valid_times[:0], draws=draws[:, :0])
        with pytest.raises(ValueError):
            write_predictions(tmp_path / "empty.csv", empty)

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
        write_posterior_samples(p, samples)
        assert p.read_text() == per_value_samples_text(samples)
        back = read_posterior_samples(p)
    expected = np.array([[float(f"{v:.12g}") for v in row] for row in draws.tolist()])
    assert back.draws.tobytes() == expected.tobytes()
    assert back.chain_ids.tolist() == samples.chain_ids.tolist()


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
        with pytest.raises(ValueError):
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
            ("scenario: {duration_h: 48, start: '5'}", "'5' is not an ISO-8601 time"),
            ("scenario: {duration_h: 48, start: now}", "'now' is not an ISO-8601 time"),
            ("scenario: {duration_h: 48, start: ''}", "'' is not an ISO-8601 time"),
            ("scenario: {duration_h: 48, start: '2024-02-30'}", "manifest scenario key start:"),
        ],
    )
    def test_scenario_extras_checked(self, tmp_path, body, message):
        manifest = tmp_path / "run.yaml"
        manifest.write_text(f"out_dir: out\n{body}\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            RunManifest.load(manifest)

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


def _keys(cls, *extra) -> list:
    return [f.name for f in dataclasses.fields(cls)] + list(extra) + _UNKNOWN_KEYS


# every key of the manifest and of its sampler, injection, scenario and
# event sections, as a path into the manifest mapping
_KEY_PATHS = (
    [(k,) for k in _keys(RunManifest)]
    + [("sampler", k) for k in _keys(SamplerConfig)]
    + [("injection", k) for k in _keys(ErrorInjection)]
    + [("scenario", k) for k in _keys(SwellScenario, "measurement_noise")]
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
