import gc
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import heavecast
from heavecast import cli, io
from heavecast.datasets import HorizonDataset, read_rao, read_spectra
from heavecast.model import ModelSpec, PosteriorSamples
from heavecast.spectral import response_moments
from clirun import invoke
from layout import reads, writes

ROOT = Path(__file__).resolve().parents[1]
# the manifest overrides each command takes: those whose value its work reads
OVERRIDES = {
    "simulate": {"--seed"},
    "build": {"-H"},
    "fit": {"-H", "--model", "--seed"},
    "predict": {"-H", "--model", "--seed"},
    "score": {"-H", "--model"},
    "diagnose": {"-H", "--model"},
    "response": set(),
}


def write_manifest(tmp_path, dump=yaml.safe_dump, **overrides):
    """A small basic campaign's manifest with overrides, as dump writes it (block YAML by default)."""
    cfg = {
        "out_dir": "out",
        "horizons": [0, 6],
        "model_kind": "basic",
        "seed": 11,
        "train_fraction": 0.8,
        "sampler": {"chains": 2, "warmup_draws": 600, "retained_draws": 400},
        "scenario": {
            "duration_h": 21 * 24,
            "background_hs": 0.6,
            "measurement_noise": 0.01,
            "events": [
                {"arrival_h": 96, "hs": 2.2, "tp": 16.0},
                {"arrival_h": 260, "hs": 1.6, "tp": 14.0},
            ],
        },
        "injection": {"bias_factor": 0.85, "noise_scale": 0.02, "noise_ar": 0.6},
    }
    cfg.update(overrides)
    path = tmp_path / "run.yaml"
    path.write_text(dump(cfg))
    return path


def _src_env():
    """os.environ with the heavecast package under test first on PYTHONPATH."""
    src = str(Path(heavecast.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def program(*args, env=None, **kwargs):
    """Run `python -m heavecast.cli ARGS` as its own process, as the installed
    script runs, with env's variables added to the environment."""
    return subprocess.run(
        [sys.executable, "-m", "heavecast.cli", *args], env=dict(_src_env(), **(env or {})), capture_output=True,
        **kwargs,
    )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One simulate -> build -> fit -> predict -> score run shared by tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    manifest = write_manifest(tmp_path)
    for cmd in ("simulate", "build", "fit", "predict", "score"):
        result = invoke([cmd, "--manifest", str(manifest)])
        assert result.exit_code == 0, f"{cmd} failed: {result.output}"
    return tmp_path, manifest


class TestPipeline:
    """Each stage writes the files cli.STAGE_FILES declares, at each horizon."""

    @staticmethod
    def assert_written(out, stage):
        assert [name for name in writes(stage, "basic", (0, 6)) if not list(out.glob(name))] == [], stage

    def test_simulate_artifacts(self, pipeline):
        tmp_path, _ = pipeline
        out = tmp_path / "out"
        issues, *others = writes("simulate")
        # spectra.csv only with --spectra-hours
        assert [name for name in others if not (out / name).exists()] == [cli.SPECTRA]
        assert len(list(out.glob(issues))) > 50

    def test_build_artifacts(self, pipeline):
        tmp_path, _ = pipeline
        out = tmp_path / "out"
        self.assert_written(out, "build")
        for name in writes("build", "basic", (0, 6)):
            assert len((out / name).read_text().strip().splitlines()) > 100

    def test_fit_artifacts(self, pipeline):
        tmp_path, _ = pipeline
        out = tmp_path / "out"
        self.assert_written(out, "fit")
        for h in (0, 6):
            _, sidecar = writes("fit", "basic", (h,))
            sidecar = json.loads((out / sidecar).read_text())
            assert 0.5 < sidecar["acceptance_rate"] <= 1.0
            facts = sidecar["sampler"]
            assert set(facts) == {"burn_in_sweeps", "retained_sweeps", "rejections", "min_ess"}
            assert list(facts["rejections"]) == ["beta"]
            assert facts["min_ess"] == min(p["ess"] for p in sidecar["parameters"].values())

    def test_predict_artifacts(self, pipeline):
        tmp_path, _ = pipeline
        out = tmp_path / "out"
        self.assert_written(out, "predict")
        lines = (out / "predictions_basic_h000.csv").read_text().strip().splitlines()
        assert lines[0] == "valid_time_utc, mean_m, p05_m, p50_m, p95_m, crps_m"
        assert len(lines) > 10

    def test_score_artifacts(self, pipeline):
        tmp_path, _ = pipeline
        out = tmp_path / "out"
        self.assert_written(out, "score")
        text = (out / "scores.csv").read_text()
        assert "basic adjustment" in text and "raw physics" in text

    def test_diagnose(self, pipeline):
        tmp_path, manifest = pipeline
        result = invoke(["diagnose", "--manifest", str(manifest), "--max-lag", "10"])
        assert result.exit_code == 0, result.output
        self.assert_written(tmp_path / "out", "diagnose")

    def test_response_command(self, pipeline):
        tmp_path, _ = pipeline
        manifest = write_manifest(
            tmp_path,
            rao_file="out/rao.csv",
            spectra_file="out/spectra.csv",
        )
        result = invoke(["simulate", "--manifest", str(manifest), "--spectra-hours", "3"])
        assert result.exit_code == 0, result.output
        result = invoke(["response", "--manifest", str(manifest)])
        assert result.exit_code == 0, result.output
        self.assert_written(tmp_path / "out", "response")
        lines = (tmp_path / "out" / "response.csv").read_text().strip().splitlines()
        assert lines[0] == "timestamp_utc, m0_m2, m2_m2_per_s2, sig_heave_m"
        assert len(lines) == 4

    def test_out_resolves_against_working_directory(self, tmp_path, monkeypatch):
        (tmp_path / "manifest").mkdir()
        (tmp_path / "cwd").mkdir()
        manifest = write_manifest(tmp_path / "manifest", scenario={"duration_h": 48})
        monkeypatch.chdir(tmp_path / "cwd")
        result = invoke(["simulate", "--manifest", str(manifest), "--out", "elsewhere"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "cwd" / "elsewhere" / "rao.csv").is_file()
        assert not (tmp_path / "manifest" / "elsewhere").exists()

    def test_response_matches_per_spectrum_formatting(self, tmp_path):
        manifest = write_manifest(
            tmp_path, scenario={"duration_h": 30, "start": "2024-03-01T06:00:00Z"},
            rao_file="out/rao.csv", spectra_file="out/spectra.csv",
        )
        assert invoke(["simulate", "--manifest", str(manifest), "--spectra-hours", "30"]).exit_code == 0
        result = invoke(["response", "--manifest", str(manifest)])
        assert result.exit_code == 0, result.output
        # the reference: each row formatted from the series' own timestamps, one at a time
        spectra = read_spectra(tmp_path / "out" / "spectra.csv")
        m0, m2 = response_moments(spectra, read_rao(tmp_path / "out" / "rao.csv"))
        lines = ["timestamp_utc, m0_m2, m2_m2_per_s2, sig_heave_m"]
        for t, a, b, sig in zip(spectra.times, m0, m2, 2.0 * np.sqrt(m0)):
            lines.append(f"{t}, {a:.10g}, {b:.10g}, {sig:.10g}")
        assert len(lines) == 31
        assert (tmp_path / "out" / "response.csv").read_text() == "\n".join(lines) + "\n"

    def test_response_reads_spectra_rows_in_any_order(self, tmp_path):
        manifest = write_manifest(
            tmp_path, scenario={"duration_h": 48, "events": [{"arrival_h": 12, "hs": 2.0, "tp": 14.0}]},
            rao_file="out/rao.csv", spectra_file="out/spectra.csv",
        )
        assert invoke(["simulate", "--manifest", str(manifest), "--spectra-hours", "48"]).exit_code == 0
        response = tmp_path / "out" / "response.csv"
        assert invoke(["response", "--manifest", str(manifest)]).exit_code == 0
        ordered = response.read_bytes()
        assert len(ordered.splitlines()) == 49
        spectra = tmp_path / "out" / "spectra.csv"
        header, *rows = spectra.read_text().splitlines()
        random.Random(8).shuffle(rows)
        spectra.write_text("\n".join([header, *rows]) + "\n")
        assert invoke(["response", "--manifest", str(manifest)]).exit_code == 0
        assert response.read_bytes() == ordered

    def test_horizon_override(self, pipeline):
        tmp_path, manifest = pipeline
        result = invoke(["build", "--manifest", str(manifest), "--horizon", "12"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "dataset_h012.csv").exists()


class TestSimulate:
    def test_earlier_issue_files_are_replaced(self, tmp_path):
        # a shorter campaign into the same out_dir leaves only its own issues,
        # so build reads no forecast of the earlier campaign
        scenario = {"background_hs": 0.6, "events": [{"arrival_h": 20, "hs": 2.0, "tp": 15.0}]}
        for hours in (200, 60):
            manifest = write_manifest(tmp_path, scenario={"duration_h": hours, **scenario})
            assert invoke(["simulate", "--manifest", str(manifest)]).exit_code == 0
        issues = sorted((tmp_path / "out" / "issues").glob("issue_*.csv"))
        assert len(issues) == 10  # 00/06/12/18Z over hours 0-59
        assert issues[-1].read_text().splitlines()[1].startswith("2024-06-03T06:00:00, ")

    def test_start_time_and_yaml_timestamps(self, tmp_path):
        # a quoted ISO-8601 string and an unquoted YAML timestamp start the same campaign
        texts = []
        for start in ('"2024-03-01T06:00:00Z"', "2024-03-01T06:00:00"):
            manifest = write_manifest(tmp_path, scenario={"duration_h": 12})
            manifest.write_text(manifest.read_text().replace("duration_h: 12", f"duration_h: 12\n  start: {start}"))
            assert invoke(["simulate", "--manifest", str(manifest)]).exit_code == 0
            texts.append((tmp_path / "out" / "measurements.csv").read_text())
        assert texts[0] == texts[1]
        assert texts[0].splitlines()[1].startswith("2024-03-01T06:00:00, ")


class TestExitCodes:
    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--manifest", "nope.yaml"], "nope.yaml"),  # missing
            (["--manifest", "."], "."),  # a directory
            (["--manifest", "run.yaml", "--out", "run.yaml"], "run.yaml"),  # --out names a file
        ],
    )
    def test_bad_path_is_validation_error(self, tmp_path, monkeypatch, flags, named):
        write_manifest(tmp_path)
        monkeypatch.chdir(tmp_path)
        result = invoke(["build", *flags])
        assert result.exit_code == 2
        assert result.output.startswith("error: ") and f"'{named}'" in result.output, result.output
        assert not (tmp_path / "out").exists()

    def test_spectra_frequency_not_positive_names_the_file(self, tmp_path):
        # response used to read these rows and write m0 = 9 for them
        (tmp_path / "rao.csv").write_text("freq_hz, amplitude\n0.05, 1.0\n0.5, 1.0\n")
        rows = [f"2024-06-01T00:00:00, {f}, {d}, 1.0" for f in ("-0.1", "0.0", "0.1") for d in (10, 20)]
        (tmp_path / "spectra.csv").write_text("timestamp_utc, freq_hz, dir_deg, density_m2_s_per_deg\n" + "\n".join(rows))
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({"out_dir": "out", "rao_file": "rao.csv", "spectra_file": "spectra.csv"}))
        result = invoke(["response", "--manifest", str(manifest)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {tmp_path / 'spectra.csv'}, row 1: freq_hz must be positive, found '-0.1'\n"
        assert not (tmp_path / "out").exists()

    def test_build_without_inputs(self, tmp_path):
        manifest = write_manifest(tmp_path)
        result = invoke(["build", "--manifest", str(manifest)])
        assert result.exit_code == 2

    def test_missing_input_names_the_manifest(self, tmp_path):
        # build finds no issue_files and no issues/ directory to default to;
        # simulate finds no scenario, where it stopped with a TypeError traceback.
        # Neither makes the output directory.
        path = tmp_path / "run.json"
        path.write_text('{"out_dir": "out"}')
        searched = f", and build found no {tmp_path / 'out' / 'issues' / 'issue_*.csv'}"
        for cmd, key, where in [("build", "issue_files", searched), ("simulate", "scenario", "")]:
            result = invoke([cmd, "--manifest", str(path)])
            assert result.exit_code == 2
            assert result.stderr == f"error: {path}: manifest is missing {key}{where}\n", result.stderr
            assert "Traceback" not in result.output
            assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"], cmd

    def test_build_names_the_measurements_it_searched_for(self, tmp_path):
        # issue files where build looks for them, but no measurements.csv beside them
        path = tmp_path / "run.json"
        path.write_text('{"out_dir": "out"}')
        (tmp_path / "out" / "issues").mkdir(parents=True)
        (tmp_path / "out" / "issues" / "issue_0000.csv").write_text(
            "issue_time_utc, valid_time_utc, sig_heave_m\n2024-06-01T00:00:00, 2024-06-01T00:00:00, 1.0\n"
        )
        result = invoke(["build", "--manifest", str(path)])
        assert result.exit_code == 2
        searched = tmp_path / "out" / "measurements.csv"
        assert result.stderr == f"error: {path}: manifest is missing measurements_file, and build found no {searched}\n"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["issues"]

    def test_build_refuses_a_horizon_no_cycle_serves(self, campaign):
        # the empty series of horizon 240 was refused as if the measurements were at fault
        result = invoke(["build", "-m", str(campaign / "run.yaml"), "-H", "240"])
        assert result.exit_code == 2
        assert result.stderr == "error: horizon 240: no issue cycle reaches it; the cycle table serves horizons up to 229\n"
        assert not (campaign / "out" / "dataset_h240.csv").exists()

    @pytest.mark.parametrize("cmd", ["fit", "predict", "score", "diagnose"])
    def test_stage_without_its_inputs_makes_no_directory(self, tmp_path, cmd):
        manifest = write_manifest(tmp_path)
        result = invoke([cmd, "--manifest", str(manifest)])
        assert result.exit_code == 2
        assert "dataset_h000.csv" in result.stderr or "samples_basic_h000.csv" in result.stderr, result.stderr
        assert not (tmp_path / "out").exists()

    def test_bad_manifest_key(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("out_dir: out\nwhatever: 1\n")
        result = invoke(["build", "--manifest", str(path)])
        assert result.exit_code == 2

    def test_non_integer_horizon_is_validation_error(self, tmp_path):
        manifest = write_manifest(tmp_path, horizons=["a"])
        result = invoke(["build", "--manifest", str(manifest)])
        assert result.exit_code == 2
        assert "horizons must be a list of nonnegative integers" in result.output

    def test_unknown_sampler_key_is_validation_error(self, tmp_path):
        manifest = write_manifest(tmp_path, sampler={"chainz": 3})
        result = invoke(["fit", "--manifest", str(manifest)])
        assert result.exit_code == 2
        assert "unknown manifest sampler keys: ['chainz']" in result.output

    @pytest.mark.parametrize("cmd", ["simulate", "build", "fit", "predict", "score", "diagnose", "response"])
    @pytest.mark.parametrize(
        "override, message",
        [
            ({"sampler": {"chainz": 3}}, "unknown manifest sampler keys: ['chainz']"),
            ({"injection": {"noise_scale": "big"}}, "manifest injection key noise_scale must be a number"),
            ({"scenario": {"duration_h": 48, "events": [{"hs": 1.0}]}}, "manifest scenario event must set"),
            ({"injection": {"noise_scale": -1.0}}, "noise scale must be nonnegative"),
            ({"scenario": {"duration_h": 48, "events": [{"arrival_h": 5, "hs": 1.0, "tp": 40.0}]}}, "Tp must lie"),
            ({"scenario": {"duration_h": 0}}, "duration must be at least one hour"),
            # simulate divided by zero and the event's heave was 0
            (
                {"scenario": {"duration_h": 48, "events": [{"arrival_h": 10, "hs": 2.0, "tp": 14.0, "bandwidth_hz": 0}]}},
                "bandwidth_hz must be positive, found 0",
            ),
            (
                {"scenario": {"duration_h": 48, "events": [{"arrival_h": 10, "hs": 2.0, "tp": 14.0, "spread_exp": -1}]}},
                "spread_exp must be nonnegative, found -1",
            ),
            ({"scenario": {"duration_h": 48, "background_spread_exp": -1}}, "background_spread_exp must be nonnegative"),
            # simulate and build ran with it; fit stopped with numpy's "expected non-negative integer"
            ({"seed": -1}, "seed must be a nonnegative integer, found -1"),
        ],
    )
    def test_every_stage_checks_every_manifest_section(self, tmp_path, cmd, override, message):
        manifest = write_manifest(tmp_path, **override)
        result = invoke([cmd, "--manifest", str(manifest)])
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("cmd", ["simulate", "build", "fit", "predict", "score", "diagnose", "response"])
    @pytest.mark.parametrize("limit", [float("nan"), -1.0])
    def test_rhat_limit_below_one_or_nan_is_validation_error(self, tmp_path, cmd, limit):
        # a NaN limit would pass any chains, since no R-hat compares greater than it
        manifest = write_manifest(tmp_path, sampler={"rhat_limit": limit})
        result = invoke([cmd, "--manifest", str(manifest)])
        assert result.exit_code == 2, result.output
        assert f"error: {manifest}: rhat_limit must be finite and at least 1.0, found {limit!r}" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "override, message",
        [
            # NaN issue values were written
            ({"injection": {"bias_factor": float("nan")}}, "bias_factor must be a finite number, found nan"),
            # the event was dropped without a word
            (
                {"scenario": {"duration_h": 48, "events": [{"arrival_h": 10, "hs": float("nan"), "tp": 14.0}]}},
                "hs must be a finite number, found nan",
            ),
            # NaN issue values, with a RuntimeWarning
            ({"injection": {"noise_ar_lead_decay": -5.0}}, "noise_ar_lead_decay must be positive, found -5.0"),
            # a RuntimeWarning from the division by zero
            ({"injection": {"noise_ar_lead_decay": 0.0}}, "noise_ar_lead_decay must be positive, found 0.0"),
            # NaN measurements, which build then refused
            (
                {"scenario": {"duration_h": 48, "measurement_noise": float("nan")}},
                "measurement_noise must be a finite number, found nan",
            ),
            (
                {"scenario": {"duration_h": 48, "measurement_noise": -0.5}},
                "measurement_noise must be nonnegative, found -0.5",
            ),
        ],
    )
    def test_non_finite_or_nonpositive_setting_is_validation_error(self, tmp_path, override, message):
        manifest = write_manifest(tmp_path, **override)
        result = invoke(["simulate", "--manifest", str(manifest)])
        assert result.exit_code == 2, result.output
        assert f"error: {manifest}: {message}" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "out" / "issues").exists()

    def test_overflowing_measurement_noise_names_the_manifest_and_key(self, tmp_path):
        # numpy warned of an overflow in multiply, and HeaveRecord then refused
        # an infinite sig_heave, naming neither the manifest nor the key
        manifest = write_manifest(tmp_path, scenario={"duration_h": 48, "measurement_noise": 1e308})
        result = invoke(["simulate", "--manifest", str(manifest)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {manifest}: measurement_noise 1e+308 overflows the measured heave\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, value, product",
        [
            ("scenario", {"duration_h": 48, "events": [{"arrival_h": 10, "hs": 1e200, "tp": 10}]}, "wave spectra"),
            ("scenario", {"duration_h": 48, "hs_jitter": 1e200}, "wave spectra"),
            # a float's OverflowError, which exited 3
            ("scenario", {"duration_h": 48, "background_hs": 1e200}, "wave spectra"),
            # finite spectra whose heave is infinite, blamed on measurement_noise
            ("scenario", {"duration_h": 48, "background_hs": 5.3e154}, "heave response"),
            ("injection", {"bias_factor": 1e308}, "forecast issues"),
        ],
    )
    def test_overflowing_campaign_names_the_manifest_and_section(self, tmp_path, section, value, product):
        # numpy warned, and the arrays' own checks refused an infinite value
        # naming neither the manifest nor the section
        manifest = write_manifest(tmp_path, **{section: value})
        result = invoke(["simulate", "--manifest", str(manifest)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {manifest}: manifest {section} overflows the {product}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "score"])
    def test_empty_horizons_are_validation_error(self, tmp_path, command):
        # fit exited 0 having fitted nothing, and score wrote a scores.csv of one header line
        manifest = write_manifest(tmp_path, dump=json.dumps, horizons=[])
        result = invoke([command, "--manifest", str(manifest)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {manifest}: horizons must not be empty\n"
        assert not (tmp_path / "out").exists()

    def test_time_outside_the_grammar_is_validation_error(self, tmp_path):
        # numpy read 2024-06 as 1 June, so the row joined a measurement of that hour
        (tmp_path / "issue.csv").write_text(
            "issue_time_utc, valid_time_utc, sig_heave_m\n2024-06-01T00:00:00, 2024-06, 1.0\n"
        )
        (tmp_path / "measurements.csv").write_text("timestamp_utc, sig_heave_m, valid\n2024-06-01T00:00:00, 1.0, true\n")
        manifest = write_manifest(tmp_path, issue_files=["issue.csv"], measurements_file="measurements.csv")
        result = invoke(["build", "--manifest", str(manifest)])
        assert result.exit_code == 2, result.output
        assert result.stderr == (
            f"error: {tmp_path / 'issue.csv'}, row 1: valid_time_utc must be a time, found '2024-06'\n"
        )
        assert not (tmp_path / "out").exists()

    def test_off_hour_valid_time_is_validation_error(self, tmp_path):
        (tmp_path / "issue.csv").write_text(
            "issue_time_utc, valid_time_utc, sig_heave_m\n"
            "2024-06-01T00:00:00, 2024-06-01T00:00:00, 1.0\n"
            "2024-06-01T00:00:00, 2024-06-01T01:30:00, 1.1\n"
        )
        (tmp_path / "measurements.csv").write_text("timestamp_utc, sig_heave_m, valid\n2024-06-01T00:00:00, 1.0, true\n")
        manifest = write_manifest(tmp_path, issue_files=["issue.csv"], measurements_file="measurements.csv")
        result = invoke(["build", "--manifest", str(manifest)])
        assert result.exit_code == 2
        assert result.stderr == (
            f"error: {tmp_path / 'issue.csv'}, row 2: valid_time_utc must be a whole number of hours after the "
            "issue time, found '2024-06-01T01:30:00'\n"
        )

    @pytest.mark.parametrize("cell", ["inf", "-inf"])
    def test_measurement_not_finite_names_the_file_and_row(self, tmp_path, cell):
        # inf reached the dataset, and build said only "x and y must be finite in every row"
        (tmp_path / "issue.csv").write_text(
            "issue_time_utc, valid_time_utc, sig_heave_m\n"
            "2024-06-01T00:00:00, 2024-06-01T00:00:00, 1.0\n"
            "2024-06-01T00:00:00, 2024-06-01T01:00:00, 1.1\n"
        )
        measurements = tmp_path / "measurements.csv"
        measurements.write_text(
            "timestamp_utc, sig_heave_m, valid\n2024-06-01T00:00:00, 1.0, true\n"
            f"2024-06-01T01:00:00, {cell}, true\n"
        )
        manifest = write_manifest(tmp_path, issue_files=["issue.csv"], measurements_file="measurements.csv")
        result = invoke(["build", "--manifest", str(manifest)])
        assert result.exit_code == 2, result.output
        assert result.stderr == (
            f"error: {measurements}, row 2: sig_heave_m must be a finite nonnegative number, found {cell!r}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_wall_clock_issue_time_is_validation_error(self, tmp_path):
        # numpy reads `now` as the current time, which would make build's output depend on when it ran
        (tmp_path / "issue.csv").write_text("issue_time_utc, valid_time_utc, sig_heave_m\nnow, now, 1.0\n")
        (tmp_path / "measurements.csv").write_text("timestamp_utc, sig_heave_m, valid\n2024-06-01T00:00:00, 1.0, true\n")
        manifest = write_manifest(tmp_path, issue_files=["issue.csv"], measurements_file="measurements.csv")
        result = invoke(["build", "--manifest", str(manifest)])
        assert result.exit_code == 2, result.output
        assert "issue.csv, row 1: issue_time_utc must be a time, found 'now'" in result.output
        assert not list((tmp_path / "out").glob("dataset_*.csv"))

    def test_bad_issue_time_is_named_alike_under_every_hash_seed(self, tmp_path):
        # the issue-time spellings were parsed as a set, so the cell named depended on PYTHONHASHSEED
        (tmp_path / "issue.csv").write_text(
            "issue_time_utc, valid_time_utc, sig_heave_m\ntoday, today, 1.0\nnow, now, 1.1\n"
        )
        (tmp_path / "measurements.csv").write_text("timestamp_utc, sig_heave_m, valid\n2024-06-01T00:00:00, 1.0, true\n")
        manifest = write_manifest(
            tmp_path, dump=json.dumps, issue_files=["issue.csv"], measurements_file="measurements.csv"
        )
        results = {
            (r.returncode, r.stderr)
            for r in (program("build", "-m", str(manifest), env={"PYTHONHASHSEED": seed}, text=True) for seed in "04")
        }
        message = f"error: {tmp_path / 'issue.csv'}, row 1: issue_time_utc must be a time, found 'today'\n"
        assert results == {(2, message)}

    def test_short_issue_row_is_validation_error(self, tmp_path):
        (tmp_path / "issue.csv").write_text(
            "issue_time_utc, valid_time_utc, sig_heave_m\n"
            "2024-06-01T00:00:00, 2024-06-01T00:00:00, 1.0\n"
            "2024-06-01T00:00:00, 2024-06-01T01:00:00\n"
        )
        (tmp_path / "measurements.csv").write_text("timestamp_utc, sig_heave_m, valid\n2024-06-01T00:00:00, 1.0, true\n")
        manifest = write_manifest(tmp_path, issue_files=["issue.csv"], measurements_file="measurements.csv")
        result = invoke(["build", "--manifest", str(manifest)])
        assert result.exit_code == 2
        assert "issue.csv, line 3: expected 3 cells, found 2" in result.output

    @pytest.mark.parametrize("text", ["out_dir: [\n", '{"out_dir": "out", "seed": 1\n'])
    def test_malformed_yaml_is_validation_error(self, tmp_path, text):
        # the second is neither JSON nor YAML
        path = tmp_path / "run.yaml"
        path.write_text(text)
        result = invoke(["build", "--manifest", str(path)])
        assert result.exit_code == 2
        assert f"{path}: malformed YAML" in result.output

    @pytest.mark.parametrize("cmd", ["simulate", "build", "fit", "predict", "score", "diagnose", "response"])
    def test_repeated_manifest_horizon_is_validation_error(self, tmp_path, cmd):
        # each stage would do horizon 12's work twice, and score write its rows twice
        manifest = write_manifest(tmp_path, horizons=[0, 12, 12])
        result = invoke([cmd, "--manifest", str(manifest)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {manifest}: horizons must not repeat a horizon, found [0, 12, 12]\n"
        assert not (tmp_path / "out").exists()

    def test_deeply_nested_yaml_horizons_is_validation_error(self, tmp_path):
        # the message's repr of the value once recursed 2000 levels and raised RecursionError
        path = tmp_path / "run.yaml"
        path.write_text("out_dir: out\nhorizons: " + "[" * 2000 + "]" * 2000 + "\n")
        result = invoke(["build", "--manifest", str(path)])
        assert result.exit_code == 2, result.output
        assert result.stderr == (
            f"error: {path}: horizons must be a list of nonnegative integers, found [[[[[[[...]]]]]]]\n"
        )

    @pytest.mark.parametrize(
        "name, text",
        [
            # json gave up on this and handed it to libyaml
            ("run.json", '{"out_dir": "out", "horizons": ' + "[" * 200_000 + "]" * 200_000 + "}"),
            ("run.yaml", "out_dir: out\nhorizons: " + "[" * 200_000 + "]" * 200_000 + "\n"),
            ("run.yaml", "out_dir: out\nhorizons:\n  " + "- " * 200_000 + "x\n"),
        ],
        ids=["json", "yaml-flow", "yaml-block"],
    )
    def test_manifest_nested_too_deeply_names_the_file(self, tmp_path, name, text):
        # libyaml's composer recursed once per level and crashed the process (exit 139)
        path = tmp_path / name
        path.write_text(text)
        result = program("build", "--manifest", str(path), text=True, timeout=20)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: {path}: nested too deeply\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("out_dir: out\nbogus: 1\n", "unknown manifest keys: ['bogus']\n"),
            ("horizons: [0]\n", "manifest must set ['out_dir']\n"),
            ("out_dir: out\nseed: x\n", "manifest key seed must be an integer, found 'x'\n"),
            ("out_dir: out\nsampler: {chains: 0}\n", "need >= 1 chain, >= 100 warmup and retained draws\n"),
            ("out_dir: out\nscenario: {duration_h: 48, start: '5'}\n", "manifest scenario: start must be a time, found '5'"),
            ("out_dir: [\n", "malformed YAML: "),
        ],
    )
    def test_manifest_message_starts_with_the_manifest(self, tmp_path, text, message):
        # only the parser's messages named the file; the checks' messages did not
        path = tmp_path / "run.yaml"
        path.write_text(text)
        result = invoke(["build", "--manifest", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {path}: {message}"), result.stderr
        assert result.stderr.count(str(path)) == 1

    @pytest.mark.parametrize(
        "cmd, flags, message",
        [
            (cmd, flags, message)
            for flags, message in [
                (["--seed", "-100"], "seed must be a nonnegative integer, found -100"),
                (["-H", "-1"], "horizons must be a list of nonnegative integers, found [-1]"),
            ]
            for cmd, taken in OVERRIDES.items()
            if flags[0] in taken
        ],
    )
    def test_negative_override_is_validation_error(self, tmp_path, cmd, flags, message):
        # -H -1 went looking for dataset_h-01.csv
        manifest = write_manifest(tmp_path)
        result = invoke([cmd, "--manifest", str(manifest), *flags])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", [cmd for cmd, taken in OVERRIDES.items() if "-H" in taken])
    def test_repeated_horizon_override_is_validation_error(self, tmp_path, cmd):
        # build -H 6 -H 6 ran horizon 6 once, where a manifest listing it twice exits 2
        manifest = write_manifest(tmp_path)
        result = invoke([cmd, "--manifest", str(manifest), "-H", "6", "-H", "6"])
        assert result.exit_code == 2
        assert result.stderr == "error: horizons must not repeat a horizon, found [6, 6]\n"
        assert not (tmp_path / "out").exists()

    def test_negative_spectra_hours_is_validation_error(self, tmp_path):
        # simulate ran and wrote no spectra, as for 0
        manifest = write_manifest(tmp_path)
        result = invoke(["simulate", "--manifest", str(manifest), "--spectra-hours", "-3"])
        assert result.exit_code == 2
        assert result.stderr == "error: spectra_hours must be nonnegative, found -3\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", ["simulate", "build", "fit", "predict", "score", "diagnose"])
    @pytest.mark.parametrize("fraction", [float("nan"), float("inf"), 0.0, 1.0, 1.5])
    def test_train_fraction_outside_unit_interval_is_validation_error(self, tmp_path, cmd, fraction):
        # simulate and build used to pass NaN and infinity, which only the splitting stages refused
        manifest = write_manifest(tmp_path, train_fraction=fraction)
        result = invoke([cmd, "--manifest", str(manifest)])
        assert result.exit_code == 2, result.output
        assert result.stderr == (
            f"error: {manifest}: manifest key train_fraction must lie strictly inside (0, 1), found {fraction!r}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", ["simulate", "fit"])
    @pytest.mark.parametrize(
        "override, message",
        [
            ({"train_fraction": float("nan")}, "manifest key train_fraction must be a number, found 'NaN'"),
            (
                {"sampler": {"rhat_limit": float("inf")}},
                "manifest sampler key rhat_limit must be a number, found 'Infinity'",
            ),
            (
                {"scenario": {"duration_h": 48, "measurement_noise": -float("inf")}},
                "manifest scenario key measurement_noise must be a number, found '-Infinity'",
            ),
        ],
    )
    def test_json_nan_and_infinity_are_validation_errors(self, tmp_path, cmd, override, message):
        # json.dumps spells them NaN and Infinity, which PyYAML reads as strings
        manifest = write_manifest(tmp_path, dump=json.dumps, **override)
        result = invoke([cmd, "--manifest", str(manifest)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {manifest}: {message}\n"

    def test_directory_as_data_file_is_validation_error(self, tmp_path):
        (tmp_path / "issue.csv").write_text(
            "issue_time_utc, valid_time_utc, sig_heave_m\n2024-06-01T00:00:00, 2024-06-01T00:00:00, 1.0\n"
        )
        manifest = write_manifest(tmp_path, issue_files=["issue.csv"], measurements_file=".")
        result = invoke(["build", "--manifest", str(manifest)])
        assert result.exit_code == 2
        assert "Is a directory" in result.output

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"sampler": {"x_floor": 0.05}}, "unknown manifest sampler keys: ['x_floor']"),
            ({"sampler": {"target_acceptance": 0.3}}, "unknown manifest sampler keys: ['target_acceptance']"),
            ({"qa_events_file": "q.csv"}, "unknown manifest keys: ['qa_events_file']"),
        ],
    )
    def test_removed_manifest_keys_are_validation_errors(self, tmp_path, override, message):
        # the noise floor and the sampler tuning are fixed, and no stage reads QA events
        manifest = write_manifest(tmp_path, **override)
        result = invoke(["fit", "--manifest", str(manifest)])
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize(
        "scenario, message",
        [
            ({"measurement_noise": [1]}, "measurement_noise must be a number, found [1]"),
            ({"measurement_noise": "0.01"}, "measurement_noise must be a number"),
            ({"start": 5}, "start must be an ISO-8601 time, found 5"),
            ({"start": "5"}, "manifest scenario: start must be a time, found '5'"),
            ({"start": "2024-06"}, "manifest scenario: start must be a time, found '2024-06'"),
            ({"start": "2024-13-01T00:00:00"}, "manifest scenario: start must be a time, found '2024-13-01T00:00:00'"),
        ],
    )
    def test_bad_scenario_extras_are_validation_errors(self, tmp_path, scenario, message):
        manifest = write_manifest(tmp_path, scenario={"duration_h": 48, **scenario})
        result = invoke(["simulate", "--manifest", str(manifest)])
        assert result.exit_code == 2
        assert message in result.output
        assert not (tmp_path / "out" / "measurements.csv").exists()

    def test_unconverged_fit_is_numerical_error(self, tmp_path):
        # an unattainable convergence threshold must surface as exit code 3
        manifest = write_manifest(
            tmp_path,
            horizons=[0],
            sampler={
                "chains": 2,
                "warmup_draws": 300,
                "retained_draws": 150,
                "rhat_limit": 1.0000001,
            },
        )
        for cmd in ("simulate", "build"):
            assert invoke([cmd, "--manifest", str(manifest)]).exit_code == 0
        result = invoke(["fit", "--manifest", str(manifest)])
        assert result.exit_code == 3
        named = f"numerical failure: {tmp_path / 'out' / 'dataset_h000.csv'}, horizon 0: "
        assert result.stderr.startswith(f"{named}chains not converged, rhat over limit: ")

    def test_overflowing_dataset_is_numerical_error_without_warnings(self, tmp_path):
        # numpy warned twice of an overflow in matmul, and the sampler then
        # failed on a precision that was not positive definite
        manifest = write_manifest(
            tmp_path, horizons=[0], model_kind="hybrid", scenario={"duration_h": 48}, injection={"noise_scale": 1e300}
        )
        for cmd in ("simulate", "build"):
            assert invoke([cmd, "--manifest", str(manifest)]).exit_code == 0
        result = program("fit", "--manifest", str(manifest), text=True)
        named = f"numerical failure: {tmp_path / 'out' / 'dataset_h000.csv'}, horizon 0: "
        assert (result.returncode, result.stderr) == (3, f"{named}overflow encountered in matmul\n")
        assert not (tmp_path / "out" / "samples_hybrid_h000.csv").exists()

    @pytest.mark.parametrize(
        "stage, x_scale, huge_y_row",
        [
            # the draws' CRPS pair sums overflowed: predict warned, exited 0 and wrote crps_m = -inf
            ("predict", 1e305, None),
            # the autocovariances overflowed: diagnose warned, exited 0 and wrote a PACF of nan
            ("diagnose", 1.0, 30),
        ],
    )
    def test_overflowing_inputs_are_numerical_errors_naming_the_dataset(self, tmp_path, stage, x_scale, huge_y_row):
        rng = np.random.default_rng(5)
        n_rows, n_draws = 80, 200
        times = np.datetime64("2024-06-01T00:00:00", "s") + np.arange(n_rows) * np.timedelta64(1, "h")
        x = rng.gamma(2.0, 0.5, n_rows) + 0.1
        y = 1.1 * x + 0.05 * rng.standard_normal(n_rows)
        x, y = x_scale * x, x_scale * y
        if huge_y_row is not None:
            y[huge_y_row] = 1e307  # a training row
        samples = PosteriorSamples(
            draws=np.array([0.05, 1.1, 0.5, -0.2, 0.1]) + 0.01 * rng.standard_normal((n_draws, 5)),
            param_names=ModelSpec(kind="hybrid").param_names,
            chain_ids=np.repeat([0, 1], n_draws // 2),
            diagnostics={},
            acceptance_rate=0.8,
        )
        out = tmp_path / "out"
        dataset, samples_path = (out / name for name in reads(stage))
        io.write_horizon_dataset(dataset, HorizonDataset(horizon=0, valid_times=times, x=x, y=y, issue_times=times))
        io.write_posterior_samples(samples_path, samples, out / writes("fit")[1])
        manifest = tmp_path / "run.json"
        cfg = {"out_dir": "out", "horizons": [0], "model_kind": "hybrid", "train_fraction": 0.75}
        manifest.write_text(json.dumps(cfg))
        result = program(stage, "--manifest", str(manifest), text=True)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith(f"numerical failure: {dataset}, horizon 0: "), result.stderr
        assert result.stderr.count("\n") == 1 and "Warning" not in result.stderr, result.stderr
        assert [name for name in writes(stage) if (out / name).exists()] == []


    def test_overflowing_score_names_the_dataset_and_horizon(self, campaign):
        # score warned of an overflow in square, exited 0 and wrote an RMSE of inf
        manifest, dataset = campaign / "run.yaml", campaign / "out" / "dataset_h000.csv"
        lines = dataset.read_text().splitlines()
        cells = lines[-1].split(", ")
        lines[-1] = ", ".join([cells[0], "1e+200", *cells[2:]])  # the last test row's forecast x
        dataset.write_text("\n".join(lines) + "\n")
        assert invoke(["predict", "--manifest", str(manifest)]).exit_code == 0
        result = program("score", "--manifest", str(manifest), text=True)
        assert (result.returncode, result.stderr) == (
            3, f"numerical failure: {dataset}, horizon 0: overflow encountered in square\n"
        )
        assert [name for name in writes("score") if (campaign / "out" / name).exists()] == []

    @pytest.mark.parametrize(
        "name, row",
        [
            # the density's unit conversion overflowed: response warned, then refused the infinite density (exit 2)
            ("spectra.csv", "2024-06-01T00:00:00, 0.2, 20, 1e308"),
            # the frequency's conversion to rad/s overflowed: response warned, then refused the frequency (exit 2)
            ("rao.csv", "1e308, 1.0"),
        ],
    )
    def test_overflowing_response_input_names_the_file(self, tmp_path, name, row):
        lines = {
            "rao.csv": ["freq_hz, amplitude", "0.05, 1.0", "0.5, 1.0"],
            "spectra.csv": ["timestamp_utc, freq_hz, dir_deg, density_m2_s_per_deg",
                            *(f"2024-06-01T00:00:00, {f}, {d}, 1.0" for f in (0.1, 0.2) for d in (10, 20))],
        }
        lines[name][-1] = row
        for file, text in lines.items():
            (tmp_path / file).write_text("\n".join(text) + "\n")
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({"out_dir": "out", "rao_file": "rao.csv", "spectra_file": "spectra.csv"}))
        result = program("response", "--manifest", str(manifest), text=True)
        assert (result.returncode, result.stderr) == (
            3, f"numerical failure: {tmp_path / name}: overflow encountered in multiply\n"
        )
        assert not (tmp_path / "out").exists()


class TestOneErrorPath:
    """main maps what any command raises to its exit code, in one place."""

    def test_sampler_error_is_an_arithmetic_error(self):
        from heavecast.sampler import SamplerError

        assert issubclass(SamplerError, ArithmeticError)
        assert not issubclass(SamplerError, RuntimeError)

    @pytest.mark.parametrize(
        "exc, code, prefix",
        [
            # an OverflowError printed a traceback and exited 1
            (OverflowError("math range error"), 3, "numerical failure"),
            (ZeroDivisionError("division by zero"), 3, "numerical failure"),
            (FloatingPointError("overflow encountered in multiply"), 3, "numerical failure"),
            (KeyError("horizon"), 2, "error"),
        ],
        ids=lambda value: type(value).__name__ if isinstance(value, BaseException) else None,
    )
    @pytest.mark.parametrize("cmd", ["simulate", "build", "fit", "predict", "score", "diagnose", "response"])
    def test_stage_exception_exits_with_its_code(self, tmp_path, monkeypatch, cmd, exc, code, prefix):
        def fail(*args, **kwargs):
            raise exc

        # every command loads its manifest first
        monkeypatch.setattr(cli, "_load", fail)
        result = invoke([cmd, "--manifest", str(write_manifest(tmp_path))])
        assert result.exit_code == code
        assert result.stderr == f"{prefix}: {exc}\n"
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "exc, message",
        [
            (
                MemoryError("Unable to allocate 6.11 TiB for an array with shape (1000000000, 28, 30)"),
                "out of memory: Unable to allocate 6.11 TiB for an array with shape (1000000000, 28, 30)",
            ),
            (MemoryError(), "out of memory"),
        ],
    )
    def test_memory_error_exits_2(self, tmp_path, monkeypatch, exc, message):
        # a campaign too large for memory printed a MemoryError traceback and exited 1
        from heavecast import synthetic

        def fail(scenario):
            raise exc

        monkeypatch.setattr(synthetic, "generate_spectra", fail)
        result = invoke(["simulate", "--manifest", str(write_manifest(tmp_path, scenario={"duration_h": 10**9}))])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"
        assert "Traceback" not in result.output
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def hybrid_run(tmp_path_factory):
    """A hybrid campaign through fit, at one horizon."""
    tmp_path = tmp_path_factory.mktemp("hybrid")
    manifest = write_manifest(
        tmp_path, horizons=[0], model_kind="hybrid",
        sampler={"chains": 2, "warmup_draws": 300, "retained_draws": 200},
    )
    for cmd in ("simulate", "build", "fit"):
        result = invoke([cmd, "--manifest", str(manifest)])
        assert result.exit_code == 0, f"{cmd} failed: {result.output}"
    return tmp_path


@pytest.fixture
def campaign(hybrid_run, tmp_path):
    """A copy of the hybrid campaign that a test may alter."""
    shutil.copytree(hybrid_run / "out", tmp_path / "out")
    shutil.copy(hybrid_run / "run.yaml", tmp_path / "run.yaml")
    return tmp_path


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_files_follow_the_umask(tmp_path, umask, mode):
    # every file the stages write gets the mode open(path, "w") would give it
    manifest = write_manifest(
        tmp_path, horizons=[0], model_kind="hybrid", rao_file="out/rao.csv", spectra_file="out/spectra.csv",
        sampler={"chains": 2, "warmup_draws": 300, "retained_draws": 200},
    )
    previous = os.umask(umask)
    try:
        for cmd in ("simulate", "build", "fit", "predict", "score", "diagnose", "response"):
            flags = ["--spectra-hours", "2"] if cmd == "simulate" else []
            result = invoke([cmd, "--manifest", str(manifest), *flags])
            assert result.exit_code == 0, result.output
    finally:
        os.umask(previous)
    modes = {str(p.relative_to(tmp_path)): oct(p.stat().st_mode & 0o777) for p in tmp_path.rglob("*") if p.is_file()}
    # the manifest, the 84 issue files of the one glob and every other file the stages declare they write
    assert len(modes) == 1 + 84 + sum(len(writes(stage)) for stage in cli.STAGE_FILES) - 1
    assert modes == dict.fromkeys(modes, oct(mode)) | {"run.yaml": modes["run.yaml"]}


class TestUsage:
    """A usage error exits 2 with a message naming the culprit, and prints nothing to stdout."""

    @pytest.mark.parametrize(
        "args, pattern",
        [
            (["nosuch"], r"'nosuch'"),  # an unknown command
            (["build"], r"--manifest"),  # -m is required
            (["fit", "-m", "run.yaml", "--model", "other"], r"--model.*'other'|'other'.*--model"),
            (["build", "-m", "run.yaml", "-H", "a"], r"'a'"),
            (["build", "-m", "run.yaml", "--manif", "run.yaml"], r"--manif\b"),  # no option is abbreviated
            (["build", "-m", "run.yaml", "--max-lag", "3"], r"--max-lag\b"),  # diagnose's option only
        ],
    )
    def test_usage_error_exits_2(self, tmp_path, monkeypatch, args, pattern):
        write_manifest(tmp_path)
        monkeypatch.chdir(tmp_path)
        result = invoke(args)
        assert result.exit_code == 2, result.output
        assert result.stdout == "" and re.search(pattern, result.stderr), result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", ["simulate", "build", "fit", "predict", "score", "diagnose", "response"])
    def test_command_help(self, cmd):
        result = invoke([cmd, "--help"])
        assert result.exit_code == 0
        assert getattr(cli, cmd).__doc__.partition("\n")[0] in result.output
        assert "--manifest" in result.output
        assert ("override manifest horizons" in result.output) == ("-H" in OVERRIDES[cmd])

    @pytest.mark.parametrize(
        "cmd, flag",
        [(cmd, flag) for cmd, taken in OVERRIDES.items() for flag in ("-H", "--model", "--seed") if flag not in taken],
    )
    def test_override_the_command_does_not_read_is_usage_error(self, tmp_path, monkeypatch, cmd, flag):
        # each was accepted and then ignored
        value = {"-H": "0", "--model": "basic", "--seed": "3"}[flag]
        write_manifest(tmp_path)
        monkeypatch.chdir(tmp_path)
        result = invoke([cmd, "-m", "run.yaml", flag, value])
        assert result.exit_code == 2, result.output
        assert result.stdout == "" and f"unrecognized arguments: {flag} {value}" in result.stderr, result.stderr
        assert not (tmp_path / "out").exists()

    def test_readme_options_table_lists_each_commands_options(self):
        # the README's Options table against the options each command's parser is given
        section = (ROOT / "README.md").read_text().split("\n### Options\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| (.+) \|$", section, flags=re.M)
        listed = {cmd: re.findall(r"`([^`]+)`", cell) for cmd, cell in rows}
        assert listed == {
            cmd: ["/".join(sorted(flags, key=lambda f: not f.startswith("--"))) for flags, _ in options]
            for cmd, (_, options) in cli._COMMANDS.items()
        }

    def test_program_help_lists_every_command(self):
        result = invoke(["--help"])
        assert result.exit_code == 0
        assert "Probabilistic heave-response forecasting pipeline." in result.output
        for cmd in ("simulate", "build", "fit", "predict", "score", "diagnose", "response"):
            assert cmd in result.output

    def test_repeated_horizon_runs_each(self, campaign):
        # the campaign's manifest lists horizon 0 only
        result = invoke(["build", "-m", str(campaign / "run.yaml"), "-H", "0", "-H", "6"])
        assert result.exit_code == 0, result.output
        assert [line.split(":")[0] for line in result.stdout.splitlines()] == ["h=0", "h=6"]
        assert (campaign / "out" / "dataset_h006.csv").is_file()

    def test_horizon_overrides_keep_their_order(self, campaign):
        # as a manifest's horizons list does
        result = invoke(["build", "-m", str(campaign / "run.yaml"), "-H", "6", "-H", "0"])
        assert result.exit_code == 0, result.output
        assert [line.split(":")[0] for line in result.stdout.splitlines()] == ["h=6", "h=0"]


class TestBadSamples:
    """A samples file must hold the model's parameters, every draw in the prior support."""

    @staticmethod
    def rewrite_samples(campaign, edit):
        """Apply edit to the cells of every line of the h=0 samples file."""
        path = campaign / "out" / "samples_hybrid_h000.csv"
        lines = [edit(line.split(", ")) for line in path.read_text().splitlines()]
        path.write_text("\n".join(", ".join(cells) for cells in lines) + "\n")

    def assert_refused(self, campaign, cmd, message):
        result = invoke([cmd, "--manifest", str(campaign / "run.yaml")])
        assert result.exit_code == 2, result.output
        assert "samples_hybrid_h000.csv: " + message in result.output

    @pytest.mark.parametrize("cmd", ["predict", "diagnose"])
    def test_missing_phi2_column(self, campaign, cmd):
        self.rewrite_samples(campaign, lambda cells: cells[:4] + cells[5:])
        self.assert_refused(campaign, cmd, "expected hybrid parameters ['beta0', 'beta1', 'phi1', 'phi2', 'sigma']")

    @pytest.mark.parametrize("cmd", ["predict"])
    @pytest.mark.parametrize("sigma", ["-0.05", "0"])
    def test_sigma_outside_support(self, campaign, cmd, sigma):
        self.rewrite_samples(campaign, lambda cells: cells[:-1] + [cells[-1] if cells[0] == "chain" else sigma])
        self.assert_refused(campaign, cmd, "400 of 400 draws are not finite or lie outside the prior support")

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e999"])
    def test_non_finite_draw_names_the_row_and_column(self, campaign, cell):
        # it was refused among the draws outside the prior support, its column unnamed
        self.rewrite_samples(campaign, lambda cells: cells[:2] + [cell] + cells[3:] if cells[0] == "0" else cells)
        result = invoke(["predict", "--manifest", str(campaign / "run.yaml")])
        assert result.exit_code == 2, result.output
        assert result.stderr == (
            f"error: {campaign / 'out' / 'samples_hybrid_h000.csv'}, row 1: "
            f"beta1 must be a finite number, found {cell!r}\n"
        )

    def test_samples_as_fit_wrote_them_are_accepted(self, campaign):
        for cmd in ("predict", "score", "diagnose"):
            result = invoke([cmd, "--manifest", str(campaign / "run.yaml")])
            assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("cmd", ["predict", "diagnose"])
    def test_too_few_draws(self, campaign, cmd):
        # fit retains at least 100 draws per chain; one draw would give predict degenerate quantiles
        path = campaign / "out" / "samples_hybrid_h000.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
        self.assert_refused(campaign, cmd, "need at least 100 posterior draws, found 1")
        assert not list((campaign / "out").glob("predictions_*.csv"))


class TestBadPredictions:
    """score reads only the test split and the predictions predict wrote; a predictions
    file it cannot use exits 2 with the file named and predict to re-run."""

    @staticmethod
    def predict(campaign) -> Path:
        result = invoke(["predict", "--manifest", str(campaign / "run.yaml")])
        assert result.exit_code == 0, result.output
        return campaign / "out" / "predictions_hybrid_h000.csv"

    @staticmethod
    def assert_refused(campaign, message):
        result = invoke(["score", "--manifest", str(campaign / "run.yaml")])
        assert result.exit_code == 2, result.output
        assert (result.stdout, result.stderr) == ("", f"error: {message}\n")
        assert not (campaign / "out" / "scores.csv").exists()

    def test_missing_file(self, campaign):
        path = campaign / "out" / "predictions_hybrid_h000.csv"
        self.assert_refused(campaign, f"{path}: no such file; run predict first")

    def test_header_without_crps(self, campaign):
        # the file as predict wrote it before it scored each row
        path = self.predict(campaign)
        path.write_text("".join(line.rsplit(", ", 1)[0] + "\n" for line in path.read_text().splitlines()))
        expected, found = io._PREDICTIONS_HEADER, io._PREDICTIONS_HEADER[:-1]
        self.assert_refused(campaign, f"{path}: expected header {expected}, found {found}; re-run predict")

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            (1, "inf", "mean_m must be finite, found 'inf'"),
            (4, "nan", "p95_m must be finite, found 'nan'"),
            (5, "nan", "crps_m must be finite and nonnegative, found 'nan'"),
            (5, "-0.002", "crps_m must be finite and nonnegative, found '-0.002'"),
        ],
    )
    def test_bad_cell(self, campaign, column, cell, message):
        path = self.predict(campaign)
        header, *rows = path.read_text().splitlines()
        cells = rows[2].split(", ")
        cells[column] = cell
        rows[2] = ", ".join(cells)
        path.write_text("\n".join([header, *rows]) + "\n")
        self.assert_refused(campaign, f"{path}, row 3: {message}; re-run predict")

    def test_valid_times_of_an_earlier_dataset(self, campaign):
        # the dataset rebuilt without its last measurement, at the time of the
        # predictions (so not newer): the split moves, and the file no longer
        # covers the test rows
        path = self.predict(campaign)
        dataset = campaign / "out" / "dataset_h000.csv"
        dataset.write_text("\n".join(dataset.read_text().splitlines()[:-1]) + "\n")
        os.utime(dataset, ns=(path.stat().st_mtime_ns,) * 2)
        self.assert_refused(
            campaign, f"{path}: valid times differ from the test split of {dataset}; re-run predict"
        )

    def test_predictions_older_than_their_samples(self, campaign):
        # fit with a new seed after predict: score refuses the old predictions
        # until predict runs again. The times are set, not waited for, and
        # equal times count as fresh.
        manifest = str(campaign / "run.yaml")
        path = self.predict(campaign)
        predicted = path.stat().st_mtime_ns
        assert invoke(["fit", "--manifest", manifest, "--seed", "5"]).exit_code == 0
        samples = campaign / "out" / "samples_hybrid_h000.csv"
        os.utime(samples, ns=(predicted + 1,) * 2)
        self.assert_refused(campaign, f"{path}: older than {samples}; re-run predict")
        assert invoke(["predict", "--manifest", manifest, "--seed", "5"]).exit_code == 0
        os.utime(path, ns=(predicted + 1,) * 2)
        result = invoke(["score", "--manifest", manifest])
        assert result.exit_code == 0, result.output

    def test_predictions_older_than_their_dataset(self, campaign):
        path = self.predict(campaign)
        dataset = campaign / "out" / "dataset_h000.csv"
        os.utime(dataset, ns=(path.stat().st_mtime_ns + 1,) * 2)
        self.assert_refused(campaign, f"{path}: older than {dataset}; re-run predict")


def test_horizons_draw_independent_normals(campaign):
    # horizon 1 gets horizon 0's dataset and samples byte for byte, so only
    # the seed of the predictive draws can tell the two horizons apart
    out = campaign / "out"
    for zero, one in zip(reads("predict", horizons=(0,)), reads("predict", horizons=(1,))):
        shutil.copyfile(out / zero, out / one)
    result = invoke(["predict", "--manifest", str(campaign / "run.yaml"), "-H", "0", "-H", "1"])
    assert result.exit_code == 0, result.output
    zero, one = writes("predict", horizons=(0, 1))
    assert (out / zero).read_bytes() != (out / one).read_bytes()


class TestEntryPoint:
    """heavecast.cli.run is the program, with the collector off; main leaves it alone for library callers."""

    def test_main_leaves_the_collector_alone(self, campaign):
        frozen = gc.get_freeze_count()
        for cmd in ("predict", "score", "diagnose"):
            assert invoke([cmd, "--manifest", str(campaign / "run.yaml")]).exit_code == 0
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen

    def test_run_freezes_the_heap_after_main(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["heavecast", "--help"])
        try:
            with pytest.raises(SystemExit) as exc:
                cli.run()
            assert exc.value.code == 0
            assert "Probabilistic heave-response forecasting pipeline." in capsys.readouterr().out
            assert not gc.isenabled()
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
            gc.enable()

    def test_stages_make_no_cyclic_garbage(self, tmp_path):
        """run() turns the collector off, which holds no memory only while no stage makes a reference cycle.

        Each command is run twice: the first pass imports what it needs
        (module and class definitions leave cycles, once per process).
        argparse's parsers are cyclic too, so each command's arguments are
        parsed before the collector is checked.
        """
        manifest = write_manifest(
            tmp_path, horizons=[0, 6], model_kind="hybrid", rao_file="out/rao.csv", spectra_file="out/spectra.csv",
            sampler={"chains": 2, "warmup_draws": 300, "retained_draws": 200},
        )
        commands = (["simulate", "--spectra-hours", "3"], ["response"], ["build"], ["fit"], ["predict"], ["score"],
                    ["diagnose"])
        found = {}
        for _ in range(2):
            for args in commands:
                command, options = cli._parse([*args, "--manifest", str(manifest)], "heavecast")
                gc.collect()
                gc.disable()
                try:
                    cli._run(command, options)  # as main runs it: the manifest loaded, under one errstate
                    found[args[0]] = gc.collect()
                finally:
                    gc.enable()
        assert found == dict.fromkeys(found, 0)

    def test_program_runs_the_pipeline_without_warnings(self, tmp_path):
        # the program as installed, with the collector off: a file left open
        # raises its ResourceWarning as an error, which lands on stderr
        manifest = write_manifest(
            tmp_path, horizons=[0], model_kind="hybrid",
            sampler={"chains": 2, "warmup_draws": 300, "retained_draws": 200},
        )
        for stage in ("simulate", "build", "fit", "predict", "score", "diagnose"):
            result = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "heavecast.cli", stage,
                 "--manifest", str(manifest)],
                env=_src_env(), capture_output=True, text=True,
            )
            assert (stage, result.returncode, result.stderr) == (stage, 0, "")

    def test_exit_codes_and_messages(self, campaign):
        manifest = campaign / "run.yaml"
        ok = program("predict", "--manifest", str(manifest), text=True)
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout.startswith("h=0: ") and ok.stderr == ""

        samples = campaign / "out" / "samples_hybrid_h000.csv"
        samples.write_text("\n".join(samples.read_text().splitlines()[:2]) + "\n")
        bad = program("predict", "--manifest", str(manifest), text=True)
        assert bad.returncode == 2
        assert bad.stderr == f"error: {samples}: need at least 100 posterior draws, found 1\n"

        cfg = yaml.safe_load(manifest.read_text())
        manifest.write_text(yaml.safe_dump({**cfg, "sampler": {**cfg["sampler"], "rhat_limit": 1.0}}))
        failed = program("fit", "--manifest", str(manifest), text=True)
        assert failed.returncode == 3
        named = f"numerical failure: {campaign / 'out' / 'dataset_h000.csv'}, horizon 0: "
        assert failed.stderr.startswith(f"{named}chains not converged, rhat over limit: ")
        assert failed.stderr.count("\n") == 1

    def test_score_prints_the_table_it_writes(self, campaign):
        assert program("predict", "--manifest", str(campaign / "run.yaml")).returncode == 0
        result = program("score", "--manifest", str(campaign / "run.yaml"))
        assert result.returncode == 0, result.stderr
        assert result.stdout == (campaign / "out" / "scores.txt").read_bytes()

    def test_installed_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"heavecast": "heavecast.cli:run"}


@pytest.mark.parametrize("cmd", ["fit", "predict", "score", "diagnose"])
def test_split_without_test_rows_is_validation_error(campaign, cmd):
    manifest = campaign / "run.yaml"
    cfg = yaml.safe_load(manifest.read_text())
    manifest.write_text(yaml.safe_dump({**cfg, "train_fraction": 0.999}))
    result = invoke([cmd, "--manifest", str(manifest)])
    assert result.exit_code == 2, result.output
    assert "train_fraction 0.999 leaves no test row of the" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("cmd", ["fit", "predict", "score", "diagnose"])
def test_too_few_rows_to_split_names_the_dataset(campaign, cmd):
    manifest = campaign / "run.yaml"
    assert invoke(["build", "-m", str(manifest), "-H", "12"]).exit_code == 0
    dataset = campaign / "out" / "dataset_h012.csv"
    dataset.write_text("\n".join(dataset.read_text().splitlines()[:6]) + "\n")
    result = invoke([cmd, "-m", str(manifest), "-H", "12"])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {dataset}: too few rows to split: 5 rows at horizon 12, at least 10 needed\n"


def test_too_few_training_rows_names_the_dataset(campaign):
    manifest = campaign / "run.yaml"
    cfg = yaml.safe_load(manifest.read_text())
    manifest.write_text(yaml.safe_dump({**cfg, "train_fraction": 1e-300}))
    result = invoke(["fit", "--manifest", str(manifest)])
    assert result.exit_code == 2, result.output
    dataset = campaign / "out" / "dataset_h000.csv"
    assert result.stderr == f"error: {dataset}, horizon 0: 1 training rows, at least 8 needed for the hybrid model\n"


def test_measurements_sharing_no_valid_time_name_the_file(campaign):
    measurements = campaign / "out" / "measurements.csv"
    measurements.write_text(measurements.read_text().splitlines()[0] + "\n")
    result = invoke(["build", "--manifest", str(campaign / "run.yaml")])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {measurements}, horizon 0: forecast series and measurements share no valid times\n"


class TestDiagnoseRanges:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-lag", "-3"], "max_lag must be at least 1, found -3"),
            (["--max-lag", "0"], "max_lag must be at least 1, found 0"),
            (["--bins", "0"], "n_bins must be at least 1, found 0"),
        ],
    )
    def test_out_of_range_is_validation_error(self, campaign, flags, message):
        result = invoke(["diagnose", "--manifest", str(campaign / "run.yaml"), *flags])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not list((campaign / "out").glob("pacf_*.csv"))

    def test_dataset_too_short_for_max_lag_names_it(self, campaign):
        result = invoke(["diagnose", "--manifest", str(campaign / "run.yaml"), "--max-lag", "100000"])
        assert result.exit_code == 2, result.output
        dataset = campaign / "out" / "dataset_h000.csv"
        message = "series of 404 rows allows a max_lag of at most 402, found 100000"
        assert result.stderr == f"error: {dataset}, horizon 0: {message}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            ([], "series of 20 rows allows a max_lag of at most 18, found 20"),
            (["--max-lag", "5", "--bins", "21"], "20 rows allow at most 20 bins, found 21"),
        ],
    )
    def test_short_dataset_says_what_its_rows_allow(self, campaign, flags, message):
        # 24 rows, of which the first ceil(0.8 * 24) = 20 train
        dataset = campaign / "out" / "dataset_h000.csv"
        dataset.write_text("\n".join(dataset.read_text().splitlines()[:25]) + "\n")
        result = invoke(["diagnose", "--manifest", str(campaign / "run.yaml"), *flags])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {dataset}, horizon 0: {message}\n"
        assert not list((campaign / "out").glob("pacf_*.csv"))


def _imported(args, python_args=("-m", "heavecast.cli")):
    """Exit code and names of every module `python PYTHON_ARGS ARGS` imports.

    Read from `-X importtime`, which lists each module the first time it is
    imported; with the default `-m heavecast.cli`, heavecast.cli itself runs
    as __main__.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *python_args, *args], env=_src_env(), capture_output=True, text=True
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }
    return proc.returncode, names


def test_help_loads_only_the_standard_library_and_the_package():
    # judged against the interpreter's own start-up, which may import
    # third-party modules through site (a .pth file), plus argparse
    code, names = _imported(["--help"])
    _, start_up = _imported([], python_args=("-c", "import argparse"))
    assert code == 0
    assert "argparse" in names
    added = {n for n in names - start_up if n.split(".")[0] not in sys.stdlib_module_names}
    assert added <= {"heavecast", "heavecast.cli"}


# the model stages read no campaign file and build no issue set
CAMPAIGN = {"datasets"}
# the heavecast modules each stage must leave unloaded
UNLOADED = {
    "simulate": {"sampler", "scoring", "diagnostics", "model", "motion"},
    "build": {"sampler", "synthetic", "scoring", "diagnostics", "model", "spectral", "motion"},
    "fit": {"synthetic", "scoring", "diagnostics", "spectral", "motion", *CAMPAIGN},
    "predict": {"sampler", "synthetic", "scoring", "diagnostics", "spectral", "motion", *CAMPAIGN},
    "score": {"sampler", "synthetic", "diagnostics", "model", "spectral", "motion", *CAMPAIGN},
    "diagnose": {"sampler", "synthetic", "scoring", "spectral", "motion", *CAMPAIGN},
}


def _stage_imports(tmp_path_factory, dump):
    """Modules each stage imported, running the pipeline in order on a small
    hybrid campaign whose manifest dump wrote."""
    tmp_path = tmp_path_factory.mktemp("imports")
    manifest = write_manifest(
        tmp_path, dump, horizons=[0], model_kind="hybrid",
        sampler={"chains": 2, "warmup_draws": 300, "retained_draws": 200},
    )
    imports = {}
    for stage in UNLOADED:
        code, names = _imported([stage, "--manifest", str(manifest)])
        assert code == 0, stage
        imports[stage] = names
    return imports


@pytest.fixture(scope="module")
def stage_imports(tmp_path_factory):
    """Modules each stage imported, its manifest block YAML."""
    return _stage_imports(tmp_path_factory, yaml.safe_dump)


@pytest.fixture(scope="module")
def json_stage_imports(tmp_path_factory):
    """Modules each stage imported, its manifest JSON."""
    return _stage_imports(tmp_path_factory, json.dumps)


@pytest.mark.parametrize("stage", list(UNLOADED))
def test_stage_leaves_other_stages_modules_unloaded(stage_imports, stage):
    names = stage_imports[stage]
    assert "heavecast.io" in names  # the manifest, its settings and the horizon datasets
    assert {f"heavecast.{m}" for m in UNLOADED[stage]}.isdisjoint(names)
    # numpy.ma costs about 16 ms to import, and np.unique imports it
    assert {"scipy.stats", "scipy.signal", "numpy.ma"}.isdisjoint(names)


def test_score_draws_no_random_numbers(stage_imports):
    # score reads the CRPS predict wrote, so it never loads numpy.random
    assert "numpy.random" in stage_imports["predict"]
    assert "numpy.random" not in stage_imports["score"]


def _pyyaml(names: set[str]) -> set[str]:
    return {n for n in names if n.split(".")[0] in ("yaml", "_yaml")}


@pytest.mark.parametrize("stage", list(UNLOADED))
def test_json_manifest_leaves_pyyaml_unloaded(stage_imports, json_stage_imports, stage):
    # PyYAML costs about 6 ms of every start; only a manifest that is not JSON needs it
    assert "yaml" in stage_imports[stage]
    names = json_stage_imports[stage]
    assert _pyyaml(names) == set()
    assert "heavecast.io" in names  # the manifest, its settings and the horizon datasets
    assert {f"heavecast.{m}" for m in UNLOADED[stage]}.isdisjoint(names)


def test_package_exports_only_its_version():
    # each public name is imported from the module that defines it, so the
    # package holds no second spelling of any of them
    assert heavecast.__version__ == "0.1.0"
    assert not hasattr(heavecast, "__all__")
    assert not hasattr(heavecast, "__getattr__")
    with pytest.raises(ImportError):
        exec("from heavecast import SamplerConfig", {})
    namespace = {}
    exec("from heavecast import sampler", namespace)
    assert namespace["sampler"] is sys.modules["heavecast.sampler"]


def test_import_leaves_scipy_stats_and_signal_out():
    # scipy.stats and scipy.signal dominate start-up time; no stage needs
    # them, so importing every module and public name must leave them out
    code = (
        "import importlib, pkgutil, sys, heavecast\n"
        "for mod in pkgutil.iter_modules(heavecast.__path__):\n"
        "    module = importlib.import_module('heavecast.' + mod.name)\n"
        "    for name in getattr(module, '__all__', ()):\n"
        "        getattr(module, name)\n"
        "print([m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_predict_holds_one_horizon_of_draws_at_a_time(tmp_path):
    """predict's traced peak must not grow with the number of horizons.

    Four horizons share one dataset and one samples file, so each horizon's
    (rows x draws) matrix is as large as the others. numpy reports its
    allocations to tracemalloc.
    """
    rng = np.random.default_rng(3)
    n_rows, n_draws = 1000, 1000
    times = np.datetime64("2024-06-01T00:00:00", "s") + np.arange(n_rows) * np.timedelta64(1, "h")
    x = rng.gamma(2.0, 0.5, n_rows)
    y = 1.1 * x + 0.05 * rng.standard_normal(n_rows)
    ds = HorizonDataset(horizon=0, valid_times=times, x=x, y=y, issue_times=times)
    spec = ModelSpec(kind="hybrid")
    samples = PosteriorSamples(
        draws=np.array([0.05, 1.1, 0.5, -0.2, 0.1]) + 0.01 * rng.standard_normal((n_draws, 5)),
        param_names=spec.param_names,
        chain_ids=np.zeros(n_draws, dtype=int),
        diagnostics={},
        acceptance_rate=1.0,
    )
    manifest = tmp_path / "run.yaml"
    cfg = {"out_dir": "out", "horizons": [0, 1, 2, 3], "model_kind": "hybrid", "train_fraction": 0.6}
    manifest.write_text(yaml.safe_dump(cfg))
    for h in range(4):
        io.write_horizon_dataset(tmp_path / "out" / f"dataset_h{h:03d}.csv", ds)
        samples_path, sidecar = (tmp_path / "out" / name for name in writes("fit", horizons=(h,)))
        io.write_posterior_samples(samples_path, samples, sidecar)

    def traced_peak(*flags):
        tracemalloc.reset_peak()
        result = invoke(["predict", "--manifest", str(manifest), *flags])
        assert result.exit_code == 0, result.output
        return tracemalloc.get_traced_memory()[1]

    assert invoke(["predict", "--manifest", str(manifest), "-H", "0"]).exit_code == 0  # imports happen untraced
    tracemalloc.start()
    try:
        one, four = traced_peak("-H", "0"), traced_peak()
    finally:
        tracemalloc.stop()
    matrix = 8 * n_draws * (n_rows - int(np.ceil(0.6 * n_rows)))
    assert one > matrix
    assert four < 1.25 * one, (one / matrix, four / matrix)
