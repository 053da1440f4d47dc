import gc
import json
import os
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
from heavecast.datasets import HorizonDataset
from heavecast.model import ModelSpec, PosteriorSamples
from heavecast.spectral import response_moments
from clirun import invoke


def write_manifest(tmp_path, **overrides):
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
    path.write_text(yaml.safe_dump(cfg))
    return path


def _src_env():
    """os.environ with the heavecast package under test first on PYTHONPATH."""
    src = str(Path(heavecast.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def program(*args, **kwargs):
    """Run `python -m heavecast.cli ARGS` as its own process, as the installed script runs."""
    return subprocess.run(
        [sys.executable, "-m", "heavecast.cli", *args], env=_src_env(), capture_output=True, **kwargs
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
    def test_simulate_artifacts(self, pipeline):
        tmp_path, _ = pipeline
        out = tmp_path / "out"
        assert (out / "rao.csv").exists()
        assert (out / "measurements.csv").exists()
        assert len(list((out / "issues").glob("issue_*.csv"))) > 50

    def test_build_artifacts(self, pipeline):
        tmp_path, _ = pipeline
        out = tmp_path / "out"
        for h in (0, 6):
            p = out / f"dataset_h{h:03d}.csv"
            assert p.exists()
            assert len(p.read_text().strip().splitlines()) > 100

    def test_fit_artifacts(self, pipeline):
        tmp_path, _ = pipeline
        out = tmp_path / "out"
        for h in (0, 6):
            assert (out / f"samples_basic_h{h:03d}.csv").exists()
            sidecar = json.loads((out / f"samples_basic_h{h:03d}.csv.diag.json").read_text())
            assert 0.5 < sidecar["acceptance_rate"] <= 1.0
            facts = sidecar["sampler"]
            assert set(facts) == {"burn_in_sweeps", "retained_sweeps", "rejections", "min_ess"}
            assert list(facts["rejections"]) == ["beta"]
            assert facts["min_ess"] == min(p["ess"] for p in sidecar["parameters"].values())

    def test_predict_artifacts(self, pipeline):
        tmp_path, _ = pipeline
        out = tmp_path / "out"
        lines = (out / "predictions_basic_h000.csv").read_text().strip().splitlines()
        assert lines[0] == "valid_time_utc, mean_m, p05_m, p50_m, p95_m"
        assert len(lines) > 10

    def test_score_artifacts(self, pipeline):
        tmp_path, _ = pipeline
        out = tmp_path / "out"
        text = (out / "scores.csv").read_text()
        assert "basic adjustment" in text and "raw physics" in text
        assert (out / "scores.txt").exists()

    def test_diagnose(self, pipeline):
        tmp_path, manifest = pipeline
        result = invoke(["diagnose", "--manifest", str(manifest), "--max-lag", "10"])
        assert result.exit_code == 0, result.output
        out = tmp_path / "out"
        assert (out / "pacf_basic_h000.csv").exists()
        assert (out / "hetero_basic_h006.csv").exists()

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
        # the reference: one validated spectrum object per row, read for its timestamp
        spectra = io.read_spectra(tmp_path / "out" / "spectra.csv")
        m0, m2 = response_moments(spectra, io.read_rao(tmp_path / "out" / "rao.csv"))
        lines = ["timestamp_utc, m0_m2, m2_m2_per_s2, sig_heave_m"]
        for spec, a, b, sig in zip(spectra, m0, m2, 2.0 * np.sqrt(m0)):
            lines.append(f"{spec.timestamp}, {a:.10g}, {b:.10g}, {sig:.10g}")
        assert len(lines) == 31
        assert (tmp_path / "out" / "response.csv").read_text() == "\n".join(lines) + "\n"

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

    def test_build_without_inputs(self, tmp_path):
        manifest = write_manifest(tmp_path)
        result = invoke(["build", "--manifest", str(manifest)])
        assert result.exit_code == 2

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
        assert f"error: rhat_limit must be finite and at least 1.0, found {limit!r}" in result.output
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
                "manifest scenario key measurement_noise must be finite and nonnegative, found nan",
            ),
        ],
    )
    def test_non_finite_or_nonpositive_setting_is_validation_error(self, tmp_path, override, message):
        manifest = write_manifest(tmp_path, **override)
        result = invoke(["simulate", "--manifest", str(manifest)])
        assert result.exit_code == 2, result.output
        assert f"error: {message}" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "out" / "issues").exists()

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
        assert "issue.csv: valid time 2024-06-01T01:30:00 is not a whole number of hours" in result.output

    def test_wall_clock_issue_time_is_validation_error(self, tmp_path):
        # numpy reads `now` as the current time, which would make build's output depend on when it ran
        (tmp_path / "issue.csv").write_text("issue_time_utc, valid_time_utc, sig_heave_m\nnow, now, 1.0\n")
        (tmp_path / "measurements.csv").write_text("timestamp_utc, sig_heave_m, valid\n2024-06-01T00:00:00, 1.0, true\n")
        manifest = write_manifest(tmp_path, issue_files=["issue.csv"], measurements_file="measurements.csv")
        result = invoke(["build", "--manifest", str(manifest)])
        assert result.exit_code == 2, result.output
        assert "issue.csv: issue time is not a time ('now')" in result.output
        assert not list((tmp_path / "out").glob("dataset_*.csv"))

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

    def test_malformed_yaml_is_validation_error(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("out_dir: [\n")
        result = invoke(["build", "--manifest", str(path)])
        assert result.exit_code == 2
        assert f"{path}: malformed YAML" in result.output

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
            ({"start": "5"}, "'5' is not an ISO-8601 time"),
            ({"start": "2024-13-01T00:00:00"}, "manifest scenario key start:"),
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


class TestUsage:
    """A usage error exits 2 with a message naming the culprit, and prints nothing to stdout."""

    @pytest.mark.parametrize(
        "args, pattern",
        [
            (["nosuch"], r"'nosuch'"),  # an unknown command
            (["build"], r"--manifest"),  # -m is required
            (["build", "-m", "run.yaml", "--model", "other"], r"--model.*'other'|'other'.*--model"),
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
        assert "--manifest" in result.output and "override manifest horizons" in result.output

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

    @pytest.mark.parametrize("cmd", ["predict", "score", "diagnose"])
    def test_missing_phi2_column(self, campaign, cmd):
        self.rewrite_samples(campaign, lambda cells: cells[:4] + cells[5:])
        self.assert_refused(campaign, cmd, "expected hybrid parameters ['beta0', 'beta1', 'phi1', 'phi2', 'sigma']")

    @pytest.mark.parametrize("cmd", ["predict", "score"])
    @pytest.mark.parametrize("sigma", ["nan", "-0.05"])
    def test_sigma_outside_support(self, campaign, cmd, sigma):
        self.rewrite_samples(campaign, lambda cells: cells[:-1] + [cells[-1] if cells[0] == "chain" else sigma])
        self.assert_refused(campaign, cmd, "400 of 400 draws are not finite or lie outside the prior support")

    @pytest.mark.parametrize("cmd", ["predict", "score", "diagnose"])
    def test_sidecar_not_an_object(self, campaign, cmd):
        (campaign / "out" / "samples_hybrid_h000.csv.diag.json").write_text("[]\n")
        result = invoke([cmd, "--manifest", str(campaign / "run.yaml")])
        assert result.exit_code == 2, result.output
        assert "samples_hybrid_h000.csv.diag.json: expected a JSON object, found list" in result.output
        assert "Traceback" not in result.output

    def test_samples_as_fit_wrote_them_are_accepted(self, campaign):
        for cmd in ("predict", "score", "diagnose"):
            result = invoke([cmd, "--manifest", str(campaign / "run.yaml")])
            assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("cmd", ["predict", "score", "diagnose"])
    def test_too_few_draws(self, campaign, cmd):
        # fit retains at least 100 draws per chain; one draw would give predict degenerate quantiles
        path = campaign / "out" / "samples_hybrid_h000.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
        self.assert_refused(campaign, cmd, "need at least 100 posterior draws, found 1")
        assert not list((campaign / "out").glob("predictions_*.csv"))


class TestEntryPoint:
    """heavecast.cli.run is the program; main leaves the collector alone for library callers."""

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
            assert gc.isenabled()
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_exit_codes_and_messages(self, campaign):
        manifest = campaign / "run.yaml"
        ok = program("predict", "--manifest", str(manifest), text=True)
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout.startswith("h=0: ") and ok.stderr == ""

        samples = campaign / "out" / "samples_hybrid_h000.csv"
        samples.write_text("\n".join(samples.read_text().splitlines()[:2]) + "\n")
        bad = program("score", "--manifest", str(manifest), text=True)
        assert bad.returncode == 2
        assert bad.stderr == f"error: {samples}: need at least 100 posterior draws, found 1\n"

        cfg = yaml.safe_load(manifest.read_text())
        manifest.write_text(yaml.safe_dump({**cfg, "sampler": {**cfg["sampler"], "rhat_limit": 1.0}}))
        failed = program("fit", "--manifest", str(manifest), text=True)
        assert failed.returncode == 3
        assert failed.stderr.startswith("numerical failure: chains not converged, rhat over limit: ")
        assert failed.stderr.count("\n") == 1

    def test_score_prints_the_table_it_writes(self, campaign):
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


# the heavecast modules each stage must leave unloaded
UNLOADED = {
    "simulate": {"sampler", "scoring", "diagnostics"},
    "build": {"sampler", "synthetic", "scoring", "diagnostics", "model", "spectral"},
    "fit": {"synthetic", "scoring", "diagnostics", "spectral", "motion"},
    "predict": {"sampler", "synthetic", "scoring", "diagnostics", "spectral", "motion"},
    "score": {"sampler", "synthetic", "diagnostics", "spectral", "motion"},
    "diagnose": {"sampler", "synthetic", "scoring", "spectral", "motion"},
}


@pytest.fixture(scope="module")
def stage_imports(tmp_path_factory):
    """Modules each stage imported, running the pipeline in order on a small hybrid campaign."""
    tmp_path = tmp_path_factory.mktemp("imports")
    manifest = write_manifest(
        tmp_path, horizons=[0], model_kind="hybrid",
        sampler={"chains": 2, "warmup_draws": 300, "retained_draws": 200},
    )
    imports = {}
    for stage in UNLOADED:
        code, names = _imported([stage, "--manifest", str(manifest)])
        assert code == 0, stage
        imports[stage] = names
    return imports


@pytest.mark.parametrize("stage", list(UNLOADED))
def test_stage_leaves_other_stages_modules_unloaded(stage_imports, stage):
    names = stage_imports[stage]
    assert "heavecast.io" in names and "heavecast.config" in names
    assert {f"heavecast.{m}" for m in UNLOADED[stage]}.isdisjoint(names)
    # numpy.ma costs about 16 ms to import, and np.unique imports it
    assert {"scipy.stats", "scipy.signal", "numpy.ma"}.isdisjoint(names)


def test_public_names_resolve_lazily():
    from heavecast import sampler

    assert heavecast.__version__ == "0.1.0"
    listed = dir(heavecast)
    for name in heavecast.__all__:
        assert name in listed
        value = getattr(heavecast, name)
        assert getattr(sys.modules[value.__module__], name) is value
    assert heavecast.SamplerConfig is sampler.SamplerConfig
    with pytest.raises(AttributeError):
        heavecast.no_such_name  # noqa: B018


def test_import_leaves_scipy_stats_and_signal_out():
    # scipy.stats and scipy.signal dominate start-up time; no stage needs
    # them, so importing every module and public name must leave them out
    code = (
        "import importlib, pkgutil, sys, heavecast\n"
        "for mod in pkgutil.iter_modules(heavecast.__path__):\n"
        "    importlib.import_module('heavecast.' + mod.name)\n"
        "for name in heavecast.__all__:\n"
        "    getattr(heavecast, name)\n"
        "print([m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_score_holds_one_horizon_of_draws_at_a_time(tmp_path):
    """score's traced peak must not grow with the number of horizons.

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
        io.write_posterior_samples(tmp_path / "out" / f"samples_hybrid_h{h:03d}.csv", samples)

    def traced_peak(*flags):
        tracemalloc.reset_peak()
        result = invoke(["score", "--manifest", str(manifest), *flags])
        assert result.exit_code == 0, result.output
        return tracemalloc.get_traced_memory()[1]

    assert invoke(["score", "--manifest", str(manifest), "-H", "0"]).exit_code == 0  # imports happen untraced
    tracemalloc.start()
    try:
        one, four = traced_peak("-H", "0"), traced_peak()
    finally:
        tracemalloc.stop()
    matrix = 8 * n_draws * (n_rows - int(np.ceil(0.6 * n_rows)))
    assert one > matrix
    assert four < 1.25 * one, (one / matrix, four / matrix)
