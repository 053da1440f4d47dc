import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import heavecast
from heavecast.cli import main

RUNNER = CliRunner()


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


def run(args):
    return RUNNER.invoke(main, args, catch_exceptions=False)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One simulate -> build -> fit -> predict -> score run shared by tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    manifest = write_manifest(tmp_path)
    for cmd in ("simulate", "build", "fit", "predict", "score"):
        result = run([cmd, "--manifest", str(manifest)])
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
            assert (out / f"samples_basic_h{h:03d}.csv.diag.json").exists()

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
        result = run(["diagnose", "--manifest", str(manifest), "--max-lag", "10"])
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
        result = run(["simulate", "--manifest", str(manifest), "--spectra-hours", "3"])
        assert result.exit_code == 0, result.output
        result = run(["response", "--manifest", str(manifest)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "response.csv").read_text().strip().splitlines()
        assert lines[0] == "timestamp_utc, m0_m2, m2_m2_per_s2, sig_heave_m"
        assert len(lines) == 4

    def test_horizon_override(self, pipeline):
        tmp_path, manifest = pipeline
        result = run(["build", "--manifest", str(manifest), "--horizon", "12"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "dataset_h012.csv").exists()


class TestExitCodes:
    def test_missing_manifest_is_validation_error(self, tmp_path):
        result = RUNNER.invoke(main, ["build", "--manifest", str(tmp_path / "nope.yaml")])
        assert result.exit_code == 2

    def test_build_without_inputs(self, tmp_path):
        manifest = write_manifest(tmp_path)
        result = run(["build", "--manifest", str(manifest)])
        assert result.exit_code == 2

    def test_bad_manifest_key(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("out_dir: out\nwhatever: 1\n")
        result = run(["build", "--manifest", str(path)])
        assert result.exit_code == 2

    def test_non_integer_horizon_is_validation_error(self, tmp_path):
        manifest = write_manifest(tmp_path, horizons=["a"])
        result = run(["build", "--manifest", str(manifest)])
        assert result.exit_code == 2
        assert "horizons must be a list of nonnegative integers" in result.output

    def test_unknown_sampler_key_is_validation_error(self, tmp_path):
        manifest = write_manifest(tmp_path, sampler={"chainz": 3})
        result = run(["fit", "--manifest", str(manifest)])
        assert result.exit_code == 2
        assert "unknown manifest sampler keys: ['chainz']" in result.output

    def test_short_issue_row_is_validation_error(self, tmp_path):
        (tmp_path / "issue.csv").write_text(
            "issue_time_utc, valid_time_utc, sig_heave_m\n"
            "2024-06-01T00:00:00, 2024-06-01T00:00:00, 1.0\n"
            "2024-06-01T00:00:00, 2024-06-01T01:00:00\n"
        )
        (tmp_path / "measurements.csv").write_text("timestamp_utc, sig_heave_m, valid\n2024-06-01T00:00:00, 1.0, true\n")
        manifest = write_manifest(tmp_path, issue_files=["issue.csv"], measurements_file="measurements.csv")
        result = run(["build", "--manifest", str(manifest)])
        assert result.exit_code == 2
        assert "issue.csv, line 3: expected 3 cells, found 2" in result.output

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
            assert run([cmd, "--manifest", str(manifest)]).exit_code == 0
        result = run(["fit", "--manifest", str(manifest)])
        assert result.exit_code == 3


def test_import_leaves_scipy_stats_and_signal_out():
    # scipy.stats and scipy.signal dominate start-up time; no stage needs them
    code = "import sys, heavecast.cli; print([m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules])"
    src = str(Path(heavecast.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
