"""Tests of the benchmark harness itself: run with `python3 -m pytest bench/tests`."""

import json
import math
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import layers
import run
import speed
import tracer
import workloads
from tracer import Tracer, self_seconds
from workloads import STAGES


class Clock:
    """Fake clock that only moves when a test advances it."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


def test_self_time_is_span_minus_traced_children():
    clock = Clock()
    tr = Tracer("run-1", clock)

    def moments():
        clock.tick(0.25)

    def log_posterior():
        clock.tick(0.5)
        tr.call("model.conditional_moments", moments, hot=True)

    def leaf():
        clock.tick(2.0)

    def stage():
        clock.tick(1.0)
        tr.call("leaf", leaf)
        tr.call("model.log_posterior", log_posterior, hot=True)
        tr.call("model.log_posterior", log_posterior, hot=True)
        clock.tick(3.0)

    tr.call("cli.fit", stage)
    outer, inner = tr.spans
    assert (outer["start"], outer["end"]) == (0.0, 7.5)
    assert self_seconds(outer) == pytest.approx(7.5 - 2.0 - 1.5)
    assert self_seconds(inner) == pytest.approx(2.0)
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert {s["run_id"] for s in tr.spans} == {"run-1"}
    lp = tr.aggregates["model.log_posterior"]
    assert lp["calls"] == 2
    assert lp["total_s"] == pytest.approx(1.5)
    assert lp["total_s"] - lp["child_s"] == pytest.approx(1.0)
    assert tr.aggregates["model.conditional_moments"]["total_s"] == pytest.approx(0.5)


def test_span_closed_and_charged_when_the_stage_exits():
    clock = Clock()
    tr = Tracer("run-2", clock)

    def failing():
        clock.tick(1.0)
        sys.exit(3)

    def stage():
        tr.call("io.read_horizon_dataset", failing)

    with pytest.raises(SystemExit):
        tr.call("cli.fit", stage)
    outer, inner = tr.spans
    assert inner["end"] - inner["start"] == 1.0 and inner["attrs"] == {}
    assert outer["child_s"] == 1.0 and self_seconds(outer) == 0.0


def test_install_covers_names_bound_by_from_import(monkeypatch):
    import heavecast.cli
    import heavecast.sampler
    import heavecast.synthetic

    for name, module in list(sys.modules.items()):
        if name.startswith("heavecast"):
            for attr, value in list(vars(module).items()):
                if callable(value):
                    monkeypatch.setattr(module, attr, value)  # restored after the test
    tr = Tracer("run-3")
    tr.install()
    for module, attr in ((heavecast.sampler, "log_posterior"), (heavecast.cli, "pacf"),
                         (heavecast.synthetic, "response_statistics"), (heavecast.io, "write_forecast_issue")):
        assert hasattr(getattr(module, attr), "__wrapped__"), f"{module.__name__}.{attr}"
    heavecast.cli.pacf(np.sin(np.arange(50.0)), 3)
    assert tr.spans[-1]["name"] == "diagnostics.pacf"


class Rows(SimpleNamespace):
    def __len__(self):
        return self.post_gap.size


def _fake_docs():
    """Trace documents in which every traced target ran once per stage."""
    clock = Clock()
    fit_result = SimpleNamespace(diagnostics={"beta0": {"ess": 300.0, "rhat": 1.01}}, acceptance_rate=0.3)
    aligned = Rows(post_gap=np.array([True, False, False]))
    special = {
        "io.atomic_write_text": ((None, "abc"), None),
        "datasets.align": ((), aligned),
        "datasets.chrono_split": ((), ([0] * 8, [0] * 2)),
        "model.log_posterior": ((), -math.inf),
        "model.posterior_predictive": (([0] * 10,), [0] * 3),
        "sampler.fit": ((), fit_result),
    }
    docs = {}
    for stage in STAGES:
        tr = Tracer("run-4", clock)
        tr.call("cli.import", clock.tick, (1.5,))

        def body():
            for target in tracer.TARGETS:
                args, result = special.get(target.name, ((), None))
                tr.call(target.name, lambda *a, r=result: (clock.tick(0.01), r)[1], args, hot=target.hot,
                        probe=target.probe)

        tr.call(f"cli.{stage}", body)
        docs[stage] = tr.to_json()
    return docs


def test_every_benchmark_metric_is_emitted_with_a_unit():
    units = run.load_spec()
    walls = {st: 2.0 for st in STAGES}
    quality = {"sum_min_ess": 600.0, "max_rhat": 1.01, "crps_m": 0.01, "rmse_m": 0.02, "crps_ratio": 0.2,
               "rmse_ratio": 0.3}
    importtime = "import time:  10 | 1443093 | scipy.stats\n"
    per_layer = layers.layer_metrics(_fake_docs(), 0.1, importtime, walls, walls, quality)
    child = run.Child(wall_s=4.0, cpu_s=1.9, code=0, maxrss_mb=100.0, stderr="", speed=0.5)
    rep = {st: child for st in STAGES}
    end_to_end = run.end_to_end_metrics([rep, rep], [child] * 3, [1.0, 2.0, 3.0], quality)
    for trace, metrics in ((0, end_to_end), (1, per_layer)):
        assert set(metrics) == set(units[trace])
        line = run.result_line(run.Ledger(), metrics, units[trace])
        for name, m in line["metrics"].items():
            assert isinstance(m["value"], (int, float)), name
            assert m["unit"], name
    assert end_to_end["pipeline_s"] == 12.0 and end_to_end["setup_s"] == 2.0
    assert end_to_end["startup_s"] == 2.0 and end_to_end["fit_s"] == 2.0
    assert end_to_end["nonfit_stages_s"] == 10.0 and per_layer["cli.build.wall_s"] == 2.0
    assert per_layer["sampler.ess_per_s"] == pytest.approx(600.0 / 0.01)
    assert per_layer["cli.import.scipy_stats_s"] == pytest.approx(1.443093)
    assert per_layer["model.out_of_support_ratio"] == 1.0
    assert per_layer["datasets.train_rows"] == 8 and per_layer["datasets.test_rows"] == 2
    assert per_layer["model.predictive_values"] == 30 * len(STAGES)
    assert per_layer["io.bytes_written"] == 3 * len(STAGES)
    assert per_layer["cli.import_s"] == pytest.approx(1.5)


class FailingFitRunner(run.Runner):
    def stage_argv(self, stage, manifest, trace_to=None):
        code = "import sys; sys.exit(3 if sys.argv[1] == 'fit' else 0)"
        return [sys.executable, "-c", code, stage]


def test_failing_stage_raises_fail_ratio_instead_of_crashing(tmp_path):
    inputs = workloads.WORKLOADS["readme-hybrid"](5)
    manifest = inputs.write(tmp_path)
    ledger = run.Ledger()
    runner = FailingFitRunner(tmp_path, ledger, deadline=time.perf_counter() + 60.0)
    startups = runner.startups("pass0", manifest)
    rep = runner.pipeline(inputs, manifest, "pass0")
    quality = run.check_outputs(ledger, inputs, manifest, check_doc=None)
    assert rep["fit"].code == 3
    assert ledger.attempted == run.STARTUPS + len(STAGES) + 2  # children, artifact set, quality
    assert ledger.failed == 3 and any(f.startswith("pass0.fit") for f in ledger.failures)
    metrics = run.end_to_end_metrics([rep], startups, [1.0], quality)
    line = run.result_line(ledger, metrics, run.load_spec()[0])
    assert line["correct"] is False and line["failed"] == 3
    assert line["metrics"]["crps_ratio"]["value"] is None
    json.dumps(line)


def test_scores_must_agree_with_scores_csv_to_three_decimals(tmp_path):
    inputs = workloads.WORKLOADS["readme-basic"](2)
    manifest = inputs.write(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    for h in inputs.horizons:
        sidecar = {"parameters": {"beta0": {"rhat": 1.002, "ess": 400.0}, "sigma": {"rhat": 1.01, "ess": 300.0}}}
        (out / f"samples_basic_h{h:03d}.csv.diag.json").write_text(json.dumps(sidecar))
    (out / "scores.csv").write_text(
        "model, horizon_h, rmse_m, crps_m, n\n"
        "basic adjustment, 0, 0.012, 0.007, 100\nbasic adjustment, 12, 0.013, 0.008, 98\n"
        "raw physics, 0, 0.050, 0.040, 100\nraw physics, 12, 0.060, 0.050, 98\n"
    )
    per_h = {
        "0": {"basic adjustment": {"rmse": 0.01249, "crps": 0.0074}, "raw physics": {"rmse": 0.0504, "crps": 0.04}},
        "12": {"basic adjustment": {"rmse": 0.013, "crps": 0.0086}, "raw physics": {"rmse": 0.06, "crps": 0.05}},
    }
    for v in per_h.values():
        v.update(train_rows=400, test_rows=100)
    ledger = run.Ledger()
    quality = run.check_outputs(ledger, inputs, manifest, {"rhat_limit": 1.05, "horizons": per_h})
    assert ledger.attempted == 1 + 2 * 2 * 2
    assert ledger.failures == ["scores.csv basic adjustment h=12 crps: full 0.0086 vs printed (0.013, 0.008)"]
    assert quality["max_rhat"] == 1.01 and quality["sum_min_ess"] == 600.0
    (out / "scores.csv").write_text("garbled\n")
    garbled = run.Ledger()
    run.check_outputs(garbled, inputs, manifest, {"rhat_limit": 1.05, "horizons": per_h})
    assert garbled.failed == 2 * 2 * 2
    assert quality["crps_m"] == pytest.approx((0.0074 + 0.0086) / 2)
    assert quality["rmse_ratio"] == pytest.approx((0.01249 / 0.0504 + 0.013 / 0.06) / 2)


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    a, b, c = (workloads.WORKLOADS["year-hybrid"](s) for s in (7, 7, 8))
    assert a == b and a.manifest != c.manifest
    assert 20 <= len(a.manifest["scenario"]["events"]) <= 40
    assert a.outage_hours and a.outage_hours != c.outage_hours
    assert a.write(tmp_path).read_text() == b.write(tmp_path).read_text()
    measurements = tmp_path / "measurements.csv"
    rows = [f"2024-06-01T{h:02d}:00:00, 0.5, true" for h in range(6)]
    measurements.write_text("\n".join(["timestamp_utc, sig_heave_m, valid", *rows]) + "\n")
    assert workloads.apply_outages(measurements, (1, 2)) == 2
    lines = measurements.read_text().splitlines()
    assert lines[2] == "2024-06-01T01:00:00, nan, false" and lines[4].endswith("true")


def test_speed_factor_is_reference_over_mean_kernel_time_in_the_window():
    meter = speed.Speedometer()
    meter.samples = [(1.0, 0.004), (2.0, 0.001), (3.0, 0.003), (9.0, 0.010)]
    assert meter.kernel_s(1.5, 3.5) == pytest.approx(0.002)
    assert meter.speed_factor(1.5, 3.5) == pytest.approx(speed.REF_KERNEL_S / 0.002)
    assert meter.kernel_s(4.0, 5.0) == pytest.approx(0.0045)  # no sample inside: all of them
    with speed.Speedometer() as live:
        time.sleep(4 * speed.PERIOD_S)
    assert live.samples and all(d > 0 for _, d in live.samples)
    child = run.Child(wall_s=3.0, cpu_s=2.9, code=0, maxrss_mb=1.0, stderr="", speed=0.8)
    assert child.scaled_s == pytest.approx(2.4)


def test_determinism_check_compares_passes_and_earlier_runs(tmp_path):
    store = tmp_path / "digests.json"
    ledger = run.Ledger()
    run.check_determinism(ledger, "w/1/x", ["d1", "d1"], store)
    run.check_determinism(ledger, "w/1/x", ["d2"], store)
    assert ledger.attempted == 2 and ledger.failed == 1
