"""Per-layer metrics derived from the traced stage children.

Each traced stage writes one JSON document (see tracer.py) holding spans and
hot-call aggregates. This module folds the six documents of one traced
pipeline, plus the interpreter and import probes, into the per-layer metrics
named in BENCHMARK.json. Layers are heavecast's modules.
"""

from __future__ import annotations

import statistics

from tracer import self_seconds
from workloads import STAGES


def _spans(docs: dict, name: str, stages=STAGES) -> list[dict]:
    return [s for st in stages if st in docs for s in docs[st]["spans"] if s["name"] == name]


def _span_total(docs: dict, name: str, stages=STAGES) -> float:
    return sum(s["end"] - s["start"] for s in _spans(docs, name, stages))


def _agg(docs: dict, name: str, stages=STAGES) -> dict:
    """Hot-call aggregates of `name` summed over the given stages."""
    out: dict = {"calls": 0, "total_s": 0.0, "child_s": 0.0}
    for st in stages:
        for key, value in docs.get(st, {}).get("aggregates", {}).get(name, {}).items():
            out[key] = out.get(key, 0) + value
    return out


def _attr_sum(spans: list[dict], key: str) -> float:
    return sum(s["attrs"].get(key, 0) for s in spans)


def _per_call_us(agg: dict, seconds: float | None = None) -> float:
    total = agg["total_s"] if seconds is None else seconds
    return 1e6 * total / agg["calls"] if agg["calls"] else 0.0


def import_seconds(importtime_stderr: str, module: str) -> float:
    """Cumulative import time of `module` from `python -X importtime` output."""
    for line in importtime_stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) * 1e-6
    return 0.0


def layer_metrics(
    docs: dict,
    interpreter_s: float,
    importtime_stderr: str,
    traced_walls: dict,
    untraced_walls: dict,
    quality: dict,
) -> dict[str, float]:
    """docs maps stage -> trace document; walls map stage -> child seconds.

    The walls are scaled to the reference host speed (speed.py), as the
    end-to-end times are; cli.<stage>.wall_s is the untraced pass's. The span
    times inside the traced children are raw.

    quality holds the figures the output checks recomputed from the artifacts.
    """
    m: dict[str, float] = {
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": statistics.median(_span_total(docs, "cli.import", [st]) for st in docs),
        "cli.import.scipy_stats_s": import_seconds(importtime_stderr, "scipy.stats"),
    }
    for st in STAGES:
        m[f"cli.{st}.wall_s"] = untraced_walls[st]
        m[f"cli.{st}.self_s"] = sum(self_seconds(s) for s in _spans(docs, f"cli.{st}", [st]))

    for fn in ("generate_spectra", "true_response_series", "generate_forecast_issues"):
        m[f"synthetic.{fn}_s"] = _span_total(docs, f"synthetic.{fn}")
    resp = _agg(docs, "spectral.response_statistics")
    m["spectral.response_statistics_calls"] = resp["calls"]
    m["spectral.response_statistics_us"] = _per_call_us(resp)

    writes = _agg(docs, "io.write_forecast_issue")
    m["io.issue_files"] = writes["calls"]
    m["io.write_forecast_issue_s"] = writes["total_s"]
    m["io.read_forecast_issue_s"] = _agg(docs, "io.read_forecast_issue")["total_s"]
    for fn in ("read_horizon_dataset", "write_posterior_samples", "read_posterior_samples", "write_predictions"):
        m[f"io.{fn}_s"] = _span_total(docs, f"io.{fn}")
    m["io.bytes_written"] = _agg(docs, "io.atomic_write_text").get("bytes", 0)

    m["datasets.synthesize_horizon_series_s"] = _span_total(docs, "datasets.synthesize_horizon_series")
    aligned = _spans(docs, "datasets.align")
    m["datasets.align_s"] = _span_total(docs, "datasets.align")
    m["datasets.rows"] = _attr_sum(aligned, "rows")
    m["datasets.post_gap_rows"] = _attr_sum(aligned, "post_gap_rows")
    m["datasets.train_rows"] = _attr_sum(_spans(docs, "datasets.chrono_split", ["fit"]), "train_rows")
    m["datasets.test_rows"] = _attr_sum(_spans(docs, "datasets.chrono_split", ["predict"]), "test_rows")

    lp = _agg(docs, "model.log_posterior", ["fit"])
    cm = _agg(docs, "model.conditional_moments", ["fit"])
    m["model.log_posterior_calls"] = lp["calls"]
    m["model.log_posterior_us"] = _per_call_us(lp)
    m["model.conditional_moments_us"] = _per_call_us(cm)
    m["model.log_posterior_self_us"] = _per_call_us(lp, lp["total_s"] - lp["child_s"])
    m["model.out_of_support_ratio"] = lp.get("out_of_support", 0) / lp["calls"] if lp["calls"] else 0.0
    predictive = _spans(docs, "model.posterior_predictive")
    m["model.posterior_predictive_s"] = _span_total(docs, "model.posterior_predictive")
    m["model.predictive_values"] = _attr_sum(predictive, "values")

    fits = _spans(docs, "sampler.fit", ["fit"])
    m["sampler.fit_s"] = _span_total(docs, "sampler.fit", ["fit"])
    m["sampler.self_s"] = sum(self_seconds(s) for s in fits)
    m["sampler.diagnostics_s"] = sum(_agg(docs, f"sampler.{fn}", ["fit"])["total_s"] for fn in ("rhat", "ess"))
    m["sampler.accept_rate"] = statistics.fmean(s["attrs"]["accept_rate"] for s in fits) if fits else 0.0
    m["sampler.min_ess"] = min((s["attrs"]["min_ess"] for s in fits), default=0.0)
    m["sampler.max_rhat"] = max((s["attrs"]["max_rhat"] for s in fits), default=0.0)
    m["sampler.ess_per_s"] = quality["sum_min_ess"] / m["sampler.fit_s"] if m["sampler.fit_s"] else 0.0

    crps = _agg(docs, "scoring.crps_samples", ["score"])
    m["scoring.score_table_s"] = _span_total(docs, "scoring.score_table", ["score"])
    m["scoring.crps_samples_calls"] = crps["calls"]
    m["scoring.crps_samples_us"] = _per_call_us(crps)
    m["scoring.crps_m"] = quality["crps_m"]
    m["scoring.rmse_m"] = quality["rmse_m"]

    for fn in ("pacf", "standardized_residuals", "heteroskedasticity_summary"):
        m[f"diagnostics.{fn}_s"] = _span_total(docs, f"diagnostics.{fn}", ["diagnose"])

    m["trace.overhead_s"] = sum(traced_walls.values()) - sum(untraced_walls.values())
    return m
