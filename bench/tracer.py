"""Traced stage child: wrap heavecast's public functions, then run one CLI stage.

Usage (bench/run.py starts this as a child process):

    python3 bench/tracer.py SPANS_JSON RUN_ID STAGE [heavecast CLI args...]

The child imports `heavecast.cli` inside a timed span, replaces every module
attribute bound to a traced function (including names bound by
`from ... import`, such as `heavecast.sampler.log_posterior` or
`heavecast.cli.pacf`) with a timing wrapper, and calls `heavecast.cli.main`.
Spans stay in memory and are written as JSON to SPANS_JSON when the stage
exits, outside the run's out_dir. Hot inner functions (tens of thousands of
calls per stage) are kept as call count plus total and child time instead of
one span per call. The child exits with the stage's exit code.

The stack of open calls is per process and not thread-safe; the benchmark
never passes `--threads`, so every traced call runs on the main thread.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from dataclasses import dataclass

# Counters a probe may add to a call: each receives (args, kwargs, result).


def _out_of_support(args, kwargs, result):
    return {"out_of_support": int(result == -math.inf)}


def _bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode())}


def _aligned(args, kwargs, result):
    return {"rows": len(result), "post_gap_rows": int(result.post_gap.sum())}


def _split(args, kwargs, result):
    return {"train_rows": len(result[0]), "test_rows": len(result[1])}


def _predictive(args, kwargs, result):
    samples = args[0] if args else kwargs["samples"]
    return {"values": len(samples) * len(result)}


def _fit(args, kwargs, result):
    diag = result.diagnostics.values()
    return {
        "accept_rate": float(result.acceptance_rate),
        "min_ess": min(float(v["ess"]) for v in diag),
        "max_rhat": max(float(v["rhat"]) for v in diag),
    }


@dataclass(frozen=True)
class Target:
    """One traced function: `module.func`, recorded as `layer.func`."""

    module: str
    func: str
    hot: bool = False
    probe: object = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.func}"


TARGETS = (
    Target("heavecast.synthetic", "generate_spectra"),
    Target("heavecast.synthetic", "true_response_series"),
    Target("heavecast.synthetic", "generate_forecast_issues"),
    Target("heavecast.spectral", "response_statistics", hot=True),
    Target("heavecast.io", "atomic_write_text", hot=True, probe=_bytes),
    Target("heavecast.io", "write_forecast_issue", hot=True),
    Target("heavecast.io", "read_forecast_issue", hot=True),
    Target("heavecast.io", "read_heave_records"),
    Target("heavecast.io", "write_heave_records"),
    Target("heavecast.io", "write_rao"),
    Target("heavecast.io", "read_horizon_dataset"),
    Target("heavecast.io", "write_horizon_dataset"),
    Target("heavecast.io", "read_posterior_samples"),
    Target("heavecast.io", "write_posterior_samples"),
    Target("heavecast.io", "write_predictions"),
    Target("heavecast.io", "write_score_reports"),
    Target("heavecast.datasets", "synthesize_horizon_series"),
    Target("heavecast.datasets", "align", probe=_aligned),
    Target("heavecast.datasets", "chrono_split", probe=_split),
    Target("heavecast.model", "log_posterior", hot=True, probe=_out_of_support),
    Target("heavecast.model", "conditional_moments", hot=True),
    Target("heavecast.model", "posterior_predictive", probe=_predictive),
    Target("heavecast.model", "residuals"),
    Target("heavecast.model", "map_sigma"),
    Target("heavecast.sampler", "fit", probe=_fit),
    Target("heavecast.sampler", "rhat", hot=True),
    Target("heavecast.sampler", "ess", hot=True),
    Target("heavecast.scoring", "score_table"),
    Target("heavecast.scoring", "crps_samples", hot=True),
    Target("heavecast.scoring", "format_score_table"),
    Target("heavecast.diagnostics", "pacf"),
    Target("heavecast.diagnostics", "standardized_residuals"),
    Target("heavecast.diagnostics", "heteroskedasticity_summary"),
)


class Tracer:
    """In-memory spans and hot-call aggregates with exact self-time accounting.

    Every open call keeps the summed duration of its direct children; when a
    call ends its duration is added to its parent's sum, so a span's self time
    is its duration minus the time its traced children covered. Calls run
    nested on one thread, so direct children never overlap.
    """

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[dict] = []
        self.aggregates: dict[str, dict] = {}
        self._stack: list[list] = []  # [span index or None, child seconds]

    def call(self, name: str, fn, args=(), kwargs=None, hot: bool = False, probe=None):
        kwargs = kwargs or {}
        index = None
        if not hot:
            index = len(self.spans)
            parent = self._open_span()
            self.spans.append({"id": index, "name": name, "parent": parent, "run_id": self.run_id})
        frame = [index, 0.0]
        self._stack.append(frame)
        finished = False
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            finished = True
            return result
        finally:
            # also runs when the call raises, e.g. SystemExit from a failing
            # stage, so every span is closed and charged to its parent
            end = self.clock()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            counters = probe(args, kwargs, result) if probe and finished else {}
            if hot:
                agg = self.aggregates.setdefault(name, {"calls": 0, "total_s": 0.0, "child_s": 0.0})
                agg["calls"] += 1
                agg["total_s"] += end - start
                agg["child_s"] += frame[1]
                for key, value in counters.items():
                    agg[key] = agg.get(key, 0) + value
            else:
                self.spans[index].update(start=start, end=end, child_s=frame[1], attrs=counters)

    def _open_span(self):
        for index, _ in reversed(self._stack):
            if index is not None:
                return index
        return None

    def wrap(self, target: Target, fn):
        def wrapper(*args, **kwargs):
            return self.call(target.name, fn, args, kwargs, target.hot, target.probe)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every heavecast module attribute that is a traced function."""
        modules = [m for n, m in list(sys.modules.items()) if n == "heavecast" or n.startswith("heavecast.")]
        for target in TARGETS:
            original = getattr(importlib.import_module(target.module), target.func)
            wrapper = self.wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def to_json(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "aggregates": self.aggregates}


def self_seconds(span: dict) -> float:
    """Span duration minus the time its traced children covered."""
    return span["end"] - span["start"] - span["child_s"]


def main(argv: list[str]) -> int:
    spans_path, run_id, stage, *cli_args = argv
    tracer = Tracer(run_id)
    cli = tracer.call("cli.import", importlib.import_module, ("heavecast.cli",))
    tracer.install()
    code = 0
    try:
        tracer.call(f"cli.{stage}", cli.main, kwargs={"args": [stage, *cli_args], "prog_name": "heavecast"})
    except SystemExit as exc:  # click's standalone mode always exits
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    doc = tracer.to_json()
    doc.update(stage=stage, exit_code=code)
    with open(spans_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
