"""Seeded workload generation for the pipeline benchmark.

A workload turns the benchmark seed into the only inputs the program sees
(the README workloads keep the README's own seed):
a run manifest (written as JSON, which the manifest's YAML loader reads) and,
for `year-hybrid`, a list of measurement outage hours that the benchmark
flags `valid=false` in `measurements.csv` between `simulate` and `build`.
The same seed always yields byte-identical inputs. Only the standard library
is used, so run.py never imports the program it measures.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path

STAGES = ("simulate", "build", "fit", "predict", "score", "diagnose")

# The README campaign as its run.yaml gives it: 21 days with two swell events,
# seed 11, 3 chains x (1000 warm-up + 1000 retained) draws. The README's four
# horizons take about 50 s of fit alone, more than a run can hold, so only
# horizons 0 and 12 are kept, with 500 retained draws; fit seeds each horizon
# with seed + horizon, so these two chains follow the full campaign's through
# warm-up and the first 500 retained draws. The README fixes the seed, so
# the benchmark seed does not change these inputs. Other manifest seeds stop
# with split R-hat above the 1.05 limit at this warm-up (3 of 11 tried), a
# standing sampler defect (ROADMAP item 4) that this workload does not measure.
README_SEED = 11
_README_SCENARIO = {
    "duration_h": 504,
    "background_hs": 0.6,
    "measurement_noise": 0.01,
    "events": [
        {"arrival_h": 96, "hs": 2.2, "tp": 16.0},
        {"arrival_h": 260, "hs": 1.6, "tp": 14.0},
    ],
}
_README_INJECTION = {"bias_factor": 0.85, "noise_scale": 0.02, "noise_ar": 0.6}
_README_SAMPLER = {"chains": 3, "warmup_draws": 1000, "retained_draws": 500}

# Half a year of hourly sea states: large training sets, hundreds of issue
# files and a horizon (72 h) on the 00Z/12Z 12-hour-block path. A full year
# (8760 h) takes about 45 s before fitting, more than a run can hold. The
# sampler draws 3 x (1000 + 500): with 2 x (600 + 600) split R-hat reached
# 1.0475 of the 1.05 limit on one of five seeds, so some seeds would stop fit.
YEAR_HOURS = 4380
# Swell heights, periods and spacings are drawn in blocks of this many
# events, one draw from each of as many equal slices of the range per block,
# so every stretch of a few weeks, the test split among them, sees a similar
# mix of sea states whatever the seed.
EVENT_BLOCK = 3
_YEAR_SAMPLER = {"chains": 3, "warmup_draws": 1000, "retained_draws": 500}
_YEAR_INJECTION = {
    "bias_factor": 0.8,
    "noise_scale": 0.012,
    "error_growth_rate": 0.0025,
    "noise_ar": 0.9,
    "noise_ar_lead_decay": 20.0,
}


@dataclass(frozen=True)
class Inputs:
    """Everything the program receives for one run."""

    manifest: dict
    outage_hours: tuple[int, ...] = ()

    @property
    def horizons(self) -> list[int]:
        return list(self.manifest["horizons"])

    @property
    def model_kind(self) -> str:
        return self.manifest["model_kind"]

    def write(self, work: Path) -> Path:
        """Write the manifest into work and return its path."""
        path = work / "run.yaml"
        path.write_text(json.dumps(self.manifest, indent=2, sort_keys=True) + "\n")
        return path


def readme_inputs(seed: int, model_kind: str = "hybrid") -> Inputs:
    """The README campaign; it is the same for every benchmark seed."""
    return Inputs(
        manifest={
            "out_dir": "out",
            "horizons": [0, 12],
            "model_kind": model_kind,
            "seed": README_SEED,
            "train_fraction": 0.8,
            "sampler": dict(_README_SAMPLER),
            "scenario": json.loads(json.dumps(_README_SCENARIO)),
            "injection": dict(_README_INJECTION),
        }
    )


def _stratified(rng: random.Random, lo: float, hi: float) -> list[float]:
    """EVENT_BLOCK draws from U(lo, hi), one in each equal slice, in random order."""
    draws = [lo + (hi - lo) * (j + rng.random()) / EVENT_BLOCK for j in range(EVENT_BLOCK)]
    rng.shuffle(draws)
    return draws


def year_inputs(seed: int) -> Inputs:
    """Seeded swell-event schedule and measurement outages over YEAR_HOURS."""
    rng = random.Random(f"year-hybrid/{seed}")
    events = []
    t = rng.uniform(24.0, 120.0)
    while t < YEAR_HOURS - 24:
        block = zip(_stratified(rng, 1.2, 3.5), _stratified(rng, 12.0, 19.0), _stratified(rng, 80.0, 200.0))
        for hs, tp, gap in block:
            if t >= YEAR_HOURS - 24:
                break
            events.append({"arrival_h": round(t, 1), "hs": round(hs, 3), "tp": round(tp, 3)})
            t += gap
    outages: list[int] = []
    for _ in range(YEAR_HOURS // 146):  # about one outage every six days
        start = rng.randrange(48, YEAR_HOURS - 8)
        length = rng.randint(2, 4)
        outages.extend(range(start, start + length))
    return Inputs(
        manifest={
            "out_dir": "out",
            "horizons": [6, 72],
            "model_kind": "hybrid",
            "seed": seed,
            "train_fraction": 0.8,
            "sampler": dict(_YEAR_SAMPLER),
            "scenario": {
                "duration_h": YEAR_HOURS,
                "background_hs": 0.7,
                "hs_jitter": 0.18,
                "hs_jitter_ar": 0.9,
                "measurement_noise": 0.01,
                "events": events,
            },
            "injection": dict(_YEAR_INJECTION),
        },
        outage_hours=tuple(sorted(set(outages))),
    )


# name -> (seed -> Inputs)
WORKLOADS = {
    "readme-hybrid": readme_inputs,
    "year-hybrid": year_inputs,
    "readme-basic": partial(readme_inputs, model_kind="basic"),
}


def apply_outages(measurements: Path, outage_hours: tuple[int, ...]) -> int:
    """Flag the given hour offsets invalid in a measurements file.

    Rows are hourly from the campaign start, so data row k is hour k. Returns
    the number of rows flagged.
    """
    if not outage_hours:
        return 0
    lines = measurements.read_text().splitlines()
    flagged = 0
    for hour in outage_hours:
        row = hour + 1  # skip the header
        if row < len(lines):
            stamp = lines[row].split(",", 1)[0]
            lines[row] = f"{stamp}, nan, false"
            flagged += 1
    measurements.write_text("\n".join(lines) + "\n")
    return flagged


def expected_artifacts(inputs: Inputs) -> list[str]:
    """Files under out_dir that a successful pipeline run must leave."""
    kind = inputs.model_kind
    names = ["rao.csv", "measurements.csv", "scores.csv", "scores.txt"]
    for h in inputs.horizons:
        names += [
            f"dataset_h{h:03d}.csv",
            f"samples_{kind}_h{h:03d}.csv",
            f"samples_{kind}_h{h:03d}.csv.diag.json",
            f"predictions_{kind}_h{h:03d}.csv",
            f"pacf_{kind}_h{h:03d}.csv",
            f"hetero_{kind}_h{h:03d}.csv",
        ]
    return names


def expected_issue_files(inputs: Inputs) -> int:
    """Forecast issues at 00/06/12/18Z from the start hour through the span."""
    span_h = inputs.manifest["scenario"]["duration_h"] - 1
    return span_h // 6 + 1
