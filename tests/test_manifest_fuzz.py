"""Small random manifests through simulate, build, fit, predict, score and
diagnose, in process.

Whatever values a manifest and its overrides hold, each stage must exit 0, 2
or 3 without a warning, and a refusal (2) or a numerical failure (3) must name
the manifest or the file it read, and the horizon where the stage failed
working on one. predict and score read only what the stages before them
accepted or wrote, so neither may refuse it (exit 2). The stages run in order
until one exits nonzero.
"""

import json
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from heavecast import cli
from clirun import invoke

STAGES = ("simulate", "build", "fit", "predict", "score", "diagnose")
HORIZON_SETS = ([0], [0, 6], [6], [0, 24], [72], [1, 2])
# the overrides each stage takes, by flag
TAKES = {stage: {flag for flags, _ in cli._COMMANDS[stage][1] for flag in flags} for stage in STAGES}
# about one numeric key in 14 takes an edge value
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1e-12, 1e6, 1e150, 1e300, -1.0])
EDGE_INTS = st.integers(0, 1000)


def _value(normal, edges):
    return st.tuples(st.integers(0, 13), normal, edges).map(lambda t: t[2] if t[0] == 0 else t[1])


def _float(lo: float, hi: float):
    return _value(st.floats(lo, hi), EDGE_FLOATS)


def _int(lo: int, hi: int):
    return _value(st.integers(lo, hi), EDGE_INTS)


MANIFESTS = st.fixed_dictionaries({
    "horizons": st.sampled_from(HORIZON_SETS),
    "model_kind": st.sampled_from(["basic", "hybrid"]),
    "seed": _int(0, 1000),
    "train_fraction": _float(0.5, 0.9),
    "sampler": st.fixed_dictionaries({
        "chains": _int(1, 3),
        "warmup_draws": _int(100, 100),
        "retained_draws": _int(100, 100),
        "rhat_limit": _float(1.05, 1.5),
    }),
    "scenario": st.fixed_dictionaries({
        "duration_h": _int(1, 200),
        "background_hs": _float(0.2, 1.0),
        "measurement_noise": _float(0.0, 0.05),
        "hs_jitter": _float(0.0, 0.2),
        "events": st.tuples(st.fixed_dictionaries({
            "arrival_h": _float(0.0, 200.0),
            "hs": _float(0.5, 4.0),
            "tp": _float(8.0, 18.0),
        })).map(list),
    }),
    "injection": st.fixed_dictionaries({
        "bias_factor": _float(0.7, 1.3),
        "timing_shift_h": _float(-3.0, 3.0),
        "error_growth_rate": _float(0.0, 0.01),
        "noise_scale": _float(0.0, 0.1),
        "noise_ar": _float(0.0, 0.9),
    }),
})
OVERRIDES = st.fixed_dictionaries({}, optional={
    "-H": st.sampled_from(HORIZON_SETS),
    "--seed": st.integers(0, 1000),
    "--model": st.sampled_from(["basic", "hybrid"]),
})


def _flags(stage: str, overrides: dict) -> list[str]:
    """The override flags of overrides that stage takes."""
    flags = []
    for flag, value in overrides.items():
        if flag in TAKES[stage]:
            for v in value if isinstance(value, list) else [value]:
                flags += [flag, str(v)]
    return flags


def run_stages(manifest: dict, overrides: dict) -> list[tuple[str, int, str, list[str]]]:
    """(stage, exit code, stderr, warnings) of each stage run, in order, until
    one exits nonzero; the campaign's directory reads <tmp> in stderr."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps({"out_dir": "out", **manifest}))
        for stage in STAGES:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = invoke([stage, "--manifest", str(path), *_flags(stage, overrides)])
            results.append((stage, result.exit_code, result.stderr.replace(tmp, "<tmp>"), [str(w) for w in caught]))
            if result.exit_code:
                break
    return results


# a 48 h campaign whose forecasts reach 1e299 m: fit warned of an overflow
# in matmul, then failed on a precision that was not positive definite
OVERFLOWING_FORECASTS = {
    "horizons": [0], "model_kind": "hybrid", "seed": 0, "train_fraction": 0.8,
    "sampler": {"chains": 2, "warmup_draws": 100, "retained_draws": 100, "rhat_limit": 1.5},
    "scenario": {"duration_h": 48, "background_hs": 0.6, "measurement_noise": 0.01, "hs_jitter": 0.0,
                 "events": [{"arrival_h": 12.0, "hs": 2.0, "tp": 14.0}]},
    "injection": {"bias_factor": 1.1, "timing_shift_h": 0.0, "error_growth_rate": 0.0, "noise_scale": 1e300,
                  "noise_ar": 0.5},
}


# an 11 h campaign of constant measured heave: predict wrote a crps_m of
# -1.35e-18 for draws all but equal to the measurement, which score refused
CONSTANT_HEAVE = {
    "horizons": [0], "model_kind": "basic", "seed": 0, "train_fraction": 0.5,
    "sampler": {"chains": 1, "warmup_draws": 100, "retained_draws": 100, "rhat_limit": 1e6},
    "scenario": {"duration_h": 11, "background_hs": 1.0, "measurement_noise": 0.0, "hs_jitter": 0.0,
                 "events": [{"arrival_h": 0.0, "hs": 0.0, "tp": 8.0}]},
    "injection": {"bias_factor": 0.0, "timing_shift_h": 0.0, "error_growth_rate": 0.0, "noise_scale": 0.0,
                  "noise_ar": 0.0},
}


@given(manifest=MANIFESTS, overrides=OVERRIDES)
@example(manifest=OVERFLOWING_FORECASTS, overrides={})
@example(manifest=CONSTANT_HEAVE, overrides={})
@settings(max_examples=30, deadline=None)
def test_every_stage_keeps_the_exit_contract(manifest, overrides):
    for stage, code, stderr, caught in run_stages(manifest, overrides):
        assert code in (0, 2, 3), (stage, code, stderr)
        assert caught == [], (stage, caught)
        # predict reads only what fit accepted, and score only what predict wrote
        assert not (code == 2 and stage in ("predict", "score")), (stage, stderr)
        if code:
            named = re.fullmatch(r"(error|numerical failure): (<tmp>/\S+?)(, horizon \d+)?(?:, row \d+)?: .*\n", stderr)
            assert named, (stage, stderr)
            # past simulate, a failure names the horizon it was working on, or the manifest it refused
            if stage != "simulate" and named[2] != "<tmp>/run.json":
                assert named[3] or re.search(r"_h\d{3}\.csv", named[2]), (stage, stderr)
