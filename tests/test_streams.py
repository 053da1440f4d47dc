"""The random streams of a run: each stage draws from the seed io.STREAMS
gives it, and no two streams of one run draw the same numbers.

fit's and predict's seeds are taken from the commands themselves, run with
their reads, writes and library calls stubbed out, so a command that stops
reading the table shows here. The spawn rules that turn a seed into a
chain's or a cycle slot's stream are sampler.fit's and
synthetic.generate_forecast_issues', as tests/test_sampler.py and
tests/test_synthetic.py check them.
"""

import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from heavecast import cli, io, model, sampler
from heavecast.datasets import DEFAULT_MAX_LEADS
from heavecast.io import STREAMS, RunManifest
from heavecast.model import PosteriorSamples

ROOT = Path(__file__).resolve().parents[1]
HORIZONS = list(range(201))
CHAINS = 3
# every cycle slot of a year's campaign
SLOTS = range(366 * len(DEFAULT_MAX_LEADS))


def manifest(out_dir: Path, seed: int) -> RunManifest:
    return RunManifest(out_dir=out_dir, horizons=HORIZONS, seed=seed, scenario={"duration_h": 24})


def command_seeds(monkeypatch, m: RunManifest, command: str) -> list:
    """The seed fit or predict passes to the library at each of m's horizons."""
    seeds = []

    def record(*args, seed, **kwargs):
        seeds.append(seed)
        return PosteriorSamples(
            draws=np.ones((1, 1)), param_names=("a",), chain_ids=np.zeros(1),
            diagnostics={"a": {"rhat": 1.0}}, acceptance_rate=1.0,
        )

    monkeypatch.setattr(cli, "_split", lambda m, dataset, h: (None, SimpleNamespace(y=None)))
    monkeypatch.setattr(cli, "_read_samples", lambda path, spec: None)
    monkeypatch.setattr(sampler, "fit", record)
    monkeypatch.setattr(model, "posterior_predictive", record)
    monkeypatch.setattr(io, "write_posterior_samples", lambda *args: None)
    monkeypatch.setattr(io, "write_predictions", lambda *args: None)
    getattr(cli, command)(m)
    return seeds


@pytest.mark.parametrize("seed", [0, 1, 11, 14])
def test_no_two_streams_of_a_run_draw_the_same_numbers(monkeypatch, tmp_path, seed):
    # h = 0-200 with three chains each, every cycle slot of a year and
    # predict's horizons: a stream that replays another starts with its normal
    m = manifest(tmp_path, seed)
    streams = {"spectra jitter": m.swell_scenario().seed, "measurement noise": m.stream("measurement_noise")}
    root = np.random.SeedSequence(m.error_injection().seed)
    streams |= {f"issue slot {k}": np.random.SeedSequence(root.entropy, spawn_key=(k,)) for k in SLOTS}
    for h, fit_seed in zip(HORIZONS, command_seeds(monkeypatch, m, "fit"), strict=True):
        chains = np.random.SeedSequence(fit_seed).spawn(CHAINS)
        streams |= {f"fit h={h} chain {k}": chain for k, chain in enumerate(chains)}
    streams |= {f"predict h={h}": s for h, s in zip(HORIZONS, command_seeds(monkeypatch, m, "predict"), strict=True)}
    by_normal = {}
    for name, stream in streams.items():
        by_normal.setdefault(np.random.default_rng(stream).standard_normal(), []).append(name)
    assert len(streams) == 2 + len(SLOTS) + (CHAINS + 1) * len(HORIZONS)
    assert [names for names in by_normal.values() if len(names) > 1] == []


def test_commands_draw_from_the_table(monkeypatch, tmp_path):
    m = manifest(tmp_path, 7)
    assert command_seeds(monkeypatch, m, "fit") == [STREAMS["fit"](7, h) for h in HORIZONS]
    assert m.error_injection().seed == STREAMS["issue_noise"](7)
    assert m.swell_scenario().seed == STREAMS["spectra_jitter"](7)


def test_fit_keys_have_three_words_with_a_nonzero_second():
    # numpy pads entropy with zero words, so default_rng(s) draws as
    # default_rng([s, 0]); a key with a zero second word would replay an int
    # seed's stream, or with its spawn key a cycle slot's
    first = np.random.default_rng(5).standard_normal()
    assert np.random.default_rng([5, 0]).standard_normal() == first
    for s in (0, 1, 11, 2**31):
        for h in (0, 17, 200):
            key = STREAMS["fit"](s, h)
            assert len(key) == 3 and key[1] != 0


def test_predict_draws_from_the_seed_bench_probe_recomputes(monkeypatch, tmp_path):
    # bench/probe.py check recomputes predict's draws with this seed, and the
    # bench requires scores.csv within 0.0005 of the scores it makes from
    # them, so predict's stream can move only together with probe's
    assert "seed=m.seed + 1000 + h" in (ROOT / "bench" / "probe.py").read_text()
    for s in (0, 1, 11, 14, 2**31):
        assert [STREAMS["predict"](s, h) for h in (0, 6, 12, 72, 200)] == [s + 1000 + h for h in (0, 6, 12, 72, 200)]
        assert command_seeds(monkeypatch, manifest(tmp_path, s), "predict") == [s + 1000 + h for h in HORIZONS]


def test_readme_stream_table_is_the_table():
    # README's stream table lists io.STREAMS' rows in order, each with the
    # seed it gives for a manifest seed s and a horizon h
    text = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| .* \| `([^`]+)` \|$", text.split("| stream |", 1)[1].split("\n\n", 1)[0], re.M)
    assert [name for name, _ in rows] == list(STREAMS)
    for name, seed in rows:
        index = (5,) if STREAMS[name].__code__.co_argcount == 2 else ()
        assert eval(seed, {"s": 7, "h": 5}) == STREAMS[name](7, *index), name
