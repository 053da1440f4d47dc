"""Round-trip properties of each reader/writer pair.

For every delimited-text format a writer and a reader share, writing what was
read writes the same bytes again, and the reader returns the values the
writer spelled: float("%.10g" % v) of each number (float("%.12g" % v) for
posterior draws), in the reader's units.
"""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heavecast import campaign, io
from heavecast.datasets import ForecastIssue, IssueSet
from heavecast.horizon import HorizonDataset
from heavecast.model import PosteriorSamples
from heavecast.motion import HeaveRecord
from heavecast.spectral import RaoCurve, SpectrumSeries

TWO_PI = 2.0 * np.pi
T0 = np.datetime64("2024-06-01T00:00:00", "s")
HOUR = np.timedelta64(1, "h")
SETTINGS = settings(max_examples=60, deadline=None)

# Ten significant digits spell a float from 1.7976931345e308 up to the
# largest one as 1.797693135e+308, which reads back as infinite, so the
# writers refuse it (see
# test_ten_digits_spell_the_largest_floats_past_the_largest_float); these
# properties draw the floats that ten digits can spell
LARGEST_SPELLED = 1.797693134e308
FINITE = st.floats(-LARGEST_SPELLED, LARGEST_SPELLED)
ANY_FLOAT = FINITE | st.sampled_from([np.nan, np.inf, -np.inf])
# seconds from T0, within a century either way
OFFSETS = st.integers(-(10**9) * 3, 10**9 * 3)


def spelled(values, digits: int = 10) -> np.ndarray:
    """Each value as the writers spell it and the readers read it back."""
    return np.array([float(f"%.{digits}g" % v) for v in np.asarray(values, dtype=float).ravel().tolist()]).reshape(
        np.shape(values)
    )


def distinct_when_spelled(values) -> bool:
    return len({"%.10g" % v for v in np.asarray(values).tolist()}) == np.size(values)


def round_trip(write, read, value, name: str = "file.csv"):
    """read(write(value)), and the bytes of the first and of a second write of what was read."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a", name), Path(tmp, "b", name)
        write(first, value)
        back = read(first)
        write(second, back)
        return back, first.read_bytes(), second.read_bytes()


@given(
    freqs_hz=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=12, unique=True),
    amps=st.lists(st.floats(0.0, 1e6), min_size=12, max_size=12),
)
@SETTINGS
def test_rao_round_trip(freqs_hz, amps):
    freqs = TWO_PI * np.sort(freqs_hz)
    assume(distinct_when_spelled(freqs / TWO_PI))
    rao = RaoCurve(freqs=freqs, amplitudes=amps[: freqs.size])
    back, first, second = round_trip(campaign.write_rao, campaign.read_rao, rao)
    assert first == second
    assert back.freqs.tobytes() == (TWO_PI * spelled(freqs / TWO_PI)).tobytes()
    assert back.amplitudes.tobytes() == spelled(rao.amplitudes).tobytes()


@given(
    hours=st.lists(st.integers(-1000, 1000), min_size=1, max_size=4, unique=True),
    freqs_hz=st.lists(st.floats(1e-3, 2.0), min_size=2, max_size=5, unique=True),
    dirs_deg=st.lists(st.floats(0.0, 359.0), min_size=2, max_size=5, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
@SETTINGS
def test_spectra_round_trip(hours, freqs_hz, dirs_deg, seed):
    freqs, dirs = TWO_PI * np.sort(freqs_hz), np.deg2rad(np.sort(dirs_deg))
    assume(distinct_when_spelled(freqs / TWO_PI) and distinct_when_spelled(np.rad2deg(dirs)))
    density = np.random.default_rng(seed).exponential(2.0, (len(hours), freqs.size, dirs.size))
    density[density < 0.5] = 0.0
    spectra = SpectrumSeries(times=T0 + np.sort(hours) * HOUR, freqs=freqs, dirs=dirs, density=density)
    back, first, second = round_trip(campaign.write_spectra, campaign.read_spectra, spectra)
    assert first == second
    np.testing.assert_array_equal(back.times, spectra.times)
    assert back.freqs.tobytes() == (TWO_PI * spelled(freqs / TWO_PI)).tobytes()
    assert back.dirs.tobytes() == np.deg2rad(spelled(np.rad2deg(dirs))).tobytes()
    per_deg = spelled(density * TWO_PI * (np.pi / 180.0))
    assert back.density.tobytes() == (per_deg * ((1.0 / TWO_PI) * (180.0 / np.pi))).tobytes()


@given(
    rows=st.lists(
        st.tuples(OFFSETS, st.booleans(), st.floats(0.0, 1e9) | st.sampled_from([0.0, 5e-324, 1e-300])),
        min_size=1,
        max_size=20,
    ),
    invalid_values=st.lists(ANY_FLOAT, min_size=20, max_size=20),
)
@SETTINGS
def test_heave_records_round_trip(rows, invalid_values):
    # a record that is not valid may hold any value, and is written and read as nan
    records = [
        HeaveRecord(timestamp=T0 + np.timedelta64(s, "s"), sig_heave=v if ok else bad, valid=ok)
        for (s, ok, v), bad in zip(rows, invalid_values)
    ]
    back, first, second = round_trip(campaign.write_heave_records, campaign.read_heave_records, records)
    assert first == second
    assert [r.timestamp for r in back] == [r.timestamp for r in records]
    assert [r.valid for r in back] == [r.valid for r in records]
    expected = [float("%.10g" % r.sig_heave) if r.valid else np.nan for r in records]
    assert np.array([r.sig_heave for r in back]).tobytes() == np.array(expected).tobytes()


@st.composite
def issue_sets(draw):
    issues = []
    for _ in range(draw(st.integers(1, 5))):
        first = draw(st.integers(0, 240))
        leads = list(range(first, first + draw(st.integers(1, 12))))
        values = draw(st.lists(ANY_FLOAT, min_size=len(leads), max_size=len(leads)))
        issue_time = T0 + np.timedelta64(draw(OFFSETS), "s")
        issues.append(ForecastIssue(issue_time=issue_time, horizon_hours=np.array(leads), values=np.array(values)))
    return IssueSet.from_issues(issues)


def _write_issues(path: Path, issues: IssueSet) -> None:
    campaign.write_forecast_issues(path, issues)


def _read_issues(path: Path) -> IssueSet:
    return campaign.read_forecast_issues(sorted(path.glob("issue_*.csv")))


@given(issues=issue_sets())
@SETTINGS
def test_issue_set_round_trip(issues):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a"), Path(tmp, "b")
        _write_issues(first, issues)
        back = _read_issues(first)
        _write_issues(second, back)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert [(first / n).read_bytes() for n in names] == [(second / n).read_bytes() for n in names]
    np.testing.assert_array_equal(back.issue_times, issues.issue_times)
    np.testing.assert_array_equal(back.bounds, issues.bounds)
    np.testing.assert_array_equal(back.leads, issues.leads)
    assert back.values.tobytes() == spelled(issues.values).tobytes()


@given(
    steps=st.lists(st.integers(1, 10**6), min_size=1, max_size=25),
    start=OFFSETS,
    xy=st.lists(st.tuples(FINITE, FINITE), min_size=25, max_size=25),
    issue_offsets=st.lists(OFFSETS, min_size=25, max_size=25),
    horizon=st.integers(0, 240),
)
@SETTINGS
def test_horizon_dataset_round_trip(steps, start, xy, issue_offsets, horizon):
    n = len(steps)
    ds = HorizonDataset(
        horizon=horizon,
        valid_times=T0 + np.timedelta64(start, "s") + np.cumsum(steps).astype("timedelta64[s]"),
        x=np.array([x for x, _ in xy[:n]]),
        y=np.array([y for _, y in xy[:n]]),
        issue_times=T0 + np.array(issue_offsets[:n]).astype("timedelta64[s]"),
    )
    back, first, second = round_trip(
        io.write_horizon_dataset, lambda path: io.read_horizon_dataset(path, horizon), ds
    )
    assert first == second
    assert back.horizon == horizon
    np.testing.assert_array_equal(back.valid_times, ds.valid_times)
    np.testing.assert_array_equal(back.issue_times, ds.issue_times)
    np.testing.assert_array_equal(back.post_gap, ds.post_gap)
    assert back.x.tobytes() == spelled(ds.x).tobytes()
    assert back.y.tobytes() == spelled(ds.y).tobytes()


JSON_SCALARS = st.none() | st.booleans() | st.integers(-(10**6), 10**6) | ANY_FLOAT | st.text(max_size=4)


@given(
    draws=st.lists(st.lists(st.floats(), min_size=3, max_size=3), min_size=1, max_size=15),
    chains=st.integers(1, 4),
    rhat=ANY_FLOAT,
    acceptance=ANY_FLOAT,
    facts=st.dictionaries(st.text(max_size=6), JSON_SCALARS | st.dictionaries(st.text(max_size=3), JSON_SCALARS)),
)
@SETTINGS
def test_samples_and_sidecar_round_trip(draws, chains, rhat, acceptance, facts):
    samples = PosteriorSamples(
        draws=np.array(draws),
        param_names=("beta0", "beta1", "sigma"),
        chain_ids=np.arange(len(draws)) % chains,
        diagnostics={"beta0": {"rhat": rhat, "ess": 12.5}, "sigma": {}},
        acceptance_rate=acceptance,
        sampler_facts=facts,
    )
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a", "samples.csv"), Path(tmp, "b", "samples.csv")
        io.write_posterior_samples(first, samples)
        back = io.read_posterior_samples(first)
        io.write_posterior_samples(second, back)
        for name in ("samples.csv", "samples.csv.diag.json"):
            assert first.with_name(name).read_bytes() == second.with_name(name).read_bytes()
    assert back.param_names == samples.param_names
    assert back.chain_ids.tolist() == samples.chain_ids.tolist()
    assert back.draws.tobytes() == spelled(samples.draws, digits=12).tobytes()
    # compared as JSON text, in which every NaN reads alike
    assert json.dumps(back.sampler_facts, sort_keys=True) == json.dumps(facts, sort_keys=True)
    assert json.dumps([back.acceptance_rate, back.diagnostics], sort_keys=True) == json.dumps(
        [acceptance, samples.diagnostics], sort_keys=True
    )


def _two_row_dataset(x0: float) -> HorizonDataset:
    return HorizonDataset(
        horizon=0, valid_times=T0 + np.arange(2) * HOUR, x=np.array([x0, 1.0]), y=np.ones(2),
        issue_times=np.repeat(T0, 2),
    )


def test_ten_digits_spell_the_largest_floats_past_the_largest_float(tmp_path):
    # a limit of the format: ten digits spell such a finite value as
    # 1.797693135e+308, which its reader would read as infinite, so each
    # writer refuses it, names the file and leaves no file behind
    for value in (1.7976931345e308, -1.7976931348623157e308):
        path = tmp_path / "ds.csv"
        refused = f"^{re.escape(str(path))}: {'-' * (value < 0)}1.797693135e\\+308 is past the largest float"
        with pytest.raises(ValueError, match=refused):
            io.write_horizon_dataset(path, _two_row_dataset(value))
        issue = ForecastIssue(issue_time=T0, horizon_hours=np.arange(2), values=np.array([1.0, value]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'issues' / 'issue_0000.csv'))}: "):
            campaign.write_forecast_issues(tmp_path / "issues", IssueSet.from_issues([issue]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'one.csv'))}: "):
            campaign.write_forecast_issue(tmp_path / "one.csv", issue)
        assert list(tmp_path.iterdir()) == []
    # the largest value whose ten digits read back as finite is written
    io.write_horizon_dataset(tmp_path / "ds.csv", _two_row_dataset(-1.797693134e308))
    assert io.read_horizon_dataset(tmp_path / "ds.csv", 0).x[0] == -1.797693134e308
