import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavecast.datasets import (
    DEFAULT_MAX_LEADS,
    ForecastIssue,
    HorizonDataset,
    HorizonSeries,
    align,
    chrono_split,
    synthesize_horizon_series,
)
from heavecast.motion import HeaveRecord

T0 = np.datetime64("2024-06-01T00:00:00")
HOUR = np.timedelta64(1, "h")


def issue_at(hours_after_t0, max_lead, value_fn=None):
    leads = np.arange(max_lead + 1)
    issue_time = T0 + int(hours_after_t0) * HOUR
    if value_fn is None:
        values = np.full(leads.size, float(hours_after_t0))
    else:
        values = np.array([value_fn(hours_after_t0, int(l)) for l in leads], dtype=float)
    return ForecastIssue(issue_time=issue_time, horizon_hours=leads, values=values)


def full_day_issues(days=3, value_fn=None):
    issues = []
    for d in range(days):
        for cycle in (0, 6, 12, 18):
            cap = DEFAULT_MAX_LEADS[cycle]
            issues.append(issue_at(24 * d + cycle, cap, value_fn))
    return issues


class TestSynthesize:
    def test_h0_uses_most_recent_issue(self):
        # valid time 07Z must come from the 06Z issue at lead 1
        series = synthesize_horizon_series(full_day_issues(), h=0)
        by_time = {vt: it for vt, _, it in series}
        assert by_time[T0 + 7 * HOUR] == T0 + 6 * HOUR

    def test_h0_block_structure(self):
        series = synthesize_horizon_series(full_day_issues(), h=0)
        for vt, _, it in series:
            lead = int((vt - it) / HOUR)
            assert 0 <= lead <= 5

    def test_h72_uses_00_and_12_only(self):
        series = synthesize_horizon_series(full_day_issues(days=6), h=72)
        cycles = set()
        for vt, _, it in series:
            lead = int((vt - it) / HOUR)
            assert 72 <= lead <= 83
            cycles.add(int((it - T0) / HOUR) % 24)
        assert cycles <= {0, 12}

    def test_h72_specific_lead(self):
        series = synthesize_horizon_series(full_day_issues(days=6), h=72)
        by_time = {vt: it for vt, _, it in series}
        vt = T0 + 12 * HOUR + 77 * HOUR  # 12Z issue + lead 77
        assert by_time[vt] == T0 + 12 * HOUR

    def test_single_issue_degenerate(self):
        issues = [issue_at(0, 240)]
        series = synthesize_horizon_series(issues, h=6)
        assert [int((vt - T0) / HOUR) for vt, _, _ in series] == [6, 7, 8, 9, 10, 11]
        assert all(it == T0 for _, _, it in series)
        series_long = synthesize_horizon_series(issues, h=72)
        assert [int((vt - T0) / HOUR) for vt, _, _ in series_long] == list(range(72, 84))

    def test_missing_issue_leaves_gap(self):
        # dropping the 06Z issue removes hours 06..11Z entirely: leads stay
        # inside [h, h+5], so older issues never backfill the hole
        issues = [i for i in full_day_issues() if i.issue_time != T0 + 6 * HOUR]
        series = synthesize_horizon_series(issues, h=0)
        times = {vt for vt, _, _ in series}
        for k in range(6, 12):
            assert T0 + k * HOUR not in times
        assert T0 + 5 * HOUR in times
        assert T0 + 12 * HOUR in times


class TestAlign:
    def make_measurements(self, n, offset=0, invalid=()):
        out = []
        for k in range(n):
            valid = k not in invalid
            out.append(
                HeaveRecord(
                    timestamp=T0 + (k + offset) * HOUR,
                    sig_heave=0.5 if valid else np.nan,
                    valid=valid,
                )
            )
        return out

    def test_identical_timestamps(self):
        series = [(T0 + k * HOUR, 1.0, T0) for k in range(10)]
        ds = align(series, self.make_measurements(10), horizon=0)
        assert len(ds) == 10

    def test_invalid_measurement_dropped(self):
        series = [(T0 + k * HOUR, 1.0, T0) for k in range(10)]
        ds = align(series, self.make_measurements(10, invalid={3}), horizon=0)
        assert len(ds) == 9
        assert T0 + 3 * HOUR not in set(ds.valid_times)
        # the row after the hole is flagged post-gap
        idx = list(ds.valid_times).index(T0 + 4 * HOUR)
        assert ds.post_gap[idx]

    def test_disjoint_ranges_error(self):
        series = [(T0 + k * HOUR, 1.0, T0) for k in range(5)]
        with pytest.raises(ValueError):
            align(series, self.make_measurements(5, offset=100), horizon=0)


class TestChronoSplit:
    def make_ds(self, n):
        return HorizonDataset(
            horizon=0,
            valid_times=np.array([T0 + k * HOUR for k in range(n)], dtype="datetime64[s]"),
            x=np.linspace(0.1, 1.0, n),
            y=np.linspace(0.1, 1.0, n),
            issue_times=np.array([T0] * n, dtype="datetime64[s]"),
        )

    def test_ten_rows(self):
        train, test = chrono_split(self.make_ds(10), 0.8)
        assert len(train) == 8 and len(test) == 2

    def test_hundred_rows(self):
        train, test = chrono_split(self.make_ds(100), 0.8)
        assert len(train) == 80

    def test_open_interval(self):
        with pytest.raises(ValueError):
            chrono_split(self.make_ds(20), 1.0)
        with pytest.raises(ValueError):
            chrono_split(self.make_ds(20), 0.0)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match=r"^too few rows to split: 9 rows at horizon 0, at least 10 needed$"):
            chrono_split(self.make_ds(9), 0.8)

    def test_ordering_preserved(self):
        train, test = chrono_split(self.make_ds(50), 0.8)
        assert train.valid_times[-1] < test.valid_times[0]
        assert len(train) + len(test) == 50


@st.composite
def issue_sets(draw):
    days = draw(st.integers(min_value=2, max_value=5))
    drop = draw(st.sets(st.integers(min_value=0, max_value=days * 4 - 1), max_size=4))
    issues = []
    k = 0
    for d in range(days):
        for cycle in (0, 6, 12, 18):
            if k not in drop:
                issues.append(issue_at(24 * d + cycle, DEFAULT_MAX_LEADS[cycle]))
            k += 1
    return issues


class TestLeakProperties:
    @given(issues=issue_sets(), h=st.sampled_from([0, 6, 12, 24, 48, 72, 96]))
    @settings(max_examples=40, deadline=None)
    def test_no_future_leak_and_lead_caps(self, issues, h):
        if not issues:
            return
        series = synthesize_horizon_series(issues, h)
        block = 6 if h < 72 else 12
        for vt, _, it in series:
            lead = int((vt - it) / HOUR)
            assert it <= vt - h * HOUR  # no future information
            assert lead >= h
            cycle = int((it - T0) / HOUR) % 24
            assert lead <= DEFAULT_MAX_LEADS[cycle]

    @given(issues=issue_sets(), h=st.sampled_from([0, 6, 24]))
    @settings(max_examples=25, deadline=None)
    def test_selected_issue_is_latest_admissible(self, issues, h):
        if not issues:
            return
        series = synthesize_horizon_series(issues, h)
        by_issue_time = {i.issue_time: i for i in issues}
        for vt, _, it in series:
            for other in issues:
                if other.issue_time <= it:
                    continue
                lead = (vt - other.issue_time) / HOUR
                cycle = int((other.issue_time - T0) / HOUR) % 24
                admissible = lead >= h and lead <= DEFAULT_MAX_LEADS[cycle]
                assert not admissible, "a more recent admissible issue was skipped"


def dict_synthesize(issues, h):
    """Lead by lead with a dict keyed by valid time: the reference for
    synthesize_horizon_series."""
    block = 6 if h < 72 else 12
    admitted = sorted(
        (i for i in issues if DEFAULT_MAX_LEADS.get(i.cycle_hour, 0) >= h + block - 1),
        key=lambda i: i.issue_time,
    )
    out = []
    for issue in admitted:
        for lead in range(h, h + block):
            pos = np.searchsorted(issue.horizon_hours, lead)
            if pos >= issue.horizon_hours.size or issue.horizon_hours[pos] != lead:
                continue
            out.append((issue.issue_time + lead * HOUR, float(issue.values[pos]), issue.issue_time))
    by_time = {vt: (x, it) for vt, x, it in out}
    return [(vt, x, it) for vt, (x, it) in sorted(by_time.items())]


def dict_align(series, measurements, horizon):
    """Row by row with a dict of valid measurements: the reference for align."""
    meas = {np.datetime64(m.timestamp, "s"): float(m.sig_heave) for m in measurements if m.valid}
    rows = [
        (np.datetime64(vt, "s"), x, meas[np.datetime64(vt, "s")], np.datetime64(it, "s"))
        for vt, x, it in series
        if np.datetime64(vt, "s") in meas
    ]
    if not rows:
        raise ValueError("forecast series and measurements share no valid times")
    vt, x, y, it = zip(*rows)
    return HorizonDataset(
        horizon=horizon,
        valid_times=np.array(vt, dtype="datetime64[s]"),
        x=np.array(x),
        y=np.array(y),
        issue_times=np.array(it, dtype="datetime64[s]"),
    )


@st.composite
def irregular_issues(draw):
    """Issues at 00/06/12/18Z with dropped cycles, leads that start late or
    stop early, random values and an occasional repeated issue time."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    issues = []
    for slot in range(draw(st.integers(1, 16))):
        if draw(st.booleans()) and slot % 5 == 3:
            continue
        cap = DEFAULT_MAX_LEADS[(slot % 4) * 6]
        first = min(draw(st.sampled_from([0, 0, 0, 1, 5, 7, 30, 71, 75])), cap)
        last = draw(st.integers(first - 1, cap))
        leads = np.arange(first, last + 1)
        values = rng.uniform(0.0, 5.0, leads.size)
        issue = ForecastIssue(issue_time=T0 + 6 * slot * HOUR, horizon_hours=leads, values=values)
        issues.append(issue)
        if draw(st.integers(0, 9)) == 0:  # a second issue at the same time
            issues.append(ForecastIssue(issue_time=issue.issue_time, horizon_hours=leads, values=np.add(values, 1.0)))
    return draw(st.permutations(issues))


class TestArrayJoinsOracle:
    @given(issues=irregular_issues(), h=st.sampled_from([0, 1, 5, 6, 12, 24, 48, 71, 72, 80, 96]))
    @settings(max_examples=150, deadline=None)
    def test_synthesize_matches_dict_reference(self, issues, h):
        series = synthesize_horizon_series(issues, h)
        assert isinstance(series, HorizonSeries)
        ref = dict_synthesize(issues, h)
        got = list(series)
        assert len(got) == len(series) == len(ref)
        for (vt, x, it), (rvt, rx, rit) in zip(got, ref):
            assert vt == rvt and it == rit
            assert type(x) is float and x == rx

    def test_overlapping_windows_take_the_latest_issue(self):
        # 00Z and 06Z issues at h=0 (6 h windows) and 00Z/12Z at h=72 (12 h)
        issues = full_day_issues(days=4, value_fn=lambda t, lead: t + lead / 1000.0)
        for h in (0, 6, 72, 96):
            got = list(synthesize_horizon_series(issues, h))
            assert got == dict_synthesize(issues, h)
            assert all(int((vt - it) / HOUR) in range(h, h + (6 if h < 72 else 12)) for vt, _, it in got)

    def test_no_admitted_issue(self):
        issues = [issue_at(6, 72)]  # 06Z stops at 72 h
        assert list(synthesize_horizon_series(issues, 72)) == []
        assert list(synthesize_horizon_series([], 0)) == []

    @given(
        issues=irregular_issues(),
        h=st.sampled_from([0, 6, 72]),
        hours=st.lists(st.integers(-3, 200), max_size=120),
        invalid=st.sets(st.integers(0, 119), max_size=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_align_matches_dict_reference(self, issues, h, hours, invalid):
        # measurement gaps, invalid rows, unsorted and repeated timestamps
        measurements = [
            HeaveRecord(
                timestamp=T0 + k * HOUR,
                sig_heave=np.nan if n in invalid else 0.1 + (n % 7) / 3.0,
                valid=n not in invalid,
            )
            for n, k in enumerate(hours)
        ]
        series = synthesize_horizon_series(issues, h)
        try:
            ref = dict_align(list(series), measurements, h)
        except ValueError:
            with pytest.raises(ValueError, match="share no valid times"):
                align(series, measurements, h)
            return
        for given_series in (series, list(series)):
            ds = align(given_series, measurements, h)
            np.testing.assert_array_equal(ds.valid_times, ref.valid_times)
            np.testing.assert_array_equal(ds.issue_times, ref.issue_times)
            np.testing.assert_array_equal(ds.post_gap, ref.post_gap)
            assert ds.x.tobytes() == ref.x.tobytes() and ds.y.tobytes() == ref.y.tobytes()
