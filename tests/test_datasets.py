import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavecast.datasets import (
    DEFAULT_MAX_LEADS,
    ForecastIssue,
    HeaveRecord,
    HorizonDataset,
    HorizonSeries,
    IssueSet,
    align,
    chrono_split,
    synthesize_horizon_series,
)

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


def leads_of(series):
    """Each row's lead in hours: its valid time less its issue time."""
    return (series.valid_times - series.issue_times) / HOUR


def assert_same_series(got, ref):
    np.testing.assert_array_equal(got.valid_times, ref.valid_times)
    np.testing.assert_array_equal(got.issue_times, ref.issue_times)
    assert got.values.tobytes() == ref.values.tobytes()


def reference_window(h):
    """The cycle hours that serve horizon h and their lead window, or (set(), None).

    The window is the shortest one whose admitted cycles, those whose cap
    reaches its last lead, leave no longer wait from one cycle to the next.
    """
    for window in range(1, 25):
        cycles = sorted(c for c, cap in DEFAULT_MAX_LEADS.items() if cap >= h + window - 1)
        waits = [(b - a) % 24 or 24 for a, b in zip(cycles, cycles[1:] + cycles[:1])]
        if cycles and max(waits) <= window:
            return set(cycles), window
    return set(), None


class TestSynthesize:
    def test_h0_uses_most_recent_issue(self):
        # valid time 07Z must come from the 06Z issue at lead 1
        series = synthesize_horizon_series(full_day_issues(), h=0)
        np.testing.assert_array_equal(series.issue_times[series.valid_times == T0 + 7 * HOUR], [T0 + 6 * HOUR])

    def test_h0_block_structure(self):
        leads = leads_of(synthesize_horizon_series(full_day_issues(), h=0))
        assert leads.size and ((0 <= leads) & (leads <= 5)).all()

    def test_h72_uses_00_and_12_only(self):
        series = synthesize_horizon_series(full_day_issues(days=6), h=72)
        leads = leads_of(series)
        assert leads.size and ((72 <= leads) & (leads <= 83)).all()
        assert set(((series.issue_times - T0) / HOUR % 24).tolist()) <= {0, 12}

    def test_h72_specific_lead(self):
        series = synthesize_horizon_series(full_day_issues(days=6), h=72)
        vt = T0 + 12 * HOUR + 77 * HOUR  # 12Z issue + lead 77
        np.testing.assert_array_equal(series.issue_times[series.valid_times == vt], [T0 + 12 * HOUR])

    def test_single_issue_degenerate(self):
        issues = [issue_at(0, 240)]
        series = synthesize_horizon_series(issues, h=6)
        assert ((series.valid_times - T0) / HOUR).tolist() == [6, 7, 8, 9, 10, 11]
        assert (series.issue_times == T0).all()
        series_long = synthesize_horizon_series(issues, h=72)
        assert ((series_long.valid_times - T0) / HOUR).tolist() == list(range(72, 84))

    def test_missing_issue_leaves_gap(self):
        # dropping the 06Z issue removes hours 06..11Z entirely: leads stay
        # inside [h, h+5], so older issues never backfill the hole
        issues = [i for i in full_day_issues() if i.issue_time != T0 + 6 * HOUR]
        series = synthesize_horizon_series(issues, h=0)
        assert not np.isin(T0 + np.arange(6, 12) * HOUR, series.valid_times).any()
        assert np.isin([T0 + 5 * HOUR, T0 + 12 * HOUR], series.valid_times).all()

    def test_complete_issue_set_is_gapless_at_every_served_horizon(self):
        # at h = 68..71 the 00Z and 12Z issues filled only 6 h of their 12 h windows
        issues = IssueSet.from_issues(full_day_issues(days=12))
        for h in range(230):
            steps = np.diff(synthesize_horizon_series(issues, h).valid_times)
            assert steps.size and (steps == HOUR).all(), f"gap at horizon {h}"

    def test_window_follows_the_cycle_table(self, monkeypatch):
        # two cycles 12 h apart serve h = 0 with 12 h windows, not the 6 h of four cycles
        monkeypatch.setattr("heavecast.datasets.DEFAULT_MAX_LEADS", {0: 240, 12: 240})
        series = synthesize_horizon_series(full_day_issues(days=12), h=0)
        assert series.valid_times.size == 288
        assert (np.diff(series.valid_times) == HOUR).all()

    @pytest.mark.parametrize("h", [230, 240, 10**6])
    def test_horizon_no_cycle_serves_is_refused(self, h):
        message = rf"^horizon {h}: no issue cycle reaches it; the cycle table serves horizons up to 229$"
        with pytest.raises(ValueError, match=message):
            synthesize_horizon_series(full_day_issues(days=12), h)


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

    def make_series(self, n):
        return HorizonSeries(valid_times=T0 + np.arange(n) * HOUR, values=np.ones(n), issue_times=np.repeat(T0, n))

    def test_identical_timestamps(self):
        series = self.make_series(10)
        ds = align(series, self.make_measurements(10), horizon=0)
        assert len(ds) == 10

    def test_invalid_measurement_dropped(self):
        series = self.make_series(10)
        ds = align(series, self.make_measurements(10, invalid={3}), horizon=0)
        assert len(ds) == 9
        assert T0 + 3 * HOUR not in set(ds.valid_times)
        # the row after the hole is flagged post-gap
        idx = list(ds.valid_times).index(T0 + 4 * HOUR)
        assert ds.post_gap[idx]

    def test_post_gap_is_worked_out_not_given(self):
        times = T0 + np.array([0, 1, 2, 5, 6]) * HOUR
        fields = dict(horizon=0, valid_times=times, x=np.ones(5), y=np.ones(5), issue_times=times)
        np.testing.assert_array_equal(HorizonDataset(**fields).post_gap, [True, False, False, True, False])
        with pytest.raises(TypeError, match="post_gap"):
            HorizonDataset(**fields, post_gap=np.zeros(5, dtype=bool))

    def test_disjoint_ranges_error(self):
        series = self.make_series(5)
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
        _, window = reference_window(h)
        leads = leads_of(series)
        assert (series.issue_times <= series.valid_times - h * HOUR).all()  # no future information
        assert ((h <= leads) & (leads < h + window)).all()
        cycles = ((series.issue_times - T0) / HOUR % 24).tolist()
        assert (leads <= np.array([DEFAULT_MAX_LEADS[c] for c in cycles], dtype=float)).all()

    @given(issues=issue_sets(), h=st.sampled_from([0, 6, 24]))
    @settings(max_examples=25, deadline=None)
    def test_selected_issue_is_latest_admissible(self, issues, h):
        if not issues:
            return
        series = synthesize_horizon_series(issues, h)
        for other in issues:
            # the rows an issue later than their own could serve
            leads = (series.valid_times[series.issue_times < other.issue_time] - other.issue_time) / HOUR
            cycle = int((other.issue_time - T0) / HOUR) % 24
            admissible = (leads >= h) & (leads <= DEFAULT_MAX_LEADS[cycle])
            assert not admissible.any(), "a more recent admissible issue was skipped"


def dict_synthesize(issues, h):
    """Lead by lead with a dict keyed by valid time: the reference for
    synthesize_horizon_series."""
    cycles, window = reference_window(h)
    admitted = sorted(
        (i for i in issues if i.issue_time.astype(object).hour in cycles),
        key=lambda i: i.issue_time,
    )
    out = []
    for issue in admitted:
        for lead in range(h, h + window):
            pos = np.searchsorted(issue.horizon_hours, lead)
            if pos >= issue.horizon_hours.size or issue.horizon_hours[pos] != lead:
                continue
            out.append((issue.issue_time + lead * HOUR, float(issue.values[pos]), issue.issue_time))
    by_time = {vt: (x, it) for vt, x, it in out}
    rows = [(vt, x, it) for vt, (x, it) in sorted(by_time.items())]
    vt, x, it = zip(*rows) if rows else ((), (), ())
    return HorizonSeries(valid_times=list(vt), values=list(x), issue_times=list(it))


def dict_align(series, measurements, horizon):
    """Row by row with a dict of valid measurements: the reference for align."""
    meas = {np.datetime64(m.timestamp, "s"): float(m.sig_heave) for m in measurements if m.valid}
    rows = [
        (np.datetime64(vt, "s"), x, meas[np.datetime64(vt, "s")], np.datetime64(it, "s"))
        for vt, x, it in zip(series.valid_times, series.values.tolist(), series.issue_times)
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
    @given(issues=irregular_issues(), h=st.integers(0, 240))
    @settings(max_examples=150, deadline=None)
    def test_synthesize_matches_dict_reference(self, issues, h):
        if reference_window(h)[1] is None:
            with pytest.raises(ValueError, match=rf"^horizon {h}: no issue cycle reaches it"):
                synthesize_horizon_series(issues, h)
            return
        series = synthesize_horizon_series(issues, h)
        assert isinstance(series, HorizonSeries)
        assert_same_series(series, dict_synthesize(issues, h))

    def test_overlapping_windows_take_the_latest_issue(self):
        # 00Z and 06Z issues at h=0 (6 h windows) and 00Z/12Z at h=72 (12 h)
        issues = full_day_issues(days=4, value_fn=lambda t, lead: t + lead / 1000.0)
        for h in (0, 6, 72, 96):
            got = synthesize_horizon_series(issues, h)
            assert_same_series(got, dict_synthesize(issues, h))
            leads = leads_of(got)
            assert leads.size and ((h <= leads) & (leads < h + reference_window(h)[1])).all()

    def test_no_admitted_issue(self):
        issues = [issue_at(6, 72)]  # 06Z stops at 72 h
        assert synthesize_horizon_series(issues, 72).valid_times.size == 0
        assert synthesize_horizon_series([], 0).valid_times.size == 0

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
            ref = dict_align(series, measurements, h)
        except ValueError:
            with pytest.raises(ValueError, match="share no valid times"):
                align(series, measurements, h)
            return
        ds = align(series, measurements, h)
        np.testing.assert_array_equal(ds.valid_times, ref.valid_times)
        np.testing.assert_array_equal(ds.issue_times, ref.issue_times)
        np.testing.assert_array_equal(ds.post_gap, ref.post_gap)
        assert ds.x.tobytes() == ref.x.tobytes() and ds.y.tobytes() == ref.y.tobytes()


class TestHeaveRecord:
    @pytest.mark.parametrize("value", [-0.1, np.inf, -np.inf, np.nan, np.float64(np.inf)])
    def test_value_not_finite_and_nonnegative_rejected_when_valid(self, value):
        message = f"sig_heave must be a finite nonnegative number when valid, found {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            HeaveRecord(timestamp=T0, sig_heave=value, valid=True)
        assert HeaveRecord(timestamp=T0, sig_heave=value, valid=False).sig_heave is value
