"""Equivalence tests: columnar and incremental analyzers vs the dict oracle.

The columnar rewrite is only allowed to change *how* the Section 4.1
heuristic is computed, never *what* it reports — these property tests
pin :class:`DynamicityAnalyzer` (two-sweep columnar core) and
:class:`IncrementalDynamicityAnalyzer` (running maxima + sorted deltas,
binary-searched) against :class:`DictReferenceAnalyzer`, the retained
row-oriented implementation.
"""

import datetime as dt
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DictReferenceAnalyzer,
    DynamicityAnalyzer,
    DynamicityThresholds,
    IncrementalDynamicityAnalyzer,
)

START = dt.date(2021, 1, 1)

PREFIXES = [f"10.0.{index}.0/24" for index in range(6)]

# Day dicts over a small prefix pool; absent prefixes model /24s whose
# records disappeared entirely, and counts straddle the min-size (10)
# and the 10%-change boundary.
day_counts = st.dictionaries(
    st.sampled_from(PREFIXES),
    st.integers(min_value=1, max_value=120),
    max_size=len(PREFIXES),
)
series_strategy = st.lists(day_counts, min_size=1, max_size=25)


def mapping_from(day_dicts, cadence_days=1):
    return {
        START + dt.timedelta(days=offset * cadence_days): counts
        for offset, counts in enumerate(day_dicts)
    }


def assert_reports_equal(left, right):
    assert left.total_observed == right.total_observed
    assert left.cadence_days == right.cadence_days
    assert (
        left.effective_min_change_transitions == right.effective_min_change_transitions
    )
    assert left.prefixes == right.prefixes
    assert left.dynamic_prefixes() == right.dynamic_prefixes()


class TestColumnarMatchesReference:
    @given(series_strategy)
    @settings(max_examples=60)
    def test_daily_cadence(self, day_dicts):
        series = mapping_from(day_dicts)
        columnar = DynamicityAnalyzer().analyze(series)
        reference = DictReferenceAnalyzer().analyze(series)
        assert_reports_equal(columnar, reference)

    @given(series_strategy)
    @settings(max_examples=30)
    def test_weekly_cadence(self, day_dicts):
        series = mapping_from(day_dicts, cadence_days=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            columnar = DynamicityAnalyzer().analyze(series, allow_coarse_cadence=True)
            reference = DictReferenceAnalyzer().analyze(
                series, allow_coarse_cadence=True
            )
        assert_reports_equal(columnar, reference)

    @given(series_strategy)
    @settings(max_examples=30)
    def test_tight_thresholds(self, day_dicts):
        thresholds = DynamicityThresholds(
            min_daily_addresses=1, change_percent=25.0, min_change_days=2
        )
        series = mapping_from(day_dicts)
        assert_reports_equal(
            DynamicityAnalyzer(thresholds).analyze(series),
            DictReferenceAnalyzer(thresholds).analyze(series),
        )

    def test_boundary_change_stays_exclusive(self):
        # Exactly-10% transitions must not count in either implementation.
        series = mapping_from([{"10.0.0.0/24": 100}, {"10.0.0.0/24": 90}] * 10)
        columnar = DynamicityAnalyzer().analyze(series)
        assert columnar.prefixes["10.0.0.0/24"].change_days == 0
        assert_reports_equal(columnar, DictReferenceAnalyzer().analyze(series))

    def test_snapshot_series_input(self):
        from repro.netsim.internet import WorldScale, build_world
        from repro.scan import SnapshotCollector

        world = build_world(seed=4, scale=WorldScale.small())
        series = SnapshotCollector.openintel_style(world.internet).collect(
            START, START + dt.timedelta(days=12)
        )
        assert_reports_equal(
            DynamicityAnalyzer().analyze(series),
            DictReferenceAnalyzer().analyze(series),
        )


class TestIncrementalMatchesBatch:
    @given(series_strategy)
    @settings(max_examples=60)
    def test_full_report(self, day_dicts):
        series = mapping_from(day_dicts)
        incremental = IncrementalDynamicityAnalyzer()
        for day in sorted(series):
            incremental.ingest(day, series[day])
        assert_reports_equal(
            incremental.report(), DictReferenceAnalyzer().analyze(series)
        )

    @given(series_strategy)
    @settings(max_examples=30)
    def test_weekly_cadence(self, day_dicts):
        series = mapping_from(day_dicts, cadence_days=7)
        incremental = IncrementalDynamicityAnalyzer(
            cadence_days=7, allow_coarse_cadence=True
        )
        for day in sorted(series):
            incremental.ingest(day, series[day])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert_reports_equal(
                incremental.report(),
                # cadence passed explicitly: a single-snapshot series
                # gives inference nothing to measure the spacing from.
                DictReferenceAnalyzer().analyze(
                    series, cadence_days=7, allow_coarse_cadence=True
                ),
            )

    @given(series_strategy, st.integers(min_value=1, max_value=30))
    @settings(max_examples=60)
    def test_rolling_window_matches_batch_over_window(self, day_dicts, window):
        """report(window=k) == a batch run over just the last k days."""
        series = mapping_from(day_dicts)
        incremental = IncrementalDynamicityAnalyzer()
        for day in sorted(series):
            incremental.ingest(day, series[day])
        window_days = sorted(series)[-window:]
        # The reference sees the windowed days as the dynamicity plane
        # would: only prefixes with records present (day_counts drops
        # zero-count entries).
        windowed = {day: series[day] for day in window_days}
        assert_reports_equal(
            incremental.report(window=window),
            DictReferenceAnalyzer().analyze(windowed, cadence_days=1),
        )

    def test_report_after_each_day_matches_batch_prefix(self):
        history = [{"10.0.0.0/24": count} for count in (100, 50, 100, 50, 100)]
        incremental = IncrementalDynamicityAnalyzer()
        for offset, counts in enumerate(history):
            day = START + dt.timedelta(days=offset)
            incremental.ingest(day, counts)
            batch = DynamicityAnalyzer().analyze(
                mapping_from(history[: offset + 1])
            )
            assert_reports_equal(incremental.report(), batch)

    def test_ingest_enforces_order_and_cadence(self):
        incremental = IncrementalDynamicityAnalyzer()
        incremental.ingest(START, {"10.0.0.0/24": 20})
        with pytest.raises(ValueError, match="not after"):
            incremental.ingest(START, {"10.0.0.0/24": 20})
        with pytest.raises(ValueError, match="cadence"):
            incremental.ingest(START + dt.timedelta(days=3), {"10.0.0.0/24": 20})

    def test_report_on_empty_state_rejected(self):
        with pytest.raises(ValueError):
            IncrementalDynamicityAnalyzer().report()


class TestCadenceInference:
    def test_mixed_cadence_mapping_rejected(self):
        # Regression: the old inference took the *minimum* gap, so a
        # daily series with one missing day was silently analysed as
        # regular.  Mixed spacing must now raise.
        series = {
            START: {"10.0.0.0/24": 100},
            START + dt.timedelta(days=1): {"10.0.0.0/24": 50},
            # day 2 missing
            START + dt.timedelta(days=3): {"10.0.0.0/24": 100},
        }
        with pytest.raises(ValueError, match="mixed snapshot spacing"):
            DynamicityAnalyzer().analyze(series)

    def test_explicit_cadence_bypasses_inference(self):
        series = {
            START: {"10.0.0.0/24": 100},
            START + dt.timedelta(days=1): {"10.0.0.0/24": 50},
            START + dt.timedelta(days=3): {"10.0.0.0/24": 100},
        }
        report = DynamicityAnalyzer().analyze(series, cadence_days=1)
        assert report.cadence_days == 1

    def test_uniform_weekly_mapping_still_inferred(self):
        series = mapping_from([{"10.0.0.0/24": 100}, {"10.0.0.0/24": 50}], 7)
        with pytest.warns(UserWarning, match="rescaled"):
            report = DynamicityAnalyzer().analyze(series, allow_coarse_cadence=True)
        assert report.cadence_days == 7
