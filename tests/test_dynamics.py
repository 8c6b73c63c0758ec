import math
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, strategies as st

from ranksig.dynamics import (
    IndicatorField,
    aligned_series,
    bootstrap_interval,
    decompose_change,
    series_view,
)
from ranksig.errors import AmbiguousPeriodLabel, EmptyInstitution, InvalidStatistic

from conftest import make_record


class TestDecompose:
    def test_published_example(self):
        d = decompose_change(9.81, 9.54, 9.03)
        assert d.total == pytest.approx(0.78)
        assert d.data_effect == pytest.approx(0.27)
        assert d.model_effect == pytest.approx(0.51)
        assert d.model_share == pytest.approx(0.654, abs=0.001)
        assert d.data_share == pytest.approx(0.346, abs=0.001)

    def test_no_change(self):
        d = decompose_change(7.5, 7.5, 7.5)
        assert d.total == 0.0 and d.data_effect == 0.0 and d.model_effect == 0.0
        assert d.data_share is None and d.model_share is None

    def test_opposing_effects(self):
        d = decompose_change(10.0, 9.0, 9.5)
        assert d.total == pytest.approx(0.5)
        assert d.data_effect == pytest.approx(1.0)
        assert d.model_effect == pytest.approx(-0.5)
        assert d.data_share == pytest.approx(2.0)
        assert d.model_share == pytest.approx(-1.0)

    @given(
        st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)
    )
    def test_additivity_is_exact(self, a, b, c):
        d = decompose_change(a, b, c)
        assert d.data_effect + d.model_effect == d.total  # bitwise, no drift
        if d.total != 0:
            assert d.data_share + d.model_share == pytest.approx(1.0)

    def test_increase_is_symmetric(self):
        d = decompose_change(9.0, 9.3, 9.8)
        assert d.total == pytest.approx(-0.8)
        assert d.model_effect == pytest.approx(-0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidStatistic):
            decompose_change(float("inf"), 1.0, 2.0)


class TestBootstrap:
    def test_all_bottom_share_pins_interval_at_zero(self):
        rec = make_record(name="Bottom U", p=500.0, pp=0.0)
        iv = bootstrap_interval(rec, draws=200, seed=1)
        assert (iv.lower, iv.upper) == (0.0, 0.0)

    def test_all_top_share_pins_interval_at_one(self):
        rec = make_record(name="Top U", p=500.0, pp=1.0)
        iv = bootstrap_interval(rec, draws=200, seed=1)
        assert (iv.lower, iv.upper) == (1.0, 1.0)

    def test_frozen_seeded_interval(self):
        # frozen from one seeded run; binomial half-width 1.96*sqrt(.1*.9/1e4) = 0.00588
        rec = make_record(name="Synthetic U", p=10000.0, pp=0.10)
        iv = bootstrap_interval(rec, draws=2000, coverage=0.95, seed=42)
        assert (iv.lower, iv.upper) == (0.0939, 0.1057)
        half = iv.width / 2
        assert abs(half - 0.00588) / 0.00588 < 0.15

    def test_deterministic_across_runs(self):
        rec = make_record(name="Any U", p=3333.0, pp=0.14)
        a = bootstrap_interval(rec, draws=500, seed=9)
        b = bootstrap_interval(rec, draws=500, seed=9)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_different_institutions_get_independent_streams(self):
        a = bootstrap_interval(make_record(name="A", p=5000.0, pp=0.1), seed=0)
        b = bootstrap_interval(make_record(name="B", p=5000.0, pp=0.1), seed=0)
        assert (a.lower, a.upper) != (b.lower, b.upper)

    def test_wider_coverage_never_narrows(self):
        rec = make_record(name="Cov U", p=2000.0, pp=0.12)
        widths = [
            bootstrap_interval(rec, draws=1000, coverage=c, seed=4).width
            for c in (0.5, 0.8, 0.9, 0.95, 0.99)
        ]
        assert all(w2 >= w1 for w1, w2 in zip(widths, widths[1:]))

    def test_thread_count_cannot_change_results(self):
        recs = [make_record(name=f"U{i}", p=2000.0 + i, pp=0.1) for i in range(8)]
        serial = [bootstrap_interval(r, draws=400, seed=3) for r in recs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(
                lambda r: bootstrap_interval(r, draws=400, seed=3), recs
            ))
        assert [(i.lower, i.upper) for i in serial] == [
            (i.lower, i.upper) for i in threaded
        ]

    def test_empty_institution(self):
        with pytest.raises(EmptyInstitution):
            bootstrap_interval(make_record(name="Tiny U", p=0.4, pp=0.0))

    def test_bad_arguments(self):
        rec = make_record(name="U", p=100.0, pp=0.1)
        with pytest.raises(InvalidStatistic):
            bootstrap_interval(rec, draws=0)
        with pytest.raises(InvalidStatistic):
            bootstrap_interval(rec, coverage=1.0)


class TestSeriesView:
    def periods(self, labels, values):
        return [
            make_record(name="Fudan-like U", period=lab, p=v, pp=0.1)
            for lab, v in zip(labels, values)
        ]

    def test_orders_by_start_year(self):
        recs = self.periods(
            ["2016-2019", "2012-2015", "2014-2017"], [300.0, 100.0, 200.0]
        )
        series = series_view(recs, IndicatorField.P)
        assert series == (
            ("2012-2015", 100.0), ("2014-2017", 200.0), ("2016-2019", 300.0)
        )

    def test_single_period(self):
        (pt,) = series_view(self.periods(["2015-2018"], [42.0]), IndicatorField.P)
        assert pt == ("2015-2018", 42.0)

    def test_field_selection(self):
        recs = self.periods(["2015-2018"], [1000.0])
        assert series_view(recs, IndicatorField.PP_TOP10)[0][1] == 0.1
        assert series_view(recs, IndicatorField.T_TOP10)[0][1] == pytest.approx(100.0)

    def test_unparseable_period(self):
        with pytest.raises(AmbiguousPeriodLabel):
            series_view(self.periods(["latest"], [1.0]), IndicatorField.P)

    def test_aligned_series(self):
        yearly = self.periods(["2012-2015", "2016-2019"], [100.0, 120.0])
        rebuilt = self.periods(["2012-2015", "2014-2017"], [95.0, 110.0])
        rows = aligned_series(yearly, rebuilt, IndicatorField.P)
        assert rows == (
            ("2012-2015", 100.0, 95.0),
            ("2014-2017", None, 110.0),
            ("2016-2019", 120.0, None),
        )

    def test_aligned_series_diffs_edition_against_reconstruction(self):
        yearly = [make_record(name="F U", period="2012-2015", p=9000.0, pp=0.0981)]
        rebuilt = [make_record(name="F U", period="2012-2015", p=9000.0, pp=0.0954)]
        (row,) = aligned_series(yearly, rebuilt, IndicatorField.PP_TOP10)
        assert row == ("2012-2015", 0.0981, 0.0954)
