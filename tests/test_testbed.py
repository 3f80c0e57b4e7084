import dataclasses
import math

import pytest

from stochinv import (DEFAULT_GRID, BenchmarkReport, DesignPoint, Grid,
                      PointResult, build_design, demand_patterns,
                      optimality_gap, read_policy, run_benchmark, solve,
                      testbed)

ALL_FAMILIES = ("poisson", "discrete_uniform", "geometric",
                "normal", "lognormal", "gamma")


class TestPatterns:
    def test_ten_patterns_of_twenty_periods(self):
        patterns = demand_patterns()
        assert len(patterns) == 10
        assert all(len(means) == 20 for means in patterns.values())
        assert patterns["STA"] == (30,) * 20

    def test_returns_a_copy(self):
        demand_patterns().clear()
        assert len(demand_patterns()) == 10


class TestDesign:
    def test_family_sizes(self):
        assert len(build_design(("poisson",))) == 810
        assert len(build_design(("normal",))) == 2430
        assert len(build_design(ALL_FAMILIES)) == 9720

    def test_point_construction(self):
        point = next(pt for pt in build_design(("poisson",))
                     if pt.pattern == "STA" and pt.K == 250 and pt.v == 2
                     and pt.p == 5 and pt.b_mult == 2)
        assert point.cv is None
        assert point.key == "poisson|STA|K250|v2|p5|m2|cv-"
        assert point.instance.horizon == 20
        assert point.instance.B == 60
        assert point.instance.h == 1.0
        assert point.instance.demands[0].mean == pytest.approx(30.0, abs=1e-6)

    def test_capacity_scales_with_average_demand(self):
        for point in build_design(("gamma",)):
            avg = sum(demand_patterns()[point.pattern]) / 20
            assert point.instance.B == round(point.b_mult * avg)

    def test_subsample_keeps_every_level_covered(self):
        design = build_design(("poisson",), scale=0.05)
        assert 40 <= len(design) < 120
        for dim, levels in (("pattern", set(demand_patterns())),
                            ("K", {250, 500, 1000}),
                            ("v", {2, 5, 10}),
                            ("p", {5, 10, 15}),
                            ("b_mult", {2, 3, 4})):
            assert {getattr(pt, dim) for pt in design} == levels

    def test_subsample_is_deterministic(self):
        keys = [pt.key for pt in build_design(("lognormal",), scale=0.02)]
        again = [pt.key for pt in build_design(("lognormal",), scale=0.02)]
        assert keys == again

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_design(("poisson",), scale=0.0)
        with pytest.raises(ValueError):
            build_design(("poisson",), scale=1.1)
        with pytest.raises(ValueError):
            build_design(("weibull",))


class TestReportAggregation:
    def build_report(self):
        points = build_design(("poisson",))[:3]
        results = (
            PointResult(points[0], 1.0, 2, (), None),
            PointResult(points[1], 3.0, 4, (5,), None),
            PointResult(points[2], math.nan, 0, (), "GridSpanError: too narrow"),
        )
        return BenchmarkReport(results)

    def test_overall_row_skips_errors(self):
        rows = self.build_report().pivot_rows()
        dim, level, avg, top, thr, count = rows[-1]
        assert (dim, level) == ("Overall", "")
        assert avg == pytest.approx(2.0)
        assert top == pytest.approx(3.0)
        assert thr == 4
        assert count == 2

    def test_violations_and_errors_are_listed(self):
        report = self.build_report()
        assert [periods for _, periods in report.cop_violations] == [(5,)]
        assert len(report.errors) == 1
        assert "GridSpanError" in report.errors[0][1]

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "pivot.csv"
        self.build_report().to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dimension,level,avg_gap_pct,max_gap_pct,max_thresholds,instances"
        assert lines[-1] == "Overall,,2.000,3.000,4,2"


@pytest.fixture(scope="module")
def two_points():
    return build_design(("poisson",))[:2]


class TestSmallBenchmarkRun:

    def test_runs_clean_and_in_order(self, two_points):
        report = run_benchmark(two_points, grid=Grid(-2000, 2500))
        assert [r.point.key for r in report.results] == [pt.key for pt in two_points]
        assert report.errors == []
        assert report.cop_violations == []
        for result in report.results:
            assert -0.05 < result.gap < 5.0
            assert 1 <= result.max_thresholds <= 5

    def test_narrow_grid_is_a_point_error(self, two_points):
        report = run_benchmark(two_points[:1], grid=Grid(-5, 10))
        ((key, error),) = report.errors
        assert key == two_points[0].key
        assert error.startswith("GridSpanError: ")
        assert math.isnan(report.results[0].gap)

    def test_unexpected_exception_reaches_the_caller(self, two_points,
                                                     monkeypatch):
        def broken_solve(instance, grid):
            raise TypeError("broken solve")

        monkeypatch.setattr(testbed, "solve", broken_solve)
        with pytest.raises(TypeError, match="broken solve"):
            run_benchmark(two_points[:1], grid=Grid(-2000, 2500))

    def test_order_property_violation_is_recorded(self, spiky_instance):
        # the spiky fixture's first period orders, stops and orders again;
        # the bed flags it, counts bands only in the other periods, and
        # still prices the heuristic
        inst = spiky_instance
        point = DesignPoint("empirical", "spiky", inst.K, inst.v, inst.p, 1,
                            None, inst)
        (result,) = run_benchmark([point], grid=Grid(-1000, 1100)).results
        assert result.cop_violations == (1,)
        assert result.max_thresholds == 2
        assert result.error is None
        assert math.isfinite(result.gap)


def direct_result(point, grid):
    """(gap, max thresholds, COP periods) of the point solved on the whole grid."""
    tables = solve(point.instance, grid)
    policy = read_policy(tables)
    violated = policy.cop_violated
    max_thr = max((len(pairs) for period, pairs in enumerate(policy.bands, 1)
                   if period not in violated), default=0)
    return optimality_gap(point.instance, tables, policy.top(), 0), max_thr, violated


class TestTrimmedTopMatchesTheWholeGrid:
    """The bed solves a point only up to sum_t dmax_t; its results are those
    of the whole outer grid, exactly."""

    @pytest.mark.parametrize("pattern", ["EMP2", "EMP4"])
    @pytest.mark.parametrize("K, v, p", [(250, 2, 5), (1000, 10, 15)])
    def test_largest_capacities_on_the_default_grid(self, pattern, K, v, p):
        (point,) = [pt for pt in build_design(("poisson",))
                    if (pt.pattern, pt.K, pt.v, pt.p, pt.b_mult)
                    == (pattern, K, v, p, 4)]
        top = sum(d.max_value for d in point.instance.demands)
        assert point.instance.B >= 393 and top < DEFAULT_GRID.x_max
        (result,) = run_benchmark([point]).results
        assert result.error is None
        assert (result.gap, result.max_thresholds,
                result.cop_violations) == direct_result(point, DEFAULT_GRID)

    def test_torn_ordering_region_below_the_top(self, spiky_instance):
        # period 1 orders again at 616-618, below the top 899 of Grid(-1000, 1100)
        inst = spiky_instance
        point = DesignPoint("empirical", "spiky", inst.K, inst.v, inst.p, 1,
                            None, inst)
        grid = Grid(-1000, 1100)
        assert sum(d.max_value for d in inst.demands) == 899
        (result,) = run_benchmark([point], grid=grid).results
        assert result.cop_violations == (1,)
        assert (result.gap, result.max_thresholds,
                result.cop_violations) == direct_result(point, grid)

    def test_the_trimmed_grid_is_what_gets_solved(self, two_points, monkeypatch):
        solved = []

        def recording_solve(instance, grid):
            solved.append(grid)
            return solve(instance, grid)

        monkeypatch.setattr(testbed, "solve", recording_solve)
        point = two_points[0]
        top = sum(d.max_value for d in point.instance.demands)
        run_benchmark([point], grid=Grid(-2000, 2500))
        run_benchmark([point], grid=Grid(-2000, top))
        run_benchmark([point], grid=Grid(-2000, top + 1))
        # an uncapacitated point is cut at the same top
        unbounded = point._replace(
            instance=dataclasses.replace(point.instance, B=math.inf))
        run_benchmark([unbounded], grid=Grid(-2000, 2500))
        # a grid below the top is kept as given
        run_benchmark([point], grid=Grid(-2000, top - 1))
        assert solved == [Grid(-2000, top)] * 4 + [Grid(-2000, top - 1)]
