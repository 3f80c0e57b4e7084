import dataclasses
import math

import pytest

from conftest import certifying_floor
from stochinv import (DEFAULT_GRID, BenchmarkReport, DesignPoint, Grid,
                      GridSpanError, PointResult, SimulationError,
                      build_design, demand_patterns, optimality_gap,
                      read_policy, run_benchmark, sdp, search_grid, solve,
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
            PointResult(points[2], math.nan, 0, (), "SimulationError: mismatch"),
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
        assert "SimulationError" in report.errors[0][1]

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
        report = run_benchmark(two_points)
        assert [r.point.key for r in report.results] == [pt.key for pt in two_points]
        assert report.errors == []
        assert report.cop_violations == []
        for result in report.results:
            assert -0.05 < result.gap < 5.0
            assert 1 <= result.max_thresholds <= 5

    def test_simulation_error_is_a_point_error(self, two_points, monkeypatch):
        def mismatched_gap(instance, tables, heuristic, x0):
            raise SimulationError("exact optimal cost 1.0 differs from the "
                                  "solved value 2.0")

        monkeypatch.setattr(testbed, "optimality_gap", mismatched_gap)
        report = run_benchmark(two_points)
        assert report.errors == [
            (point.key, "SimulationError: exact optimal cost 1.0 differs "
             "from the solved value 2.0") for point in two_points]
        assert all(math.isnan(r.gap) for r in report.results)
        assert report.pivot_rows()[-1][-1] == 0

    def test_every_point_is_priced_from_certified_states(self, monkeypatch):
        # the bed solves the instance alone, and x0 = 0 lies at or above
        # the certified floor exact_from(1) of its certified tables, the
        # cone's R_1: min(0, level_1) at a finite capacity, and -dmax_n
        # from the search grid's floor at B = inf
        class Solved(Exception):
            pass

        floors = []

        def recording_solve(instance, *args, **kwargs):
            assert not args and not kwargs
            floors.append(instance.cone[0][0])
            raise Solved

        monkeypatch.setattr(testbed, "solve", recording_solve)
        points = build_design(ALL_FAMILIES)[::10]
        for point in points:
            unbounded = point._replace(
                instance=dataclasses.replace(point.instance, B=math.inf))
            for pt in (point, unbounded):
                with pytest.raises(Solved):
                    run_benchmark([pt])
        assert len(floors) == 2 * 972
        assert max(floors) <= 0

    def test_slide_levels_are_derived_once_per_point(self, monkeypatch):
        # the cone of the certified solve reads the slide levels, which the
        # instance derives once
        calls = []
        derive = sdp._slide_levels

        def counting(instance):
            calls.append(instance)
            return derive(instance)

        monkeypatch.setattr(sdp, "_slide_levels", counting)
        for point in build_design(("poisson",))[::45]:
            calls.clear()
            (result,) = run_benchmark([point]).results
            assert result.error is None, point.key
            assert len(calls) == 1 and calls[0] is point.instance, point.key

    def test_unexpected_exception_reaches_the_caller(self, two_points,
                                                     monkeypatch):
        def broken_solve(*args, **kwargs):
            raise TypeError("broken solve")

        monkeypatch.setattr(testbed, "solve", broken_solve)
        with pytest.raises(TypeError, match="broken solve"):
            run_benchmark(two_points[:1])

    def test_order_property_violation_is_recorded(self, spiky_instance):
        # the spiky fixture's first period orders, stops and orders again;
        # the bed flags it, counts bands only in the other periods, and
        # still prices the heuristic
        inst = spiky_instance
        point = DesignPoint("empirical", "spiky", inst.K, inst.v, inst.p, 1,
                            None, inst)
        (result,) = run_benchmark([point]).results
        assert result.cop_violations == (1,)
        assert result.max_thresholds == 2
        assert result.error is None
        assert math.isfinite(result.gap)


def direct_result(point, grid):
    """The point's result solved on the whole grid, without the bed's cuts."""
    try:
        tables = solve(point.instance, grid)
        policy = read_policy(tables)
    except GridSpanError as exc:
        return PointResult(point, math.nan, 0, (), f"GridSpanError: {exc}")
    violated = policy.cop_violated
    max_thr = max((len(pairs) for period, pairs in enumerate(policy.bands, 1)
                   if period not in violated), default=0)
    gap = optimality_gap(point.instance, tables, policy.top(), 0)
    return PointResult(point, gap, max_thr, violated, None)


def outcome(result):
    """A point result as comparable fields, NaN-aware: the gap by its bits."""
    return (result.gap.hex(), result.max_thresholds, result.cop_violations,
            result.error)


class TestTablesSpanTheCone:
    def test_the_widest_point(self):
        # the Poisson point with the widest certified tables, EMP4 at
        # b_mult 4 (B = 394) with v = 10 and p = 5, first at K = 250, holds
        # tables of 2,599 states, from its lowest R_t to its top
        design = build_design(("poisson",))
        widest = max(design, key=lambda pt: solve(pt.instance).grid.size)
        instance = widest.instance
        assert (widest.pattern, widest.K, widest.v, widest.p, widest.b_mult,
                instance.B) == ("EMP4", 250, 10, 5, 4, 394)
        tables = solve(instance)
        assert tables.grid == Grid(min(first for first, _ in tables.cone),
                                   instance.top)
        assert tables.grid.size == max(row.size for row in tables.C) == 2599


class TestTrimmedTopMatchesTheWholeGrid:
    """The bed solves a point only on its cone, up to its structural top,
    at or below sum_t dmax_t; its results are those of any whole-row grid
    that certifies the cone, exactly."""

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
        assert outcome(result) == outcome(direct_result(point, DEFAULT_GRID))

    # the smallest and the largest capacity of one pattern in each family.
    # At B = 125 (m4) ordering the capacity saves (p - v) B = K exactly in
    # the last period below its F^C, a tie the tolerance decides. Geometric
    # points reach past both edges of the default grid, so they are held
    # to a grid 300 states wider than theirs at each edge.
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("b_mult", [2, 4])
    def test_each_family_on_the_default_grid(self, family, b_mult):
        (point,) = [pt for pt in build_design((family,))
                    if (pt.pattern, pt.K, pt.v, pt.p, pt.b_mult)
                    == ("LC1", 1000, 2, 10, b_mult) and pt.cv in (None, 0.2)]
        instance = point.instance
        floor = certifying_floor(instance)
        inside = (floor > DEFAULT_GRID.x_min
                  and instance.top <= DEFAULT_GRID.x_max)
        assert inside == (family != "geometric")
        grid = (DEFAULT_GRID if inside
                else Grid(floor - 300, instance.top + 300))
        (result,) = run_benchmark([point]).results
        assert result.error is None
        assert outcome(result) == outcome(direct_result(point, grid))

    def test_torn_ordering_region_below_the_top(self, spiky_instance):
        # period 1 orders again at 616-618, between the cone's certifying
        # floor -689 and the top 728 (the demand ceiling is 899), on the
        # default grid and inside Grid(-1000, 1100)
        inst = spiky_instance
        point = DesignPoint("empirical", "spiky", inst.K, inst.v, inst.p, 1,
                            None, inst)
        assert (certifying_floor(inst), inst.top) == (-689, 728)
        (result,) = run_benchmark([point]).results
        assert result.cop_violations == (1,)
        for grid in (DEFAULT_GRID, Grid(-1000, 1100)):
            assert outcome(result) == outcome(direct_result(point, grid))

    def test_the_trimmed_grid_is_what_gets_solved(self, two_points, monkeypatch):
        solved = []

        def recording_solve(*args):
            tables = solve(*args)
            solved.append((args[1:], tables.grid))
            return tables

        monkeypatch.setattr(testbed, "solve", recording_solve)
        point = two_points[0]
        # the top lies well below the demand ceiling, 1360, and the cone's
        # lowest R_t at -236
        top = 560
        assert point.instance.top == top
        run_benchmark([point])
        # an uncapacitated point's cone is the certified range of the
        # search grid's whole rows, from its floor, the deepest state
        # reachable from x0 = 0, up to the same top: K and B never enter it
        unbounded = point._replace(
            instance=dataclasses.replace(point.instance, B=math.inf))
        run_benchmark([unbounded])
        assert search_grid(unbounded.instance).x_min == -1360
        assert solved == [((), Grid(-236, top)), ((), Grid(-1360, top))]
