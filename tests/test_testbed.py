import math

import pytest

from stochinv import (BenchmarkReport, Grid, PointResult, SimulationConfig,
                      build_design, demand_patterns, run_benchmark)

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
        config = SimulationConfig(base_seed=3, target_rel_error=5e-3)
        report = run_benchmark(two_points, config, grid=Grid(-2000, 2500),
                               threads=2)
        assert [r.point.key for r in report.results] == [pt.key for pt in two_points]
        assert report.errors == []
        assert report.cop_violations == []
        for result in report.results:
            assert -0.05 < result.gap < 5.0
            assert 1 <= result.max_thresholds <= 5

    def test_thread_count_does_not_change_results(self, two_points):
        config = SimulationConfig(base_seed=3, target_rel_error=5e-3)
        grid = Grid(-2000, 2500)
        serial = run_benchmark(two_points, config, grid=grid, threads=1)
        threaded = run_benchmark(two_points, config, grid=grid, threads=2)
        assert [r.gap for r in serial.results] == [r.gap for r in threaded.results]

    def test_unconverged_gap_is_an_error(self, two_points):
        config = SimulationConfig(base_seed=3, target_rel_error=1e-9,
                                  max_reps=1000)
        report = run_benchmark(two_points, config, grid=Grid(-2000, 2500))
        assert [key for key, _ in report.errors] == [pt.key for pt in two_points]
        for _, error in report.errors:
            assert error == ("unconverged: optimal after 1000 reps, "
                             "heuristic after 1000 reps")
        dim, level, avg, top, thr, count = report.pivot_rows()[-1]
        assert (dim, count) == ("Overall", 0)
