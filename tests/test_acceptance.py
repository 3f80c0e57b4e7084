"""End-to-end acceptance battery.

Each test here pins one headline behavior of the package at its stated
tolerance: threshold tables for the seasonal fixture at four capacities,
the order/stop/order action table of the spiky fixture, discounted band
structure, exact heuristic optimality gaps, envelope diagnostics, a
property suite (oracle agreement, convexity checks, policy
reconstruction, single-period monotonicity, uncapacitated band collapse,
simulation reproducibility), a subsampled benchmark bed with a zero gap
for the multi-band policy, and replay of the random search that finds an
order-property violation.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import seasonal_instance, small_random_instance
from oracle import brute_cost_to_go, rebuild_order_quantity
from stochinv import (DEFAULT_GRID, CexSearchParams, Grid, Instance,
                      SimulationConfig, build_design, check_cop,
                      extract_thresholds, gap_with_estimates,
                      modified_ss_from_tables, optimality_gap, qce_diagnostics,
                      random_instance, read_policy, run_benchmark,
                      search_cop_violations, search_grid, serialize_instance,
                      solve, v_monotonicity_report, verify_kb_convexity)

SEED = 20210819

SEASONAL_REFERENCE = {
    35: {1: ((39, 68), (46, 81)),
         2: ((64, 99),),
         3: ((61, 96),),
         4: ((28, 49),)},
    65: {1: ((-11, 31), (14, 70)),
         2: ((-5, 51), (28, 82), (35, 100)),
         3: ((18, 71), (55, 109)),
         4: ((28, 49),)},
    71: {1: ((-16, 27), (7, 71), (13, 84)),
         2: ((27, 76), (34, 105)),
         3: ((12, 71), (55, 109)),
         4: ((28, 49),)},
    math.inf: {1: ((15, 67),),
               2: ((28, 49),),
               3: ((55, 109),),
               4: ((28, 49),)},
}


def test_threshold_tables_for_all_capacities(seasonal_tables):
    for B, by_period in SEASONAL_REFERENCE.items():
        for period, pairs in by_period.items():
            entry = extract_thresholds(seasonal_tables[B], period)
            assert entry.pairs == pairs, (B, period)


def test_order_stop_order_action_table(spiky_tables):
    expected = {x: 41 - (x - 593) for x in range(593, 602)}
    expected.update({x: 0 for x in range(602, 616)})
    expected.update({x: 41 for x in range(616, 619)})
    expected[619] = 0
    for x, q in expected.items():
        assert spiky_tables.qstar_at(1, x) == q, x
    report = check_cop(spiky_tables, 1,
                       from_state=spiky_tables.exact_from(1))
    assert not report.holds
    assert report.violation_witness == (615, 616)


def test_discounted_order_quantities_and_bands(lumpy_tables):
    got = [lumpy_tables.qstar_at(1, x) for x in range(-3, 8)]
    assert got == [9, 8, 7, 9, 8, 7, 9, 8, 7, 0, 0]
    entry = extract_thresholds(lumpy_tables, 1)
    assert entry.pairs == ((-1, 6), (2, 9), (5, 12))


@pytest.mark.parametrize("B,target", [(35, 0.000), (65, 0.123), (71, 0.192)])
def test_heuristic_gap_estimates(seasonal_tables, B, target):
    instance = seasonal_instance(B)
    tables = seasonal_tables[B]
    gap = optimality_gap(instance, tables, modified_ss_from_tables(tables), 0)
    assert gap == pytest.approx(target, abs=0.05)


def test_quantity_certified_envelope_points(volatile_tables):
    points = {pt.S: pt for pt in qce_diagnostics(volatile_tables, 7)}
    anchor = next(points[s] for s in (75, 74, 76) if s in points)
    assert anchor.on_envelope and anchor.nontrivial
    detached = next(points[s] for s in (101, 100, 102) if s in points)
    assert not detached.on_envelope
    row = volatile_tables.G[volatile_tables.row(7)]
    idx = volatile_tables.grid.index
    assert max(row[idx(x)] for x in (131, 132, 133)) >= row[idx(anchor.S)]


class TestPropertySuite:
    def test_backward_recursion_matches_brute_force(self):
        rng = np.random.default_rng(SEED)
        grid = Grid(-40, 60)
        for _ in range(50):
            instance = small_random_instance(rng)
            tables = solve(instance, grid)
            brute = brute_cost_to_go(instance)
            for period in range(1, instance.horizon + 1):
                lo = tables.exact_from(period)
                hi = tables.exact_to(period)
                for x in range(lo, hi + 1):
                    assert tables.cost_at(period, x) == pytest.approx(
                        brute(period, x), abs=1e-9)

    def test_value_rows_pass_convexity_checks(self, seasonal_tables,
                                              spiky_tables, lumpy_tables,
                                              volatile_tables):
        cases = [(tables, seasonal_instance(B).K, B)
                 for B, tables in seasonal_tables.items()]
        for tables in (spiky_tables, lumpy_tables, volatile_tables):
            cases.append((tables, tables.instance.K, tables.instance.B))
        for tables, k_fixed, cap in cases:
            for period in range(1, tables.instance.horizon + 1):
                r = tables.row(period)
                assert verify_kb_convexity(tables.G[r], k_fixed, cap).ok
                assert verify_kb_convexity(tables.C[r], k_fixed, cap).ok

    def test_thresholds_reconstruct_the_action_table(
            self, seasonal_tables, spiky_tables, lumpy_tables,
            volatile_tables):
        def check(tables, period):
            floor = tables.exact_from(period)
            if not check_cop(tables, period, from_state=floor).holds:
                return False
            entry = extract_thresholds(tables, period, from_state=floor)
            cap = tables.instance.B
            for x in range(floor, tables.grid.x_max + 1):
                q = tables.qstar_at(period, x)
                if entry.pairs:
                    assert q == rebuild_order_quantity(entry.pairs, cap, x), x
                else:
                    assert q == 0
            return True

        checked = 0
        for tables in (*seasonal_tables.values(), spiky_tables,
                       lumpy_tables, volatile_tables):
            for period in range(1, tables.instance.horizon + 1):
                checked += check(tables, period)
        assert checked >= 40

    def test_single_period_order_advantage_is_monotone(self):
        params = CexSearchParams(seed=SEED, budget=0, horizon=1)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(SEED)))
        for _ in range(100):
            instance = random_instance(params, rng)
            tables = solve(instance, search_grid(instance))
            assert v_monotonicity_report(tables, 1) == ()

    def test_unbounded_capacity_collapses_to_single_bands(
            self, seasonal_tables, lumpy_instance):
        uncapped = Instance(
            horizon=lumpy_instance.horizon, K=lumpy_instance.K,
            v=lumpy_instance.v, h=lumpy_instance.h, p=lumpy_instance.p,
            B=math.inf, demands=lumpy_instance.demands,
            discount=lumpy_instance.discount)
        for tables in (seasonal_tables[math.inf],
                       solve(uncapped, Grid(-200, 400))):
            for period in range(1, tables.instance.horizon + 1):
                entry = extract_thresholds(tables, period)
                assert len(entry.pairs) == 1

    def test_simulation_reproducibility_and_consistency(self, seasonal_tables):
        instance = seasonal_instance(65)
        tables = seasonal_tables[65]
        config = SimulationConfig(base_seed=SEED, target_rel_error=1e-3)
        heuristic = modified_ss_from_tables(tables)
        gap_a, opt_a, _ = gap_with_estimates(instance, tables, heuristic, 0, config)
        gap_b, opt_b, _ = gap_with_estimates(instance, tables, heuristic, 0, config)
        assert gap_a == gap_b
        assert opt_a.mean_cost == opt_b.mean_cost
        assert abs(opt_a.mean_cost - tables.cost_at(1, 0)) <= \
            max(3.0 * opt_a.half_width, 1e-9)


def test_benchmark_bed_poisson_subsample():
    design = build_design(("poisson",), scale=0.05)
    start = time.perf_counter()
    report = run_benchmark(design)
    elapsed = time.perf_counter() - start
    assert elapsed < 3600.0
    assert report.errors == []
    assert report.cop_violations == []
    gaps = [r.gap for r in report.results]
    assert max(r.max_thresholds for r in report.results) <= 5
    assert max(gaps) <= 2.0
    assert max(gaps) <= 1.918 + 0.1


def test_multi_band_policy_is_optimal_on_the_bed():
    # where every period has the continuous order property, the modified
    # multi-(s, S) policy read off the tables is the optimal policy itself
    checked = 0
    for point in build_design(("poisson",), scale=0.05):
        tables = solve(point.instance, DEFAULT_GRID)
        policy = read_policy(tables)
        if not policy.cop_violated:
            assert optimality_gap(point.instance, tables, policy, 0) == 0.0
            checked += 1
    assert checked >= 40


def test_random_search_replay_is_exact():
    params = CexSearchParams(seed=3, budget=1000)
    first = search_cop_violations(params)
    assert [(v.index, v.period) for v in first] == [(886, 2)]
    assert first[0].report.violation_witness == (492, 493)
    second = search_cop_violations(params)
    assert json.dumps(serialize_instance(first[0].instance)) == \
        json.dumps(serialize_instance(second[0].instance))
