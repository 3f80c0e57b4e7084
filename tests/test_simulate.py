import math

import numpy as np
import pytest

from conftest import (FIXTURE_GRIDS, instance_path, seasonal_instance,
                      small_random_instance)
from oracle import (brute_policy_cost, gap_with_estimates, rebuild_order_quantity,
                    simulate_policy)
from stochinv import (DEFAULT_GRID, Grid, GridSpanError, Instance, SimulationError,
                      ThresholdPolicy, expected_cost, load_instance,
                      modified_ss_from_tables, optimality_gap, pmf_empirical, solve)
from stochinv.simulate import MIN_REPS, SimulationConfig


def deterministic_instance(horizon=4):
    return Instance(
        horizon=horizon,
        K=30.0,
        v=1.0,
        h=1.0,
        p=9.0,
        B=12,
        demands=(pmf_empirical([5], [1.0]),) * horizon,
    )


class TestDeterministicDemand:
    def test_mean_matches_value_function_exactly(self):
        instance = deterministic_instance()
        tables = solve(instance, Grid(-40, 60))
        config = SimulationConfig(base_seed=11)
        est = simulate_policy(instance, tables.grid, tables.Qstar, 0, config)
        assert est.mean_cost == pytest.approx(tables.cost_at(1, 0), abs=1e-9)
        assert est.half_width == 0.0
        assert est.converged
        assert est.reps == 10_000

    def test_discounting_applies_to_later_periods(self):
        # capacity forces an order every period, so each period costs K + 5v
        def build(discount):
            return Instance(
                horizon=2,
                K=30.0,
                v=1.0,
                h=1.0,
                p=9.0,
                B=5,
                demands=(pmf_empirical([5], [1.0]),) * 2,
                discount=discount,
            )

        grid = Grid(-40, 60)
        config = SimulationConfig(base_seed=11)
        results = {}
        for discount in (1.0, 0.5):
            instance = build(discount)
            tables = solve(instance, grid)
            est = simulate_policy(instance, tables.grid, tables.Qstar, 0, config)
            assert est.mean_cost == pytest.approx(tables.cost_at(1, 0), abs=1e-9)
            results[discount] = est.mean_cost
            exact = expected_cost(instance, grid, tables.Qstar, 0)
            assert exact == {1.0: 70.0, 0.5: 52.5}[discount]
        assert results[1.0] == pytest.approx(70.0)
        assert results[0.5] == pytest.approx(52.5)


class TestCommonRandomNumbers:
    def test_same_seed_is_reproducible(self, seasonal_tables):
        instance = seasonal_instance(65)
        tables = seasonal_tables[65]
        config = SimulationConfig(
            base_seed=99, target_rel_error=5e-3, max_reps=200_000
        )
        a = simulate_policy(instance, tables.grid, tables.Qstar, 0, config)
        b = simulate_policy(instance, tables.grid, tables.Qstar, 0, config)
        assert a.mean_cost == b.mean_cost
        assert a.half_width == b.half_width
        assert a.reps == b.reps

    def test_seed_changes_the_estimate(self, seasonal_tables):
        instance = seasonal_instance(65)
        tables = seasonal_tables[65]
        kwargs = dict(target_rel_error=5e-3, max_reps=200_000)
        a = simulate_policy(
            instance, tables.grid, tables.Qstar, 0,
            SimulationConfig(base_seed=1, **kwargs)
        )
        b = simulate_policy(
            instance, tables.grid, tables.Qstar, 0,
            SimulationConfig(base_seed=2, **kwargs)
        )
        assert a.mean_cost != b.mean_cost


class TestOptimalityGap:
    def test_seasonal_gap_is_small_and_nonnegative(self, seasonal_tables):
        instance = seasonal_instance(65)
        tables = seasonal_tables[65]
        gap = optimality_gap(instance, tables, modified_ss_from_tables(tables), 0)
        assert -0.05 < gap < 5.0

    def test_gap_with_estimates_agrees(self, seasonal_tables):
        instance = seasonal_instance(65)
        tables = seasonal_tables[65]
        config = SimulationConfig(base_seed=7, target_rel_error=1e-3)
        heuristic = modified_ss_from_tables(tables)
        gap, opt, heur = gap_with_estimates(instance, tables, heuristic, 0, config)
        assert gap == pytest.approx(
            100.0 * (heur.mean_cost - opt.mean_cost) / opt.mean_cost
        )
        # each true cost lies within three half-widths of its estimate, so
        # the exact gap lies between the extreme ratios of those intervals
        h_lo = heur.mean_cost - 3.0 * heur.half_width
        h_hi = heur.mean_cost + 3.0 * heur.half_width
        o_lo = opt.mean_cost - 3.0 * opt.half_width
        o_hi = opt.mean_cost + 3.0 * opt.half_width
        exact = optimality_gap(instance, tables, heuristic, 0)
        assert 100.0 * (h_lo / o_hi - 1.0) <= exact <= 100.0 * (h_hi / o_lo - 1.0)

    def test_mismatched_tables_are_rejected(self, seasonal_tables):
        instance = seasonal_instance(65)
        wrong = Instance(
            horizon=instance.horizon,
            K=instance.K,
            v=instance.v,
            h=instance.h,
            p=instance.p * 4,
            B=instance.B,
            demands=instance.demands,
        )
        tables = solve(wrong, Grid(-300, 600))
        with pytest.raises(SimulationError):
            optimality_gap(instance, tables, modified_ss_from_tables(tables), 0)
        config = SimulationConfig(base_seed=7, target_rel_error=1e-3)
        with pytest.raises(SimulationError):
            gap_with_estimates(instance, tables, modified_ss_from_tables(tables),
                               0, config)


class TestNegativeOrders:
    def test_the_fill_of_certified_only_tables_is_refused(self):
        # period 1 is solved from exact_from(1) = -5 up, and an x0 below
        # that reads its -1 fill
        instance = deterministic_instance()
        grid = Grid(-20, 20)
        tables = solve(instance, grid, certified_only=True)
        assert tables.solved_from(1) == -5
        cost = expected_cost(instance, grid, tables.Qstar, -5)
        assert cost == pytest.approx(tables.cost_at(1, -5))
        with pytest.raises(ValueError,
                           match=r"^period 1 reads the negative order -1: "):
            expected_cost(instance, grid, tables.Qstar, -6)


class TestZeroCostGap:
    """A gap against a zero optimum: 0 when the policy costs nothing too,
    inf when it does not."""

    @pytest.fixture(scope="class")
    def no_demand(self):
        instance = Instance(horizon=2, K=10.0, v=1.0, h=1.0, p=5.0, B=8,
                            demands=(pmf_empirical([0], [1.0]),) * 2)
        return instance, solve(instance, Grid(-20, 20))

    def test_equal_zero_costs(self, no_demand):
        instance, tables = no_demand
        assert tables.cost_at(1, 0) == 0.0
        heuristic = modified_ss_from_tables(tables)
        assert optimality_gap(instance, tables, heuristic, 0) == 0.0
        config = SimulationConfig(base_seed=1)
        gap, opt, heur = gap_with_estimates(instance, tables, heuristic, 0, config)
        assert (gap, opt.mean_cost, heur.mean_cost) == (0.0, 0.0, 0.0)

    def test_costly_policy_against_zero_optimum(self, no_demand):
        instance, tables = no_demand
        ordering = ThresholdPolicy((((0, 5),), ()))
        assert optimality_gap(instance, tables, ordering, 0) == math.inf
        config = SimulationConfig(base_seed=1)
        gap, opt, heur = gap_with_estimates(instance, tables, ordering, 0, config)
        assert opt.mean_cost == 0.0 and heur.mean_cost > 0.0
        assert gap == math.inf


class TestExpectedCost:
    def test_matches_oracle_and_value_table(self):
        rng = np.random.default_rng(20210819)
        grid = Grid(-40, 60)
        for _ in range(50):
            instance = small_random_instance(rng)
            tables = solve(instance, grid)
            heuristic = modified_ss_from_tables(tables).orders(grid, instance.B)

            def table_rule(period, x, table=tables.Qstar):
                return int(table[period - 1, min(max(x, grid.x_min), grid.x_max)
                                 - grid.x_min])

            brute = brute_policy_cost(instance, table_rule)
            for x in range(tables.exact_from(1), grid.x_max + 1):
                exact = expected_cost(instance, grid, tables.Qstar, x)
                assert exact == pytest.approx(brute(1, x), abs=1e-9)
                assert exact == pytest.approx(tables.cost_at(1, x), abs=1e-9)
                assert expected_cost(instance, grid, heuristic, x) >= \
                    tables.cost_at(1, x) - 1e-9

    @pytest.mark.parametrize("case", ["seasonal", "lumpy"])
    def test_simulation_brackets_exact_cost(self, case, seasonal_tables,
                                           lumpy_instance, lumpy_tables):
        if case == "seasonal":
            instance, tables = seasonal_instance(65), seasonal_tables[65]
        else:
            instance, tables = lumpy_instance, lumpy_tables
        config = SimulationConfig(base_seed=7, target_rel_error=1e-3)
        grid = tables.grid
        heuristic = modified_ss_from_tables(tables).orders(grid, instance.B)
        for orders in (tables.Qstar, heuristic):
            est = simulate_policy(instance, grid, orders, 0, config)
            assert est.converged
            exact = expected_cost(instance, grid, orders, 0)
            assert abs(est.mean_cost - exact) <= 3.0 * est.half_width

    @pytest.mark.parametrize("name", sorted(FIXTURE_GRIDS))
    def test_fixture_costs_lie_within_monte_carlo_half_widths(self, name):
        instance = load_instance(instance_path(name))
        tables = solve(instance, FIXTURE_GRIDS[name])
        try:
            heuristic = modified_ss_from_tables(tables)
        except GridSpanError:   # a test grid too narrow to read bands on
            tables = solve(instance, DEFAULT_GRID)
            heuristic = modified_ss_from_tables(tables)
        config = SimulationConfig(base_seed=4, target_rel_error=1e-3)
        grid = tables.grid
        for orders in (tables.Qstar, heuristic.orders(grid, instance.B)):
            est = simulate_policy(instance, grid, orders, 0, config)
            assert est.converged
            exact = expected_cost(instance, grid, orders, 0)
            assert abs(est.mean_cost - exact) <= est.half_width


class TestBudget:
    def test_unconverged_run_reports_it(self, seasonal_tables):
        instance = seasonal_instance(65)
        tables = seasonal_tables[65]
        config = SimulationConfig(base_seed=5, target_rel_error=1e-9, max_reps=1000)
        est = simulate_policy(instance, tables.grid, tables.Qstar, 0, config)
        assert not est.converged
        assert est.reps == 1000


def assert_rule_on_grid(policy, grid, B):
    """Every cell of the order table equals the reference band rule."""
    table = policy.orders(grid, B)
    assert table.shape == (len(policy.bands), grid.size)
    for row, pairs in zip(table, policy.bands):
        want = [rebuild_order_quantity(pairs, B, x) for x in grid.states.tolist()]
        np.testing.assert_array_equal(row, want)


class TestPolicyFunctions:
    def test_modified_ss_policy_matches_scalar_rule(self, seasonal_tables):
        for B in (65, math.inf):
            tables = seasonal_tables[B]
            assert_rule_on_grid(modified_ss_from_tables(tables), tables.grid, B)

    def test_idle_period_orders_nothing(self):
        policy = ThresholdPolicy(((),))
        for B in (10, math.inf):
            table = policy.orders(Grid(-5, 4), B)
            np.testing.assert_array_equal(table, np.zeros((1, 10), int))

    def test_table_policy_clips_below_grid(self):
        # one deterministic period: order 7 at the lowest state, 3 at the
        # highest, so the cost shows which column an off-grid state read
        instance = deterministic_instance(horizon=1)
        grid = Grid(-40, 60)
        orders = np.zeros((1, grid.size), dtype=np.int64)
        orders[0, 0], orders[0, -1] = 7, 3
        config = SimulationConfig(base_seed=11)
        below = simulate_policy(instance, grid, orders, -1000, config)
        assert below.mean_cost == 30.0 + 7 + 9.0 * (1000 - 7 + 5)
        above = simulate_policy(instance, grid, orders, 1000, config)
        assert above.mean_cost == 30.0 + 3 + 1.0 * (1000 + 3 - 5)
        assert expected_cost(instance, grid, orders, -1000) == below.mean_cost
        assert expected_cost(instance, grid, orders, 1000) == above.mean_cost


class TestConfigValidation:
    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            SimulationConfig(base_seed=0, confidence=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(base_seed=0, confidence=0.0)

    def test_seed_nonnegative(self):
        SimulationConfig(base_seed=0)
        with pytest.raises(ValueError, match="base_seed must be nonnegative"):
            SimulationConfig(base_seed=-1)

    def test_relative_error_positive(self):
        with pytest.raises(ValueError):
            SimulationConfig(base_seed=0, target_rel_error=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(base_seed=0, target_rel_error=math.nan)

    def test_min_not_above_max(self):
        SimulationConfig(base_seed=0, max_reps=MIN_REPS)
        with pytest.raises(ValueError, match="max_reps must be at least 1000"):
            SimulationConfig(base_seed=0, max_reps=999)

    def test_unbounded_capacity_policy(self):
        policy = ThresholdPolicy((((3, 20),),))
        grid = Grid(-40, 40)
        table = policy.orders(grid, math.inf)
        np.testing.assert_array_equal(
            table[0, [grid.index(-30), grid.index(3), grid.index(4)]],
            np.array([50, 17, 0])
        )
        assert_rule_on_grid(policy, grid, math.inf)
