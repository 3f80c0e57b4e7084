import dataclasses
import math
import re
import textwrap
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (FIXTURE_GRIDS, certifying_floor, instance_path,
                      run_fresh, seasonal_instance, small_random_instance)
from oracle import (brute_policy_cost, exact_policy_cost, gap_with_estimates,
                    periodwise_orders, rebuild_order_quantity, simulate_policy)
from stochinv import (DEFAULT_GRID, Grid, GridSpanError, Instance, SimulationError,
                      ThresholdPolicy, build_design, expected_cost, load_instance,
                      modified_ss_from_tables, optimality_gap, pmf_empirical,
                      pmf_parametric, solve)
from stochinv.simulate import MIN_REPS, SimulationConfig, _percent_gap


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
        tables = seasonal_tables[65]
        gap = optimality_gap(tables, modified_ss_from_tables(tables), 0)
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
        exact = optimality_gap(tables, heuristic, 0)
        assert 100.0 * (h_lo / o_hi - 1.0) <= exact <= 100.0 * (h_hi / o_lo - 1.0)

    def test_mismatched_tables_are_rejected(self, seasonal_tables):
        # tables whose first C row no longer holds the value that their own
        # orders cost: the price carries no instance of its own to differ
        # from them, so the check is against the tables alone
        solved = seasonal_tables[65]
        tables = dataclasses.replace(solved, C=(solved.C[0] * 1.1, *solved.C[1:]))
        heuristic = modified_ss_from_tables(solved)
        assert modified_ss_from_tables(tables) == heuristic
        with pytest.raises(SimulationError):
            optimality_gap(tables, heuristic, 0)
        config = SimulationConfig(base_seed=7, target_rel_error=1e-3)
        with pytest.raises(SimulationError):
            gap_with_estimates(tables.instance, tables, heuristic, 0, config)


class TestNegativeOrders:
    def test_a_read_below_a_certified_row_is_refused(self):
        # period 1 is solved from exact_from(1) = -7 up, on tables that
        # start at the lowest R_t, -11: its row holds no order below -7
        instance = deterministic_instance()
        tables = solve(instance)
        grid = tables.grid
        assert tables.exact_from(1) == -7 and grid == Grid(-11, 20)
        cost = expected_cost(instance, grid, tables.Qstar, -7)
        assert cost == pytest.approx(tables.cost_at(1, -7))
        for x0 in (-8, -11, -30):
            with pytest.raises(ValueError, match=(
                    rf"^period 1 reads the state {x0}, below its row of "
                    r"orders, which starts at -7$")):
                expected_cost(instance, grid, tables.Qstar, x0)


class TestStartState:
    @pytest.mark.parametrize("x0", [True, np.bool_(False), 0.5, 1e300,
                                    np.float64(0.0), "0"])
    def test_a_start_that_is_not_an_integer_is_refused(self, x0):
        # True would price from state 1, 0.5 and 1e300 would fail on a
        # slice index, each with no word about the start
        instance = deterministic_instance(2)
        tables = solve(instance)
        heuristic = modified_ss_from_tables(tables)
        message = rf"^state {re.escape(repr(x0))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            expected_cost(instance, tables.grid, tables.Qstar, x0)
        with pytest.raises(ValueError, match=message):
            optimality_gap(tables, heuristic, x0)
        # an integer of numpy's prices as the int does
        assert expected_cost(instance, tables.grid, tables.Qstar,
                             np.int64(1)) == \
            expected_cost(instance, tables.grid, tables.Qstar, 1)


class TestMismatchedGrid:
    def test_an_order_table_of_another_grid_is_refused(self):
        # the first Poisson bed point's whole rows on a grid that certifies
        # its cone, priced on a grid 50 states wider each side, would read
        # each state's order 50 columns off and cost 6511.07
        instance = build_design(("poisson",))[0].instance
        grid = Grid(certifying_floor(instance), instance.top)
        assert grid == Grid(-1317, 560)
        tables = solve(instance, grid)
        assert expected_cost(instance, grid, tables.Qstar, 0) == \
            pytest.approx(4184.898467226087, abs=1e-9)
        wider = Grid(grid.x_min - 50, grid.x_max + 50)
        with pytest.raises(ValueError, match=(
                r"^an order table of shape \(20, 1878\) does not fit 20 "
                r"periods on the grid \[-1367, 610\] of 1978 states$")):
            expected_cost(instance, wider, tables.Qstar, 0)
        # the certified tables' order rows fit their own grid alone
        certified = solve(instance)
        with pytest.raises(ValueError, match="does not fit"):
            expected_cost(instance, grid, certified.Qstar, 0)
        assert expected_cost(instance, certified.grid, certified.Qstar, 0) == \
            pytest.approx(4184.898467226087, abs=1e-9)
        # a table of the grid's own width, as ThresholdPolicy.orders makes
        with pytest.raises(ValueError, match=(
                r"^an order table of shape \(20, 1878\) does not fit 20 "
                r"periods on the grid \[-1367, 610\] of 1978 states$")):
            expected_cost(instance, wider, np.stack(tables.Qstar), 0)

    def test_rows_from_zero_fit_a_grid_from_minus_one(self):
        # one period, R_1 = 0: the certified grid keeps -1 below its rows
        instance = Instance(horizon=1, K=1.0, v=0.0, h=1.0, p=1.0, B=2,
                            demands=(pmf_empirical([5], [1.0]),))
        tables = solve(instance)
        assert tables.grid == Grid(-1, 5) and tables.Qstar[0].size == 6
        assert expected_cost(instance, tables.grid, tables.Qstar, 0) == \
            pytest.approx(tables.cost_at(1, 0))
        with pytest.raises(ValueError, match="does not fit"):
            expected_cost(instance, Grid(-2, 5), tables.Qstar, 0)


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
        assert optimality_gap(tables, heuristic, 0) == 0.0
        config = SimulationConfig(base_seed=1)
        gap, opt, heur = gap_with_estimates(instance, tables, heuristic, 0, config)
        assert (gap, opt.mean_cost, heur.mean_cost) == (0.0, 0.0, 0.0)

    def test_costly_policy_against_zero_optimum(self, no_demand):
        instance, tables = no_demand
        ordering = ThresholdPolicy((((0, 5),), ()))
        assert optimality_gap(tables, ordering, 0) == math.inf
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
                return int(table[period - 1][min(max(x, grid.x_min), grid.x_max)
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

    def test_price_does_not_depend_on_the_blas_thread_count(self):
        """A geometric demand of mean 1,000 has 20,734 masses and spreads the
        inventory over 41,467 states by the last period, where one BLAS dot
        product would be summed in several threads: the price has the same
        bits at 1 and 2 threads, and is the closed form's to rounding. So
        does a forward step whose dots are 12,000 terms long."""
        code = textwrap.dedent("""
            import hashlib
            import numpy as np
            from stochinv import Grid, Instance, expected_cost, pmf_parametric
            from stochinv.simulate import _spread
            pmf = pmf_parametric("geometric", 1000, None)
            instance = Instance(horizon=3, K=100.0, v=1.0, h=1.0, p=10.0,
                                B=500, demands=(pmf,) * 3)
            orders = np.zeros((3, 3), dtype=np.int64)
            print(expected_cost(instance, Grid(-1, 1), orders, 0).hex())
            rng = np.random.default_rng(7)
            step = _spread(rng.random(12_000), rng.random(12_000))
            print(step.size, hashlib.sha256(step.tobytes()).hexdigest())
        """)
        one, two = (run_fresh(code, OPENBLAS_NUM_THREADS=threads)
                    for threads in ("1", "2"))
        assert one == two
        # nothing is ordered, so period t's post-order level is minus the
        # earlier demands, where the loss is p (mu - y): 10 mu (1 + 2 + 3)
        mean = pmf_parametric("geometric", 1000, None).mean
        price = float.fromhex(one.split()[0])
        assert price == pytest.approx(60 * mean, rel=1e-13)


class PricedTables(NamedTuple):
    """What optimality_gap reads of ValueTables: the grid, the optimal
    order table, the instance and the solved value at (1, x0), here the
    table's own price, so that any table passes the optimal check from
    any start, on or off the grid."""

    grid: Grid
    Qstar: np.ndarray
    value: float
    instance: Instance

    def cost_at(self, period, x):
        return self.value


@st.composite
def bands_on(draw, lo, hi):
    """One period's (s_k, S_k) pairs, s and S strictly rising, s_k < S_k,
    with thresholds from below lo to above hi; often none."""
    s_values = sorted(draw(st.sets(st.integers(lo - 8, hi + 8), max_size=3)))
    pairs, level = [], -math.inf
    for s in s_values:
        level = max(s + draw(st.integers(1, 12)), level + 1)
        pairs.append((s, level))
    return tuple(pairs)


@st.composite
def priced_instances(draw):
    """A small instance, a grid and a threshold policy on it. B is finite,
    inf or held as a float, and the discount may lie below 1."""
    horizon = draw(st.integers(1, 4))
    demands = []
    for _ in range(horizon):
        values = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3,
                               unique=True))
        masses = draw(st.lists(st.floats(0.05, 1.0), min_size=len(values),
                               max_size=len(values)))
        demands.append(pmf_empirical(values, np.array(masses) / sum(masses)))
    instance = Instance(
        horizon=horizon, K=draw(st.floats(0.0, 30.0)), v=draw(st.floats(0.0, 3.0)),
        h=draw(st.floats(0.1, 2.0)), p=draw(st.floats(0.1, 12.0)),
        B=draw(st.one_of(st.integers(1, 8), st.integers(1, 8).map(float),
                         st.just(math.inf))),
        demands=tuple(demands), discount=draw(st.sampled_from([1.0, 0.9, 0.5])))
    grid = Grid(-draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    policy = ThresholdPolicy(tuple(draw(bands_on(grid.x_min, grid.x_max))
                                   for _ in range(horizon)))
    return instance, grid, policy


class TestOnePassPricesBothPolicies:
    """optimality_gap prices the optimal table and the threshold policy in
    one pass that forks where their orders first differ; each price must
    be that of its own expected_cost bit for bit. The optimal table is the
    policy's own table with a fork planted in one period: in every state
    of period 1 or of the last period, in none of the states period 1
    reads, or in some states of some period, which the pass may or may
    not read."""

    @pytest.mark.parametrize("fork", ["first", "last", "never", "some"])
    @given(case=priced_instances(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_gap_is_that_of_two_separate_prices(self, fork, case, data):
        instance, grid, policy = case
        # starts off the grid read the clipped edge columns
        x0 = data.draw(st.integers(grid.x_min - 15, grid.x_max + 15))
        orders = policy.orders(grid, instance.B)
        qstar = orders.copy()
        if fork == "never":
            # period 1 reads x0's column alone: differ everywhere else
            read = min(max(x0, grid.x_min), grid.x_max) - grid.x_min
            qstar[0, np.arange(grid.size) != read] += 1
        elif fork == "some":
            period = data.draw(st.integers(0, instance.horizon - 1))
            cols = data.draw(st.lists(st.integers(0, grid.size - 1), min_size=1))
            qstar[period, cols] += 1
        else:
            qstar[0 if fork == "first" else -1] += 1
        opt = expected_cost(instance, grid, qstar, x0)
        heur = expected_cost(instance, grid, orders, x0)
        gap = optimality_gap(PricedTables(grid, qstar, opt, instance),
                             policy, x0)
        assert gap.hex() == _percent_gap(heur, opt).hex()
        if fork == "never":
            assert gap == 0.0

    @given(case=priced_instances(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_negative_order_after_the_fork_is_refused(self, case, data):
        instance, grid, policy = case
        horizon = instance.horizon
        assume(horizon > 1)
        fork = data.draw(st.integers(1, horizon - 1))
        negative = data.draw(st.integers(fork + 1, horizon))
        x0 = data.draw(st.integers(grid.x_min - 15, grid.x_max + 15))
        qstar = policy.orders(grid, instance.B)
        qstar[fork - 1] += 1
        qstar[negative - 1] = -1
        with pytest.raises(ValueError) as alone:
            expected_cost(instance, grid, qstar, x0)
        assert str(alone.value).startswith(f"period {negative} reads the "
                                           "negative order -1: ")
        with pytest.raises(ValueError) as joint:
            optimality_gap(PricedTables(grid, qstar, 0.0, instance), policy, x0)
        assert str(joint.value) == str(alone.value)


class TestExactPrice:
    """expected_cost against the exact rational price (exact_policy_cost):
    within ULPS n eps of the largest term the price sums, an order's
    K + v q at a state the distribution reaches or the holding and
    shortage cost l(x') = h x'+ + p x'- at a level it reaches, over the
    n periods. Measured: at most 0.9 of it."""

    ULPS = 4

    @given(case=priced_instances(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_price_is_exact_to_a_few_ulps(self, case, data):
        instance, grid, policy = case
        x0 = data.draw(st.integers(grid.x_min - 15, grid.x_max + 15))
        orders = policy.orders(grid, instance.B)

        def rule(period, x):
            return int(orders[period - 1].take(x - grid.x_min, mode="clip"))

        got = expected_cost(instance, grid, orders, x0)
        exact = exact_policy_cost(instance, rule)(1, x0)
        largest, states = 0.0, {x0}
        for period, pmf in enumerate(instance.demands, start=1):
            levels = set()
            for x in states:
                q = rule(period, x)
                if q:
                    largest = max(largest, instance.K + instance.v * q)
                levels.update(x + q - d for d in pmf.support)
            largest = max([largest] + [max(instance.h * x, -instance.p * x)
                                       for x in levels])
            states = levels
        bound = self.ULPS * instance.horizon * np.finfo(float).eps * largest
        assert abs(Fraction(got) - exact) <= Fraction(bound)


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


class Span(NamedTuple):
    """The parts of Grid that ThresholdPolicy.orders reads, for spans Grid
    refuses, such as a single state."""

    x_min: int
    x_max: int

    @property
    def size(self):
        return self.x_max - self.x_min + 1

    @property
    def states(self):
        return np.arange(self.x_min, self.x_max + 1)


class TestOrderTable:
    """The one-step order table against the period-by-period reference."""

    @given(data=st.data(),
           grid=st.one_of(
               st.builds(Grid, st.integers(-12, -1), st.integers(1, 12)),
               st.builds(lambda x: Span(x, x), st.integers(-5, 5))),
           B=st.one_of(st.integers(1, 20), st.integers(1, 20).map(float),
                       st.just(math.inf)),
           horizon=st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_periodwise_table(self, data, grid, B, horizon):
        # bands reach from wholly below x_min to above x_max; many periods
        # have none
        policy = ThresholdPolicy(tuple(data.draw(bands_on(grid.x_min, grid.x_max))
                                       for _ in range(horizon)))
        table = policy.orders(grid, B)
        want = periodwise_orders(policy, grid, B)
        assert table.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(table, want)

    @pytest.mark.parametrize("B", [4, 9.0, math.inf])
    def test_edge_bands(self, B):
        grid = Grid(-5, 5)
        policy = ThresholdPolicy((
            ((-9, -7),),            # wholly below x_min: orders nothing
            ((-9, -6), (7, 12)),    # s above x_max: every state orders
            (),
            ((-3, 1), (2, 8)),
        ))
        table = policy.orders(grid, B)
        np.testing.assert_array_equal(table, periodwise_orders(policy, grid, B))
        assert not table[0].any() and not table[2].any()
        assert (table[1] > 0).all()


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
