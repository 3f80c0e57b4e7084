import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import VOLATILE_CERTIFIED_GRID, instance_path
from oracle import rebuild_order_quantity, threshold_pairs_by_run
from stochinv import (CexSearchParams, Grid, GridSpanError, ThresholdPolicy,
                      check_cop, load_instance, modified_ss_from_tables,
                      random_instance, read_policy, search_grid, solve)

TOP_PAIRS = {
    35: ((46, 81), (64, 99), (61, 96), (28, 49)),
    65: ((14, 70), (35, 100), (55, 109), (28, 49)),
    71: ((13, 84), (34, 105), (55, 109), (28, 49)),
    math.inf: ((15, 67), (28, 49), (55, 109), (28, 49)),
}


class TestTopPairSelection:
    @pytest.mark.parametrize("B", sorted(TOP_PAIRS, key=str))
    def test_seasonal(self, seasonal_tables, B):
        policy = modified_ss_from_tables(seasonal_tables[B])
        assert policy.bands == tuple((pair,) for pair in TOP_PAIRS[B])
        assert policy.cop_violated == ()

    def test_discounted_lumpy(self, lumpy_tables):
        policy = modified_ss_from_tables(lumpy_tables)
        assert policy.bands[0] == ((5, 12),)
        assert policy.cop_violated == ()


def run_by_run_bands(tables, period):
    """The pairs of a period whose ordering states run from exact_from up to
    a top state s_m, walked by the run-by-run oracle."""
    floor = tables.exact_from(period)
    q = tables.Qstar[tables.row(period)][tables.column(period, floor):]
    ordering = np.flatnonzero(q > 0)
    if ordering.size == 0:
        return ()
    top = int(ordering[-1])
    xs = list(range(floor, floor + top + 1))
    return tuple(threshold_pairs_by_run(xs, q[:top + 1].tolist(),
                                        tables.instance.B, xs[-1]))


class TestFallbackOnViolation:
    def test_spiky_first_period(self, spiky_tables):
        policy = modified_ss_from_tables(spiky_tables)
        assert policy.cop_violated == (1,)
        # the topmost ordering run wins: its highest state and its target
        assert policy.bands[0] == ((618, 618 + 41),)
        for period in (2, 3, 4):
            assert policy.bands[period - 1] == \
                run_by_run_bands(spiky_tables, period)[-1:]


RULE_GRID = Grid(-200, 200)


def rule_orders(s, S, B):
    """One period's order row on RULE_GRID, keyed by state."""
    row = ThresholdPolicy((((s, S),),)).orders(RULE_GRID, B)[0]
    return dict(zip(RULE_GRID.states.tolist(), row.tolist()))


class TestApplyRule:
    def test_orders_at_the_reorder_point(self):
        assert rule_orders(5, 20, 100)[5] == 15

    def test_idle_just_above(self):
        assert rule_orders(5, 20, 100)[6] == 0

    def test_capacity_saturates(self):
        assert rule_orders(5, 20, 40)[-30] == 40

    def test_unbounded_capacity(self):
        assert rule_orders(5, 20, math.inf)[-30] == 50

    @given(
        s=st.integers(-50, 50),
        gap=st.integers(1, 80),
        B=st.one_of(st.integers(1, 100), st.just(math.inf)),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, s, gap, B):
        S = s + gap
        for x, q in rule_orders(s, S, B).items():
            assert q == rebuild_order_quantity(((s, S),), B, x)
            assert 0 <= q <= B
            assert (q == 0) == (x > s)
            if q:
                assert x + q <= S

    def test_table_shape_and_type(self):
        policy = ThresholdPolicy((((1, 5),), (), ((3, 9),)))
        table = policy.orders(RULE_GRID, 4)
        assert table.shape == (3, RULE_GRID.size)
        assert table.dtype == np.int64
        assert not table[1].any()


def screened_tables():
    """Solved tables of the four instance files and 200 search draws.

    The draws are the first 199 of the search at seed 3 plus its index 886,
    whose second period is the search's known order-property violation.
    """
    for name, grid in (("seasonal_poisson", Grid(-300, 600)),
                       ("spiky_nonstationary", Grid(-1000, 1100)),
                       ("lumpy_discounted", Grid(-200, 400)),
                       ("volatile_poisson", VOLATILE_CERTIFIED_GRID)):
        yield solve(load_instance(instance_path(name + ".json")), grid)
    params = CexSearchParams(seed=3, budget=887)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
    for index in range(params.budget):
        instance = random_instance(params, rng)
        if index < 199 or index == 886:
            yield solve(instance, search_grid(instance))


@pytest.fixture(scope="module")
def all_tables():
    return list(screened_tables())


class TestTopPairFromScreen:
    """The heuristic's pair is the reference's top pair, or the top ordering run."""

    def test_matches_run_by_run_reference(self, all_tables):
        violations = 0
        for tables in all_tables:
            policy = modified_ss_from_tables(tables)
            for period in range(1, tables.instance.horizon + 1):
                floor = tables.exact_from(period)
                report = check_cop(tables, period, floor)
                bands = policy.bands[period - 1]
                if report.holds:
                    assert bands == run_by_run_bands(tables, period)[-1:]
                    assert period not in policy.cop_violated
                else:
                    violations += 1
                    assert bands[0][0] == report.ordering_set[-1][1]
                    assert period in policy.cop_violated
        assert violations >= 2


class TestReadPolicy:
    """The modified multi-(s, S) policy, read with one screen a period."""

    def test_orders_rebuild_qstar_where_the_property_holds(self, all_tables):
        checked = 0
        for tables in all_tables:
            policy = read_policy(tables)
            orders = policy.orders(tables.grid, tables.instance.B)
            for period in range(1, tables.instance.horizon + 1):
                if period in policy.cop_violated:
                    continue
                floor = tables.exact_from(period)
                assert np.array_equal(
                    orders[period - 1, tables.grid.index(floor):],
                    tables.Qstar[tables.row(period)][tables.column(period, floor):])
                checked += 1
        assert checked >= 400

    def test_bands_match_run_by_run_reference(self, all_tables):
        checked = 0
        for tables in all_tables:
            policy = read_policy(tables)
            for period in range(1, tables.instance.horizon + 1):
                if period not in policy.cop_violated:
                    assert policy.bands[period - 1] == \
                        run_by_run_bands(tables, period)
                    checked += 1
        assert checked >= 400

    def test_uncertified_period_is_a_grid_error(self, volatile_tables):
        # on Grid(-1200, 600) period 1 orders up to x = 164, all below
        # exact_from(1) = 425, so no band of it can be certified
        assert volatile_tables.exact_from(1) == 425
        assert volatile_tables.qstar_at(1, 164) > 0
        with pytest.raises(GridSpanError,
                           match=r"^period 1 orders only below .* 425;"):
            read_policy(volatile_tables)
        with pytest.raises(GridSpanError):
            modified_ss_from_tables(volatile_tables)

    def test_certified_grid_reads_every_volatile_period(
            self, volatile_tables, volatile_certified_tables):
        policy = read_policy(volatile_certified_tables)
        assert policy.cop_violated == ()
        assert policy.bands[:2] == (((161, 268), (164, 292)), ((147, 246),))
        # the narrow grid already certifies periods 3-12
        for period in range(3, 13):
            assert policy.bands[period - 1] == \
                run_by_run_bands(volatile_tables, period)

    def test_violated_period_keeps_one_band(self, spiky_tables):
        policy = read_policy(spiky_tables)
        assert policy.cop_violated == (1,)
        assert policy.bands[0] == ((618, 618 + 41),)


class TestPolicyValidation:
    def test_reorder_below_target(self):
        with pytest.raises(ValueError):
            ThresholdPolicy((((7, 7),),))

    def test_valid_policy_with_idle_period(self):
        policy = ThresholdPolicy((((1, 5),), ()))
        assert policy.bands[1] == ()
        assert policy.top() == policy
