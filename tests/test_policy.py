import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from oracle import (rebuild_order_quantity, split_state_runs,
                    threshold_pairs_by_run)
from stochinv import (Grid, GridSpanError, Instance, MalformedTable, ThresholdPolicy,
                      check_cop, pmf_empirical, qce_diagnostics, read_policy,
                      thresholds_csv, verify_kb_convexity)
from stochinv.policy import _state_runs

SEASONAL_PAIRS = {
    (35, 1): ((39, 68), (46, 81)),
    (35, 2): ((64, 99),),
    (35, 3): ((61, 96),),
    (35, 4): ((28, 49),),
    (65, 1): ((-11, 31), (14, 70)),
    (65, 2): ((-5, 51), (28, 82), (35, 100)),
    (65, 3): ((18, 71), (55, 109)),
    (65, 4): ((28, 49),),
    (71, 1): ((-16, 27), (7, 71), (13, 84)),
    (71, 2): ((27, 76), (34, 105)),
    (71, 3): ((12, 71), (55, 109)),
    (71, 4): ((28, 49),),
    (math.inf, 1): ((15, 67),),
    (math.inf, 2): ((28, 49),),
    (math.inf, 3): ((55, 109),),
    (math.inf, 4): ((28, 49),),
}


class TestThresholdExtractionSeasonal:
    @pytest.mark.parametrize("B,period", sorted(SEASONAL_PAIRS, key=str))
    def test_pairs(self, seasonal_tables, B, period):
        policy = read_policy(seasonal_tables[B])
        assert policy.bands[period - 1] == SEASONAL_PAIRS[(B, period)]
        assert policy.cop_violated == ()

    def test_uncapacitated_always_single_pair(self, seasonal_tables):
        for pairs in read_policy(seasonal_tables[math.inf]).bands:
            assert len(pairs) == 1


class TestThresholdExtractionDiscountedLumpy:
    def test_first_period_pairs(self, lumpy_tables):
        pairs = read_policy(lumpy_tables).bands[0]
        assert pairs == ((-1, 6), (2, 9), (5, 12))
        assert pairs[-1][0] == 5

    def test_band_depth_within_capacity(self, lumpy_tables):
        for s_k, big_k in read_policy(lumpy_tables).bands[0]:
            assert big_k - 9 <= s_k < big_k


class TestOrderPropertyCheck:
    def test_detached_island_is_flagged(self, spiky_tables):
        report = check_cop(spiky_tables, 1)
        assert not report.holds
        assert report.violation_witness == (615, 616)
        assert report.ordering_set[-1] == (616, 618)
        assert report.ordering_set[0][0] == spiky_tables.grid.x_min
        assert "continuous order property" in report.describe()

    def test_later_periods_hold(self, spiky_tables):
        for period in (2, 3, 4):
            assert check_cop(spiky_tables, period).holds

    def test_extraction_refuses_violated_period(self, spiky_tables):
        # the period is flagged, and its stand-in band is no threshold row
        policy = read_policy(spiky_tables)
        assert policy.cop_violated == (1,)
        rows = thresholds_csv(policy).splitlines()[1:]
        assert rows and not any(row.startswith("1,") for row in rows)
        report = check_cop(spiky_tables, 1, spiky_tables.exact_from(1))
        assert report.violation_witness == (615, 616)

    def test_floor_parameter_moves_the_anchor(self, spiky_tables):
        # screening from inside the gap still sees a detached island
        assert not check_cop(spiky_tables, 1, from_state=610).holds
        # screening from the island start makes it the anchored interval
        assert check_cop(spiky_tables, 1, from_state=616).holds

    def test_all_periods_hold_on_seasonal(self, seasonal_tables):
        for tables in seasonal_tables.values():
            for period in range(1, 5):
                assert check_cop(tables, period).holds


class TestStateRuns:
    """Runs read from the mask's transitions equal the split of its true
    states at their gaps, tuple for tuple and as Python ints."""

    @given(mask=st.lists(st.booleans(), max_size=60),
           first=st.integers(-10**4, 10**4))
    @settings(max_examples=300, deadline=None)
    def test_matches_split_reference(self, mask, first):
        mask = np.array(mask, dtype=bool)
        got = _state_runs(mask, first)
        assert got == split_state_runs(mask, first)
        assert all(type(end) is int for run in got for end in run)

class TestPolicyReconstruction:
    """Threshold pairs must regenerate the action table exactly, by the
    reference band rule and through ThresholdPolicy.orders."""

    def check_tables(self, tables):
        instance = tables.instance
        xs = tables.grid.states
        policy = read_policy(tables)
        assert policy.cop_violated == ()
        for period, pairs in enumerate(policy.bands, start=1):
            row = tables.Qstar[tables.row(period)]
            rebuilt = np.array([rebuild_order_quantity(pairs, instance.B, x)
                                for x in xs])
            assert np.array_equal(rebuilt, row), period
        orders = policy.orders(tables.grid, instance.B)
        assert orders.dtype == np.int64
        assert np.array_equal(orders, tables.Qstar)

    def test_seasonal_all_capacities(self, seasonal_tables):
        for tables in seasonal_tables.values():
            self.check_tables(tables)

    def test_discounted_lumpy(self, lumpy_tables):
        self.check_tables(lumpy_tables)


class TestBandOptimality:
    """Each band's level must win its window, and beat not ordering."""

    def test_seasonal_windows(self, seasonal_tables):
        for B, tables in seasonal_tables.items():
            for period, pairs in enumerate(read_policy(tables).bands, start=1):
                grid = tables.grid
                g = tables.G[tables.row(period)]
                for s_k, big_k in pairs:
                    i, j = grid.index(s_k), grid.index(big_k)
                    hi = j + 1 if B == math.inf else grid.index(s_k) + int(B) + 1
                    window = g[i:min(hi, g.size)]
                    assert g[j] <= window.min() + 1e-9
                    assert tables.instance.K + g[j] < g[i] + 1e-6


class TestConvexityCheck:
    def test_flat_with_dip_is_rejected(self):
        values = [0.0] * 10 + [-10.0] + [0.0] * 10
        report = verify_kb_convexity(values, K=1.0, B=1, window=21)
        assert not report.ok
        assert report.witness == (9, 1, 1, 1)

    def test_convex_passes_at_zero_fixed_cost(self):
        values = [(x - 5) ** 2 for x in range(21)]
        assert verify_kb_convexity(values, K=0.0, B=3, window=21).ok

    def test_convex_passes_unbounded_steps(self):
        values = [(x - 5) ** 2 for x in range(21)]
        assert verify_kb_convexity(values, K=2.0, B=math.inf, window=21).ok

    def test_solved_curves_pass(self, seasonal_tables):
        tables = seasonal_tables[65]
        for period in range(1, 5):
            r = tables.row(period)
            assert verify_kb_convexity(tables.G[r], 100.0, 65).ok
            assert verify_kb_convexity(tables.C[r], 100.0, 65).ok

    def test_window_must_fit(self):
        with pytest.raises(ValueError):
            verify_kb_convexity([1.0, 2.0], K=1.0, B=1, window=10)

    def test_witness_offset_by_origin(self):
        values = [0.0] * 10 + [-10.0] + [0.0] * 10
        report = verify_kb_convexity(values, K=1.0, B=1, window=21, x0=100)
        assert report.witness == (109, 1, 101, 1)


class TestQceDiagnostics:
    def test_volatile_period_seven(self, volatile_tables,
                                   volatile_certified_tables):
        # period 7 reads the same bands on the narrow grid and the certified one
        assert read_policy(volatile_certified_tables).bands[6] == \
            ((3, 75), (39, 167))
        points = qce_diagnostics(volatile_tables, 7)
        by_level = {pt.S: pt for pt in points}
        assert by_level[75].on_envelope
        assert by_level[75].nontrivial
        assert 101 in by_level
        assert not by_level[101].on_envelope

    def test_capacity_step_dominates_inner_minimum(self, volatile_tables):
        # stepping a full order up from the lowest reorder point cannot beat
        # the band's own level
        g = volatile_tables.G[volatile_tables.row(7)]
        grid = volatile_tables.grid
        assert g[grid.index(3 + 128)] >= g[grid.index(75)]

    def test_seasonal_inner_levels(self, seasonal_tables):
        points = qce_diagnostics(seasonal_tables[65], 2)
        keepers = sorted(pt.S for pt in points if pt.nontrivial)
        assert keepers == [51, 82]

    def test_nontrivial_implies_on_envelope(self, volatile_tables,
                                            volatile_certified_tables):
        for period in range(1, 13):
            tables = volatile_tables
            if period <= 2:
                # the narrow grid orders only below exact_from in periods 1-2
                with pytest.raises(GridSpanError, match=f"period {period} "):
                    qce_diagnostics(volatile_tables, period)
                tables = volatile_certified_tables
            for pt in qce_diagnostics(tables, period):
                if pt.nontrivial:
                    assert pt.on_envelope


def fake_tables(q_row, B, grid):
    size = grid.size
    instance = Instance(horizon=1, K=1.0, v=0.0, h=1.0, p=1.0, B=B,
                        demands=(pmf_empirical([1], [1.0]),))
    from stochinv import ValueTables
    return ValueTables(C=np.zeros((1, size)), G=np.zeros((1, size)),
                       Qstar=np.asarray([q_row], dtype=np.int64),
                       grid=grid, instance=instance)


class TestMalformedTables:
    def test_levels_must_increase(self):
        grid = Grid(-5, 5)
        # orders up to 5 from every state at or below 0, then a lone state
        # targeting 4: bands (0,5), (1,4) run backwards
        q_row = [min(5 - x, 10) if x <= 0 else 0 for x in range(-5, 6)]
        q_row[grid.index(1)] = 3
        with pytest.raises(MalformedTable, match="strictly increasing"):
            read_policy(fake_tables(q_row, 10, grid))

    def test_band_deeper_than_capacity(self):
        grid = Grid(-5, 5)
        # every ordering state claims a quantity beyond the capacity of 2
        q_row = [7 if x <= -2 else 0 for x in range(-5, 6)]
        with pytest.raises(MalformedTable, match="capacity"):
            read_policy(fake_tables(q_row, 2, grid))


class TestUncertifiedPeriod:
    """A period ordering only below exact_from is a grid error, not idle."""

    @staticmethod
    def tables_ordering_at(x):
        # period 1's demand reaches 3, so exact_from(1) = x_min + 3 = -2
        from stochinv import ValueTables
        grid = Grid(-5, 5)
        instance = Instance(horizon=2, K=1.0, v=0.0, h=1.0, p=1.0, B=10,
                            demands=(pmf_empirical([3], [1.0]),
                                     pmf_empirical([1], [1.0])))
        q = np.zeros((2, grid.size), dtype=np.int64)
        q[0, grid.index(x)] = 4
        return ValueTables(C=np.zeros(q.shape), G=np.zeros(q.shape), Qstar=q,
                           grid=grid, instance=instance)

    def test_order_just_below_the_floor(self):
        tables = self.tables_ordering_at(-3)
        assert tables.exact_from(1) == -2
        with pytest.raises(GridSpanError,
                           match=r"^period 1 orders only below .* exact_from = -2;"):
            read_policy(tables)
        with pytest.raises(GridSpanError):
            qce_diagnostics(tables, 1)

    def test_order_at_the_floor(self):
        assert read_policy(self.tables_ordering_at(-2)).bands == (((-2, 2),), ())


class TestNeverOrdering:
    def test_empty_policy(self):
        inst = Instance(horizon=1, K=1000.0, v=0.0, h=1.0, p=1.0, B=5,
                        demands=(pmf_empirical([2], [1.0]),))
        from stochinv import solve
        policy = read_policy(solve(inst, Grid(-10, 10)))
        assert policy.bands == ((),)
        assert policy.cop_violated == ()


def well_formed(pairs, cap):
    """The band checks read_policy applies to its pairs."""
    rising = all(s_a < s_b and big_a < big_b
                 for (s_a, big_a), (s_b, big_b) in zip(pairs, pairs[1:]))
    return rising and all(s_k < big_k and not s_k < big_k - cap
                          for s_k, big_k in pairs)


class TestBandsMatchRunByRunReference:
    @given(
        steps=st.lists(st.tuples(st.sampled_from(("same", "cap", "rise", "jump")),
                                 st.integers(1, 8)),
                       min_size=1, max_size=40),
        cap=st.one_of(st.integers(1, 12), st.just(math.inf)),
    )
    @settings(max_examples=400, deadline=None)
    def test_random_ordering_intervals(self, steps, cap):
        # every state from the bottom of the grid up orders: keep the
        # current level, order the full capacity, raise the level within
        # capacity, or order an arbitrary amount (often a malformed table)
        grid = Grid(-40, 40)
        q_row = [0] * grid.size
        level = None
        for i, (kind, jump) in enumerate(steps):
            x = grid.x_min + i
            if kind == "same" and level is not None and level - x >= 1:
                q = level - x
            elif kind == "cap" and cap != math.inf:
                q = cap
            elif kind == "rise" and level is not None:
                q = min(max(level - x, 0) + jump, cap)
            else:
                q = jump
            q_row[i] = q
            level = x + q
        xs = grid.states[:len(steps)].tolist()
        want = threshold_pairs_by_run(xs, q_row[:len(steps)], cap, xs[-1])
        try:
            policy = read_policy(fake_tables(q_row, cap, grid))
        except MalformedTable:
            assert not well_formed(want, cap)
            return
        assert well_formed(want, cap)
        assert policy.bands == (tuple(want),)
        assert policy.bands[0][-1][0] == xs[-1]


@st.composite
def well_formed_bands(draw, cap):
    """One period's bands: s_k and S_k strictly rising, s_k < S_k, and no
    band deeper than the capacity cap."""
    s_values = sorted(draw(st.sets(st.integers(-60, 60), max_size=6)))
    pairs = []
    for s_k in s_values:
        lo = max(s_k + 1, pairs[-1][1] + 1 if pairs else s_k + 1)
        hi = lo + 40 if cap == math.inf else s_k + cap
        pairs.append((s_k, draw(st.integers(lo, hi))))
    return tuple(pairs)


class TestThresholdPolicyOrders:
    GRID = Grid(-80, 80)

    @given(data=st.data(), cap=st.one_of(st.integers(1, 50), st.just(math.inf)))
    @settings(max_examples=300, deadline=None)
    def test_matches_band_rule_oracle(self, data, cap):
        bands = data.draw(st.lists(well_formed_bands(cap), min_size=1, max_size=3))
        assert all(well_formed(pairs, cap) for pairs in bands)
        table = ThresholdPolicy(tuple(bands)).orders(self.GRID, cap)
        assert table.shape == (len(bands), self.GRID.size)
        assert table.dtype == np.int64
        for row, pairs in zip(table, bands):
            want = [rebuild_order_quantity(pairs, cap, x)
                    for x in self.GRID.states.tolist()]
            assert row.tolist() == want

    def test_constructor_shares_the_band_check(self):
        with pytest.raises(MalformedTable, match="strictly increasing"):
            ThresholdPolicy((((0, 5), (1, 4)),))
        with pytest.raises(MalformedTable, match="not below"):
            ThresholdPolicy(((), ((3, 3),)))
        assert issubclass(MalformedTable, ValueError)
