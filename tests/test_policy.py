import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx

from conftest import FIXTURE_GRIDS, instance_path
from oracle import (brute_kb_violations, rebuild_order_quantity,
                    split_state_runs, threshold_pairs_by_run)
from stochinv import policy as policy_module
from stochinv import (DEFAULT_GRID, CexSearchParams, Grid, GridSpanError,
                      Instance, KBReport, MalformedTable, ThresholdPolicy,
                      ValueTables, build_design, check_cop, load_instance,
                      pmf_empirical, qce_diagnostics, random_instance,
                      read_policy, search_grid, solve, thresholds_csv,
                      verify_kb_convexity)
from stochinv.policy import _KB_TOL, _kb_convexity, _read_period, _state_runs

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

    def test_certified_only_rows_refuse_a_floor_below_them(self):
        # period 1 is a capacity slide from its level -7 down, so its row
        # is solved from R_1 = -7 up, on tables that start at R_2 = -9
        instance = Instance(horizon=2, K=1.0, v=0.0, h=1.0, p=1.0, B=10,
                            demands=(pmf_empirical([3], [1.0]),
                                     pmf_empirical([1], [1.0])))
        tables = solve(instance)
        assert tables.exact_from(1) == -7 and tables.grid.x_min == -9
        top = tables.grid.x_max
        assert check_cop(tables, 1, from_state=-7).holds
        for floor in (None, -8):
            with pytest.raises(ValueError, match=(
                    r"^state -[98] lies outside period 1's rows "
                    rf"\[-7, {top}\]$")):
                check_cop(tables, 1, from_state=floor)
        # the last period is solved from the tables' floor up
        assert check_cop(tables, 2).holds


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
        report = _kb_convexity(values, K=1.0, B=1)
        assert not report.ok
        assert report.witness == (9, 1, 1, 1)

    def test_convex_passes_at_zero_fixed_cost(self):
        values = [(x - 5) ** 2 for x in range(21)]
        assert _kb_convexity(values, K=0.0, B=3).ok

    def test_convex_passes_unbounded_steps(self):
        values = [(x - 5) ** 2 for x in range(21)]
        assert _kb_convexity(values, K=2.0, B=math.inf).ok

    def test_dip_is_rejected_with_unbounded_steps(self):
        # from state 1 the step of 9 up to the dip beats every step down
        values = [0.0] * 10 + [-10.0] + [0.0] * 10
        report = _kb_convexity(values, K=1.0, B=math.inf)
        assert report == KBReport(False, (1, 9, 1, 1))

    def test_a_rise_below_x_counts(self):
        # from state 2 a step of 3 costs (10 + 2 - 2) / 3 a unit, less than
        # the rise of 4 into state 1; no state breaks the inequality
        # against its own steps down
        values = [0.0, 4.0, 2.0, 2.0, 6.0, 2.0, 4.0, 9.0]
        assert _kb_convexity(values, K=10.0, B=3) == KBReport(False, (2, 3, 1, 1))

    def test_solved_curves_pass(self, seasonal_tables):
        tables = seasonal_tables[65]
        for period in range(1, 5):
            g_report, c_report = verify_kb_convexity(tables, period)
            assert g_report.ok
            assert c_report.ok

    def test_certified_rows_are_checked_only_where_solved(self, monkeypatch):
        # certified tables' C and G rows start at different states, and
        # each is checked from its own first state
        rows = []
        check = policy_module._kb_convexity

        def recording(g, K, B):
            rows.append(np.asarray(g))
            return check(g, K, B)

        monkeypatch.setattr(policy_module, "_kb_convexity", recording)
        point = next(pt for pt in build_design(("poisson",))
                     if pt.pattern == "STA" and pt.b_mult == 2)
        instance = point.instance
        tables = solve(instance)
        grid = tables.grid
        sliding = 0
        for period in range(1, instance.horizon + 1):
            rows.clear()
            verify_kb_convexity(tables, period)
            g_row, c_row = rows
            assert g_row.size == grid.x_max - tables.g_solved_from(period) + 1
            assert c_row.size == grid.x_max - tables.exact_from(period) + 1
            sliding += tables.g_solved_from(period) > tables.exact_from(period)
        # some rows' G starts above their C, past the capacity slides
        assert sliding

    def test_witness_in_state_coordinates(self):
        # one period certifies its whole grid, here states -10..10
        instance = Instance(horizon=1, K=1.0, v=0.0, h=1.0, p=1.0, B=1,
                            demands=(pmf_empirical([0], [1.0]),))
        grid = Grid(-10, 10)
        g = np.array([[0.0] * 10 + [-10.0] + [0.0] * 10])
        tables = ValueTables(np.zeros_like(g), g, np.zeros(g.shape, np.int64),
                             grid, instance)
        assert tables.exact_from(1) == -10
        assert verify_kb_convexity(tables, 1) == (
            KBReport(False, (-1, 1, -9, 1)), KBReport(True, None))

    @settings(max_examples=300, deadline=None)
    @given(rises=st.lists(st.integers(-20, 20), max_size=39),
           k_fixed=st.floats(0, 6), data=st.data())
    def test_matches_brute_force(self, rises, k_fixed, data):
        # rises in tenths meet defects that are 0 up to rounding, where the
        # tolerance decides, and a fixed cost of the size of the rises
        # makes both verdicts common
        values = list(itertools.accumulate((r / 10 for r in rises), initial=0.0))
        cap = data.draw(st.one_of(st.integers(1, len(values)), st.just(math.inf)))
        report = _kb_convexity(values, k_fixed, cap)
        broken = brute_kb_violations(values, k_fixed, cap, _KB_TOL)
        assert report.ok == (not broken)
        if not report.ok:
            assert report.witness in broken


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

    def test_a_band_below_the_solved_g_row_is_refused(self):
        # period 2 of this instance is solved from R_2 = -2, its G row from
        # g_2 = 1 (Instance.cone); a band (-2, 0) there would read G at -1,
        # below the G row
        instance = Instance(horizon=2, K=1.0, v=0.0, h=1.0, p=1.0, B=3,
                            demands=(pmf_empirical([0, 3], [0.5, 0.5]),
                                     pmf_empirical([7], [1.0])))
        tables = solve(instance)
        assert (tables.exact_from(2), tables.g_solved_from(2)) == (-2, 1)
        # period 2's order row, from R_2 = -2 up
        row = tables.Qstar[1]
        row[:] = 0
        row[0] = 2
        with pytest.raises(ValueError, match=(
                r"^state -1 lies outside period 2's G row \[1, 8\]$")):
            qce_diagnostics(tables, 2)

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

    def test_a_row_that_starts_at_the_floor_orders_nothing_below_it(self):
        # certified tables' rows start at exact_from: no state lies below
        # it, so none orders there
        whole = self.tables_ordering_at(3)
        rows = (np.zeros(8, np.int64), np.zeros(11, np.int64))
        tables = dataclasses.replace(whole, C=rows, G=rows, Qstar=rows,
                                     cone=((-2, -2), (-5, -5)))
        assert [tables.exact_from(t) for t in (1, 2)] == [-2, -5]
        assert read_policy(tables).bands == ((), ())


class TestNeverOrdering:
    def test_empty_policy(self):
        inst = Instance(horizon=1, K=1000.0, v=0.0, h=1.0, p=1.0, B=5,
                        demands=(pmf_empirical([2], [1.0]),))
        from stochinv import solve
        policy = read_policy(solve(inst, Grid(-10, 10)))
        assert policy.bands == ((),)
        assert policy.cop_violated == ()


class TestUnboundedBandLoss:
    """At B = inf the cone starts each period at the search grid's plain
    certified floor, below which no level bounds the decisions, so a
    period whose ordering states all lie below it reads as never ordering
    (ROADMAP item 17, step 1)."""

    INSTANCE = Instance(horizon=2, K=6.0, v=0.0, h=1.0, p=1.0, B=math.inf,
                        demands=(pmf_empirical([3], [1.0]),
                                 pmf_empirical([0], [1.0])))
    BANDS = (((-1, 3),), ((-7, 0),))

    def test_whole_rows_read_both_bands(self):
        assert read_policy(solve(self.INSTANCE, Grid(-20, 3))).bands == self.BANDS

    @pytest.mark.xfail(strict=True, reason="the B = inf cone starts above "
                       "both bands and reads ((), ())")
    def test_certified_tables_read_both_bands(self):
        assert read_policy(solve(self.INSTANCE)).bands == self.BANDS


def well_formed(pairs, cap):
    """The band checks read_policy applies to its pairs."""
    rising = all(s_a < s_b and big_a < big_b
                 for (s_a, big_a), (s_b, big_b) in zip(pairs, pairs[1:]))
    return rising and all(s_k < big_k and not s_k < big_k - cap
                          for s_k, big_k in pairs)


class TestBandsAreCheckedOnce:
    def test_two_checks_per_period_for_the_heuristic(self, monkeypatch):
        # read_policy's policy and its top() each check every period once;
        # the reader itself makes only the depth test
        calls = []
        check = policy_module._check_bands

        def counting(period, *args):
            calls.append(period)
            check(period, *args)

        monkeypatch.setattr(policy_module, "_check_bands", counting)
        for point in build_design(("poisson",))[::10]:
            instance = point.instance
            tables = solve(instance)
            calls.clear()
            read_policy(tables).top()
            periods = range(1, instance.horizon + 1)
            assert sorted(calls) == sorted([*periods, *periods]), point.key

    def test_depth_is_reported_before_the_order(self):
        # capacity slides up to -1, then bands (0,5) and (1,4): they run
        # backwards, and (0,5) is deeper than B = 4
        grid = Grid(-5, 5)
        q_row = [4 if x < 0 else 0 for x in grid.states.tolist()]
        q_row[grid.index(0)] = 5
        q_row[grid.index(1)] = 3
        with pytest.raises(MalformedTable, match=r"band \(0,5\) deeper than "
                                                 "capacity 4"):
            read_policy(fake_tables(q_row, 4, grid))


class TestBandsMatchRunByRunReference:
    @given(
        steps=st.lists(st.tuples(st.sampled_from(("same", "cap", "rise", "jump")),
                                 st.integers(1, 8)),
                       min_size=1, max_size=40),
        cap=st.one_of(st.integers(1, 12), st.just(math.inf)),
    )
    # an interval made only of capacity slides
    @example(steps=[("cap", 1)] * 6, cap=4)
    # the first band's run starts on the last leading slide
    @example(steps=[("cap", 1)] * 3 + [("same", 1)] * 2, cap=4)
    # B = inf: no state is a slide
    @example(steps=[("jump", 5), ("same", 1), ("rise", 2), ("same", 1)],
             cap=math.inf)
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


def assert_bands_walk_the_whole_interval(tables):
    """Where the order property holds from exact_from, a period's bands
    equal the run-by-run walk over its whole first ordering interval,
    leading capacity slides included."""
    grid = tables.grid
    for period in range(1, tables.instance.horizon + 1):
        floor = tables.exact_from(period)
        report = check_cop(tables, period, floor)
        if not (report.holds and report.ordering_set):
            continue
        lo, s_m = report.ordering_set[0]
        q = tables.Qstar[tables.row(period)][
            tables.column(period, lo):tables.column(period, s_m) + 1]
        want = threshold_pairs_by_run(list(range(lo, s_m + 1)), q.tolist(),
                                      tables.instance.B, s_m)
        assert _read_period(tables, period) == (tuple(want), True), period


class TestBandsWalkTheWholeInterval:
    @pytest.mark.parametrize("name", sorted(FIXTURE_GRIDS))
    @pytest.mark.parametrize("grid", ["fixture", "default"])
    def test_instance_files(self, name, grid):
        grid = FIXTURE_GRIDS[name] if grid == "fixture" else DEFAULT_GRID
        tables = solve(load_instance(instance_path(name)), grid)
        assert_bands_walk_the_whole_interval(tables)

    def test_random_search_instances(self):
        params = CexSearchParams(seed=11, budget=200)
        rng = np.random.default_rng(11)
        for _ in range(params.budget):
            instance = random_instance(params, rng)
            assert_bands_walk_the_whole_interval(
                solve(instance, search_grid(instance)))


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
