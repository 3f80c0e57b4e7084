import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instance_path
from oracle import tall_search_grid
from stochinv import (CexSearchParams, Grid, Instance, ValueTables, cex,
                      check_cop, load_instance, pmf_empirical, random_instance,
                      search_cop_violations, search_grid, serialize_instance,
                      solve, v_monotonicity_report)

COMMITTED = CexSearchParams(seed=3, budget=1000)


@pytest.fixture(scope="module")
def committed_violations():
    return search_cop_violations(COMMITTED)


class TestCommittedSeed:
    def test_exactly_one_violation(self, committed_violations):
        assert [(v.index, v.period) for v in committed_violations] == [(886, 2)]

    def test_witness_and_ordering_set(self, committed_violations):
        violation = committed_violations[0]
        assert violation.report.violation_witness == (492, 493)
        assert violation.report.ordering_set[-1] == (493, 493)
        assert len(violation.report.ordering_set) == 2

    def test_instance_parameters(self, committed_violations):
        instance = committed_violations[0].instance
        assert instance.B == 88
        assert instance.K == pytest.approx(154.61238528162968, abs=1e-12)
        assert instance.p == pytest.approx(27.404524893212898, abs=1e-12)
        assert instance.v == 0.0
        assert instance.h == 1.0
        supports = [d.support for d in instance.demands]
        assert supports == [
            (71, 125, 215, 245),
            (57, 139, 242, 244),
            (16, 170, 197, 265),
            (13, 137, 247, 250),
        ]

    def test_replay_is_byte_identical(self, committed_violations):
        replay = search_cop_violations(COMMITTED)
        first = json.dumps(serialize_instance(committed_violations[0].instance))
        second = json.dumps(serialize_instance(replay[0].instance))
        assert first == second

    def test_order_advantage_dips_at_the_witness(self, committed_violations):
        violation = committed_violations[0]
        tables = solve(violation.instance, search_grid(violation.instance))
        assert v_monotonicity_report(tables, violation.period) == ((492, 492),)


class TestGeneratorContract:
    def test_draws_respect_the_ranges(self):
        params = CexSearchParams(seed=77, budget=0)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(77)))
        for _ in range(1000):
            instance = random_instance(params, rng)
            assert instance.horizon == 4
            assert instance.v == 0.0
            assert instance.h == 1.0
            assert 1.0 <= instance.K <= 500.0
            assert 1.0 <= instance.p <= 30.0
            assert isinstance(instance.B, int)
            assert 20 <= instance.B <= 200
            for demand in instance.demands:
                values = np.asarray(demand.support)
                assert values.size == 4
                assert len(set(values.tolist())) == 4
                assert (values < instance.B).sum() == 1
                big = values[values > instance.B]
                assert big.size == 3
                assert big.max() <= 300
                assert np.asarray(demand.probs).sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("equal_masses,digest", [
        (False, "669edcafa5ddc69ce905a1e6e030b0af80e57af60558f6be6f4bdeaab78aae24"),
        (True, "e8a6187eaf48f99986d4ee2578218982fc3d5bb145540c5811da184d4d540dc6"),
    ])
    def test_draw_stream_is_pinned(self, equal_masses, digest):
        # the first 1000 seed-3 instances, as written to violator files;
        # any change to how a draw reads the stream moves the digest
        params = CexSearchParams(seed=3, budget=0, equal_masses=equal_masses)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
        stream = hashlib.sha256()
        for _ in range(1000):
            doc = serialize_instance(random_instance(params, rng))
            stream.update(json.dumps(doc).encode())
        assert stream.hexdigest() == digest

    def test_equal_masses_option(self):
        params = CexSearchParams(seed=5, budget=0, equal_masses=True)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
        instance = random_instance(params, rng)
        for demand in instance.demands:
            np.testing.assert_allclose(demand.probs, 0.25)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CexSearchParams(seed=0, budget=-1)
        with pytest.raises(ValueError):
            CexSearchParams(seed=0, budget=1, K_range=(10.0, 1.0))
        with pytest.raises(ValueError):
            CexSearchParams(seed=0, budget=1, B_range=(20, 400), support_max=300)
        with pytest.raises(ValueError):
            CexSearchParams(seed=0, budget=1, points_per_pmf=1)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            CexSearchParams(seed=-1, budget=1)

    @pytest.mark.parametrize("field,value,message", [
        ("B_range", (0, 30), r"B_range\[0\] must be at least 1"),
        ("K_range", (-5.0, 1.0), r"K_range\[0\] must be nonnegative"),
        ("p_range", (0.0, 30.0), r"p_range\[0\] must be positive"),
        ("p_range", (-1.0, 30.0), r"p_range\[0\] must be positive"),
        ("horizon", 0, "horizon must be at least 1"),
        ("budget", 2.5, "budget must be an integer"),
        ("horizon", 2.5, "horizon must be an integer"),
        ("horizon", True, "horizon must be an integer"),
        ("seed", True, "seed must be an integer"),
        ("points_per_pmf", 4.0, "points_per_pmf must be an integer"),
    ], ids=["B_range", "K_range", "p_range-zero", "p_range-negative", "horizon",
            "budget-float", "horizon-float", "horizon-bool", "seed-bool",
            "points_per_pmf-float"])
    def test_rejects_a_field_no_draw_can_take(self, field, value, message):
        # each would otherwise stop the search at its first draw, or mid-run
        with pytest.raises(ValueError, match=message):
            CexSearchParams(**{"seed": 0, "budget": 1, field: value})

    def test_support_must_leave_room_above_the_largest_capacity(self):
        # three distinct support points above B = 200 need support_max 203;
        # at 202 the draw would run out of values mid-search
        with pytest.raises(ValueError, match="support_max must be at least 203"):
            CexSearchParams(seed=0, budget=1, B_range=(200, 200), support_max=202)
        params = CexSearchParams(seed=0, budget=20, B_range=(200, 200),
                                 support_max=203)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
        for demand in random_instance(params, rng).demands:
            assert demand.support[1:] == (201, 202, 203)
        search_cop_violations(params)


class TestMonotonicityReport:
    def test_single_period_instances_never_dip(self):
        params = CexSearchParams(seed=11, budget=0, horizon=1)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
        for _ in range(25):
            instance = random_instance(params, rng)
            tables = solve(instance, search_grid(instance))
            assert v_monotonicity_report(tables, 1) == ()


class TestSearchGrid:
    @pytest.mark.parametrize("equal_masses", [False, True])
    def test_matches_the_tall_grid_below_the_top(self, equal_masses):
        # seed 3's stream holds the committed violator at index 886
        params = CexSearchParams(seed=3, budget=0, equal_masses=equal_masses)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
        for _ in range(1000):
            instance = random_instance(params, rng)
            grid = search_grid(instance)
            tall_grid = tall_search_grid(instance)
            assert grid.x_min == tall_grid.x_min and grid.x_max < tall_grid.x_max
            tables = solve(instance, grid)
            tall = solve(instance, tall_grid)
            shared = grid.size
            for name in ("C", "G", "Qstar"):
                got, want = getattr(tables, name), getattr(tall, name)
                assert got.tobytes() == want[:, :shared].tobytes(), name
            assert not tall.Qstar[:, shared:].any()
            for period in range(1, instance.horizon + 1):
                assert (check_cop(tables, period, from_state=tables.exact_from(period))
                        == check_cop(tall, period, from_state=tall.exact_from(period)))
                assert (v_monotonicity_report(tables, period)
                        == v_monotonicity_report(tall, period))

    def test_unbounded_capacity_ends_at_the_demand_sum(self):
        instance = dataclasses.replace(
            load_instance(instance_path("seasonal_poisson.json")), B=math.inf)
        total = sum(d.max_value for d in instance.demands)
        grid = search_grid(instance)
        assert grid == Grid(-total, total)
        tables = solve(instance, grid)
        tall = solve(instance, tall_search_grid(instance))
        shared = grid.size
        for name in ("C", "G", "Qstar"):
            got, want = getattr(tables, name), getattr(tall, name)
            assert got.tobytes() == want[:, :shared].tobytes(), name
        assert not tall.Qstar[:, shared:].any()


class TestKnownViolatorRegression:
    def test_spiky_instance_is_flagged(self):
        instance = load_instance(instance_path("spiky_nonstationary.json"))
        tables = solve(instance, search_grid(instance))
        report = check_cop(tables, 1, from_state=tables.exact_from(1))
        assert not report.holds
        assert report.violation_witness == (615, 616)
        assert report.ordering_set[-1] == (616, 618)


def failing_periods(tables):
    return [t for t in range(1, tables.instance.horizon + 1)
            if not check_cop(tables, t, from_state=tables.exact_from(t)).holds]


class TestOrderRiseScreen:
    """The search screens all periods at once and calls check_cop only on
    the periods the screen flags; it must flag exactly the failing ones."""

    # one-point demands set each period's floor; the grid's lowest state
    # lies `below` under the deepest floor, and its highest `above` over 0.
    # Each order row is a few runs of one order each, repeated to the
    # grid's width, so that some rows hold the property and some do not.
    @given(dmax=st.lists(st.integers(0, 5), min_size=1, max_size=4),
           below=st.integers(0, 4), above=st.integers(1, 6), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_flags_exactly_the_periods_check_cop_fails(self, dmax, below,
                                                       above, data):
        n = len(dmax)
        instance = Instance(horizon=n, K=1.0, v=0.0, h=1.0, p=1.0, B=7,
                            demands=tuple(pmf_empirical([d], [1.0]) for d in dmax))
        grid = Grid(-sum(dmax) - below - 1, above)
        runs = st.lists(st.tuples(st.sampled_from([0, 1, 7]), st.integers(1, 12)),
                        min_size=1, max_size=4)
        qstar = np.array([
            np.resize(np.repeat(*np.array(data.draw(runs)).T), grid.size)
            for _ in range(n)], dtype=np.int64)
        zeros = np.zeros((n, grid.size))
        tables = ValueTables(C=zeros, G=zeros, Qstar=qstar, grid=grid,
                             instance=instance)
        assert cex._order_rises(tables) == failing_periods(tables)

    def test_spiky_fixture(self):
        instance = load_instance(instance_path("spiky_nonstationary.json"))
        tables = solve(instance, search_grid(instance))
        assert cex._order_rises(tables) == failing_periods(tables) == [1]

    def test_committed_violator(self, committed_violations):
        instance = committed_violations[0].instance
        tables = solve(instance, search_grid(instance))
        assert cex._order_rises(tables) == failing_periods(tables) == [2]
