import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instance_path
from oracle import (exact_cost_to_go, runs_check_cop, split_state_runs,
                    tall_search_grid)
from stochinv import (CexSearchParams, Grid, Instance, ValueTables, cex,
                      check_cop, load_instance, pmf_empirical, random_instance,
                      search_cop_violations, search_grid, serialize_instance,
                      solve, v_monotonicity_report)
from stochinv.testbed import _point_instance

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
            assert instance.horizon == cex.HORIZON
            assert instance.v == 0.0
            assert instance.h == 1.0
            assert cex.K_RANGE[0] <= instance.K <= cex.K_RANGE[1]
            assert cex.P_RANGE[0] <= instance.p <= cex.P_RANGE[1]
            assert isinstance(instance.B, int)
            assert cex.B_RANGE[0] <= instance.B <= cex.B_RANGE[1]
            for demand in instance.demands:
                values = np.asarray(demand.support)
                assert values.size == cex.POINTS_PER_PMF
                assert len(set(values.tolist())) == cex.POINTS_PER_PMF
                assert (values < instance.B).sum() == 1
                big = values[values > instance.B]
                assert big.size == cex.POINTS_PER_PMF - 1
                assert big.max() <= cex.SUPPORT_MAX
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
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            CexSearchParams(seed=-1, budget=1)

    @pytest.mark.parametrize("field,value,message", [
        ("budget", 2.5, "budget must be an integer"),
        ("seed", True, "seed must be an integer"),
    ], ids=["budget-float", "seed-bool"])
    def test_rejects_a_field_no_draw_can_take(self, field, value, message):
        # each would otherwise stop the search at its first draw, or mid-run
        with pytest.raises(ValueError, match=message):
            CexSearchParams(**{"seed": 0, "budget": 1, field: value})

    def test_search_is_set_by_seed_budget_and_masses_alone(self):
        fields = [f.name for f in dataclasses.fields(CexSearchParams)]
        assert fields == ["seed", "budget", "equal_masses"]


def first_period(instance):
    """The one-period instance of a draw's first period."""
    return dataclasses.replace(instance, horizon=1, demands=instance.demands[:1])


class TestMonotonicityReport:
    def test_single_period_instances_never_dip(self):
        params = CexSearchParams(seed=11, budget=0)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
        for _ in range(25):
            instance = first_period(random_instance(params, rng))
            tables = solve(instance, search_grid(instance))
            assert v_monotonicity_report(tables, 1) == ()

    def test_certified_tables_read_no_fill(self):
        # the bed point poisson|EMP3|K500|v10|p5|m3|cv-: in 18 of its 20
        # periods the certified G row starts above the C row, and the
        # capacity slides between hold the NaN fill in G
        instance = _point_instance("poisson", "EMP3", 500.0, 10.0, 5.0, 3, None)
        tables = solve(instance)
        slides = {t: (tables.exact_from(t), tables.g_solved_from(t))
                  for t in range(1, instance.horizon + 1)}
        slides = {t: ends for t, ends in slides.items() if ends[0] < ends[1]}
        assert len(slides) == 18
        # a fill that rose 1e9 a state would make V fall at each slide, so
        # the report is the same only if it reads no G below g_solved_from
        poisoned = tables.G.copy()
        for t, (lo, hi) in slides.items():
            poisoned[t - 1, tables.grid.index(lo):tables.grid.index(hi)] = (
                1e9 * np.arange(hi - lo))
        other = dataclasses.replace(tables, G=poisoned)
        for t in range(1, instance.horizon + 1):
            report = v_monotonicity_report(tables, t)
            assert v_monotonicity_report(other, t) == report
            assert all(lo >= tables.g_solved_from(t) for lo, _ in report)


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

    def test_demand_that_is_always_zero(self):
        # the demand sum is 0: the grid keeps one state of backlog below 0
        instance = Instance(horizon=3, K=5.0, v=0.0, h=1.0, p=2.0, B=4,
                            demands=(pmf_empirical([0], [1.0]),) * 3)
        grid = search_grid(instance)
        assert grid == Grid(-1, 1)
        tables = solve(instance, grid)
        # from x0 = 0 no state below 0 is reached: nothing orders and
        # nothing is owed
        assert not tables.Qstar[:, grid.index(0):].any()
        assert [tables.cost_at(t, 0) for t in (1, 2, 3)] == [0.0] * 3

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


def stream_instance(seed, index):
    """The search's instance at index of the seed's stream (equal_masses
    off), as search_cop_violations regenerates it."""
    params = CexSearchParams(seed=seed, budget=0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    for _ in range(index):
        random_instance(params, rng)
    return random_instance(params, rng)


# case -> (instance, flagged period, check_cop's ordering runs there)
KNOWN_VIOLATORS = {
    "seed3-886": (lambda: stream_instance(3, 886), 2,
                  ((-495, 491), (493, 493))),
    "seed174-610": (lambda: stream_instance(174, 610), 2,
                    ((-499, 510), (517, 519))),
    "spiky": (lambda: load_instance(instance_path("spiky_nonstationary.json")),
              1, ((-210, 601), (616, 618))),
}


class TestExactCertificates:
    """Each known violator decided in exact arithmetic: on [exact_from(t),
    last ordering state + B] the states where the rational advantage
    G - K - w of ordering exceeds the tie tolerance 1e-9 (as the rational
    that float is) are check_cop's runs, and the island above the hole
    saves more than K exactly."""

    @pytest.mark.parametrize("case", sorted(KNOWN_VIOLATORS))
    def test_ordering_runs_are_exact(self, case):
        build, period, runs = KNOWN_VIOLATORS[case]
        instance = build()
        tables = solve(instance, search_grid(instance))
        lo = tables.exact_from(period)
        report = check_cop(tables, period, from_state=lo)
        assert report.ordering_set == runs
        cap = int(instance.B)
        hi = runs[-1][1] + cap
        G = exact_cost_to_go(instance).G
        g = [G(period, y) for y in range(lo, hi + cap + 1)]
        K = Fraction(instance.K)
        advantage = [g[i] - K - min(g[i:i + cap + 1])
                     for i in range(hi - lo + 1)]
        ordering = np.array([a > Fraction(1e-9) for a in advantage])
        assert split_state_runs(ordering, lo) == runs
        island_lo, island_hi = runs[-1]
        assert all(a > 0 for a in advantage[island_lo - lo:island_hi - lo + 1])


def failing_periods(tables):
    """The periods whose order property fails from exact_from up, checked
    by check_cop after asserting its reports equal the reference's at the
    bottom of the grid and at exact_from."""
    failing = []
    for t in range(1, tables.instance.horizon + 1):
        assert check_cop(tables, t) == runs_check_cop(tables, t)
        report = check_cop(tables, t, tables.exact_from(t))
        assert report == runs_check_cop(tables, t, tables.exact_from(t))
        if not report.holds:
            failing.append(t)
    return failing


def order_tables(dmax, below, above, rows):
    """Tables that carry only the given order rows, each repeated to the
    grid's width, on a grid `below` states under the deepest floor of
    one-point demands dmax and `above` states over 0."""
    n = len(dmax)
    instance = Instance(horizon=n, K=1.0, v=0.0, h=1.0, p=1.0, B=7,
                        demands=tuple(pmf_empirical([d], [1.0]) for d in dmax))
    grid = Grid(-sum(dmax) - below - 1, above)
    qstar = np.array([np.resize(row, grid.size) for row in rows], dtype=np.int64)
    zeros = np.zeros((n, grid.size))
    return ValueTables(C=zeros, G=zeros, Qstar=qstar, grid=grid, instance=instance)


class TestOrderRiseScreen:
    """check_cop decides the property by one test for a state that does not
    order right below one that does, and builds the ordering runs only on
    a violated row; its reports must be those of the run-by-run reference."""

    # one-point demands set each period's floor. Each order row is a few
    # runs of one order each, repeated to the grid's width, so that some
    # rows hold the property and some do not.
    @given(dmax=st.lists(st.integers(0, 5), min_size=1, max_size=4),
           below=st.integers(0, 4), above=st.integers(1, 6), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_flags_exactly_the_periods_check_cop_fails(self, dmax, below,
                                                       above, data):
        runs = st.lists(st.tuples(st.sampled_from([0, 1, 7]), st.integers(1, 12)),
                        min_size=1, max_size=4)
        rows = [np.repeat(*np.array(data.draw(runs)).T) for _ in dmax]
        tables = order_tables(dmax, below, above, rows)
        grid = tables.grid
        for t in range(1, len(dmax) + 1):
            drawn = data.draw(st.integers(grid.x_min, grid.x_max))
            for floor in (None, tables.exact_from(t), drawn):
                assert check_cop(tables, t, floor) == runs_check_cop(tables, t, floor)

    @pytest.mark.parametrize("order", [0, 1, 7])
    def test_rows_that_order_everywhere_or_nowhere(self, order):
        tables = order_tables([2, 0, 3], 2, 4, [[order]] * 3)
        assert failing_periods(tables) == []
        for t in (1, 2, 3):
            floor = tables.exact_from(t)
            report = check_cop(tables, t, floor)
            assert report.ordering_set == (((floor, tables.grid.x_max),)
                                           if order else ())

    def test_spiky_fixture(self):
        instance = load_instance(instance_path("spiky_nonstationary.json"))
        tables = solve(instance, search_grid(instance))
        assert failing_periods(tables) == [1]

    def test_committed_violator(self, committed_violations):
        instance = committed_violations[0].instance
        tables = solve(instance, search_grid(instance))
        assert failing_periods(tables) == [2]
