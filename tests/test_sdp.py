import dataclasses
import math
import tempfile
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx

from conftest import FIXTURE_GRIDS, instance_path, run_fresh
from stochinv import (DEFAULT_GRID, CexSearchParams, Grid, GridSpanError,
                      Instance, ValueTables, load_instance, optimality_gap,
                      pmf_empirical, pmf_parametric, random_instance,
                      read_policy, sdp, search_grid, solve)

from oracle import (branchy_expected_continuation, brute_cost_to_go,
                    brute_single_period_loss, brute_slide_levels,
                    brute_window_min, full_row_window_min_finite,
                    full_row_window_min_infinite, padded_convolve_continuation,
                    rowwise_tables_csv, searchsorted_loss_row)

def loss_at(y, pmf, h, p):
    """The loss row at one post-order level y."""
    return float(sdp._loss_row(np.array([y], dtype=np.float64), pmf, h, p)[0])


class TestExpectedHoldingShortageCost:
    def test_poisson_deep_backlog(self):
        # at y=0 every unit of demand is short, so the cost is p * E[d]
        pmf = pmf_parametric("poisson", 20.0)
        assert loss_at(0, pmf, 1.0, 10.0) == approx(
            199.99999976982843, abs=1e-9)

    def test_degenerate_demand_exact_cover(self):
        pmf = pmf_empirical([5], [1.0])
        assert loss_at(5, pmf, 1.0, 10.0) == 0.0

    def test_two_point_demand(self):
        pmf = pmf_empirical([6, 7], [0.95, 0.05])
        assert loss_at(10, pmf, 1.0, 10.0) == approx(
            3.950000000000001, abs=1e-12)

    @given(
        y=st.integers(-30, 60),
        h=st.floats(0.1, 5.0),
        p=st.floats(0.1, 30.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_sum(self, y, h, p, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 6))
        support = rng.choice(40, size=size, replace=False)
        masses = rng.random(size)
        masses /= masses.sum()
        pmf = pmf_empirical(support, masses)
        naive = brute_single_period_loss(y, pmf.support, pmf.probs, h, p)
        assert loss_at(y, pmf, h, p) == approx(naive, abs=1e-9)

    # ascending unit-step ranges that lie below, across or above a random
    # support of 1-8 points in [0, 300]
    @given(points=st.dictionaries(st.integers(0, 300), st.floats(1e-3, 1.0),
                                  min_size=1, max_size=8),
           start=st.integers(-400, 400), length=st.integers(1, 500),
           h=st.floats(0.01, 50.0), p=st.floats(0.01, 500.0))
    @example(points={40: 0.5, 60: 0.5}, start=-100, length=50, h=1.0, p=10.0)
    @example(points={40: 0.5, 60: 0.5}, start=0, length=100, h=1.0, p=10.0)
    @example(points={40: 0.5, 60: 0.5}, start=60, length=50, h=1.0, p=10.0)
    @example(points={0: 1.0}, start=-3, length=7, h=2.0, p=3.0)
    @settings(max_examples=300, deadline=None)
    def test_matches_searchsorted_kernel_bitwise(self, points, start, length,
                                                 h, p):
        values = list(points)
        masses = np.array([points[d] for d in values])
        pmf = pmf_empirical(values, masses / masses.sum())
        states = np.arange(start, start + length, dtype=np.float64)
        got = sdp._loss_row(states, pmf, h, p)
        want = searchsorted_loss_row(states, pmf, h, p)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestDeterministicDemand:
    """Single period, demand exactly 5: order up to 5 whenever it pays."""

    def make_tables(self, K=1.0):
        inst = Instance(horizon=1, K=K, v=0.0, h=1.0, p=10.0, B=10,
                        demands=(pmf_empirical([5], [1.0]),))
        return solve(inst, Grid(-20, 20))

    def test_orders_up_to_demand(self):
        tables = self.make_tables()
        for x in range(-20, 5):
            assert tables.qstar_at(1, x) == min(5 - x, 10)
        for x in range(5, 21):
            assert tables.qstar_at(1, x) == 0

    def test_no_order_when_fixed_cost_dominates(self):
        # shortage at x=4 costs 10, so K=50 kills the order at x=4.. but
        # deeper backlog still justifies it
        tables = self.make_tables(K=50.0)
        assert tables.qstar_at(1, 4) == 0
        assert tables.qstar_at(1, -5) == 10
        assert tables.cost_at(1, 4) == approx(10.0)

    def test_cost_identity(self):
        tables = self.make_tables()
        # C = min(G, K + window min of G) at v=0, spot-checked off the rows
        row = tables.row(1)
        g = tables.G[row]
        i = tables.grid.index(0)
        assert tables.C[row, i] == approx(min(g[i], 1.0 + g[i:i + 11].min()))

    def test_order_must_beat_not_ordering_by_the_tie_tolerance(self):
        # demand 0 and h = p = 1 give G(y) = |y|; ordering up to 0 from -10
        # saves 10 - K = 5e-10, inside the 1e-9 tolerance, so no order there
        inst = Instance(horizon=1, K=10.0 - 5e-10, v=0.0, h=1.0, p=1.0, B=20,
                        demands=(pmf_empirical([0], [1.0]),))
        tables = solve(inst, Grid(-40, 60))
        assert tables.qstar_at(1, -10) == 0
        assert tables.qstar_at(1, -11) == 11


def with_orders(full_row_kernel):
    """A kernel returning (w, q) over the whole row, in sdp's (w, orders) shape."""
    def kernel(*args):
        w, q = full_row_kernel(*args)

        def orders(ordering, out):
            out[...] = np.where(ordering, q, 0)
        return w, orders
    return kernel


def orders_at(orders, size, at):
    """The offsets that orders writes at the state indices at, checking
    that it writes 0 at every other state."""
    ordering = np.zeros(size, dtype=bool)
    ordering[at] = True
    out = np.full(size, -1, dtype=np.int64)
    orders(ordering, out)
    assert not out[~ordering].any()
    return out[at]


@with_orders
def sliding_window_min(g_row, cap):
    """The O(size * cap) window minimum the sparse table replaced, kept as
    the reference its tables must match byte for byte."""
    padded = np.concatenate([g_row, np.full(cap, np.inf)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, cap + 1)
    w = windows.min(axis=1)
    q = (windows <= w[:, None] + 1e-9).argmax(axis=1)
    return w, q


# plateaus at a few levels, each value raised by nothing, by less than, by
# exactly, or by more than the 1e-9 tie tolerance
near_tie = st.builds(lambda level, nudge: level + nudge,
                     st.integers(0, 3).map(float),
                     st.sampled_from([0.0, 5e-10, 1e-9, 2e-9]))


class TestWindowMinimum:
    @given(row=st.lists(st.one_of(near_tie, st.floats(-1e3, 1e3)),
                        min_size=1, max_size=40),
           cap=st.integers(1, 50))
    @example(row=[2.5], cap=7)
    @settings(max_examples=400, deadline=None)
    def test_matches_brute_force_exactly(self, row, cap):
        g_row = np.array(row, dtype=np.float64)
        w, orders = sdp._window_min_finite(g_row, cap)
        q = orders_at(orders, g_row.size, np.arange(g_row.size))
        brute_w, brute_q = brute_window_min(row, cap)
        assert np.array_equal(w, np.array(brute_w))
        assert np.array_equal(q, np.array(brute_q))

    @given(row=st.lists(st.one_of(near_tie, st.floats(-1e3, 1e3)),
                        min_size=1, max_size=40))
    @example(row=[2.5])
    @settings(max_examples=200, deadline=None)
    def test_unbounded_window_matches_brute_force(self, row):
        # with a window as long as the row, the window min is the suffix min
        g_row = np.array(row, dtype=np.float64)
        w, orders = sdp._window_min_finite(g_row, g_row.size - 1)
        q = orders_at(orders, g_row.size, np.arange(g_row.size))
        brute_w, brute_q = brute_window_min(row, len(row) - 1)
        assert np.array_equal(w, np.array(brute_w))
        assert np.array_equal(q, np.array(brute_q))

    @given(row=st.lists(st.one_of(near_tie, st.floats(-1e3, 1e3)),
                        min_size=1, max_size=60),
           cap=st.integers(1, 70), picks=st.lists(st.booleans(), max_size=60))
    # a cap past the row's end, over a row holding both signed zeros
    @example(row=[0.0, -0.0, 1.0, -0.0, 0.0], cap=9, picks=[True])
    @settings(max_examples=200, deadline=None)
    def test_offsets_at_any_states_match_the_full_row(self, row, cap, picks):
        g_row = np.array(row, dtype=np.float64)
        at = np.flatnonzero(np.resize(np.array(picks + [True]), g_row.size))
        w, orders = sdp._window_min_finite(g_row, cap)
        want_w, want_q = full_row_window_min_finite(g_row, cap)
        assert w.tobytes() == want_w.tobytes()
        assert np.array_equal(orders_at(orders, g_row.size, at), want_q[at])
        # the unbounded window: the suffix min, equal up to the sign of a
        # zero minimum, which K + w erases for every K but -0.0
        w, orders = sdp._window_min_finite(g_row, g_row.size - 1)
        want_w, want_q = full_row_window_min_infinite(g_row)
        assert np.array_equal(w, want_w)
        assert np.array_equal(orders_at(orders, g_row.size, at), want_q[at])

    # rows that fall most of the way, in steps up to 5 with now and then a
    # rise or a step near the tie tolerance, so that many windows take
    # their minimum at their far end only: capacity slides
    @given(row=st.lists(st.one_of(st.floats(-1.0, 5.0),
                                  st.sampled_from([0.0, 5e-10, 1e-9, 2e-9])),
                        min_size=1, max_size=60).map(
                            lambda steps: (-np.cumsum(steps)).tolist()),
           cap=st.integers(1, 12))
    # state i + cap - 1 sits exactly at w + 1e-9, so state 0 is no slide
    @example(row=[5.0, 1e-9, 0.0], cap=2)
    # slides at states 0 and 1; the windows from state 2 on are cut short
    # by the row's end
    @example(row=[4.0, 3.0, 2.0, 1.0, 0.0], cap=3)
    @example(row=[3.0, 2.0, 1.0, 0.0], cap=3)
    @example(row=[3.0, 2.0, 1.0, 0.0], cap=9)
    @example(row=[2.5], cap=7)
    @example(row=[1.0, 0.0], cap=1)
    @example(row=[0.0, 1.0], cap=1)
    @settings(max_examples=300, deadline=None)
    def test_slides_on_falling_rows_match_the_full_row(self, row, cap):
        g_row = np.array(row, dtype=np.float64)
        w, orders = sdp._window_min_finite(g_row, cap)
        want_w, want_q = full_row_window_min_finite(g_row, cap)
        assert w.tobytes() == want_w.tobytes()
        assert np.array_equal(
            orders_at(orders, g_row.size, np.arange(g_row.size)), want_q)


def assert_same_tables(monkeypatch, instance, grid, **references):
    """C, G and Qstar are byte-equal with sdp's kernels swapped for their
    references, given by kernel name."""
    tables = solve(instance, grid)
    with monkeypatch.context() as patch:
        for kernel, reference_kernel in references.items():
            patch.setattr(sdp, kernel, reference_kernel)
        reference = solve(instance, grid)
    for name in ("C", "G", "Qstar"):
        got, want = getattr(tables, name), getattr(reference, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name


class TestTablesMatchSlidingWindowKernel:
    """Solving with the sparse table gives the same bytes as the old kernel."""

    @pytest.mark.parametrize("name", [
        "lumpy_discounted.json", "seasonal_poisson.json",
        "spiky_nonstationary.json", "volatile_poisson.json"])
    def test_instance_files_on_default_grid(self, monkeypatch, name):
        instance = load_instance(instance_path(name))
        assert_same_tables(monkeypatch, instance, DEFAULT_GRID,
                           _window_min_finite=sliding_window_min)

    def test_random_search_instances(self, monkeypatch):
        params = CexSearchParams(seed=11, budget=200)
        rng = np.random.default_rng(11)
        for _ in range(params.budget):
            instance = random_instance(params, rng)
            assert_same_tables(monkeypatch, instance, search_grid(instance),
                               _window_min_finite=sliding_window_min)


class TestExpectedContinuation:
    """The clamp kernel equals the branch-per-demand-point loop bit for bit;
    the certified-only convolution agrees with it to rounding."""

    # rows of 1-400 states; supports with 0, with points at or past the
    # row's end, and of one point
    @given(size=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
           points=st.dictionaries(st.integers(0, 500), st.floats(1e-3, 1.0),
                                  min_size=1, max_size=12))
    @example(size=1, seed=0, points={0: 1.0})
    @example(size=3, seed=1, points={0: 0.2, 2: 0.3, 3: 0.1, 9: 0.4})
    @example(size=2, seed=2, points={5: 1.0})
    @settings(max_examples=400, deadline=None)
    def test_matches_branchy_loop_bitwise(self, size, seed, points):
        c_row = np.random.default_rng(seed).uniform(-1e6, 1e6, size)
        values = list(points)
        masses = np.array([points[d] for d in values])
        pmf = pmf_empirical(values, masses / masses.sum())
        got = sdp._expected_continuation(c_row, pmf)
        want = branchy_expected_continuation(c_row, pmf)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(FIXTURE_GRIDS))
    def test_instance_files_give_the_same_tables(self, monkeypatch, name):
        instance = load_instance(instance_path(name))
        assert_same_tables(
            monkeypatch, instance, FIXTURE_GRIDS[name],
            _expected_continuation=branchy_expected_continuation)

    # 1-400 outputs over supports with gaps, of one point, with zero demand
    # and with points at or past the outputs' end; the widest span three
    # tiles of the convolution
    @given(size=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
           points=st.dictionaries(st.one_of(st.integers(0, 500),
                                            st.integers(0, 20_000)),
                                  st.floats(1e-3, 1.0), min_size=1,
                                  max_size=12),
           start=st.integers(0, 399))
    @example(size=1, seed=0, points={0: 1.0}, start=0)
    @example(size=2, seed=2, points={5: 1.0}, start=1)
    @example(size=3, seed=1, points={0: 0.2, 2: 0.3, 3: 0.1, 9: 0.4}, start=2)
    @example(size=5, seed=3, points={0: 0.1, 8191: 0.3, 8192: 0.2,
                                     16_384: 0.1, 20_000: 0.3}, start=4)
    @settings(max_examples=200, deadline=None)
    def test_certified_kernel_matches_the_loop_to_rounding(self, size, seed,
                                                           points, start):
        """Without clamp, each output is the loop's to within 1e-13 of the
        absolute sum it adds up, and is the same bits from any start of the
        row, as the certified-only solve needs."""
        values = list(points)
        masses = np.array([points[d] for d in values])
        pmf = pmf_empirical(values, masses / masses.sum())
        top = pmf.max_value
        c_row = np.random.default_rng(seed).uniform(-1e6, 1e6, top + size)
        got = sdp._expected_continuation(c_row, pmf, clamp=False)
        want = branchy_expected_continuation(c_row, pmf)[top:]
        scale = branchy_expected_continuation(np.abs(c_row), pmf)[top:]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (np.abs(got - want) <= 1e-13 * scale).all()
        start %= size
        tail = sdp._expected_continuation(c_row[start:], pmf, clamp=False)
        assert tail.tobytes() == got[start:].tobytes()

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        """A support 20,001 values wide, whose one np.convolve would be
        summed in several threads, gives the same bits at 1 and 2 threads."""
        code = textwrap.dedent("""
            import numpy as np
            from stochinv import pmf_empirical, sdp
            rng = np.random.default_rng(7)
            values = np.append(np.arange(0, 20_000, 3), 20_000)
            masses = rng.uniform(0.1, 1.0, values.size)
            pmf = pmf_empirical(values, masses / masses.sum())
            c_row = rng.uniform(-1e6, 1e6, pmf.max_value + 64)
            out = sdp._expected_continuation(c_row, pmf, clamp=False)
            print(out.size, out.tobytes().hex())
        """)
        one, two = (run_fresh(code, OPENBLAS_NUM_THREADS=threads)
                    for threads in ("1", "2"))
        assert one.startswith("64 ")
        assert one == two


class TestTablesMatchFullRowKernels:
    """The loss row off the support and the offset search at ordering states
    alone give the same bytes as the kernels that ran on the whole row."""

    @pytest.mark.parametrize("name", sorted(FIXTURE_GRIDS))
    def test_instance_files_on_default_grid(self, monkeypatch, name):
        instance = load_instance(instance_path(name))
        assert_same_tables(
            monkeypatch, instance, DEFAULT_GRID,
            _loss_row=searchsorted_loss_row,
            _window_min_finite=with_orders(full_row_window_min_finite))

    @pytest.mark.parametrize("name", sorted(FIXTURE_GRIDS))
    def test_instance_files_at_unbounded_capacity(self, monkeypatch, name):
        instance = dataclasses.replace(load_instance(instance_path(name)),
                                       B=math.inf)
        assert_same_tables(
            monkeypatch, instance, FIXTURE_GRIDS[name],
            _loss_row=searchsorted_loss_row,
            _window_min_finite=with_orders(
                lambda g_row, cap: full_row_window_min_infinite(g_row)))


def empirical_pmfs(points):
    """One PMF per dict of support value -> unnormalized mass."""
    pmfs = []
    for mass_of in points:
        masses = np.array(list(mass_of.values()))
        pmfs.append(pmf_empirical(list(mass_of), masses / masses.sum()))
    return tuple(pmfs)


class TestTrimmedTop:
    """Solving only up to top = max(sum_t dmax_t, 1), as the bed and the COP
    search do, gives the taller grid's tables bit for bit at every capacity,
    B = inf included, and the taller grid never orders from
    D_t = sum_{s>=t} dmax_s up. solve refuses a grid below the top."""

    @given(points=st.lists(st.dictionaries(st.integers(0, 40),
                                           st.floats(1e-3, 1.0),
                                           min_size=1, max_size=5),
                           min_size=1, max_size=4),
           K=st.floats(0.0, 300.0), v=st.floats(0.0, 10.0),
           h=st.floats(0.01, 5.0), p=st.floats(0.01, 30.0),
           B=st.one_of(st.integers(1, 60), st.just(math.inf)),
           discount=st.floats(0.05, 1.0),
           x_min=st.integers(-200, -1), extra=st.integers(100, 600))
    @example(points=[{3: 0.5, 9: 0.5}] * 3, K=50.0, v=1.0, h=1.0, p=10.0,
             B=1, discount=1.0, x_min=-40, extra=300)
    @example(points=[{7: 1.0}, {0: 1.0}, {12: 1.0}], K=20.0, v=2.0, h=1.0,
             p=5.0, B=8, discount=1.0, x_min=-30, extra=300)
    @example(points=[{0: 0.3, 20: 0.7}] * 2, K=0.0, v=0.5, h=0.5, p=8.0,
             B=15, discount=1.0, x_min=-50, extra=300)
    @example(points=[{4: 0.25, 30: 0.75}] * 4, K=120.0, v=3.0, h=1.0,
             p=20.0, B=25, discount=0.8, x_min=-150, extra=300)
    @example(points=[{4: 0.25, 30: 0.75}] * 4, K=120.0, v=3.0, h=1.0,
             p=20.0, B=math.inf, discount=0.8, x_min=-150, extra=300)
    # no demand at all: the top is 1, and a capacity of 40 spans the grid
    @example(points=[{0: 1.0}] * 2, K=5.0, v=1.0, h=1.0, p=4.0, B=40,
             discount=1.0, x_min=-39, extra=100)
    @settings(max_examples=150, deadline=None)
    def test_tables_match_a_taller_grid(self, points, K, v, h, p, B,
                                        discount, x_min, extra):
        demands = empirical_pmfs(points)
        dmax = [d.max_value for d in demands]
        top = max(sum(dmax), 1)
        instance = Instance(horizon=len(demands), K=K, v=v, h=h, p=p, B=B,
                            demands=demands, discount=discount)
        trimmed = solve(instance, Grid(x_min, top))
        tall = solve(instance, Grid(x_min, top + extra))
        shared = trimmed.grid.size
        for name in ("C", "G", "Qstar"):
            got, want = getattr(trimmed, name), getattr(tall, name)
            assert got.tobytes() == want[:, :shared].tobytes(), name
        for t in range(instance.horizon):
            d_t = sum(dmax[t:])
            assert not tall.Qstar[t, tall.grid.index(d_t):].any(), t + 1

    @given(points=st.lists(st.dictionaries(st.integers(0, 40),
                                           st.floats(1e-3, 1.0),
                                           min_size=1, max_size=5),
                           min_size=1, max_size=4),
           B=st.one_of(st.integers(1, 400), st.just(math.inf)),
           x_min=st.integers(-200, -1), x_max=st.integers(1, 200))
    @example(points=[{3: 0.5, 9: 0.5}] * 3, B=5, x_min=-40, x_max=26)
    @example(points=[{3: 0.5, 9: 0.5}] * 3, B=5, x_min=-40, x_max=27)
    @example(points=[{3: 0.5, 9: 0.5}] * 3, B=math.inf, x_min=-40, x_max=26)
    @example(points=[{3: 0.5, 9: 0.5}] * 3, B=math.inf, x_min=-40, x_max=27)
    # no demand at all: the top is 1, the lowest top a grid can have
    @example(points=[{0: 1.0}] * 2, B=40, x_min=-1, x_max=1)
    @example(points=[{0: 1.0}] * 2, B=math.inf, x_min=-1, x_max=1)
    @settings(max_examples=200, deadline=None)
    def test_solve_refuses_exactly_the_grids_below_the_top(self, points, B,
                                                           x_min, x_max):
        demands = empirical_pmfs(points)
        top = max(sum(d.max_value for d in demands), 1)
        instance = Instance(horizon=len(demands), K=20.0, v=1.0, h=1.0,
                            p=5.0, B=B, demands=demands)
        assert instance.reach.top == top
        grid = Grid(x_min, x_max)
        if x_max < top:
            with pytest.raises(GridSpanError) as excinfo:
                solve(instance, grid)
            assert str(excinfo.value) == (
                f"grid top {x_max} lies below the structural top {top}; "
                "widen the grid upward")
        else:
            tables = solve(instance, grid)
            # every period keeps a certified state below x_max
            assert all(tables.exact_from(t) < x_max
                       for t in range(1, instance.horizon + 1))


def line_floors(instance):
    """F^C_t for t = 1..n (see Reach): from there down, period t's capacity
    window lies on a line of G_t."""
    cap, below, out = int(instance.B), 0, []
    for pmf in reversed(instance.demands):
        out.append(pmf.support[0] + below - cap)
        below = min(0, out[-1])
    return out[::-1]


def policy_outcome(tables):
    """(bands, COP periods, exact gap from x0 = 0), or the grid error's name."""
    try:
        policy = read_policy(tables)
    except GridSpanError:
        return "GridSpanError"
    gap = optimality_gap(tables.instance, tables, policy.top(), 0)
    return policy.bands, policy.cop_violated, gap


class TestStructuralBottom:
    """Solving from Reach.bottom up, as the bed does, keeps every certified
    table entry, band, COP flag and gap of a deeper grid. On the deeper
    grid the certified states at or below level_t = max(F^C_t, a_t) all
    take one decision, order B or never, and B at or below a_t. The slide
    levels a_t are those of a state-by-state loop over the same bounds."""

    @given(points=st.lists(st.dictionaries(st.integers(0, 40),
                                           st.floats(1e-3, 1.0),
                                           min_size=1, max_size=5),
                           min_size=1, max_size=4),
           K=st.floats(0.0, 300.0), v=st.floats(0.0, 30.0),
           h=st.floats(0.01, 5.0), p=st.floats(0.01, 30.0),
           B=st.integers(1, 60), discount=st.floats(0.05, 1.0),
           extra=st.integers(500, 900))
    # no fixed cost: a deep state orders B whenever the line falls at all
    @example(points=[{3: 0.5, 9: 0.5}] * 3, K=0.0, v=1.0, h=1.0, p=10.0,
             B=4, discount=1.0, extra=500)
    # v >= p: the last period never orders deep down, the earlier ones may
    @example(points=[{2: 0.4, 15: 0.6}] * 3, K=30.0, v=12.0, h=1.0, p=8.0,
             B=20, discount=1.0, extra=500)
    @example(points=[{4: 0.25, 30: 0.75}] * 4, K=120.0, v=3.0, h=1.0,
             p=20.0, B=25, discount=0.8, extra=500)
    # no demand before the last period: floor(n) = 0
    @example(points=[{0: 1.0}, {0: 1.0}, {5: 0.5, 12: 0.5}], K=40.0, v=1.0,
             h=1.0, p=6.0, B=9, discount=1.0, extra=500)
    # B p <= K: the last period never orders deep down, and the earlier
    # periods' slide levels exist only through the window's fall at x + B
    @example(points=[{2: 0.5, 6: 0.5}, {1: 0.7, 4: 0.3}, {3: 0.5, 5: 0.5}],
             K=60.0, v=1.0, h=1.0, p=6.0, B=8, discount=1.0, extra=500)
    @settings(max_examples=100, deadline=None)
    def test_tables_and_policy_match_a_deeper_grid(self, points, K, v, h, p,
                                                   B, discount, extra):
        demands = empirical_pmfs(points)
        instance = Instance(horizon=len(demands), K=K, v=v, h=h, p=p, B=B,
                            demands=demands, discount=discount)
        reach = instance.reach
        shallow = solve(instance, Grid(reach.bottom, reach.top))
        deep = solve(instance, Grid(reach.bottom - extra, reach.top))
        slides = sdp._slide_levels(instance)
        for t, (f_c, a_t) in enumerate(zip(line_floors(instance), slides),
                                       start=1):
            level = f_c if a_t is None else max(f_c, a_t)
            lo = shallow.exact_from(t)
            assert lo <= min(reach.floor(t), level), t
            row, kept = t - 1, deep.grid.index(lo)
            for name in ("C", "G", "Qstar"):
                got, want = getattr(shallow, name), getattr(deep, name)
                assert got[row, lo - reach.bottom:].tobytes() == \
                    want[row, kept:].tobytes(), (name, t)
            first = deep.grid.index(deep.exact_from(t))
            decisions = np.unique(deep.Qstar[row, first:deep.grid.index(level) + 1])
            assert decisions.size == 1 and decisions[0] in (0, B), (t, decisions)
            if a_t is not None and a_t >= deep.exact_from(t):
                assert decisions[0] == B, (t, a_t)
        assert policy_outcome(shallow) == policy_outcome(deep)

    @given(points=st.lists(st.dictionaries(st.integers(0, 40),
                                           st.floats(1e-3, 1.0),
                                           min_size=1, max_size=5),
                           min_size=1, max_size=4),
           K=st.floats(0.0, 300.0), v=st.floats(0.0, 30.0),
           h=st.floats(0.01, 5.0), p=st.floats(0.01, 30.0),
           B=st.integers(1, 60), discount=st.floats(0.05, 1.0))
    @example(points=[{2: 0.5, 6: 0.5}, {1: 0.7, 4: 0.3}, {3: 0.5, 5: 0.5}],
             K=60.0, v=1.0, h=1.0, p=6.0, B=8, discount=0.9)
    @settings(max_examples=100, deadline=None)
    def test_slide_levels_match_a_state_by_state_loop(self, points, K, v, h,
                                                      p, B, discount):
        instance = Instance(horizon=len(points), K=K, v=v, h=h, p=p, B=B,
                            demands=empirical_pmfs(points), discount=discount)
        assert sdp._slide_levels(instance) == brute_slide_levels(instance)


class TestCertifiedOnly:
    """solve(certified_only=True) computes each period only on its certified
    range [exact_from(t), x_max]: there C, G and Qstar are bit for bit those
    of a full solve whose continuation is the same convolution over padded
    rows, and below it they hold exactly NaN, NaN and -1. Against the
    default full solve, whose continuation sums point by point, Qstar is
    equal and C and G agree within 1e-13 of |value| + v max|x|. Grids run
    from the search grid down to 300 states below the structural bottom
    (below the search grid's floor at B = inf)."""

    @given(points=st.lists(st.dictionaries(st.integers(0, 40),
                                           st.floats(1e-3, 1.0),
                                           min_size=1, max_size=5),
                           min_size=1, max_size=4),
           K=st.floats(0.0, 300.0), v=st.floats(0.0, 30.0),
           h=st.floats(0.01, 5.0), p=st.floats(0.01, 30.0),
           B=st.one_of(st.integers(1, 60), st.just(math.inf)),
           discount=st.floats(0.05, 1.0), depth=st.integers(0, 10**6),
           extra=st.integers(0, 50))
    @example(points=[{4: 0.25, 30: 0.75}] * 4, K=120.0, v=3.0, h=1.0,
             p=20.0, B=math.inf, discount=1.0, depth=150, extra=0)
    @example(points=[{4: 0.25, 30: 0.75}] * 4, K=120.0, v=3.0, h=1.0,
             p=20.0, B=25, discount=0.8, depth=10**6, extra=0)
    # v >= p: the last period never orders deep down, the earlier ones may
    @example(points=[{2: 0.4, 15: 0.6}] * 3, K=30.0, v=12.0, h=1.0, p=8.0,
             B=20, discount=1.0, depth=0, extra=7)
    # no demand at all: every row is certified from x_min
    @example(points=[{0: 1.0}] * 2, K=5.0, v=1.0, h=1.0, p=4.0, B=3,
             discount=1.0, depth=300, extra=0)
    # v > p: G(y) crosses 0 below the support, where a bound relative to
    # |G| alone would not hold
    @example(points=[{1: 0.0234375, 0: 1.0, 2: 0.015625}, {16: 0.5, 17: 0.25}],
             K=0.0, v=25.5625, h=1.0, p=11.3046875, B=math.inf,
             discount=0.375, depth=0, extra=0)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_full_solve_on_the_certified_range(
            self, points, K, v, h, p, B, discount, depth, extra):
        instance = Instance(horizon=len(points), K=K, v=v, h=h, p=p, B=B,
                            demands=empirical_pmfs(points), discount=discount)
        reach = instance.reach
        high = search_grid(instance).x_min
        low = min(high, (high if reach.bottom is None else reach.bottom) - 300)
        grid = Grid(high - depth % (high - low + 1), reach.top + extra)
        full = solve(instance, grid)
        with mock.patch.object(sdp, "_expected_continuation",
                               padded_convolve_continuation):
            convolved = solve(instance, grid)
        certified = solve(instance, grid, certified_only=True)
        assert certified.certified_only and not full.certified_only
        # relative to the largest term an entry sums: G(y) adds v y to the
        # loss and the continuation, and C(x) subtracts v x from G, so
        # either may lie near 0 while v |y| does not
        purchase = v * max(-grid.x_min, grid.x_max)
        for t in range(1, instance.horizon + 1):
            row, lo = t - 1, grid.index(full.exact_from(t))
            assert certified.solved_from(t) == full.exact_from(t)
            assert full.solved_from(t) == grid.x_min
            for name in ("C", "G", "Qstar"):
                got, want = getattr(certified, name), getattr(convolved, name)
                assert np.array_equal(got[row, lo:].view(np.int64),
                                      want[row, lo:].view(np.int64)), (name, t)
            assert np.array_equal(certified.Qstar[row, lo:],
                                  full.Qstar[row, lo:]), t
            for name in ("C", "G"):
                got = getattr(certified, name)[row, lo:]
                want = getattr(full, name)[row, lo:]
                assert (np.abs(got - want) <= 1e-13 * (np.abs(want) + purchase)
                        ).all(), (name, t)
            assert np.isnan(certified.C[row, :lo]).all()
            assert np.isnan(certified.G[row, :lo]).all()
            assert (certified.Qstar[row, :lo] == -1).all()
        if reach.bottom is not None and grid.x_min <= reach.bottom:
            # from the bottom down, as the bed solves, the fill changes no
            # band, flag or gap
            assert policy_outcome(certified) == policy_outcome(full)

    def test_the_fill_is_never_written(self, tmp_path):
        instance = Instance(horizon=2, K=5.0, v=1.0, h=1.0, p=4.0, B=4,
                            demands=(pmf_empirical([2], [1.0]),) * 2)
        tables = solve(instance, Grid(-6, 6), certified_only=True)
        with pytest.raises(ValueError, match="certified_only tables"):
            tables.to_csv(tmp_path / "certified.csv")
        assert not (tmp_path / "certified.csv").exists()


class TestUnboundedCapacity:
    """B = inf solves to the same bytes as a capacity as wide as the grid:
    no order can reach past its top either way."""

    @pytest.mark.parametrize("name", sorted(FIXTURE_GRIDS))
    def test_instance_files_equal_capacity_the_grid_width(self, name):
        instance = load_instance(instance_path(name))
        grid = FIXTURE_GRIDS[name]
        unbounded = solve(dataclasses.replace(instance, B=math.inf), grid)
        widest = solve(dataclasses.replace(instance, B=grid.x_max - grid.x_min),
                       grid)
        for table in ("C", "G", "Qstar"):
            got, want = getattr(unbounded, table), getattr(widest, table)
            assert got.tobytes() == want.tobytes(), table


class TestActionTableSpikyDemand:
    """First-period actions around the detached ordering island."""

    def test_descending_saturation_run(self, spiky_tables):
        for x in range(593, 602):
            assert spiky_tables.qstar_at(1, x) == 41 - (x - 593)

    def test_quiet_run_then_island(self, spiky_tables):
        for x in range(602, 616):
            assert spiky_tables.qstar_at(1, x) == 0
        for x in range(616, 619):
            assert spiky_tables.qstar_at(1, x) == 41
        assert spiky_tables.qstar_at(1, 619) == 0


class TestActionTableDiscountedLumpy:
    def test_first_period_actions(self, lumpy_tables):
        got = [lumpy_tables.qstar_at(1, x) for x in range(-3, 8)]
        assert got == [9, 8, 7, 9, 8, 7, 9, 8, 7, 0, 0]

    def test_discount_shrinks_cost(self, lumpy_instance):
        undiscounted = Instance(
            horizon=lumpy_instance.horizon, K=lumpy_instance.K,
            v=lumpy_instance.v, h=lumpy_instance.h, p=lumpy_instance.p,
            B=lumpy_instance.B, demands=lumpy_instance.demands, discount=1.0)
        grid = Grid(-200, 400)
        assert (solve(lumpy_instance, grid).cost_at(1, 0)
                < solve(undiscounted, grid).cost_at(1, 0))


def random_micro_instance(rng):
    horizon = int(rng.integers(1, 4))
    demands = []
    for _ in range(horizon):
        size = int(rng.integers(1, 5))
        support = rng.choice(11, size=size, replace=False)
        masses = rng.random(size)
        masses /= masses.sum()
        demands.append(pmf_empirical(support, masses))
    return Instance(
        horizon=horizon,
        K=float(rng.uniform(0.0, 30.0)),
        v=float(rng.choice([0.0, rng.uniform(0.0, 3.0)])),
        h=float(rng.uniform(0.1, 2.0)),
        p=float(rng.uniform(0.1, 12.0)),
        B=int(rng.integers(1, 11)),
        demands=tuple(demands),
        discount=float(rng.choice([1.0, 0.9])),
    )


class TestBruteForceEquivalence:
    """The array solver must agree with a plain recursion, state by state."""

    GRID = Grid(-40, 60)

    def compare(self, instance, tables, q_cap=None, hi_cap=None):
        brute = brute_cost_to_go(instance, q_cap=q_cap)
        for period in range(1, instance.horizon + 1):
            lo = tables.exact_from(period)
            hi = tables.grid.x_max if hi_cap is None else hi_cap
            assert lo < hi, "exactness window collapsed; widen the test grid"
            for x in range(lo, hi + 1):
                assert tables.cost_at(period, x) == approx(
                    brute(period, x), abs=1e-9), (period, x)

    def test_fifty_random_micro_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            instance = random_micro_instance(rng)
            self.compare(instance, solve(instance, self.GRID))

    def test_uncapacitated_micro_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            base = random_micro_instance(rng)
            instance = Instance(
                horizon=base.horizon, K=base.K, v=base.v, h=base.h, p=base.p,
                B=math.inf, demands=base.demands, discount=base.discount)
            # demands stay at or below 10, so no policy ever targets a level
            # above 30; the grid top at 60 is behaviourally infinite, and a
            # cap of 70 lets the reference reach any such target from the
            # deepest compared state
            self.compare(instance, solve(instance, self.GRID),
                         q_cap=70, hi_cap=25)


class TestGridValidation:
    def test_grid_must_straddle_zero(self):
        with pytest.raises(ValueError):
            Grid(5, 10)
        with pytest.raises(ValueError):
            Grid(-10, 0)

    @pytest.mark.parametrize("x_min,x_max", [
        (-5.0, 5), (-5, 5.5), (-5, 5.0), (True, 5), (-5, True),
        (np.float64(-5), 5)])
    def test_bounds_must_be_integers(self, x_min, x_max):
        with pytest.raises(ValueError, match="integers"):
            Grid(x_min, x_max)

    def test_numpy_integer_bounds(self):
        assert Grid(np.int64(-5), np.int32(5)).size == 11

    def test_index_bounds(self):
        grid = Grid(-5, 5)
        assert grid.index(-5) == 0
        assert grid.index(5) == 10
        assert grid.index(np.int64(2)) == 7
        with pytest.raises(ValueError):
            grid.index(6)

    @pytest.mark.parametrize("x", [2.7, 2.0, np.float64(2.0), True,
                                   np.bool_(True), "2"])
    def test_index_rejects_non_integral_states(self, x):
        with pytest.raises(ValueError, match="not an integer"):
            Grid(-5, 5).index(x)

    # one to four periods of demand on 0..5 and a capacity up to 30 states
    # wider than search_grid, which ends at the structural top
    @given(points=st.lists(st.dictionaries(st.integers(0, 5), st.floats(0.01, 1.0),
                                           min_size=1, max_size=4),
                           min_size=1, max_size=4),
           extra=st.integers(1, 30), K=st.floats(0.0, 50.0), p=st.floats(0.5, 30.0))
    @example(points=[{0: 0.5, 1: 0.5}], extra=3, K=1.0, p=5.0)
    @settings(max_examples=200, deadline=None)
    def test_capacity_wider_than_a_grid_that_reaches_the_top(self, points,
                                                             extra, K, p):
        demands = tuple(pmf_empirical(list(d), np.divide(list(d.values()),
                                                         sum(d.values())))
                        for d in points)
        probe = Instance(horizon=len(demands), K=K, v=0.0, h=1.0, p=p, B=1,
                         demands=demands)
        grid = search_grid(probe)
        inst = dataclasses.replace(probe, B=grid.x_max - grid.x_min + extra)
        tables = solve(inst, grid)
        tall = solve(inst, Grid(grid.x_min, grid.x_max + inst.B + 50))
        for name in ("C", "G", "Qstar"):
            got, want = getattr(tables, name), getattr(tall, name)
            assert got.tobytes() == want[:, :grid.size].tobytes(), name

    def test_period_bounds(self, lumpy_tables):
        with pytest.raises(ValueError):
            lumpy_tables.row(0)
        with pytest.raises(ValueError):
            lumpy_tables.row(21)

    def test_exact_from(self):
        demands = (pmf_empirical([0, 3], [0.5, 0.5]), pmf_empirical([7], [1.0]))
        inst = Instance(horizon=2, K=1.0, v=0.0, h=1.0, p=1.0, B=3,
                        demands=demands)
        tables = solve(inst, Grid(-30, 30))
        # the final row clamps against exact terminal zeros, so it is exact
        # everywhere; earlier rows lose one max demand per remaining period
        assert tables.exact_from(2) == -30
        assert tables.exact_from(1) == -30 + 3

    def test_reach(self):
        demands = (pmf_empirical([0, 3], [0.5, 0.5]), pmf_empirical([7], [1.0]))
        inst = Instance(horizon=2, K=1.0, v=0.0, h=1.0, p=1.0, B=3,
                        demands=demands)
        reach = sdp.Reach.of(inst)
        # derived once per instance
        assert inst.reach == reach and inst.reach is inst.reach
        assert [reach.floor(t) for t in (1, 2, 3)] == [0, -3, -10]
        # the top is the demand sum, whatever the capacity
        assert reach.top == 3 + 7
        for period in (0, 4):
            with pytest.raises(ValueError, match=r"period must be in 1\.\.3"):
                reach.floor(period)
        unbounded = sdp.Reach.of(dataclasses.replace(inst, B=math.inf)).top
        assert unbounded == 10 and type(unbounded) is int
        # with no demand at all the top stays a valid grid ceiling
        idle = dataclasses.replace(
            inst, demands=(pmf_empirical([0], [1.0]),) * 2)
        assert sdp.Reach.of(idle).top == 1

    def test_bottom(self):
        demands = (pmf_empirical([0, 3], [0.5, 0.5]), pmf_empirical([7], [1.0]))
        inst = Instance(horizon=2, K=1.0, v=0.0, h=1.0, p=1.0, B=3,
                        demands=demands)
        # F^C_2 = 7 - 3 = 4 and F^C_1 = 0 + min(0, 4) - 3 = -3. The bounds:
        # u_2 = -1 up to 6, so a_2 = 4 (u_2(6) < 0, and 3 > K); c_2 + v =
        # u_2(x + 3) = -1 up to 3, then 0 up to 6; u_1 = 2 F_1 - 1 + c_2 is
        # -2 below 0 and -1 on 0..2, so a_1 = 0 (u_1(2) < 0, and 3 > K).
        # With floor(2) = -3: bottom = -3 + min(0 - 0, 4 + 3, 0) = -3
        assert line_floors(inst) == [-3, 4]
        assert sdp._slide_levels(inst) == [0, 4]
        assert inst.reach.bottom == -3
        tables = solve(inst, Grid(-6, 10))
        assert tables.exact_from(1) == -3 and tables.exact_from(2) == -6
        # an integral float capacity, which Instance accepts, gives an int
        # that Grid takes
        as_float = sdp.Reach.of(dataclasses.replace(inst, B=3.0)).bottom
        assert as_float == -3 and type(as_float) is int
        assert Grid(as_float, 10).x_min == -3
        # at B = inf no finite window lies on a line
        assert sdp.Reach.of(dataclasses.replace(inst, B=math.inf)).bottom is None
        # one period: floor(n) = 0, and a window above the demand keeps -1
        one = Instance(horizon=1, K=1.0, v=0.0, h=1.0, p=1.0, B=2,
                       demands=(pmf_empirical([5], [1.0]),))
        assert one.reach.bottom == -1 and type(one.reach.bottom) is int
        assert sdp.Reach.of(dataclasses.replace(one, B=65.0)).bottom == -60
        # no demand before the last period: floor(n) = 0 again. B p = K, so
        # the last period finds no slide level
        late = Instance(horizon=3, K=1.0, v=0.0, h=1.0, p=1.0, B=1,
                        demands=(pmf_empirical([0], [1.0]),) * 2
                        + (pmf_empirical([9], [1.0]),))
        assert late.reach.floor(3) == 0 and line_floors(late) == [-2, -1, 8]
        assert sdp._slide_levels(late) == [-2, -1, None]
        assert late.reach.bottom == -2 and type(late.reach.bottom) is int
        # no demand at all: the bound's window, [-B, B + 1], holds no level
        idle = dataclasses.replace(late, demands=(pmf_empirical([0], [1.0]),) * 3)
        assert sdp._slide_levels(idle) == [None] * 3
        assert idle.reach.bottom == -3
        # two periods, each with one demand value: d_1 = 2, d_2 = 1, and
        # B p = 12 <= K = 13, so the last period never orders deep down
        inst = Instance(horizon=2, K=13.0, v=0.0, h=1.0, p=4.0, B=3,
                        demands=(pmf_empirical([2], [1.0]),
                                 pmf_empirical([1], [1.0])))
        # u_2 = 5 F_2 - 4 is -4 up to 0: three steps save 12, not above K.
        # c_2 = u_2(x + 3) = -4 up to -3 (both ends of the window fall),
        # then 0 up to 0. u_1(y) = 5 F_1(y) - 4 + c_2(y - 2) is -8 up to -1
        # and -4 at 0 and 1, so a_1 = -1: u_1(1) < 0, and 8 + 4 + 4 > K
        assert line_floors(inst) == [-3, -2]
        assert sdp._slide_levels(inst) == [-1, None]
        # floor(2) = -2: bottom = -2 + min(-1 - 0, -2 + 2, 0) = -3, where
        # the line floors alone give -5
        assert inst.reach.bottom == -3
        deep = solve(inst, Grid(-40, 10))
        assert (deep.Qstar[0, :deep.grid.index(-1) + 1] == 3).all()
        assert not deep.Qstar[1].any()


class TestInstanceValidation:
    def test_demand_count_must_match_horizon(self):
        with pytest.raises(ValueError):
            Instance(horizon=2, K=1.0, v=0.0, h=1.0, p=1.0, B=5,
                     demands=(pmf_empirical([1], [1.0]),))

    @pytest.mark.parametrize("field,value", [
        ("K", -1.0), ("v", -0.5), ("h", 0.0), ("p", -2.0),
        ("B", 0), ("B", 2.5), ("B", True), ("B", np.True_),
        ("discount", 0.0), ("discount", 1.1),
        ("horizon", 1.0), ("horizon", True), ("K", math.nan), ("v", math.inf),
        ("h", math.nan), ("p", math.inf),
        # a boolean would pass every numeric rule as 0 or 1
        ("K", True), ("v", False), ("h", np.True_), ("p", True),
        ("discount", True), ("discount", np.True_),
    ])
    def test_parameter_domains(self, field, value):
        kwargs = dict(horizon=1, K=1.0, v=0.0, h=1.0, p=1.0, B=5,
                      demands=(pmf_empirical([1], [1.0]),), discount=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            Instance(**kwargs)


class TestTailGrowth:
    def test_cost_rises_toward_both_edges(self, seasonal_tables):
        row = seasonal_tables[65].C[0]
        interior = row.min()
        assert row[0] > 1.02 * interior
        assert row[-1] > 1.02 * interior

    def test_deep_backlog_slope_is_penalty_driven(self, seasonal_tables):
        # far below the reorder region each extra unit of backlog costs at
        # least one period of penalty
        tables = seasonal_tables[65]
        assert tables.cost_at(1, -299) - tables.cost_at(1, -298) >= 10.0 - 1e-6


def assert_csv_matches_rowwise(tables, directory):
    """The block writer's file equals the row-wise reference byte for byte,
    and float() of every C and G field gives back the table bit for bit."""
    got, want = Path(directory, "block.csv"), Path(directory, "rowwise.csv")
    tables.to_csv(got)
    rowwise_tables_csv(tables, want)
    assert got.read_bytes() == want.read_bytes()
    fields = [line.split(",") for line in got.read_text().splitlines()[1:]]
    for column, table in ((2, tables.C), (3, tables.G)):
        parsed = np.array([float(f[column]) for f in fields]).reshape(table.shape)
        assert parsed.tobytes() == table.tobytes()


# values whose text a shortcut could get wrong: signed zeros, the extremes
# of magnitude, subnormals, and integral floats (repr keeps their ".0")
csv_value = st.one_of(
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 1e-5, 5e-324, -5e-324,
                     -1.7976931348623157e308, -123456.0, 3.0]),
    st.integers(-10**17, 10**17).map(float),
    st.floats(allow_nan=False))
# (C, G) cells: bitwise equal (shared text), unrelated, or equal under ==
# but not bitwise
csv_cell = st.one_of(csv_value.map(lambda v: (v, v)),
                     st.tuples(csv_value, csv_value),
                     st.sampled_from([(0.0, -0.0), (-0.0, 0.0)]))
BLOCK = sdp._CSV_BLOCK


class TestCsvExport:
    def test_layout_and_determinism(self, tmp_path):
        inst = Instance(horizon=2, K=5.0, v=1.0, h=1.0, p=4.0, B=4,
                        demands=(pmf_empirical([2], [1.0]),) * 2)
        tables = solve(inst, Grid(-6, 6))
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        tables.to_csv(path_a)
        tables.to_csv(path_b)
        text = path_a.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "period,x,C,G,Qstar"
        assert len(lines) == 1 + 2 * 13
        period, x, c_val, g_val, q = lines[1].split(",")
        assert (period, x) == ("1", "-6")
        assert float(c_val) == approx(tables.cost_at(1, -6))
        assert float(g_val) == approx(float(tables.G[0, 0]))
        assert int(q) == tables.qstar_at(1, -6)
        assert text == path_b.read_text()

    def test_matches_rowwise_on_instance_files(self, tmp_path, seasonal_tables,
                                               spiky_tables, lumpy_tables,
                                               volatile_tables):
        seasonal = solve(load_instance(instance_path("seasonal_poisson.json")),
                         seasonal_tables[65].grid)
        for tables in (seasonal, spiky_tables, lumpy_tables, volatile_tables):
            assert_csv_matches_rowwise(tables, tmp_path)

    def test_matches_rowwise_at_unbounded_capacity(self, tmp_path,
                                                   seasonal_tables):
        assert_csv_matches_rowwise(seasonal_tables[math.inf], tmp_path)

    @given(cells=st.lists(csv_cell, min_size=1, max_size=30),
           orders=st.lists(st.integers(0, 10**12), min_size=1, max_size=5),
           size=st.integers(3, 2 * BLOCK + 3), below=st.integers(0, 10**6),
           horizon=st.integers(1, 3))
    @example(cells=[(0.0, -0.0)], orders=[0], size=BLOCK, below=0, horizon=1)
    @example(cells=[(-0.0, 0.0), (1.0, 1.0)], orders=[7], size=BLOCK + 1,
             below=BLOCK // 2, horizon=2)
    @example(cells=[(5e-324, 5e-324), (0.0, -0.0), (1e16, 1e-5)],
             orders=[0, 3], size=2 * BLOCK + 1, below=10**6, horizon=3)
    # the second block starts where the x text changes width: at state e,
    # so x_min = e - BLOCK and below = BLOCK - 1 - e
    @example(cells=[(1.5, 1.5), (-2.0, 3.0)], orders=[0, 7], size=2 * BLOCK + 2,
             below=BLOCK - 1 + 999, horizon=2)
    @example(cells=[(1.5, 1.5), (-2.0, 3.0)], orders=[0, 7], size=2 * BLOCK + 2,
             below=BLOCK - 1 + 9, horizon=2)
    @example(cells=[(1.5, 1.5), (-2.0, 3.0)], orders=[0, 7], size=2 * BLOCK + 2,
             below=BLOCK - 1 - 10, horizon=2)
    @example(cells=[(1.5, 1.5), (-2.0, 3.0)], orders=[0, 7], size=2 * BLOCK + 2,
             below=BLOCK - 1 - 100, horizon=2)
    # a block of distinct orders near the largest the strategy draws
    @example(cells=[(0.25, -0.25)], orders=list(range(10**12, 10**12 - BLOCK, -1)),
             size=BLOCK + 3, below=0, horizon=1)
    @settings(max_examples=60, deadline=None)
    def test_matches_rowwise_on_hand_built_tables(self, cells, orders, size,
                                                  below, horizon):
        x_min = -1 - below % (size - 2)
        grid = Grid(x_min, x_min + size - 1)
        shape = (horizon, size)
        pairs = np.resize(np.array(cells, dtype=np.float64), (horizon * size, 2))
        instance = Instance(horizon=horizon, K=0.0, v=0.0, h=1.0, p=1.0, B=1,
                            demands=(pmf_empirical([0], [1.0]),) * horizon)
        tables = ValueTables(
            C=pairs[:, 0].reshape(shape), G=pairs[:, 1].reshape(shape),
            Qstar=np.resize(np.array(orders, dtype=np.int64), shape),
            grid=grid, instance=instance)
        with tempfile.TemporaryDirectory() as directory:
            assert_csv_matches_rowwise(tables, directory)

    def test_transient_memory_is_bounded(self, tmp_path, lumpy_instance):
        # one block's pieces and texts at a time: about 1.3 MB on the
        # default grid, against about 3.2 MB for one block per whole row
        tables = solve(lumpy_instance)
        tracemalloc.start()
        try:
            tables.to_csv(tmp_path / "lumpy.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6
