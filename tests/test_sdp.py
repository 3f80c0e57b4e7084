import dataclasses
import gc
import math
import tempfile
import textwrap
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx

from conftest import (FIXTURE_GRIDS, certifying_floor, instance_path,
                      run_fresh)
from stochinv import (DEFAULT_GRID, CexSearchParams, Grid, GridSpanError,
                      Instance, ValueTables, build_design, check_cop, cli,
                      expected_cost, load_instance, optimality_gap,
                      pmf_empirical, pmf_parametric, qce_diagnostics,
                      random_instance, read_policy, sdp, search_grid, solve,
                      verify_kb_convexity)
from stochinv.cex import v_monotonicity_report

from oracle import (branchy_expected_continuation, brute_cost_to_go,
                    brute_single_period_loss, brute_slide_levels,
                    brute_window_min, exact_cost_to_go, folded_whole_row_solve,
                    full_row_window_min_finite, full_row_window_min_infinite,
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
        assert tables.C[row][i] == approx(min(g[i], 1.0 + g[i:i + 11].min()))

    def test_order_must_beat_not_ordering_by_the_tie_tolerance(self):
        # demand 0 and h = p = 1 give G(y) = |y|; ordering up to 0 from -10
        # saves 10 - K = 5e-10, inside the 1e-9 tolerance, so no order there
        inst = Instance(horizon=1, K=10.0 - 5e-10, v=0.0, h=1.0, p=1.0, B=20,
                        demands=(pmf_empirical([0], [1.0]),))
        tables = solve(inst, Grid(-40, 60))
        assert tables.qstar_at(1, -10) == 0
        assert tables.qstar_at(1, -11) == 11


def with_orders(window_min):
    """A window-minimum oracle returning (w, q) as a kernel of sdp's shape:
    the same ordering rule, G > (K + w) + 1e-9, writes q where ordering
    pays and 0 elsewhere, and min(G, K + w) into the C row."""
    def kernel(g_row, cap, K, c_row, q_row):
        w, q = window_min(g_row, cap)
        np.add(K, np.asarray(w, dtype=np.float64), out=c_row)
        q_row[...] = np.where(g_row > c_row + 1e-9, q, 0)
        np.minimum(g_row, c_row, out=c_row)
    return kernel


def window_rows(kernel, g_row, cap, K):
    """The C and Q rows a window kernel writes for one row of G."""
    c_row = np.full(g_row.size, np.nan)
    q_row = np.full(g_row.size, -1, dtype=np.int64)
    kernel(g_row, cap, K, c_row, q_row)
    return c_row, q_row


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
NUDGES = [0.0, 5e-10, 1e-9, 2e-9]
near_tie = st.builds(lambda level, nudge: level + nudge,
                     st.integers(0, 3).map(float), st.sampled_from(NUDGES))
# fixed costs at, near and past the tie tolerance, and one that forbids
# every order on rows within [-1e3, 1e3]
fixed_costs = st.sampled_from(NUDGES + [1e3])


def assert_smallest_offsets(row, cap, q_row):
    """With K = 0, each state's order is the brute force's smallest
    attaining offset: the ordering test and the attaining test compare G
    with the same w + 1e-9, so a state that orders never attains at
    offset 0, and one that does not order attains there."""
    assert q_row.tolist() == brute_window_min(row, cap)[1]


def assert_rows_match(g_row, cap, K, window_min):
    """sdp's kernel writes the C and Q rows of window_min under the
    ordering rule, bit for bit, and returns them."""
    c_row, q_row = window_rows(sdp._window_min_finite, g_row, cap, K)
    want_c, want_q = window_rows(with_orders(window_min), g_row, cap, K)
    assert c_row.tobytes() == want_c.tobytes()
    assert np.array_equal(q_row, want_q)
    return c_row, q_row


class TestWindowMinimum:
    """The kernel writes C = min(G, K + w) and the smallest attaining order
    where G > (K + w) + 1e-9, 0 elsewhere, as the oracles do under that rule;
    with K = 0 every state's order is its smallest attaining offset
    (assert_smallest_offsets)."""

    @given(row=st.lists(st.one_of(near_tie, st.floats(-1e3, 1e3)),
                        min_size=1, max_size=40),
           cap=st.integers(1, 50), K=fixed_costs)
    @example(row=[2.5], cap=7, K=0.0)
    # K + w - G is exactly -1e-9 at state 0: ordering saves exactly the
    # tolerance, so nothing is ordered although offset 1 attains w
    @example(row=[2e-9, 0.0], cap=1, K=1e-9)
    # at K = 0, G - w = 1e-9 + 1e-26 rounds to the tolerance, but G lies
    # above w + 1e-9 = 0, where offset 1 attains: the state orders 1
    @example(row=[1e-26, -1e-9], cap=1, K=0.0)
    @settings(max_examples=400, deadline=None)
    def test_matches_brute_force_exactly(self, row, cap, K):
        g_row = np.array(row, dtype=np.float64)
        c_row, q_row = assert_rows_match(g_row, cap, K, brute_window_min)
        if K == 0.0:
            assert_smallest_offsets(row, cap, q_row)

    @given(row=st.lists(st.one_of(near_tie, st.floats(-1e3, 1e3)),
                        min_size=1, max_size=40),
           past=st.integers(0, 5), K=fixed_costs)
    @example(row=[2.5], past=0, K=0.0)
    @example(row=[2e-9, 1e-9, 0.0], past=3, K=1e-9)
    @settings(max_examples=200, deadline=None)
    def test_unbounded_window_matches_brute_force(self, row, past, K):
        # with a window as long as the row or longer (B = inf), the window
        # min is the suffix min
        g_row = np.array(row, dtype=np.float64)
        cap = g_row.size - 1 + past
        c_row, q_row = assert_rows_match(g_row, cap, K, brute_window_min)
        if K == 0.0:
            assert_smallest_offsets(row, cap, q_row)

    @given(row=st.lists(st.one_of(near_tie, st.floats(-1e3, 1e3)),
                        min_size=1, max_size=60),
           cap=st.integers(1, 70), K=fixed_costs)
    # a cap past the row's end, over a row holding both signed zeros
    @example(row=[0.0, -0.0, 1.0, -0.0, 0.0], cap=9, K=0.0)
    @settings(max_examples=200, deadline=None)
    def test_offsets_at_any_states_match_the_full_row(self, row, cap, K):
        g_row = np.array(row, dtype=np.float64)
        assert_rows_match(g_row, cap, K, full_row_window_min_finite)
        assert_rows_match(g_row, cap, K, sliding_window_min)
        # the unbounded window: the suffix min, equal up to the sign of a
        # zero minimum, which K + w erases for every K but -0.0
        assert_rows_match(g_row, g_row.size - 1, K,
                          lambda g, cap: full_row_window_min_infinite(g))

    # rows that fall most of the way, in steps up to 5 with now and then a
    # rise or a step near the tie tolerance, so that many windows take
    # their minimum at their far end only: capacity slides
    @given(row=st.lists(st.one_of(st.floats(-1.0, 5.0), st.sampled_from(NUDGES)),
                        min_size=1, max_size=60).map(
                            lambda steps: (-np.cumsum(steps)).tolist()),
           cap=st.integers(1, 12), K=fixed_costs)
    # state i + cap - 1 sits exactly at w + 1e-9, so state 0 is no slide
    @example(row=[5.0, 1e-9, 0.0], cap=2, K=0.0)
    # slides at states 0 and 1; the windows from state 2 on are cut short
    # by the row's end
    @example(row=[4.0, 3.0, 2.0, 1.0, 0.0], cap=3, K=0.0)
    @example(row=[3.0, 2.0, 1.0, 0.0], cap=3, K=0.0)
    @example(row=[3.0, 2.0, 1.0, 0.0], cap=9, K=0.0)
    @example(row=[2.5], cap=7, K=0.0)
    @example(row=[1.0, 0.0], cap=1, K=0.0)
    @example(row=[0.0, 1.0], cap=1, K=0.0)
    @settings(max_examples=300, deadline=None)
    def test_slides_on_falling_rows_match_the_full_row(self, row, cap, K):
        g_row = np.array(row, dtype=np.float64)
        assert_rows_match(g_row, cap, K, full_row_window_min_finite)
        assert_rows_match(g_row, cap, K, sliding_window_min)


def assert_same_tables(monkeypatch, instance, grid, **references):
    """C, G and Qstar are byte-equal with sdp's kernels swapped for their
    references, given by kernel name."""
    tables = solve(instance, grid)
    with monkeypatch.context() as patch:
        for kernel, reference_kernel in references.items():
            patch.setattr(sdp, kernel, reference_kernel)
        reference = solve(instance, grid)
    for name in ("C", "G", "Qstar"):
        for got, want in zip(getattr(tables, name), getattr(reference, name),
                             strict=True):
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
                           _window_min_finite=with_orders(sliding_window_min))

    def test_random_search_instances(self, monkeypatch):
        params = CexSearchParams(seed=11, budget=200)
        rng = np.random.default_rng(11)
        for _ in range(params.budget):
            instance = random_instance(params, rng)
            assert_same_tables(
                monkeypatch, instance, search_grid(instance),
                _window_min_finite=with_orders(sliding_window_min))


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
    """Solving only up to the structural top Instance.top, as the bed does,
    gives a taller grid's tables bit for bit at every capacity, B = inf
    included: on a grid that reaches the demand ceiling max(sum_t dmax_t,
    1), every G_t rises by more than sigma from a'_t up, and nothing
    orders there. solve refuses a grid that ends below both the top and the
    ceiling, and one whose certified floor exact_from(1) lies above it."""

    @given(points=st.lists(st.dictionaries(st.integers(0, 40),
                                           st.floats(1e-3, 1.0),
                                           min_size=1, max_size=5),
                           min_size=1, max_size=4),
           K=st.floats(0.0, 300.0), v=st.floats(0.0, 10.0),
           h=st.floats(0.01, 5.0), p=st.floats(0.01, 30.0),
           B=st.one_of(st.integers(1, 60), st.just(math.inf)),
           discount=st.floats(0.05, 1.0), x_min=st.integers(-200, -1))
    @example(points=[{3: 0.5, 9: 0.5}] * 3, K=50.0, v=1.0, h=1.0, p=10.0,
             B=1, discount=1.0, x_min=-40)
    # single-point PMFs
    @example(points=[{7: 1.0}, {0: 1.0}, {12: 1.0}], K=20.0, v=2.0, h=1.0,
             p=5.0, B=8, discount=1.0, x_min=-30)
    # no fixed cost
    @example(points=[{0: 0.3, 20: 0.7}] * 2, K=0.0, v=0.5, h=0.5, p=8.0,
             B=15, discount=1.0, x_min=-50)
    @example(points=[{4: 0.25, 30: 0.75}] * 4, K=120.0, v=3.0, h=1.0,
             p=20.0, B=25, discount=0.8, x_min=-150)
    @example(points=[{4: 0.25, 30: 0.75}] * 4, K=120.0, v=3.0, h=1.0,
             p=20.0, B=math.inf, discount=0.8, x_min=-150)
    # a rare large demand: the top lies far below the ceiling
    @example(points=[{3: 0.5, 9: 0.5, 40: 1e-3}] * 3, K=0.0, v=1.0, h=1.0,
             p=5.0, B=4, discount=0.9, x_min=-1)
    @example(points=[{3: 0.5, 9: 0.5, 40: 1e-3}] * 3, K=30.0, v=1.0, h=1.0,
             p=5.0, B=math.inf, discount=1.0, x_min=-1)
    # no demand at all: the top is 1, and a capacity of 40 spans the grid
    @example(points=[{0: 1.0}] * 2, K=5.0, v=1.0, h=1.0, p=4.0, B=40,
             discount=1.0, x_min=-39)
    @settings(max_examples=150, deadline=None)
    def test_tables_match_a_taller_grid(self, points, K, v, h, p, B,
                                        discount, x_min):
        demands = empirical_pmfs(points)
        instance = Instance(horizon=len(demands), K=K, v=v, h=h, p=p, B=B,
                            demands=demands, discount=discount)
        top = instance.top
        # deep enough that period 1 keeps a certified state
        x_min = min(x_min, top + instance.floors[-2])
        trimmed = solve(instance, Grid(x_min, top))
        # 300 states above the top lie above the ceiling, at most 160 here
        tall = solve(instance, Grid(x_min, top + 300))
        shared = trimmed.grid.size
        for name in ("C", "G", "Qstar"):
            got, want = getattr(trimmed, name), getattr(tall, name)
            assert (np.stack(got).tobytes()
                    == np.stack(want)[:, :shared].tobytes()), name
        for t, level in enumerate(sdp._rise_levels(instance)):
            above = tall.grid.index(max(level, x_min))
            assert not tall.Qstar[t][above:].any(), t + 1

    @given(points=st.lists(st.dictionaries(st.integers(0, 40),
                                           st.floats(1e-3, 1.0),
                                           min_size=1, max_size=5),
                           min_size=1, max_size=4),
           K=st.floats(0.0, 300.0), v=st.floats(0.0, 10.0),
           h=st.floats(0.01, 5.0), p=st.floats(0.01, 30.0),
           B=st.one_of(st.integers(1, 60), st.just(math.inf)),
           discount=st.floats(0.05, 1.0), x_min=st.integers(-200, -1))
    @example(points=[{3: 0.5, 9: 0.5, 40: 1e-3}] * 3, K=0.0, v=1.0, h=1.0,
             p=5.0, B=4, discount=0.9, x_min=-1)
    @example(points=[{2: 0.45, 5: 0.45, 40: 0.1}] * 3, K=30.0, v=0.0, h=1.0,
             p=5.0, B=math.inf, discount=1.0, x_min=-1)
    @settings(max_examples=150, deadline=None)
    def test_g_rises_from_each_rise_level(self, points, K, v, h, p, B,
                                          discount, x_min):
        """On a grid that reaches the demand ceiling, every solved G_t
        rises by more than sigma at every state from a'_t up."""
        demands = empirical_pmfs(points)
        instance = Instance(horizon=len(demands), K=K, v=v, h=h, p=p, B=B,
                            demands=demands, discount=discount)
        tables = solve(instance, Grid(x_min, sdp._demand_ceiling(instance)))
        for t, level in enumerate(sdp._rise_levels(instance)):
            rises = np.diff(tables.G[t][tables.grid.index(max(level, x_min)):])
            assert (rises > sdp._SLIDE_MARGIN).all(), (t + 1, level)

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
    # the top, 32, lies below the ceiling, 120, and below exact_from(1) on
    # a grid from -1
    @example(points=[{3: 0.5, 9: 0.5, 40: 1e-3}] * 3, B=5, x_min=-100,
             x_max=31)
    @example(points=[{3: 0.5, 9: 0.5, 40: 1e-3}] * 3, B=5, x_min=-100,
             x_max=32)
    @example(points=[{3: 0.5, 9: 0.5, 40: 1e-3}] * 3, B=math.inf, x_min=-48,
             x_max=32)
    @example(points=[{3: 0.5, 9: 0.5, 40: 1e-3}] * 3, B=math.inf, x_min=-47,
             x_max=32)
    # no demand at all: the top is 1, the lowest top a grid can have
    @example(points=[{0: 1.0}] * 2, B=40, x_min=-1, x_max=1)
    @example(points=[{0: 1.0}] * 2, B=math.inf, x_min=-1, x_max=1)
    @settings(max_examples=200, deadline=None)
    def test_solve_refuses_exactly_the_grids_below_the_top(self, points, B,
                                                           x_min, x_max):
        demands = empirical_pmfs(points)
        ceiling = max(sum(d.max_value for d in demands), 1)
        certified = x_min + sum(d.max_value for d in demands[:-1])
        instance = Instance(horizon=len(demands), K=20.0, v=1.0, h=1.0,
                            p=5.0, B=B, demands=demands)
        grid = Grid(x_min, x_max)
        if x_max >= ceiling:
            tables = solve(instance, grid)
            # a grid that reaches the ceiling never derives the top
            assert "top" not in vars(instance)
        elif x_max < instance.top:
            with pytest.raises(GridSpanError) as excinfo:
                solve(instance, grid)
            assert str(excinfo.value) == (
                f"grid top {x_max} lies below the structural top "
                f"{instance.top}; widen the grid upward")
            return
        elif certified > x_max:
            with pytest.raises(GridSpanError) as excinfo:
                solve(instance, grid)
            assert str(excinfo.value) == (
                f"the certified floor exact_from(1) = {certified} lies above "
                f"the grid top {x_max}; widen the grid downward")
            return
        else:
            tables = solve(instance, grid)
        # every period keeps a certified state
        assert all(tables.exact_from(t) <= x_max
                   for t in range(1, instance.horizon + 1))

    def test_a_certified_floor_above_the_top_is_refused(self):
        """The seasonal fixture's top, 176, lies below its exact_from(1) on
        a grid from -1, 246: refused before solving, as too shallow, even
        though no period would have to order below its certified floor."""
        instance = load_instance(instance_path("seasonal_poisson.json"))
        assert (instance.top, sdp._demand_ceiling(instance)) == (176, 330)
        with pytest.raises(GridSpanError) as excinfo:
            solve(instance, Grid(-1, 176))
        assert str(excinfo.value) == (
            "the certified floor exact_from(1) = 246 lies above the grid top "
            "176; widen the grid downward")
        # from 70 states deeper, period 1 certifies its top state alone
        assert solve(instance, Grid(-71, 176)).exact_from(1) == 176


def line_floors(instance):
    """F^C_t for t = 1..n (see Instance._levels): from there down, period t's
    capacity window lies on a line of G_t."""
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
    gap = optimality_gap(tables, policy.top(), 0)
    return policy.bands, policy.cop_violated, gap


class TestStructuralBottom:
    """Solving whole rows from the cone's certifying floor up to
    Instance.top keeps every certified table entry, band, COP flag and gap
    of a deeper grid that reaches the demand ceiling, and its certified
    floor exact_from(t) lies at or below the cone's R_t. On the deeper
    grid the certified states at or below level_t = max(F^C_t, a_t)
    (Instance._levels) all take one decision, order B or never, and B at
    or below a_t; a line floor F^C_t may lie above the top. The slide
    levels a_t are those of a state-by-state loop over the same bounds, and
    each level_t is max(F^C_t, a_t), or F^C_t where no a_t is found."""

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
        floor, top = certifying_floor(instance), instance.top
        shallow = solve(instance, Grid(floor, top))
        deep = solve(instance, Grid(floor - extra,
                                    sdp._demand_ceiling(instance)))
        for t, ((level, a_t), (start, _)) in enumerate(
                zip(instance._levels, instance.cone), start=1):
            lo = shallow.exact_from(t)
            assert lo <= start, t
            row = t - 1
            kept = slice(deep.grid.index(lo), deep.grid.index(top) + 1)
            for name in ("C", "G", "Qstar"):
                got, want = getattr(shallow, name), getattr(deep, name)
                assert got[row][lo - floor:].tobytes() == \
                    want[row][kept].tobytes(), (name, t)
            first = deep.grid.index(deep.exact_from(t))
            decisions = np.unique(deep.Qstar[row][first:deep.grid.index(level) + 1])
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
        levels = sdp._slide_levels(instance)
        assert [a_t for _, a_t in levels] == brute_slide_levels(instance)
        assert [level for level, _ in levels] == [
            line_c if a_t is None else max(line_c, a_t)
            for line_c, (_, a_t) in zip(line_floors(instance), levels)]



class TestCertifiedOnly:
    """solve(instance), with no grid, computes each period only on the
    instance's cone: C and Qstar from the cone's R_t, its exact_from(t), G
    from g_solved_from(t) (Instance.cone), folding the one-period cost
    into the continuation, on tables that span Grid(min(min_t R_t, -1),
    Instance.top). There C, G and Qstar are, state for state, bit for bit
    those of the whole-row reference that folds it the same way over rows
    padded with the clamp (folded_whole_row_solve) on every grid that
    certifies the cone, and each row holds only the states from its start
    up. Against the whole-row solve on such a grid, which adds the
    closed-form loss row and sums the continuation point by point, Qstar
    is equal, C and G agree within 1e-13 of |value| + v max|x| wherever
    the exact rational tables do not show the whole-row solve itself off
    by more than that, and at a finite capacity the bands, COP flags and
    exact gap are the same.
    Grids run from the cone's certifying floor down to 300 states below
    it, and up to 50 states above the structural top."""

    @given(points=st.lists(st.dictionaries(st.integers(0, 40),
                                           st.floats(1e-3, 1.0),
                                           min_size=1, max_size=5),
                           min_size=1, max_size=4),
           K=st.floats(0.0, 300.0), v=st.floats(0.0, 30.0),
           h=st.floats(0.01, 5.0), p=st.floats(0.01, 30.0),
           B=st.one_of(st.integers(1, 60), st.just(math.inf)),
           discount=st.floats(0.05, 1.0), depth=st.integers(0, 300),
           extra=st.integers(0, 50))
    @example(points=[{4: 0.25, 30: 0.75}] * 4, K=120.0, v=3.0, h=1.0,
             p=20.0, B=math.inf, discount=1.0, depth=150, extra=0)
    @example(points=[{4: 0.25, 30: 0.75}] * 4, K=120.0, v=3.0, h=1.0,
             p=20.0, B=25, discount=0.8, depth=300, extra=0)
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
    # the whole-row solve's closed-form loss row is 7.1e-14 off the exact
    # C(1, x) = G(1, 39) = 0.0872..., 8.2 times the 1e-13 bound, where the
    # folded value is 4.8e-18 off
    @example(points=[{22: 0.032, 39: 0.929, 31: 0.043}, {5: 1.0}], K=0.0,
             v=0.0, h=0.0625, p=10.0, B=math.inf, discount=1.0, depth=0,
             extra=0)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_full_solve_on_the_certified_range(
            self, points, K, v, h, p, B, discount, depth, extra):
        instance = Instance(horizon=len(points), K=K, v=v, h=h, p=p, B=B,
                            demands=empirical_pmfs(points), discount=discount)
        top = instance.top
        grid = Grid(certifying_floor(instance) - depth, top + extra)
        full = solve(instance, grid)
        folded = dict(zip(("C", "G", "Qstar"),
                          folded_whole_row_solve(instance, grid)))
        certified = solve(instance)
        cone = instance.cone
        assert certified.cone == cone and full.cone is None
        narrow = certified.grid
        assert narrow == Grid(min(min(first for first, _ in cone), -1), top)
        # relative to the largest term an entry sums: G(y) adds v y to the
        # loss and the continuation, and C(x) subtracts v x from G, so
        # either may lie near 0 while v |y| does not
        purchase = v * max(-grid.x_min, grid.x_max)
        exact = None
        # each whole-row table's columns up to the certified tables' top
        end = grid.index(top) + 1
        for t in range(1, instance.horizon + 1):
            row = t - 1
            first, g_first = certified.exact_from(t), certified.g_solved_from(t)
            # each certified row holds its cone's states alone, up to the top
            assert (first, g_first) == cone[row]
            assert (certified.C[row].size == certified.Qstar[row].size
                    == top - first + 1)
            assert certified.G[row].size == top - g_first + 1
            # the grid certifies the cone; at B = inf the cone is the
            # certified range of the grid's floor raised by depth
            assert full.exact_from(t) <= first <= g_first <= top
            if B == math.inf:
                assert first == g_first == full.exact_from(t) + depth
            assert full.g_solved_from(t) == grid.x_min
            # each whole-row table's column of the state, from the cone's
            # starts up
            lo, g_lo = grid.index(first), grid.index(g_first)
            starts = {"C": lo, "G": g_lo, "Qstar": lo}
            for name, start in starts.items():
                got = getattr(certified, name)[row]
                want = folded[name][row, start:end]
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64)), (name, t)
            assert np.array_equal(certified.Qstar[row],
                                  full.Qstar[row][lo:end]), t
            for name in ("C", "G"):
                start = starts[name]
                got = getattr(certified, name)[row]
                want = getattr(full, name)[row][start:end]
                bound = 1e-13 * (np.abs(want) + purchase)
                # past the bound only as far as the whole-row solve is
                # itself off the exact value
                for i in np.flatnonzero(np.abs(got - want) > bound).tolist():
                    if exact is None:
                        exact = exact_cost_to_go(
                            instance, q_cap=top - grid.x_min)
                    value = getattr(exact, name)(t, grid.x_min + start + i)
                    off = abs(Fraction(want[i]) - value)
                    assert (abs(Fraction(got[i]) - Fraction(want[i]))
                            <= Fraction(bound[i]) + off), (name, t, i)
        if B != math.inf:
            # the states below R_t change no band, flag or gap: each takes
            # R_t's decision (Instance._levels). At B = inf the cone
            # is the search grid's certified range, below which a period
            # may still order, and a deeper grid may read a band there
            assert policy_outcome(certified) == policy_outcome(full)

    def test_readers_refuse_a_state_below_the_row(self):
        # the first Poisson bed point: period 1 is solved from R_1 = -25,
        # on tables that start at -236 and end at the top, 560; its row
        # holds no state below R_1, on the tables or below them
        instance = build_design(("poisson",))[0].instance
        tables = solve(instance)
        assert (tables.grid.x_min, tables.exact_from(1)) == (-236, -25)
        assert tables.C[0].size == tables.Qstar[0].size == 560 + 25 + 1
        for x in (-1317, -236, -26, 561):
            for read in (tables.cost_at, tables.qstar_at):
                with pytest.raises(ValueError, match=(
                        rf"^state {x} lies outside period 1's rows "
                        r"\[-25, 560\]$")):
                    read(1, x)
        assert tables.qstar_at(1, -25) == instance.B
        assert math.isfinite(tables.cost_at(1, -25))
        # whole rows hold a value at every state of their grid
        whole = solve(instance, Grid(-1317, instance.top))
        assert math.isfinite(whole.cost_at(1, -1317))

    def test_only_whole_rows_take_the_closed_form_loss_row(self, monkeypatch):
        # a certified row folds l into its one convolution, the last row too
        # (C_{n+1} = 0); a whole row adds the closed form, once per period
        calls = []
        loss_row = sdp._loss_row
        monkeypatch.setattr(sdp, "_loss_row",
                            lambda *args: calls.append(1) or loss_row(*args))
        pmf = pmf_empirical([0, 2, 3], [0.2, 0.5, 0.3])
        instance = Instance(horizon=3, K=5.0, v=1.0, h=1.0, p=4.0, B=4,
                            demands=(pmf,) * 3)
        solve(instance)
        assert calls == []
        solve(instance, search_grid(instance))
        assert len(calls) == instance.horizon

    def test_certified_tables_are_never_written(self, tmp_path):
        # their capacity slides hold C and Qstar but no G
        instance = Instance(horizon=2, K=5.0, v=1.0, h=1.0, p=4.0, B=4,
                            demands=(pmf_empirical([2], [1.0]),) * 2)
        tables = solve(instance)
        assert tables.exact_from(1) < tables.g_solved_from(1)
        with pytest.raises(ValueError, match="certified tables hold no G"):
            tables.to_csv(tmp_path / "certified.csv")
        assert not (tmp_path / "certified.csv").exists()


def two_period_instance():
    """TestGridValidation.test_cone's instance: its certified tables span
    Grid(-2, 8), period 1's rows from R_1 = 0 (G from g_1 = 1), period 2's
    from R_2 = -2 (G from g_2 = 1), and period 2's top band is (5, 7)."""
    return Instance(horizon=2, K=1.0, v=0.0, h=1.0, p=1.0, B=3,
                    demands=(pmf_empirical([0, 3], [0.5, 0.5]),
                             pmf_empirical([7], [1.0])))


def starting_at(tables, name, first):
    """The tables with period 2's row of C, G or Qstar (name) cut to
    start at the state first."""
    rows = list(getattr(tables, name))
    rows[1] = rows[1][first - (tables.grid.x_max + 1 - rows[1].size):]
    return dataclasses.replace(tables, **{name: tuple(rows)})


# each reader of period 2 (of period 1 for expected_cost, where the pass
# starts), given tables and the state it is to read first, and the table
# whose row a reader that takes no state reads from a floor of its own
# (exact_from, the G row's start, s_m + 1)
ROW_READERS = {
    "cost_at": (None, lambda tables, x: tables.cost_at(2, x)),
    "qstar_at": (None, lambda tables, x: tables.qstar_at(2, x)),
    "check_cop": (None, lambda tables, x: check_cop(tables, 2, from_state=x)),
    "expected_cost": (None, lambda tables, x: expected_cost(
        tables.instance, tables.grid, tables.Qstar, x)),
    "verify_kb_convexity": ("C", lambda tables, x: verify_kb_convexity(tables, 2)),
    "v_monotonicity_report": ("C", lambda tables, x: v_monotonicity_report(
        tables, 2)),
    "qce_diagnostics": ("G", lambda tables, x: qce_diagnostics(tables, 2)),
}


class TestEveryReaderStaysInItsRow:
    """On certified tables every reader raises for a state one below the
    row it reads; on whole rows, which all start at x_min, the same
    readers read from x_min."""

    # the state each reader reads first on the certified tables: one below
    # R_2 = -2, one below R_1 = 0, exact_from(2) = -2, g_2 = 1 and s_m + 1
    BELOW = {"cost_at": -3, "qstar_at": -3, "check_cop": -3,
             "expected_cost": -1, "verify_kb_convexity": -2,
             "v_monotonicity_report": 1, "qce_diagnostics": 6}

    @pytest.mark.parametrize("reader", sorted(ROW_READERS))
    def test_certified_rows(self, reader):
        tables = solve(two_period_instance())
        assert tables.grid == Grid(-2, 8)
        x = self.BELOW[reader]
        if reader == "expected_cost":
            message = (rf"^period 1 reads the state {x}, below its row of "
                       rf"orders, which starts at {x + 1}$")
        else:
            row = "G row" if reader == "qce_diagnostics" else "rows"
            message = rf"^state {x} lies outside period 2's {row} \[{x + 1}, 8\]$"
        cut, read = ROW_READERS[reader]
        if cut:
            # the row starts one state above the reader's own floor
            tables = starting_at(tables, cut, x + 1)
        with pytest.raises(ValueError, match=message):
            read(tables, x)

    @pytest.mark.parametrize("reader", sorted(ROW_READERS))
    def test_whole_rows(self, reader):
        # the last period is certified from x_min: exact_from(2) = -6
        tables = solve(two_period_instance(), Grid(-6, 10))
        assert tables.exact_from(2) == tables.grid.x_min == -6
        assert all(row.size == 17 for name in ("C", "G", "Qstar")
                   for row in getattr(tables, name))
        ROW_READERS[reader][1](tables, -6)


def assert_cone_matches_folded(tables, grid):
    """Certified tables' rows hold the bits of folded_whole_row_solve on
    grid, a whole-row grid that certifies the cone, state for state: C and
    Qstar from R_t, G from g_t, up to the certified tables' top."""
    folded = dict(zip(("C", "G", "Qstar"),
                      folded_whole_row_solve(tables.instance, grid)))
    end = grid.index(tables.grid.x_max) + 1
    for row, (first, g_first) in enumerate(tables.cone):
        for name, start in (("C", first), ("G", g_first), ("Qstar", first)):
            got = getattr(tables, name)[row]
            want = folded[name][row, grid.index(start):end]
            assert np.array_equal(got.view(np.int64),
                                  want.view(np.int64)), (name, row + 1)


def slide_cone_cases(test):
    """TestSlideCone's instances and grid depths, as Hypothesis draws them."""
    test = settings(max_examples=100, deadline=None)(test)
    # no fixed cost, v >= p, a discount, no demand before the last period,
    # and B p <= K
    for case in reversed((
            dict(points=[{3: 0.5, 9: 0.5}] * 3, K=0.0, v=1.0, h=1.0, p=10.0,
                 B=4, discount=1.0, depth=0),
            dict(points=[{2: 0.4, 15: 0.6}] * 3, K=30.0, v=12.0, h=1.0,
                 p=8.0, B=20, discount=1.0, depth=300),
            dict(points=[{4: 0.25, 30: 0.75}] * 4, K=120.0, v=3.0, h=1.0,
                 p=20.0, B=25, discount=0.8, depth=17),
            dict(points=[{0: 1.0}, {0: 1.0}, {5: 0.5, 12: 0.5}], K=40.0,
                 v=1.0, h=1.0, p=6.0, B=9, discount=1.0, depth=0),
            dict(points=[{2: 0.5, 6: 0.5}, {1: 0.7, 4: 0.3}, {3: 0.5, 5: 0.5}],
                 K=60.0, v=1.0, h=1.0, p=6.0, B=8, discount=1.0, depth=300))):
        test = example(**case)(test)
    return given(points=st.lists(st.dictionaries(st.integers(0, 40),
                                                 st.floats(1e-3, 1.0),
                                                 min_size=1, max_size=5),
                                 min_size=1, max_size=4),
                 K=st.floats(0.0, 300.0), v=st.floats(0.0, 30.0),
                 h=st.floats(0.01, 5.0), p=st.floats(0.01, 30.0),
                 B=st.integers(1, 60), discount=st.floats(0.05, 1.0),
                 depth=st.integers(0, 300))(test)


class TestSlideCone:
    """solve(instance) starts each period's C and Qstar rows at the cone's
    R_t and its G row at g_t (Instance.cone), on tables that span the cone
    alone, from min(min_t R_t, -1) to the structural top. From the starts
    C, Qstar and G are, state for state, bit for bit those of the folded
    whole-row reference (folded_whole_row_solve) on grids from the cone's
    certifying floor down to 300 states below it, the states [R_t, g_t)
    all order B, and the bands, COP flags and exact gap are those of a
    deep grid solved on whole rows."""

    @slide_cone_cases
    def test_cone_tables_and_policy(self, points, K, v, h, p, B, discount,
                                    depth):
        instance = Instance(horizon=len(points), K=K, v=v, h=h, p=p, B=B,
                            demands=empirical_pmfs(points), discount=discount)
        floor, top = certifying_floor(instance), instance.top
        tables = solve(instance)
        cone = instance.cone
        assert [(tables.exact_from(t), tables.g_solved_from(t))
                for t in range(1, instance.horizon + 1)] == list(cone)
        assert_cone_matches_folded(tables, Grid(floor - depth, top))
        for row, (first, g_first) in enumerate(cone):
            assert (tables.Qstar[row][:g_first - first] == B).all(), row + 1
        deep = solve(instance, Grid(floor - 800, sdp._demand_ceiling(instance)))
        assert policy_outcome(tables) == policy_outcome(deep)

    @slide_cone_cases
    def test_tables_span_only_the_cone(self, points, K, v, h, p, B, discount,
                                       depth):
        instance = Instance(horizon=len(points), K=K, v=v, h=h, p=p, B=B,
                            demands=empirical_pmfs(points), discount=discount)
        tables = solve(instance)
        cone = tables.cone
        lowest = min(first for first, _ in cone)
        narrow = tables.grid
        assert cone == instance.cone
        assert narrow == Grid(min(lowest, -1), instance.top)
        assert_cone_matches_folded(
            tables, Grid(certifying_floor(instance) - depth, instance.top))
        for row, (first, g_first) in enumerate(cone):
            # each row holds its own states alone, from its start to the top
            assert tables.C[row].size == tables.Qstar[row].size == \
                narrow.x_max - first + 1
            assert tables.G[row].size == narrow.x_max - g_first + 1
        # no state lies below the cone: the longest row starts at the
        # lowest R_t, and only the -1 that keeps 0 on the grid lies below it
        longest = max(row.size for row in tables.Qstar)
        assert narrow.x_max + 1 - longest == lowest
        assert longest == narrow.size or narrow.x_min == -1


class TestExactTables:
    """Certified tables, as the bed solves them, against the exact rational
    tables (exact_cost_to_go). Let S_t be the largest magnitude of a term
    that rows t..n sum on the states solve computes (C from exact_from, G
    from g_solved_from): K, v x, l(x') = h x'+ + p x'- at each level
    x' = y - d read, C and G. Each solved entry of C and G in row t lies
    within ULPS (n - t + 1) eps S_t of the exact value, as each period's
    rounding carries into the earlier ones. Every row folds l into its
    continuation's convolution. Measured over 3,000 draws and the examples
    below, in units of (n - t + 1) eps S_t: at most 0.70 on the rows before
    the last and 1.23 on the last row."""

    ULPS = 4

    @given(points=st.lists(st.dictionaries(st.integers(0, 12),
                                           st.floats(1e-3, 1.0),
                                           min_size=1, max_size=3),
                           min_size=1, max_size=3),
           K=st.floats(0.0, 50.0), v=st.floats(0.0, 10.0),
           h=st.floats(0.01, 5.0), p=st.floats(0.01, 30.0),
           B=st.one_of(st.integers(1, 12), st.just(math.inf)),
           discount=st.floats(0.05, 1.0))
    # TestCertifiedOnly's instance where the closed-form loss row is off
    @example(points=[{22: 0.032, 39: 0.929, 31: 0.043}, {5: 1.0}], K=0.0,
             v=0.0, h=0.0625, p=10.0, B=math.inf, discount=1.0)
    # a closed-form loss row on the last row put C(1, 0) 4451/2^64 off the
    # exact value, over the bound 2^-52: it subtracts terms of magnitude 1
    # (y F(y), mu, M1(y)) that S_1 = 0.25 does not count
    @example(points=[{1: 1.0, 0: 0.001}], K=0.0, v=0.0, h=0.25, p=1.0, B=1,
             discount=1.0)
    @settings(max_examples=60, deadline=None)
    def test_entries_are_exact_to_a_few_ulps(self, points, K, v, h, p, B,
                                             discount):
        instance = Instance(horizon=len(points), K=K, v=v, h=h, p=p, B=B,
                            demands=empirical_pmfs(points), discount=discount)
        tables = solve(instance)
        # the tables' own grid, which spans only the cone
        grid = tables.grid
        exact = exact_cost_to_go(instance, q_cap=instance.top - grid.x_min)
        n, largest = instance.horizon, K
        for t in range(n, 0, -1):
            row = t - 1
            lo = grid.index(tables.exact_from(t))
            g_lo = grid.index(tables.g_solved_from(t))
            states = grid.states[lo:]
            reads = np.arange(grid.states[g_lo] - instance.demands[row].max_value,
                              grid.x_max + 1, dtype=np.float64)
            largest = max(largest, np.abs(v * states).max(),
                          np.maximum(h * reads, -p * reads).max(),
                          np.abs(tables.C[row]).max(),
                          np.abs(tables.G[row]).max())
            bound = Fraction(self.ULPS * (n - t + 1) * np.finfo(float).eps
                             * largest)
            for name, start in (("C", lo), ("G", g_lo)):
                got = getattr(tables, name)[row].tolist()
                value = getattr(exact, name)
                for x, entry in zip(grid.states[start:].tolist(), got,
                                    strict=True):
                    assert abs(Fraction(entry) - value(t, x)) <= bound, (
                        name, t, x)


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
            assert np.stack(got).tobytes() == np.stack(want).tobytes(), table


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

    def test_states_are_read_only(self):
        # every caller of DEFAULT_GRID reads the one array
        states = DEFAULT_GRID.states
        with pytest.raises(ValueError, match="read-only"):
            states[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            states -= 1
        assert states[0] == DEFAULT_GRID.x_min

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
            assert (np.stack(got).tobytes()
                    == np.stack(want)[:, :grid.size].tobytes()), name

    def test_period_bounds(self, lumpy_tables):
        with pytest.raises(ValueError):
            lumpy_tables.row(0)
        with pytest.raises(ValueError):
            lumpy_tables.row(21)

    @pytest.mark.parametrize("period", [True, 1.0, np.float64(1.0), "1"])
    def test_period_must_be_an_integer(self, lumpy_tables, period):
        # True would read period 1, and 1.0 a row of a float index
        for read in (lambda: lumpy_tables.cost_at(period, 0),
                     lambda: lumpy_tables.qstar_at(period, 0),
                     lambda: check_cop(lumpy_tables, period)):
            with pytest.raises(ValueError, match=(
                    r"^period must be an integer in 1\.\.20, not ")):
                read()
        assert lumpy_tables.cost_at(np.int64(1), 0) == lumpy_tables.cost_at(1, 0)

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
        assert inst.floors == (0, -3, -10)
        # below the demand sum 3 + 7, whatever the capacity: period 2's G
        # rises from 7 = D_2 up, and period 1's from the lattice state 8
        assert sdp._rise_levels(inst) == [8, 7]
        assert inst.top == 8
        # derived once per instance, and kept on it
        assert inst.floors is inst.floors
        assert {"floors", "top"} <= vars(inst).keys()
        unbounded = dataclasses.replace(inst, B=math.inf).top
        assert unbounded == 8 and type(unbounded) is int
        # with no demand at all the top stays a valid grid ceiling
        idle = dataclasses.replace(
            inst, demands=(pmf_empirical([0], [1.0]),) * 2)
        assert idle.top == 1

    def test_the_search_never_derives_the_top_or_the_cone(self):
        """A COP-search instance, solved on search_grid and checked in
        every period, leaves its top, its cone and the levels the cone
        rests on underived: the search grid ends at the demand ceiling."""
        instance = random_instance(CexSearchParams(seed=3, budget=1),
                                   np.random.default_rng(3))
        tables = solve(instance, search_grid(instance))
        for period in range(1, instance.horizon + 1):
            check_cop(tables, period, from_state=tables.exact_from(period))
        assert "floors" in vars(instance)
        assert not {"top", "cone", "_levels"} & vars(instance).keys()

    def test_cli_solve_on_the_default_grid_never_derives_the_top(
            self, tmp_path, monkeypatch, capsys):
        """CLI solve on DEFAULT_GRID, which reaches the seasonal fixture's
        demand ceiling, 330, never derives its top, 176."""
        def derived(instance):
            raise AssertionError("the top was derived")

        path = instance_path("seasonal_poisson.json")
        assert sdp._demand_ceiling(load_instance(path)) <= DEFAULT_GRID.x_max
        monkeypatch.setattr(sdp, "_rise_levels", derived)
        out = str(tmp_path / "seasonal")
        assert cli.main(["solve", path, "--out", out]) == 0
        assert "(s_k, S_k) pairs" in capsys.readouterr().out

    def test_an_instance_is_freed_without_the_collector(self):
        """Reading floors, top and cone makes no reference cycle: with
        the garbage collector off, the last reference frees the instance."""
        inst = Instance(horizon=2, K=1.0, v=0.0, h=1.0, p=1.0, B=3,
                        demands=(pmf_empirical([0, 3], [0.5, 0.5]),
                                 pmf_empirical([7], [1.0])))
        assert (inst.floors, inst.top, inst.cone) == (
            (0, -3, -10), 8, ((0, 1), (-2, 1)))
        ref = weakref.ref(inst)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del inst
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_bottom(self):
        """The levels the cone rests on (Instance._levels): the line floors
        F^C_t, the slide levels a_t and level_t = max(F^C_t, a_t), at and
        below which a whole-row grid takes one decision in period t."""
        demands = (pmf_empirical([0, 3], [0.5, 0.5]), pmf_empirical([7], [1.0]))
        inst = Instance(horizon=2, K=1.0, v=0.0, h=1.0, p=1.0, B=3,
                        demands=demands)
        # F^C_2 = 7 - 3 = 4 and F^C_1 = 0 + min(0, 4) - 3 = -3. The bounds:
        # u_2 = -1 up to 6, so a_2 = 4 (u_2(6) < 0, and 3 > K); c_2 + v =
        # u_2(x + 3) = -1 up to 3, then 0 up to 6; u_1 = 2 F_1 - 1 + c_2 is
        # -2 below 0 and -1 on 0..2, so a_1 = 0 (u_1(2) < 0, and 3 > K)
        assert line_floors(inst) == [-3, 4]
        assert sdp._slide_levels(inst) == inst._levels == ((0, 0), (4, 4))
        # an integral float capacity, which Instance accepts, gives the same
        # int levels
        as_float = dataclasses.replace(inst, B=3.0)._levels
        assert as_float == inst._levels
        assert all(type(x) is int for pair in as_float for x in pair)
        # one period: F^C_1 = 5 - 2 = 3, and a_1 = 3
        one = Instance(horizon=1, K=1.0, v=0.0, h=1.0, p=1.0, B=2,
                       demands=(pmf_empirical([5], [1.0]),))
        assert line_floors(one) == [3] and one._levels == ((3, 3),)
        # no demand before the last period: floor(n) = 0 again. B p = K, so
        # the last period finds no slide level
        late = Instance(horizon=3, K=1.0, v=0.0, h=1.0, p=1.0, B=1,
                        demands=(pmf_empirical([0], [1.0]),) * 2
                        + (pmf_empirical([9], [1.0]),))
        assert late.floors[2] == 0 and line_floors(late) == [-2, -1, 8]
        assert sdp._slide_levels(late) == ((-2, -2), (-1, -1), (8, None))
        # no demand at all: the bound's window, [-B, B + 1], holds no level
        idle = dataclasses.replace(late, demands=(pmf_empirical([0], [1.0]),) * 3)
        assert line_floors(idle) == [-3, -2, -1]
        assert sdp._slide_levels(idle) == ((-3, None), (-2, None), (-1, None))
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
        assert sdp._slide_levels(inst) == ((-1, -1), (-2, None))
        deep = solve(inst, Grid(-40, 10))
        assert (deep.Qstar[0][:deep.grid.index(-1) + 1] == 3).all()
        assert not deep.Qstar[1].any()

    def test_cone(self):
        # test_bottom's first instance: level_1 = a_1 = 0, level_2 = a_2 = 4
        inst = two_period_instance()
        # R_1 = min(0, level_1) = 0 <= a_1, so g_1 = min(0 + 3, 0 + 1) = 1;
        # R_2 = min(1 - 3, 4) = -2 <= a_2, so g_2 = min(-2 + 3, 4 + 1) = 1
        assert inst.cone == ((0, 1), (-2, 1))
        # derived once per instance, and kept on it
        assert inst.cone is inst.cone and "cone" in vars(inst)
        tables = solve(inst)
        assert [(tables.exact_from(t), tables.g_solved_from(t))
                for t in (1, 2)] == [(0, 1), (-2, 1)]
        # the tables start at the lowest R_t, -2, and end at the top, 8
        assert tables.grid == Grid(-2, 8)
        # the slides [R_t, g_t) order B and cost K + G(x + B) - v x
        assert tables.qstar_at(1, 0) == 3
        # G rows start at g_t = 1, so G(3) is entry 2 of period 1's
        assert tables.cost_at(1, 0) == 1.0 + tables.G[0][2]
        assert (tables.Qstar[1][:3] == 3).all()
        assert [row.size for row in tables.G] == [8, 8]
        assert [row.size for row in tables.Qstar] == [9, 11]
        whole = solve(inst, Grid(-6, 10))
        assert whole.grid == Grid(-6, 10) and whole.cone is None
        assert [(whole.exact_from(t), whole.g_solved_from(t))
                for t in (1, 2)] == [(-3, -6), (-6, -6)]
        # an integral float capacity, which Instance accepts, gives int
        # starts that Grid takes
        as_float = dataclasses.replace(inst, B=3.0)
        assert as_float.cone == inst.cone
        assert all(type(x) is int for pair in as_float.cone for x in pair)
        # at B = inf the cone is the plain certified range of whole rows
        # on search_grid, from min(floor(3), -1) = -10
        unbounded = dataclasses.replace(inst, B=math.inf)
        assert unbounded.cone == ((-7, -7), (-10, -10))
        assert solve(unbounded).grid == Grid(-10, 8)
        assert solve(unbounded, search_grid(unbounded)).exact_from(1) == -7
        # one period: level_1 = a_1 = 5 - 2 = 3 lies above x0 = 0, so R_1 =
        # 0 and g_1 = min(0 + 2, 3 + 1) = 2; -1 keeps 0 on the tables' grid
        one = Instance(horizon=1, K=1.0, v=0.0, h=1.0, p=1.0, B=2,
                       demands=(pmf_empirical([5], [1.0]),))
        assert one.cone == ((0, 2),)
        assert solve(one).grid == Grid(-1, 5)
        # test_bottom's late instance: a = (-2, -1, None), F^C_3 = 8.
        # R_1 = -2 = a_1, g_1 = min(-1, -1); R_2 = min(-1, -1) = a_2, g_2 =
        # min(0, 0); R_3 = min(0, 8) = 0, with no slide below it
        late = Instance(horizon=3, K=1.0, v=0.0, h=1.0, p=1.0, B=1,
                        demands=(pmf_empirical([0], [1.0]),) * 2
                        + (pmf_empirical([9], [1.0]),))
        assert late.cone == ((-2, -1), (-1, 0), (0, 0))
        # no demand at all: no slide level, and the line floors -3, -2, -1
        # keep every R_t at -3
        idle = dataclasses.replace(late, demands=(pmf_empirical([0], [1.0]),) * 3)
        assert idle.cone == ((-3, -3),) * 3
        # test_bottom's two-period instance, a = (-1, None): R_1 = min(0,
        # -1) = -1 = a_1, so g_1 = min(2, 0) = 0; R_2 = min(0 - 2, -2) = -2
        inst = Instance(horizon=2, K=13.0, v=0.0, h=1.0, p=4.0, B=3,
                        demands=(pmf_empirical([2], [1.0]),
                                 pmf_empirical([1], [1.0])))
        assert inst.cone == ((-1, 0), (-2, -2))

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
    for column, table in ((2, np.stack(tables.C)), (3, np.stack(tables.G))):
        parsed = np.array([float(f[column]) for f in fields]).reshape(table.shape)
        assert parsed.tobytes() == table.tobytes()


def below(x):
    return math.nextafter(x, -math.inf)


def above(x):
    return math.nextafter(x, math.inf)


# floats at the edges of the rule by which _float_texts shares a class's
# text between values that differ by integers
ONE_ULP_BELOW_AN_INTEGER = [below(n) for n in (3.0, 5.0, 10.0, 101.0, 1e15)]
NEIGHBOURS = (below, float, above)
POWERS_OF_TWO = [f(2.0 ** e) for e in (1, 2, 3, 10, 50) for f in NEIGHBOURS]
DECADE_EDGES = ([f(10.0 ** d - 1) for d in (1, 2, 3, 15, 16) for f in NEIGHBOURS]
                + [10.0 ** d - 0.5 for d in (1, 2, 3, 15)])
BOUNDS = ([f(b) for b in (1.0, 2.0) for f in NEIGHBOURS] + [below(below(2.0))]
          + [2.0 ** 51, 2.0 ** 52 - 0.5, 2.0 ** 52, 2.0 ** 53])
# one fraction in two binades: 4.1 and 4.1 - 2 differ by 2, yet print
# different fraction digits
ACROSS_BINADES = [4.1 - 2.0, 4.1, 1000.1 - 512.0, 1000.1]
EDGE_FLOATS = (ONE_ULP_BELOW_AN_INTEGER + POWERS_OF_TWO + DECADE_EDGES + BOUNDS
               + ACROSS_BINADES)
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, below(2.2250738585072014e-308),
                  math.inf, -math.inf, math.nan]
EDGE_SHIFTS = [1, -1, 2, 9, -10]

# values whose text a shortcut could get wrong: signed zeros, the extremes
# of magnitude, subnormals, integral floats (repr keeps their ".0"), and
# the edges above with their negatives
csv_value = st.one_of(
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 1e-5, 5e-324, -5e-324,
                     -1.7976931348623157e308, -123456.0, 3.0, *EDGE_FLOATS,
                     *(-v for v in EDGE_FLOATS), *SPECIAL_FLOATS]),
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
        assert float(g_val) == approx(float(tables.G[0][0]))
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

    # values x and x + k for each k, in one array: a value in [2, 2**52)
    # shares its class with those of its binade that differ by an integer
    @given(shifted=st.lists(
        st.tuples(st.one_of(csv_value, st.floats(2, 2.0 ** 52)),
                  st.lists(st.one_of(st.integers(-10, 10),
                                     st.integers(-2**52, 2**52)), max_size=4)),
        min_size=1, max_size=30))
    @example(shifted=[(x, EDGE_SHIFTS) for x in ONE_ULP_BELOW_AN_INTEGER])
    @example(shifted=[(x, EDGE_SHIFTS) for x in POWERS_OF_TWO])
    @example(shifted=[(x, EDGE_SHIFTS) for x in DECADE_EDGES])
    @example(shifted=[(x, EDGE_SHIFTS) for x in BOUNDS])
    @example(shifted=[(x, [2]) for x in ACROSS_BINADES])
    @example(shifted=[(-x, EDGE_SHIFTS) for x in EDGE_FLOATS])
    @example(shifted=[(x, EDGE_SHIFTS) for x in SPECIAL_FLOATS])
    @settings(max_examples=200, deadline=None)
    def test_float_texts_give_each_repr(self, shifted):
        values = [x + k for x, shifts in shifted for k in [0, *shifts]]
        heads, tails = sdp._float_texts(np.array(values))
        assert list(map(str.__add__, heads, tails)) == \
               list(map(float.__repr__, values))

    def test_transient_memory_is_bounded(self, tmp_path, lumpy_instance):
        # one block of 2048 states' pieces and texts at a time: about
        # 1.1 MB on the default grid, against about 2.1 MB for blocks of
        # 4096 states
        tables = solve(lumpy_instance, DEFAULT_GRID)
        tracemalloc.start()
        try:
            tables.to_csv(tmp_path / "lumpy.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6
