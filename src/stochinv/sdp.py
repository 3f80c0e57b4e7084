"""Backward dynamic programming for capacitated stochastic lot sizing.

State is net inventory on a unit-step grid. Each period the controller may
order up to B units before demand, paying a fixed cost K plus v per unit;
holding and penalty costs accrue on the post-demand position. Demand is a
finite integer PMF per period, independent across periods.

solve runs one backward pass per period over the whole grid row:
G(y) = v y + L(y) + discount E[C_{t+1}(y - d)], then the minimum of G over
each capacity window and C(x) = -v x + min(G(x), K + window min). With
B = inf the window is as wide as the row, since no order can reach past
the top of the grid, so one kernel serves both problems. Each kernel
does only the work the tables read. The loss row L looks partial sums up
only on the demand support and is closed form below and above it.
The window minimum returns the minimum everywhere but searches for the
smallest attaining order only at the states where ordering pays, since
Qstar is zero everywhere else. Most of those lie far below the bands and
are capacity slides: no smaller order comes within the tie tolerance of
the best one, so the order is the whole capacity B. One range-minimum
query decides a slide, and only the other ordering states are searched.

Reach derives, from the instance alone, each period's reachable floor and
the structural top above which no grid orders. The certified ranges of
ValueTables (exact_from, exact_to), solve's width check, the bed's trimmed
grid and the COP search grid are all read off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .demand import DemandPMF

_TIE_TOL = 1e-9
# states per write in ValueTables.to_csv: enough to amortise the per-block
# calls, few enough that one block's pieces and texts stay small in memory
_CSV_BLOCK = 4096


def _is_integral(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


class GridSpanError(ValueError):
    """The state grid cannot represent the instance's reachable states."""


@dataclass(frozen=True)
class Instance:
    """One finite-horizon problem: cost parameters plus per-period demand.

    Periods are indexed 1..horizon in forward time; demands[0] is the first
    period's PMF. B may be math.inf for the uncapacitated problem.
    """

    horizon: int
    K: float
    v: float
    h: float
    p: float
    B: int | float
    demands: tuple[DemandPMF, ...]
    discount: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "demands", tuple(self.demands))
        if (isinstance(self.horizon, bool) or not isinstance(self.horizon, int)
                or self.horizon < 1):
            raise ValueError("horizon must be a positive integer")
        if len(self.demands) != self.horizon:
            raise ValueError("need exactly one demand PMF per period")
        for name in ("K", "v", "h", "p", "discount"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a boolean")
        if not all(math.isfinite(c) for c in (self.K, self.v, self.h, self.p)):
            raise ValueError("K, v, h and p must be finite")
        if self.K < 0 or self.v < 0:
            raise ValueError("K and v must be nonnegative")
        if self.h <= 0 or self.p <= 0:
            raise ValueError("h and p must be positive")
        if isinstance(self.B, (bool, np.bool_)) or not (
                self.B == math.inf or (float(self.B).is_integer() and self.B >= 1)):
            raise ValueError("B must be a positive integer or math.inf")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")


@dataclass(frozen=True)
class Grid:
    """Unit-step inventory grid spanning [x_min, x_max]."""

    x_min: int
    x_max: int

    def __post_init__(self):
        if not (_is_integral(self.x_min) and _is_integral(self.x_max)):
            raise ValueError("grid bounds must be integers")
        if not self.x_min < 0 < self.x_max:
            raise ValueError("grid must satisfy x_min < 0 < x_max")

    @property
    def size(self) -> int:
        return self.x_max - self.x_min + 1

    @cached_property
    def states(self) -> np.ndarray:
        return np.arange(self.x_min, self.x_max + 1)

    def index(self, x: int) -> int:
        if not _is_integral(x):
            raise ValueError(f"state {x!r} is not an integer")
        if not self.x_min <= x <= self.x_max:
            raise ValueError(f"state {x} off the grid [{self.x_min}, {self.x_max}]")
        return int(x) - self.x_min


DEFAULT_GRID = Grid(-10000, 10000)


@dataclass(frozen=True)
class Reach:
    """Where an instance's states can go, derived from its demands alone.

    floors[t - 1] is floor(t) = -sum_{s<t} dmax_s for t = 1..n+1: the
    lowest state period t can start in from x0 = 0, the start every caller
    uses. floor(n + 1) is minus the sum of all per-period maximum demands.

    top = max(sum_t dmax_t, 1), for every capacity B including math.inf,
    is the structural top: on any grid that reaches it, every state's
    tables are bit for bit those of every taller grid, and no grid orders
    above it. Let D_t = sum_{s>=t} dmax_s <= top.
    - From x >= D_t no demand path goes short, so G_t rises by at least
      h > 0 per state there. By induction from the last period: L_t rises
      by h, C_{t+1} = G_{t+1} - v x by at least h - v, so G_t by at least
      v + h + discount (h - v) >= h, as v >= 0 and discount <= 1.
    - So every window [x, x + B] takes its minimum, and has its first
      state within the tie tolerance, at or below max(x, D_t): at x itself
      from D_t up, where nothing orders and C_t = G_t - v x, and at or
      below D_t <= top under it. A window cut at the top of such a grid
      therefore has the same minimum and the same smallest order.
    - The continuation reads only lower states.
    By induction over periods and ascending states, every order and value
    on such a grid, and with them the bands, the COP flags and the exact
    gap, are therefore those of any taller grid. The max keeps top a valid
    grid ceiling when no period has positive demand.
    """

    floors: tuple[int, ...]
    top: int

    @classmethod
    def of(cls, instance: Instance) -> Reach:
        floors = [0]
        for pmf in instance.demands:
            floors.append(floors[-1] - pmf.max_value)
        return cls(tuple(floors), max(-floors[-1], 1))

    def floor(self, period: int) -> int:
        """Lowest state reachable at the start of period 1..n+1 from x0 = 0."""
        if not 1 <= period <= len(self.floors):
            raise ValueError(f"period must be in 1..{len(self.floors)}")
        return self.floors[period - 1]


@dataclass(frozen=True)
class ValueTables:
    """Solved value and action tables.

    Rows are forward periods 1..n (row 0 = first period); columns follow
    grid.states. C is the optimal cost-to-go before ordering, G the
    order-up-to cost curve, Qstar the optimal order quantity.
    """

    C: np.ndarray
    G: np.ndarray
    Qstar: np.ndarray
    grid: Grid
    instance: Instance

    @cached_property
    def _reach(self) -> Reach:
        return Reach.of(self.instance)

    def row(self, period: int) -> int:
        """0-based row index for a 1-based forward period."""
        n = self.instance.horizon
        if not 1 <= period <= n:
            raise ValueError(f"period must be in 1..{n}")
        return period - 1

    def exact_from(self, period: int) -> int:
        """Lowest state whose values are unaffected by the lower grid edge.

        Demand in this and the later periods before the last carries a
        state at most floor(period) - floor(n) down, and the last row is
        exact everywhere: it clamps against exact terminal zeros.
        """
        self.row(period)   # rejects a period outside 1..n
        reach = self._reach
        return self.grid.x_min + reach.floor(period) - reach.floor(self.instance.horizon)

    def exact_to(self, period: int) -> int:
        """Highest state whose values are unaffected by the upper grid edge.

        On a grid that reaches the structural top (see Reach) every state is
        exact, so this is x_max. On a lower grid it is the state from which
        no order in this or any later period can reach past the top of the
        grid, so no capacity window is cut short. With B = inf below the
        top no finite window bounds the lookahead, so there is no such state.
        """
        remaining = self.instance.horizon - self.row(period)
        if self.grid.x_max >= self._reach.top:
            return self.grid.x_max
        if self.instance.B == math.inf:
            raise ValueError("below the top, exact_to needs a finite capacity B")
        return self.grid.x_max - int(self.instance.B) * remaining

    def qstar_at(self, period: int, x: int) -> int:
        return int(self.Qstar[self.row(period), self.grid.index(x)])

    def cost_at(self, period: int, x: int) -> float:
        return float(self.C[self.row(period), self.grid.index(x)])

    def to_csv(self, path) -> None:
        """One row per (period, state): period, x, C, G, Qstar.

        Floats are written with repr, so float() of a field gives back the
        table entry bit for bit. Each block of states is built by
        _csv_block as one string and written at once. The x texts are
        formatted once per call, one string per block, and split again for
        every period; no per-state string outlives its block.
        """
        states = range(self.grid.x_min, self.grid.x_max + 1)
        x_texts = [",\n".join(map(str, states[lo:lo + _CSV_BLOCK])) + ","
                   for lo in range(0, len(states), _CSV_BLOCK)]
        with open(path, "w") as fh:
            fh.write("period,x,C,G,Qstar\n")
            for t in range(self.instance.horizon):
                prefix = f"{t + 1},"
                for lo, x_text in zip(range(0, self.grid.size, _CSV_BLOCK), x_texts):
                    block = slice(lo, lo + _CSV_BLOCK)
                    fh.write(_csv_block(prefix, x_text, self.C[t, block],
                                        self.G[t, block], self.Qstar[t, block]))


def _csv_block(prefix: str, x_text: str, c: np.ndarray, g: np.ndarray,
               q: np.ndarray) -> str:
    """The CSV rows of one block of states in one period, as one string.

    A row is six pieces: prefix ("t,"), "x,", C, ",", G and ",Qstar" with
    the line's newline.
    The pieces list starts with the prefix and "," in place and is filled a
    column at a time by slice assignment, so no Python code runs per row.
    x_text holds the block's "x," texts, newline-separated. G's texts fill
    both float columns; C's are re-formatted only on the runs of states
    where C differs from G bitwise (bits, not ==, so 0.0 and -0.0 keep
    their own text). The block's texts are freed when this returns, before
    the next block's are made.
    """
    pieces = [prefix, None, None, ",", None, None] * g.size
    # Qstar first: np.unique's temporaries come and go before any text exists
    pieces[5::6] = _qstar_texts(q)
    pieces[1::6] = x_text.split("\n")
    pieces[2::6] = pieces[4::6] = list(map(float.__repr__, g.tolist()))
    edges = _run_edges(c.view(np.int64) != g.view(np.int64)).tolist()
    for i, j in zip(edges[::2], edges[1::2]):
        pieces[6 * i + 2:6 * j:6] = map(float.__repr__, c[i:j].tolist())
    return "".join(pieces)


def _qstar_texts(q: np.ndarray) -> list[str]:
    """The last piece of each row, "," + order + newline, for each order in q.

    Each distinct order is formatted once.
    """
    values, inverse = np.unique(q, return_inverse=True)
    texts = [f",{v}\n" for v in values.tolist()]
    return list(map(texts.__getitem__, inverse.tolist()))


def _run_edges(mask: np.ndarray) -> np.ndarray:
    """Where mask flips, read as if False lay past both ends.

    Edges come in pairs: a run of true entries starts at each even one and
    stops before the next.
    """
    padded = np.concatenate(([False], mask, [False]))
    return np.flatnonzero(padded[1:] != padded[:-1])


def _loss_row(states: np.ndarray, pmf: DemandPMF, h: float, p: float) -> np.ndarray:
    """One-period expected holding plus shortage cost at each post-order level.

    states must be ascending. Closed form via the partial sums F(y) and
    M1(y) = E[d; d <= y]:
    L(y) = h (y F(y) - M1(y)) + p ((mu - M1(y)) - y (1 - F(y))).
    Below the support F = M1 = 0, so L(y) = p (mu - y) exactly. From the
    bottom of the support up, the closed form reads the partial sums at
    the last support point at or below y, repeated over the run of states
    that lie between that point and the next; from the top of the support
    up those are the full sums.
    """
    mu = pmf.mean
    size = states.size
    # the first state at or above each support point starts its run
    starts = states.searchsorted(pmf.support_arr)
    runs = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=runs[:-1])
    runs[-1] = size - starts[-1]
    big_f, m1 = pmf.cum_probs.repeat(runs), pmf.cum_means.repeat(runs)
    lo = starts[0]
    out = np.empty(size)
    np.subtract(mu, states[:lo], out=out[:lo])
    out[:lo] *= p
    # the closed form in place, term by term; a product is the same bits
    # in either operand order
    y = states[lo:]
    holding = y * big_f
    holding -= m1
    holding *= h
    shortage = 1.0 - big_f
    shortage *= y
    np.subtract(mu, m1, out=m1)
    m1 -= shortage
    m1 *= p
    np.add(holding, m1, out=out[lo:])
    return out


def _expected_continuation(c_row: np.ndarray, pmf: DemandPMF) -> np.ndarray:
    """E[c_row(y - demand)] over the grid; reads below it clamp to the lowest state."""
    size, top = c_row.size, pmf.max_value
    # the clamp as data: max_value copies of the lowest state below the row
    padded = np.concatenate((np.full(top, c_row[0]), c_row))
    out = np.zeros(size)
    term = np.empty(size)
    for d, pr in zip(pmf.support, pmf.probs):
        out += np.multiply(padded[top - d:top - d + size], pr, out=term)
    return out


def _window_min_finite(g_row: np.ndarray, cap: int):
    """Min of g_row over [i, i+cap], and the smallest offset attaining it.

    Returns (w, orders): w holds the window minimum at every state, and
    orders(ordering, out) writes into the int row out, at each state where
    the boolean row ordering holds, the smallest attaining offset, and 0
    everywhere else. Offsets within 1e-9 of the window minimum count as
    attaining it, so ties resolve to the smallest order quantity. States
    past the end of the row never attain it, so a cap of size - 1 gives the
    suffix minimum of the uncapacitated problem.

    Sparse table: level k holds the min of g_row over [j, j + 2^k), for
    2^k <= cap + 1, then +inf for the 2^k states past the row's end, as
    far as any read of the level goes, so a block or a window cut off at
    the row's end needs no case of its own. The window minimum is the min of
    the two top-level blocks that start at i and end at i + cap; min does
    not round, so it is exact. Time and memory are O(size log cap) instead
    of O(size cap).

    orders first picks out the capacity slides: states whose offsets
    0..cap-1 all lie above the tie threshold, so that the smallest
    attaining offset is cap itself. Two blocks of level floor(log2 cap)
    cover [i, i+cap-1], so one range-minimum query over the whole row
    decides every slide. Every ordering state is written cap, and the
    ordering states that are not slides then take a jump search down the
    levels: from i, skip each block whose min exceeds the threshold, which
    lands on the first state within 1e-9 of the window minimum, at
    O(log cap) per state.
    """
    size = g_row.size
    cap = min(cap, size - 1)   # the window never reaches past the row
    top = (cap + 1).bit_length() - 1
    levels = [np.concatenate((g_row, [np.inf]))]
    for k in range(top):
        level = np.empty(size + (2 << k))
        level[size:] = np.inf
        np.minimum(levels[k][:size], levels[k][1 << k:size + (1 << k)],
                   out=level[:size])
        levels.append(level)
    # the second top-level block starts `shift` < 2^top states after i
    shift = cap + 1 - (1 << top)
    w = np.minimum(levels[top][:size], levels[top][shift:size + shift])

    def orders(ordering: np.ndarray, out: np.ndarray) -> None:
        threshold = w + _TIE_TOL
        np.multiply(ordering, cap, out=out)
        # searched: the ordering states that are no slides (with cap 0, on a
        # one-state row, there are no slides)
        searched = ordering
        if cap:
            k = cap.bit_length() - 1
            second = cap - (1 << k)
            searched = ordering & (np.minimum(levels[k][:size],
                                              levels[k][second:size + second])
                                   <= threshold)
        start = searched.nonzero()[0]
        if start.size:
            threshold = threshold[start]
            pos = start.copy()
            for k in range(top, -1, -1):
                pos += (levels[k][pos] > threshold) << k
            out[start] = pos - start

    return w, orders


def solve(instance: Instance, grid: Grid = DEFAULT_GRID) -> ValueTables:
    """Solve the instance by backward induction on the grid.

    Ordering is chosen only on strict cost improvement (beyond 1e-9), and the
    smallest minimizing quantity wins ties, so Qstar is deterministic.
    """
    width = grid.x_max - grid.x_min
    if instance.B != math.inf and instance.B > width:
        raise GridSpanError(f"capacity {instance.B} exceeds grid width {width}")
    total_dmax = -Reach.of(instance).floor(instance.horizon + 1)
    if total_dmax > width:
        raise GridSpanError(
            f"cumulative max demand {total_dmax} exceeds grid width {width}")

    n = instance.horizon
    size = grid.size
    states = grid.states.astype(np.float64)
    K, v = instance.K, instance.v
    purchase = v * states
    # no order reaches past x_max, so B = inf is a window as wide as the row
    cap = size - 1 if instance.B == math.inf else int(instance.B)

    c_tbl = np.empty((n, size))
    g_tbl = np.empty((n, size))
    q_tbl = np.empty((n, size), dtype=np.int64)

    for t in range(n - 1, -1, -1):
        pmf = instance.demands[t]
        g_row, c_row = g_tbl[t], c_tbl[t]
        np.add(purchase, _loss_row(states, pmf, instance.h, instance.p),
               out=g_row)
        # nothing is owed after the last period; adding its zero still
        # keeps every bit (-0.0 + 0.0 is 0.0)
        cont = (0.0 if t == n - 1
                else _expected_continuation(c_tbl[t + 1], pmf))
        if instance.discount != 1.0:   # x * 1.0 is x, bit for bit
            cont *= instance.discount
        g_row += cont
        w, orders = _window_min_finite(g_row, cap)
        np.add(K, w, out=c_row)   # the cost of ordering, until C is done
        # search for the smallest minimizing order only where ordering pays
        orders(g_row - c_row > _TIE_TOL, q_tbl[t])
        np.minimum(g_row, c_row, out=c_row)
        c_row -= purchase
        del orders   # frees the kernel's tables before the next period's

    return ValueTables(C=c_tbl, G=g_tbl, Qstar=q_tbl, grid=grid, instance=instance)
