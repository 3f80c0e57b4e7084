"""Backward dynamic programming for capacitated stochastic lot sizing.

State is net inventory on a unit-step grid. Each period the controller may
order up to B units before demand, paying a fixed cost K plus v per unit;
holding and penalty costs accrue on the post-demand position. Demand is a
finite integer PMF per period, independent across periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .demand import DemandPMF

_TIE_TOL = 1e-9
# states per write in ValueTables.to_csv: enough to amortise the per-block
# calls, few enough that one block's text stays small in memory
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
        if not all(math.isfinite(c) for c in (self.K, self.v, self.h, self.p)):
            raise ValueError("K, v, h and p must be finite")
        if self.K < 0 or self.v < 0:
            raise ValueError("K and v must be nonnegative")
        if self.h <= 0 or self.p <= 0:
            raise ValueError("h and p must be positive")
        if not (self.B == math.inf or (float(self.B).is_integer() and self.B >= 1)):
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

    def row(self, period: int) -> int:
        """0-based row index for a 1-based forward period."""
        n = self.instance.horizon
        if not 1 <= period <= n:
            raise ValueError(f"period must be in 1..{n}")
        return period - 1

    def exact_from(self, period: int) -> int:
        """Lowest state whose values are unaffected by the lower grid edge."""
        r = self.row(period)
        return self.grid.x_min + sum(d.max_value for d in self.instance.demands[r:-1])

    def exact_to(self, period: int) -> int:
        """Highest state whose values are unaffected by the upper grid edge.

        From here no order in this or any later period can reach past the
        top of the grid, so no capacity window is cut short. With B = inf
        no finite window bounds the lookahead, so there is no such state.
        """
        if self.instance.B == math.inf:
            raise ValueError("exact_to needs a finite capacity B")
        remaining = self.instance.horizon - self.row(period)
        return self.grid.x_max - int(self.instance.B) * remaining

    def qstar_at(self, period: int, x: int) -> int:
        return int(self.Qstar[self.row(period), self.grid.index(x)])

    def cost_at(self, period: int, x: int) -> float:
        return float(self.C[self.row(period), self.grid.index(x)])

    def to_csv(self, path) -> None:
        """One row per (period, state): period, x, C, G, Qstar.

        Floats are written with repr, so float() of a field gives back the
        table entry bit for bit. Rows are built and written a block of
        states at a time; a C entry bitwise equal to its G entry reuses G's
        text (bits, not ==, so 0.0 and -0.0 keep their own text).
        """
        xs = self.grid.states
        with open(path, "w") as fh:
            fh.write("period,x,C,G,Qstar\n")
            for t in range(self.instance.horizon):
                row = f"{t + 1},{{}},{{}},{{}},{{}}\n".format
                for lo in range(0, xs.size, _CSV_BLOCK):
                    block = slice(lo, lo + _CSV_BLOCK)
                    c, g = self.C[t, block], self.G[t, block]
                    g_txt = np.array(list(map(float.__repr__, g.tolist())),
                                     dtype=object)
                    c_txt = g_txt.copy()
                    differ = c.view(np.int64) != g.view(np.int64)
                    c_txt[differ] = list(map(float.__repr__, c[differ].tolist()))
                    fh.write("".join(map(row, xs[block].tolist(), c_txt.tolist(),
                                         g_txt.tolist(),
                                         self.Qstar[t, block].tolist())))


def _loss_row(states: np.ndarray, pmf: DemandPMF, h: float, p: float) -> np.ndarray:
    """One-period expected holding plus shortage cost at each post-order level.

    Closed form via the partial sums F(y) and M1(y) = E[d; d <= y]:
    L(y) = h (y F(y) - M1(y)) + p ((mu - M1(y)) - y (1 - F(y))).
    """
    idx = np.searchsorted(pmf.support_arr, states, side="right")
    cum_p = np.concatenate(([0.0], np.cumsum(pmf.probs_arr)))
    cum_pv = np.concatenate(([0.0], np.cumsum(pmf.probs_arr * pmf.support_arr)))
    big_f = cum_p[idx]
    m1 = cum_pv[idx]
    mu = pmf.mean
    return h * (states * big_f - m1) + p * ((mu - m1) - states * (1.0 - big_f))


def single_period_cost(y: int, pmf: DemandPMF, h: float, p: float) -> float:
    """Expected holding plus shortage cost for one period started at level y."""
    return float(_loss_row(np.array([y], dtype=np.float64), pmf, h, p)[0])


def _expected_continuation(c_row: np.ndarray, pmf: DemandPMF) -> np.ndarray:
    """E[c_row(y - demand)] over the grid; reads below it clamp to the lowest state."""
    size, top = c_row.size, pmf.max_value
    # the clamp as data: max_value copies of the lowest state below the row
    padded = np.concatenate((np.full(top, c_row[0]), c_row))
    out = np.zeros(size)
    for d, pr in zip(pmf.support, pmf.probs):
        out += pr * padded[top - d:top - d + size]
    return out


def _window_min_finite(g_row: np.ndarray, cap: int):
    """Min of g_row over [i, i+cap] and the smallest offset attaining it.

    Offsets within 1e-9 of the window minimum count as attaining it, so ties
    resolve to the smallest order quantity. States past the end of the row
    never attain it.

    Sparse table: level k holds the min of g_row over [j, j + 2^k), cut off
    at the row's end, for 2^k <= cap + 1. The window minimum is the min of
    the two top-level blocks that start at i and end at i + cap; min does
    not round, so it is exact. The offset comes from a jump search down the
    levels: from i, skip each block whose min exceeds the tie threshold,
    which lands on the first state within 1e-9 of the window minimum. Time
    and memory are O(size log cap) instead of O(size cap).
    """
    size = g_row.size
    cap = min(cap, size - 1)   # the window never reaches past the row
    top = (cap + 1).bit_length() - 1
    levels = [g_row]
    for k in range(top):
        prev, half = levels[-1], 1 << k
        level = prev.copy()
        np.minimum(prev[:-half], prev[half:], out=level[:-half])
        levels.append(level)
    idx = np.arange(size)
    last = levels[-1]
    w = np.minimum(last, last[np.minimum(idx + (cap + 1 - (1 << top)), size - 1)])
    threshold = w + _TIE_TOL
    pos = idx.copy()
    for k in range(top, -1, -1):
        pos += (levels[k][pos] > threshold) << k
    return w, pos - idx


def _window_min_infinite(g_row: np.ndarray):
    """Suffix min of g_row and the smallest offset attaining it within tolerance."""
    size = g_row.size
    w = np.minimum.accumulate(g_row[::-1])[::-1]
    idx = np.arange(size)
    cand = np.where(g_row <= w + _TIE_TOL, idx, size)
    j = np.minimum.accumulate(cand[::-1])[::-1]
    return w, j - idx


def solve(instance: Instance, grid: Grid = DEFAULT_GRID) -> ValueTables:
    """Solve the instance by backward induction on the grid.

    Ordering is chosen only on strict cost improvement (beyond 1e-9), and the
    smallest minimizing quantity wins ties, so Qstar is deterministic.
    """
    width = grid.x_max - grid.x_min
    if instance.B != math.inf and instance.B > width:
        raise GridSpanError(f"capacity {instance.B} exceeds grid width {width}")
    total_dmax = sum(d.max_value for d in instance.demands)
    if total_dmax > width:
        raise GridSpanError(
            f"cumulative max demand {total_dmax} exceeds grid width {width}")

    n = instance.horizon
    size = grid.size
    states = grid.states.astype(np.float64)
    K, v = instance.K, instance.v

    c_tbl = np.empty((n, size))
    g_tbl = np.empty((n, size))
    q_tbl = np.zeros((n, size), dtype=np.int64)

    c_next = np.zeros(size)
    for t in range(n - 1, -1, -1):
        pmf = instance.demands[t]
        cont = _expected_continuation(c_next, pmf)
        g_row = (v * states + _loss_row(states, pmf, instance.h, instance.p)
                 + instance.discount * cont)
        if instance.B == math.inf:
            w, q = _window_min_infinite(g_row)
        else:
            w, q = _window_min_finite(g_row, int(instance.B))
        order = g_row - (K + w) > _TIE_TOL
        c_tbl[t] = -v * states + np.minimum(g_row, K + w)
        g_tbl[t] = g_row
        q_tbl[t] = np.where(order, q, 0)
        c_next = c_tbl[t]

    return ValueTables(C=c_tbl, G=g_tbl, Qstar=q_tbl, grid=grid, instance=instance)
