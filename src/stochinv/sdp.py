"""Backward dynamic programming for capacitated stochastic lot sizing.

State is net inventory on a unit-step grid. Each period the controller may
order up to B units before demand, paying a fixed cost K plus v per unit;
holding and penalty costs accrue on the post-demand position. Demand is a
finite integer PMF per period, independent across periods.

solve runs one backward pass per period over the whole grid row:
G(y) = v y + L(y) + discount E[C_{t+1}(y - d)], then the minimum of G over
each capacity window and C(x) = -v x + min(G(x), K + window min). Each
kernel does only the work the tables read. The loss row L looks partial
sums up only on the demand support and is closed form below and above it.
The window minimum returns the minimum everywhere but searches for the
smallest attaining order only at the states where ordering pays, since
Qstar is zero everywhere else.
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
    Below the support F = M1 = 0, so L(y) = p (mu - y) exactly; from the top
    of the support up F and M1 are the full sums. Only the states in
    between look their partial sums up.
    """
    mu = pmf.mean

    def closed_form(y, big_f, m1):
        return h * (y * big_f - m1) + p * ((mu - m1) - y * (1.0 - big_f))

    lo, hi = np.searchsorted(states, (pmf.support[0], pmf.support[-1]))
    out = np.empty(states.size)
    out[:lo] = p * (mu - states[:lo])
    inside = states[lo:hi]
    k = np.searchsorted(pmf.support_arr, inside, side="right") - 1
    out[lo:hi] = closed_form(inside, pmf.cum_probs[k], pmf.cum_means[k])
    out[hi:] = closed_form(states[hi:], pmf.cum_probs[-1], pmf.cum_means[-1])
    return out


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
    """Min of g_row over [i, i+cap], and a lookup of the smallest offset attaining it.

    Returns (w, offsets): w holds the window minimum at every state, and
    offsets(at) gives the smallest attaining offset at the state indices
    `at` alone. Offsets within 1e-9 of the window minimum count as
    attaining it, so ties resolve to the smallest order quantity. States
    past the end of the row never attain it.

    Sparse table: level k holds the min of g_row over [j, j + 2^k), cut off
    at the row's end, for 2^k <= cap + 1. The window minimum is the min of
    the two top-level blocks that start at i and end at i + cap; min does
    not round, so it is exact. The offset comes from a jump search down the
    levels: from i, skip each block whose min exceeds the tie threshold,
    which lands on the first state within 1e-9 of the window minimum. Time
    and memory are O(size log cap) instead of O(size cap), and the search
    costs O(log cap) per state looked up.
    """
    size = g_row.size
    cap = min(cap, size - 1)   # the window never reaches past the row
    top = (cap + 1).bit_length() - 1
    levels = [g_row]
    for k in range(top):
        prev, half = levels[-1], 1 << k
        level = np.empty(size)
        np.minimum(prev[:-half], prev[half:], out=level[:-half])
        level[-half:] = prev[-half:]
        levels.append(level)
    # the second top-level block starts `shift` states after i, or at the
    # row's last state where that is past the end
    last, shift = levels[-1], cap + 1 - (1 << top)
    w = np.minimum(last, last[-1])
    np.minimum(last[:size - shift], last[shift:], out=w[:size - shift])

    def offsets(at: np.ndarray) -> np.ndarray:
        threshold = w[at] + _TIE_TOL
        pos = at.copy()
        for k in range(top, -1, -1):
            pos += (levels[k][pos] > threshold) << k
        return pos - at

    return w, offsets


def _window_min_infinite(g_row: np.ndarray):
    """Suffix min of g_row, and a lookup of the smallest offset attaining it.

    Same shape as _window_min_finite: (w, offsets), where offsets(at) gives
    the smallest offset within 1e-9 of the suffix min at the indices `at`.
    """
    size = g_row.size
    w = np.minimum.accumulate(g_row[::-1])[::-1]

    def offsets(at: np.ndarray) -> np.ndarray:
        cand = np.where(g_row <= w + _TIE_TOL, np.arange(size), size)
        return np.minimum.accumulate(cand[::-1])[::-1][at] - at

    return w, offsets


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
    purchase = v * states

    c_tbl = np.empty((n, size))
    g_tbl = np.empty((n, size))
    q_tbl = np.zeros((n, size), dtype=np.int64)

    for t in range(n - 1, -1, -1):
        pmf = instance.demands[t]
        # nothing is owed after the last period, so its continuation is the
        # zero row; adding it below still keeps every bit (-0.0 + 0.0 is 0.0)
        cont = (np.zeros(size) if t == n - 1
                else _expected_continuation(c_tbl[t + 1], pmf))
        g_row = (purchase + _loss_row(states, pmf, instance.h, instance.p)
                 + instance.discount * cont)
        if instance.B == math.inf:
            w, offsets = _window_min_infinite(g_row)
        else:
            w, offsets = _window_min_finite(g_row, int(instance.B))
        ordered = K + w
        # search for the smallest minimizing order only where ordering pays
        ordering = np.flatnonzero(g_row - ordered > _TIE_TOL)
        c_tbl[t] = np.minimum(g_row, ordered) - purchase
        g_tbl[t] = g_row
        q_tbl[t, ordering] = offsets(ordering)
        del offsets   # frees the kernel's tables before the next period's

    return ValueTables(C=c_tbl, G=g_tbl, Qstar=q_tbl, grid=grid, instance=instance)
