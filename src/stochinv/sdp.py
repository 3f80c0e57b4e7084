"""Backward dynamic programming for capacitated stochastic lot sizing.

State is net inventory on a unit-step grid. Each period the controller may
order up to B units before demand, paying a fixed cost K plus v per unit;
holding and penalty costs accrue on the post-demand position. Demand is a
finite integer PMF per period, independent across periods.

solve runs one backward pass per period over the whole grid row, or,
with certified_only, over the period's certified range alone:
G(y) = v y + L(y) + discount E[C_{t+1}(y - d)], then the minimum of G over
each capacity window and C(x) = -v x + min(G(x), K + window min). With
B = inf the window is as wide as the row, since no order can reach past
the top of the grid, so one kernel serves both problems. Each kernel
does only the work the tables read. The loss row L looks partial sums up
only on the demand support and is closed form below and above it. The
expected continuation adds the demand points up one at a time over a
whole row, and on a certified range takes each state as one dot product
through np.convolve.
The window minimum returns the minimum everywhere but searches for the
smallest attaining order only at the states where ordering pays, since
Qstar is zero everywhere else. Most of those lie far below the bands and
are capacity slides: no smaller order comes within the tie tolerance of
the best one, so the order is the whole capacity B. One range-minimum
query decides a slide, and only the other ordering states are searched.

Reach derives, from the instance alone, each period's reachable floor, the
structural top above which no grid orders and, at a finite capacity, the
structural bottom below which every period's decision stays the same:
from each period's capacity-slide level down it orders the whole capacity,
and from its line floor down its rows are lines. solve refuses a grid that
ends below the top, so every table it returns is exact up to x_max. The
certified floor ValueTables.exact_from, the bed's grid between bottom and
top and the COP search grid are read off it too, once per instance through
Instance.reach; the bottom, which only the bed reads, is derived on its
first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .demand import DemandPMF

_TIE_TOL = 1e-9
# a capacity slide's margin for rounding over the tie tolerance (Reach)
_SLIDE_MARGIN = 1e-6
# states per write in ValueTables.to_csv: enough to amortise the per-block
# calls, few enough that one block's pieces and texts stay small in memory
_CSV_BLOCK = 4096
# terms per BLAS dot product (_tile_sum), which OpenBLAS splits across
# threads above 10,000 terms, so a longer dot's bits would depend on the
# thread count; the bed's widest PMF, geometric's 4,694 masses, fits in
# one tile, its widest inventory distribution, 35,191 states, does not
_CONVOLVE_TILE = 8192


def _tile_sum(part, size: int):
    """part(lo, hi) added up over the tiles [lo, hi) of range(size), each at
    most _CONVOLVE_TILE long, in tile order: part(0, size) itself when
    size fits in one tile. Parts are floats or arrays of one shape."""
    total = part(0, min(size, _CONVOLVE_TILE))
    for lo in range(_CONVOLVE_TILE, size, _CONVOLVE_TILE):
        total += part(lo, min(lo + _CONVOLVE_TILE, size))
    return total


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

    @cached_property
    def reach(self) -> Reach:
        """Reach.of(self), derived once per instance.

        The Reach keeps an equal copy of the instance, which its bottom
        reads: a reference back to this one, which holds the Reach, would
        make every instance a cycle that only the garbage collector frees.
        """
        return Reach.of(replace(self))


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
    """Where an instance's states can go, derived from its demands and
    capacity alone.

    floors[t - 1] is floor(t) = -sum_{s<t} dmax_s for t = 1..n+1: the
    lowest state period t can start in from x0 = 0, the start every caller
    uses. floor(n + 1) is minus the sum of all per-period maximum demands.

    top = max(sum_t dmax_t, 1), for every capacity B including math.inf,
    is the structural top: on any grid that reaches it, every state's
    tables are bit for bit those of every taller grid, and no grid orders
    above it. solve refuses a grid that ends below it. Let
    D_t = sum_{s>=t} dmax_s <= top.
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

    bottom, for a finite B (None at B = inf), is the structural bottom:
    every grid whose floor lies at or below it gives the same bands, COP
    flags and exact gap from x0 = 0 as any deeper grid. It is derived on
    first read, as only the bed reads it. Let dmin_t be period t's smallest
    demand, F^G_n = dmin_n, F^C_t = F^G_t - B and F^G_t = dmin_t + min(0,
    F^C_{t+1}) (the line floors), a_t period t's capacity-slide level,
    defined below, where the bound finds one, and level_t = max(F^C_t, a_t)
    (F^C_t where it finds none); then
    bottom = min(floor(n) + min_t min(level_t - floor(t), 0), -1).
    - G_t is affine on y <= F^G_t. L_t(y) = p (mu_t - y) on y <= dmin_t
      (nothing is held, the whole demand is short), nothing follows the
      last period, and, if C_{t+1} is affine on x <= F^C_{t+1}, so is
      E[C_{t+1}(y - d)] on y <= dmin_t + F^C_{t+1}.
    - C_t is affine on x <= F^C_t, and the decision there is the same at
      every x. The window [x, x + B] lies on G_t's line, of slope s. With
      s >= 0 the window minimum is G_t(x) and nothing orders. With s < 0
      it is G_t(x + B): ordering pays when -s B - K exceeds the tie
      tolerance, for every such x alike, and the smallest order within the
      tolerance of the minimum is B - floor(tol / -s) at every x (B unless
      -s <= tol). So C_t(x) is -v x + G_t(x) at every such x, or
      -v x + K + G_t(x + B) at every one, which closes the induction.
    - At and below a_t every state orders B: far enough down, a capacitated
      policy orders its whole capacity (the X-Y band of Chen and
      Lambrecht, Oper. Res. 44(6), 1996). Write Df(y) = f(y + 1) - f(y),
      F_t(y) = P(d_t <= y) and w_t(x) for the minimum of G_t over
      [x, x + B]. Exactly, DL_t(y) = (h + p) F_t(y) - p. As C_t + v x =
      min(G_t, K + w_t) and a min rises by at most the larger rise of its
      branches, DC_t(x) <= max(DG_t(x), 0) - v: if w_t(x) is attained at x,
      w_t(x + 1) <= G_t(x + 1), and otherwise w_t(x + 1) <= w_t(x). Where
      DG_t <= 0 on [x, x + B], w_t(x) = G_t(x + B) and w_t(x + 1) =
      G_t(x + B + 1), so DC_t(x) <= max(DG_t(x), DG_t(x + B)) - v.
      Let u_n(y) = v + (h + p) F_n(y) - p; for t < n, u_t(y) = v +
      (h + p) F_t(y) - p + discount c_{t+1}(y - dmin_t); and c_t(x) =
      u_t(x + B) - v where u_t(x + B) <= 0, max(u_t(x), 0) - v elsewhere.
      Both are nondecreasing by induction, so E[c_{t+1}(y - d)] <=
      c_{t+1}(y - dmin_t), and DG_t <= u_t, DC_t <= c_t. a_t is the
      largest x with u_t(x + B - 1) < -sigma and
      sum_{y=x}^{x+B-1} -u_t(y) > K + tau. At every x' <= a_t, G_t falls
      by more than sigma at each step from x' to x' + B, so the window
      minimum is G_t(x' + B), every smaller offset lies more than sigma
      above it, and ordering saves more than K + tau: Qstar is B.
      _slide_levels evaluates the bounds on a window of states, reading
      c below it as its value at the window's lowest state and u above it
      as +inf; both being nondecreasing, they stay bounds, and the window
      decides only how tight they are. sigma = 1e-6 and tau = 1e-9 +
      1e-6 max(1, K) exceed the tie tolerance by a margin for rounding in
      the solved rows.
    - On a grid with x_min <= bottom, exact_from(t) = x_min + floor(t) -
      floor(n) lies at or below both floor(t) <= 0 and level_t, so period
      t's certified range [exact_from(t), top] holds its reachable floor
      and a state of the decision every state at or below level_t takes.
      A deeper grid certifies the same tables bit for bit on that range,
      and below it only states of exact_from(t)'s decision. Such a run at
      the bottom of a row leaves the bands (leading capacity slides carry
      no pair) and the order-property verdict (the floor orders or not,
      as before) unchanged, and the gap reads only states at or above
      floor(t).
    - The certified ranges form a dependency cone: exact_from(t) - dmax_t
      = exact_from(t + 1), so the continuation on period t's range reads
      period t + 1 only on its range, and the window minimum reads only
      upward. solve(certified_only=True) therefore computes each range
      alone, with no read left for the clamp, and on a grid from bottom up
      what it leaves out are the states the clamp below the grid distorts,
      which nothing above reads. Its continuation sums each state as one
      dot product (_expected_continuation), so its entries are bit for
      bit those of a whole-row solve with that continuation, and agree
      with the default whole-row solve, which sums demand point by demand
      point, to rounding: the bands, flags and gap are the same unless a
      decision lies within rounding of the tie tolerance.
    The argument treats the values as exact. In floating point the rows
    below F^G_t are lines up to rounding, so only a saving -s B - K within
    rounding of the tie tolerance could be decided differently at
    different states. The -1 keeps bottom a valid grid floor.
    """

    floors: tuple[int, ...]
    top: int
    instance: Instance = field(repr=False)

    @classmethod
    def of(cls, instance: Instance) -> Reach:
        floors = [0]
        for pmf in instance.demands:
            floors.append(floors[-1] - pmf.max_value)
        return cls(tuple(floors), max(-floors[-1], 1), instance)

    @cached_property
    def bottom(self) -> int | None:
        instance = self.instance
        if instance.B == math.inf:
            return None
        cap, n = int(instance.B), instance.horizon
        slides = _slide_levels(instance)
        # below: min(0, F^C_{t+1}), 0 after the last period;
        # lowest: min over the later periods of min(level_t - floor(t), 0)
        below = lowest = 0
        for t in range(n, 0, -1):
            line_c = instance.demands[t - 1].support[0] + below - cap
            level = line_c if slides[t - 1] is None else max(line_c, slides[t - 1])
            lowest = min(lowest, level - self.floors[t - 1])
            below = min(0, line_c)
        return min(self.floors[n - 1] + lowest, -1)

    def floor(self, period: int) -> int:
        """Lowest state reachable at the start of period 1..n+1 from x0 = 0."""
        if not 1 <= period <= len(self.floors):
            raise ValueError(f"period must be in 1..{len(self.floors)}")
        return self.floors[period - 1]


def _slide_levels(instance: Instance) -> list[int | None]:
    """a_t of Reach for t = 1..n at a finite capacity, None where none is found.

    Works backward over the window [-B - 2 dmax, dmax + B + 1], dmax the
    largest demand of any period, with u the bound u_t on the window and,
    from the period before the last, cv = discount (c_{t+1} + v). u is
    nondecreasing, so each condition is one binary search. On the 810
    Poisson bed points this window finds the same levels as one from
    bottom to top + B, at a fraction of the states.
    """
    cap, n = int(instance.B), instance.horizon
    K, v, h, p = instance.K, instance.v, instance.h, instance.p
    dmax = max(pmf.max_value for pmf in instance.demands)
    lo = -cap - 2 * dmax
    size = 3 * dmax + 2 * cap + 2
    # K + tau: the tie tolerance plus a margin for rounding in the solved rows
    saving = K + _TIE_TOL + _SLIDE_MARGIN * max(1.0, K)
    sums = np.zeros(size + 1)   # sums[i] = u summed over the window's first i states
    levels: list[int | None] = [None] * n
    cv = None
    for t in range(n - 1, -1, -1):
        pmf = instance.demands[t]
        rises = np.zeros(size)
        rises[pmf.support_arr - lo] = pmf.probs_arr * (h + p)
        u = rises.cumsum()
        if cv is None:
            u += v - p
        else:
            dmin = pmf.support[0]
            u += v - p - instance.discount * v
            u[:dmin] += cv[0]
            u[dmin:] += cv[:size - dmin]
        # the window's first `candidates` states x have u(x + B - 1) < -sigma
        candidates = int(u.searchsorted(-_SLIDE_MARGIN)) - cap + 1
        if candidates > 0:
            np.cumsum(u[:candidates + cap - 1], out=sums[1:candidates + cap])
            found = int((sums[cap:candidates + cap] - sums[:candidates])
                        .searchsorted(-saving))
            if found:
                levels[t] = lo + found - 1
        if t:
            # c_t + v: u_t(x + B) up to the last x + B where u_t <= 0, then
            # max(u_t(x), 0)
            rising = int(u.searchsorted(0.0, side="right"))
            cv = np.maximum(u, 0.0)
            if rising > cap:
                cv[:rising - cap] = u[cap:rising]
            if instance.discount != 1.0:
                cv *= instance.discount
    return levels


@dataclass(frozen=True)
class ValueTables:
    """Solved value and action tables.

    Rows are forward periods 1..n (row 0 = first period); columns follow
    grid.states. C is the optimal cost-to-go before ordering, G the
    order-up-to cost curve, Qstar the optimal order quantity. solve builds
    them only on a grid that reaches the structural top, so the upper edge
    touches no value: period t's certified range is
    [exact_from(t), grid.x_max]. certified_only tables were solved on that
    range alone and hold NaN and -1 below it (see solve).
    """

    C: np.ndarray
    G: np.ndarray
    Qstar: np.ndarray
    grid: Grid
    instance: Instance
    certified_only: bool = False

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
        reach = self.instance.reach
        return self.grid.x_min + reach.floor(period) - reach.floor(self.instance.horizon)

    def solved_from(self, period: int) -> int:
        """Lowest state solve computed in this period's row: exact_from on
        certified_only tables, x_min otherwise."""
        if self.certified_only:
            return self.exact_from(period)
        self.row(period)
        return self.grid.x_min

    def check_start(self, x0: int) -> None:
        """Raise GridSpanError when x0 lies below the certified floor
        exact_from(1), so that a cost from x0 would read values the lower
        grid edge distorts."""
        floor = self.exact_from(1)
        if floor > x0:
            raise GridSpanError(
                f"x0 = {x0} lies below the certified floor exact_from(1) = "
                f"{floor}; widen the grid downward")

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
        every period; no per-state string outlives its block. Raises
        ValueError on certified_only tables, whose rows hold a fill below
        the certified range.
        """
        if self.certified_only:
            raise ValueError("certified_only tables hold no values below "
                             "exact_from; solve the whole rows to write them")
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


def _expected_continuation(c_row: np.ndarray, pmf: DemandPMF, *,
                           clamp: bool = True) -> np.ndarray:
    """E[c_row(y - demand)] at each state y of the row.

    Without clamp, the first max_value states of c_row are read only as
    y - demand: y runs over the states above them, no read falls below the
    row, and the result is max_value states shorter. Each output is the
    dot product of the max_value + 1 states at and below y with the
    demand's masses on 0..max_value (pmf.dense), computed by np.convolve
    in tiles of at most _CONVOLVE_TILE masses, added up in tile order
    (_tile_sum); the bed's PMFs fit in one tile. Neither the operands nor
    their order depend on where the row starts, so a slice of a row gives
    the same outputs bit for bit. They agree with the clamp loop's sums to
    rounding, not bit for bit.

    With clamp, y runs over the whole row and reads below it clamp to the
    lowest state, and the sum runs over the support one demand point at a
    time. That loop keeps the whole-row tables, which CLI solve and
    simulate and the COP search read, and with them the tables CSV,
    thresholds and order-property report, bit for bit as recorded. It
    leaves with ROADMAP item 17, which computes only certified ranges, or
    with item 3's declared benchmark change, which re-records those bytes
    under the convolution.
    """
    top = pmf.max_value
    if not clamp:
        size = c_row.size - top
        dense = pmf.dense
        # masses lo..hi-1 read the states hi-1..lo below each y
        return _tile_sum(
            lambda lo, hi: np.convolve(c_row[top - hi + 1:top - lo + size],
                                       dense[lo:hi], mode="valid"),
            top + 1)
    # the clamp as data: max_value copies of the lowest state below the row
    c_row = np.concatenate((np.full(top, c_row[0]), c_row))
    size = c_row.size - top
    out = np.zeros(size)
    term = np.empty(size)
    for d, pr in zip(pmf.support, pmf.probs):
        out += np.multiply(c_row[top - d:top - d + size], pr, out=term)
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


def solve(instance: Instance, grid: Grid = DEFAULT_GRID, *,
          certified_only: bool = False) -> ValueTables:
    """Solve the instance by backward induction on the grid.

    Ordering is chosen only on strict cost improvement (beyond 1e-9), and the
    smallest minimizing quantity wins ties, so Qstar is deterministic.

    Raises GridSpanError when the grid ends below the structural top of
    Reach. A grid that reaches it needs no other width check: it spans at
    least the cumulative max demand plus one state, and a capacity window
    cut at the row's end is exact there.

    With certified_only, period t's row is computed only on its certified
    range [exact_from(t), x_max]; below it C and G hold NaN and Qstar -1,
    which no order is, and the tables refuse the reads that would take
    the fill for values (ValueTables.solved_from). The continuation there
    is the convolution of _expected_continuation (clamp=False), which
    sums each state as one dot product, where the full solve sums the
    demand points one at a time over the whole row. Every certified entry
    is, by its dependency cone, bit for bit that of a full solve whose
    continuation is the same convolution over rows padded with the clamp:
    - exact_from(t) - dmax_t = exact_from(t + 1), so the expected
      continuation of row t's range reads row t + 1 only on row t + 1's
      range, and no read is left for the clamp below the grid;
    - each continuation output is one dot product over the same
      max_value + 1 operands, in the same order, wherever its row starts;
    - the loss row, the purchase term and the C update are state by state,
      and the window minimum and its orders read only upward, from a state
      to the row's end;
    so by induction from the last period, whose range is the whole row,
    each entry is the same float operations on the same operands. Against
    the default full solve, the entries agree to rounding: over the 810
    Poisson bed points C is within 3.9e-15 relative and Qstar equal.
    """
    top = instance.reach.top
    if grid.x_max < top:
        raise GridSpanError(
            f"grid top {grid.x_max} lies below the structural top {top}; "
            "widen the grid upward")

    n = instance.horizon
    size = grid.size
    states = grid.states.astype(np.float64)
    K, v = instance.K, instance.v
    purchase = v * states
    # no order reaches past x_max, so B = inf is a window as wide as the row
    cap = size - 1 if instance.B == math.inf else int(instance.B)
    floors = instance.reach.floors

    c_tbl = np.empty((n, size))
    g_tbl = np.empty((n, size))
    q_tbl = np.empty((n, size), dtype=np.int64)

    for t in range(n - 1, -1, -1):
        pmf = instance.demands[t]
        # the row's first solved column: exact_from(t + 1) - x_min
        lo = floors[t] - floors[n - 1] if certified_only else 0
        g_row, c_row = g_tbl[t, lo:], c_tbl[t, lo:]
        np.add(purchase[lo:],
               _loss_row(states[lo:], pmf, instance.h, instance.p), out=g_row)
        # nothing is owed after the last period; adding its zero still
        # keeps every bit (-0.0 + 0.0 is 0.0)
        if t == n - 1:
            cont = 0.0
        elif certified_only:
            # row t + 1's range starts max_value states lower
            cont = _expected_continuation(c_tbl[t + 1, lo - pmf.max_value:],
                                          pmf, clamp=False)
        else:
            cont = _expected_continuation(c_tbl[t + 1], pmf)
        if instance.discount != 1.0:   # x * 1.0 is x, bit for bit
            cont *= instance.discount
        g_row += cont
        w, orders = _window_min_finite(g_row, cap)
        np.add(K, w, out=c_row)   # the cost of ordering, until C is done
        # search for the smallest minimizing order only where ordering pays
        orders(g_row - c_row > _TIE_TOL, q_tbl[t, lo:])
        np.minimum(g_row, c_row, out=c_row)
        c_row -= purchase[lo:]
        del orders   # frees the kernel's tables before the next period's
        c_tbl[t, :lo] = g_tbl[t, :lo] = np.nan
        q_tbl[t, :lo] = -1

    return ValueTables(C=c_tbl, G=g_tbl, Qstar=q_tbl, grid=grid,
                       instance=instance, certified_only=certified_only)
