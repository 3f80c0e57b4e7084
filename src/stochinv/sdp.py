"""Backward dynamic programming for capacitated stochastic lot sizing.

State is net inventory on a unit-step grid. Each period the controller may
order up to B units before demand, paying a fixed cost K plus v per unit;
holding and penalty costs accrue on the post-demand position. Demand is a
finite integer PMF per period, independent across periods.

solve runs one backward pass per period over the whole row of a
caller's grid or, given the instance alone, over the period's row of the
instance's slide-aware cone (Instance.cone), on certified tables that
span only the cone: G(y) = v y + L(y) + discount E[C_{t+1}(y - d)],
where L(y) = E[l(y - d)] is the expected holding and shortage cost
l(x') = h x'+ + p x'- on the end-of-period inventory, then the minimum
of G over each capacity window and C(x) = -v x + min(G(x), K + window
min). With B = inf the window is as wide
as the row, since no order can reach past the top of the grid, so one
kernel serves both problems. Each kernel does only the work the tables
read. On a whole row the loss row L is a closed form that looks partial
sums up only on the demand support, and the expected continuation adds
the demand points up one at a time. On a certified range each state of
every row is one dot product through np.convolve, which takes L and the
continuation together: G(y) = v y + E[l(y - d) + discount C_{t+1}(y -
d)], with C_{n+1} = 0, so the last row convolves l alone. The cone
starts each row's G at g_t, above the proven capacity slides [R_t, g_t)
that order the whole capacity; their C is K + G(x + B) - v x, read from
G above g_t.
One window kernel call then finishes the period: it takes the window
minimum w, writes C + v x = min(G, K + w) and the order row in place, and
searches for the smallest attaining order only at the states where
ordering pays, since Qstar is zero everywhere else. Most of those lie far
below the bands and are capacity slides: no smaller order comes within
the tie tolerance of the best one, so the order is the whole capacity B.
One range-minimum query decides a slide, and only the other ordering
states are searched.

An Instance derives, from itself alone, each period's reachable floor
(floors), the structural top above which every G row rises, so that no
grid orders there (top), and the cone of its certified tables (cone),
which rests, at a finite capacity, on the levels below which each
period's decision stays the same (_levels): from its capacity-slide
level down it orders the whole capacity, and from its line floor down
its rows are lines. The certified tables span Grid(min(min_t R_t, -1),
top). solve refuses a caller's grid that ends below both the top and
the demand ceiling sum_t dmax_t, so every table it returns is exact up
to x_max. The certified floor ValueTables.exact_from and the COP search
grid, which ends at the demand ceiling, are read off them too, each
derived once per instance; the top and the cone, with the levels the
cone and CLI solve's floor warning read, are derived on their first
read, as only those and grids below the ceiling read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .demand import DemandPMF

_TIE_TOL = 1e-9
# a capacity slide's margin for rounding over the tie tolerance
# (Instance._levels), and the least rise of G above the structural top
# (Instance.top)
_SLIDE_MARGIN = 1e-6
# the lattice step on which _rise_levels bounds the rises of G
_RISE_STEP = 8
# states per write in ValueTables.to_csv: enough to amortise the per-block
# calls, few enough that one block's pieces and texts stay small in memory
# (writing the lumpy fixture peaks at 1.1 MB; 4096 is no faster and peaks
# at 2.1 MB)
_CSV_BLOCK = 2048
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

    floors, top and cone say where the instance's states can go and which
    of them its certified tables hold. Each is derived from the instance
    alone on its first read and cached on it, so no copy of the instance is
    kept and no reference cycle is made.
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
    def floors(self) -> tuple[int, ...]:
        """Lowest state reachable at the start of each period from x0 = 0.

        floors[t - 1] is floor(t) = -sum_{s<t} dmax_s for t = 1..n+1: the
        lowest state period t can start in from x0 = 0, the start every caller
        uses. floor(n + 1) is minus the sum of all per-period maximum demands.
        """
        floors = [0]
        for pmf in self.demands:
            floors.append(floors[-1] - pmf.max_value)
        return tuple(floors)

    @cached_property
    def top(self) -> int:
        """The structural top, derived from the instance alone.

        top = max(max_t a'_t, 1), for every capacity B including math.inf,
        is the structural top: from a'_t up G_t rises by more than sigma =
        1e-6 at every state, so on any grid that reaches the top every
        state's tables are bit for bit those of every taller grid, and no
        grid orders above it. It is derived on first read: solve refuses a
        grid that ends below both the top and the demand ceiling
        max(sum_t dmax_t, 1), so a grid that reaches the ceiling never
        derives it. K and B never enter. Let D_t = sum_{s>=t} dmax_s.
        - From x >= D_t no demand path goes short, so G_t rises by at least
          h > 0 per state there. By induction from the last period: L_t rises
          by h, C_{t+1} = G_{t+1} - v x by at least h - v, so G_t by at least
          v + h + discount (h - v) >= h, as v >= 0 and discount <= 1.
        - Below D_t the rises are bounded from below, as Instance._levels
          bounds them from above. Write Df(y) = f(y + 1) - f(y) and F_t(y) =
          P(d_t <= y); exactly, DL_t(y) = (h + p) F_t(y) - p. As C_t + v x =
          min(G_t, K + w_t) and a min rises by at least the smaller rise of
          its branches, with w_t(x + 1) >= min(w_t(x), G_t(x + B + 1)) and
          G_t(x + B + 1) >= w_t(x) + DG_t(x + B), DC_t(x) + v >=
          min(DG_t(x), 0, DG_t(x + B)). Where G_t rises at every state from
          x up, nothing orders at x or x + 1 and DC_t(x) + v = DG_t(x).
        - Let beta_t(y) = v - p + (h + p) F_t(y) + discount (E[g_{t+1}(y - d)]
          - v), with g_{n+1} = v (nothing is owed after the last period),
          and g_t = beta_t from a'_t up and min(beta_t, 0) below it. If
          g_{t+1} is nondecreasing and at most DC_{t+1} + v, beta_t is
          nondecreasing and at most DG_t; then from a'_t up, where beta_t >
          sigma, G_t rises, and below it min(DG_t(x), 0, DG_t(x + B)) >=
          min(beta_t(x), 0), so g_t is nondecreasing and at most DC_t + v.
          Below the grid's floor the clamp makes DC_{t+1} + v = v, and there
          g_{t+1} < v holds too, as F_{t+1} = 0 below 0.
        - _rise_levels evaluates beta_t on a lattice of step 8 and reads g as
          a step function, constant on each lattice cell. Each demand block
          (8(k - 1), 8k] then moves its mass to its top, 8k, where it reads g
          at the cell the block's states all fall in, so the moves keep
          beta_t a bound. Below the lattice g is read as its global floor
          m_t = min(v - p + discount (m_{t+1} - v), 0), m_{n+1} = v, and
          above it as its value at the lattice's last state; both being
          nondecreasing, they stay bounds. a'_t is the first lattice state
          where beta_t > sigma, capped at D_t.
        - So every window [x, x + B] that reaches above the top loses only
          states more than sigma above its minimum, which neither set the
          minimum nor lie within the tie tolerance of it: a window cut at
          the top of a grid has the same minimum and the same smallest
          order as on any taller grid.
        - The continuation reads only lower states.
        By induction over periods and ascending states, every order and value
        on such a grid, and with them the bands, the COP flags and the exact
        gap, are therefore those of any taller grid. The argument treats the
        values as exact; sigma is the margin for rounding in the solved rows,
        as for the slides of _levels. The max keeps top a valid grid ceiling
        when no period has positive demand.
        """
        return max(*_rise_levels(self), 1)

    @cached_property
    def _levels(self) -> tuple[tuple[int, int | None], ...]:
        """(level_t, a_t) for t = 1..n at a finite capacity, a_t None where
        _slide_levels finds none: the level at and below which period t
        takes one decision, and the level at and below which that decision
        is the whole capacity. Derived once per instance, on its first read
        by the cone or by CLI solve's floor warning.

        Let dmin_t be period t's smallest demand, F^G_n = dmin_n, F^C_t =
        F^G_t - B and F^G_t = dmin_t + min(0, F^C_{t+1}) (the line floors),
        a_t period t's capacity-slide level, defined below, where the bound
        finds one, and level_t = max(F^C_t, a_t) (F^C_t where it finds none).
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
        So every state at or below level_t takes the decision level_t takes,
        and at or below a_t that decision is B. The argument treats the
        values as exact. In floating point the rows below F^G_t are lines up
        to rounding, so only a saving -s B - K within rounding of the tie
        tolerance could be decided differently at different states.
        """
        cap = int(self.B)
        slides = _slide_levels(self)
        levels = []
        below = 0   # min(0, F^C_{t+1}), 0 after the last period
        for t in range(self.horizon - 1, -1, -1):
            line_c = self.demands[t].support[0] + below - cap
            slide = slides[t]
            levels.append((line_c if slide is None else max(line_c, slide), slide))
            below = min(0, line_c)
        return tuple(levels[::-1])

    @cached_property
    def cone(self) -> tuple[tuple[int, int], ...]:
        """The slide-aware certified cone: (R_t, g_t) for t = 1..n, the
        first state of period t's C and Qstar rows and the first state of
        its G row that solve(instance) computes. solve stores it on the
        certified tables it returns, which span Grid(min(min_t R_t, -1),
        top): their exact_from(t) is R_t and their g_solved_from(t) is g_t,
        so no reader derives the cone again.

        At a finite capacity, with a_t and level_t of _levels,
        R_1 = min(0, level_1),
        g_t = min(R_t + B, a_t + 1) where a_t exists and R_t <= a_t, else R_t,
        R_{t+1} = min(g_t - dmax_t, level_{t+1}).
        At B = inf, R_t = g_t = min(floor(n + 1), -1) + floor(t) - floor(n):
        the plain certified floor of whole rows on cex.search_grid, whose
        floor is the deepest state reachable from x0 = 0.
        - Each row reads only inside the cone. g_t - dmax_t >= R_{t+1}, so
          row t's continuation from g_t reads row t + 1 only where that row
          is solved, and the last row reads the holding and shortage cost l
          itself; no read is left for a clamp below the tables.
        - Every state x of [R_t, g_t) is a proven capacity slide: x <= a_t,
          so G_t falls by more than sigma at each step from x to x + B, its
          window minimum is G_t(x + B) and Qstar is B (_levels). As
          x + B >= R_t + B >= g_t, C_t(x) = (G_t(x + B) + K) - v x reads G_t
          only from g_t up, and the window minimum of a state from g_t up
          reads only upward: G_t below g_t is read by nothing.
        - The pricing passes stay in the cone. Period 1 starts at x0 = 0 >=
          R_1. Under Qstar, every post-order level in period t is at or
          above g_t: a state of [R_t, g_t) orders B, to x + B >= g_t, and a
          state from g_t up orders nothing negative. Under the modified
          (s, S) policy read off the tables, where a_t >= R_t the states
          [R_t, a_t] all order, so the top band has S_m > s_m >= a_t: a
          state x <= s_m orders up to min(S_m, x + B) >= min(a_t + 1,
          R_t + B) >= g_t, and a state above s_m lies above a_t; where
          g_t = R_t every level is at least the state itself. So period
          t + 1's states lie at or above g_t - dmax_t >= R_{t+1} under
          both, and a pass that read below R_{t+1} would read the -1 fill
          and raise, where the tables hold a column there.
        - The cone's tables are those of every whole-row grid that
          certifies it: one that reaches top and whose plain certified floor
          e_t = x_min + floor(t) - floor(n), its exact_from(t), lies at or
          below R_t in every period, which is x_min <= min_t (R_t - floor(t))
          + floor(n) (at most -1 as a grid's floor). Its rows from e_t up
          are unaffected by the lower grid edge, and each solved entry is,
          state for state, the one a whole-row solve computes there when it
          sums as the cone does (see solve). At a finite capacity, reading
          bands and the order property from R_t gives the result of
          reading them from e_t: R_t <= level_t, so every state of
          [e_t, R_t] lies at or below level_t and takes the decision R_t
          takes. Leading capacity slides carry no pair, and the decision at
          the floor, ordering or not, is the same. At B = inf no level
          bounds the decisions below R_t: a period whose ordering states
          all lie below R_t reads as never ordering, where a deeper grid
          reads a band.
        The argument treats the values as exact, as _levels does: sigma and
        tau exceed the rounding in the solved rows, so the float window
        minimum of a slide is G_t(x + B) too, and the slide's C is the same
        float operations the window kernel performs there.
        """
        floors, n = self.floors, self.horizon
        if self.B == math.inf:
            x_min = min(floors[n], -1)
            return tuple((e, e) for e in
                         (x_min + floor - floors[n - 1] for floor in floors[:n]))
        cap, reach, starts = int(self.B), 0, []
        for pmf, (level, slide) in zip(self.demands, self._levels):
            first = min(reach, level)
            g_first = (min(first + cap, slide + 1)
                       if slide is not None and first <= slide else first)
            starts.append((first, g_first))
            reach = g_first - pmf.max_value
        return tuple(starts)


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


def _demand_ceiling(instance: Instance) -> int:
    """max(sum_t dmax_t, 1): above it no demand path goes short (D_1 of
    Instance.top), and it is a valid grid ceiling even with no demand."""
    return max(-instance.floors[-1], 1)


def _rise_levels(instance: Instance) -> list[int]:
    """a'_t of Instance.top for t = 1..n.

    Works backward over the lattice states lo + _RISE_STEP i, lo the largest
    demand of any period rounded up to a whole step below 0. Period t's
    lattice ends at its first state at or above D_t or, if lower, one step
    past the first state that reads g_{t+1} only from a'_{t+1} up and has
    F_t = 1, where beta_t exceeds sigma as soon as h does: the earlier
    period reads g_t past the lattice at its last value. The mass at 0
    and each demand block (8(k - 1), 8k] are the weights of
    one np.convolve over the lattice, which takes (h + p) F_t and
    discount E[g_{t+1}(y - d)] together: the weights up to k add up to
    F_t(8k), so the step up at 0 times h + p, plus discount g_{t+1},
    convolves to both. On the 810 Poisson bed points this takes about
    0.16 ms a point.
    """
    n, step = instance.horizon, _RISE_STEP
    v, h, p, discount = instance.v, instance.h, instance.p, instance.discount
    dmax_all = max(pmf.max_value for pmf in instance.demands)
    # the lattice's first state: the multiple of step at or just below
    # -dmax_all
    cells = -(-dmax_all // step)
    lo = -step * cells
    levels = [0] * n
    # g_{n+1} = v, its floor and D_{t+1}
    g, floor_g, reach = np.full(1, float(v)), float(v), 0
    level = lo
    for t in range(n - 1, -1, -1):
        pmf = instance.demands[t]
        dmax = pmf.max_value
        reach += dmax
        blocks = -(-dmax // step)
        # the mass at 0, then each block (8(k - 1), 8k]
        starts = np.arange(1 - step, dmax + 1, step)
        starts[0] = 0
        weights = np.add.reduceat(pmf.dense, starts)
        # the lattice's last state: the first at or above D_t, or lower
        last = min(-step * (-reach // step),
                   max(level, 0) + step * (blocks + 1))
        size = (last - lo) // step + 1
        # (h + p) F_t(y) + discount E[g_{t+1}(y - d)] as one convolution:
        # (h + p) times the step up at 0 plus discount g_{t+1}, padded
        # below with g's floor and above with its last value
        ahead = np.empty(size + blocks)
        ahead[:blocks] = floor_g
        kept = min(g.size, size)
        ahead[blocks:blocks + kept] = g[:kept]
        ahead[blocks + kept:] = g[-1]
        if discount != 1.0:
            ahead *= discount
        ahead[blocks + cells:] += h + p
        beta = np.convolve(ahead, weights, mode="valid")
        beta += v - p - discount * v
        first = int((beta > _SLIDE_MARGIN).argmax())
        if beta[first] <= _SLIDE_MARGIN:
            first = size
        # capped at D_t, from where G_t rises by at least h
        level = reach if first == size else min(lo + step * first, reach)
        levels[t] = level
        np.minimum(beta[:first], 0.0, out=beta[:first])
        g = beta
        floor_g = min(v - p + discount * (floor_g - v), 0.0)
    return levels


def _slide_levels(instance: Instance) -> list[int | None]:
    """a_t of Instance._levels for t = 1..n at a finite capacity, None where
    none is found.

    Works backward over the window [-B - 2 dmax, dmax + B + 1], dmax the
    largest demand of any period, with u the bound u_t on the window and,
    from the period before the last, cv = discount (c_{t+1} + v). u is
    nondecreasing, so each condition is one binary search. On the 810
    Poisson bed points this window finds the same levels as one from
    min(floor(n) + min_t min(level_t - floor(t), 0), -1), below every
    level and every reachable floor, up to top + B, at a fraction of the
    states.
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
    them only on a grid that reaches the structural top Instance.top, so
    the upper edge touches no value, and whose certified floor lies at or
    below x_max: period t's certified range [exact_from(t), grid.x_max]
    is never empty. Tables that carry a cone, (R_t, g_t) for t = 1..n,
    are the instance's certified tables: solve(instance) computed them on
    the instance's slide-aware cone alone (Instance.cone), C and Qstar
    from R_t = exact_from(t), G from g_t = g_solved_from(t), and their
    grid is Grid(min(min_t R_t, -1), Instance.top). Below those starts
    their rows hold NaN and -1, which no reader takes for values (see
    solve).
    """

    C: np.ndarray
    G: np.ndarray
    Qstar: np.ndarray
    grid: Grid
    instance: Instance
    cone: tuple[tuple[int, int], ...] | None = None

    def row(self, period: int) -> int:
        """0-based row index for a 1-based forward period."""
        n = self.instance.horizon
        if not 1 <= period <= n:
            raise ValueError(f"period must be in 1..{n}")
        return period - 1

    def exact_from(self, period: int) -> int:
        """Lowest state whose values are unaffected by the lower grid edge,
        from where every band, flag and price reads the period's rows.

        On whole rows, demand in this and the later periods before the
        last carries a state at most floor(period) - floor(n) down, and
        the last row is exact everywhere: it clamps against exact terminal
        zeros. On certified tables it is the cone's R_t, the first state
        solve computed in the period's C and Qstar rows: at or above the
        plain floor of every whole-row grid that certifies the cone, and
        reading from either gives the same bands, verdict and prices
        (Instance.cone).
        """
        row = self.row(period)   # rejects a period outside 1..n
        if self.cone is not None:
            return self.cone[row][0]
        floors = self.instance.floors
        return self.grid.x_min + floors[row] - floors[self.instance.horizon - 1]

    def g_solved_from(self, period: int) -> int:
        """Lowest state solve computed in this period's G row: on
        certified tables the cone's g_t (Instance.cone), at or above
        exact_from, as the capacity slides below it take C from G(x + B)
        alone; x_min otherwise."""
        row = self.row(period)
        return self.grid.x_min if self.cone is None else self.cone[row][1]

    def column(self, period: int, x: int) -> int:
        """The column of state x in the period's rows. On certified
        tables a state below exact_from(period) holds only the fill, NaN
        or -1, so it raises ValueError rather than give its column."""
        if self.cone is not None:
            floor = self.exact_from(period)
            if x < floor:
                raise ValueError(
                    f"state {x} lies below period {period}'s certified floor "
                    f"exact_from({period}) = {floor}, below which "
                    "certified tables hold no values")
        return self.grid.index(x)

    def qstar_at(self, period: int, x: int) -> int:
        return int(self.Qstar[self.row(period), self.column(period, x)])

    def cost_at(self, period: int, x: int) -> float:
        return float(self.C[self.row(period), self.column(period, x)])

    def to_csv(self, path) -> None:
        """One row per (period, state): period, x, C, G, Qstar.

        Floats are written with repr, so float() of a field gives back the
        table entry bit for bit; _float_texts calls repr once for each class
        of values that differ by integers. Each block of states is built by
        _csv_block as one string and written at once. The x texts are
        formatted once per call, one string per block, and split again for
        every period; no per-state string outlives its block. Raises
        ValueError on certified tables, whose rows hold a fill below the
        states solve computed (exact_from, g_solved_from).
        """
        if self.cone is not None:
            raise ValueError("certified tables hold no values below "
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

    A row is eight pieces: prefix ("t,"), "x,", C as two pieces, ",", G
    as two pieces, and ",Qstar" with the line's newline. A float's two
    pieces are its text split by _float_texts.
    The pieces list starts with the prefix and "," in place and is filled a
    column at a time by slice assignment, so no Python code runs per row.
    x_text holds the block's "x," texts, newline-separated. G's texts fill
    both float columns; C's are taken from _float_texts only on the runs
    of states where C differs from G bitwise (bits, not ==, so 0.0 and
    -0.0 keep their own text). The block's texts are freed when this
    returns, before the next block's are made.
    """
    differ = c.view(np.int64) != g.view(np.int64)
    # G, then C where it differs; before any other piece exists, so that
    # the numpy temporaries come and go first
    heads, tails = _float_texts(np.concatenate((g, c[differ])))
    size = g.size
    pieces = [prefix, None, None, None, ",", None, None, None] * size
    pieces[7::8] = _qstar_texts(q)
    pieces[1::8] = x_text.split("\n")
    pieces[2::8] = pieces[5::8] = heads[:size]
    pieces[3::8] = pieces[6::8] = tails[:size]
    edges = _run_edges(differ).tolist()
    at = size
    for i, j in zip(edges[::2], edges[1::2]):
        pieces[8 * i + 2:8 * j:8] = heads[at:at + j - i]
        pieces[8 * i + 3:8 * j:8] = tails[at:at + j - i]
        at += j - i
    return "".join(pieces)


def _float_texts(values: np.ndarray) -> tuple[list[str], list[str]]:
    """Each value's repr as two pieces, heads[i] + tails[i] == repr(values[i]),
    with float.__repr__ called once per class rather than once per value.

    A class is the values in [2, 2**52) that share their binade (IEEE
    exponent) and their fractional part, so that any two differ by an
    integer. A member y of a class of two or more is written as
    str(floor(y)) and the tail of the class: the text after the integer
    part in the repr of one member. Every other value (a class of one,
    negatives, signed zeros, subnormals, values below 2 or from 2**52 up,
    whose repr may take an exponent, and non-finite values) keeps its
    whole repr as its head, with an empty tail.

    Why repr(y) == str(floor(y)) + tail. repr gives the decimal with the
    fewest significant digits that reads back as the float; of several,
    the nearest; of two as near, the one whose last digit is even. Let x
    in [2, 2**52) be a non-integer and n = floor(x). The integers n and
    n + 1 are floats, and reading back is monotone, so the decimals that
    read back as x lie strictly between them: repr(x) is str(n), ".",
    then fraction digits, and every candidate has the integer digits of
    n. An integral x prints as str(x) + ".0". Let y = x + k, k a nonzero
    integer, in x's binade. The two share their ulp, a power of two at
    most 1/2, so k is an even number of ulps and their significands have
    one parity; neither is a power of two, as those are integers here.
    So a decimal reads back as y exactly when it is k more than one that
    reads back as x: within half an ulp, or at half an ulp with an even
    significand. The shift by k keeps each candidate's fraction digits,
    last digit and distance to the float, and each side's candidates
    share their integer digits, so repr picks the same fraction digits
    for both. No condition on decades or powers of two is needed.
    """
    fits = (values >= 2.0) & (values < 2.0 ** 52)   # NaN compares False
    at = np.flatnonzero(fits)
    x = values[at]
    floor = np.floor(x)
    # the binade's exponent bits, then the fraction in units of 2**-51
    key = ((x.view(np.int64) >> 52 << 52)
           | ((x - floor) * 2.0 ** 51).astype(np.int64))
    _, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True)
    shared = counts > 1
    member = shared[inverse]
    # each class text holds one "." and no exponent, so "12.5,34.25" splits
    # into "12", ".5", "34", ".25": the tails are every second piece
    texts = ",".join(map(float.__repr__, x[first[shared]].tolist()))
    tails = np.array(["", *texts.replace(".", ",.").split(",")[1::2]],
                     dtype=object)
    which = np.zeros(values.size, dtype=np.intp)
    which[at[member]] = np.cumsum(shared)[inverse[member]]
    # a float's repr is its whole text, an int's that of its integer part
    heads = values.astype(object)
    heads[at[member]] = floor[member].astype(np.int64)
    return list(map(repr, heads.tolist())), tails[which].tolist()


def _qstar_texts(q: np.ndarray) -> list[str]:
    """The last piece of each row, "," + order + newline, for each order in q.

    Each distinct order is formatted once.
    """
    values, inverse = np.unique(q, return_inverse=True)
    texts = np.array([f",{v}\n" for v in values.tolist()], dtype=object)
    return texts[inverse].tolist()


def _run_edges(mask: np.ndarray) -> np.ndarray:
    """Where mask flips, read as if False lay past both ends.

    Edges come in pairs: a run of true entries starts at each even one and
    stops before the next.
    """
    padded = np.concatenate(([False], mask, [False]))
    return np.flatnonzero(padded[1:] != padded[:-1])


def _loss_row(states: np.ndarray, pmf: DemandPMF, h: float, p: float) -> np.ndarray:
    """One-period expected holding plus shortage cost at each post-order level.

    solve adds it on whole rows only; every certified row, the last
    included, takes it inside its continuation's convolution instead
    (_end_cost). states must be ascending. Closed form via the partial
    sums F(y) and M1(y) = E[d; d <= y]:
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


def _end_cost(levels: np.ndarray, h: float, p: float) -> np.ndarray:
    """l(x') = h x'+ + p x'-, the holding and shortage cost of one period
    at each end-of-period inventory level x' = y - d.

    Each entry is one product, the larger of -p x' and h x' as h, p > 0:
    h x' from 0 up (0.0 at 0) and p (-x') below. Its expectation over the
    demand, L(y) = E[l(y - d)], thus takes the rounding of one dot
    product alone.
    """
    return np.maximum(-p * levels, h * levels)


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
    rounding, not bit for bit. solve passes the certified rows' sums of
    the holding and shortage cost and the discounted cost-to-go, so that
    one convolution takes both expectations; on the last row, the holding
    and shortage cost alone.

    With clamp, y runs over the whole row and reads below it clamp to the
    lowest state, and the sum runs over the support one demand point at a
    time. That loop keeps the whole-row tables, which CLI solve and the
    COP search read, and with them the tables CSV, thresholds and
    order-property report, bit for bit as recorded. It
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


def _window_min_finite(g_row: np.ndarray, cap: int, K: float,
                       c_row: np.ndarray, q_row: np.ndarray) -> None:
    """One period's order step on a row: c_row = min(G, K + w) and q_row,
    the smallest order that attains w where ordering pays, 0 elsewhere.

    w is the min of g_row over the capacity window [i, i + cap]. Ordering
    pays where G > (K + w) + 1e-9, and offsets at or below w + 1e-9 count
    as attaining it, so ties resolve to the smallest order quantity. Both
    tests round the same way, a threshold added to w: at K = 0 an ordering
    state never attains w at offset 0, and every order is the smallest
    attaining offset. States past the end of the row never attain it, so a
    cap of size - 1 gives the suffix minimum of the uncapacitated problem.
    c_row and q_row are written in place; solve subtracts the purchase
    term v x from c_row.

    Sparse table: level k holds the min of g_row over [j, j + 2^k), for
    2^k <= cap + 1, then +inf for the 2^k states past the row's end, as
    far as any read of the level goes, so a block or a window cut off at
    the row's end needs no case of its own. The window minimum is the min of
    the two top-level blocks that start at i and end at i + cap; min does
    not round, so it is exact. Time and memory are O(size log cap) instead
    of O(size cap), and the table is freed when the call returns.

    The orders first pick out the capacity slides: states whose offsets
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
    np.minimum(levels[top][:size], levels[top][shift:size + shift], out=c_row)
    threshold = c_row + _TIE_TOL
    c_row += K   # the cost of ordering, until C is done
    ordering = g_row > c_row + _TIE_TOL
    np.multiply(ordering, cap, out=q_row)
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
        q_row[start] = pos - start
    np.minimum(g_row, c_row, out=c_row)


def solve(instance: Instance, grid: Grid | None = None) -> ValueTables:
    """Solve the instance by backward induction: on the whole rows of a
    grid, or, with no grid, on the instance's certified tables alone.

    Ordering is chosen only on strict cost improvement (beyond 1e-9), and the
    smallest minimizing quantity wins ties, so Qstar is deterministic.

    Each period takes its G row, then one _window_min_finite call, which
    writes min(G, K + window min) into the C row and the smallest optimal
    order into the Qstar row, and last subtracts the purchase term v x.

    Given a grid, every period is solved on the grid's whole row. Raises
    GridSpanError, before solving, when the grid ends below both the
    demand ceiling max(sum_t dmax_t, 1) and the structural top
    Instance.top, which is derived only then, so a grid that reaches the
    ceiling never derives it; and when the certified floor exact_from(1)
    lies above x_max, which would leave a period's certified range empty;
    no grid that reaches the ceiling does, as x_min <= -1. A capacity
    window cut at the row's end is exact on a grid that reaches the top.

    With no grid, solve returns the instance's certified tables: period
    t's rows are computed only on the instance's slide-aware cone
    (Instance.cone), C and Qstar from R_t and G from g_t up. The tables,
    and the states and purchase terms the solve evaluates, span only
    Grid(min(min_t R_t, -1), Instance.top), the cone's span up to the
    structural top (-1 keeps 0 on the grid), and carry the cone, so that
    their exact_from(t) is R_t and their g_solved_from(t) is g_t. No grid
    error can arise: the tables reach the top, and R_1 <= 0 < top. Below
    those starts, in the rows whose cone starts above the tables' floor,
    C and G hold NaN and Qstar -1, which no order is, and the tables
    refuse the reads that would take the fill for values. G is computed
    on [g_t, top] and the window kernel runs on that slice. The states of
    [R_t, g_t) are proven capacity slides and take Qstar = B and
    C = (G(x + B) + K) - v x, the float operations the kernel performs
    there. Every row takes G(y) = v y + E[l(y - d) + discount
    C_{t+1}(y - d)], with C_{n+1} = 0 and l(x') = h x'+ + p x'- evaluated
    once per solve (_end_cost) on every level a row reads, [x_min -
    dmax_n, top]: the last row reads l from g_n - dmax_n, which may lie
    below the tables. The convolution of _expected_continuation
    (clamp=False) over l + discount C_{t+1}, or over l alone on the last
    row, sums each state's holding and shortage cost and continuation as
    one dot product, where a whole-row solve adds the closed-form loss row
    and sums the demand points one at a time over the whole row. Every
    solved entry is, by the cone, bit for bit that of a whole-row solve
    that folds l the same way over rows padded below with the clamp, and
    the last row over l itself, on any grid that certifies the cone (its
    plain certified floor e_t at or below R_t, reaching the top):
    - g_t - dmax_t >= R_{t+1} >= e_{t+1} (Instance.cone), so the expected
      continuation of row t < n from g_t reads row t + 1, and l, only
      where row t + 1 is solved, and no read is left for the clamp below
      the grid;
    - each continuation output is one dot product over the same
      max_value + 1 operands, in the same order, wherever its row starts;
    - l, the sum l + discount C_{t+1}, the purchase term and the C
      update are state by state, and the window minimum and its
      orders read only upward, from a state to the row's end, which a
      row cut at the top leaves the same (Instance.top);
    - a slide's window minimum is G(x + B), x + B >= g_t, in floats too;
    so by induction from the last period each entry is the same float
    operations on the same operands. At B = inf the cone is the plain
    certified range of whole rows on cex.search_grid, R_t = g_t.
    Against a whole-row solve, the entries agree to rounding: over the
    810 Poisson bed points C is within 5.1e-14 relative and Qstar equal.
    Of the two, the fold is the nearer to the exact values, as the closed
    form subtracts a partial sum from a mean rounded on its own.
    """
    n = instance.horizon
    cone, below = None, 0
    if grid is None:
        cone = instance.cone
        # the tables span the cone alone, from its lowest state (or -1, as
        # a grid holds 0) up to the structural top
        grid = Grid(min(min(first for first, _ in cone), -1), instance.top)
        # the last row reads l from g_n - dmax_n, which may lie below them
        below = instance.demands[n - 1].max_value
    else:
        if grid.x_max < _demand_ceiling(instance) and grid.x_max < instance.top:
            raise GridSpanError(
                f"grid top {grid.x_max} lies below the structural top "
                f"{instance.top}; widen the grid upward")
        floors = instance.floors
        # exact_from(1): below a top lower than the demand ceiling, a
        # period's certified range could otherwise be empty
        certified = grid.x_min + floors[0] - floors[n - 1]
        if certified > grid.x_max:
            raise GridSpanError(
                f"the certified floor exact_from(1) = {certified} lies above "
                f"the grid top {grid.x_max}; widen the grid downward")
    size = grid.size
    # the levels l is read at, [x_min - below, x_max]; the tables' states
    # are the last size of them
    levels = np.arange(grid.x_min - below, grid.x_max + 1, dtype=np.float64)
    states = levels[below:]
    purchase = instance.v * states
    # no order reaches past x_max, so B = inf is a window as wide as the row
    cap = size - 1 if instance.B == math.inf else int(instance.B)

    tables = ValueTables(C=np.empty((n, size)), G=np.empty((n, size)),
                         Qstar=np.empty((n, size), dtype=np.int64), grid=grid,
                         instance=instance, cone=cone)
    c_tbl, g_tbl, q_tbl = tables.C, tables.G, tables.Qstar

    # the one-period cost on end-of-period inventory, which every certified
    # row takes inside its continuation's convolution
    ell = None if cone is None else _end_cost(levels, instance.h, instance.p)

    # each row's first solved columns: R_t and g_t of the cone, less x_min
    starts = ([(0, 0)] * n if cone is None else
              [(first - grid.x_min, g_first - grid.x_min)
               for first, g_first in cone])
    for t in range(n - 1, -1, -1):
        pmf = instance.demands[t]
        lo, g_lo = starts[t]
        g_row, c_row = g_tbl[t, g_lo:], c_tbl[t, lo:]
        if cone is not None:
            # G(y) = v y + E[l(y - d) + discount C_{t+1}(y - d)], C_{n+1} = 0,
            # read from g_t - max_value: at or above row t + 1's R_{t + 1}
            # before the last row, at or above x_min - below on it
            nxt = g_lo - pmf.max_value
            folded = ell[below + nxt:]
            if t < n - 1:
                ahead = c_tbl[t + 1, nxt:]
                if instance.discount != 1.0:
                    ahead = ahead * instance.discount
                folded = folded + ahead
            np.add(purchase[g_lo:],
                   _expected_continuation(folded, pmf, clamp=False), out=g_row)
        else:
            np.add(purchase[g_lo:],
                   _loss_row(states[g_lo:], pmf, instance.h, instance.p),
                   out=g_row)
            # nothing is owed after the last period; adding its zero still
            # keeps every bit (-0.0 + 0.0 is 0.0)
            cont = 0.0 if t == n - 1 else _expected_continuation(c_tbl[t + 1], pmf)
            if instance.discount != 1.0:   # x * 1.0 is x, bit for bit
                cont *= instance.discount
            g_row += cont
        if g_lo > lo:
            # the capacity slides [R_t, g_t) take the kernel's own operations
            # there, with the window minimum G(x + B): C + v x = G(x + B) + K
            np.add(g_tbl[t, lo + cap:g_lo + cap], instance.K,
                   out=c_row[:g_lo - lo])
            q_tbl[t, lo:g_lo] = cap
        _window_min_finite(g_row, cap, instance.K, c_row[g_lo - lo:],
                           q_tbl[t, g_lo:])
        c_row -= purchase[lo:]
        c_tbl[t, :lo] = g_tbl[t, :g_lo] = np.nan
        q_tbl[t, :lo] = -1

    return tables
