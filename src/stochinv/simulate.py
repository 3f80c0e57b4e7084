"""Exact policy evaluation by a forward pass over the inventory distribution.

A policy is a row of orders per period, each ending at the grid's top:
tables.Qstar for the optimal policy, and the table of
ThresholdPolicy.orders for a threshold policy such as the heuristic.

expected_cost prices a policy exactly. It carries the distribution of
the inventory forward one period at a time and adds up each period's
expected ordering cost, and its holding and shortage cost as one dot
product over the end-of-period distribution that the next period starts
from. _price, which optimality_gap and CLI simulate call, is the one
pricing entry for solved tables: it prices tables.Qstar in one such
pass, checks it against the solved value and, given a threshold policy,
prices that too. The threshold policy shares the optimal pass for as
long as both tables order alike at every state the distribution covers,
and splits off in the first period where they do not, to continue alone
from that period's shared state. Up to the split both passes take the
same float operations on the same operands, so each price keeps the
bits of its own expected_cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .policy import ThresholdPolicy
from .sdp import (_CONVOLVE_TILE, _TIE_TOL, Grid, Instance, ValueTables,
                  _end_cost, _is_integral, _tile_sum)


class SimulationError(RuntimeError):
    """The optimal policy's exact cost disagrees with the solved value."""


# SimulationConfig and its max_reps floor stay only because
# perfbench/workloads.py's Bed.setup passes one to run_benchmark; they
# leave with ROADMAP item 1
MIN_REPS = 1000


@dataclass(frozen=True)
class SimulationConfig:
    base_seed: int
    confidence: float = 0.95
    target_rel_error: float = 1e-4
    max_reps: int = 50_000_000

    def __post_init__(self):
        if self.base_seed < 0:
            raise ValueError("base_seed must be nonnegative")
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        if not self.target_rel_error > 0:
            raise ValueError("target_rel_error must be positive")
        if self.max_reps < MIN_REPS:
            raise ValueError(f"max_reps must be at least {MIN_REPS}")


def expected_cost(instance: Instance, grid: Grid, orders: np.ndarray,
                  x0: int) -> float:
    """Exact expected total discounted cost of an order table from x0.

    orders[t - 1] is period t's row of orders (ThresholdPolicy.orders,
    ValueTables.Qstar), which ends at grid.x_max: its entry i is the order
    at x_max + 1 - row.size + i, and states above x_max, or below a row
    from x_min, take the order at the row's nearest end. The
    pre-order inventory's distribution starts as all mass at x0. Each
    period adds the expected ordering cost, moves the mass to the
    post-order levels and convolves with the demand PMF to get the
    end-of-period distribution, which the next period starts from. On it
    the period adds the expected holding and shortage cost, one dot
    product with l(x') = h x'+ + p x'- at each level (sdp._end_cost),
    which the certified rows of solve fold into their continuation the
    same way. States are never clamped, so this is
    the policy's true expectation; the Monte Carlo sampler in the tests
    estimates the same quantity. The work is the sum over periods of the
    distribution's width times the demand support. Every sum is taken in
    tiles of at most _CONVOLVE_TILE terms (sdp._tile_sum), so a price does
    not depend on the BLAS thread count however wide the distribution.
    Raises ValueError unless x0 is an integer; unless orders has a row per
    period on the grid, the widest from x_min (or from 0 on a grid from
    -1, as certified tables may), as orders of another grid would price
    other states' orders; where the distribution reads below a row that
    starts above x_min; and where it reads a negative order.
    """
    return _forward(instance, grid, orders, _start(x0))[0]


class _PassState(NamedTuple):
    """A forward pass at the start of a period: the inventory distribution,
    dist[i] = P(x = lo + i), and the discounted cost and discount factor
    of the periods before."""

    period: int
    lo: int
    dist: np.ndarray
    total: float
    factor: float


def _start(x0: int) -> _PassState:
    """All mass at x0 before the first period, nothing spent."""
    if not _is_integral(x0):
        raise ValueError(f"state {x0!r} is not an integer")
    return _PassState(1, x0, np.ones(1), 0.0, 1.0)


def _forward(instance: Instance, grid: Grid, orders: np.ndarray,
             state: _PassState, rival: np.ndarray | None = None
             ) -> tuple[float, _PassState | None]:
    """expected_cost's pass under orders from state to the horizon.

    Returns the cost and, given a rival order table, the state at the
    start of the first period where the rival orders differently at some
    state the distribution covers, or None where it never does. Up to
    that period a pass under the rival takes the same operations on the
    same operands, so continuing it from the returned state gives the
    rival's expected_cost bit for bit. Raises ValueError for orders that
    do not fit the grid (expected_cost).
    """
    # the rows' grid: from the widest row's start, or -1 above it (solve)
    widest = max((row.size for row in orders), default=0)
    if (len(orders) != instance.horizon
            or grid.x_min != min(grid.x_max + 1 - widest, -1)):
        raise ValueError(
            f"an order table of shape {(len(orders), widest)} does not fit "
            f"{instance.horizon} periods on the grid [{grid.x_min}, "
            f"{grid.x_max}] of {grid.size} states")
    first, lo, dist, total, factor = state
    fork = None
    # the levels of the pass, and l on each, built once: demand takes a
    # level at most the later periods' max demands down, and the orders of
    # solved tables and of the threshold policies read off them, never
    # below zero, take it no higher than x_max or where it started
    base = lo + instance.floors[-1] - instance.floors[first - 1]
    levels, ell = _levels(base, max(lo + dist.size - 1, grid.x_max), instance)
    for period in range(first, instance.horizon + 1):
        pmf = instance.demands[period - 1]
        xs = levels[lo - base:lo - base + dist.size]
        row = orders[period - 1]
        start = grid.x_max + 1 - row.size
        if lo < start and row.size < grid.size:
            raise ValueError(
                f"period {period} reads the state {lo}, below its row of "
                f"orders, which starts at {start}")
        q = row.take(xs - start, mode="clip")
        if rival is not None and (
                q != rival[period - 1].take(xs - grid.x_min, mode="clip")).any():
            fork = _PassState(period, lo, dist, total, factor)
            rival = None
        if q.min() < 0:
            raise ValueError(
                f"period {period} reads the negative order {q.min()}: no "
                "policy orders below zero")
        ordering = q > 0
        cost = _dot(dist[ordering], instance.K + instance.v * q[ordering])
        ys = xs + q
        y_lo = int(ys.min())
        dist_y = np.bincount(ys - y_lo, weights=dist)
        # x' = y - d: offset (y - y_lo) + (max_value - d) from the new lowest state
        dist = _spread(dist_y, pmf.dense[::-1])
        lo = y_lo - pmf.max_value
        if lo + dist.size > base + levels.size:
            # an order past x_max, which only a table of the caller's own
            # makes: the levels reach up to the new ones
            levels, ell = _levels(base, lo + dist.size - 1, instance)
        # the holding and shortage cost, charged on the end-of-period levels
        cost += _dot(dist, ell[lo - base:lo - base + dist.size])
        total += factor * cost
        factor *= instance.discount
    return float(total), fork


def _levels(lo: int, hi: int, instance: Instance
            ) -> tuple[np.ndarray, np.ndarray]:
    """The levels lo..hi and l(x') = h x'+ + p x'- at each (sdp._end_cost),
    which is state by state, so a slice of it holds the bits of l on the
    slice's levels alone."""
    levels = np.arange(lo, hi + 1)
    return levels, _end_cost(levels.astype(np.float64), instance.h, instance.p)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b, summed in tiles (sdp._tile_sum) so that its bits do not depend
    on the BLAS thread count."""
    if a.size <= _CONVOLVE_TILE:   # one tile: the same call, without the
        return a @ b               # closure and slices that cost more here
    return _tile_sum(lambda lo, hi: a[lo:hi] @ b[lo:hi], a.size)


def _spread(dist: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """np.convolve(dist, masses), summed in tiles of masses (sdp._tile_sum)
    so that its bits do not depend on the BLAS thread count."""
    if masses.size <= _CONVOLVE_TILE:   # one tile: the same call
        return np.convolve(dist, masses)
    # masses lo..hi-1 reach the outputs from lo up
    return _tile_sum(lambda lo, hi: np.pad(np.convolve(dist, masses[lo:hi]),
                                           (lo, masses.size - hi)),
                     masses.size)


def _percent_gap(cost: float, optimum: float) -> float:
    """Percent excess of cost over optimum: 0 if equal, inf if only optimum is 0."""
    if cost == optimum:
        return 0.0
    return math.inf if optimum == 0 else 100.0 * (cost - optimum) / optimum


def optimality_gap(instance: Instance, tables: ValueTables,
                   heuristic: ThresholdPolicy, x0: int) -> float:
    """Exact percent cost excess of a threshold policy over the optimal table.

    Both policies are priced in one forward pass (_price), each to
    expected_cost's bits; SimulationError is raised when the optimal price
    does not reproduce the solved value.
    """
    opt, heur = _price(instance, tables, heuristic, x0)
    return _percent_gap(heur, opt)


def _price(instance: Instance, tables: ValueTables,
           policy: ThresholdPolicy | None, x0: int) -> tuple[float, float | None]:
    """The exact costs of tables.Qstar and of a threshold policy from x0;
    the second is None when no policy is given.

    Both are priced in one forward pass. It runs under tables.Qstar and
    carries the threshold policy's order table along while both tables
    order alike at every state the distribution covers; where they first
    differ, the threshold policy's pass splits off and continues alone
    from that period's shared state. Up to the split the two passes take
    the same operations on the same operands, so each price is
    expected_cost's bit for bit, and a policy that never splits off costs
    exactly the optimum. The optimal price must equal the solved value at
    (first period, x0) within the solver's tie tolerance once per period
    plus the same tolerance relative to the value; otherwise the tables do
    not belong to the instance, or the grid edge reaches x0, and
    SimulationError is raised before the threshold policy's pass goes on.
    """
    grid = tables.grid
    orders = None if policy is None else policy.orders(grid, instance.B)
    opt, fork = _forward(instance, grid, tables.Qstar, _start(x0), orders)
    dp_value = tables.cost_at(1, x0)
    if abs(opt - dp_value) > _TIE_TOL * (instance.horizon + abs(dp_value)):
        raise SimulationError(
            f"exact optimal cost {opt!r} differs from the solved value "
            f"{dp_value!r}")
    if policy is None:
        return opt, None
    heur = opt if fork is None else _forward(instance, grid, orders, fork)[0]
    return opt, heur
