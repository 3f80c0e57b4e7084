"""Exact policy evaluation by a forward pass over the inventory distribution.

A policy is an order table on the inventory grid, shaped like
ValueTables.Qstar: tables.Qstar for the optimal policy, and
ThresholdPolicy.orders for a threshold policy such as the heuristic.

expected_cost prices a policy exactly. It carries the distribution of
the inventory forward one period at a time and adds up each period's
expected ordering, holding and shortage cost. optimal_cost prices
tables.Qstar and checks it against the solved value; optimality_gap
uses both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .policy import ThresholdPolicy
from .sdp import _TIE_TOL, Grid, Instance, ValueTables, _loss_row


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

    orders[t - 1, x - grid.x_min] is the order in period t at inventory x;
    states off the grid take the order of the nearest grid edge. The
    pre-order inventory's distribution starts as all mass at x0. Each
    period adds the expected ordering cost, moves the mass to the
    post-order levels, adds the expected holding and shortage cost there
    (the solver's closed form) and convolves with the demand PMF to get
    the next period's distribution. States are never clamped, so this is
    the policy's true expectation; the Monte Carlo sampler in the tests
    estimates the same quantity. The work is the sum over periods of the
    distribution's width times the demand support. Raises ValueError where
    the distribution reads a negative order, such as the fill below the
    certified range of certified_only tables.
    """
    lo = x0                  # lowest state of the distribution
    dist = np.ones(1)        # dist[i] = P(x = lo + i)
    total = 0.0
    factor = 1.0
    for period in range(1, instance.horizon + 1):
        pmf = instance.demands[period - 1]
        xs = np.arange(lo, lo + dist.size)
        q = orders[period - 1].take(xs - grid.x_min, mode="clip")
        if q.min() < 0:
            raise ValueError(
                f"period {period} reads the negative order {q.min()}: no "
                "policy orders below zero (certified_only tables hold -1 "
                "below their certified range)")
        ordering = q > 0
        cost = dist[ordering] @ (instance.K + instance.v * q[ordering])
        ys = xs + q
        y_lo = int(ys.min())
        dist_y = np.bincount(ys - y_lo, weights=dist)
        levels = np.arange(y_lo, y_lo + dist_y.size, dtype=np.float64)
        cost += dist_y @ _loss_row(levels, pmf, instance.h, instance.p)
        total += factor * cost
        factor *= instance.discount
        # x' = y - d: offset (y - y_lo) + (max_value - d) from the new lowest state
        dense = np.zeros(pmf.max_value + 1)
        dense[pmf.support_arr] = pmf.probs_arr
        dist = np.convolve(dist_y, dense[::-1])
        lo = y_lo - pmf.max_value
    return float(total)


def _percent_gap(cost: float, optimum: float) -> float:
    """Percent excess of cost over optimum: 0 if equal, inf if only optimum is 0."""
    if cost == optimum:
        return 0.0
    return math.inf if optimum == 0 else 100.0 * (cost - optimum) / optimum


def optimal_cost(instance: Instance, tables: ValueTables, x0: int) -> float:
    """Exact expected cost of tables.Qstar from x0, checked against the tables.

    The cost must equal the solved value at (first period, x0) within the
    solver's tie tolerance once per period plus the same tolerance
    relative to the value; otherwise the tables do not belong to the
    instance, or the grid edge reaches x0, and SimulationError is raised.
    """
    opt = expected_cost(instance, tables.grid, tables.Qstar, x0)
    dp_value = tables.cost_at(1, x0)
    if abs(opt - dp_value) > _TIE_TOL * (instance.horizon + abs(dp_value)):
        raise SimulationError(
            f"exact optimal cost {opt!r} differs from the solved value "
            f"{dp_value!r}")
    return opt


def optimality_gap(instance: Instance, tables: ValueTables,
                   heuristic: ThresholdPolicy, x0: int) -> float:
    """Exact percent cost excess of a threshold policy over the optimal table.

    The optimal table is priced by optimal_cost, which raises
    SimulationError when it does not reproduce the solved value, and the
    threshold policy by expected_cost.
    """
    opt = optimal_cost(instance, tables, x0)
    grid = tables.grid
    heur = expected_cost(instance, grid, heuristic.orders(grid, instance.B), x0)
    return _percent_gap(heur, opt)
