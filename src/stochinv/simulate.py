"""Policy evaluation: exact by a forward pass, or by Monte Carlo under CRN.

A policy is an order table on the inventory grid, shaped like
ValueTables.Qstar: tables.Qstar for the optimal policy, and
ThresholdPolicy.orders for a threshold policy such as the heuristic.

expected_cost prices a policy exactly. It carries the distribution of
the inventory forward one period at a time and adds up each period's
expected ordering, holding and shortage cost; optimality_gap uses it.

simulate_policy estimates the same expectation by replication and serves
as the independent cross-check. Every replication's demands come from a
counter-based stream keyed by the base seed and the replication index
alone, so any two policies simulated with the same config consume
identical demand realizations. Sample size grows until a
normal-approximation confidence interval meets a relative error target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .policy import ThresholdPolicy
from .sdp import _TIE_TOL, Grid, Instance, ValueTables, _loss_row

_CHUNK = 10_000   # replications per stream block, and the CI check cadence
# the floor of max_reps; with _CHUNK above it, the first block, and so the
# first CI check, holds at least this many replications
MIN_REPS = 1000


class SimulationError(RuntimeError):
    """The optimal policy's simulated or exact cost disagrees with the solved value."""


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


class SimulationEstimate(NamedTuple):
    mean_cost: float
    half_width: float
    reps: int
    converged: bool


def _chunk_uniforms(base_seed: int, chunk_index: int, rows: int, cols: int) -> np.ndarray:
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(seq)).random((rows, cols))


def _chunk_costs(instance: Instance, grid: Grid, orders: np.ndarray, x0: int,
                 base_seed: int, chunk_index: int, rows: int) -> np.ndarray:
    """Total discounted cost of `rows` replications from one stream block."""
    n = instance.horizon
    u = _chunk_uniforms(base_seed, chunk_index, rows, n)
    x = np.full(rows, x0, dtype=np.int64)
    total = np.zeros(rows)
    factor = 1.0
    for period in range(1, n + 1):
        pmf = instance.demands[period - 1]
        q = orders[period - 1].take(x - grid.x_min, mode="clip")
        cum = pmf.cum_probs
        d_idx = np.minimum(np.searchsorted(cum, u[:, period - 1], side="right"),
                           cum.size - 1)
        d = pmf.support_arr[d_idx]
        level = x + q - d
        cost = (np.where(q > 0, instance.K + instance.v * q, 0.0)
                + instance.h * np.maximum(level, 0)
                + instance.p * np.maximum(-level, 0))
        total += factor * cost
        factor *= instance.discount
        x = level
    return total


def simulate_policy(instance: Instance, grid: Grid, orders: np.ndarray,
                    x0: int, config: SimulationConfig) -> SimulationEstimate:
    """Estimate a policy's expected total cost from x0 by replication.

    orders[t - 1, x - grid.x_min] is the order in period t at inventory x;
    states off the grid take the order of the nearest grid edge. Returns
    once the half-width is within target_rel_error of the mean, or with
    converged=False when max_reps is exhausted first.
    """
    from scipy import special

    # the normal quantile, as scipy.stats.norm.ppf computes it
    z = special.ndtri(0.5 + config.confidence / 2.0)
    total = 0.0
    total_sq = 0.0
    reps = 0
    chunk_index = 0
    while True:
        rows = min(_CHUNK, config.max_reps - reps)
        costs = _chunk_costs(instance, grid, orders, x0, config.base_seed,
                             chunk_index, rows)
        total += costs.sum()
        total_sq += (costs * costs).sum()
        reps += rows
        chunk_index += 1
        mean = total / reps
        var = max(total_sq - total * total / reps, 0.0) / (reps - 1)
        half = z * math.sqrt(var / reps)
        target = config.target_rel_error * abs(mean)
        if half <= target and (mean != 0.0 or half == 0.0):
            return SimulationEstimate(mean, half, reps, True)
        if reps >= config.max_reps:
            return SimulationEstimate(mean, half, reps, False)


def expected_cost(instance: Instance, grid: Grid, orders: np.ndarray,
                  x0: int) -> float:
    """Exact expected total discounted cost of an order table from x0.

    The pre-order inventory's distribution starts as all mass at x0. Each
    period reads the orders with the same clipped lookup as
    simulate_policy, adds the expected ordering cost, moves the mass to the
    post-order levels, adds the expected holding and shortage cost there
    (the solver's closed form) and convolves with the demand PMF to get
    the next period's distribution. States are never clamped, so this is
    exactly the expectation that simulate_policy estimates. The work is
    the sum over periods of the distribution's width times the demand
    support.
    """
    lo = x0                  # lowest state of the distribution
    dist = np.ones(1)        # dist[i] = P(x = lo + i)
    total = 0.0
    factor = 1.0
    for period in range(1, instance.horizon + 1):
        pmf = instance.demands[period - 1]
        xs = np.arange(lo, lo + dist.size)
        q = orders[period - 1].take(xs - grid.x_min, mode="clip")
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


def gap_with_estimates(instance: Instance, tables: ValueTables,
                       heuristic: ThresholdPolicy, x0: int,
                       config: SimulationConfig,
                       ) -> tuple[float, SimulationEstimate, SimulationEstimate]:
    """Heuristic-vs-optimal percent gap plus the two underlying estimates.

    Both policies are simulated on the same demand streams. The optimal
    policy's simulated mean is cross-checked against the solved value at
    (first period, x0) within three half-widths.
    """
    grid = tables.grid
    opt = simulate_policy(instance, grid, tables.Qstar, x0, config)
    heur = simulate_policy(instance, grid, heuristic.orders(grid, instance.B),
                           x0, config)
    dp_value = tables.cost_at(1, x0)
    slack = max(3.0 * opt.half_width, 1e-9)
    if abs(opt.mean_cost - dp_value) > slack:
        raise SimulationError(
            f"simulated optimal cost {opt.mean_cost:.6f} is more than three "
            f"half-widths ({opt.half_width:.6f}) from the solved value {dp_value:.6f}")
    return _percent_gap(heur.mean_cost, opt.mean_cost), opt, heur


def optimality_gap(instance: Instance, tables: ValueTables,
                   heuristic: ThresholdPolicy, x0: int) -> float:
    """Exact percent cost excess of a threshold policy over the optimal table.

    Both policies are priced by expected_cost. The optimal table's cost
    must equal the solved value at (first period, x0) within the solver's
    tie tolerance once per period plus the same tolerance relative to the
    value; otherwise the tables do not belong to the instance, or the grid
    edge reaches x0, and SimulationError is raised.
    """
    grid = tables.grid
    opt = expected_cost(instance, grid, tables.Qstar, x0)
    dp_value = tables.cost_at(1, x0)
    if abs(opt - dp_value) > _TIE_TOL * (instance.horizon + abs(dp_value)):
        raise SimulationError(
            f"exact optimal cost {opt!r} differs from the solved value "
            f"{dp_value!r}")
    heur = expected_cost(instance, grid, heuristic.orders(grid, instance.B), x0)
    return _percent_gap(heur, opt)
