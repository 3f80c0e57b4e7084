"""Randomized search for policies that start and stop ordering.

Instances with very lumpy demand (a sizable chance of demand far above the
order capacity) can make the optimal policy order, stop, and order again as
inventory falls. This module generates such instances at random, solves
them, and collects the ones where the continuous order property fails,
together with a monotonicity diagnostic on the order-advantage function V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .demand import pmf_empirical
from .policy import CopReport, _state_runs, check_cop
from .sdp import Grid, Instance, ValueTables, solve


@dataclass(frozen=True)
class CexSearchParams:
    seed: int
    budget: int
    K_range: tuple[float, float] = (1.0, 500.0)
    p_range: tuple[float, float] = (1.0, 30.0)
    B_range: tuple[int, int] = (20, 200)
    support_max: int = 300
    points_per_pmf: int = 4
    horizon: int = 4
    equal_masses: bool = False

    def __post_init__(self):
        for name in ("K_range", "p_range", "B_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} is empty")
        if self.points_per_pmf < 2:
            raise ValueError("points_per_pmf must be at least 2")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if self.B_range[1] + 1 > self.support_max:
            raise ValueError("support_max leaves no room above the capacity")


class Violation(NamedTuple):
    instance: Instance
    period: int
    report: CopReport
    index: int   # position in the generation sequence, for replay


def random_instance(params: CexSearchParams, rng: np.random.Generator) -> Instance:
    """Draw one instance: lumpy four-point demand around a random capacity.

    Each period's PMF has exactly one support point below B and the rest
    above it (but at most support_max); masses are uniform draws normalized
    to one, or exactly equal under params.equal_masses.
    """
    k_fixed = rng.uniform(*params.K_range)
    p_cost = rng.uniform(*params.p_range)
    cap = int(rng.integers(params.B_range[0], params.B_range[1] + 1))
    demands = []
    for _ in range(params.horizon):
        below = rng.integers(0, cap)
        above = rng.choice(np.arange(cap + 1, params.support_max + 1),
                           size=params.points_per_pmf - 1, replace=False)
        values = np.concatenate(([below], above))
        if params.equal_masses:
            masses = np.full(params.points_per_pmf, 1.0 / params.points_per_pmf)
        else:
            masses = rng.random(params.points_per_pmf)
            masses /= masses.sum()
        demands.append(pmf_empirical(values, masses))
    return Instance(horizon=params.horizon, K=k_fixed, v=0.0, h=1.0, p=p_cost,
                    B=cap, demands=tuple(demands))


def search_grid(instance: Instance) -> Grid:
    """A grid spanning every state where ordering structure can appear.

    The floor covers the deepest reachable backlog. The ceiling matters
    for detection: detached ordering islands sit near later periods'
    ordering boundaries shifted up by large demand realisations, so it
    must cover sums of per-period demand maxima, not just one period's.
    """
    d_max = [d.max_value for d in instance.demands]
    return Grid(-sum(d_max), int(sum(d_max) + instance.B * instance.horizon))


def search_cop_violations(params: CexSearchParams) -> list[Violation]:
    """Generate, solve, and screen `budget` instances; return the violators.

    Deterministic for a given seed and budget: instance i is always built
    from the same stretch of the stream, so any violator can be regenerated.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(params.seed)))
    found = []
    for index in range(params.budget):
        instance = random_instance(params, rng)
        tables = solve(instance, search_grid(instance))
        for period in range(1, instance.horizon + 1):
            # screen out holes below the boundary-exact region: those are
            # artifacts of value clamping at the grid edge, not policy facts
            report = check_cop(tables, period, from_state=tables.exact_from(period))
            if not report.holds:
                found.append(Violation(instance, period, report, index))
    return found


def v_monotonicity_report(tables: ValueTables, period: int) -> tuple[tuple[int, int], ...]:
    """Maximal state intervals where the order-advantage function decreases.

    V(x) = C(x) + vx - G(x) = min(0, K + min over the reachable window of G
    minus G(x)) is nondecreasing whenever the continuous order property
    mechanism works; a decreasing run pinpoints where capacity breaks it.
    Returns (lo, hi) pairs such that V(x+1) < V(x) - 1e-9 for x in [lo, hi],
    restricted to states unaffected by the lower grid edge. Single-period
    tables always produce an empty report.
    """
    r = tables.row(period)
    v = tables.C[r] + tables.instance.v * tables.grid.states - tables.G[r]
    floor = tables.exact_from(period)
    return _state_runs(np.diff(v[tables.grid.index(floor):]) < -1e-9, floor)
