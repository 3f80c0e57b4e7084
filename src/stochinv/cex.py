"""Randomized search for policies that start and stop ordering.

Instances with very lumpy demand (a sizable chance of demand far above the
order capacity) can make the optimal policy order, stop, and order again as
inventory falls. This module generates such instances at random, solves
them on search_grid, from the deepest reachable backlog up to the
structural top of stochinv.sdp.Reach, and collects the ones where the
continuous order property fails, together with a monotonicity diagnostic
on the order-advantage function V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .demand import pmf_empirical
from .policy import CopReport, _state_runs, check_cop
from .sdp import Grid, Instance, Reach, ValueTables, solve


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
        # a float or a boolean here would pass the range checks below and
        # stop the search mid-run
        for name in ("seed", "budget", "horizon", "points_per_pmf"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("K_range", "p_range", "B_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} is empty")
        # each lower end bounds every draw: a bad one would stop the search
        # at its first instance, not here
        if self.B_range[0] < 1:
            raise ValueError("B_range[0] must be at least 1")
        if self.K_range[0] < 0:
            raise ValueError("K_range[0] must be nonnegative")
        if self.p_range[0] <= 0:
            raise ValueError("p_range[0] must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.points_per_pmf < 2:
            raise ValueError("points_per_pmf must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        # each PMF draws points_per_pmf - 1 distinct values in
        # (B, support_max], so the largest B needs that many above it
        least = self.B_range[1] + self.points_per_pmf - 1
        if least > self.support_max:
            raise ValueError(
                f"support_max must be at least {least} (B_range[1] + "
                f"points_per_pmf - 1) to leave points_per_pmf - 1 support "
                f"points above every capacity, got {self.support_max}")


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
        # choice over support_max - cap values draws what choice over the
        # array cap + 1..support_max draws, without building that array
        above = cap + 1 + rng.choice(params.support_max - cap,
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
    """The grid from the deepest reachable backlog up to the structural top.

    Both ends come from Reach. The floor, minus the sum of the per-period
    maximum demands, is the lowest state any period reaches from x0 = 0.
    No period orders above the top, and the tables below it are those of
    any taller grid (the proof is in the Reach docstring). With B = inf
    there is no top, so it raises ValueError.
    """
    reach = Reach.of(instance)
    if reach.top is None:
        raise ValueError("search_grid needs a finite capacity B")
    return Grid(reach.floor(instance.horizon + 1), reach.top)


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
        for period in _order_rises(tables):
            # screen out holes below the boundary-exact region: those are
            # artifacts of value clamping at the grid edge, not policy facts
            report = check_cop(tables, period, from_state=tables.exact_from(period))
            if not report.holds:
                found.append(Violation(instance, period, report, index))
    return found


def _order_rises(tables: ValueTables) -> list[int]:
    """The periods whose order row rises from no order to an order at or
    above exact_from, all periods tested at once.

    These are exactly the periods where check_cop from exact_from fails:
    the property holds there when the ordering states above the floor are
    none, or one interval that starts at the floor, and every other layout
    has an ordering interval starting above the floor, right after a state
    that does not order.
    """
    periods = range(1, tables.instance.horizon + 1)
    first = np.array([tables.exact_from(t) for t in periods]) - tables.grid.x_min
    ordering = tables.Qstar > 0
    # column j: no order at state index j, an order at j + 1
    rises = ordering[:, 1:] > ordering[:, :-1]
    rises &= np.arange(tables.grid.size - 1) >= first[:, None]
    return (np.flatnonzero(rises.any(axis=1)) + 1).tolist()


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
