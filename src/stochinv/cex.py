"""Randomized search for policies that start and stop ordering.

Instances with very lumpy demand (a sizable chance of demand far above the
order capacity) can make the optimal policy order, stop, and order again as
inventory falls. This module generates such instances at random, solves
them on search_grid, from minus the sum of the per-period maximum demands
up to that sum, which holds the structural top stochinv.sdp.Instance.top
without deriving it, and collects the periods where check_cop, run on each
period from its exact_from up, finds the continuous order property
violated, together with a monotonicity diagnostic on the order-advantage
function V. The draw settings are the module constants below; a search is
set only by its seed, its budget and its mass allocation (CexSearchParams).
Its draws are built by demand._finalize, as every PMF the package generates
is; pmf_empirical's checks are for outside input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .demand import _finalize
from .policy import CopReport, _state_runs, check_cop
from .sdp import (_TIE_TOL, Grid, Instance, ValueTables, _demand_ceiling,
                  solve)


# the draw settings: fixed cost K, penalty p and capacity B are uniform
# over these ranges, and each of the HORIZON periods' PMFs has
# POINTS_PER_PMF support points, one below B and the rest in
# (B, SUPPORT_MAX], which leaves room above the largest B
K_RANGE = (1.0, 500.0)
P_RANGE = (1.0, 30.0)
B_RANGE = (20, 200)
SUPPORT_MAX = 300
POINTS_PER_PMF = 4
HORIZON = 4


@dataclass(frozen=True)
class CexSearchParams:
    seed: int
    budget: int
    equal_masses: bool = False

    def __post_init__(self):
        # a float or a boolean here would pass the sign checks below and
        # stop the search mid-run
        for name in ("seed", "budget"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")


class Violation(NamedTuple):
    instance: Instance
    period: int
    report: CopReport
    index: int   # position in the generation sequence, for replay


def random_instance(params: CexSearchParams, rng: np.random.Generator) -> Instance:
    """Draw one instance: lumpy four-point demand around a random capacity.

    Each period's PMF has exactly one support point below B and the rest
    above it (but at most SUPPORT_MAX); masses are uniform draws normalized
    to one, or exactly equal under params.equal_masses. A mass drawn as
    exactly 0.0 (probability 2**-53 a draw) drops its point.
    """
    k_fixed = rng.uniform(*K_RANGE)
    p_cost = rng.uniform(*P_RANGE)
    cap = int(rng.integers(B_RANGE[0], B_RANGE[1] + 1))
    demands = []
    for _ in range(HORIZON):
        below = rng.integers(0, cap)
        # choice over SUPPORT_MAX - cap values draws what choice over the
        # array cap + 1..SUPPORT_MAX draws, without building that array
        above = cap + 1 + rng.choice(SUPPORT_MAX - cap,
                                     size=POINTS_PER_PMF - 1, replace=False)
        values = np.concatenate(([below], above))
        if params.equal_masses:
            masses = np.full(POINTS_PER_PMF, 1.0 / POINTS_PER_PMF)
        else:
            masses = rng.random(POINTS_PER_PMF)
            masses /= masses.sum()
        demands.append(_finalize(values, masses))
    return Instance(horizon=HORIZON, K=k_fixed, v=0.0, h=1.0, p=p_cost,
                    B=cap, demands=tuple(demands))


def search_grid(instance: Instance) -> Grid:
    """The grid from the deepest reachable backlog up to the demand ceiling.

    Both ends come from the demands. The floor, minus the sum of the
    per-period maximum demands, is the lowest state any period reaches
    from x0 = 0; it stays at -1 or below, as a grid needs, when every
    demand is 0. The ceiling is that sum (at least 1): above it no demand
    path goes short, so it holds the structural top Instance.top, and the
    tables below the top are those of any taller grid, for every capacity
    B (the proof is in the Instance.top docstring). The search keeps the
    ceiling rather than the top: deriving the top costs about 46 us an
    instance and would cut its small grids only 1.13x, so solving and
    checking 1,000 search instances up to the top took 305 ms against
    250 ms up to the ceiling.
    """
    return Grid(min(instance.floors[-1], -1), _demand_ceiling(instance))


def search_cop_violations(params: CexSearchParams) -> list[Violation]:
    """Generate, solve, and check `budget` instances; return the violators.

    Every period is checked from its exact_from up: holes below it are
    artifacts of value clamping at the grid edge, not policy facts.
    Deterministic for a given seed and budget: instance i is always built
    from the same stretch of the stream, so any violator can be regenerated.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(params.seed)))
    found = []
    for index in range(params.budget):
        instance = random_instance(params, rng)
        tables = solve(instance, search_grid(instance))
        for period in range(1, instance.horizon + 1):
            report = check_cop(tables, period, from_state=tables.exact_from(period))
            if not report.holds:
                found.append(Violation(instance, period, report, index))
    return found


def v_monotonicity_report(tables: ValueTables, period: int) -> tuple[tuple[int, int], ...]:
    """Maximal state intervals where the order-advantage function decreases.

    V(x) = C(x) + vx - G(x) = min(0, K + min over the reachable window of G
    minus G(x)) is nondecreasing whenever the continuous order property
    mechanism works; a decreasing run pinpoints where capacity breaks it.
    Returns (lo, hi) pairs such that V(x+1) < V(x) - 1e-9, the solver's tie
    tolerance, for x in [lo, hi], restricted to states unaffected by the
    lower grid edge where G was solved: on certified tables from
    g_solved_from up, where a C row that starts above raises ValueError.
    Single-period tables always produce an empty report.
    """
    r = tables.row(period)
    floor = max(tables.exact_from(period), tables.g_solved_from(period))
    c = tables.C[r][tables.column(period, floor):]
    v = c + tables.instance.v * tables.grid.states[-c.size:] - tables.G[r][-c.size:]
    return _state_runs(np.diff(v) < -_TIE_TOL, floor)
