"""Modified (s, S) heuristic.

Each period keeps only the top threshold pair of the optimal policy: order
up to S, or as close as capacity allows, whenever inventory is at or below
s. The pair is read off the order-property screen of the solved action
table, and the policy is simulated from its order table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import check_cop
from .sdp import Grid, ValueTables


@dataclass(frozen=True)
class ModifiedSSPolicy:
    """Per-period reorder threshold s and order-up-to level S.

    None entries mean the period never orders. cop_violated lists the
    1-based periods where the thresholds came from the topmost ordering
    interval of a table without the continuous order property.
    """

    s: tuple[int | None, ...]
    S: tuple[int | None, ...]
    cop_violated: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.s) != len(self.S):
            raise ValueError("s and S must have one entry per period")
        for s_t, big_t in zip(self.s, self.S):
            if (s_t is None) != (big_t is None):
                raise ValueError("s and S must be None together")
            if s_t is not None and not s_t < big_t:
                raise ValueError(f"need s < S, got ({s_t}, {big_t})")

    def orders(self, grid: Grid, B: int | float) -> np.ndarray:
        """Order quantities on the grid, shaped like ValueTables.Qstar.

        Row t - 1 holds period t. At inventory x the policy orders up to S,
        capped at B, when x is at or below the reorder point s, and orders
        nothing otherwise. Ordering at x = s mirrors the optimal table,
        which by construction of s_m places an order at the reorder point
        itself.
        """
        xs = grid.states
        table = np.zeros((len(self.s), grid.size), dtype=np.int64)
        for row, (s_t, big_t) in enumerate(zip(self.s, self.S)):
            if s_t is not None:
                table[row] = np.where(xs <= s_t, np.minimum(big_t - xs, B), 0)
        return table


def modified_ss_from_tables(tables: ValueTables,
                            screen_grid_edge: bool = True) -> ModifiedSSPolicy:
    """Extract the per-period top (s_m, S_m) pair from solved tables.

    s_m is the top of the highest ordering interval and S_m = s_m +
    Qstar(s_m). Where the continuous order property holds this is the last
    pair extract_thresholds reports; where it fails, the period is flagged
    in cop_violated. With screen_grid_edge the order-property check
    ignores states whose values are touched by the lower grid boundary.
    """
    s_list: list[int | None] = []
    big_list: list[int | None] = []
    flagged = []
    for period in range(1, tables.instance.horizon + 1):
        floor = tables.exact_from(period) if screen_grid_edge else None
        report = check_cop(tables, period, floor)
        if not report.holds:
            flagged.append(period)
        if report.ordering_set:
            _, s_m = report.ordering_set[-1]
            s_list.append(s_m)
            big_list.append(s_m + tables.qstar_at(period, s_m))
        else:
            s_list.append(None)
            big_list.append(None)
    return ModifiedSSPolicy(tuple(s_list), tuple(big_list), tuple(flagged))
