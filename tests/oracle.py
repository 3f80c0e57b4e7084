"""Brute-force reference implementations for cross-checking the solver.

Everything here is deliberately slow and structure-free: plain recursion
with memoisation, no grids, no vectorisation, so that agreement with the
array implementation is meaningful.
"""

from __future__ import annotations

import math
from functools import lru_cache


def brute_cost_to_go(instance, q_cap=None):
    """Exact cost-to-go function as a plain recursion.

    Returns callable (period, x) -> optimal expected cost, period 1-based,
    states unbounded. q_cap bounds the order size when capacity is infinite.
    """
    demands = [tuple(zip(d.support, d.probs)) for d in instance.demands]
    if instance.B == math.inf:
        if q_cap is None:
            raise ValueError("q_cap is required when capacity is infinite")
        max_q = q_cap
    else:
        max_q = int(instance.B)

    def loss(t, y):
        return sum(pr * (instance.h * max(y - d, 0) + instance.p * max(d - y, 0))
                   for d, pr in demands[t])

    @lru_cache(maxsize=None)
    def cost(t, x):
        if t == instance.horizon:
            return 0.0
        best = math.inf
        for q in range(max_q + 1):
            y = x + q
            total = (instance.K if q > 0 else 0.0) + instance.v * q
            total += loss(t, y)
            total += instance.discount * sum(
                pr * cost(t + 1, y - d) for d, pr in demands[t])
            if total < best:
                best = total
        return best

    return lambda period, x: cost(period - 1, x)


def brute_single_period_loss(y, support, probs, h, p):
    """Expected one-period holding/shortage cost, written the naive way."""
    return sum(pr * (h * max(y - d, 0) + p * max(d - y, 0))
               for d, pr in zip(support, probs))


def brute_window_min(g_row, cap):
    """Min over each capacity window [i, i+cap] and the first offset near it.

    The window stops at the end of the row. An offset attains the minimum
    when its value is within 1e-9 of it; the smallest such offset wins.
    """
    size = len(g_row)
    mins, offsets = [], []
    for i in range(size):
        window = [float(g) for g in g_row[i:min(i + cap, size - 1) + 1]]
        low = min(window)
        mins.append(low)
        offsets.append(next(j for j, g in enumerate(window) if g <= low + 1e-9))
    return mins, offsets
