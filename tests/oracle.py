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


def brute_policy_cost(instance, order):
    """Expected cost-to-go of a fixed order rule as a plain recursion.

    order(period, x) is the order quantity at inventory x in a 1-based
    period. Returns callable (period, x) -> expected total discounted cost
    from that period on, period 1-based, states unbounded.
    """
    demands = [tuple(zip(d.support, d.probs)) for d in instance.demands]

    @lru_cache(maxsize=None)
    def cost(t, x):
        if t == instance.horizon:
            return 0.0
        q = order(t + 1, x)
        y = x + q
        total = (instance.K if q > 0 else 0.0) + instance.v * q
        for d, pr in demands[t]:
            total += pr * (instance.h * max(y - d, 0) + instance.p * max(d - y, 0))
            total += pr * instance.discount * cost(t + 1, y - d)
        return total

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


def modified_ss_order(x, s, S, B):
    """Order of a modified (s, S) policy at inventory x, by its closed form.

    Up to S, capped at B, when x is at or below the reorder point s;
    nothing above it, or in a period that never orders (s is None).
    """
    if s is None or x > s:
        return 0
    return min(S - x, B)


def threshold_pairs_by_run(xs, q, cap, s_m):
    """Threshold pairs of one ordering interval, walked run by run.

    xs are the interval's states in ascending order and q their orders. A
    maximal run of equal order-up-to levels x + q is a band: its top state
    and its level. A lone state ordering the full capacity is a capacity
    slide and carries no pair, unless it is the top state s_m.
    """
    pairs = []
    start = 0
    for stop in range(1, len(xs) + 1):
        if stop < len(xs) and xs[stop] + q[stop] == xs[start] + q[start]:
            continue
        saturated_single = stop - start == 1 and q[start] == cap
        if not saturated_single or xs[stop - 1] == s_m:
            pairs.append((xs[stop - 1], xs[start] + q[start]))
        start = stop
    return pairs


def rowwise_tables_csv(tables, path):
    """ValueTables.to_csv as one formatted write per (period, state).

    The reference the block writer must match byte for byte.
    """
    xs = tables.grid.states
    with open(path, "w") as fh:
        fh.write("period,x,C,G,Qstar\n")
        for t in range(tables.instance.horizon):
            c_row, g_row, q_row = tables.C[t], tables.G[t], tables.Qstar[t]
            for i in range(xs.size):
                fh.write(f"{t + 1},{xs[i]},{float(c_row[i])!r},"
                         f"{float(g_row[i])!r},{q_row[i]}\n")
