"""Brute-force reference implementations for cross-checking the solver.

Everything here is deliberately slow and structure-free: plain recursion
with memoisation, no grids, no vectorisation, so that agreement with the
array implementation is meaningful.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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


def branchy_expected_continuation(c_row, pmf):
    """E[c_row(y - demand)] with a branch per demand point for the clamp.

    The loop the padded kernel replaced, kept as the reference its output
    must match bit for bit: reads below the row take its lowest entry.
    """
    import numpy as np

    size = c_row.size
    out = np.zeros(size)
    low = c_row[0]
    for d, pr in zip(pmf.support, pmf.probs):
        if d == 0:
            out += pr * c_row
        elif d >= size:
            out += pr * low
        else:
            out[d:] += pr * c_row[:size - d]
            out[:d] += pr * low
    return out


def searchsorted_loss_row(states, pmf, h, p):
    """The one-period loss row with a partial-sum lookup at every state.

    The kernel that evaluated the closed form on the whole row, kept as the
    reference the support-restricted one must match bit for bit.
    """
    import numpy as np

    idx = np.searchsorted(pmf.support_arr, states, side="right")
    cum_p = np.concatenate(([0.0], np.cumsum(pmf.probs_arr)))
    cum_pv = np.concatenate(([0.0], np.cumsum(pmf.probs_arr * pmf.support_arr)))
    big_f = cum_p[idx]
    m1 = cum_pv[idx]
    mu = pmf.mean
    return h * (states * big_f - m1) + p * ((mu - m1) - states * (1.0 - big_f))


def full_row_window_min_finite(g_row, cap):
    """Capacity-window min and smallest attaining offset at every state.

    The sparse-table kernel that ran the jump search on the whole row,
    ordering or not; returns (w, q) as arrays.
    """
    import numpy as np

    size = g_row.size
    cap = min(cap, size - 1)
    top = (cap + 1).bit_length() - 1
    levels = [g_row]
    for k in range(top):
        prev, half = levels[-1], 1 << k
        level = prev.copy()
        np.minimum(prev[:-half], prev[half:], out=level[:-half])
        levels.append(level)
    idx = np.arange(size)
    last = levels[-1]
    w = np.minimum(last, last[np.minimum(idx + (cap + 1 - (1 << top)), size - 1)])
    threshold = w + 1e-9
    pos = idx.copy()
    for k in range(top, -1, -1):
        pos += (levels[k][pos] > threshold) << k
    return w, pos - idx


def full_row_window_min_infinite(g_row):
    """Suffix min and smallest attaining offset at every state, as arrays."""
    import numpy as np

    size = g_row.size
    w = np.minimum.accumulate(g_row[::-1])[::-1]
    idx = np.arange(size)
    cand = np.where(g_row <= w + 1e-9, idx, size)
    j = np.minimum.accumulate(cand[::-1])[::-1]
    return w, j - idx


def rebuild_order_quantity(pairs, B, x):
    """Order at inventory x of one period's threshold bands, by the band rule.

    pairs are (s_k, S_k) with s_k ascending. Order up to the S_k of the
    lowest band with x <= s_k, capped at B; order nothing above the top s,
    or in a period without bands.
    """
    s_values = [s for s, _ in pairs]
    if not pairs or x > s_values[-1]:
        return 0
    k = bisect_left(s_values, x)
    return int(min(pairs[k][1] - x, B))


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


def split_state_runs(mask, first):
    """policy._state_runs by splitting the true states at their gaps.

    The reference the mask-transition version must match tuple for tuple.
    """
    import numpy as np

    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return ()
    splits = np.flatnonzero(np.diff(idx) > 1) + 1
    return tuple((first + int(run[0]), first + int(run[-1]))
                 for run in np.split(idx, splits))


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


def stats_pmf_parametric(family, mean, cv=None, tail_eps=1e-9):
    """pmf_parametric built through scipy.stats' frozen distributions.

    The reference the scipy.special construction must match bit for bit.
    Arguments are taken as valid; pmf_parametric checks them.
    """
    import numpy as np
    from scipy import stats

    from stochinv.demand import _finalize

    def discrete_tail_cut(dist):
        k = int(dist.isf(tail_eps))
        while dist.sf(k) >= tail_eps:
            k += 1
        return k

    def continuity_corrected(dist):
        k_max = max(1, int(np.ceil(dist.isf(tail_eps))))
        while dist.sf(k_max + 0.5) >= tail_eps:
            k_max += 1
        cdf_at_half = dist.cdf(np.arange(k_max + 1) + 0.5)
        probs = np.diff(cdf_at_half, prepend=0.0)
        probs = np.maximum(probs, 0.0)
        return _finalize(np.arange(k_max + 1), probs)

    if family in ("poisson", "geometric"):
        dist = (stats.poisson(mean) if family == "poisson"
                else stats.geom(1.0 / (1.0 + mean), loc=-1))
        ks = np.arange(discrete_tail_cut(dist) + 1)
        return _finalize(ks, dist.pmf(ks))
    if family == "normal":
        return continuity_corrected(stats.norm(mean, cv * mean))
    if family == "lognormal":
        sigma2 = np.log1p(cv * cv)
        scale = np.exp(np.log(mean) - sigma2 / 2.0)
        return continuity_corrected(stats.lognorm(np.sqrt(sigma2), scale=scale))
    if family == "gamma":
        shape = 1.0 / (cv * cv)
        return continuity_corrected(stats.gamma(shape, scale=mean * cv * cv))
    raise ValueError(f"no scipy.stats reference for {family!r}")
