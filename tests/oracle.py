"""Brute-force reference implementations for cross-checking the solver.

Everything here is deliberately slow and structure-free: plain recursion
with memoisation, no grids, no vectorisation, so that agreement with the
array implementation is meaningful. The one exception is the Monte Carlo
sampler at the end, the independent cross-check of the exact pricing in
stochinv.simulate: it shares none of its code and samples the demands
instead of convolving them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple


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


class ExactTables(NamedTuple):
    """Exact tables of exact_cost_to_go: callables (period, x) -> Fraction."""

    C: object
    G: object


def _exact_terms(instance):
    """The instance's costs and demands as the rationals its floats are."""
    costs = [Fraction(c) for c in (instance.K, instance.v, instance.h,
                                   instance.p, instance.discount)]
    demands = [tuple((d, Fraction(pr)) for d, pr in zip(pmf.support, pmf.probs))
               for pmf in instance.demands]
    return costs, demands


def exact_cost_to_go(instance, q_cap=None):
    """brute_cost_to_go in exact rational arithmetic.

    Every float of the instance is read as the rational it is, and no sum
    or product rounds. Returns ExactTables: C(period, x), the optimal
    cost-to-go before ordering, and G(period, y) = v y + E[h (y - d)+ +
    p (d - y)+] + discount E[C(period + 1, y - d)], the order-up-to cost,
    so that C(period, x) = -v x + min(G(period, x), K + min over orders
    q = 1..B of G(period, x + q)). Periods are 1-based and states
    unbounded; q_cap bounds the order size when capacity is infinite.
    """
    (K, v, h, p, discount), demands = _exact_terms(instance)
    if instance.B == math.inf:
        if q_cap is None:
            raise ValueError("q_cap is required when capacity is infinite")
        max_q = q_cap
    else:
        max_q = int(instance.B)
    n = instance.horizon

    @lru_cache(maxsize=None)
    def order_up_to(t, y):
        total = v * y
        for d, pr in demands[t]:
            total += pr * (h * max(y - d, 0) + p * max(d - y, 0))
            if t + 1 < n:
                total += pr * discount * cost(t + 1, y - d)
        return total

    @lru_cache(maxsize=None)
    def cost(t, x):
        best = order_up_to(t, x)
        for q in range(1, max_q + 1):
            best = min(best, K + order_up_to(t, x + q))
        return best - v * x

    return ExactTables(lambda period, x: cost(period - 1, x),
                       lambda period, y: order_up_to(period - 1, y))


def exact_policy_cost(instance, order):
    """brute_policy_cost in exact rational arithmetic.

    order(period, x) is the order quantity at inventory x in a 1-based
    period. Returns callable (period, x) -> Fraction, the expected total
    discounted cost from that period on.
    """
    (K, v, h, p, discount), demands = _exact_terms(instance)

    @lru_cache(maxsize=None)
    def cost(t, x):
        if t == instance.horizon:
            return Fraction(0)
        q = order(t + 1, x)
        y = x + q
        total = (K if q > 0 else 0) + v * q
        for d, pr in demands[t]:
            total += pr * (h * max(y - d, 0) + p * max(d - y, 0))
            total += pr * discount * cost(t + 1, y - d)
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


def brute_slide_levels(instance):
    """The capacity-slide levels a_t of sdp.Instance._levels, state by state.

    u_t and c_t are evaluated at every state of the window
    [-B - 2 dmax, dmax + B + 1] from their definitions (c below the window
    reads its lowest state, u above it is +inf), and a_t is the highest
    state x of the window with u_t(x + B - 1) < 1e-6 below zero and a sum
    of -u_t over [x, x + B - 1] above K + 1e-9 + 1e-6 max(1, K), each
    window summed on its own.
    """
    cap, n = int(instance.B), instance.horizon
    K, v, h, p = instance.K, instance.v, instance.h, instance.p
    dmax = max(pmf.max_value for pmf in instance.demands)
    lo, hi = -cap - 2 * dmax, dmax + cap + 1
    saving = K + 1e-9 + 1e-6 * max(1.0, K)
    levels, c_next = [None] * n, None
    for t in range(n - 1, -1, -1):
        pmf = instance.demands[t]
        u = {}
        for y in range(lo, hi + 1):
            below = sum(pr for d, pr in zip(pmf.support, pmf.probs) if d <= y)
            u[y] = v + (h + p) * below - p
            if c_next is not None:
                u[y] += instance.discount * c_next[max(y - pmf.support[0], lo)]
        for x in range(lo, hi - cap + 2):
            if (u[x + cap - 1] < -1e-6
                    and math.fsum(-u[y] for y in range(x, x + cap)) > saving):
                levels[t] = x
        c_next = {x: u[x + cap] - v if x + cap <= hi and u[x + cap] <= 0
                  else max(u[x], 0.0) - v for x in range(lo, hi + 1)}
    return levels


def brute_kb_violations(g, K, B, tol):
    """Every (x, a, y, b) that breaks (K, B)-convexity by more than tol.

    A plain loop over y <= x and steps a, b in 1..min(B, len(g) - 1) that
    keep x + a and y - b on the row, testing
      (K + g[x+a] - g[x]) / a >= (g[y] - g[y-b]) / b               always,
      (K + g[x+a] - g[x]) / a >= (K + g[y] - g[y-b]) / b           at b = B.
    """
    n = len(g)
    steps = range(1, int(min(B, n - 1)) + 1)
    found = set()
    for x in range(n):
        for a in steps:
            if x + a >= n:
                break
            lhs = (K + g[x + a] - g[x]) / a
            for y in range(x + 1):
                for b in steps:
                    if y - b < 0:
                        break
                    rhs = (g[y] - g[y - b]) / b
                    if b == B:
                        rhs = max(rhs, (K + g[y] - g[y - b]) / b)
                    if lhs < rhs - tol:
                        found.add((x, a, y, b))
    return found


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


def padded_convolve_continuation(c_row, pmf, below=None):
    """E[c_row(y - demand)] on the whole row through one np.convolve.

    Reads below the row take below, the max_value values under its lowest
    state, or, by default, its lowest entry, as in the clamp loop. Each
    output is one dot product of the max_value + 1 states at and below y
    with the masses on 0..max_value, as the certified-only kernel computes
    it; for supports up to 8,192 values wide, its one tile, the two give
    the same bits on the states they share.
    """
    import numpy as np

    top = pmf.max_value
    dense = np.zeros(top + 1)
    for d, pr in zip(pmf.support, pmf.probs):
        dense[d] = pr
    if below is None:
        below = np.full(top, c_row[0])
    padded = np.concatenate((below, c_row))
    return np.convolve(padded, dense, mode="valid")


def folded_whole_row_solve(instance, grid):
    """C, G and Qstar on whole rows, with the one-period cost folded into
    the continuation as solve(certified_only=True) folds it.

    Every row takes G(y) = v y + E[l(y - d) + discount C_{t+1}(y - d)],
    l(x) = h x+ + p x-, C_{n+1} = 0, as padded_convolve_continuation sums
    it: one dot product per state. The rows before the last are padded
    below with their lowest entry (the clamp); the last row reads l itself
    on the max_value levels below the grid. The window minimum and its
    orders are full_row_window_min_finite's. The reference certified_only
    tables must match bit for bit on each period's certified range.
    """
    import numpy as np

    def end_cost(levels):
        return np.array([instance.h * x if x >= 0 else instance.p * -x
                         for x in levels], dtype=np.float64)

    n = instance.horizon
    xs = grid.states.astype(np.float64)
    purchase = instance.v * xs
    cap = grid.size - 1 if instance.B == math.inf else int(instance.B)
    ell = end_cost(xs.tolist())
    c_tbl, g_tbl = np.empty((n, grid.size)), np.empty((n, grid.size))
    q_tbl = np.empty((n, grid.size), dtype=np.int64)
    for t in range(n - 1, -1, -1):
        pmf = instance.demands[t]
        if t == n - 1:
            below = end_cost(range(grid.x_min - pmf.max_value, grid.x_min))
            g_row = purchase + padded_convolve_continuation(ell, pmf, below)
        else:
            ahead = c_tbl[t + 1]
            if instance.discount != 1.0:
                ahead = ahead * instance.discount
            g_row = purchase + padded_convolve_continuation(ell + ahead, pmf)
        w, offsets = full_row_window_min_finite(g_row, cap)
        ordering = instance.K + w
        g_tbl[t] = g_row
        c_tbl[t] = np.minimum(g_row, ordering) - purchase
        q_tbl[t] = np.where(g_row - ordering > 1e-9, offsets, 0)
    return c_tbl, g_tbl, q_tbl


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


def periodwise_orders(policy, grid, B):
    """ThresholdPolicy.orders built one period at a time.

    The reference the one-step table must match entry for entry: in each
    period with bands, the states up to each s_k order up to their band's
    S_k, capped at B, and the states above the top s order nothing.
    """
    import numpy as np

    xs = grid.states
    table = np.zeros((len(policy.bands), grid.size), dtype=np.int64)
    for row, pairs in enumerate(policy.bands):
        if pairs:
            s, big = np.array(pairs, dtype=np.int64).T
            # the first cuts[k] states lie at or below s_k
            cuts = np.searchsorted(xs, s, side="right")
            levels = np.repeat(big, np.diff(cuts, prepend=0))
            table[row, :cuts[-1]] = np.minimum(levels - xs[:cuts[-1]], B)
    return table


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


def runs_check_cop(tables, period, from_state=None):
    """policy.check_cop by building every ordering run and gap of the row.

    The reference the one-pass check must match report for report.
    """
    from stochinv import CopReport

    floor = tables.grid.x_min if from_state is None else from_state
    q_row = tables.Qstar[tables.row(period)]
    first = tables.grid.x_max + 1 - q_row.size   # each row ends at x_max
    assert first <= floor
    q_row = q_row[floor - first:]
    intervals = split_state_runs(q_row > 0, floor)
    if len(intervals) == 0:
        return CopReport(True, intervals, None)
    if len(intervals) == 1 and intervals[0][0] == floor:
        return CopReport(True, intervals, None)

    gaps = []   # (length, gap_hi, next_order_lo)
    if intervals[0][0] > floor:
        gaps.append((intervals[0][0] - floor, intervals[0][0] - 1, intervals[0][0]))
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        gaps.append((lo - hi - 1, lo - 1, lo))
    length, gap_hi, order_lo = max(gaps)
    return CopReport(False, intervals, (gap_hi, order_lo))


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


def tall_search_grid(instance):
    """The COP search grid with its first, hand-derived ceiling.

    From minus the sum of the per-period maximum demands up to that sum
    plus B per period, or plus the sum itself per period with B = inf.
    This ceiling lies above the structural top where search_grid ends, and
    the tables below the top must not see the difference.
    """
    from stochinv import Grid

    total = sum(d.max_value for d in instance.demands)
    step = total if instance.B == math.inf else int(instance.B)
    return Grid(-total, total + step * instance.horizon)


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


# Monte Carlo policy evaluation under common random numbers. Every
# replication's demands come from a counter-based stream keyed by the base
# seed and the replication index alone, so any two policies simulated with
# the same config consume identical demand realizations. Sample size grows
# until a normal-approximation confidence interval meets a relative error
# target.

# replications per stream block, and the CI check cadence; above
# SimulationConfig's MIN_REPS, so the first check holds at least that many
_CHUNK = 10_000


class SimulationEstimate(NamedTuple):
    mean_cost: float
    half_width: float
    reps: int
    converged: bool


def _chunk_uniforms(base_seed, chunk_index, rows, cols):
    import numpy as np

    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(seq)).random((rows, cols))


def _chunk_costs(instance, grid, orders, x0, base_seed, chunk_index, rows):
    """Total discounted cost of `rows` replications from one stream block."""
    import numpy as np

    n = instance.horizon
    u = _chunk_uniforms(base_seed, chunk_index, rows, n)
    x = np.full(rows, x0, dtype=np.int64)
    total = np.zeros(rows)
    factor = 1.0
    for period in range(1, n + 1):
        pmf = instance.demands[period - 1]
        row = orders[period - 1]
        q = row.take(x - (grid.x_max + 1 - row.size), mode="clip")
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


def simulate_policy(instance, grid, orders, x0, config):
    """Estimate a policy's expected total cost from x0 by replication.

    orders[t - 1] is period t's row of orders, which ends at grid.x_max:
    its entry i is the order at inventory x_max + 1 - row.size + i, and
    states off the row take the order of its nearest end. config is
    a stochinv.simulate.SimulationConfig. Returns a SimulationEstimate once
    the half-width is within target_rel_error of the mean, or with
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


def gap_with_estimates(instance, tables, heuristic, x0, config):
    """Heuristic-vs-optimal percent gap plus the two underlying estimates.

    Both policies are simulated on the same demand streams. The optimal
    policy's simulated mean is cross-checked against the solved value at
    (first period, x0) within three half-widths; a miss raises
    stochinv.SimulationError.
    """
    from stochinv import SimulationError
    from stochinv.simulate import _percent_gap

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
