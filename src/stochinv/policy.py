"""Policy structure analysis on solved value tables.

read_policy is the one band reader: it turns each period's optimal-action
table into multi-threshold (s_k, S_k) form from the period's certified
floor exact_from up, checks the continuous order property that form
relies on, and holds the resulting modified multi-(s, S) policy as a
ThresholdPolicy. The module also verifies the generalized convexity the
cost tables are supposed to carry, and computes lower-envelope
diagnostics that explain which local minima of G are reachable
order-up-to levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sdp import Grid, GridSpanError, ValueTables, _run_edges

_KB_TOL = 1e-6


class MalformedTable(ValueError):
    """Threshold bands, given or read off an action table, are not well formed."""


class CopReport(NamedTuple):
    holds: bool
    ordering_set: tuple[tuple[int, int], ...]   # maximal [lo, hi] state intervals
    violation_witness: tuple[int, int] | None   # (x_noorder, x_order)

    def describe(self) -> str:
        parts = ", ".join(f"[{lo}, {hi}]" for lo, hi in self.ordering_set) or "(empty)"
        if self.holds:
            return f"continuous order property holds; ordering set {parts}"
        return (f"continuous order property violated; ordering set {parts}; "
                f"no order at {self.violation_witness[0]} but order at "
                f"{self.violation_witness[1]}")


class KBReport(NamedTuple):
    ok: bool
    witness: tuple[int, int, int, int] | None   # (x, a, y, b) failing the inequality


class QcePoint(NamedTuple):
    S: int                # leftmost state of a plateau that is a local min from the right
    on_envelope: bool
    nontrivial: bool


def _state_runs(mask: np.ndarray, first: int) -> tuple[tuple[int, int], ...]:
    """Maximal (lo, hi) state intervals where mask holds; mask[0] is state first."""
    edges = first + _run_edges(mask)
    edges[1::2] -= 1   # each run's last state, one before it stops
    return tuple(zip(edges[::2].tolist(), edges[1::2].tolist()))


def check_cop(tables: ValueTables, period: int,
              from_state: int | None = None) -> CopReport:
    """Check that the set of states where ordering is optimal has no holes.

    The property holds when the ordering states form a single interval
    anchored at the bottom of the checked range (the whole grid unless
    from_state raises the floor, e.g. to skip states distorted by the lower
    grid edge). On violation the witness straddles the largest no-order
    gap: (last gap state, first ordering state above).
    """
    floor = tables.grid.x_min if from_state is None else from_state
    q_row = tables.Qstar[tables.row(period), tables.grid.index(floor):]
    intervals = _state_runs(q_row > 0, floor)
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


def _read_period(tables: ValueTables,
                 period: int) -> tuple[tuple[tuple[int, int], ...], bool]:
    """One period's (s_k, S_k) bands, k ascending, read from exact_from(period),
    and whether the continuous order property holds there.

    Walking the ordering states, maximal runs with a common order-up-to
    level x + Q(x) are threshold bands: the top state of the run is s_k and
    the shared level is S_k. Isolated fully-saturated states between bands
    are capacity slides (level moves one-for-one with x) and carry no pair,
    except at the very top where Q(s_m) = B pins S_m = s_m + B. Where the
    property fails, the one stand-in band is (s_m, s_m + Q(s_m)) at the top
    s_m of the highest ordering interval.

    Raises GridSpanError for a period that orders only below exact_from:
    the grid is too narrow to certify any of its orders.
    """
    grid = tables.grid
    row = tables.Qstar[tables.row(period)]
    floor = tables.exact_from(period)
    report = check_cop(tables, period, floor)
    if not report.holds:
        _, s_m = report.ordering_set[-1]
        return ((s_m, s_m + tables.qstar_at(period, s_m)),), False
    if not report.ordering_set:
        if row[:grid.index(floor)].any():
            raise GridSpanError(
                f"period {period} orders only below its certified floor "
                f"exact_from = {floor}; widen the grid downward")
        return (), True

    lo, s_m = report.ordering_set[0]
    q = row[grid.index(lo):grid.index(s_m) + 1]
    xs = np.arange(lo, s_m + 1)
    levels = xs + q
    cap = tables.instance.B

    stops = np.append(np.flatnonzero(np.diff(levels) != 0) + 1, levels.size)
    starts = np.append(0, stops[:-1])
    tops = xs[stops - 1]
    keep = (stops - starts > 1) | (q[starts] != cap) | (tops == s_m)
    pairs = tuple(zip(tops[keep].tolist(), levels[starts][keep].tolist()))
    _check_bands(period, pairs, cap)
    return pairs, True


def _check_bands(period: int, pairs, cap: int | float = math.inf) -> None:
    """Raise MalformedTable unless s_k and S_k rise strictly with k, each
    s_k < S_k, and no band is deeper than the capacity."""
    for (s_a, big_a), (s_b, big_b) in zip(pairs, pairs[1:]):
        if not (s_a < s_b and big_a < big_b):
            raise MalformedTable(
                f"period {period}: bands ({s_a},{big_a}) and ({s_b},{big_b}) "
                "are not strictly increasing")
    for s_k, big_k in pairs:
        if not s_k < big_k:
            raise MalformedTable(f"period {period}: s={s_k} not below S={big_k}")
        if cap != math.inf and s_k < big_k - cap:
            raise MalformedTable(
                f"period {period}: band ({s_k},{big_k}) deeper than capacity {cap}")


@dataclass(frozen=True)
class ThresholdPolicy:
    """A modified multi-(s, S) policy. bands[t - 1] holds period t's
    (s_k, S_k) pairs, k ascending; () never orders. cop_violated lists the
    periods whose bands stand in for a table without the order property."""

    bands: tuple[tuple[tuple[int, int], ...], ...]
    cop_violated: tuple[int, ...] = ()

    def __post_init__(self):
        for period, pairs in enumerate(self.bands, start=1):
            _check_bands(period, pairs)

    def orders(self, grid: Grid, B: int | float) -> np.ndarray:
        """Order table shaped like ValueTables.Qstar: up to the S_k of the
        lowest band with x <= s_k, capped at B, and nothing above the top s."""
        xs = grid.states
        table = np.zeros((len(self.bands), grid.size), dtype=np.int64)
        for row, pairs in enumerate(self.bands):
            if pairs:
                s, big = np.array(pairs, dtype=np.int64).T
                # the first cuts[k] states lie at or below s_k
                cuts = np.searchsorted(xs, s, side="right")
                levels = np.repeat(big, np.diff(cuts, prepend=0))
                table[row, :cuts[-1]] = np.minimum(levels - xs[:cuts[-1]], B)
        return table

    def top(self) -> ThresholdPolicy:
        """The modified (s, S) policy: each period's top band alone."""
        return ThresholdPolicy(tuple(p[-1:] for p in self.bands), self.cop_violated)


def read_policy(tables: ValueTables) -> ThresholdPolicy:
    """The modified multi-(s, S) policy of solved tables, read one period
    at a time from exact_from(period) by one order-property screen. A
    period where the property fails is flagged and keeps one stand-in band.
    Raises GridSpanError if some period orders only below exact_from."""
    bands, flagged = [], []
    for period in range(1, tables.instance.horizon + 1):
        pairs, holds = _read_period(tables, period)
        bands.append(pairs)
        if not holds:
            flagged.append(period)
    return ThresholdPolicy(tuple(bands), tuple(flagged))


def verify_kb_convexity(values, K: float, B: int | float, window: int = 400,
                        center: int | None = None, x0: int = 0) -> KBReport:
    """Check the two capacity-aware convexity inequalities on a sub-window.

    For all y <= x in the window and step sizes a, b in (0, B]:
      (K + g(x+a) - g(x)) / a >= (g(y) - g(y-b)) / b            (difference form)
      (K + g(x+a) - g(x)) / a >= (K + g(y) - g(y-B)) / B        (capacity form)
    A defect below -1e-6 is a violation. The window defaults to 400 states
    centered on `center` (array index; middle of the array when omitted).
    Witness coordinates are reported as x0 + index. With B infinite the step
    sizes are capped by the window and the capacity form is vacuous.
    """
    g_full = np.asarray(values, dtype=np.float64)
    if window > g_full.size:
        raise ValueError(f"window {window} exceeds array of size {g_full.size}")
    if center is None:
        center = g_full.size // 2
    lo = min(max(0, center - window // 2), g_full.size - window)
    g = g_full[lo:lo + window]
    n = g.size
    max_step = n - 1 if B == math.inf else min(int(B), n - 1)

    # t[i] = min over a of (K + g(i+a) - g(i)) / a, with the minimizing a
    t = np.full(n, np.inf)
    t_arg = np.zeros(n, dtype=np.int64)
    # m[j] = max over b of (g(j) - g(j-b)) / b, with the maximizing b
    m = np.full(n, -np.inf)
    m_arg = np.zeros(n, dtype=np.int64)
    for step in range(1, max_step + 1):
        up = (K + g[step:] - g[:-step]) / step
        better = up < t[:-step]
        t[:n - step][better] = up[better]
        t_arg[:n - step][better] = step
        down = (g[step:] - g[:-step]) / step
        better = down > m[step:]
        m[step:][better] = down[better]
        m_arg[step:][better] = step

    if B != math.inf and int(B) <= n - 1:
        cap = int(B)
        u = np.full(n, -np.inf)
        u[cap:] = (K + g[cap:] - g[:-cap]) / cap
    else:
        u = np.full(n, -np.inf)

    m_cum = np.maximum.accumulate(m)
    u_cum = np.maximum.accumulate(u)
    bad = (t < m_cum - _KB_TOL) | (t < u_cum - _KB_TOL)
    if not bad.any():
        return KBReport(True, None)

    i = int(np.flatnonzero(bad)[0])
    if t[i] < m_cum[i] - _KB_TOL:
        j = int(np.argmax(m[:i + 1]))
        witness = (x0 + lo + i, int(t_arg[i]), x0 + lo + j, int(m_arg[j]))
    else:
        j = int(np.argmax(u[:i + 1]))
        witness = (x0 + lo + i, int(t_arg[i]), x0 + lo + j, int(B))
    return KBReport(False, witness)


def qce_diagnostics(tables: ValueTables, period: int) -> list[QcePoint]:
    """Classify local minima of G between s_m and S_m against its lower envelope.

    (s_m, S_m) is the period's top band as read_policy reads it, the
    stand-in band where the order property fails; a period that orders only
    below exact_from raises GridSpanError, as in read_policy.

    The envelope is the running minimum of G from the left on the open
    interval (s_m, S_m). Each maximal plateau whose right neighbor is
    strictly higher is a local minimum from the right; it lies on the
    envelope when its leftmost point attains the running minimum, and it is
    nontrivial when the state just left of the plateau is strictly higher
    and also on the envelope (the left edge s_m counts: it sits strictly
    above everything in the interval).
    """
    bands, _ = _read_period(tables, period)
    if not bands:
        return []
    s_m, big_s_m = bands[-1]
    if big_s_m - s_m < 2:
        return []

    grid = tables.grid
    g_row = tables.G[tables.row(period)]
    dom = slice(grid.index(s_m + 1), grid.index(big_s_m - 1) + 1)
    g = g_row[dom]
    env = np.minimum.accumulate(g)

    points = []
    start = 0
    n = g.size
    for stop in np.append(np.flatnonzero(np.diff(g) != 0) + 1, n):
        # right neighbor of the plateau, falling back to the raw row at S_m
        right = g[stop] if stop < n else g_row[grid.index(big_s_m)]
        if right > g[start]:
            on_env = bool(g[start] == env[start])
            if not on_env:
                nontrivial = False
            elif start == 0:
                nontrivial = True
            else:
                nontrivial = bool(g[start - 1] > g[start]
                                  and g[start - 1] == env[start - 1])
            points.append(QcePoint(int(s_m + 1 + start), on_env, nontrivial))
        start = stop
    return points


