"""Policy structure analysis on solved value tables.

read_policy is the one band reader: it turns each period's optimal-action
table into multi-threshold (s_k, S_k) form from the period's certified
floor exact_from up (on certified tables the cone's first solved
state), checks the continuous order property that form relies on, and
holds the resulting modified multi-(s, S) policy as a ThresholdPolicy.
verify_kb_convexity checks the (K, B)-convexity the cost tables are
supposed to carry on each period's certified range [exact_from, x_max],
the states whose values no grid edge touches, as far down as solve
computed each row.
qce_diagnostics computes lower-envelope diagnostics that explain which
local minima of G are reachable order-up-to levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sdp import Grid, GridSpanError, ValueTables, _column, _run_edges

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
    grid edge). It fails exactly where a state that does not order lies
    right below one that does, so one pass over the row decides it, and
    only a violated row is split into its ordering runs (_screen). On
    violation the witness straddles the largest no-order gap: (last gap
    state, first ordering state above). A floor outside the period's row,
    such as x_min below a certified row that starts above it, raises
    ValueError (ValueTables.column).
    """
    floor = tables.grid.x_min if from_state is None else from_state
    return _screen(
        tables.Qstar[tables.row(period)][tables.column(period, floor):], floor)


def _screen(q_row: np.ndarray, floor: int) -> CopReport:
    """check_cop's verdict on the orders q_row of the states from floor up."""
    floor = int(floor)
    ordering = q_row > 0
    if not (ordering[1:] > ordering[:-1]).any():
        # with no rise, the ordering states are none or a run from the floor
        count = int(np.count_nonzero(ordering))
        run = ((floor, floor + count - 1),) if count else ()
        return CopReport(True, run, None)

    intervals = _state_runs(ordering, floor)
    gaps = []   # (length, gap_hi, next_order_lo)
    if intervals[0][0] > floor:
        gaps.append((intervals[0][0] - floor, intervals[0][0] - 1, intervals[0][0]))
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        gaps.append((lo - hi - 1, lo - 1, lo))
    length, gap_hi, order_lo = max(gaps)
    return CopReport(False, intervals, (gap_hi, order_lo))


def _read_period(tables: ValueTables, period: int,
                 floor: int) -> tuple[tuple[tuple[int, int], ...], bool]:
    """One period's (s_k, S_k) bands, k ascending, read from its certified
    floor exact_from, and whether the continuous order property holds
    there.

    Walking the ordering states, maximal runs with a common order-up-to
    level x + Q(x) are threshold bands: the top state of the run is s_k and
    the shared level is S_k. States ordering the full capacity B are
    capacity slides: their level moves one-for-one with x, so each is a
    run of its own and carries no pair, except at the very top where
    Q(s_m) = B pins S_m = s_m + B. Most ordering states are slides below
    the first band, so the walk starts at the first state that is not one.
    The last leading slide may share the first band's level, but a pair is
    the run's top state and level, which that slide does not change. An
    interval made only of slides gives the one pair (s_m, s_m + B).
    Where the property fails, the one stand-in band is (s_m, s_m + Q(s_m))
    at the top s_m of the highest ordering interval.

    Raises GridSpanError for a period that orders only below the floor:
    the grid is too narrow to certify any of its orders, and
    MalformedTable for a band deeper than the capacity; the bands' order
    is left to the caller (_check_bands).
    """
    q_row = tables.Qstar[period - 1]
    below = tables.column(period, floor)   # the row's states under the floor
    row = q_row[below:]
    report = _screen(row, floor)
    if not report.holds:
        _, s_m = report.ordering_set[-1]
        return ((s_m, s_m + int(row[s_m - floor])),), False
    if not report.ordering_set:
        if q_row[:below].any():
            raise GridSpanError(
                f"period {period} orders only below its certified floor "
                f"exact_from = {floor}; widen the grid downward")
        return (), True

    ((lo, s_m),) = report.ordering_set
    q = row[lo - floor:s_m - floor + 1]
    cap = tables.instance.B
    skip = int(np.argmax(q != cap))   # 0 when every state is a slide
    if q[skip] == cap:
        skip = q.size - 1
    q = q[skip:]
    xs = np.arange(lo + skip, s_m + 1)
    levels = xs + q

    # runs of equal levels lie between consecutive edges
    edges = np.flatnonzero(np.concatenate(([True], levels[1:] != levels[:-1],
                                           [True])))
    starts, stops = edges[:-1], edges[1:]
    tops = xs[stops - 1]
    keep = (stops - starts > 1) | (q[starts] != cap) | (tops == s_m)
    pairs = tuple(zip(tops[keep].tolist(), levels[starts][keep].tolist()))
    # the one check that needs the capacity; ThresholdPolicy makes the rest
    for s_k, big_k in pairs:
        if s_k < big_k - cap:
            raise MalformedTable(
                f"period {period}: band ({s_k},{big_k}) deeper than capacity {cap}")
    return pairs, True


def _check_bands(period: int, pairs) -> None:
    """Raise MalformedTable unless s_k and S_k rise strictly with k and
    each s_k < S_k."""
    for (s_a, big_a), (s_b, big_b) in zip(pairs, pairs[1:]):
        if not (s_a < s_b and big_a < big_b):
            raise MalformedTable(
                f"period {period}: bands ({s_a},{big_a}) and ({s_b},{big_b}) "
                "are not strictly increasing")
    for s_k, big_k in pairs:
        if not s_k < big_k:
            raise MalformedTable(f"period {period}: s={s_k} not below S={big_k}")


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
        """Order table shaped (horizon, grid.size): up to the S_k of the
        lowest band with x <= s_k, capped at B, and nothing above the top s.

        The table is built flat in one step: each period's band levels
        and then the level x_min, which orders nothing, each repeated over
        the states it covers, minus the states and clipped to [0, B]. A
        band's states lie below its level, so only that filler meets the
        lower clip.
        """
        xs = grid.states
        # (row start, s, level): each entry covers its period's states up
        # to its s, above the entry before it
        entries = [(row * grid.size, s, big)
                   for row, pairs in enumerate(self.bands)
                   for s, big in (*pairs, (grid.x_max, grid.x_min))]
        start, s, big = np.array(entries, dtype=np.int64).reshape(-1, 3).T
        ends = start + np.searchsorted(xs, s, side="right")
        table = np.repeat(big, np.diff(ends, prepend=0)).reshape(-1, grid.size)
        table -= xs
        # in place: against a float B (inf, 9.0) the orders are clipped as
        # floats and cast back, exactly below 2**53
        return np.clip(table, 0, B, out=table, casting="unsafe")

    def top(self) -> ThresholdPolicy:
        """The modified (s, S) policy: each period's top band alone."""
        return ThresholdPolicy(tuple(p[-1:] for p in self.bands), self.cop_violated)


def read_policy(tables: ValueTables) -> ThresholdPolicy:
    """The modified multi-(s, S) policy of solved tables, read one period
    at a time from its certified floor exact_from by one order-property
    screen. A period where the property fails is flagged and keeps one
    stand-in band. Raises GridSpanError if some period orders only below
    that floor, and MalformedTable for bands that are not well formed,
    each checked once."""
    bands, flagged = [], []
    for period in range(1, tables.instance.horizon + 1):
        pairs, holds = _read_period(tables, period, tables.exact_from(period))
        bands.append(pairs)
        if not holds:
            flagged.append(period)
    return ThresholdPolicy(tuple(bands), tuple(flagged))


def verify_kb_convexity(tables: ValueTables,
                        period: int) -> tuple[KBReport, KBReport]:
    """(K, B)-convexity of the period's G and C rows on its certified range.

    Both rows are checked on [exact_from(period), x_max], the states whose
    values neither grid edge touches, with the instance's K and B (see
    _kb_convexity); on certified tables G only from g_solved_from, where
    its row starts, above the capacity slides. A C row that starts above
    exact_from raises ValueError. Returns (g_report, c_report); a witness
    (x, a, y, b) names states x and y. The range is never empty: solve
    refuses a grid whose certified floor exact_from(1) lies above x_max,
    and on whole rows exact_from(period) = x_min + sum_{period<=s<n}
    dmax_s lies at most at exact_from(1); the cone's starts lie at or
    below x_max.
    """
    row, instance = tables.row(period), tables.instance
    exact = tables.exact_from(period)
    g_from = tables.g_solved_from(period)
    g_lo = max(exact, g_from)
    reports = []
    for curve, lo in ((tables.G[row][g_lo - g_from:], g_lo),
                      (tables.C[row][tables.column(period, exact):], exact)):
        report = _kb_convexity(curve, instance.K, instance.B)
        if not report.ok:
            x, a, y, b = report.witness
            report = KBReport(False, (lo + x, a, lo + y, b))
        reports.append(report)
    return tuple(reports)


def _kb_convexity(g: np.ndarray, K: float, B: int | float) -> KBReport:
    """Check the two capacity-aware convexity inequalities on a whole row.

    For all y <= x in the row and step sizes a, b in (0, B]:
      (K + g(x+a) - g(x)) / a >= (g(y) - g(y-b)) / b            (difference form)
      (K + g(x+a) - g(x)) / a >= (K + g(y) - g(y-B)) / B        (capacity form)
    A defect below -_KB_TOL is a violation. Witness coordinates are array
    indices. With B infinite the step sizes are capped by the row and the
    capacity form is vacuous.
    """
    g = np.asarray(g, dtype=np.float64)
    n = g.size
    max_step = int(min(B, n - 1))

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

    u = np.full(n, -np.inf)
    if B <= n - 1:
        cap = int(B)
        u[cap:] = (K + g[cap:] - g[:-cap]) / cap

    m_cum = np.maximum.accumulate(m)
    u_cum = np.maximum.accumulate(u)
    bad = (t < m_cum - _KB_TOL) | (t < u_cum - _KB_TOL)
    if not bad.any():
        return KBReport(True, None)

    i = int(np.flatnonzero(bad)[0])
    if t[i] < m_cum[i] - _KB_TOL:
        j = int(np.argmax(m[:i + 1]))
        witness = (i, int(t_arg[i]), j, int(m_arg[j]))
    else:
        j = int(np.argmax(u[:i + 1]))
        witness = (i, int(t_arg[i]), j, int(B))
    return KBReport(False, witness)


def qce_diagnostics(tables: ValueTables, period: int) -> list[QcePoint]:
    """Classify local minima of G between s_m and S_m against its lower envelope.

    (s_m, S_m) is the period's top band as read_policy reads it, the
    stand-in band where the order property fails; a period that orders only
    below its certified floor raises GridSpanError, and malformed bands
    raise MalformedTable, as in read_policy. G is read only from s_m + 1
    up, which on certified tables lies at or above g_solved_from, as the
    cone puts every top band's s_m at or above g_t - 1 (sdp.Instance.cone);
    an s_m + 1 below the G row raises ValueError.

    The envelope is the running minimum of G from the left on the open
    interval (s_m, S_m). Each maximal plateau whose right neighbor is
    strictly higher is a local minimum from the right; it lies on the
    envelope when its leftmost point attains the running minimum, and it is
    nontrivial when the state just left of the plateau is strictly higher
    and also on the envelope (the left edge s_m counts: it sits strictly
    above everything in the interval).
    """
    bands, _ = _read_period(tables, period, tables.exact_from(period))
    _check_bands(period, bands)
    if not bands:
        return []
    s_m, big_s_m = bands[-1]
    if big_s_m - s_m < 2:
        return []

    g_row = tables.G[tables.row(period)]
    lo = _column(tables.g_solved_from(period), tables.grid.x_max, s_m + 1,
                 f"period {period}'s G row")
    n = big_s_m - s_m - 1
    g = g_row[lo:lo + n]
    env = np.minimum.accumulate(g)

    points = []
    start = 0
    for stop in np.append(np.flatnonzero(np.diff(g) != 0) + 1, n):
        # right neighbor of the plateau, falling back to the raw row at S_m
        right = g[stop] if stop < n else g_row[lo + n]
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


