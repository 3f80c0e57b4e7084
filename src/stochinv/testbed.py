"""Factorial benchmark bed: demand patterns, design generation, pivot report.

Ten 20-period demand patterns crossed with fixed-cost, unit-cost, penalty
and capacity-multiplier levels (plus coefficient-of-variation levels for
the continuous families) yield 810 instances per discrete family and 2430
per continuous family. A scale parameter subsamples the design
deterministically while keeping every pivot row populated. Each point is
solved, its threshold bands and order-property violations are read off
the tables once, and the modified (s, S) heuristic is priced exactly
against the optimum, so a report does not depend on any seed. A point is
solved on its certified tables alone (stochinv.sdp.solve with no grid):
each period only on the states the pricing and the band reading need,
its slide-aware cone (stochinv.sdp.Instance.cone), and its G row only
above its capacity slides, which at a finite capacity rest on the levels
below which each period's decision stays the same: far enough down each
period either orders its whole capacity or, where the cost rows are
lines, takes one decision throughout. The tables end at the structural
top, above which every cost row G rises (stochinv.sdp.Instance.top), and
each point is priced on the tables' own grid. The results are those of
any whole-row grid that certifies the cone unless a decision lies within
rounding of the tie tolerance (see _evaluate_point).
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .demand import PARAMETRIC_FAMILIES, pmf_parametric
from .policy import MalformedTable, read_policy
from .sdp import Instance, solve
from .simulate import SimulationConfig, SimulationError, optimality_gap

K_LEVELS = (250, 500, 1000)
V_LEVELS = (2, 5, 10)
P_LEVELS = (5, 10, 15)
B_MULTIPLIERS = (2, 3, 4)
CV_LEVELS = (0.1, 0.2, 0.3)
CV_FAMILIES = ("normal", "lognormal", "gamma")

_PATTERNS = {
    "STA": (30,) * 20,
    "LC1": (46, 49, 50, 50, 49, 46, 42, 38, 35, 33, 30, 28, 26, 23, 21, 18,
            14, 11, 8, 6),
    "LC2": (7, 9, 11, 13, 17, 22, 24, 26, 32, 34, 36, 41, 44, 47, 48, 50,
            50, 49, 47, 44),
    "SIN1": (47, 30, 13, 6, 13, 30, 47, 54, 47, 30, 13, 6, 13, 30, 47, 30,
             15, 8, 11, 30),
    "SIN2": (36, 30, 24, 21, 24, 30, 36, 39, 36, 30, 24, 21, 24, 30, 36, 31,
             24, 21, 26, 33),
    "RAND": (63, 27, 10, 24, 1, 23, 33, 35, 67, 7, 14, 41, 4, 63, 26, 45,
             53, 25, 10, 50),
    "EMP1": (5, 15, 46, 140, 80, 147, 134, 74, 84, 109, 47, 88, 66, 28, 32,
             89, 162, 36, 32, 50),
    "EMP2": (14, 24, 71, 118, 49, 86, 152, 117, 226, 208, 78, 59, 96, 33,
             57, 116, 18, 135, 128, 180),
    "EMP3": (13, 35, 79, 43, 44, 59, 22, 55, 61, 34, 50, 95, 36, 145, 160,
             104, 151, 86, 123, 64),
    "EMP4": (15, 56, 19, 84, 136, 67, 67, 155, 87, 164, 194, 67, 65, 132,
             35, 131, 133, 36, 173, 152),
}


def demand_patterns() -> dict[str, tuple[int, ...]]:
    """The ten 20-period expected-demand patterns of the benchmark bed."""
    return dict(_PATTERNS)


class DesignPoint(NamedTuple):
    family: str
    pattern: str
    K: float
    v: float
    p: float
    b_mult: int
    cv: float | None
    instance: Instance

    @property
    def key(self) -> str:
        cv = "-" if self.cv is None else f"{self.cv:g}"
        return (f"{self.family}|{self.pattern}|K{self.K:g}|v{self.v:g}"
                f"|p{self.p:g}|m{self.b_mult}|cv{cv}")


# the cost crossings reuse the same (family, mean, cv) triples hundreds of
# times over; PMFs are immutable, so share them across design points
_cached_pmf = lru_cache(maxsize=None)(pmf_parametric)


def _point_instance(family, pattern, k_fixed, v_unit, p_cost, b_mult, cv) -> Instance:
    means = _PATTERNS[pattern]
    avg = sum(means) / len(means)
    cap = round(b_mult * avg)
    demands = tuple(_cached_pmf(family, m, cv) for m in means)
    return Instance(horizon=len(means), K=k_fixed, v=v_unit, h=1.0, p=p_cost,
                    B=cap, demands=demands)


def _score(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()


def build_design(families, scale: float = 1.0) -> list[DesignPoint]:
    """Cross every level combination for the requested families.

    scale below 1 keeps a deterministic hash-ranked fraction per family,
    then adds back the lowest-ranked point for any (dimension, level) pair
    the prefix left uncovered, so each pivot row keeps at least one point.
    """
    if not 0 < scale <= 1:
        raise ValueError("scale must be in (0, 1]")
    families = tuple(families)
    for family in families:
        if family not in PARAMETRIC_FAMILIES:
            raise ValueError(f"unknown family {family!r}")

    design = []
    for family in families:
        cvs = CV_LEVELS if family in CV_FAMILIES else (None,)
        points = [
            DesignPoint(family, pattern, k_fixed, v_unit, p_cost, b_mult, cv,
                        _point_instance(family, pattern, k_fixed, v_unit,
                                        p_cost, b_mult, cv))
            for pattern in _PATTERNS
            for k_fixed in K_LEVELS
            for v_unit in V_LEVELS
            for p_cost in P_LEVELS
            for b_mult in B_MULTIPLIERS
            for cv in cvs
        ]
        if scale == 1.0:
            design.extend(points)
            continue
        ranked = sorted(points, key=lambda pt: _score(pt.key))
        take = ranked[:max(1, round(scale * len(points)))]
        chosen = {pt.key for pt in take}
        for dim in ("pattern", "K", "v", "p", "b_mult", "cv"):
            covered = {getattr(pt, dim) for pt in take}
            for pt in ranked:
                if getattr(pt, dim) not in covered:
                    covered.add(getattr(pt, dim))
                    if pt.key not in chosen:
                        chosen.add(pt.key)
                        take.append(pt)
        design.extend(sorted(take, key=lambda pt: _score(pt.key)))
    return design


class PointResult(NamedTuple):
    point: DesignPoint
    gap: float
    max_thresholds: int
    cop_violations: tuple[int, ...]   # periods
    error: str | None


@dataclass(frozen=True)
class BenchmarkReport:
    results: tuple[PointResult, ...]

    def pivot_rows(self):
        """(dimension, level, avg gap, max gap, max thresholds, count) rows."""
        ok = [r for r in self.results if r.error is None]
        rows = []
        dims = ("K", "v", "p", "b_mult", "pattern", "cv")
        for dim in dims:
            levels = sorted({getattr(r.point, dim) for r in ok},
                            key=lambda lv: (lv is None, lv))
            for level in levels:
                if level is None and dim == "cv":
                    continue
                sub = [r for r in ok if getattr(r.point, dim) == level]
                rows.append(self._aggregate(dim, level, sub))
        rows.append(self._aggregate("Overall", "", ok))
        return rows

    @staticmethod
    def _aggregate(dim, level, sub):
        gaps = [r.gap for r in sub]
        avg = sum(gaps) / len(gaps) if gaps else float("nan")
        top = max(gaps) if gaps else float("nan")
        thr = max((r.max_thresholds for r in sub), default=0)
        return (dim, level, avg, top, thr, len(sub))

    @property
    def cop_violations(self):
        return [(r.point.key, r.cop_violations) for r in self.results
                if r.cop_violations]

    @property
    def errors(self):
        return [(r.point.key, r.error) for r in self.results if r.error]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dimension", "level", "avg_gap_pct", "max_gap_pct",
                             "max_thresholds", "instances"])
            for dim, level, avg, top, thr, count in self.pivot_rows():
                writer.writerow([dim, level, f"{avg:.3f}", f"{top:.3f}", thr, count])


def _evaluate_point(point: DesignPoint) -> PointResult:
    """Solve one point, read its policy and price the heuristic exactly.

    The point is solved on its certified tables, solve(instance): each
    period's rows only on the instance's slide-aware cone (Instance.cone),
    C and Qstar from the lowest state that the pricing passes from x0 = 0
    reach or the band reading needs, and G only above the capacity slides,
    which order B and take their C from G(x + B). By the proofs of
    Instance.cone and Instance.top its bands, COP flags and exact gap are
    those of every whole-row grid that certifies the cone, and solving
    the cone alone changes no bit of any entry such a grid solves the same
    way. The tables, and the heuristic's order table that prices against
    them, span only the cone, from its lowest state up to the structural
    top: over the 810 Poisson points the widest is 2,384 states, EMP4 with
    B = 394. read_policy reads each period from the tables' exact_from,
    the cone's first state, and optimality_gap prices both policies for
    the instance the tables carry, on their grid. Each G row,
    the last included, takes the expected holding and shortage cost and
    the expected continuation together as one convolution (l alone on the
    last row): C and G are a whole-row solve's to rounding, not bit for
    bit (C within 5.1e-14 relative over the 810 Poisson points), so
    Qstar, and with it the bands, the flags and the gap, could differ only
    at a decision within rounding of the tie tolerance; on all 810 Poisson
    points and every fifth point of the discrete uniform, normal, gamma
    and lognormal designs none does. No grid error can arise: the tables
    reach the top, and the cone's first state R_1, the tables'
    exact_from(1), lies at or below x0 = 0.
    """
    try:
        tables = solve(point.instance)
        policy = read_policy(tables)
        violated = policy.cop_violated
        max_thr = max((len(pairs) for period, pairs in enumerate(policy.bands, 1)
                       if period not in violated), default=0)
        gap = optimality_gap(tables, policy.top(), 0)
        return PointResult(point, gap, max_thr, violated, None)
    except (SimulationError, MalformedTable) as exc:
        # a point whose numerics the checks reject is data; any other
        # exception is a bug and reaches the caller
        return PointResult(point, float("nan"), 0, (), f"{type(exc).__name__}: {exc}")


def run_benchmark(design, config: SimulationConfig | None = None) -> BenchmarkReport:
    """Solve, analyze, and price every design point; aggregate a pivot.

    Gaps are exact (optimality_gap), so config is no longer read. It stays
    the second parameter because perfbench/workloads.py passes it
    positionally; dropping it waits for the next change to the benchmark.
    Each point is solved on its certified tables alone, one period's cone
    at a time, up to its Instance.top (see _evaluate_point), so no outer
    grid bounds it and every point of the six families reaches a price.
    Results keep design order. A point whose bands are malformed or whose
    optimal table does not reproduce its solved value is recorded as an
    error.
    """
    return BenchmarkReport(tuple(_evaluate_point(pt) for pt in design))
