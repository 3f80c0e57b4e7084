"""Discrete demand distributions.

Demand in every period is a finite PMF on nonnegative integers. Continuous
families are discretized onto the integer lattice with a continuity
correction; unbounded supports are cut once the remaining tail carries
negligible mass, then renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import stats

PARAMETRIC_FAMILIES = (
    "poisson",
    "discrete_uniform",
    "geometric",
    "normal",
    "lognormal",
    "gamma",
)
_CV_FAMILIES = ("normal", "lognormal", "gamma")
_MASS_TOL = 1e-6
DEFAULT_TAIL_EPS = 1e-9


@dataclass(frozen=True)
class DemandPMF:
    """Finite probability mass function on nonnegative integers.

    support is strictly increasing, probs are positive and sum to one.
    Instances are immutable and safe to share across solver runs.
    """

    support: tuple[int, ...]
    probs: tuple[float, ...]

    @cached_property
    def support_arr(self) -> np.ndarray:
        return np.asarray(self.support, dtype=np.int64)

    @cached_property
    def probs_arr(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=np.float64)

    @cached_property
    def cum_probs(self) -> np.ndarray:
        return np.cumsum(self.probs_arr)

    @property
    def mean(self) -> float:
        return float(self.probs_arr @ self.support_arr)

    @property
    def std(self) -> float:
        m = self.mean
        return float(np.sqrt(self.probs_arr @ (self.support_arr - m) ** 2))

    @property
    def max_value(self) -> int:
        return int(self.support[-1])


def _finalize(values: np.ndarray, probs: np.ndarray) -> DemandPMF:
    """Drop zero-mass points, sort by value, renormalize."""
    keep = probs > 0.0
    values = values[keep]
    probs = probs[keep]
    if values.size == 0:
        raise ValueError("PMF has no positive-mass support points")
    order = np.argsort(values)
    values = values[order]
    probs = probs[order]
    # skip the division when the masses already sum to one: renormalizing
    # is not bitwise idempotent, and reparsing a serialized PMF must
    # reproduce it exactly (1e-12 clears float accumulation error, which
    # stays below ~n*eps for supports of a few hundred points)
    total = probs.sum()
    if abs(total - 1.0) > 1e-12:
        probs = probs / total
    return DemandPMF(
        tuple(int(v) for v in values),
        tuple(float(p) for p in probs),
    )


def pmf_empirical(values, masses) -> DemandPMF:
    """Build a PMF from explicit support values and probability masses."""
    vals = np.asarray(values)
    mass = np.asarray(masses, dtype=np.float64)
    if vals.ndim != 1 or mass.ndim != 1 or vals.size != mass.size:
        raise ValueError("values and masses must be 1-d sequences of equal length")
    if vals.size == 0:
        raise ValueError("empty PMF")
    if not np.all(vals == np.floor(vals)):
        raise ValueError("support values must be integers")
    vals = vals.astype(np.int64)
    if np.any(vals < 0):
        raise ValueError("support values must be nonnegative")
    if np.unique(vals).size != vals.size:
        raise ValueError("support values must be distinct")
    if np.any(mass <= 0.0):
        raise ValueError("masses must be positive")
    total = mass.sum()
    if abs(total - 1.0) > _MASS_TOL:
        raise ValueError(f"masses sum to {total!r}, expected 1 within {_MASS_TOL}")
    return _finalize(vals, mass)


def _discrete_tail_cut(dist, tail_eps: float) -> int:
    """Smallest k with P(X > k) < tail_eps for an integer-valued scipy dist."""
    k = int(dist.isf(tail_eps))
    while dist.sf(k) >= tail_eps:
        k += 1
    return k


def _continuity_corrected(dist, tail_eps: float) -> DemandPMF:
    """Discretize a continuous scipy dist: P(k) = F(k+1/2) - F(k-1/2), P(0) = F(1/2).

    Mass below 1/2 (including any negative-value mass) is folded into P(0).
    """
    k_max = max(1, int(np.ceil(dist.isf(tail_eps))))
    while dist.sf(k_max + 0.5) >= tail_eps:
        k_max += 1
    cdf_at_half = dist.cdf(np.arange(k_max + 1) + 0.5)
    probs = np.diff(cdf_at_half, prepend=0.0)
    probs = np.maximum(probs, 0.0)
    return _finalize(np.arange(k_max + 1), probs)


def pmf_parametric(family: str, mean: float, cv: float | None = None,
                   tail_eps: float = DEFAULT_TAIL_EPS) -> DemandPMF:
    """Build a PMF for one of the supported parametric families.

    mean must be positive and finite. cv (coefficient of variation) is
    required for normal, lognormal and gamma, where it must be positive and
    finite, and must be omitted for the discrete families.
    """
    if family not in PARAMETRIC_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not (mean > 0 and math.isfinite(mean)):
        raise ValueError("mean must be positive and finite")
    if not 0 < tail_eps < 0.01:
        raise ValueError("tail_eps must be in (0, 0.01)")
    if family in _CV_FAMILIES:
        if cv is None or not (cv > 0 and math.isfinite(cv)):
            raise ValueError(f"{family} requires cv > 0 and finite")
    elif cv is not None:
        raise ValueError(f"cv is not a parameter of the {family} family")

    if family == "poisson":
        dist = stats.poisson(mean)
        k_max = _discrete_tail_cut(dist, tail_eps)
        ks = np.arange(k_max + 1)
        return _finalize(ks, dist.pmf(ks))
    if family == "discrete_uniform":
        # uniform on the integers of [0, 2*mean)
        n_points = int(np.ceil(2.0 * mean))
        ks = np.arange(n_points)
        return _finalize(ks, np.full(n_points, 1.0 / n_points))
    if family == "geometric":
        # support {0, 1, ...} with success probability 1/(1+mean)
        dist = stats.geom(1.0 / (1.0 + mean), loc=-1)
        k_max = _discrete_tail_cut(dist, tail_eps)
        ks = np.arange(k_max + 1)
        return _finalize(ks, dist.pmf(ks))
    if family == "normal":
        return _continuity_corrected(stats.norm(mean, cv * mean), tail_eps)
    if family == "lognormal":
        sigma2 = np.log1p(cv * cv)
        scale = np.exp(np.log(mean) - sigma2 / 2.0)
        return _continuity_corrected(stats.lognorm(np.sqrt(sigma2), scale=scale), tail_eps)
    # gamma
    shape = 1.0 / (cv * cv)
    return _continuity_corrected(stats.gamma(shape, scale=mean * cv * cv), tail_eps)
