"""Discrete demand distributions.

Demand in every period is a finite PMF on nonnegative integers. Continuous
families are discretized onto the integer lattice with a continuity
correction; unbounded supports are cut once the remaining tail carries
negligible mass, then renormalized.

Parametric PMFs are built from the scipy.special functions that
scipy.stats' frozen distributions evaluate, in the same order, so they are
bit-identical to a construction through scipy.stats (tests/oracle.py keeps
that construction, and tests/test_demand.py asserts the equality) without
importing scipy.stats. scipy.special itself is imported by the first PMF
that needs it, so importing the package loads numpy alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

    The solver's views of the two fields are built once, at construction:
    support_arr and probs_arr (the fields as int64 and float64 arrays) and
    mean. dense, the mass at each value 0..max_value, is built on its first
    read, as only the convolutions read it. The three arrays are read-only,
    as one PMF serves every solve and pricing that holds it (the test bed
    shares each of its PMFs across design points). Equality and hashing
    read the two fields alone.
    """

    support: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        support_arr = np.asarray(self.support, dtype=np.int64)
        probs_arr = np.asarray(self.probs, dtype=np.float64)
        support_arr.flags.writeable = probs_arr.flags.writeable = False
        object.__setattr__(self, "support_arr", support_arr)
        object.__setattr__(self, "probs_arr", probs_arr)
        object.__setattr__(self, "mean", float(probs_arr @ support_arr))

    @cached_property
    def dense(self) -> np.ndarray:
        dense = np.zeros(self.max_value + 1)
        dense[self.support_arr] = self.probs_arr
        dense.flags.writeable = False
        return dense

    @property
    def std(self) -> float:
        m = self.mean
        return float(np.sqrt(self.probs_arr @ (self.support_arr - m) ** 2))

    @property
    def max_value(self) -> int:
        return int(self.support[-1])


def _finalize(values: np.ndarray, probs: np.ndarray) -> DemandPMF:
    """Drop zero-mass points, sort by value, renormalize.

    Every PMF the package generates is built here: the parametric families
    and the COP search's draws. pmf_empirical, with its checks, serves
    outside input alone; on checked input with no zero mass it takes the
    same steps (sort, sum, _normalized), so the two agree bit for bit.
    """
    keep = probs > 0.0
    values = values[keep]
    probs = probs[keep]
    if values.size == 0:
        raise ValueError("PMF has no positive-mass support points")
    order = np.argsort(values)
    probs = probs[order]
    return _normalized(values[order], probs, probs.sum())


def _normalized(values: np.ndarray, probs: np.ndarray, total) -> DemandPMF:
    """The PMF of sorted values and their positive masses, which sum to total."""
    # skip the division when the masses already sum to one: renormalizing
    # is not bitwise idempotent, and reparsing a serialized PMF must
    # reproduce it exactly (1e-12 clears float accumulation error, which
    # stays below ~n*eps for supports of a few hundred points)
    if abs(total - 1.0) > 1e-12:
        probs = probs / total
    return DemandPMF(tuple(values.tolist()), tuple(probs.tolist()))


def _all_real(seq, arr: np.ndarray) -> bool:
    """Whether every element of seq, which numpy reads as arr, is a real
    number and not a boolean, as Instance and pmf_parametric require.
    numpy reads False and True as 0 and 1, and a list that mixes them with
    numbers as a number array, so a list's elements are read one by one,
    as are an object array's; a numeric array's dtype speaks for all of
    them. A text is no number either, though a float cast would parse it.
    """
    if isinstance(seq, np.ndarray) and arr.dtype.kind != "O":
        return arr.dtype.kind in "iuf"
    return all(isinstance(x, numbers.Real) and not isinstance(x, bool)
               for x in (arr.tolist() if isinstance(seq, np.ndarray) else seq))


def pmf_empirical(values, masses) -> DemandPMF:
    """Build a PMF from explicit support values and probability masses."""
    vals, mass = np.asarray(values), np.asarray(masses)
    if vals.ndim != 1 or mass.ndim != 1 or vals.size != mass.size:
        raise ValueError("values and masses must be 1-d sequences of equal length")
    if vals.size == 0:
        raise ValueError("empty PMF")
    if not _all_real(values, vals):
        raise ValueError("support values must be integers")
    if not _all_real(masses, mass):
        raise ValueError("masses must be numbers")
    mass = mass.astype(np.float64, copy=False)
    # every check below reads one copy sorted by value
    order = vals.argsort()
    vals, mass = vals[order], mass[order]
    # an integer array holds whole numbers already
    if vals.dtype.kind not in "iu" and not (vals == np.floor(vals)).all():
        raise ValueError("support values must be integers")
    # the sorted ends, as Python numbers, bound every value before the cast,
    # which would garble an infinite or too-large one
    lo, hi = vals[[0, -1]].tolist()
    if lo < 0:
        raise ValueError("support values must be nonnegative")
    if not hi < 2**63:
        raise ValueError(f"support values must be finite and below 2**63, got {hi!r}")
    vals = vals.astype(np.int64, copy=False)
    if (vals[1:] == vals[:-1]).any():
        raise ValueError("support values must be distinct")
    # NaN fails every comparison, so it fails this one
    if not 0.0 < mass.min() <= mass.max() < math.inf:
        raise ValueError("masses must be positive and finite")
    total = mass.sum()
    if abs(total - 1.0) > _MASS_TOL:
        raise ValueError(f"masses sum to {total!r}, expected 1 within {_MASS_TOL}")
    return _normalized(vals, mass, total)


def _discrete_tail_cut(start, sf, tail_eps: float) -> int:
    """Smallest k >= int(start) with P(X > k) = sf(k) below tail_eps."""
    k = int(start)
    while sf(k) >= tail_eps:
        k += 1
    return k


def _continuity_corrected(cdf, sf, isf_eps, tail_eps: float) -> DemandPMF:
    """Discretize a continuous law: P(k) = F(k+1/2) - F(k-1/2), P(0) = F(1/2).

    cdf and sf are the law's F and 1 - F, isf_eps the point where the
    upper tail holds tail_eps. Mass below 1/2 (including any negative-value
    mass) is folded into P(0).
    """
    k_max = max(1, int(np.ceil(isf_eps)))
    while sf(k_max + 0.5) >= tail_eps:
        k_max += 1
    cdf_at_half = cdf(np.arange(k_max + 1) + 0.5)
    probs = np.diff(cdf_at_half, prepend=0.0)
    probs = np.maximum(probs, 0.0)
    return _finalize(np.arange(k_max + 1), probs)


def _poisson(mu, tail_eps: float) -> DemandPMF:
    from scipy import special

    # the tail search starts where scipy.stats' isf does: its ppf at
    # 1 - eps, ceil(pdtrik) stepped back by one where pdtr already reaches
    q = 1.0 - tail_eps
    above = np.ceil(special.pdtrik(q, mu))
    below = np.maximum(above - 1, 0)
    start = np.where(special.pdtr(below, mu) >= q, below, above)
    # k is an integer, so this is scipy.stats' pdtrc(floor(k), mu)
    k_max = _discrete_tail_cut(start, lambda k: special.pdtrc(k, mu), tail_eps)
    ks = np.arange(k_max + 1)
    log_pmf = special.xlogy(ks, mu) - special.gammaln(ks + 1) - mu
    return _finalize(ks, np.clip(np.exp(log_pmf), 0, 1))


def _geometric(p: float, tail_eps: float) -> DemandPMF:
    """Failures before the first success, i.e. scipy.stats' geom(p, loc=-1).

    scipy.stats counts trials n = k + 1; the formulas below keep its
    variable and shift by one where it applies loc.
    """
    log_fail = np.log1p(-p)
    q = 1.0 - tail_eps
    n = np.ceil(np.log1p(-q) / log_fail)
    cdf_before = -np.expm1(log_fail * np.floor(n - 1))
    start = np.where((cdf_before >= q) & (n > 0), n - 1, n) - 1
    # P(X > k) = 1 below the support, so the search need not start there
    # (at p = 1, i.e. a mean under 1.2e-16, start is -1)
    k_max = _discrete_tail_cut(max(start, 0),
                               lambda k: np.exp((k + 1) * log_fail), tail_eps)
    ks = np.arange(k_max + 1)
    return _finalize(ks, np.clip(np.power(1 - p, ks) * p, 0, 1))


def _normal(loc, scale, tail_eps: float) -> DemandPMF:
    from scipy import special

    if not scale > 0:
        raise ValueError("normal scale cv * mean underflows to zero")

    def z(x):
        return (x - loc) / scale

    return _continuity_corrected(lambda x: special.ndtr(z(x)),
                                 lambda x: special.ndtr(-z(x)),
                                 -special.ndtri(tail_eps) * scale + loc, tail_eps)


def _lognormal(s, scale, tail_eps: float) -> DemandPMF:
    from scipy import special

    if not (s > 0 and scale > 0):
        raise ValueError("lognormal shape or scale underflows to zero")

    def z(x):
        return np.log(x / scale) / s

    return _continuity_corrected(lambda x: special.ndtr(z(x)),
                                 lambda x: special.ndtr(-z(x)),
                                 np.exp(s * -special.ndtri(tail_eps)) * scale,
                                 tail_eps)


def _gamma(cv2, scale, tail_eps: float) -> DemandPMF:
    from scipy import special

    if not (cv2 > 0 and scale > 0):
        raise ValueError("gamma cv * cv or scale underflows to zero")
    a = 1.0 / cv2
    return _continuity_corrected(lambda x: special.gammainc(a, x / scale),
                                 lambda x: special.gammaincc(a, x / scale),
                                 special.gammainccinv(a, tail_eps) * scale,
                                 tail_eps)


def pmf_parametric(family: str, mean: float, cv: float | None = None,
                   tail_eps: float = DEFAULT_TAIL_EPS) -> DemandPMF:
    """Build a PMF for one of the supported parametric families.

    mean must be positive and finite. cv (coefficient of variation) is
    required for normal, lognormal and gamma, where it must be positive and
    finite, and must be omitted for the discrete families. A boolean mean
    or cv is rejected, not read as 1.

    The masses and the tail cut are bit-identical to building the same law
    through scipy.stats (poisson, geom with loc=-1, norm, lognorm, gamma),
    but come from the scipy.special functions those distributions call;
    tests/test_demand.py holds them equal to that construction in
    tests/oracle.py.
    """
    if family not in PARAMETRIC_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    for name, value in (("mean", mean), ("cv", cv)):
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be a number, not a boolean")
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
        return _poisson(mean, tail_eps)
    if family == "discrete_uniform":
        # uniform on the integers of [0, 2*mean)
        n_points = int(np.ceil(2.0 * mean))
        ks = np.arange(n_points)
        return _finalize(ks, np.full(n_points, 1.0 / n_points))
    if family == "geometric":
        # support {0, 1, ...} with success probability 1/(1+mean)
        return _geometric(1.0 / (1.0 + mean), tail_eps)
    if family == "normal":
        return _normal(mean, cv * mean, tail_eps)
    if family == "lognormal":
        sigma2 = np.log1p(cv * cv)
        scale = np.exp(np.log(mean) - sigma2 / 2.0)
        return _lognormal(np.sqrt(sigma2), scale, tail_eps)
    # gamma
    return _gamma(cv * cv, mean * cv * cv, tail_eps)
