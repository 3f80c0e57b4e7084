import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy import special, stats

from conftest import scipy_modules_after
from oracle import stats_pmf_parametric
from stochinv import (PARAMETRIC_FAMILIES, DemandPMF, build_design,
                      demand_patterns, pmf_empirical, pmf_parametric)


class TestEmpirical:
    def test_basic_construction(self):
        pmf = pmf_empirical([3, 1, 2], [0.2, 0.5, 0.3])
        assert pmf.support == (1, 2, 3)
        assert pmf.probs == approx((0.5, 0.3, 0.2))
        assert pmf.mean == approx(0.5 * 1 + 0.3 * 2 + 0.2 * 3)
        assert pmf.max_value == 3

    def test_integer_valued_floats_accepted(self):
        pmf = pmf_empirical([5.0, 7.0], [0.5, 0.5])
        assert pmf.support == (5, 7)
        assert pmf_empirical([-0.0, 1], [0.5, 0.5]).support == (0, 1)

    def test_cum_probs_end_at_one(self):
        pmf = pmf_empirical([0, 4, 9], [0.25, 0.25, 0.5])
        assert np.cumsum(pmf.probs_arr)[-1] == approx(1.0)

    def test_slightly_off_total_renormalized(self):
        pmf = pmf_empirical([1, 2], [0.5, 0.5000004])
        assert sum(pmf.probs) == approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("values,masses", [
        ([1, 2], [0.5]),
        ([], []),
        ([1.5, 2], [0.5, 0.5]),
        ([-1, 2], [0.5, 0.5]),
        ([1, 1], [0.5, 0.5]),
        ([1, 2], [0.6, -0.1]),
        ([1, 2], [0.4, 0.4]),
        ([1, 2], [math.nan, 1.0]),
        ([1, 2], [1.0, math.nan]),
        ([1, 2], [math.inf, 1.0]),
    ])
    def test_rejects_malformed(self, values, masses):
        with pytest.raises(ValueError):
            pmf_empirical(values, masses)

    # numpy reads False and True as 0 and 1, and a list that mixes one with
    # numbers as a number array, which Instance and pmf_parametric refuse;
    # a float cast would parse a text
    @pytest.mark.parametrize("values,masses,message", [
        ([False, True], [0.5, 0.5], "support values must be integers"),
        ([0, True], [0.5, 0.5], "support values must be integers"),
        ([np.True_, 2], [0.5, 0.5], "support values must be integers"),
        (np.array([False, True]), [0.5, 0.5], "support values must be integers"),
        (np.array([0, True], dtype=object), [0.5, 0.5],
         "support values must be integers"),
        (["0", "1"], [0.5, 0.5], "support values must be integers"),
        ([3], [True], "masses must be numbers"),
        ([1, 2], [0.5, np.True_], "masses must be numbers"),
        ([1, 2], np.array([True, False]), "masses must be numbers"),
        ([1, 2], ["0.5", "0.5"], "masses must be numbers"),
    ])
    def test_rejects_booleans_and_texts(self, values, masses, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            pmf_empirical(values, masses)

    def test_numpy_numbers_are_accepted(self):
        want = pmf_empirical([1, 2], [0.25, 0.75])
        assert pmf_empirical(np.array([1, 2]), np.array([0.25, 0.75])) == want
        assert pmf_empirical([np.int64(1), np.uint8(2)],
                             [np.float32(0.25), 0.75]) == want
        assert pmf_empirical(np.array([2.0]), [1]).probs == (1.0,)

    # each is rejected before the cast to int64, which would warn (an error
    # under pytest's filterwarnings) and garble the value
    @pytest.mark.parametrize("values", [[1e300, 2], [math.inf, 2], [2**63, 1]])
    def test_rejects_values_outside_int64(self, values):
        with pytest.raises(ValueError, match=r"must be finite and below 2\*\*63"):
            pmf_empirical(values, [0.5, 0.5])


def assert_eager_arrays(pmf):
    """The arrays built at construction equal those built from the fields."""
    support = np.asarray(pmf.support, dtype=np.int64)
    probs = np.asarray(pmf.probs, dtype=np.float64)
    for got, want in ((pmf.support_arr, support), (pmf.probs_arr, probs)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert pmf.mean == float(probs @ support)


class TestEagerArrays:
    def test_every_bed_pmf(self):
        patterns = demand_patterns()
        laws = {(pt.family, mean, pt.cv)
                for pt in build_design(PARAMETRIC_FAMILIES)
                for mean in patterns[pt.pattern]}
        for law in laws:
            assert_eager_arrays(pmf_parametric(*law))

    @given(points=st.dictionaries(st.integers(0, 500), st.floats(1e-3, 1.0),
                                  min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_empirical(self, points):
        masses = np.array(list(points.values()))
        assert_eager_arrays(pmf_empirical(list(points), masses / masses.sum()))

    def test_equality_and_hash_read_the_fields_alone(self):
        pmf = pmf_empirical([3, 1, 2], [0.2, 0.5, 0.3])
        same = DemandPMF(pmf.support, pmf.probs)
        assert same == pmf and hash(same) == hash(pmf)
        assert [f.name for f in dataclasses.fields(DemandPMF)] == ["support", "probs"]
        assert repr(pmf) == "DemandPMF(support=(1, 2, 3), probs=(0.5, 0.3, 0.2))"
        assert pmf != DemandPMF(pmf.support, (0.5, 0.2, 0.3))
        assert_eager_arrays(dataclasses.replace(pmf, probs=(0.5, 0.2, 0.3)))

    # one PMF serves every solve that holds it (the test bed shares each
    # across its design points), so a write in place would reach them all
    @pytest.mark.parametrize("name", ["support_arr", "probs_arr", "dense"])
    def test_arrays_are_read_only(self, name):
        array = getattr(pmf_parametric("poisson", 5.0), name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            array += 1


class TestPoisson:
    def test_matches_factorial_formula(self):
        """Cross-check against P(k) = e^-m m^k / k! computed from scratch."""
        pmf = pmf_parametric("poisson", 20.0)
        by_value = dict(zip(pmf.support, pmf.probs))
        for k in (0, 5, 20, 35):
            exact = math.exp(-20.0) * 20.0 ** k / math.factorial(k)
            assert by_value[k] == approx(exact, rel=1e-7, abs=1e-12)

    def test_mass_and_mean(self):
        pmf = pmf_parametric("poisson", 20.0)
        assert sum(pmf.probs) == approx(1.0, abs=1e-12)
        assert pmf.mean == approx(20.0, abs=1e-3)
        assert pmf.std == approx(math.sqrt(20.0), abs=1e-2)

    def test_tail_cut_respects_eps(self):
        pmf = pmf_parametric("poisson", 20.0, tail_eps=1e-6)
        assert stats.poisson(20.0).sf(pmf.max_value) < 1e-6
        # one state earlier the tail is still above the threshold
        assert stats.poisson(20.0).sf(pmf.max_value - 1) >= 1e-6


class TestDiscreteUniform:
    def test_support_and_masses(self):
        pmf = pmf_parametric("discrete_uniform", 20.0)
        assert pmf.support == tuple(range(40))
        assert pmf.probs == approx((1.0 / 40,) * 40)
        assert pmf.mean == approx(19.5)

    def test_fractional_mean_rounds_support_up(self):
        pmf = pmf_parametric("discrete_uniform", 10.2)
        assert pmf.support == tuple(range(21))


class TestGeometric:
    def test_mass_at_zero(self):
        pmf = pmf_parametric("geometric", 30.0)
        assert pmf.support[0] == 0
        assert pmf.probs[0] == approx(1.0 / 31.0, rel=1e-9)

    def test_mean(self):
        pmf = pmf_parametric("geometric", 30.0)
        assert pmf.mean == approx(30.0, rel=1e-3)


class TestContinuityCorrected:
    def test_normal_cell_masses(self):
        """P(k) must equal the erf-based cell integral, scipy-free."""
        pmf = pmf_parametric("normal", 30.0, cv=0.2)
        by_value = dict(zip(pmf.support, pmf.probs))

        def phi(z):
            return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

        for k in (24, 30, 36):
            lo = (k - 0.5 - 30.0) / 6.0
            hi = (k + 0.5 - 30.0) / 6.0
            assert by_value[k] == approx(phi(hi) - phi(lo), rel=1e-9)

    def test_normal_zero_cell_folds_left_tail(self):
        pmf = pmf_parametric("normal", 1.0, cv=2.0)
        assert pmf.support[0] == 0
        assert pmf.probs[0] == approx(stats.norm(1.0, 2.0).cdf(0.5), rel=1e-9)

    @pytest.mark.parametrize("family", ["normal", "lognormal", "gamma"])
    @pytest.mark.parametrize("cv", [0.1, 0.2, 0.3])
    def test_moments_track_parameters(self, family, cv):
        pmf = pmf_parametric(family, 30.0, cv=cv)
        assert sum(pmf.probs) == approx(1.0, abs=1e-12)
        assert pmf.mean == approx(30.0, abs=0.25)
        # discretization inflates variance by about 1/12, nothing more
        assert pmf.std == approx(30.0 * cv, abs=0.2)

    def test_lognormal_median_preserved(self):
        # exp(mu) is the median; half the integer mass sits at or below it
        pmf = pmf_parametric("lognormal", 30.0, cv=0.3)
        sigma2 = math.log(1.0 + 0.09)
        median = math.exp(math.log(30.0) - sigma2 / 2.0)
        below = sum(p for v, p in zip(pmf.support, pmf.probs) if v <= median)
        assert below == approx(0.5, abs=0.05)


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            pmf_parametric("zipf", 10.0)

    def test_cv_required(self):
        with pytest.raises(ValueError, match="requires cv"):
            pmf_parametric("normal", 10.0)

    def test_cv_rejected_for_discrete(self):
        with pytest.raises(ValueError, match="not a parameter"):
            pmf_parametric("poisson", 10.0, cv=0.2)

    @pytest.mark.parametrize("mean", [0.0, -3.0])
    def test_positive_mean_required(self, mean):
        with pytest.raises(ValueError, match="mean"):
            pmf_parametric("poisson", mean)

    @pytest.mark.parametrize("family,mean,cv,name", [
        ("poisson", True, None, "mean"),
        ("geometric", np.True_, None, "mean"),
        ("normal", 10.0, True, "cv"),
        ("gamma", True, 0.2, "mean"),
    ])
    def test_boolean_parameter_rejected(self, family, mean, cv, name):
        # a boolean would pass every numeric rule as 1
        with pytest.raises(ValueError, match=f"{name} must be a number, not a boolean"):
            pmf_parametric(family, mean, cv)

    @pytest.mark.parametrize("eps", [0.0, 0.01, 0.5, -1e-9])
    def test_tail_eps_domain(self, eps):
        with pytest.raises(ValueError, match="tail_eps"):
            pmf_parametric("poisson", 10.0, tail_eps=eps)


_STATS_FAMILIES = ("poisson", "geometric", "normal", "lognormal", "gamma")


class TestScipyStatsEquality:
    """pmf_parametric is bit-identical to building the law through scipy.stats."""

    def test_every_bed_pmf(self):
        patterns = demand_patterns()
        laws = {(pt.family, mean, pt.cv)
                for pt in build_design(PARAMETRIC_FAMILIES)
                if pt.family in _STATS_FAMILIES
                for mean in patterns[pt.pattern]}
        assert len(laws) > 500
        differ = [law for law in sorted(laws, key=repr)
                  if pmf_parametric(*law) != stats_pmf_parametric(*law)]
        assert differ == []

    @given(
        family=st.sampled_from(_STATS_FAMILIES),
        mean=st.floats(1e-3, 250.0),
        cv=st.floats(0.05, 1.5),
        tail_eps=st.floats(1e-9, 1e-3),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_law(self, family, mean, cv, tail_eps):
        if family in ("poisson", "geometric"):
            cv = None
        assert (pmf_parametric(family, mean, cv, tail_eps)
                == stats_pmf_parametric(family, mean, cv, tail_eps))

    # both constructions divide by zero or overflow on the way to these
    # results, and numpy warns about it
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("family,mean,cv", [
        ("poisson", 1e-300, None),
        ("geometric", 1e-17, None),   # success probability rounds to 1
        ("normal", 1.0, 1e-320),
        ("lognormal", 5.0, 1e-9),
        ("lognormal", 1e-300, 0.5),
        ("gamma", 1e-300, 0.5),
    ])
    def test_degenerate_law(self, family, mean, cv):
        assert pmf_parametric(family, mean, cv) == stats_pmf_parametric(family, mean, cv)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("family,mean,cv", [
        ("normal", 1e-200, 1e-200),
        ("lognormal", 5.0, 1e-170),
        ("gamma", 5.0, 1e-170),
        ("gamma", 1e-300, 1e-20),
    ])
    def test_underflowing_scale_is_rejected(self, family, mean, cv):
        with pytest.raises(ValueError, match="underflows"):
            pmf_parametric(family, mean, cv)
        # scipy.stats fails on them too: a NaN quantile or a division by zero
        with pytest.raises((ValueError, ZeroDivisionError)):
            stats_pmf_parametric(family, mean, cv)

    def test_confidence_quantile(self):
        # the z of the Monte Carlo oracle (oracle.simulate_policy) for a
        # two-sided interval at confidence c
        confidences = [i / 1000 for i in range(1, 1000)] + [1e-9, 1 - 1e-9]
        for c in confidences:
            assert special.ndtri(0.5 + c / 2) == stats.norm.ppf(0.5 + c / 2)

    def test_builds_without_scipy_stats(self):
        loaded = scipy_modules_after(
            "from stochinv import pmf_parametric\n"
            "pmf_parametric('poisson', 20.0)")
        assert "scipy.special" in loaded
        assert not any(m == "scipy.stats" or m.startswith("scipy.stats.")
                       for m in loaded)


@given(
    family=st.sampled_from(["poisson", "geometric", "discrete_uniform"]),
    mean=st.floats(0.5, 200.0),
)
@settings(max_examples=60, deadline=None)
def test_discrete_families_wellformed(family, mean):
    pmf = pmf_parametric(family, mean)
    support = np.asarray(pmf.support)
    probs = np.asarray(pmf.probs)
    assert np.all(np.diff(support) > 0)
    assert support[0] >= 0
    assert np.all(probs > 0)
    assert probs.sum() == approx(1.0, abs=1e-9)
    assert pmf.max_value == pmf.support[-1]


@given(
    family=st.sampled_from(["normal", "lognormal", "gamma"]),
    mean=st.floats(1.0, 200.0),
    cv=st.floats(0.05, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_continuous_families_wellformed(family, mean, cv):
    pmf = pmf_parametric(family, mean, cv=cv)
    support = np.asarray(pmf.support)
    probs = np.asarray(pmf.probs)
    assert np.all(np.diff(support) > 0)
    assert support[0] >= 0
    assert np.all(probs > 0)
    assert probs.sum() == approx(1.0, abs=1e-9)
    assert abs(pmf.mean - mean) < max(1.0, 0.1 * mean)
