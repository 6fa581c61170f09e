"""One-sample interval and the Price-Bonnet / Donner-Zou comparators."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from quantdiff import (
    QuantileSpec,
    donner_zou_ci,
    ingest_sample,
    price_bonnet_ci,
)
from quantdiff.core import point_estimates
from quantdiff.errors import InsufficientSampleError, NumericOverflowError
from quantdiff.likelihood import two_sided_z

from oracles import (
    OneSampleBounds,
    donner_zou_endpoints,
    one_sample_bounds,
    price_bonnet_endpoints,
)


def _spec(q=0.5, alpha=0.05):
    return QuantileSpec(q=q, alpha=alpha)


def _estimate(sample, q):
    """The point estimate of one sample: ``point_estimates`` of a one-row block."""
    return float(point_estimates(sample.values[None], q)[0])


GRID_100 = ingest_sample(np.arange(1.0, 101.0))


class TestOneSampleCI:
    """The one-sample bounds, read through the two baselines.

    On GRID_100 at q = 0.5 both arms' point estimate is 50.5, so
    Donner-Zou's upper endpoint is hypot(u - 50.5, 50.5 - l) for the
    one-sample bounds (l, u).
    """

    def test_reference_indexes(self):
        # 50 +/- 1.95996 * 5 = 50 +/- 9.8, rounded outward: the bounds
        # (40, 60), 9.5 and 10.5 from the estimate.
        ci = donner_zou_ci(GRID_100, GRID_100, _spec())
        assert ci.upper == -ci.lower == math.hypot(9.5, 10.5)
        assert not ci.flags
        pb = price_bonnet_ci(GRID_100, GRID_100, _spec())
        bounds = OneSampleBounds(40.0, 60.0, 40, 60, False)
        want = price_bonnet_endpoints(bounds, bounds, 50.5, 50.5, two_sided_z(0.05))
        assert (pb.lower, pb.upper) == want

    def test_collapse(self):
        for ci in (price_bonnet_ci, donner_zou_ci):
            with pytest.raises(InsufficientSampleError):
                ci(ingest_sample([1.0]), ingest_sample([1.0]), _spec())
            with pytest.raises(InsufficientSampleError):
                ci(GRID_100, GRID_100, _spec(q=0.0001))

    def test_near_one_alpha_narrow_but_valid(self):
        # z -> 0 pulls both fractional indexes toward Nq = 50; outward
        # rounding around the integer center still spans (49, 51).
        ci = donner_zou_ci(GRID_100, GRID_100, _spec(alpha=0.9999))
        assert ci.upper == -ci.lower == math.hypot(0.5, 1.5)

    def test_alpha_nesting(self):
        rng = np.random.default_rng(41)
        c = ingest_sample(rng.normal(size=500))
        t = ingest_sample(rng.normal(size=400))
        for ci in (price_bonnet_ci, donner_zou_ci):
            wide = ci(c, t, _spec(alpha=0.01))
            narrow = ci(c, t, _spec(alpha=0.05))
            assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper

    def test_clamped_flag(self):
        # 99 + 1.96 * 0.995 rounds up past 100 and clamps to the maximum,
        # 0.5 above the estimate 99.5.
        for ci in (price_bonnet_ci, donner_zou_ci):
            assert ci(GRID_100, GRID_100, _spec(q=0.99)).flags == {"clamped_index"}
        bounds = one_sample_bounds(GRID_100.values, 0.99, two_sided_z(0.05))
        assert (bounds.upper_index, bounds.clamped) == (100, True)
        dz = donner_zou_ci(GRID_100, GRID_100, _spec(q=0.99))
        assert dz.upper == math.hypot(0.5, 99.5 - bounds.lower)


class TestPriceBonnet:
    def test_identical_samples_symmetric_about_zero(self):
        ci = price_bonnet_ci(GRID_100, GRID_100, _spec())
        assert ci.lower == -ci.upper
        assert ci.upper > 0.0

    def test_degenerate_bounds_zero_width(self):
        flat = ingest_sample(np.full(100, 3.0))
        ci = price_bonnet_ci(flat, flat, _spec())
        assert ci.lower == ci.upper == 0.0

    def test_independent_arithmetic_oracle(self):
        rng = np.random.default_rng(2001)
        y_c = np.sort(rng.normal(size=1000))
        y_t = np.sort(rng.normal(loc=0.3, size=1000))
        ci = price_bonnet_ci(ingest_sample(y_c), ingest_sample(y_t), _spec())

        z = scipy.stats.norm.ppf(0.975)
        hw_idx = z * math.sqrt(1000 * 0.25)

        def bounds(y):
            lo = max(math.floor(500 - hw_idx), 1)
            hi = min(math.ceil(500 + hw_idx), 1000)
            return y[lo - 1], y[hi - 1]

        l_c, u_c = bounds(y_c)
        l_t, u_t = bounds(y_t)
        var_c = ((u_c - l_c) / (2 * z)) ** 2
        var_t = ((u_t - l_t) / (2 * z)) ** 2
        diff = 0.5 * (y_t[499] + y_t[500]) - 0.5 * (y_c[499] + y_c[500])
        hw = z * math.sqrt(var_t + var_c)
        assert ci.lower == pytest.approx(diff - hw, abs=1e-12)
        assert ci.upper == pytest.approx(diff + hw, abs=1e-12)

    def test_symmetry_about_point_difference(self):
        rng = np.random.default_rng(2002)
        y_c = ingest_sample(rng.lognormal(size=400))
        y_t = ingest_sample(rng.lognormal(size=300))
        for q in (0.3, 0.5, 0.8):
            ci = price_bonnet_ci(y_c, y_t, _spec(q=q))
            diff = _estimate(y_t, q) - _estimate(y_c, q)
            assert ci.upper - diff == pytest.approx(diff - ci.lower, rel=1e-12)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(2003)
        y_c = ingest_sample(rng.normal(size=200))
        y_t = ingest_sample(rng.normal(size=200))
        base = price_bonnet_ci(y_c, y_t, _spec())
        shifted = price_bonnet_ci(y_c, ingest_sample(y_t.values + 4.5), _spec())
        assert shifted.lower == pytest.approx(base.lower + 4.5, abs=1e-12)
        assert shifted.upper == pytest.approx(base.upper + 4.5, abs=1e-12)


class TestDonnerZou:
    def test_identical_samples_bracket_zero(self):
        ci = donner_zou_ci(GRID_100, GRID_100, _spec())
        assert ci.lower <= 0.0 <= ci.upper

    def test_equals_price_bonnet_on_symmetric_bounds(self):
        # Craft bounds symmetric about the midpoint estimate: on [1..100]
        # with the 60th value raised to 61, the (40, 60) bounds are (40, 61)
        # and the estimate 50.5 sits exactly 10.5 from each. Both methods
        # then reduce to the same sqrt(2)*10.5 halfwidth.
        values = np.arange(1.0, 101.0)
        values[59] = 61.0
        s = ingest_sample(values)
        dz = donner_zou_ci(s, s, _spec())
        pb = price_bonnet_ci(s, s, _spec())
        assert dz.lower == pytest.approx(pb.lower, abs=1e-12)
        assert dz.upper == pytest.approx(pb.upper, abs=1e-12)
        assert dz.upper == pytest.approx(math.hypot(10.5, 10.5), abs=1e-12)

    def test_brackets_point_difference(self):
        rng = np.random.default_rng(3001)
        for _ in range(30):
            y_c = ingest_sample(rng.lognormal(size=int(rng.integers(30, 400))))
            y_t = ingest_sample(rng.lognormal(size=int(rng.integers(30, 400))))
            q = float(rng.uniform(0.15, 0.9))
            ci = donner_zou_ci(y_c, y_t, _spec(q=q))
            diff = _estimate(y_t, q) - _estimate(y_c, q)
            assert ci.lower <= diff <= ci.upper

    def test_verbatim_formula_oracle(self):
        rng = np.random.default_rng(3002)
        y_c = ingest_sample(rng.lognormal(size=1000))
        y_t = ingest_sample(rng.lognormal(size=1000))
        spec = _spec(q=0.9)
        ci = donner_zou_ci(y_c, y_t, spec)
        b_c = one_sample_bounds(y_c.values, 0.9, two_sided_z(0.05))
        b_t = one_sample_bounds(y_t.values, 0.9, two_sided_z(0.05))
        t_c = _estimate(y_c, 0.9)
        t_t = _estimate(y_t, 0.9)
        diff = t_t - t_c
        want_upper = diff + math.sqrt((b_t.upper - t_t) ** 2 + (t_c - b_c.lower) ** 2)
        want_lower = diff - math.sqrt((t_t - b_t.lower) ** 2 + (b_c.upper - t_c) ** 2)
        assert ci.upper == want_upper
        assert ci.lower == want_lower

    def test_lognormal_tail_asymmetry(self):
        rng = np.random.default_rng(3003)
        y_c = ingest_sample(rng.lognormal(size=1000))
        y_t = ingest_sample(rng.lognormal(size=1000))
        ci = donner_zou_ci(y_c, y_t, _spec(q=0.9))
        diff = _estimate(y_t, 0.9) - _estimate(y_c, 0.9)
        assert ci.upper - diff != pytest.approx(diff - ci.lower, rel=1e-6)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(3004)
        y_c = ingest_sample(rng.normal(size=150))
        y_t = ingest_sample(rng.normal(size=170))
        base = donner_zou_ci(y_c, y_t, _spec())
        shifted = donner_zou_ci(y_c, ingest_sample(y_t.values - 2.25), _spec())
        assert shifted.lower == pytest.approx(base.lower - 2.25, abs=1e-12)
        assert shifted.upper == pytest.approx(base.upper - 2.25, abs=1e-12)

    def test_propagates_insufficient_sample(self):
        one = ingest_sample([1.0])
        with pytest.raises(InsufficientSampleError):
            donner_zou_ci(one, GRID_100, _spec())


class TestCorrectlyRoundedSquares:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n_c=hst.integers(20, 400),
        n_t=hst.integers(20, 400),
        q=hst.floats(0.05, 0.95),
        alpha=hst.sampled_from([0.1, 0.05, 0.01]),
        tied=hst.booleans(),
        exponent=hst.integers(-300, 300),
    )
    # C pow(x, 2.0) misrounds a square in these two: the Donner-Zou lower
    # endpoint and both Price-Bonett endpoints move by 1 to 4 ulp.
    @example(
        seed=2029191568, n_c=117, n_t=205, q=0.7876952445972364, alpha=0.01, tied=False,
        exponent=-20,
    )
    @example(
        seed=3640494715, n_c=317, n_t=351, q=0.6765042357958296, alpha=0.05, tied=True,
        exponent=30,
    )
    def test_endpoints_match_fraction_oracle(self, seed, n_c, n_t, q, alpha, tied, exponent):
        # Each square is the exact square rounded once, the same on every
        # platform; a square past the float range fails the interval.
        rng = np.random.default_rng(seed)
        arms = [rng.normal(size=n) if tied else rng.lognormal(size=n) for n in (n_c, n_t)]
        if tied:
            arms = [np.round(y, 1) for y in arms]
        control, treatment = (ingest_sample(y * 10.0**exponent) for y in arms)
        spec = _spec(q=q, alpha=alpha)
        z = two_sided_z(alpha)
        b_c, b_t = (one_sample_bounds(y.values, q, z) for y in (control, treatment))
        tau_c = _estimate(control, q)
        tau_t = _estimate(treatment, q)
        for ci, want in (
            (price_bonnet_ci, price_bonnet_endpoints(b_c, b_t, tau_c, tau_t, z)),
            (donner_zou_ci, donner_zou_endpoints(b_c, b_t, tau_c, tau_t)),
        ):
            if not all(map(math.isfinite, want)):
                with pytest.raises(NumericOverflowError):
                    ci(control, treatment, spec)
                continue
            got = ci(control, treatment, spec)
            assert (got.lower.hex(), got.upper.hex()) == (want[0].hex(), want[1].hex())
