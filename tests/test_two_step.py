"""Two-step index construction and the four-point interval."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from quantdiff import QuantileSpec, ingest_sample, step1_indexes, two_step_ci
from quantdiff.errors import InsufficientSampleError
from quantdiff.likelihood import two_sided_z
from quantdiff.two_step import two_step_rows

from oracles import two_step_interval, two_step_quad


def _spec(q=0.5, alpha=0.05):
    return QuantileSpec(q=q, alpha=alpha)


UNIT_GRID_100 = ingest_sample(np.arange(1, 101) / 100.0)
UNIT_GRID_1000 = ingest_sample(np.arange(1, 1001) / 1000.0)


class TestStep1Indexes:
    def test_reference_case(self):
        # s = sqrt(100*100*0.25/200) = sqrt(12.5), z = 1.95996...,
        # 50 +/- 6.9296 rounded outward.
        quad = step1_indexes(_spec(), 100, 100)
        assert (quad.i_minus, quad.i_plus) == (43, 57)
        assert (quad.j_minus, quad.j_plus) == (43, 57)
        assert not quad.clamped

    def test_equal_sizes_give_equal_quads(self):
        for n in (10, 57, 400):
            for q in (0.2, 0.5, 0.85):
                quad = step1_indexes(_spec(q=q), n, n)
                assert (quad.i_minus, quad.i_plus) == (quad.j_minus, quad.j_plus)

    def test_extreme_q_clamps(self):
        # 10*0.99 = 9.9 with halfwidth ~0.44: the upper endpoint rounds
        # past N and clamps, leaving the flagged quad (9, 10).
        quad = step1_indexes(_spec(q=0.99), 10, 10)
        assert (quad.i_minus, quad.i_plus) == (9, 10)
        assert quad.clamped

    def test_collapse_raises(self):
        # 10*0.001 = 0.01: both endpoints land at index 1.
        with pytest.raises(InsufficientSampleError):
            step1_indexes(_spec(q=0.001), 10, 10)
        with pytest.raises(InsufficientSampleError):
            step1_indexes(_spec(), 1, 1)

    def test_matches_independent_arithmetic(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n_c = int(rng.integers(20, 2000))
            n_t = int(rng.integers(20, 2000))
            q = float(rng.uniform(0.1, 0.9))
            alpha = float(rng.choice([0.01, 0.05, 0.2]))
            z = scipy.stats.norm.ppf(1 - alpha / 2)
            s = math.sqrt(n_c * n_t * q * (1 - q) / (n_c + n_t))
            quad = step1_indexes(_spec(q=q, alpha=alpha), n_c, n_t)
            assert quad.i_minus == max(math.floor(n_c * q - z * s), 1)
            assert quad.i_plus == min(math.ceil(n_c * q + z * s), n_c)
            assert quad.j_minus == max(math.floor(n_t * q - z * s), 1)
            assert quad.j_plus == min(math.ceil(n_t * q + z * s), n_t)


# Arms that reach every fallback path: ties, constant rows and spacing past
# the float range (whose slope is 0); and scales near 1e+-300 and
# subnormal spacing (whose slopes take step 2 at a lifted scale).
_ARMS = {
    "normal": lambda rng, n: rng.normal(size=n),
    "ties": lambda rng, n: np.round(rng.normal(size=n), 1),
    "constant": lambda rng, n: np.full(n, rng.normal()),
    "subnormal": lambda rng, n: rng.uniform(0.0, 1e-310, size=n),
    "huge": lambda rng, n: rng.normal(size=n) * 1e300,
    "tiny": lambda rng, n: rng.lognormal(size=n) * 1e-300,
    "far": lambda rng, n: rng.choice([-1.0, 1.0], size=n) * rng.uniform(9e307, 1.7e308, size=n),
}


def _step1_endpoints(control, treatment, spec):
    quad1 = step1_indexes(spec, control.n, treatment.n)
    return (
        treatment.order_stat(quad1.j_minus) - control.order_stat(quad1.i_plus),
        treatment.order_stat(quad1.j_plus) - control.order_stat(quad1.i_minus),
    )


def _sloped(n, start, slope):
    """n sorted values that rise by exactly ((k - start) / n) / slope from
    index start to k, slope a power of two: the step-1 slope estimate read
    from a span starting at ``start`` is ``slope`` bit for bit."""
    return ingest_sample(((np.arange(1, n + 1) - start) / n) / slope)


def _assert_step2_at_scale(control, treatment, k, spec):
    """two_step_ci takes step 2 on arms at scale 2^k, with the flags of the
    arms times 2^-k and their endpoints times 2^k, bit for bit (every value
    is exact at both scales)."""
    got = two_step_ci(control, treatment, spec)
    unit = two_step_ci(*(ingest_sample(np.ldexp(y.values, -k)) for y in (control, treatment)), spec)
    assert "slope_fallback" not in got.flags
    assert got.flags == unit.flags
    assert (got.lower, got.upper) == (math.ldexp(unit.lower, k), math.ldexp(unit.upper, k))


def _matches_oracle(control, treatment, spec):
    """two_step_ci's endpoints and flags equal the oracle's, bit for bit."""
    ci = two_step_ci(control, treatment, spec)
    lower, upper, fallback, clamped = two_step_interval(
        control.values, treatment.values, spec.q, two_sided_z(spec.alpha)
    )
    flags = {"slope_fallback"} if fallback else set()
    assert (ci.lower.hex(), ci.upper.hex()) == (lower.hex(), upper.hex())
    assert ci.flags == flags | ({"clamped_index"} if clamped else set())
    return ci


class TestEstimateSlopes:
    """The step-1 slope estimates, read through two_step_ci and the oracle."""

    def test_unit_grid_slope_one(self):
        # Equal slopes: step 2 keeps the step-1 quad, with no fallback.
        ci = _matches_oracle(UNIT_GRID_100, UNIT_GRID_100, _spec())
        assert not ci.flags
        assert (ci.lower, ci.upper) == _step1_endpoints(UNIT_GRID_100, UNIT_GRID_100, _spec())

    def test_doubled_grid_slope_halves(self):
        # Spacings twice as wide halve the control slope: m_c/m_t = 1/2
        # gives the control the wider band.
        doubled = ingest_sample(UNIT_GRID_100.values * 2.0)
        ci = _matches_oracle(doubled, UNIT_GRID_100, _spec())
        assert not ci.flags
        i_minus, i_plus, j_minus, j_plus, _ = two_step_quad(
            100, 100, 0.5, two_sided_z(0.05), 0.5, 1.0
        )
        assert i_plus - i_minus > j_plus - j_minus
        assert ci.lower == UNIT_GRID_100.order_stat(j_minus) - doubled.order_stat(i_plus)
        assert ci.upper == UNIT_GRID_100.order_stat(j_plus) - doubled.order_stat(i_minus)

    def test_ties_fall_back(self):
        # A zero spacing falls back itself, whether or not the step-2 band
        # would collapse (the control centre 50 is an integer, 50.5 is not).
        for n in (100, 101):
            flat = ingest_sample(np.ones(n))
            ci = _matches_oracle(flat, UNIT_GRID_100, _spec())
            assert ci.flags == {"slope_fallback"}
            assert (ci.lower, ci.upper) == _step1_endpoints(flat, UNIT_GRID_100, _spec())

    def test_spacing_past_the_float_range_falls_back(self):
        # The control's step-1 spacing 1e308 - (-1e308) overflows to
        # infinity, so its slope is 0 and has no usable ratio.
        control = ingest_sample([-1e308] * 100 + [1e308] * 100)
        treatment = ingest_sample(np.random.default_rng(0).normal(size=200))
        for c, t in [(control, treatment), (treatment, control)]:
            ci = _matches_oracle(c, t, _spec())
            assert ci.flags == {"slope_fallback"}
            assert (ci.lower, ci.upper) == _step1_endpoints(c, t, _spec())


class TestStep2Indexes:
    """Step 2's width-minimizing indexes, on arms whose slopes are exact."""

    def test_equal_slopes_reduce_to_step1(self):
        for n_c, n_t, q in [(100, 100, 0.5), (250, 80, 0.3), (33, 47, 0.7)]:
            spec = _spec(q=q)
            quad1 = step1_indexes(spec, n_c, n_t)
            for m in (0.25, 1.0, 16.0):
                control = _sloped(n_c, quad1.i_minus, m)
                treatment = _sloped(n_t, quad1.j_minus, m)
                ci = _matches_oracle(control, treatment, spec)
                assert "slope_fallback" not in ci.flags
                assert (ci.lower, ci.upper) == _step1_endpoints(control, treatment, spec)

    def test_slope_ratio_two_reference(self):
        # n_c = n_t = N and m_c/m_t = 2 turn the denominators into 5N and
        # 1.25N, so the halfwidths are z*sqrt(Nq(1-q)/5) and
        # z*sqrt(Nq(1-q)/1.25).
        n = 10_000
        q, alpha = 0.5, 0.05
        quad1 = step1_indexes(_spec(), n, n)
        control = _sloped(n, quad1.i_minus, 2.0)
        treatment = _sloped(n, quad1.j_minus, 1.0)
        ci = _matches_oracle(control, treatment, _spec())
        z = scipy.stats.norm.ppf(1 - alpha / 2)
        hw_i = z * math.sqrt(n * q * (1 - q) / 5.0)
        hw_j = z * math.sqrt(n * q * (1 - q) / 1.25)
        i_minus, i_plus = math.floor(n * q - hw_i), math.ceil(n * q + hw_i)
        j_minus, j_plus = math.floor(n * q - hw_j), math.ceil(n * q + hw_j)
        assert ci.lower == treatment.order_stat(j_minus) - control.order_stat(i_plus)
        assert ci.upper == treatment.order_stat(j_plus) - control.order_stat(i_minus)
        # the steep-control side gets the narrow index band
        assert i_plus - i_minus < j_plus - j_minus

    def test_extreme_ratio_shrinks_one_side(self):
        n = 10_000
        quad1 = step1_indexes(_spec(), n, n)
        control = _sloped(n, quad1.i_minus, 2.0**20)
        treatment = _sloped(n, quad1.j_minus, 1.0)
        ci = _matches_oracle(control, treatment, _spec())
        assert not ci.flags
        i_minus, i_plus, j_minus, j_plus, _ = two_step_quad(
            n, n, 0.5, two_sided_z(0.05), 2.0**20, 1.0
        )
        assert i_plus - i_minus <= 2
        assert j_plus - j_minus > 100
        assert ci.lower == treatment.order_stat(j_minus) - control.order_stat(i_plus)

    def test_squared_ratio_past_the_float_range_collapses_quietly(self):
        # (m_c / m_t)^2 = 2^1080 is infinity, so the i band around the
        # integer centre 100 collapses and the row falls back; numpy must
        # not warn about the overflow on the way.
        quad1 = step1_indexes(_spec(), 200, 200)
        control = _sloped(200, quad1.i_minus, 2.0**540)
        treatment = _sloped(200, quad1.j_minus, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ci = _matches_oracle(control, treatment, _spec())
        assert ci.flags == {"slope_fallback"}
        assert (ci.lower, ci.upper) == _step1_endpoints(control, treatment, _spec())

    def test_subnormal_spacings_take_step2(self):
        # Spacings below 1e-308 / n: both plain slopes k/n/dy pass the float
        # range, while spacings lifted together by a power of two keep the
        # larger slope finite and the ratio of the arms at unit scale.
        rng = np.random.default_rng(4)
        control = ingest_sample(_ARMS["subnormal"](rng, 200))
        treatment = ingest_sample(_ARMS["subnormal"](rng, 200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_step2_at_scale(control, treatment, -1030, _spec())

    @pytest.mark.parametrize(
        "kind_c, kind_t", [("far", "normal"), ("normal", "far"), ("far", "far")]
    )
    def test_no_positive_ratio_falls_back(self, kind_c, kind_t):
        # A spacing past the float range gives a zero slope.
        rng = np.random.default_rng(4)
        control = ingest_sample(_ARMS[kind_c](rng, 200))
        treatment = ingest_sample(_ARMS[kind_t](rng, 200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower, upper = _step1_endpoints(control, treatment, _spec())
            rows = two_step_rows(control.values[None], treatment.values[None], _spec())
        assert rows.flags["slope_fallback"].tolist() == [True]
        assert (rows.lower.tolist(), rows.upper.tolist()) == ([lower], [upper])
        want = two_step_interval(control.values, treatment.values, 0.5, two_sided_z(0.05))
        assert want[:3] == (lower, upper, True)


class TestTwoStepCI:
    def test_self_comparison_symmetric(self):
        ci = two_step_ci(UNIT_GRID_1000, UNIT_GRID_1000, _spec())
        assert ci.lower < 0.0 < ci.upper
        assert abs(ci.lower + ci.upper) < 1e-12
        assert not ci.flags

    def test_reduction_identity_on_uniform_grid(self):
        # equal estimated slopes must reproduce the step-1 endpoints bitwise
        quad1 = step1_indexes(_spec(), 1000, 1000)
        ci = two_step_ci(UNIT_GRID_1000, UNIT_GRID_1000, _spec())
        assert ci.lower == UNIT_GRID_1000.order_stat(quad1.j_minus) - UNIT_GRID_1000.order_stat(quad1.i_plus)
        assert ci.upper == UNIT_GRID_1000.order_stat(quad1.j_plus) - UNIT_GRID_1000.order_stat(quad1.i_minus)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(21)
        y_c = ingest_sample(rng.normal(size=300))
        y_t = ingest_sample(rng.normal(size=400))
        base = two_step_ci(y_c, y_t, _spec())
        shifted = two_step_ci(y_c, ingest_sample(y_t.values + 11.5), _spec())
        assert shifted.lower == pytest.approx(base.lower + 11.5, abs=1e-12)
        assert shifted.upper == pytest.approx(base.upper + 11.5, abs=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(22)
        y_c = ingest_sample(np.abs(rng.normal(size=300)) + 0.1)
        y_t = ingest_sample(np.abs(rng.normal(size=280)) + 0.1)
        base = two_step_ci(y_c, y_t, _spec())
        scaled = two_step_ci(
            ingest_sample(y_c.values * 3.0), ingest_sample(y_t.values * 3.0), _spec()
        )
        assert scaled.lower == pytest.approx(3.0 * base.lower, rel=1e-12)
        assert scaled.upper == pytest.approx(3.0 * base.upper, rel=1e-12)

    def test_alpha_nesting(self):
        rng = np.random.default_rng(23)
        y_c = ingest_sample(rng.normal(size=500))
        y_t = ingest_sample(rng.lognormal(size=500))
        for q in (0.25, 0.5, 0.75):
            wide = two_step_ci(y_c, y_t, _spec(q=q, alpha=0.01))
            narrow = two_step_ci(y_c, y_t, _spec(q=q, alpha=0.05))
            assert wide.lower <= narrow.lower
            assert wide.upper >= narrow.upper

    def test_constant_samples_fall_back_to_zero_width(self):
        flat = ingest_sample(np.full(200, 7.0))
        ci = two_step_ci(flat, flat, _spec())
        assert "slope_fallback" in ci.flags
        assert ci.lower == ci.upper == 0.0

    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300, 1e-320])
    def test_squared_slope_ratio_past_the_float_range(self, scale):
        # The squared slope ratio is about 1e200 at scale 1e-100 and past
        # the float range from 1e-160 on; either way the step-2 band
        # collapses and step 1 is kept, with the same interval.
        y = np.random.default_rng(0).normal(size=200)
        control = ingest_sample(y)
        want = two_step_ci(control, ingest_sample(y * 1e-100), _spec())
        got = two_step_ci(control, ingest_sample(y * scale), _spec())
        assert want.flags == got.flags == {"slope_fallback"}
        assert (got.lower.hex(), got.upper.hex()) == (want.lower.hex(), want.upper.hex())

    def test_insufficient_sample_propagates(self):
        one = ingest_sample([1.0])
        with pytest.raises(InsufficientSampleError):
            two_step_ci(one, one, _spec())

    def test_coverage_sanity_seeded(self):
        # quick Monte Carlo: true difference is 0 for identical generators
        rng = np.random.default_rng(77)
        hits = 0
        reps = 400
        for _ in range(reps):
            c = ingest_sample(rng.normal(size=250))
            t = ingest_sample(rng.normal(size=250))
            if two_step_ci(c, t, _spec()).contains(0.0):
                hits += 1
        assert hits / reps > 0.9


class TestTwoStepRowsMatchPublicSteps:
    """two_step_rows against the oracle's two steps, one sample pair at a time."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n_c=hst.integers(5, 300),
        n_t=hst.integers(5, 300),
        q=hst.floats(0.02, 0.98),
        alpha=hst.sampled_from([0.1, 0.05, 0.01]),
        kinds=hst.lists(hst.tuples(hst.sampled_from(list(_ARMS)), hst.sampled_from(list(_ARMS))),
                        min_size=1, max_size=6),
    )
    # Subnormal arms take step 2; a "tiny" arm's squared slope ratio and a
    # "far" arm's spacing pass the float range.
    @example(seed=0, n_c=200, n_t=200, q=0.5, alpha=0.05, kinds=[("subnormal", "subnormal")])
    @example(seed=1, n_c=200, n_t=200, q=0.5, alpha=0.05, kinds=[("normal", "tiny")])
    @example(seed=2, n_c=200, n_t=200, q=0.5, alpha=0.05, kinds=[("far", "normal"), ("far", "far")])
    def test_endpoints_and_flags_bit_for_bit(self, seed, n_c, n_t, q, alpha, kinds):
        spec = _spec(q=q, alpha=alpha)
        try:
            step1_indexes(spec, n_c, n_t)
        except InsufficientSampleError:
            assume(False)
        rng = np.random.default_rng(seed)
        y_c = np.sort([_ARMS[c](rng, n_c) for c, _ in kinds], axis=1)
        y_t = np.sort([_ARMS[t](rng, n_t) for _, t in kinds], axis=1)
        rows = two_step_rows(y_c, y_t, spec)
        for r in range(len(kinds)):
            lower, upper, fallback, clamped = two_step_interval(y_c[r], y_t[r], q, two_sided_z(alpha))
            want = (lower.hex(), upper.hex(), fallback, clamped)
            got = (
                rows.lower[r].hex(),
                rows.upper[r].hex(),
                bool(rows.flags["slope_fallback"][r]),
                bool(rows.flags["clamped_index"][r]),
            )
            assert got == want, kinds[r]

    def test_subnormal_arms_take_step2_quietly(self):
        # Slopes k/n over spacings near 1e-311 pass the float range unless
        # the spacings are lifted first; the rows take step 2, as the
        # oracle and the arms at unit scale do, with no numpy warning.
        rng = np.random.default_rng(3)
        control = ingest_sample(rng.uniform(0.0, 1e-310, size=200))
        treatment = ingest_sample(rng.uniform(0.0, 1e-310, size=200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ci = _matches_oracle(control, treatment, _spec())
            _assert_step2_at_scale(control, treatment, -1030, _spec())
        assert not ci.flags
