"""Two-step index construction and the four-point interval."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from quantdiff import (
    IndexQuad,
    QuantileSpec,
    SlopeEstimates,
    estimate_slopes,
    ingest_sample,
    step1_indexes,
    step2_indexes,
    two_step_ci,
)
from quantdiff.errors import DomainError, InsufficientSampleError
from quantdiff.two_step import two_step_rows


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


class TestEstimateSlopes:
    def test_unit_grid_slope_one(self):
        quad = step1_indexes(_spec(), 100, 100)
        slopes = estimate_slopes(UNIT_GRID_100, UNIT_GRID_100, quad)
        assert not slopes.fallback
        assert slopes.m_c == pytest.approx(1.0, rel=1e-9)
        assert slopes.m_t == pytest.approx(1.0, rel=1e-9)

    def test_doubled_grid_slope_halves(self):
        doubled = ingest_sample(UNIT_GRID_100.values * 2.0)
        quad = step1_indexes(_spec(), 100, 100)
        slopes = estimate_slopes(doubled, UNIT_GRID_100, quad)
        assert slopes.m_c == pytest.approx(0.5, rel=1e-9)
        assert slopes.m_t == pytest.approx(1.0, rel=1e-9)

    def test_ties_fall_back(self):
        flat = ingest_sample(np.ones(100))
        quad = step1_indexes(_spec(), 100, 100)
        slopes = estimate_slopes(flat, UNIT_GRID_100, quad)
        assert slopes.fallback
        assert math.isnan(slopes.m_c) and math.isnan(slopes.m_t)

    def test_caller_quad_with_equal_indexes_falls_back(self):
        # i_minus == i_plus gives the slope 0 / 0, with no numpy warning.
        slopes = estimate_slopes(UNIT_GRID_100, UNIT_GRID_100, IndexQuad(50, 50, 40, 60))
        assert slopes.fallback
        assert math.isnan(slopes.m_c) and math.isnan(slopes.m_t)

    def test_spacing_past_the_float_range_falls_back(self):
        # The control's step-1 spacing 1e308 - (-1e308) overflows to
        # infinity, so its slope is 0 and has no usable ratio.
        control = ingest_sample([-1e308] * 100 + [1e308] * 100)
        treatment = ingest_sample(np.random.default_rng(0).normal(size=200))
        quad1 = step1_indexes(_spec(), 200, 200)
        slopes = estimate_slopes(control, treatment, quad1)
        assert slopes.fallback and math.isnan(slopes.m_c) and math.isnan(slopes.m_t)
        for c, t in [(control, treatment), (treatment, control)]:
            ci = two_step_ci(c, t, _spec())
            assert ci.flags == {"slope_fallback"}
            assert ci.lower == t.order_stat(quad1.j_minus) - c.order_stat(quad1.i_plus)
            assert ci.upper == t.order_stat(quad1.j_plus) - c.order_stat(quad1.i_minus)


class TestStep2Indexes:
    def test_equal_slopes_reduce_to_step1(self):
        for n_c, n_t, q in [(100, 100, 0.5), (250, 80, 0.3), (33, 47, 0.7)]:
            quad1 = step1_indexes(_spec(q=q), n_c, n_t)
            for m in (0.25, 1.0, 17.5):
                quad2 = step2_indexes(
                    _spec(q=q), n_c, n_t, SlopeEstimates(m_c=m, m_t=m, fallback=False)
                )
                assert quad2 == quad1

    def test_slope_ratio_two_reference(self):
        # n_c = n_t = N and m_c/m_t = 2 turn the denominators into 5N and
        # 1.25N, so the halfwidths are z*sqrt(Nq(1-q)/5) and
        # z*sqrt(Nq(1-q)/1.25).
        n = 10_000
        q, alpha = 0.5, 0.05
        z = scipy.stats.norm.ppf(1 - alpha / 2)
        quad = step2_indexes(
            _spec(), n, n, SlopeEstimates(m_c=2.0, m_t=1.0, fallback=False)
        )
        hw_i = z * math.sqrt(n * q * (1 - q) / 5.0)
        hw_j = z * math.sqrt(n * q * (1 - q) / 1.25)
        assert quad.i_minus == math.floor(n * q - hw_i)
        assert quad.i_plus == math.ceil(n * q + hw_i)
        assert quad.j_minus == math.floor(n * q - hw_j)
        assert quad.j_plus == math.ceil(n * q + hw_j)
        # the steep-control side gets the narrow index band
        assert quad.i_plus - quad.i_minus < quad.j_plus - quad.j_minus

    def test_extreme_ratio_shrinks_one_side(self):
        n = 10_000
        quad = step2_indexes(
            _spec(), n, n, SlopeEstimates(m_c=1e6, m_t=1.0, fallback=False)
        )
        assert quad.i_plus - quad.i_minus <= 2
        assert quad.j_plus - quad.j_minus > 100

    def test_squared_ratio_past_the_float_range_collapses_quietly(self):
        # (m_c / m_t)^2 = 1e320 is infinity, so the i band collapses; numpy
        # must not warn about the overflow on the way.
        with pytest.raises(InsufficientSampleError):
            step2_indexes(_spec(), 200, 200, SlopeEstimates(1e160, 1.0, False))

    @pytest.mark.parametrize(
        "m_c, m_t",
        [(math.inf, math.inf), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, -2.0), (math.nan, 1.0)],
    )
    def test_slopes_with_no_positive_ratio_raise_without_warnings(self, m_c, m_t):
        # Two infinite slopes have a NaN ratio; a zero, negative or NaN slope
        # is not positive.
        with pytest.raises(DomainError):
            step2_indexes(_spec(), 200, 200, SlopeEstimates(m_c, m_t, False))

    def test_rejects_fallback_and_bad_slopes(self):
        with pytest.raises(DomainError):
            step2_indexes(
                _spec(), 100, 100,
                SlopeEstimates(m_c=math.nan, m_t=math.nan, fallback=True),
            )
        with pytest.raises(DomainError):
            step2_indexes(
                _spec(), 100, 100, SlopeEstimates(m_c=-1.0, m_t=1.0, fallback=False)
            )


class TestIndexQuad:
    def test_invariants(self):
        with pytest.raises(DomainError):
            IndexQuad(i_minus=0, i_plus=5, j_minus=1, j_plus=2)
        with pytest.raises(DomainError):
            IndexQuad(i_minus=3, i_plus=2, j_minus=1, j_plus=2)


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


# Arms that reach every fallback path: ties, constant rows, spacing below
# 1e-308 / n (whose slopes overflow to infinity), spacing past the float
# range (whose slope is 0) and scales near 1e+-300.
_ARMS = {
    "normal": lambda rng, n: rng.normal(size=n),
    "ties": lambda rng, n: np.round(rng.normal(size=n), 1),
    "constant": lambda rng, n: np.full(n, rng.normal()),
    "subnormal": lambda rng, n: rng.uniform(0.0, 1e-310, size=n),
    "huge": lambda rng, n: rng.normal(size=n) * 1e300,
    "tiny": lambda rng, n: rng.lognormal(size=n) * 1e-300,
    "far": lambda rng, n: rng.choice([-1.0, 1.0], size=n) * rng.uniform(9e307, 1.7e308, size=n),
}


def _composed_row(control, treatment, spec):
    """Endpoints and flags of one row from the public steps, one pair at a time."""
    quad1 = step1_indexes(spec, control.n, treatment.n)
    slopes = estimate_slopes(control, treatment, quad1)
    quad, fallback = quad1, slopes.fallback
    if not fallback:
        try:
            quad = step2_indexes(spec, control.n, treatment.n, slopes)
        except InsufficientSampleError:
            quad, fallback = quad1, True
    lower = treatment.order_stat(quad.j_minus) - control.order_stat(quad.i_plus)
    upper = treatment.order_stat(quad.j_plus) - control.order_stat(quad.i_minus)
    return lower.hex(), upper.hex(), fallback, quad1.clamped or quad.clamped


class TestTwoStepRowsMatchPublicSteps:
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
            want = _composed_row(ingest_sample(y_c[r]), ingest_sample(y_t[r]), spec)
            got = (
                rows.lower[r].hex(),
                rows.upper[r].hex(),
                bool(rows.flags["slope_fallback"][r]),
                bool(rows.flags["clamped_index"][r]),
            )
            assert got == want, kinds[r]

    def test_subnormal_spacing_falls_back_without_warnings(self):
        # Both slopes overflow to infinity, so their ratio is NaN: a fallback,
        # reported with no numpy warning, and refused by step 2.
        rng = np.random.default_rng(3)
        control = ingest_sample(rng.uniform(0.0, 1e-310, size=200))
        treatment = ingest_sample(rng.uniform(0.0, 1e-310, size=200))
        quad1 = step1_indexes(_spec(), 200, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slopes = estimate_slopes(control, treatment, quad1)
            ci = two_step_ci(control, treatment, _spec())
        assert slopes.fallback and math.isnan(slopes.m_c) and math.isnan(slopes.m_t)
        assert ci.flags == {"slope_fallback"}
        assert ci.lower == treatment.order_stat(quad1.j_minus) - control.order_stat(quad1.i_plus)
        assert ci.upper == treatment.order_stat(quad1.j_plus) - control.order_stat(quad1.i_minus)
