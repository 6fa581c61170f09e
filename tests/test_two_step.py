"""Two-step index construction and the four-point interval."""

import math

import numpy as np
import pytest
import scipy.stats

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
