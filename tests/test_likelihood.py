"""Log-pmf, LR statistic, and normal/chi-square quantile numerics."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from quantdiff import (
    QuantileSpec,
    chi2_quantile_1df,
    chi2_sf_1df,
    log_binomial_pmf,
    lr_statistic_asymptotic,
    lr_statistic_exact,
    normal_quantile,
)
from quantdiff.errors import DomainError, IndexOutOfRangeError
from quantdiff.likelihood import _log_pmf, deficits, two_sided_z

from oracles import exact_binom_pmf, exact_log_binom_pmf, mode_index, ratio_walk_deficits


def _spec(q: float) -> QuantileSpec:
    return QuantileSpec(q=q, alpha=0.05)


class TestLogBinomialPmf:
    def test_simple_values(self):
        # C(1,0) * 0.5^0 * 0.5^1 = 0.5
        assert log_binomial_pmf(0, 0.5, 1) == pytest.approx(math.log(0.5), rel=1e-15)
        assert log_binomial_pmf(1, 0.5, 1) == pytest.approx(math.log(0.5), rel=1e-15)
        # C(2,1) * 0.5^2 = 0.5
        assert log_binomial_pmf(1, 0.5, 2) == pytest.approx(math.log(0.5), rel=1e-15)

    def test_central_value_frozen(self):
        # C(100,50) * 2^-100, computed with exact integer arithmetic
        assert log_binomial_pmf(50, 0.5, 100) == pytest.approx(
            -2.5308764039771035, abs=1e-12
        )
        assert math.exp(log_binomial_pmf(50, 0.5, 100)) == pytest.approx(
            0.07958923738717877, rel=1e-9
        )

    @pytest.mark.parametrize("n", [1, 7, 40, 250])
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_against_exact_rational(self, n, q):
        # Fraction(q) is the exact binary rational the float input denotes,
        # so the big-integer result is an oracle for the log-pmf kernel.
        for i in range(0, n + 1, max(1, n // 10)):
            got = log_binomial_pmf(i, q, n)
            want = exact_log_binom_pmf(i, n, Fraction(q))
            assert got == pytest.approx(want, abs=1e-10)
        # The deficits, on scalars and on an array with repeated counts.
        mode = mode_index(q, n)
        peak = exact_log_binom_pmf(mode, n, Fraction(q))
        counts = list(range(0, n + 1, max(1, n // 7))) + [mode, n, 0]
        want = [-2.0 * (exact_log_binom_pmf(k, n, Fraction(q)) - peak) for k in counts]
        assert deficits(np.array(counts), q, n) == pytest.approx(want, abs=1e-9)
        for k, w in zip(counts, want):
            assert deficits(k, q, n) == pytest.approx(w, abs=1e-9)
        assert deficits(mode, q, n) == 0.0

    @pytest.mark.parametrize("n", [10**6, 10**7, 10**8])
    def test_deficits_at_large_n(self, n):
        # 30 counts within 5 standard deviations of the mean, for 20 q.
        rng = np.random.default_rng(n)
        for _ in range(20):
            q = float(rng.uniform(0.02, 0.98))
            sd = math.sqrt(n * q * (1.0 - q))
            counts = np.round(n * q + rng.uniform(-5.0, 5.0, size=30) * sd).astype(np.int64)
            want = ratio_walk_deficits(counts.tolist(), q, n)
            assert deficits(counts, q, n) == pytest.approx(want, rel=0, abs=1e-10), q

    def test_deficits_keep_the_shape_of_their_counts(self):
        assert deficits(3, 0.3, 10).shape == ()
        assert deficits(np.arange(12).reshape(3, 4) % 11, 0.3, 10).shape == (3, 4)

    def test_unsorted_repeated_counts_match_one_at_a_time(self):
        # The kernel runs on the counts as given, so a count's deficit does
        # not depend on its neighbours in the array.
        rng = np.random.default_rng(25)
        for _ in range(200):
            n = int(rng.choice([1, 2, 3, rng.integers(4, 10**4), rng.integers(10**4, 10**9)]))
            q = float(rng.uniform(0.001, 0.999))
            counts = rng.integers(0, n + 1, size=int(rng.integers(1, 30)))
            counts = np.concatenate([counts, [n, 0], counts[::-1]])
            one_at_a_time = np.array([deficits(int(k), q, n) for k in counts])
            got = deficits(counts, q, n)
            assert np.array_equal(got.view(np.uint64), one_at_a_time.view(np.uint64)), (n, q)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("q", [2.2250738585072014e-308, 1e-300, 0.3, 0.5, 1 - 1e-16])
    def test_edge_counts_take_the_closed_forms(self, n, q):
        # The general form also runs at an edge count, on a stand-in of 1,
        # and must raise no floating-point error there.
        with np.errstate(all="raise"):
            got = _log_pmf(np.array([0, n, n, 0]), q, n)
        at_0, at_n = n * math.log1p(-q), n * math.log(q)
        assert got.tolist() == [at_0, at_n, at_n, at_0]

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 5000))
            i = int(rng.integers(0, n + 1))
            q = float(rng.uniform(0.01, 0.99))
            assert log_binomial_pmf(i, q, n) == pytest.approx(
                scipy.stats.binom.logpmf(i, n, q), abs=1e-9
            )

    @pytest.mark.parametrize("n", [1, 10, 100, 1000])
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_normalization(self, n, q):
        total = sum(math.exp(log_binomial_pmf(i, q, n)) for i in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_binomial_pmf(0, 0.0, 10)
        with pytest.raises(DomainError):
            log_binomial_pmf(0, 1.0, 10)
        with pytest.raises(IndexOutOfRangeError):
            log_binomial_pmf(-1, 0.5, 10)
        with pytest.raises(IndexOutOfRangeError):
            log_binomial_pmf(11, 0.5, 10)

    def test_subnormal_q_raises_as_the_spec_does(self):
        # 1 / (n q) overflows for a subnormal q; the pytest config turns
        # the RuntimeWarning into an error, so the check must come first.
        with pytest.raises(DomainError) as pmf:
            log_binomial_pmf(0, 5e-324, 1)
        with pytest.raises(DomainError) as spec:
            QuantileSpec(5e-324, 0.05)
        assert str(pmf.value) == str(spec.value)


class TestLRStatistic:
    def test_zero_at_maximizers(self):
        s = lr_statistic_exact(51, 51, _spec(0.5), 101, 101)
        assert s.value == 0.0

    def test_known_exact_value(self):
        s = lr_statistic_exact(40, 60, _spec(0.5), 101, 101)
        assert s.value == pytest.approx(7.894706270389705, rel=1e-12)

    def test_exact_close_to_asymptotic_moderate_n(self):
        e = lr_statistic_exact(40, 60, _spec(0.5), 101, 101).value
        a = lr_statistic_asymptotic(40, 60, _spec(0.5), 101, 101).value
        assert a == pytest.approx(7.9405940594059405, rel=1e-12)
        assert abs(e - a) / a < 0.05

    def test_exact_close_to_asymptotic_large_n(self):
        n = 10_000
        e = lr_statistic_exact(5100, 4900, _spec(0.5), n, n).value
        a = lr_statistic_asymptotic(5100, 4900, _spec(0.5), n, n).value
        assert a == pytest.approx(8.0, rel=1e-12)
        assert abs(e - a) / a < 1e-3

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n", [5, 17, 60])
    def test_minimum_at_maximizer_exhaustive(self, q, n):
        k = mode_index(q, n)
        base = lr_statistic_exact(k, k, _spec(q), n, n).value
        assert base == 0.0
        for i in range(n + 1):
            got = lr_statistic_exact(i, k, _spec(q), n, n).value
            assert got >= 0.0
            if i != k:
                # strictly positive unless pmf ties exactly at the mode
                tie = exact_binom_pmf(i, n, Fraction(q)) == exact_binom_pmf(
                    k, n, Fraction(q)
                )
                assert tie or got > 0.0

    def test_near_the_mode_at_n_1e8(self):
        # Two counts next to the mode: a tiny statistic that must not come
        # out negative.
        n, q = 10**8, 0.1674
        s = lr_statistic_exact(16740001, 16740000, _spec(q), n, n)
        want = sum(ratio_walk_deficits([16740001], q, n) + ratio_walk_deficits([16740000], q, n))
        assert s.value >= 0.0
        assert s.value == pytest.approx(want, rel=0, abs=1e-10)

    def test_asymmetric_sizes(self):
        s = lr_statistic_asymptotic(30, 90, _spec(0.5), 60, 180)
        want = (30 - 30) ** 2 / (60 * 0.25) + (90 - 90) ** 2 / (180 * 0.25)
        assert s.value == want == 0.0

    @pytest.mark.parametrize("statistic", [lr_statistic_exact, lr_statistic_asymptotic])
    @pytest.mark.parametrize("i, j", [(105, 5), (-3, 5), (101, 5), (50, 11), (50, -1)])
    def test_counts_outside_the_sample_raise(self, statistic, i, j):
        # (105, 5) and (-3, 5) once read the exact deficit at i = 100.
        with pytest.raises(IndexOutOfRangeError):
            statistic(i, j, QuantileSpec(0.5, 0.05), 100, 10)

    @settings(max_examples=200, deadline=None)
    @given(
        n_c=hst.integers(1, 10**6),
        n_t=hst.integers(1, 10**6),
        q=hst.floats(0.001, 0.999),
        u=hst.floats(0.0, 1.0),
        v=hst.floats(0.0, 1.0),
    )
    @example(n_c=10**6, n_t=17, q=0.1674, u=0.1674, v=0.5)
    def test_exact_value_is_the_sum_of_two_deficits(self, n_c, n_t, q, u, v):
        i, j = round(u * n_c), round(v * n_t)
        got = lr_statistic_exact(i, j, _spec(q), n_c, n_t).value
        want = float(deficits(i, q, n_c) + deficits(j, q, n_t))
        assert got.hex() == want.hex()


class TestNormalQuantile:
    # Log-spaced p from the smallest subnormal to 0.5, and their complements.
    LOWER = np.logspace(-323.3, math.log10(0.5), 4001)

    def test_against_scipy(self):
        ps = np.concatenate([[5e-324], self.LOWER, 1.0 - self.LOWER[self.LOWER >= 1e-16]])
        for p in ps:
            got = normal_quantile(float(p))
            want = float(scipy.special.ndtri(p))
            assert got == pytest.approx(want, rel=1e-15, abs=0.0), (p, got, want)

    @settings(max_examples=2000, deadline=None)
    @given(hst.floats(min_value=0.5, max_value=1.0, exclude_max=True))
    def test_symmetry(self, p):
        # 1 - p is exact for p in [0.5, 1).
        assert normal_quantile(p) == -normal_quantile(1.0 - p)

    def test_median_exact_zero(self):
        assert normal_quantile(0.5) == 0.0

    def test_domain(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                normal_quantile(p)


class TestChiSquare1df:
    @pytest.mark.parametrize(
        "alpha", [0.2, 0.1, 0.05, 0.01, 1e-3, 1e-8, 1e-15, 1e-100, 1e-300]
    )
    def test_two_sided_z_within_1e_15_of_scipy(self, alpha):
        want = -float(scipy.special.ndtri(alpha / 2))
        assert two_sided_z(alpha) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_frozen_quantiles(self):
        assert chi2_quantile_1df(0.05) == pytest.approx(3.8414588206941285, abs=1e-8)
        assert chi2_quantile_1df(0.01) == pytest.approx(6.634896601021217, abs=1e-8)

    def test_against_scipy_isf(self):
        for alpha in (0.2, 0.1, 0.05, 0.01, 0.001):
            assert chi2_quantile_1df(alpha) == pytest.approx(
                scipy.stats.chi2.isf(alpha, 1), abs=1e-8
            )

    def test_sf_against_scipy(self):
        for x in (0.0, 0.5, 1.0, 3.84, 10.0, 30.0):
            assert chi2_sf_1df(x) == pytest.approx(
                scipy.stats.chi2.sf(x, 1), abs=1e-12
            )

    def test_roundtrip(self):
        for alpha in (0.2, 0.1, 0.05, 0.01, 0.001):
            assert chi2_sf_1df(chi2_quantile_1df(alpha)) == pytest.approx(
                alpha, rel=1e-6
            )

    def test_near_one_alpha(self):
        assert chi2_quantile_1df(0.9999) == pytest.approx(0.0, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_quantile_1df(0.0)
        with pytest.raises(DomainError):
            chi2_quantile_1df(1.5)
        with pytest.raises(DomainError, match="alpha=5e-324 is too small: alpha/2 rounds to 0"):
            chi2_quantile_1df(5e-324)
        with pytest.raises(DomainError):
            chi2_sf_1df(-0.5)
