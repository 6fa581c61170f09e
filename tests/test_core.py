"""Sample ingestion, index arithmetic, and point estimation."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from quantdiff import (
    ConfidenceInterval,
    Method,
    OrderedSample,
    QuantileSpec,
    ingest_sample,
    max_likelihood_index,
    outward_index_interval,
    quantile_point_estimate,
    read_sample_csv,
)
from quantdiff.core import float_squares, outward_index_bounds
from quantdiff.errors import (
    ConsistencyError,
    DomainError,
    EmptySampleError,
    NonFiniteValueError,
    ValidationError,
)

finite_floats = hst.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestIngestSample:
    def test_sorts(self):
        s = ingest_sample([3.0, 1.0, 2.0])
        assert s.n == 3
        assert list(s.values) == [1.0, 2.0, 3.0]

    def test_singleton(self):
        s = ingest_sample([5.0])
        assert s.n == 1
        assert s.order_stat(1) == 5.0

    def test_nan_rejected_with_index(self):
        with pytest.raises(NonFiniteValueError, match="index 1"):
            ingest_sample([1.0, float("nan")])

    def test_infinity_rejected(self):
        with pytest.raises(NonFiniteValueError):
            ingest_sample([1.0, 2.0, float("inf")])

    def test_empty_rejected(self):
        with pytest.raises(EmptySampleError):
            ingest_sample([])

    def test_duplicates_preserved(self):
        s = ingest_sample([2.0, 2.0, 1.0])
        assert list(s.values) == [1.0, 2.0, 2.0]

    @settings(max_examples=50)
    @given(hst.lists(finite_floats, min_size=1, max_size=80))
    def test_sorting_idempotent(self, xs):
        once = ingest_sample(xs)
        twice = ingest_sample(once.values)
        assert np.array_equal(once.values, twice.values)
        assert once.n == twice.n


class TestOrderedSample:
    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            OrderedSample(values=np.array([2.0, 1.0]), n=2)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValidationError):
            OrderedSample(values=np.array([1.0, 2.0]), n=3)

    def test_values_read_only(self):
        s = ingest_sample([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_order_stat_is_one_based(self):
        s = ingest_sample([10.0, 20.0, 30.0])
        assert s.order_stat(1) == 10.0
        assert s.order_stat(3) == 30.0
        with pytest.raises(DomainError):
            s.order_stat(0)
        with pytest.raises(DomainError):
            s.order_stat(4)


class TestReadSampleCsv:
    def test_reads_lines(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("3.5\n1.25\n2\n")
        s = read_sample_csv(str(p))
        assert list(s.values) == [1.25, 2.0, 3.5]

    def test_header_skip(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("value\n1\n2\n")
        s = read_sample_csv(str(p), skip_header=True)
        assert s.n == 2

    def test_bad_line_names_file_and_lineno(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1\nhello\n")
        with pytest.raises(ValidationError, match=r"bad\.csv:2"):
            read_sample_csv(str(p))

    def test_non_finite_line(self):
        with pytest.raises(NonFiniteValueError, match=":2"):
            read_sample_csv(io.StringIO("1\ninf\n"))

    def test_empty_file(self):
        with pytest.raises(EmptySampleError):
            read_sample_csv(io.StringIO(""))

    def test_blank_lines_skipped(self):
        s = read_sample_csv(io.StringIO("1\n\n2\n"))
        assert s.n == 2


class TestMaxLikelihoodIndex:
    def test_known_values(self):
        assert max_likelihood_index(0.5, 101) == 51
        assert max_likelihood_index(0.5, 100) == 50
        assert max_likelihood_index(0.9, 9) == 9  # boundary

    def test_domain(self):
        with pytest.raises(DomainError):
            max_likelihood_index(0.0, 10)
        with pytest.raises(DomainError):
            max_likelihood_index(0.5, 0)

    @settings(max_examples=100)
    @given(
        hst.floats(min_value=0.001, max_value=0.999),
        hst.integers(min_value=1, max_value=10_000),
    )
    def test_bounds(self, q, n):
        k = max_likelihood_index(q, n)
        assert 0 <= k <= n

    @settings(max_examples=50)
    @given(hst.integers(min_value=1, max_value=500))
    def test_monotone_in_q(self, n):
        ks = [max_likelihood_index(q, n) for q in np.linspace(0.01, 0.99, 60)]
        assert ks == sorted(ks)


class TestQuantilePointEstimate:
    def test_interior_midpoint(self):
        s = ingest_sample([1.0, 2.0, 3.0])
        assert quantile_point_estimate(s, 0.5) == 2.5  # k=2, midpoint of (2, 3)

    def test_singleton_boundary(self):
        s = ingest_sample([10.0])
        assert quantile_point_estimate(s, 0.5) == 10.0

    def test_tied_values_collapse(self):
        s = ingest_sample([0.0, 0.0, 0.0, 100.0])
        assert quantile_point_estimate(s, 0.5) == 0.0

    def test_midpoint_lies_in_maximizing_tau_set(self):
        # With distinct values the likelihood-maximizing tau set for count i
        # is the open interval (y_(i), y_(i+1)); scan every count by brute
        # force (exact rational pmf, ties kept) and check the estimate falls
        # in one of the maximizing intervals.
        from fractions import Fraction

        rng = np.random.default_rng(3)
        values = np.sort(rng.normal(size=25))
        s = ingest_sample(values)
        n = s.n
        for q in (0.3, 0.5, 0.7):
            fq = Fraction(q)
            pmf = [
                math.comb(n, i) * fq**i * (1 - fq) ** (n - i) for i in range(n + 1)
            ]
            peak = max(pmf)
            best = [i for i in range(n + 1) if pmf[i] == peak]
            est = quantile_point_estimate(s, q)
            assert any(
                1 <= i <= n - 1 and values[i - 1] < est < values[i] for i in best
            ), (q, best, est)

    @settings(max_examples=50)
    @given(
        hst.lists(finite_floats, min_size=2, max_size=60),
        hst.floats(min_value=0.05, max_value=0.95),
        hst.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_translation_equivariance(self, xs, q, c):
        base = quantile_point_estimate(ingest_sample(xs), q)
        shifted = quantile_point_estimate(ingest_sample([x + c for x in xs]), q)
        assert shifted == pytest.approx(base + c, abs=1e-6 * max(1.0, abs(c)))

    @settings(max_examples=50)
    @given(
        hst.lists(finite_floats, min_size=2, max_size=60),
        hst.floats(min_value=0.05, max_value=0.95),
        hst.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_equivariance(self, xs, q, scale):
        base = quantile_point_estimate(ingest_sample(xs), q)
        scaled = quantile_point_estimate(ingest_sample([x * scale for x in xs]), q)
        assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-12)


class TestQuantileSpec:
    @pytest.mark.parametrize("q,alpha", [(0.0, 0.05), (1.0, 0.05), (0.5, 0.0), (0.5, 1.0)])
    def test_domain(self, q, alpha):
        with pytest.raises(DomainError):
            QuantileSpec(q, alpha)


class TestConfidenceInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ConsistencyError):
            ConfidenceInterval(1.0, 0.0, 0.05, Method.LR_TWO_STEP)

    def test_method_enforced(self):
        with pytest.raises(ValidationError):
            ConfidenceInterval(0.0, 1.0, 0.05, "bootstrap")

    def test_width_and_contains(self):
        ci = ConfidenceInterval(-1.0, 3.0, 0.05, Method.DONNER_ZOU)
        assert ci.width == 4.0
        assert ci.contains(0.0) and ci.contains(-1.0) and ci.contains(3.0)
        assert not ci.contains(3.0001)


class TestOutwardIndexInterval:
    def test_widens(self):
        lo, hi, clamped = outward_index_interval(50.0, 9.8, 100)
        assert (lo, hi, clamped) == (40, 60, False)

    def test_clamps_low(self):
        lo, hi, clamped = outward_index_interval(2.0, 5.0, 100)
        assert (lo, hi, clamped) == (1, 7, True)

    def test_clamps_high(self):
        lo, hi, clamped = outward_index_interval(99.0, 5.0, 100)
        assert (lo, hi, clamped) == (94, 100, True)

    def test_integer_endpoints_not_widened(self):
        lo, hi, clamped = outward_index_interval(50.0, 10.0, 100)
        assert (lo, hi, clamped) == (40, 60, False)

    def test_bounds_match_scalar_elementwise(self):
        halfwidths = np.array([9.8, 5.0, 10.0, 0.0, 120.0])
        lo, hi, clamped = outward_index_bounds(50.0, halfwidths, 100)
        for k, hw in enumerate(halfwidths.tolist()):
            assert (lo[k], hi[k], clamped[k]) == outward_index_interval(50.0, hw, 100)


class TestFloatSquares:
    def test_rounds_like_python_power(self):
        # With glibc, pow(x, 2.0) and x * x differ in the last bit here; the
        # interval formulas must keep Python's rounding.
        x = float.fromhex("0x1.27cb4543e01a2p-2")
        values = np.array([x, -3.0, 0.0, 1e-170])
        got = float_squares(values)
        assert [v.hex() for v in got.tolist()] == [(v**2).hex() for v in values.tolist()]
