"""Sample ingestion, index arithmetic, and point estimation."""

import contextlib
import io
import math
import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hst
from oracles import per_line_sample_csv

from quantdiff import (
    ConfidenceInterval,
    OrderedSample,
    QuantileSpec,
    ingest_sample,
    max_likelihood_index,
    read_sample_csv,
)
import quantdiff
from quantdiff import core
from quantdiff.core import outward_index_bounds, point_estimates
from quantdiff.errors import (
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

    def test_non_numeric_rejected(self):
        with pytest.raises(ValidationError, match="sample values must be numeric"):
            ingest_sample(["a"])

    def test_duplicates_preserved(self):
        s = ingest_sample([2.0, 2.0, 1.0])
        assert list(s.values) == [1.0, 2.0, 2.0]

    @pytest.mark.parametrize(
        "values",
        [[3.0, -0.0, 0.0, 1.0, 3.0], [], [1.0, float("nan")], [2.0, float("-inf")], [[1.0, 2.0]]],
    )
    def test_array_list_and_generator_agree(self, values):
        def outcome(raw):
            try:
                s = ingest_sample(raw)
            except ValidationError as exc:
                return type(exc), str(exc)
            return s.n, s.values.view(np.uint64).tolist()

        want = outcome(list(values))
        assert outcome(np.array(values, dtype=float)) == want
        assert outcome(v for v in values) == want

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
            OrderedSample(np.array([2.0, 1.0]))

    def test_order_check_spanning_the_float_range(self):
        # Neighbour differences would overflow; the check compares instead,
        # with no numpy warning.
        assert OrderedSample(np.array([-1e308, 1e308])).n == 2
        with pytest.raises(ValidationError):
            OrderedSample(np.array([1e308, -1e308]))

    @pytest.mark.parametrize(
        "values, error, message",
        [
            ([1.0, math.inf], NonFiniteValueError, "non-finite value at sorted position 1"),
            ([[1.0, 2.0]], ValidationError, "sample values must be one-dimensional"),
        ],
    )
    def test_rejects_invalid_values(self, values, error, message):
        with pytest.raises(error, match=message):
            OrderedSample(np.array(values))

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

    @pytest.mark.parametrize("text", ["1.0\t2.0", "1.0 2.0\n"])
    def test_two_values_on_one_line_rejected(self, tmp_path, text):
        p = tmp_path / "x.csv"
        p.write_text(text)
        with pytest.raises(ValidationError, match=r"x\.csv:1: not a number"):
            read_sample_csv(str(p))

    def test_overflow_to_infinity_names_its_line(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.5\n\n1e400\n2\n")
        with pytest.raises(NonFiniteValueError, match=r"x\.csv:3: non-finite value: '1e400'"):
            read_sample_csv(str(p))

    def test_spellings_only_float_knows(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1_000\n\u0661\n -2.5e0 \n", encoding="utf-8")
        assert list(read_sample_csv(str(p)).values) == [-2.5, 1.0, 1000.0]

    def test_well_formed_file_skips_per_line_parser(self, tmp_path, monkeypatch):
        p = tmp_path / "x.csv"
        p.write_text("value\n3\n\n -1.5\t\n2e-3\n")
        monkeypatch.setattr(core, "_parse_value_lines", None)
        assert list(read_sample_csv(str(p), skip_header=True).values) == [-1.5, 2e-3, 3.0]

    def test_compressed_file_name_read_as_text(self, tmp_path):
        # numpy's loadtxt would try to decompress a path ending in .gz.
        p = tmp_path / "x.csv.gz"
        p.write_text("2\n1\n")
        assert list(read_sample_csv(str(p)).values) == [1.0, 2.0]

    def test_pipe_read_once(self, tmp_path):
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("2\n1\n",))
        writer.start()
        try:
            assert list(read_sample_csv(str(fifo)).values) == [1.0, 2.0]
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_invalid_utf8_is_a_validation_error(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_bytes(b"1\n2\xff\n")
        with pytest.raises(ValidationError, match=r"x\.csv: not valid UTF-8: "):
            read_sample_csv(str(p))

    @pytest.mark.parametrize("skip_header", [False, True])
    def test_byte_order_mark_dropped_from_a_file(self, tmp_path, skip_header):
        # Excel's "CSV UTF-8" export starts the file with one.
        p = tmp_path / "x.csv"
        p.write_bytes(b"\xef\xbb\xbf" + (b"value\n" if skip_header else b"") + b"2.5\n1.5\n")
        assert list(read_sample_csv(str(p), skip_header).values) == [1.5, 2.5]

    @pytest.mark.parametrize(
        "data, line",
        [(b"1.5\n\xef\xbb\xbf2.5\n", 2), (b"\xef\xbb\xbf\xef\xbb\xbf1.5\n2.5\n", 1)],
        ids=["mid-file", "second-at-start"],
    )
    def test_byte_order_mark_elsewhere_is_an_error(self, tmp_path, monkeypatch, data, line):
        p = tmp_path / "x.csv"
        p.write_bytes(data)
        with pytest.raises(ValidationError, match=rf"x\.csv:{line}: not a number: '\\ufeff"):
            read_sample_csv(str(p))
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        with pytest.raises(ValidationError, match=rf"<stdin>:{line}: not a number: '\\ufeff"):
            read_sample_csv("-")

    def test_invalid_utf8_after_a_byte_order_mark_is_a_validation_error(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_bytes(b"\xef\xbb\xbf1\n2\xff\n")
        with pytest.raises(ValidationError, match=r"x\.csv: not valid UTF-8: "):
            read_sample_csv(str(p))


# What a sample file may hold: Python float spellings, numpy-only and
# float-only ones, whitespace that str.strip() removes but a file iterator
# does not split on, and characters no number contains.
_WHITESPACE = [" ", "\t", "\x0b", "\x0c", "\xa0", "\x1c", "\x85", "\u2028", "\u2029", "\u3000"]
_TOKENS = [*"0123456789.eE+-_", "nan", "inf", ",", "#", "\ufeff", "\x00", "\u0661", *_WHITESPACE]
_pad = hst.lists(hst.sampled_from(_WHITESPACE), max_size=2).map("".join)
_number = hst.one_of(
    hst.floats().map(repr),
    hst.integers(-(10**20), 10**20).map(str),
    hst.floats(width=32).map(lambda x: format(x, ".3e")),
)
_line = hst.one_of(
    hst.tuples(_pad, _number, _pad).map("".join),
    hst.lists(hst.sampled_from(_TOKENS), max_size=6).map("".join),
    _pad,
)


@hst.composite
def _sample_text(draw):
    lines = draw(hst.lists(hst.tuples(_line, hst.sampled_from(["\n", "\r", "\r\n"])), max_size=8))
    text = "".join(line + end for line, end in lines)
    if lines and not draw(hst.booleans()):
        text = text[: -len(lines[-1][1])]
    return text


def _read_outcome(read, text, mode, skip_header, path):
    """The bits of the sorted values ``read`` returns, or the type and message it raises.

    ``mode`` gives ``text`` as a path, a text stream, or stdin; ``"pipe"``
    reads ``path`` as it is, where another thread writes ``text``.
    """
    stdin = contextlib.nullcontext()
    if mode == "path":
        path.write_bytes(text.encode("utf-8"))
        source = str(path)
    elif mode == "pipe":
        source = str(path)
    elif mode == "stream":
        source = io.StringIO(text)
    else:
        source = "-"
        wrapper = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
        stdin = mock.patch.object(sys, "stdin", wrapper)
    try:
        with stdin:
            result = read(source, skip_header)
    except ValidationError as exc:
        return type(exc), str(exc)
    values = result.values if isinstance(result, OrderedSample) else result
    return values.view(np.uint64).tolist()


class TestReadSampleCsvMatchesPerLineParser:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        text=_sample_text(),
        skip_header=hst.booleans(),
        mode=hst.sampled_from(["path", "stream", "stdin"]),
    )
    @example(text="", skip_header=False, mode="path")
    @example(text="value", skip_header=True, mode="path")
    @example(text="value\n", skip_header=True, mode="stdin")
    @example(text="1.0\t2.0", skip_header=False, mode="path")
    @example(text="-0.0\n0.0\n-0\n0\n", skip_header=False, mode="stream")
    @example(text="1\n\n1e400\n", skip_header=False, mode="path")
    @example(text="\ufeff1\n2\n", skip_header=False, mode="path")
    @example(text="\ufeff1\n2\n", skip_header=False, mode="stdin")
    @example(text="\ufeff\ufeff1\n2\n", skip_header=False, mode="stream")
    @example(text="\ufeffvalue\n2\n", skip_header=True, mode="path")
    @example(text="1\n\ufeff2\n", skip_header=False, mode="path")
    @example(text="1\r2\n", skip_header=False, mode="stream")
    @example(text="h\r2\n3\n", skip_header=True, mode="stream")
    @example(text=" \t\n\x85\n\u2028\n", skip_header=False, mode="stdin")
    def test_same_values_or_same_error(self, tmp_path, text, skip_header, mode):
        path = tmp_path / "sample.csv"
        want = _read_outcome(per_line_sample_csv, text, mode, skip_header, path)
        got = _read_outcome(read_sample_csv, text, mode, skip_header, path)
        assert got == want


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
class TestReadSampleCsvFromPipe:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(text=_sample_text(), skip_header=hst.booleans())
    @example(text="value\n3\n1_000\n\u0661\n", skip_header=True)
    @example(text="1\n\nx\n", skip_header=False)
    @example(text="1\r2\n1e400\n", skip_header=False)
    @example(text="\ufeff1\n2\n", skip_header=False)
    @example(text="\ufeff\ufeff1\n2\n", skip_header=False)
    @example(text="", skip_header=False)
    def test_same_sample_and_errors_as_the_regular_file(self, tmp_path, text, skip_header):
        # One path, first a regular file and then a named pipe, so the
        # error texts name the same file.
        path = tmp_path / "sample.csv"
        want = _read_outcome(read_sample_csv, text, "path", skip_header, path)
        path.unlink()
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(text.encode("utf-8"),))
        writer.start()
        try:
            got = _read_outcome(read_sample_csv, text, "pipe", skip_header, path)
        finally:
            writer.join(timeout=10)
            path.unlink()
        assert not writer.is_alive()
        assert got == want

    def test_well_formed_pipe_skips_per_line_parser(self, tmp_path, monkeypatch):
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        monkeypatch.setattr(core, "_parse_value_lines", None)
        writer = threading.Thread(target=fifo.write_text, args=("value\n3\n -1.5\t\n",))
        writer.start()
        try:
            assert list(read_sample_csv(str(fifo), skip_header=True).values) == [-1.5, 3.0]
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()


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


def _estimate(sample, q):
    """The point estimate of one sample: ``point_estimates`` of a one-row block."""
    return float(point_estimates(sample.values[None], q)[0])


class TestQuantilePointEstimate:
    def test_interior_midpoint(self):
        s = ingest_sample([1.0, 2.0, 3.0])
        assert _estimate(s, 0.5) == 2.5  # k=2, midpoint of (2, 3)

    def test_singleton_boundary(self):
        s = ingest_sample([10.0])
        assert _estimate(s, 0.5) == 10.0

    def test_tied_values_collapse(self):
        s = ingest_sample([0.0, 0.0, 0.0, 100.0])
        assert _estimate(s, 0.5) == 0.0

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
            est = _estimate(s, q)
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
        base = _estimate(ingest_sample(xs), q)
        shifted = _estimate(ingest_sample([x + c for x in xs]), q)
        assert shifted == pytest.approx(base + c, abs=1e-6 * max(1.0, abs(c)))

    @settings(max_examples=50)
    @given(
        hst.lists(finite_floats, min_size=2, max_size=60),
        hst.floats(min_value=0.05, max_value=0.95),
        hst.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_equivariance(self, xs, q, scale):
        base = _estimate(ingest_sample(xs), q)
        scaled = _estimate(ingest_sample([x * scale for x in xs]), q)
        assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-12)


class TestQuantileSpec:
    @pytest.mark.parametrize("q,alpha", [(0.0, 0.05), (1.0, 0.05), (0.5, 0.0), (0.5, 1.0)])
    def test_domain(self, q, alpha):
        with pytest.raises(DomainError):
            QuantileSpec(q, alpha)


class TestConfidenceInterval:
    def test_width_and_contains(self):
        ci = ConfidenceInterval(-1.0, 3.0)
        assert ci.width == 4.0
        assert ci.contains(0.0) and ci.contains(-1.0) and ci.contains(3.0)
        assert not ci.contains(3.0001)


class TestNamespace:
    def test_every_public_name_resolves(self):
        namespace = {}
        exec("from quantdiff import *", namespace)
        for name in quantdiff.__all__:
            assert namespace[name] is getattr(quantdiff, name)

    @pytest.mark.parametrize(
        "name",
        [
            "estimate_slopes",
            "step2_indexes",
            "SlopeEstimates",
            "one_sample_ci",
            "OneSampleBounds",
            "outward_index_interval",
            "quantile_point_estimate",
        ],
    )
    def test_removed_names_are_gone(self, name):
        assert not hasattr(quantdiff, name)
        assert name not in quantdiff.__all__


class TestOutwardIndexInterval:
    """outward_index_bounds on one float halfwidth, and elementwise on an array."""

    def test_widens(self):
        assert outward_index_bounds(50.0, 9.8, 100) == (40, 60, False)

    def test_clamps_low(self):
        assert outward_index_bounds(2.0, 5.0, 100) == (1, 7, True)

    def test_clamps_high(self):
        assert outward_index_bounds(99.0, 5.0, 100) == (94, 100, True)

    def test_integer_endpoints_not_widened(self):
        assert outward_index_bounds(50.0, 10.0, 100) == (40, 60, False)

    def test_bounds_match_scalar_elementwise(self):
        halfwidths = np.array([9.8, 5.0, 10.0, 0.0, 120.0])
        lo, hi, clamped = outward_index_bounds(50.0, halfwidths, 100)
        for k, hw in enumerate(halfwidths.tolist()):
            assert (lo[k], hi[k], clamped[k]) == outward_index_bounds(50.0, hw, 100)
