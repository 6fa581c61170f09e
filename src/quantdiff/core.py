"""Sample containers, quantile/index arithmetic, and shared result types.

Order statistics use 1-based logical indexes throughout the public API:
``order_stat(1)`` is the sample minimum and ``order_stat(n)`` the maximum.
"""

from __future__ import annotations

import functools
import io
import math
import os
import stat
import sys
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Iterable

import numpy as np

from .errors import (
    DomainError,
    EmptySampleError,
    NonFiniteValueError,
    NumericOverflowError,
    ValidationError,
)


class Method(str, Enum):
    """Tags identifying how a confidence interval was constructed."""

    LR_CONSERVATIVE = "lr_conservative"
    LR_TWO_STEP = "lr_two_step"
    PRICE_BONNET = "price_bonnet"
    DONNER_ZOU = "donner_zou"


#: Canonical ordering of the two-sample methods, used by the CLI and the
#: simulation harness whenever output order must be deterministic.
TWO_SAMPLE_METHODS = (
    Method.LR_CONSERVATIVE,
    Method.LR_TWO_STEP,
    Method.PRICE_BONNET,
    Method.DONNER_ZOU,
)


def _check_probability(value: float, name: str) -> None:
    if not (0.0 < value < 1.0):
        raise DomainError(f"{name} must lie in the open interval (0, 1), got {value!r}")


def _check_alpha(alpha: float) -> None:
    _check_probability(alpha, "alpha")
    # The critical value is the normal quantile at alpha/2, which must stay above 0.
    if alpha / 2.0 == 0.0:
        raise DomainError(f"alpha={alpha!r} is too small: alpha/2 rounds to 0")


def _check_q(q: float) -> None:
    _check_probability(q, "q")
    # The binomial log-pmf divides a count by n q, which stays finite
    # only for a normal (not subnormal) q.
    if q < sys.float_info.min:
        raise DomainError(
            f"q={q!r} is too small: below the smallest normal double {sys.float_info.min!r}"
        )


def _check_sizes(*sizes: int) -> None:
    if min(sizes) < 1:
        raise DomainError(f"sample sizes must be >= 1, got {', '.join(map(str, sizes))}")


@dataclass(frozen=True)
class QuantileSpec:
    """Target quantile ``q``, two-sided level ``alpha`` and the region's statistic ``exact``.

    Only ``lr_conservative`` and the region export read ``exact``: True exact,
    False asymptotic, None as :func:`~quantdiff.region.acceptance_grid` picks.
    """

    q: float
    alpha: float
    exact: bool | None = None

    def __post_init__(self) -> None:
        _check_q(self.q)
        _check_alpha(self.alpha)


@dataclass(frozen=True, eq=False)
class OrderedSample:
    """A validated sample stored in ascending order.

    Construct via :func:`ingest_sample` (which sorts) or directly from
    already-sorted values, all finite. ``n`` is the number of values.
    A one-dimensional float64 array is stored as it is, not copied, and
    made read-only, so the caller's array is read-only afterwards too.
    """

    values: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValidationError("sample values must be one-dimensional")
        if arr.size == 0:
            raise EmptySampleError("sample must contain at least one value")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise NonFiniteValueError(f"non-finite value at sorted position {bad}")
        if np.any(arr[1:] < arr[:-1]):
            raise ValidationError("sample values must be sorted ascending")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "n", arr.size)
        arr.setflags(write=False)

    def order_stat(self, k: int) -> float:
        """Return the k-th smallest value, 1-based."""
        if not 1 <= k <= self.n:
            raise DomainError(f"order-statistic index {k} outside [1, {self.n}]")
        return float(self.values[k - 1])


def ingest_sample(raw_values: Iterable[float]) -> OrderedSample:
    """Validate and sort raw observations into an :class:`OrderedSample`.

    A one-dimensional ``np.ndarray`` is converted directly; any other
    iterable is first collected into a list.

    Raises
    ------
    EmptySampleError
        If no values are supplied.
    NonFiniteValueError
        If any value is NaN or infinite; the message names the offending
        position in the original input order.
    """
    if not (isinstance(raw_values, np.ndarray) and raw_values.ndim == 1):
        raw_values = list(raw_values)
    try:
        arr = np.asarray(raw_values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"sample values must be numeric: {exc}") from exc
    if arr.ndim != 1:
        raise ValidationError("sample values must be one-dimensional")
    finite = np.isfinite(arr)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise NonFiniteValueError(f"non-finite value {arr[bad]!r} at input index {bad}")
    return OrderedSample(np.sort(arr))


def read_sample_csv(source: str | IO[str], skip_header: bool = False) -> OrderedSample:
    """Read a one-value-per-line CSV file into an :class:`OrderedSample`.

    ``source`` may be a path, ``"-"`` for stdin, or an open text stream;
    paths are read as UTF-8. A value line holds one number in any spelling
    Python's ``float`` accepts, with surrounding whitespace allowed; blank
    lines are skipped, and ``skip_header`` drops line 1 whatever it holds.

    numpy's C reader parses the input first. When it fails, or reads
    anything but one column of finite values, the per-line parser reads
    the input again: it accepts what only ``float`` knows (``1_000``,
    non-ASCII digits) and raises the errors, which name the file and the
    1-based line number. Input other than a regular file (stdin, a pipe,
    a name numpy would decompress) is read once and both parse that text.
    """
    if not isinstance(source, str):
        stream, name = source, getattr(source, "name", "<stream>")
    elif source == "-":
        stream, name = sys.stdin, "<stdin>"
    else:
        stream, name = None, source
    try:
        if stream is not None:
            return _read_buffered(stream, name, skip_header)
        with open(source, "r", encoding="utf-8") as fh:
            path = _loadtxt_path(fh)
            if path is None:
                return _read_buffered(fh, name, skip_header)
            values = _load_column(path, skip_header)
            if values is None:
                return _parse_value_lines(fh, name, skip_header)
            return ingest_sample(values)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{name}: not valid {exc.encoding.upper()}: {exc}") from exc


# File names that numpy's loadtxt decompresses instead of reading as text.
_NUMPY_DECOMPRESSES = (".gz", ".bz2", ".xz", ".lzma")


def _loadtxt_path(fh: IO[str]) -> str | None:
    """A path by which numpy's loadtxt reads the same plain file as ``fh``, or None.

    Only a regular file can be opened a second time and read from the
    start (a pipe cannot). The resolved path is absolute, so numpy never
    takes it for a URL.
    """
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return None
    path = os.path.realpath(fh.name)
    return None if path.endswith(_NUMPY_DECOMPRESSES) else path


def _read_buffered(stream: IO[str], name: str, skip_header: bool) -> OrderedSample:
    """Read a stream once; both parsers work on the buffered text.

    Lines of the buffered text end at a line feed: ``sys.stdin`` has
    already translated CR LF and a lone CR when it is read.
    """
    text = stream.read()
    values = _load_column(io.StringIO(text), skip_header)
    if values is None:
        return _parse_value_lines(io.StringIO(text), name, skip_header)
    return ingest_sample(values)


def _load_column(source: str | IO[str], skip_header: bool) -> np.ndarray | None:
    """The values numpy's C reader finds, if they form one column of finite values; else None.

    A path is read in large chunks; a stream goes line by line, at about
    half the speed.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            arr = np.loadtxt(
                source,
                dtype=float,
                comments=None,
                ndmin=2,
                skiprows=int(skip_header),
                encoding="utf-8",
            )
    except ValueError:  # UnicodeDecodeError included
        return None
    if arr.shape[0] == 0 or arr.shape[1] != 1 or not np.isfinite(arr).all():
        return None
    return arr[:, 0]


def _parse_value_lines(lines: Iterable[str], name: str, skip_header: bool) -> OrderedSample:
    """The per-line parser: one ``float`` per non-blank line, each error with its line number."""
    values = []
    for lineno, line in enumerate(lines, start=1):
        if lineno == 1 and skip_header:
            continue
        text = line.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError as exc:
            raise ValidationError(f"{name}:{lineno}: not a number: {text!r}") from exc
        if not math.isfinite(value):
            raise NonFiniteValueError(f"{name}:{lineno}: non-finite value: {text!r}")
        values.append(value)
    if not values:
        raise EmptySampleError(f"{name}: no values found")
    return ingest_sample(values)


def max_likelihood_index(q: float, n: int) -> int:
    """Index of the binomial count maximizing the quantile likelihood.

    Returns ``floor(q * (n + 1))`` clamped into ``[0, n]``. A result of 0
    or ``n`` signals that the maximizer abuts the sample boundary.
    """
    _check_probability(q, "q")
    _check_sizes(n)
    k = math.floor(q * (n + 1))
    return min(max(k, 0), n)


def point_estimates(rows: np.ndarray, q: float) -> np.ndarray:
    """Point estimate of the q-quantile of each row of a sorted (R, n) block.

    The quantile likelihood is flat on the open interval between two
    adjacent order statistics, so no unique maximizer exists; this returns
    the midpoint of the maximizing interval, falling back to the nearest
    sample point when the interval abuts a boundary.
    """
    n = rows.shape[1]
    k = max_likelihood_index(q, n)
    if k == 0:
        return rows[:, 0]
    if k == n:
        return rows[:, -1]
    return 0.5 * (rows[:, k - 1] + rows[:, k])


def outward_index_bounds(center: float, halfwidth, n: int):
    """Round fractional index intervals outward and clamp into [1, n].

    ``halfwidth`` is a float or an array. Returns ``(lower, upper,
    clamped)`` elementwise, where ``clamped`` is True when either rounded
    endpoint fell outside [1, n]. Outward rounding (floor the lower
    endpoint, ceil the upper) can only widen the interval, so nominal
    coverage is preserved up to the clamp.
    """
    lo = np.floor(center - halfwidth)
    hi = np.ceil(center + halfwidth)
    clamped = (lo < 1) | (hi > n)
    return np.maximum(lo, 1).astype(np.intp), np.minimum(hi, n).astype(np.intp), clamped


def power_of_two_lift(a: np.ndarray, b: np.ndarray):
    """``(a 2^k, b 2^k, k)``, k >= 0 least with max(|a|, |b|) 2^k >= 1/2: exact, even
    from subnormals, and commuting with rounding in the normal range."""
    k = np.maximum(0, -np.frexp(np.maximum(np.abs(a), np.abs(b)))[1])
    return np.ldexp(a, k), np.ldexp(b, k), k


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval with its diagnostic flags.

    Its level is the ``alpha`` of the :class:`QuantileSpec` it was computed at.
    """

    lower: float
    upper: float
    flags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "flags", frozenset(self.flags))

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True, eq=False)
class IntervalRows:
    """One method's interval for each row pair of sorted (R, n_c) and (R, n_t) blocks.

    ``flags`` maps each flag name to a boolean mask over the rows. Every
    interval function evaluates its formula this way; the one-pair
    functions evaluate a one-row block and return :meth:`first`. Like the
    intervals, the rows carry no level: it is the spec's ``alpha``.
    """

    lower: np.ndarray
    upper: np.ndarray
    flags: dict[str, np.ndarray]

    def first(self) -> ConfidenceInterval:
        """The interval of row 0.

        Raises :class:`NumericOverflowError` where an endpoint is infinite
        or NaN: the formula overflowed on these values.
        """
        lower, upper = float(self.lower[0]), float(self.upper[0])
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise NumericOverflowError(
                f"interval [{lower}, {upper}] overflows double precision; rescale the samples"
            )
        flags = frozenset(name for name, mask in self.flags.items() if mask[0])
        return ConfidenceInterval(lower, upper, flags)


def quiet_overflow(row_fn):
    """Run an interval row function with numpy's float warnings off.

    A sum or difference past the float range, or inf - inf, gives a row a
    non-finite endpoint, and the row fails on its own: :meth:`IntervalRows.first`
    raises for it, and a coverage study counts it. A two-step row whose step-1
    spacing is zero (a division by zero) or infinite, or whose step-2 quad
    collapses, takes equal slopes and the ``slope_fallback`` flag.
    """

    @functools.wraps(row_fn)
    def quiet(*args, **kwargs) -> IntervalRows:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return row_fn(*args, **kwargs)

    return quiet
