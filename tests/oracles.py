"""Independent reference implementations used to validate the library.

Everything here deliberately avoids the library's own code paths:
binomial log-pmfs come from exact big-integer rationals or scipy, deficits
at large n from a sum of pmf ratios, critical values from scipy, the
region/line-search results from exhaustive scans with no windowing or span
restriction, sample files from a plain per-line ``float()`` loop, the
grid CSV from one f-string per cell over the grid's own deficits, the
one-sample bounds and both steps of the two-step interval from Python
floats one sample pair at a time, the Price-Bonett and Donner-Zou squares
from exact rationals at a power-of-two scale found by doubling, and a
coverage study's rows from a per-block tally summed one Python float at a
time.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy.stats as st

from quantdiff.errors import (
    EmptySampleError,
    InsufficientSampleError,
    NonFiniteValueError,
    ValidationError,
)


def exact_binom_pmf(i: int, n: int, q: Fraction) -> Fraction:
    """Binomial pmf as an exact rational number."""
    return Fraction(math.comb(n, i)) * q**i * (1 - q) ** (n - i)


def exact_log_binom_pmf(i: int, n: int, q: Fraction) -> float:
    """Natural log of the exact rational pmf (math.log handles big ints)."""
    f = exact_binom_pmf(i, n, q)
    return math.log(f.numerator) - math.log(f.denominator)


def mode_index(q: float, n: int) -> int:
    return min(max(math.floor(q * (n + 1)), 0), n)


def scipy_deficits(q: float, n: int) -> np.ndarray:
    """-2 * (logpmf(i) - logpmf(mode)) for i in [0, n], via scipy."""
    logpmf = st.binom.logpmf(np.arange(n + 1), n, q)
    return -2.0 * (logpmf - logpmf[mode_index(q, n)])


def ratio_walk_deficits(counts: list[int], q: float, n: int) -> list[float]:
    """-2 * (log pmf(c) - log pmf(mode)) for each count c, from pmf ratios.

    log p(k+1) - log p(k) = log1p((q (n+1) - (k+1)) / ((k+1) (1-q))), and
    the steps between the mode and a count are added with ``math.fsum``.
    No log-gamma or large logarithm enters, so this stays accurate to
    about 1e-11 at n = 1e8, for counts within a few standard deviations.
    """
    mode = mode_index(q, n)
    lo = min(min(counts), mode)
    k = np.arange(lo, max(max(counts), mode), dtype=float)
    steps = np.log1p((q * (n + 1) - (k + 1)) / ((k + 1) * (1.0 - q))).tolist()
    return [
        -2.0 * math.fsum(steps[mode - lo : c - lo])
        if c >= mode
        else 2.0 * math.fsum(steps[c - lo : mode - lo])
        for c in counts
    ]


def quadratic_deficits(q: float, n: int) -> np.ndarray:
    """(i - n q)^2 / (n q (1 - q)) for i in [0, n]: the asymptotic statistic's terms."""
    return (np.arange(n + 1) - n * q) ** 2 / (n * q * (1.0 - q))


def outward_indexes(center: float, halfwidth: float, n: int) -> tuple[int, int, bool]:
    """floor(center - halfwidth) and ceil(center + halfwidth) clamped into [1, n],
    and whether either left it."""
    lo, hi = math.floor(center - halfwidth), math.ceil(center + halfwidth)
    return max(lo, 1), min(hi, n), lo < 1 or hi > n


class OneSampleBounds(NamedTuple):
    lower: float
    upper: float
    lower_index: int
    upper_index: int
    clamped: bool


def one_sample_bounds(y, q: float, z: float) -> OneSampleBounds:
    """The order-statistic CI for the q-quantile of one sorted sample.

    Indexes N q +/- z sqrt(N q (1-q)), rounded outward and clamped; raises
    InsufficientSampleError when they meet.
    """
    n = len(y)
    lo, hi, clamped = outward_indexes(n * q, z * math.sqrt(n * q * (1.0 - q)), n)
    if lo == hi:
        raise InsufficientSampleError(f"one-sample indexes collapsed (n={n}, q={q})")
    return OneSampleBounds(float(y[lo - 1]), float(y[hi - 1]), lo, hi, clamped)


def two_step_quad(n_c: int, n_t: int, q: float, z: float, m_c: float = 1.0, m_t: float = 1.0):
    """(i_minus, i_plus, j_minus, j_plus, clamped) for cdf slopes m_c and m_t.

    i = n_c q +/- z sqrt(n_c n_t q(1-q) / (n_t + n_c r^2)), r = m_c / m_t,
    and j the same with the roles swapped; r^2 is one rounded product,
    infinity past the float range. None when a band collapses.
    """
    r_c, r_t = m_c / m_t, m_t / m_c
    hw_i = z * math.sqrt(n_c * n_t * q * (1.0 - q) / (n_t + n_c * (r_c * r_c)))
    hw_j = z * math.sqrt(n_c * n_t * q * (1.0 - q) / (n_c + n_t * (r_t * r_t)))
    i_minus, i_plus, clamp_i = outward_indexes(n_c * q, hw_i, n_c)
    j_minus, j_plus, clamp_j = outward_indexes(n_t * q, hw_j, n_t)
    if i_minus == i_plus or j_minus == j_plus:
        return None
    return i_minus, i_plus, j_minus, j_plus, clamp_i or clamp_j


def lift_exponent(largest: float) -> int:
    """The least k >= 0 with largest * 2^k >= 1/2; 0 for zero or infinity."""
    return max(0, -math.frexp(largest)[1])


def two_step_interval(y_c, y_t, q: float, z: float) -> tuple[float, float, bool, bool]:
    """(lower, upper, slope_fallback, clamped_index) of the two-step interval.

    Step 1 takes equal slopes; step 2 the finite-difference slopes
    ((i_plus - i_minus) / n) / (y(i_plus) - y(i_minus)) across the step-1
    span, both spacings multiplied by 2^k, k = :func:`lift_exponent` of the
    larger. A pair falls back to the step-1 quad when a spacing is zero or
    infinite, or the step-2 quad collapses. Raises InsufficientSampleError
    when step 1 collapses.
    """
    y_c, y_t = [float(v) for v in y_c], [float(v) for v in y_t]
    n_c, n_t = len(y_c), len(y_t)
    quad1 = two_step_quad(n_c, n_t, q, z)
    if quad1 is None:
        raise InsufficientSampleError(f"step-1 indexes collapsed (n_c={n_c}, n_t={n_t}, q={q})")
    i_minus, i_plus, j_minus, j_plus, clamped = quad1
    dy_c, dy_t = y_c[i_plus - 1] - y_c[i_minus - 1], y_t[j_plus - 1] - y_t[j_minus - 1]
    quad = None
    if 0.0 < dy_c < math.inf and 0.0 < dy_t < math.inf:
        k = lift_exponent(max(dy_c, dy_t))
        m_c = ((i_plus - i_minus) / n_c) / math.ldexp(dy_c, k)
        m_t = ((j_plus - j_minus) / n_t) / math.ldexp(dy_t, k)
        quad = two_step_quad(n_c, n_t, q, z, m_c, m_t)
    fallback = quad is None
    i_minus, i_plus, j_minus, j_plus, clamped2 = quad1 if fallback else quad
    lower = y_t[j_minus - 1] - y_c[i_plus - 1]
    upper = y_t[j_plus - 1] - y_c[i_minus - 1]
    return lower, upper, fallback, clamped or clamped2


def rounded_square(x: float) -> float:
    """x^2 rounded once from the exact rational square; infinity past the float range."""
    try:
        return float(Fraction(x) ** 2)
    except OverflowError:
        return math.inf


def root_sum_square(a: float, b: float) -> float:
    """sqrt(a^2 + b^2) with both squares from :func:`rounded_square`, taken at
    2^k scale, k = :func:`lift_exponent` of max(|a|, |b|); the root is
    divided by 2^k as an exact rational, rounded once.
    """
    k = lift_exponent(max(abs(a), abs(b)))
    root = math.sqrt(rounded_square(math.ldexp(a, k)) + rounded_square(math.ldexp(b, k)))
    return float(Fraction(root) / 2**k) if k else root


def price_bonnet_endpoints(b_c, b_t, tau_c: float, tau_t: float, z: float):
    """Price-Bonett (lower, upper) from one-sample bounds, point estimates and z.

    Var = ((u - l) / (2 z))^2 per arm, combined by :func:`root_sum_square`;
    every other step is one rounded float operation.
    """
    sd_c = (b_c.upper - b_c.lower) / (2.0 * z)
    sd_t = (b_t.upper - b_t.lower) / (2.0 * z)
    diff, halfwidth = tau_t - tau_c, z * root_sum_square(sd_t, sd_c)
    return diff - halfwidth, diff + halfwidth


def donner_zou_endpoints(b_c, b_t, tau_c: float, tau_t: float):
    """Donner-Zou (lower, upper) from one-sample bounds and point estimates.

    The MOVER root of each endpoint's two tail distances, by
    :func:`root_sum_square`.
    """
    diff = tau_t - tau_c
    lower = diff - root_sum_square(tau_t - b_t.lower, b_c.upper - tau_c)
    upper = diff + root_sum_square(b_t.upper - tau_t, tau_c - b_c.lower)
    return lower, upper


def full_grid_conservative(
    y_c: np.ndarray, y_t: np.ndarray, q: float, alpha: float, exact: bool = True
) -> tuple[float, float, bool] | None:
    """Exhaustive acceptance-region CI over the complete (i, j) grid.

    Returns (lower, upper, clamped) or None when no accepted pair has both
    indexes >= 1. Acceptance is strict H < chi2; H uses the exact
    statistic computed from scipy log-pmfs, or with ``exact=False`` the
    asymptotic quadratic form.
    """
    n_c, n_t = len(y_c), len(y_t)
    threshold = st.chi2.isf(alpha, 1)
    deficits = scipy_deficits if exact else quadratic_deficits
    g_c = deficits(q, n_c)
    g_t = deficits(q, n_t)
    accepted = (g_c[:, None] + g_t[None, :]) < threshold
    # An accepted pair at a sample edge: index 0 carries no order
    # statistic, and at i = n_c or j = n_t the test accepts d beyond the
    # interval.
    clamped = bool(accepted[[0, -1], :].any() or accepted[:, [0, -1]].any())
    usable = accepted.copy()
    usable[0, :] = False
    usable[:, 0] = False
    if not usable.any():
        return None
    ii, jj = np.nonzero(usable)
    diffs = y_t[jj - 1] - y_c[ii - 1]
    return float(diffs.min()), float(diffs.max()), clamped


def reachable_pairs(
    y_c: np.ndarray, y_t: np.ndarray, d: float
) -> list[tuple[int, int]]:
    """Every (i, j) count pair attainable by some tau under the shift d.

    The counts are constant between consecutive breakpoints: (0, 0) below
    the smallest, then the counts at or below each distinct breakpoint.
    """
    shifted = np.sort(y_t - d)
    pairs = [(0, 0)]
    for point in np.unique(np.concatenate([y_c, shifted])):
        i = int(np.searchsorted(y_c, point, side="right"))
        j = int(np.searchsorted(shifted, point, side="right"))
        pairs.append((i, j))
    return pairs


def best_reachable_score(
    y_c: np.ndarray, y_t: np.ndarray, q: float, d: float
) -> float:
    """Max joint log-likelihood over all reachable pairs, via scipy."""
    n_c, n_t = len(y_c), len(y_t)
    lp_c = st.binom.logpmf(np.arange(n_c + 1), n_c, q)
    lp_t = st.binom.logpmf(np.arange(n_t + 1), n_t, q)
    return max(lp_c[i] + lp_t[j] for i, j in reachable_pairs(y_c, y_t, d))


def per_line_sample_csv(source, skip_header: bool = False) -> np.ndarray:
    """The sorted values of a sample file, parsed one line at a time.

    The reference for ``read_sample_csv``: ``source`` is a path, ``"-"``
    for stdin, or a text stream; the lines are iterated as the stream
    yields them, and each error carries the library's type and message.
    """
    if isinstance(source, str):
        if source == "-":
            return _per_line_values(sys.stdin, "<stdin>", skip_header)
        with open(source, "r", encoding="utf-8") as fh:
            return _per_line_values(fh, source, skip_header)
    return _per_line_values(source, getattr(source, "name", "<stream>"), skip_header)


def _per_line_values(lines, name: str, skip_header: bool) -> np.ndarray:
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
    return np.sort(np.asarray(values, dtype=float))


def per_cell_grid_csv(grid, stream) -> None:
    """The grid CSV written one f-string per cell, as ASCII bytes: i,j,h (9 digits),accepted."""
    stream.write(b"i,j,h,accepted\n")
    j_fields = [f",{j}," for j in range(grid.j_lo, grid.j_lo + grid.g_t.size)]
    threshold = grid.threshold
    for i, g in enumerate(grid.g_c.tolist(), start=grid.i_lo):
        hs = [g + h_t for h_t in grid.g_t.tolist()]
        i_field = str(i)
        stream.write(
            "".join(
                [
                    f"{i_field}{j}{h:.9g},{'1' if h < threshold else '0'}\n"
                    for j, h in zip(j_fields, hs)
                ]
            ).encode("ascii")
        )


def per_block_coverage_tally(blocks, methods, true_delta: float, replications: int):
    """A study's coverage rows from its blocks' (intervals, rejections), block by block.

    The reference for the reduction in ``run_coverage_study``. Per block
    and method, a row with a non-finite endpoint fails (every row of a
    block where the method raised has NaN ones), and the others add their
    containment of ``true_delta`` and their endpoints, in replication
    order. The widths are then summed one Python float at a time, from
    endpoints scaled down by a power of two where a width or the sum could
    pass the float range. Returns one (method, coverage, mean_width,
    reject_rate, mc_stderr, failures) tuple per method.
    """
    reject_rate = sum(int(rejections.sum()) for _, rejections in blocks) / replications
    rows = []
    for pos, method in enumerate(methods):
        failures, contained, pairs = 0, 0, []
        for intervals, _ in blocks:
            for lower, upper in zip(intervals[pos].lower.tolist(), intervals[pos].upper.tolist()):
                if math.isfinite(lower) and math.isfinite(upper):
                    contained += lower <= true_delta <= upper
                    pairs.append((lower, upper))
                else:
                    failures += 1
        successes = replications - failures
        if successes == 0:
            rows.append((method, math.nan, math.nan, reject_rate, math.nan, failures))
            continue
        top = math.frexp(max(abs(x) for pair in pairs for x in pair))[1]
        scale = 2.0 ** -max(top + replications.bit_length() - 1023, 0)
        width_sum = 0.0
        for lower, upper in pairs:
            width_sum += upper * scale - lower * scale
        coverage = contained / successes
        stderr = math.sqrt(coverage * (1.0 - coverage) / successes)
        mean_width = width_sum / successes / scale
        rows.append((method, coverage, mean_width, reject_rate, stderr, failures))
    return rows
