"""Constrained maximization, the LR hypothesis test, and the region CI.

The hypothesis tau_{q,t} = tau_{q,c} + d couples the two samples through a
single scalar tau. Both count functions i(tau) = #{y_c <= tau} and
j(tau) = #{y_t <= tau + d} are step functions, so the constrained likelihood
maximum is a maximum over finitely many count pairs: the counts at or
below each breakpoint, restricted to the closed span between the two
unconstrained optima. Counting at the breakpoints themselves, rather than
at a tau between them, keeps every gap, however narrow.

The exact statistic H(i, j) separates into per-sample deficits,
H = g_c(i) + g_t(j), each unimodal with minimum 0 at floor(q*(n+1)). The
acceptance region scans only the marginal index windows where the
deficits stay below the chi-square threshold; everything outside is
provably rejected, so the windowed scan is exact. The region depends on
(n_c, n_t, q, alpha, statistic) alone, so it is built once per such key
and shared by the conservative interval, the grid export and the coverage
engine's LR decision. That decision needs no maximizer: a row is accepted
when some count pair reachable at d lies in the exact region, so it reads
the region, at the control's mode count first, where most rows accept,
while :func:`lr_test` scans its one row for (i*, j*, H).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .core import (
    ConfidenceInterval,
    IntervalRows,
    OrderedSample,
    QuantileSpec,
    _check_sizes,
    max_likelihood_index,
    quiet_overflow,
)
from .errors import DegenerateRegionError, DomainError, NumericOverflowError, ValidationError
from .likelihood import asymptotic_deficit, chi2_quantile_1df, chi2_sf_1df, deficits


@dataclass(frozen=True)
class LRTestResult:
    """Outcome of the LR test of tau_{q,t} = tau_{q,c} + d."""

    d: float
    statistic: float
    p_value: float
    i_star: int
    j_star: int

    def rejects_at(self, alpha: float) -> bool:
        return self.statistic >= chi2_quantile_1df(alpha)


@dataclass(frozen=True, eq=False)
class AcceptanceGrid:
    """The acceptance region of one (n_c, n_t, q, alpha, statistic).

    H(i, j) = g_c[i - i_lo] + g_t[j - j_lo] over the marginal windows that
    start at i_lo and j_lo. Row ``accepted_i[k]`` accepts exactly the
    counts ``j_first[k]..j_last[k]`` (g_t < threshold - g_c; g_t is
    unimodal, so the accepted j of a row are contiguous); rows that accept
    nothing are left out. The CSV export instead flags a cell accepted
    when the rounded sum h < threshold, which differs only when h rounds
    onto the threshold. ``exact`` names the statistic the deficits use.

    Grids are cached and shared, so every array is read-only.
    """

    exact: bool
    threshold: float
    i_lo: int
    j_lo: int
    g_c: np.ndarray
    g_t: np.ndarray
    accepted_i: np.ndarray
    j_first: np.ndarray
    j_last: np.ndarray


def _searchsorted_rows(
    block: np.ndarray, row: np.ndarray, keys: np.ndarray, side: str
) -> np.ndarray:
    """``np.searchsorted(block[row[k]], keys[k], side)`` for each k; block rows are sorted.

    One binary-lifting search over all keys: a count moves up by each power
    of two <= n, largest first, where the value it reaches sorts before the
    key. ``row`` broadcasts against ``keys``.
    """
    n = block.shape[1]
    count = np.zeros(keys.shape, dtype=np.intp)
    for power in reversed(range(n.bit_length())):
        probe = np.minimum(count + (1 << power), n)
        value = block[row, probe - 1]
        count = np.where(value < keys if side == "left" else value <= keys, probe, count)
    return count


def _order_stats(y: np.ndarray, k: np.ndarray) -> np.ndarray:
    """y(k), the k-th smallest value along the last axis of sorted y, for each count k.

    y(0) is -inf and y(n + 1) is +inf, so a count k is the count of values
    at or below tau exactly on the tau-interval [y(k), y(k + 1)).
    """
    n = y.shape[-1]
    value = y[..., np.clip(k, 1, n) - 1]
    return np.where(k < 1, -math.inf, np.where(k > n, math.inf, value))


def _shifted(y_t: np.ndarray, d: float) -> np.ndarray:
    """The treatment values minus d; d must be finite and no shifted value may overflow."""
    if not math.isfinite(d):
        raise ValidationError(f"shift d must be finite, got {d!r}")
    with np.errstate(over="ignore"):
        t = y_t - d
    if not np.isfinite(t).all():
        raise NumericOverflowError(
            f"shifting the treatment values by d = {d!r} overflows double precision; "
            "rescale the samples"
        )
    return t


def lr_rejections(y_c: np.ndarray, y_t: np.ndarray, spec: QuantileSpec, d: float) -> np.ndarray:
    """``lr_test(...).rejects_at(spec.alpha)`` for each row pair of sorted (R, n_c) and (R, n_t) blocks.

    A read of the exact region: a row accepts when a count pair reachable
    at d has g_c(i) + g_t(j) below the threshold (the sum, not the region's
    budget rule, so this is exactly H >= threshold). Only accepted rows i
    can. On [y_c(i), y_c(i + 1)), empty at a tie, the reachable j are
    j_lo = #{t <= y_c(i)} and the tie-block ends of t = y_t - d up to
    j_hi = #{t < y_c(i + 1)}; g_t is unimodal, so the best is the last block
    end at or below k_t or the first at or above it, clipped into
    [j_lo, j_hi]. Outside the window g_t counts as +inf.

    The control's mode count k_c is an accepted row (g_c(k_c) = 0 and the
    least g_t is 0), and most rows accept there, so every row reads k_c
    first, and only the rows that do not accept there read every accepted i.
    """
    t = _shifted(y_t, d)
    n_c, n_t = y_c.shape[1], t.shape[1]
    region = acceptance_grid(n_c, n_t, QuantileSpec(spec.q, spec.alpha, True))
    k_t = max_likelihood_index(spec.q, n_t)
    rows = np.arange(len(y_c))
    down = _searchsorted_rows(t, rows[:, None], _order_stats(t, np.array([k_t + 1])), "left")
    up = _searchsorted_rows(t, rows[:, None], _order_stats(t, np.array([k_t])), "right")
    g_t = np.concatenate([[math.inf], region.g_t, [math.inf]])

    def accepts(y: np.ndarray, r: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Whether control rows y, the block's rows r, each accept at some count of i."""
        lo, hi = _order_stats(y, i), _order_stats(y, i + 1)
        j_lo = _searchsorted_rows(t, r[:, None], lo, "right")
        j_hi = _searchsorted_rows(t, r[:, None], hi, "left")
        ends = np.clip(np.clip([down[r], up[r]], j_lo, j_hi) - region.j_lo + 1, 0, g_t.size - 1)
        score = region.g_c[i - region.i_lo] + g_t[ends].min(axis=0)
        return ((score < region.threshold) & (lo < hi)).any(axis=1)

    accepted = accepts(y_c, rows, np.array([max_likelihood_index(spec.q, n_c)]))
    rest = np.flatnonzero(~accepted)
    accepted[rest] = accepts(y_c[rest], rest, region.accepted_i)
    return ~accepted


def lr_test(
    control: OrderedSample, treatment: OrderedSample, spec: QuantileSpec, d: float
) -> LRTestResult:
    """LR test of the hypothesis that the treatment q-quantile exceeds the
    control q-quantile by exactly d.

    The statistic is the exact H at the constrained maximizer (i*, j*),
    where i counts control values at or below tau and j treatment values
    at or below tau + d; likelihood ties go to the smallest (i, j), the
    first maximum in ascending tau. Under the null H is asymptotically
    chi-square with one degree of freedom, so the p-value is that
    distribution's tail beyond the statistic. The candidates, in ascending
    tau, are the counts just below the closed span between the two optima,
    then those at each breakpoint inside it; so the first smallest deficit
    sum g_c(i) + g_t(j) has the smallest (i, j), and H = 0 where they overlap.
    Each arm's deficits come from one window of the consecutive counts in reach.
    """
    y_c, t = control.values, _shifted(treatment.values, d)
    q = spec.q
    k_c, k_t = max_likelihood_index(q, y_c.size), max_likelihood_index(q, t.size)
    lo_c, hi_c = _order_stats(y_c, np.array([k_c, k_c + 1]))
    lo_t, hi_t = _order_stats(t, np.array([k_t, k_t + 1]))
    span_lo, span_hi = min(lo_c, lo_t), max(hi_c, hi_t)
    starts = [np.searchsorted(y, span_lo) for y in (y_c, t)]
    stops = [np.searchsorted(y, span_hi, "right") for y in (y_c, t)]
    points = np.sort(np.concatenate([y_c[starts[0] : stops[0]], t[starts[1] : stops[1]]]))
    # Distinct by hand: numpy's unique would import numpy.ma, 15-25 ms per process.
    points = points[np.append(True, points[1:] != points[:-1])]
    i = np.append(starts[0], np.searchsorted(y_c, points, "right"))
    j = np.append(starts[1], np.searchsorted(t, points, "right"))
    g_c = deficits(np.arange(starts[0], stops[0] + 1), q, y_c.size)
    g_t = deficits(np.arange(starts[1], stops[1] + 1), q, t.size)
    score = g_c[i - starts[0]] + g_t[j - starts[1]]
    best = int(np.argmin(score))
    statistic = float(score[best])
    return LRTestResult(d, statistic, chi2_sf_1df(statistic), int(i[best]), int(j[best]))


def _window_deficits(q: float, n: int, threshold: float, exact: bool) -> tuple[int, np.ndarray]:
    """Origin lo and deficits g(lo..hi) of a window holding every accepted count.

    Starts from the bounding box of the asymptotic ellipse plus one index
    of slack. The edges move outward until the edge count itself is
    rejected; unimodality of the deficit makes that a proof that nothing
    beyond the edge is accepted. Only the exact deficit, whose tails decay
    more slowly, ever moves them.
    """
    center = n * q
    halfwidth = math.sqrt(threshold * n * q * (1.0 - q)) + 1.0
    lo = max(math.ceil(center - halfwidth), 0)
    hi = min(math.floor(center + halfwidth), n)
    g = deficits if exact else asymptotic_deficit
    while True:
        window = g(np.arange(lo, hi + 1, dtype=np.intp), q, n)
        if lo > 0 and window[0] < threshold:
            lo -= 1
        elif hi < n and window[-1] < threshold:
            hi += 1
        else:
            return lo, window


@functools.lru_cache(maxsize=128)
def _build_region(n_c: int, n_t: int, q: float, alpha: float, exact: bool) -> AcceptanceGrid:
    threshold = chi2_quantile_1df(alpha)
    i_lo, g_c = _window_deficits(q, n_c, threshold, exact)
    j_lo, g_t = _window_deficits(q, n_t, threshold, exact)
    budget = threshold - g_c
    # Row i accepts j where g_t(j) < budget(i). The first such j is the
    # first where the running minimum from the left drops below the budget,
    # the last is the last where the running minimum from the right does;
    # both minima are monotone, so each is one binary search.
    from_left = np.minimum.accumulate(g_t)
    from_right = np.minimum.accumulate(g_t[::-1])[::-1]
    rows = np.flatnonzero(from_left[-1] < budget)
    j_first = j_lo + np.searchsorted(-from_left, -budget[rows], side="right")
    j_last = j_lo + np.searchsorted(from_right, budget[rows], side="left") - 1
    arrays = (g_c, g_t, i_lo + rows, j_first, j_last)
    for arr in arrays:
        arr.setflags(write=False)
    return AcceptanceGrid(exact, threshold, i_lo, j_lo, *arrays)


def acceptance_grid(n_c: int, n_t: int, spec: QuantileSpec) -> AcceptanceGrid:
    """The acceptance region over the marginal windows, as its arrays.

    H of a cell is ``g_c[:, None] + g_t``, accepted below ``threshold``;
    the accepted set is the integer ellipse (exactly under the asymptotic
    statistic, approximately under the exact one). ``spec.exact=None``
    picks the exact statistic when both samples have at most 10,000
    values and the asymptotic form above that. Equal arguments return the
    same shared, read-only grid.
    """
    _check_sizes(n_c, n_t)
    exact = max(n_c, n_t) <= 10_000 if spec.exact is None else spec.exact
    try:
        return _build_region(n_c, n_t, spec.q, spec.alpha, bool(exact))
    except (OverflowError, MemoryError):
        raise DomainError(
            f"the acceptance windows of n_c = {n_c} and n_t = {n_t} do not fit in memory"
        ) from None


@quiet_overflow
def conservative_rows(y_c: np.ndarray, y_t: np.ndarray, spec: QuantileSpec) -> IntervalRows:
    """:func:`conservative_ci` for each row pair of sorted (R, n_c) and (R, n_t) blocks."""
    n_c, n_t = y_c.shape[1], y_t.shape[1]
    region = acceptance_grid(n_c, n_t, spec)
    i, j_first, j_last = region.accepted_i, region.j_first, region.j_last
    clamped = bool(((i == 0) | (j_first == 0) | (i == n_c) | (j_last == n_t)).any())
    j_first = np.maximum(j_first, 1)
    usable = (i > 0) & (j_first <= j_last)
    if not usable.any():
        raise DegenerateRegionError(
            "acceptance region contains no index pairs with defined order statistics"
        )
    c = y_c[:, i[usable] - 1]
    lows = y_t[:, j_first[usable] - 1] - c
    highs = y_t[:, j_last[usable] - 1] - c
    rows = np.arange(len(y_c))
    # argmin/argmax return the first of equal extremes (+0.0 and -0.0, say),
    # so the sign of a zero endpoint does not depend on numpy's reduction order.
    return IntervalRows(
        lower=lows[rows, lows.argmin(axis=1)],
        upper=highs[rows, highs.argmax(axis=1)],
        flags={"clamped_index": np.full(len(y_c), clamped)},
    )


def conservative_ci(
    control: OrderedSample, treatment: OrderedSample, spec: QuantileSpec
) -> ConfidenceInterval:
    """Confidence interval from the full acceptance-region search.

    The interval is (min, max) of y_t(j) - y_c(i) over all index pairs
    with H(i, j) strictly below the chi-square critical value. Accepted
    pairs touching index 0 carry no order statistic; they are excluded
    from the extremes and reported through the clamped_index flag. The
    flag is also set where an accepted pair has i = n_c or j = n_t. An
    edge pair is reachable, so the LR test accepts, for every d far
    enough to one side; the endpoints are not moved. ``spec.exact`` picks
    the statistic as in :func:`acceptance_grid`.
    """
    return conservative_rows(control.values[None], treatment.values[None], spec).first()


# Bytes per h field: the longest %.9g text of a double, "-1.23456789e-100".
_H_WIDTH = 16
# Cells formatted per step; every temporary of a step stays small.
_CHUNK_CELLS = 4096
# 10^e for the decades e = -4..8 that %.9g prints in fixed notation, and
# 10^(8 - e), which scales a value of decade e to 9 integer digits (exact).
_DECADES = np.array([float(f"1e{e}") for e in range(-4, 9)])
_SCALES = np.array([float(10 ** (8 - e)) for e in range(-4, 9)])


def _lanes(x: int) -> list[int]:
    """A 128-bit integer as its [low, high] 64-bit halves."""
    return [x & (2**64 - 1), x >> 64]


@functools.cache
def _h_format_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of ``_h_fields``, built on the first export.

    Text is held as a little-endian 128-bit integer, byte n at bits 8n, in
    two uint64 lanes. ``words[w]`` is the 4 ASCII digits of w < 10,000 and
    ``zeros[w]`` their trailing zeros. Row e + 4 of ``decades`` lays out
    decade e: the 9 digit bytes of a value keep their integer digits in
    place (mask in columns 0-1), move the rest up by the bits in column 2
    (column 3 is 64 less that), and the point, or "0." and -e-1 zeros,
    fills the gap (columns 4-5). ``lengths[10 * (e + 4) + m]`` is the
    length of the text when m digits remain after the trailing zeros, and
    ``prefixes[n]`` masks a text's first n bytes.
    """
    w = np.arange(10_000, dtype=np.uint64)
    words = sum((w // 10**k % 10 + ord("0")) << 8 * (3 - k) for k in range(4))
    zeros = sum(w % 10**k == 0 for k in range(1, 5))
    decades, lengths = [], []
    for e in range(-4, 9):
        ints = max(e + 1, 0)
        gap = b"." if e >= 0 else b"0." + b"0" * (-e - 1)
        stay = _lanes(2 ** (8 * ints) - 1)
        add = _lanes(int.from_bytes(b"\0" * ints + gap, "little"))
        decades.append([*stay, 8 * len(gap), 64 - 8 * len(gap), *add])
        lengths += [(ints if m <= ints else m + 1) if e >= 0 else 1 - e + m for m in range(10)]
    prefixes = np.array([_lanes(2 ** (8 * n) - 1) for n in range(_H_WIDTH + 1)], dtype=np.uint64)
    return words, zeros, np.array(decades, dtype=np.uint64), np.array(lengths), prefixes


def _h_fields(h: np.ndarray) -> np.ndarray:
    """``"%.9g" % v`` for each v of a 1-D float64 array, as rows of _H_WIDTH bytes, 0-padded.

    A value in [1e-4, 1e9) prints in fixed notation. With 10^e <= v <
    10^(e+1), s = v * 10^(8-e) < 2^30 is within 2^-24 of the exact
    product, so when its fraction r is more than 1e-6 from one half and
    1e8 <= floor(s) < 999,999,999, the 9 correctly rounded digits are
    floor(s) + (r > 0.5), printed with the point after e + 1 of them and
    trailing fraction zeros dropped. Every other value (0, exponent
    notation, near-halfway products, decade edges) is formatted by
    Python's %.9g.
    """
    words, zeros, decades, lengths, prefixes = _h_format_tables()
    fixed = (h >= 1e-4) & (h < 1e9)
    v = np.where(fixed, h, 1.0)
    decade = np.searchsorted(_DECADES, v, side="right") - 1
    s = v * _SCALES.take(decade)
    f = np.floor(s)
    r = s - f
    fixed &= (np.abs(r - 0.5) > 1e-6) & (f >= 1e8) & (f < 999_999_999)
    lead, rest = np.divmod((f + (r > 0.5)).astype(np.uint64), 10**8)
    mid, low = np.divmod(rest, 10**4)
    lo = (lead + ord("0")) | words.take(mid) << 8 | words.take(low) << 40
    hi = words.take(low) >> 24
    layout = decades.take(decade, axis=0)
    lo_stay, hi_stay = lo & layout[:, 0], hi & layout[:, 1]
    lo_move = lo ^ lo_stay
    out = np.empty((h.size, 2), dtype="<u8")
    out[:, 0] = lo_stay | lo_move << layout[:, 2] | layout[:, 4]
    out[:, 1] = hi_stay | (hi ^ hi_stay) << layout[:, 2] | lo_move >> layout[:, 3] | layout[:, 5]
    kept = 9 - np.where(low > 0, zeros.take(low), 4 + zeros.take(mid))
    out &= prefixes.take(lengths.take(10 * decade + kept), axis=0)
    fields = out.view(np.uint8)
    slow = np.flatnonzero(~fixed)
    texts = ["%.9g" % x for x in h[slow].tolist()]
    fields[slow] = np.array(texts, dtype=f"S{_H_WIDTH}").view(np.uint8).reshape(-1, _H_WIDTH)
    return fields


def _ascii_rows(values: range) -> np.ndarray:
    """The decimal text of each integer as a row of ASCII bytes, 0-padded."""
    text = np.array([str(v) for v in values], dtype="S")
    return text.view(np.uint8).reshape(len(values), -1)


def write_acceptance_grid_csv(grid: AcceptanceGrid, stream: IO[bytes]) -> None:
    """Serialize a grid as ASCII CSV to a binary stream: header i,j,h,accepted; booleans as 0/1.

    Cells run in ascending i, then j; h = g_c(i) + g_t(j) prints as %.9g,
    and accepted is h < threshold on the double, not its printed digits.
    Whole rows of about 4,096 cells at a time are laid out as one byte
    matrix, a line per cell with 0 bytes as padding, and written with the
    padding dropped. h is formatted by ``_h_fields``: in numpy from its
    correctly rounded 9 digits when it prints in fixed notation and is
    clear of a rounding tie, else by Python's %.9g (0, h < 1e-4, h >= 1e9,
    and the few cells within 1e-6 of a tie or at a decade edge).
    """
    stream.write(b"i,j,h,accepted\n")
    i_text = _ascii_rows(range(grid.i_lo, grid.i_lo + grid.g_c.size))
    j_text = _ascii_rows(range(grid.j_lo, grid.j_lo + grid.g_t.size))
    j_at = i_text.shape[1] + 1
    h_at = j_at + j_text.shape[1] + 1
    rows = max(1, _CHUNK_CELLS // grid.g_t.size)
    lines = np.zeros((rows, grid.g_t.size, h_at + _H_WIDTH + 3), dtype=np.uint8)
    lines[:, :, [j_at - 1, h_at - 1, -3]] = ord(",")
    lines[:, :, j_at : h_at - 1] = j_text
    lines[:, :, -1] = ord("\n")
    for r in range(0, grid.g_c.size, rows):
        hs = grid.g_c[r : r + rows, None] + grid.g_t
        block = lines[: hs.shape[0]]
        block[:, :, : j_at - 1] = i_text[r : r + rows, None]
        block[:, :, h_at : h_at + _H_WIDTH] = _h_fields(hs.ravel()).reshape(*hs.shape, _H_WIDTH)
        block[:, :, -2] = ord("0") + (hs < grid.threshold)
        stream.write(block.tobytes().translate(None, b"\0"))
