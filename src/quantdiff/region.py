"""Constrained maximization, the LR hypothesis test, and the region CI.

The hypothesis tau_{q,t} = tau_{q,c} + d couples the two samples through a
single scalar tau. Both count functions i(tau) = #{y_c < tau} and
j(tau) = #{y_t < tau + d} are step functions, so the constrained likelihood
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
and shared by the conservative interval and the grid export.
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
    Method,
    OrderedSample,
    QuantileSpec,
    max_likelihood_index,
    quiet_overflow,
)
from .errors import DegenerateRegionError, NumericOverflowError, ValidationError
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
    nothing are left out. ``rows`` and the CSV export instead flag a cell
    accepted when the rounded sum h < threshold, which differs only when h
    rounds onto the threshold.

    Grids are cached and shared, so every array is read-only.
    """

    alpha: float
    exact: bool
    threshold: float
    i_lo: int
    j_lo: int
    g_c: np.ndarray
    g_t: np.ndarray
    accepted_i: np.ndarray
    j_first: np.ndarray
    j_last: np.ndarray

    @property
    def rows(self) -> list[tuple[int, int, float, bool]]:
        """(i, j, h, accepted) for every window cell, row-major (i, then j)."""
        js = range(self.j_lo, self.j_lo + self.g_t.size)
        return [
            (i, j, h, h < self.threshold)
            for i, g in enumerate(self.g_c.tolist(), start=self.i_lo)
            for j, h in zip(js, (g + self.g_t).tolist())
        ]


def _ranges(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, position) for each position start[k] .. start[k] + count[k] - 1, in order."""
    k = np.repeat(np.arange(count.size), count)
    return k, np.arange(k.size) - np.repeat(np.cumsum(count) - count - start, count)


def _searchsorted_rows(
    block: np.ndarray, row: np.ndarray, keys: np.ndarray, side: str
) -> np.ndarray:
    """``np.searchsorted(block[row[k]], keys[k], side)`` for each k; block rows are sorted.

    Over several rows this is one binary-lifting search over all keys: a
    count moves up by each power of two <= n, largest first, where the value
    it reaches sorts before the key. One row takes numpy's own search.
    """
    if len(block) == 1:
        return np.searchsorted(block[0], keys, side=side)
    n = block.shape[1]
    count = np.zeros(keys.shape, dtype=np.intp)
    for power in reversed(range(n.bit_length())):
        probe = np.minimum(count + (1 << power), n)
        value = block[row, probe - 1]
        count = np.where(value < keys if side == "left" else value <= keys, probe, count)
    return count


def _optimum(y: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the tau-interval [lo, hi) on which a sample's count is its optimum k."""
    lo = y[:, k - 1] if k >= 1 else np.full(len(y), -math.inf)
    hi = y[:, k] if k <= y.shape[1] - 1 else np.full(len(y), math.inf)
    return lo, hi


def _constrained_max_rows(
    y_c: np.ndarray, y_t: np.ndarray, q: float, d: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i*, j*, H) of :func:`lr_test` for each row pair of sorted (R, n_c) and (R, n_t) blocks.

    The one copy of the candidate rule. The counts are constant between
    consecutive breakpoints (control values and shifted treatment values),
    so a row's candidates are count pairs: the counts below the closed
    span between the two optima, then the counts at or below each
    breakpoint in the span. The score of a pair is its deficit sum
    g_c(i) + g_t(j); the smallest score wins, ties going to the smallest
    (i, j), which is the first maximum in ascending tau since both counts
    grow with tau. H is the winning score.
    """
    if not math.isfinite(d):
        raise ValidationError(f"shift d must be finite, got {d!r}")
    with np.errstate(over="ignore"):
        y_t = y_t - d
    if not np.isfinite(y_t).all():
        raise NumericOverflowError(
            f"shifting the treatment values by d = {d!r} overflows double precision; "
            "rescale the samples"
        )
    n_c, n_t = y_c.shape[1], y_t.shape[1]
    k_c = max_likelihood_index(q, n_c)
    k_t = max_likelihood_index(q, n_t)
    lo_c, hi_c = _optimum(y_c, k_c)
    lo_t, hi_t = _optimum(y_t, k_t)
    i_star = np.full(len(y_c), k_c)
    j_star = np.full(len(y_c), k_t)
    h = np.zeros(len(y_c))
    # Where the optima overlap, the constraint binds nowhere and H = 0.
    bound = np.flatnonzero(~(np.maximum(lo_c, lo_t) < np.minimum(hi_c, hi_t)))
    if bound.size:
        span_lo = np.minimum(lo_c, lo_t)[bound]
        span_hi = np.maximum(hi_c, hi_t)[bound]
        # Each bound row's distinct breakpoints inside the span; equal
        # breakpoints give equal counts, so a tie block is one candidate.
        # Finite span edges are themselves breakpoints, so no row is empty.
        # Rows are numbered 0..B-1 from here on; bound[k] is row k's row in
        # the blocks.
        below, values, owner = [], [], []
        for y in (y_c, y_t):
            start = _searchsorted_rows(y, bound, span_lo, "left")
            stop = _searchsorted_rows(y, bound, span_hi, "right")
            k, col = _ranges(start, stop - start)
            value = y[bound[k], col]
            new = np.ones(k.size, dtype=bool)
            new[1:] = (value[1:] != value[:-1]) | (k[1:] != k[:-1])
            below.append(start)
            values.append(value[new])
            owner.append(k[new])
        points, row = np.concatenate(values), np.concatenate(owner)
        rows = np.arange(bound.size)
        i = np.concatenate([below[0], _searchsorted_rows(y_c, bound[row], points, "right")])
        j = np.concatenate([below[1], _searchsorted_rows(y_t, bound[row], points, "right")])
        row = np.concatenate([rows, row])
        score = deficits(i, q, n_c) + deficits(j, q, n_t)
        # Each row's smallest score, then the smallest (i, j) reaching it.
        low = np.full(bound.size, np.inf)
        np.minimum.at(low, row, score)
        tied = np.flatnonzero(score == low[row])
        order = tied[np.lexsort((j[tied], i[tied], row[tied]))]
        best = order[np.searchsorted(row[order], rows)]
        i_star[bound], j_star[bound], h[bound] = i[best], j[best], score[best]
    return i_star, j_star, h


def lr_rejections(y_c: np.ndarray, y_t: np.ndarray, spec: QuantileSpec, d: float) -> np.ndarray:
    """``lr_test(...).rejects_at(spec.alpha)`` for each row pair of sorted blocks."""
    return _constrained_max_rows(y_c, y_t, spec.q, d)[2] >= chi2_quantile_1df(spec.alpha)


def lr_test(
    control: OrderedSample, treatment: OrderedSample, spec: QuantileSpec, d: float
) -> LRTestResult:
    """LR test of the hypothesis that the treatment q-quantile exceeds the
    control q-quantile by exactly d.

    The statistic is the exact H at the constrained maximizer (i*, j*),
    where i counts control values below tau and j treatment values below
    tau + d; likelihood ties go to the smallest (i, j), the first maximum
    in ascending tau. Under the null H is asymptotically chi-square with
    one degree of freedom, so the p-value is that distribution's tail
    beyond the statistic.
    """
    i, j, h = _constrained_max_rows(control.values[None], treatment.values[None], spec.q, d)
    statistic = float(h[0])
    return LRTestResult(
        d=d,
        statistic=statistic,
        p_value=chi2_sf_1df(statistic),
        i_star=int(i[0]),
        j_star=int(j[0]),
    )


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
        window = g(np.arange(lo, hi + 1), q, n)
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
    return AcceptanceGrid(alpha, exact, threshold, i_lo, j_lo, *arrays)


def _region(n_c: int, n_t: int, spec: QuantileSpec, use_exact: bool | None) -> AcceptanceGrid:
    """The cached region; ``use_exact=None`` picks the exact statistic when
    both samples have at most 10,000 values and the asymptotic form above."""
    if use_exact is None:
        use_exact = max(n_c, n_t) <= 10_000
    return _build_region(n_c, n_t, spec.q, spec.alpha, bool(use_exact))


@quiet_overflow
def conservative_rows(
    y_c: np.ndarray, y_t: np.ndarray, spec: QuantileSpec, use_exact: bool | None = None
) -> IntervalRows:
    """:func:`conservative_ci` for each row pair of sorted (R, n_c) and (R, n_t) blocks."""
    n_c, n_t = y_c.shape[1], y_t.shape[1]
    region = _region(n_c, n_t, spec, use_exact)
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
        method=Method.LR_CONSERVATIVE,
        alpha=spec.alpha,
        lower=lows[rows, lows.argmin(axis=1)],
        upper=highs[rows, highs.argmax(axis=1)],
        flags={"clamped_index": np.full(len(y_c), clamped)},
    )


def conservative_ci(
    control: OrderedSample,
    treatment: OrderedSample,
    spec: QuantileSpec,
    use_exact: bool | None = None,
) -> ConfidenceInterval:
    """Confidence interval from the full acceptance-region search.

    The interval is (min, max) of y_t(j) - y_c(i) over all index pairs
    with H(i, j) strictly below the chi-square critical value. Accepted
    pairs touching index 0 carry no order statistic; they are excluded
    from the extremes and reported through the clamped_index flag. The
    flag is also set where an accepted pair has i = n_c or j = n_t. An
    edge pair is reachable, so the LR test accepts, for every d far
    enough to one side; the endpoints are not moved.

    ``use_exact=None`` picks the exact statistic when both samples have
    at most 10,000 values and the asymptotic form above that.
    """
    return conservative_rows(control.values[None], treatment.values[None], spec, use_exact).first()


def acceptance_grid(
    n_c: int, n_t: int, spec: QuantileSpec, use_exact: bool | None = None
) -> AcceptanceGrid:
    """H over every index pair in the marginal windows, with accept flags.

    Output is plot-ready: the accepted set is the integer ellipse (exactly
    under the asymptotic statistic, approximately under the exact one).
    Equal arguments return the same shared, read-only grid.
    """
    if n_c < 1 or n_t < 1:
        raise ValidationError("sample sizes must be >= 1")
    return _region(n_c, n_t, spec, use_exact)


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


def write_acceptance_grid_csv(grid: AcceptanceGrid, stream: IO[str]) -> None:
    """Serialize a grid as CSV: header i,j,h,accepted; booleans as 0/1.

    Cells run in ascending i, then j; h = g_c(i) + g_t(j) prints as %.9g,
    and accepted is h < threshold on the double, not its printed digits.
    Whole rows of about 4,096 cells at a time are laid out as one byte
    matrix, a line per cell with 0 bytes as padding, and written with the
    padding dropped. h is formatted by ``_h_fields``: in numpy from its
    correctly rounded 9 digits when it prints in fixed notation and is
    clear of a rounding tie, else by Python's %.9g (0, h < 1e-4, h >= 1e9,
    and the few cells within 1e-6 of a tie or at a decade edge).
    """
    stream.write("i,j,h,accepted\n")
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
        stream.write(block.tobytes().translate(None, b"\0").decode("ascii"))
