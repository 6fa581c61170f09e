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
from .errors import ConsistencyError, DegenerateRegionError, NumericOverflowError, ValidationError
from .likelihood import asymptotic_deficit, chi2_quantile_1df, chi2_sf_1df, deficits


@dataclass(frozen=True)
class LRTestResult:
    """Outcome of the LR test of tau_{q,t} = tau_{q,c} + d."""

    d: float
    statistic: float
    p_value: float
    i_star: int
    j_star: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_value <= 1.0):
            raise ConsistencyError(f"p-value {self.p_value} outside [0, 1]")
        if self.statistic == 0.0 and abs(self.p_value - 1.0) > 1e-9:
            raise ConsistencyError("zero statistic must give p-value 1")

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

    Over several rows this is one binary search over all keys at once, so
    a block costs log2(n) array steps rather than a call per row; a single
    row, as in the one-pair functions, takes numpy's own search.
    """
    if len(block) == 1:
        return np.searchsorted(block[0], keys, side=side)
    n = block.shape[1]
    lo = np.zeros(keys.shape, dtype=np.intp)
    hi = np.full(keys.shape, n, dtype=np.intp)
    for _ in range(n.bit_length()):
        mid = (lo + hi) >> 1
        value = block[row, np.minimum(mid, n - 1)]
        right = value < keys if side == "left" else value <= keys
        searching = lo < hi
        lo = np.where(searching & right, mid + 1, lo)
        hi = np.where(searching & ~right, mid, hi)
    return lo


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
    if not (0.0 < q < 1.0):
        raise ValidationError(f"q must lie in (0, 1), got {q!r}")
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


def constrained_max_indexes(
    control: OrderedSample, treatment: OrderedSample, q: float, d: float
) -> tuple[int, int]:
    """Counts (i*, j*) maximizing h(i|q,N_c) * h(j|q,N_t) under the shift d.

    i and j are linked through tau: i counts control values below tau and
    j counts treatment values below tau + d. Ties in likelihood resolve to
    the candidate with the smallest i (then smallest j): the first maximum
    in ascending tau.
    """
    i, j, _ = _constrained_max_rows(control.values[None], treatment.values[None], q, d)
    return int(i[0]), int(j[0])


def lr_rejections(y_c: np.ndarray, y_t: np.ndarray, spec: QuantileSpec, d: float) -> np.ndarray:
    """``lr_test(...).rejects_at(spec.alpha)`` for each row pair of sorted blocks."""
    return _constrained_max_rows(y_c, y_t, spec.q, d)[2] >= chi2_quantile_1df(spec.alpha)


def lr_test(
    control: OrderedSample, treatment: OrderedSample, spec: QuantileSpec, d: float
) -> LRTestResult:
    """LR test of the hypothesis that the treatment q-quantile exceeds the
    control q-quantile by exactly d.

    The statistic is the exact H at the constrained maximizer; under the
    null it is asymptotically chi-square with one degree of freedom, so
    the p-value is that distribution's tail beyond the statistic.
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
    region = _region(y_c.shape[1], y_t.shape[1], spec, use_exact)
    i, j_first, j_last = region.accepted_i, region.j_first, region.j_last
    clamped = bool((i == 0).any() or (j_first == 0).any())
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
    from the extremes and reported through the clamped_index flag.

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


def write_acceptance_grid_csv(grid: AcceptanceGrid, stream: IO[str]) -> None:
    """Serialize a grid as CSV: header i,j,h,accepted; booleans as 0/1.

    Cells run in ascending i, then j; h = g_c(i) + g_t(j) prints as %.9g,
    and accepted is h < threshold on the double, not its printed digits.
    Every row spans the same j window, so each j's two cell texts (all but
    i) are built once; a row picks one per cell by a single comparison,
    joins them with its i and is formatted by one %.
    """
    stream.write("i,j,h,accepted\n")
    js = range(grid.j_lo, grid.j_lo + grid.g_t.size)
    rejected = np.array([f",{j},%.9g,0\n" for j in js], dtype=object)
    accepted = np.array([f",{j},%.9g,1\n" for j in js], dtype=object)
    for i, g in enumerate(grid.g_c.tolist(), start=grid.i_lo):
        hs = g + grid.g_t
        i_field = str(i)
        row = i_field + i_field.join(np.where(hs < grid.threshold, accepted, rejected))
        stream.write(row % tuple(hs.tolist()))
