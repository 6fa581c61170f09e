"""Constrained maximization, the LR hypothesis test, and the region CI.

The hypothesis tau_{q,t} = tau_{q,c} + d couples the two samples through a
single scalar tau. Because both count functions i(tau) = #{y_c < tau} and
j(tau) = #{y_t < tau + d} are step functions, the constrained likelihood
maximum is found by a line search over the finitely many intervals between
breakpoints, restricted to the closed span between the two unconstrained
optima.

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
from typing import IO, Iterator

import numpy as np

from .core import ConfidenceInterval, Method, OrderedSample, QuantileSpec, max_likelihood_index
from .errors import ConsistencyError, DegenerateRegionError, ValidationError
from .likelihood import (
    asymptotic_deficit,
    chi2_quantile_1df,
    chi2_sf_1df,
    log_binomial_pmf,
    lr_statistic_exact,
)


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

    def h_rows(self) -> Iterator[tuple[int, list[float]]]:
        """(i, H over the j window) for each window row, in ascending i."""
        for offset, g in enumerate(self.g_c.tolist()):
            yield self.i_lo + offset, (g + self.g_t).tolist()

    @property
    def rows(self) -> list[tuple[int, int, float, bool]]:
        """(i, j, h, accepted) for every window cell, row-major (i, then j)."""
        js = range(self.j_lo, self.j_lo + self.g_t.size)
        return [
            (i, j, h, h < self.threshold) for i, hs in self.h_rows() for j, h in zip(js, hs)
        ]


def _log_pmfs(counts: np.ndarray, q: float, n: int) -> np.ndarray:
    """log_binomial_pmf at each count, computed once per distinct count."""
    distinct, inverse = np.unique(counts, return_inverse=True)
    values = np.array([log_binomial_pmf(k, q, n) for k in distinct.tolist()])
    return values[inverse]


def constrained_max_indexes(
    control: OrderedSample, treatment: OrderedSample, q: float, d: float
) -> tuple[int, int]:
    """Counts (i*, j*) maximizing h(i|q,N_c) * h(j|q,N_t) under the shift d.

    i and j are linked through tau: i counts control values below tau and
    j counts treatment values below tau + d. Ties in likelihood resolve to
    the candidate with the smallest i (then smallest j): the first maximum
    in ascending tau.
    """
    if not (0.0 < q < 1.0):
        raise ValidationError(f"q must lie in (0, 1), got {q!r}")
    if not math.isfinite(d):
        raise ValidationError(f"shift d must be finite, got {d!r}")
    n_c, n_t = control.n, treatment.n
    k_c = max_likelihood_index(q, n_c)
    k_t = max_likelihood_index(q, n_t)

    y_c = control.values
    y_t_shifted = treatment.values - d

    # tau-intervals on which each sample attains its unconstrained optimum.
    lo_c = y_c[k_c - 1] if k_c >= 1 else -math.inf
    hi_c = y_c[k_c] if k_c <= n_c - 1 else math.inf
    lo_t = y_t_shifted[k_t - 1] if k_t >= 1 else -math.inf
    hi_t = y_t_shifted[k_t] if k_t <= n_t - 1 else math.inf

    if max(lo_c, lo_t) < min(hi_c, hi_t):
        # The optima overlap: the constraint binds nowhere and H = 0.
        return k_c, k_t

    span_lo = min(lo_c, lo_t)
    span_hi = max(hi_c, hi_t)
    points = np.unique(np.concatenate([y_c, y_t_shifted]))
    # Inclusive index range of breakpoints inside the span. Finite span
    # edges are themselves breakpoints, so the range is never empty.
    first = int(np.searchsorted(points, span_lo, side="left"))
    last = int(np.searchsorted(points, span_hi, side="right")) - 1

    # One candidate per open interval inside the span, plus the interval
    # just outside each span edge. The outside intervals are dominated
    # whenever the optimum regions are nonempty, but with heavily tied
    # values a region can be an empty interval and the maximizer can sit
    # immediately beyond the edge.
    below = points[0] - 1.0 if first == 0 else 0.5 * (points[first - 1] + points[first])
    above = points[-1] + 1.0 if last == points.size - 1 else 0.5 * (points[last] + points[last + 1])
    taus = np.concatenate(
        [[below], 0.5 * (points[first:last] + points[first + 1 : last + 1]), [above]]
    )
    i = np.searchsorted(y_c, taus, side="left")
    j = np.searchsorted(y_t_shifted, taus, side="left")
    best = int(np.argmax(_log_pmfs(i, q, n_c) + _log_pmfs(j, q, n_t)))
    return int(i[best]), int(j[best])


def lr_test(
    control: OrderedSample, treatment: OrderedSample, spec: QuantileSpec, d: float
) -> LRTestResult:
    """LR test of the hypothesis that the treatment q-quantile exceeds the
    control q-quantile by exactly d.

    The statistic is the exact H at the constrained maximizer; under the
    null it is asymptotically chi-square with one degree of freedom, so
    the p-value is that distribution's tail beyond the statistic.
    """
    i_star, j_star = constrained_max_indexes(control, treatment, spec.q, d)
    stat = lr_statistic_exact(i_star, j_star, spec, control.n, treatment.n)
    return LRTestResult(
        d=d,
        statistic=stat.value,
        p_value=chi2_sf_1df(stat.value),
        i_star=i_star,
        j_star=j_star,
    )


def _window_deficits(q: float, n: int, threshold: float, exact: bool) -> tuple[int, np.ndarray]:
    """Origin lo and deficits g(lo..hi) of a window holding every accepted count.

    Starts from the bounding box of the asymptotic ellipse plus one index
    of slack. Under the exact statistic the deficit tails decay more
    slowly, so the edges move outward until the edge count itself is
    rejected; unimodality of the deficit makes that a proof that nothing
    beyond the edge is accepted.
    """
    center = n * q
    halfwidth = math.sqrt(threshold * n * q * (1.0 - q)) + 1.0
    lo = max(math.ceil(center - halfwidth), 0)
    hi = min(math.floor(center + halfwidth), n)
    if not exact:
        return lo, asymptotic_deficit(np.arange(lo, hi + 1), q, n)
    peak = log_binomial_pmf(max_likelihood_index(q, n), q, n)

    def g(i: int) -> float:
        return -2.0 * (log_binomial_pmf(i, q, n) - peak)

    while lo > 0 and g(lo) < threshold:
        lo -= 1
    while hi < n and g(hi) < threshold:
        hi += 1
    return lo, np.maximum(-2.0 * (_log_pmfs(np.arange(lo, hi + 1), q, n) - peak), 0.0)


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
    region = _region(control.n, treatment.n, spec, use_exact)
    i, j_first, j_last = region.accepted_i, region.j_first, region.j_last
    clamped = bool((i == 0).any() or (j_first == 0).any())
    j_first = np.maximum(j_first, 1)
    usable = (i > 0) & (j_first <= j_last)
    if not usable.any():
        raise DegenerateRegionError(
            "acceptance region contains no index pairs with defined order statistics"
        )
    y_c = control.values[i[usable] - 1]
    lows = treatment.values[j_first[usable] - 1] - y_c
    highs = treatment.values[j_last[usable] - 1] - y_c
    # argmin/argmax return the first of equal extremes (+0.0 and -0.0, say),
    # so the sign of a zero endpoint does not depend on numpy's reduction order.
    return ConfidenceInterval(
        lower=float(lows[lows.argmin()]),
        upper=float(highs[highs.argmax()]),
        alpha=spec.alpha,
        method=Method.LR_CONSERVATIVE,
        flags=frozenset({"clamped_index"}) if clamped else frozenset(),
    )


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
    """Serialize a grid as CSV: header i,j,h,accepted; booleans as 0/1."""
    stream.write("i,j,h,accepted\n")
    j_fields = [f",{j}," for j in range(grid.j_lo, grid.j_lo + grid.g_t.size)]
    threshold = grid.threshold
    for i, hs in grid.h_rows():
        i_field = str(i)
        stream.write(
            "".join(
                [
                    f"{i_field}{j}{h:.9g},{'1' if h < threshold else '0'}\n"
                    for j, h in zip(j_fields, hs)
                ]
            )
        )
