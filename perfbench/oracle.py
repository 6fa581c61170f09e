"""Reference computations that check quantdiff's outputs independently.

Everything here uses numpy and scipy only and never imports quantdiff.
Each function restates a published definition:

* the conservative interval is (min, max) of y_t(j) - y_c(i) over every
  count pair (i, j), both >= 1, with H(i, j) = g_c(i) + g_t(j) strictly
  below the chi-square(1) critical value; g is the per-sample deficit,
  exact (-2 log pmf ratio to the binomial mode) or asymptotic (the normal
  quadratic form);
* the LR test maximizes the joint binomial likelihood over every count
  pair reachable by some tau under the shift d;
* the two-step, one-sample, Price-Bonett and Donner-Zou intervals follow
  their closed forms with normal-approximation indexes rounded outward.

Float comparisons against the acceptance threshold use a margin ``EPS``:
a pair within it of the threshold may fall either way, so interval checks
accept anything between the strict and the loose accepted sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import stats

EPS = 1e-9
METHODS = ("lr_conservative", "lr_two_step", "price_bonnet", "donner_zou")


def chi2_crit(alpha: float) -> float:
    return float(stats.chi2.isf(alpha, 1))


def z_value(alpha: float) -> float:
    return float(stats.norm.ppf(1.0 - alpha / 2.0))


def mode_index(q: float, n: int) -> int:
    """Mode of Binomial(n, q): floor(q (n + 1)), clamped into [0, n]."""
    return min(max(math.floor(q * (n + 1)), 0), n)


def default_exact(n_c: int, n_t: int) -> bool:
    """quantdiff's documented default: exact statistic when max(N) <= 10,000."""
    return max(n_c, n_t) <= 10_000


@lru_cache(maxsize=16)
def log_pmf(n: int, q: float) -> np.ndarray:
    """ln P(X = i) for i in 0..n, X ~ Binomial(n, q)."""
    return stats.binom.logpmf(np.arange(n + 1), n, q)


@lru_cache(maxsize=16)
def deficits(n: int, q: float, exact: bool) -> np.ndarray:
    """Per-sample H contribution g(i) for every count i in 0..n."""
    if exact:
        lp = log_pmf(n, q)
        return np.maximum(-2.0 * (lp - lp[mode_index(q, n)]), 0.0)
    i = np.arange(n + 1, dtype=float)
    return (i - n * q) ** 2 / (n * q * (1.0 - q))


# ---------------------------------------------------------------- region


def _quadratic_rows(n_c: int, n_t: int, q: float, limit: float):
    """Accepted j-span per row under the asymptotic statistic.

    Each row's budget b = limit - g_c(i) is solved for (j - n_t q)^2 < b v_t
    with a square root, then the two candidate edges are verified against
    the quadratic itself, which removes any rounding error of the root.
    """
    g_c = deficits(n_c, q, False)
    rows = np.flatnonzero(g_c < limit)
    budget = limit - g_c[rows]
    center, var = n_t * q, n_t * q * (1.0 - q)
    half = np.sqrt(budget * var)
    lo = np.floor(center - half).astype(np.int64) + 1
    hi = np.ceil(center + half).astype(np.int64) - 1

    def g_t(j):
        return (j - center) ** 2 / var

    lo -= (g_t(lo - 1) < budget).astype(np.int64)
    lo += (g_t(lo) >= budget).astype(np.int64)
    hi += (g_t(hi + 1) < budget).astype(np.int64)
    hi -= (g_t(hi) >= budget).astype(np.int64)
    lo = np.maximum(lo, 0)
    hi = np.minimum(hi, n_t)
    keep = lo <= hi
    return rows[keep], lo[keep], hi[keep]


def _grid_rows(n_c: int, n_t: int, q: float, limit: float, exact: bool):
    """Accepted j-span per row, read off the full (n_c+1) x (n_t+1) grid."""
    mask = deficits(n_c, q, exact)[:, None] + deficits(n_t, q, exact)[None, :] < limit
    rows = np.flatnonzero(mask.any(axis=1))
    lo = mask[rows].argmax(axis=1)
    hi = n_t - mask[rows, ::-1].argmax(axis=1)
    return rows, lo, hi


@lru_cache(maxsize=32)
def accepted_rows(n_c: int, n_t: int, q: float, limit: float, exact: bool):
    """(i, j_lo, j_hi) for every row with accepted cells, H < limit.

    The region depends on sizes and level only, so it is cached. Only the
    first and last accepted j of a row enter the interval.
    """
    if exact:
        return _grid_rows(n_c, n_t, q, limit, exact)
    return _quadratic_rows(n_c, n_t, q, limit)


def accepted_count(n_c: int, n_t: int, q: float, limit: float, exact: bool) -> int:
    _, lo, hi = accepted_rows(n_c, n_t, q, limit, exact)
    return int(np.sum(hi - lo + 1))


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float
    flags: frozenset


def _conservative_at(y_c, y_t, q, limit, exact) -> Interval | None:
    rows, lo, hi = accepted_rows(len(y_c), len(y_t), q, limit, exact)
    clamped = bool((rows == 0).any() or (lo == 0).any())
    lo = np.maximum(lo, 1)
    usable = (rows >= 1) & (lo <= hi)
    if not usable.any():
        return None
    y_ci = y_c[rows[usable] - 1]
    lower = float(np.min(y_t[lo[usable] - 1] - y_ci))
    upper = float(np.max(y_t[hi[usable] - 1] - y_ci))
    return Interval(lower, upper, frozenset({"clamped_index"}) if clamped else frozenset())


def conservative_bounds(y_c, y_t, q, alpha, exact):
    """(strict, loose) conservative intervals at threshold -/+ EPS."""
    thr = chi2_crit(alpha)
    return (
        _conservative_at(y_c, y_t, q, thr - EPS, exact),
        _conservative_at(y_c, y_t, q, thr + EPS, exact),
    )


def check_conservative(got: Interval, y_c, y_t, q, alpha, exact) -> list[str]:
    strict, loose = conservative_bounds(y_c, y_t, q, alpha, exact)
    if strict is None or loose is None:
        return ["oracle: conservative region has no usable pairs"]
    problems = []
    if not (loose.lower <= got.lower <= strict.lower):
        problems.append(f"conservative lower {got.lower!r} outside [{loose.lower!r}, {strict.lower!r}]")
    if not (strict.upper <= got.upper <= loose.upper):
        problems.append(f"conservative upper {got.upper!r} outside [{strict.upper!r}, {loose.upper!r}]")
    if got.flags not in (strict.flags, loose.flags):
        problems.append(f"conservative flags {sorted(got.flags)} != {sorted(strict.flags)}")
    return problems


# ------------------------------------------------------- closed-form CIs


def _outward(center: float, halfwidth: float, n: int) -> tuple[int, int, bool]:
    lo = math.floor(center - halfwidth)
    hi = math.ceil(center + halfwidth)
    return max(lo, 1), min(hi, n), lo < 1 or hi > n


def two_step(y_c, y_t, q, alpha) -> Interval:
    """Two-step interval: equal-slope indexes, slope estimates, slope-aware indexes."""
    n_c, n_t, z = len(y_c), len(y_t), z_value(alpha)
    pq = n_c * n_t * q * (1.0 - q)

    def quad(denom_i, denom_j):
        i_m, i_p, ci = _outward(n_c * q, z * math.sqrt(pq / denom_i), n_c)
        j_m, j_p, cj = _outward(n_t * q, z * math.sqrt(pq / denom_j), n_t)
        collapsed = i_m == i_p or j_m == j_p
        return (i_m, i_p, j_m, j_p), ci or cj, collapsed

    quad1, clamp1, collapsed1 = quad(n_c + n_t, n_c + n_t)
    if collapsed1:
        raise ValueError("step-1 indexes collapsed")
    i_m, i_p, j_m, j_p = quad1
    dy_c = y_c[i_p - 1] - y_c[i_m - 1]
    dy_t = y_t[j_p - 1] - y_t[j_m - 1]
    flags = set()
    chosen, clamp2 = quad1, False
    if dy_c <= 0.0 or dy_t <= 0.0:
        flags.add("slope_fallback")
    else:
        m_c = ((i_p - i_m) / n_c) / dy_c
        m_t = ((j_p - j_m) / n_t) / dy_t
        quad2, clamp2, collapsed2 = quad(n_t + n_c * (m_c / m_t) ** 2, n_c + n_t * (m_t / m_c) ** 2)
        if collapsed2:
            flags.add("slope_fallback")
            clamp2 = False
        else:
            chosen = quad2
    if clamp1 or clamp2:
        flags.add("clamped_index")
    i_m, i_p, j_m, j_p = chosen
    return Interval(
        float(y_t[j_m - 1] - y_c[i_p - 1]), float(y_t[j_p - 1] - y_c[i_m - 1]), frozenset(flags)
    )


def one_sample(y, q, alpha) -> tuple[float, float, bool]:
    """Order-statistic CI for one quantile: N q +/- z sqrt(N q (1-q)), outward."""
    n = len(y)
    lo, hi, clamped = _outward(n * q, z_value(alpha) * math.sqrt(n * q * (1.0 - q)), n)
    if lo == hi:
        raise ValueError("one-sample indexes collapsed")
    return float(y[lo - 1]), float(y[hi - 1]), clamped


def point_estimate(y, q) -> float:
    """Midpoint of the flat likelihood maximum between adjacent order statistics."""
    k = mode_index(q, len(y))
    if k == 0:
        return float(y[0])
    if k == len(y):
        return float(y[-1])
    return 0.5 * (float(y[k - 1]) + float(y[k]))


def _baseline_parts(y_c, y_t, q, alpha):
    l_c, u_c, clamp_c = one_sample(y_c, q, alpha)
    l_t, u_t, clamp_t = one_sample(y_t, q, alpha)
    flags = frozenset({"clamped_index"}) if clamp_c or clamp_t else frozenset()
    return (l_c, u_c), (l_t, u_t), point_estimate(y_c, q), point_estimate(y_t, q), flags


def price_bonett(y_c, y_t, q, alpha) -> Interval:
    """Wald interval with each variance backed out of a one-sample CI width."""
    z = z_value(alpha)
    (l_c, u_c), (l_t, u_t), tau_c, tau_t, flags = _baseline_parts(y_c, y_t, q, alpha)
    var = ((u_c - l_c) / (2.0 * z)) ** 2 + ((u_t - l_t) / (2.0 * z)) ** 2
    half = z * math.sqrt(var)
    diff = tau_t - tau_c
    return Interval(diff - half, diff + half, flags)


def donner_zou(y_c, y_t, q, alpha) -> Interval:
    """MOVER interval combining the one-sample tail distances per endpoint."""
    (l_c, u_c), (l_t, u_t), tau_c, tau_t, flags = _baseline_parts(y_c, y_t, q, alpha)
    diff = tau_t - tau_c
    upper = diff + math.sqrt((u_t - tau_t) ** 2 + (tau_c - l_c) ** 2)
    lower = diff - math.sqrt((tau_t - l_t) ** 2 + (u_c - tau_c) ** 2)
    return Interval(lower, upper, flags)


CLOSED_FORMS = {"lr_two_step": two_step, "price_bonnet": price_bonett, "donner_zou": donner_zou}


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_interval(method: str, got: Interval, y_c, y_t, q, alpha, exact) -> list[str]:
    """Compare one library interval with the oracle's."""
    if method == "lr_conservative":
        return check_conservative(got, y_c, y_t, q, alpha, exact)
    want = CLOSED_FORMS[method](y_c, y_t, q, alpha)
    problems = []
    if not (_close(got.lower, want.lower) and _close(got.upper, want.upper)):
        problems.append(f"{method} ({got.lower!r}, {got.upper!r}) != ({want.lower!r}, {want.upper!r})")
    if got.flags != want.flags:
        problems.append(f"{method} flags {sorted(got.flags)} != {sorted(want.flags)}")
    return problems


# ------------------------------------------------------------------ LR test


@dataclass(frozen=True)
class LRResult:
    statistic: float
    p_value: float
    best_score: float
    pairs: np.ndarray  # (2, K) reachable (i, j) pairs
    scores: np.ndarray  # joint log-likelihood per reachable pair


def lr_test(y_c, y_t, q, d) -> LRResult:
    """Constrained maximum over every reachable (i, j) pair, one vectorized scan.

    A pair is reachable when some tau has i = #{y_c < tau} and
    j = #{y_t - d < tau}; one tau inside each gap between consecutive
    breakpoints, plus one beyond each end, visits all of them.
    """
    n_c, n_t = len(y_c), len(y_t)
    shifted = y_t - d
    points = np.unique(np.concatenate([y_c, shifted]))
    taus = np.concatenate([[points[0] - 1.0], 0.5 * (points[:-1] + points[1:]), [points[-1] + 1.0]])
    i = np.searchsorted(y_c, taus, side="left")
    j = np.searchsorted(shifted, taus, side="left")
    lp_c, lp_t = log_pmf(n_c, q), log_pmf(n_t, q)
    scores = lp_c[i] + lp_t[j]
    best = float(scores.max())
    peak = float(lp_c[mode_index(q, n_c)] + lp_t[mode_index(q, n_t)])
    stat = max(-2.0 * (best - peak), 0.0)
    return LRResult(stat, float(stats.chi2.sf(stat, 1)), best, np.stack([i, j]), scores)


def check_lr(record: dict, y_c, y_t, q, alpha, d) -> list[str]:
    """Compare a library LR-test record with the reachable-pair scan."""
    want = lr_test(y_c, y_t, q, d)
    problems = []
    tol = 1e-6 + 1e-9 * want.statistic
    if abs(record["statistic"] - want.statistic) > tol:
        problems.append(f"statistic {record['statistic']!r} != {want.statistic!r}")
    i_star, j_star = record["i_star"], record["j_star"]
    hit = np.flatnonzero((want.pairs[0] == i_star) & (want.pairs[1] == j_star))
    if hit.size == 0:
        problems.append(f"(i*, j*) = ({i_star}, {j_star}) is not reachable at d={d!r}")
    elif want.scores[hit[0]] < want.best_score - 1e-6:
        problems.append(f"(i*, j*) = ({i_star}, {j_star}) is not a likelihood maximizer")
    p_want = want.p_value
    if abs(record["p_value"] - p_want) > 1e-12 + 1e-5 * p_want:
        problems.append(f"p_value {record['p_value']!r} != {p_want!r}")
    thr = chi2_crit(alpha)
    if abs(want.statistic - thr) > tol and record["reject_at_alpha"] != (want.statistic >= thr):
        problems.append(f"reject_at_alpha {record['reject_at_alpha']} at statistic {want.statistic!r}")
    if record["d"] != d:
        problems.append(f"d {record['d']!r} != {d!r}")
    return problems


# ------------------------------------------------------------ region grid


def check_region(table: np.ndarray, n_c: int, n_t: int, q: float, alpha: float) -> list[str]:
    """Check an i,j,h,accepted table against g_c(i) + g_t(j).

    The rows must tile one rectangle in row-major order, every h must match,
    every accept flag must match H < chi2, every cell on the window's edge
    must be rejected (unless the edge is the grid's own boundary), and the
    window must hold every accepted pair of the full grid.
    """
    exact = default_exact(n_c, n_t)
    thr = chi2_crit(alpha)
    i, j, h, acc = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2], table[:, 3]
    i_lo, i_hi, j_lo, j_hi = int(i.min()), int(i.max()), int(j.min()), int(j.max())
    width = j_hi - j_lo + 1
    expect_i = np.repeat(np.arange(i_lo, i_hi + 1), width)
    expect_j = np.tile(np.arange(j_lo, j_hi + 1), i_hi - i_lo + 1)
    if i.size != expect_i.size or not (np.array_equal(i, expect_i) and np.array_equal(j, expect_j)):
        return ["region rows do not tile the window in row-major order"]
    problems = []
    want = deficits(n_c, q, exact)[i] + deficits(n_t, q, exact)[j]
    bad = np.abs(h - want) > 1e-8 * np.maximum(1.0, want)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        problems.append(f"h at ({i[k]}, {j[k]}) is {h[k]!r}, want {want[k]!r}")
    clear = np.abs(want - thr) > EPS
    if not np.array_equal((acc == 1)[clear], (want < thr)[clear]):
        problems.append("accepted flags disagree with H < chi2")
    edge = np.zeros(i.size, dtype=bool)
    if i_lo > 0:
        edge |= i == i_lo
    if i_hi < n_c:
        edge |= i == i_hi
    if j_lo > 0:
        edge |= j == j_lo
    if j_hi < n_t:
        edge |= j == j_hi
    if (acc[edge] != 0).any():
        problems.append("an accepted cell lies on the window's edge")
    n_acc = int(np.count_nonzero(acc == 1))
    lo_count = accepted_count(n_c, n_t, q, thr - EPS, exact)
    hi_count = accepted_count(n_c, n_t, q, thr + EPS, exact)
    if not lo_count <= n_acc <= hi_count:
        problems.append(f"window holds {n_acc} accepted pairs, full grid has {lo_count}")
    return problems


# ---------------------------------------------------------- coverage study


@dataclass(frozen=True)
class Scenario:
    """One coverage-study setting in the terms of `quantdiff simulate`."""

    family: str  # "normal" or "lognormal"
    mu: float
    sigma: float
    n: int
    q: float
    alpha: float
    replications: int
    seed: int

    @property
    def dist(self) -> str:
        return f"{self.family}({self.mu:g},{self.sigma:g})"


def draw_pair(sc: Scenario, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Replication r's sorted arms from the documented Philox substream.

    quantdiff documents the stream as Philox seeded by
    SeedSequence(entropy=(master_seed, r)), control drawn before treatment.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(sc.seed, r))))
    draw = rng.normal if sc.family == "normal" else rng.lognormal
    return np.sort(draw(sc.mu, sc.sigma, size=sc.n)), np.sort(draw(sc.mu, sc.sigma, size=sc.n))


def true_delta(sc: Scenario) -> float:
    """Both arms share one distribution in every benchmark scenario."""
    return 0.0


def replication(sc: Scenario, r: int) -> tuple[dict, bool]:
    """Oracle intervals for replication r, and whether the LR test rejects at the true d."""
    y_c, y_t = draw_pair(sc, r)
    exact = default_exact(sc.n, sc.n)
    strict, loose = conservative_bounds(y_c, y_t, sc.q, sc.alpha, exact)
    if strict != loose:
        raise ValueError(f"replication {r}: a pair sits within {EPS} of the threshold")
    intervals = {"lr_conservative": strict}
    for method, fn in CLOSED_FORMS.items():
        intervals[method] = fn(y_c, y_t, sc.q, sc.alpha)
    lr = lr_test(y_c, y_t, sc.q, true_delta(sc))
    return intervals, lr.statistic >= chi2_crit(sc.alpha)


def coverage_rows(sc: Scenario) -> dict[str, dict[str, float]]:
    """Coverage, mean width, rejection rate and MC standard error per method."""
    contained = dict.fromkeys(METHODS, 0)
    widths = dict.fromkeys(METHODS, 0.0)
    rejected = 0
    delta = true_delta(sc)
    for r in range(sc.replications):
        intervals, rejects = replication(sc, r)
        rejected += rejects
        for method in METHODS:
            ci = intervals[method]
            contained[method] += ci.lower <= delta <= ci.upper
            widths[method] += ci.upper - ci.lower
    rows = {}
    for method in METHODS:
        cov = contained[method] / sc.replications
        rows[method] = {
            "coverage": cov,
            "mean_width": widths[method] / sc.replications,
            "reject_rate": rejected / sc.replications,
            "mc_stderr": math.sqrt(cov * (1.0 - cov) / sc.replications),
            "failures": 0,
        }
    return rows
