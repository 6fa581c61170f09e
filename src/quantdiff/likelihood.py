"""Binomial quantile likelihood, the LR statistic, and reference quantiles.

The statistic is a sum of two per-sample deficits. ``deficits`` is the
one copy of the exact deficit and the one place that clamps rounding
noise below zero; it and ``asymptotic_deficit`` take a count or an array
of counts. Likelihood values are handled in natural-log space throughout,
since binomial coefficients overflow doubles for sample sizes in the low
thousands.

Every log-pmf comes from one array kernel in Loader's saddle-point form
(C. Loader, "Fast and Accurate Computation of Binomial Probabilities",
2000; R's ``dbinom``). It splits log p(k) into Stirling-series errors,
which are small, and the deviance terms bd0, which a series takes where
k is near its mean, so no term is a difference of large logs. A deficit
is then within about 1e-11 of a 50-digit reference at n = 1e8, where
differences of ``lgamma`` values were off by up to 1e-6.

The normal inverse CDF is a rational approximation (Acklam's coefficients)
polished with one Halley step, giving errors near machine precision with
no dependency beyond ``math``. Chi-square(1) quantiles and tail
probabilities derive from it through the identity chi2(1) = Z**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import QuantileSpec, max_likelihood_index
from .errors import ConsistencyError, DomainError, IndexOutOfRangeError

# Largest negative LR value attributed to rounding noise; anything more
# negative means a broken invariant, not floating-point slack.
_LR_SLACK = 1e-9


def log_binomial_pmf(i: int, q: float, n: int) -> float:
    """Natural log of the binomial pmf C(n, i) * q**i * (1-q)**(n-i).

    Parameters
    ----------
    i : int
        Number of successes, 0 <= i <= n.
    q : float
        Success probability, strictly inside (0, 1).
    n : int
        Number of trials, n >= 1.

    Returns
    -------
    float
        ln P(X = i) for X ~ Binomial(n, q), always finite for q in (0, 1).
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q!r}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if i < 0 or i > n:
        raise IndexOutOfRangeError(f"count i={i} outside [0, {n}]")
    return float(_log_pmf(np.array([i]), q, n)[0])


# stirlerr(k) = log(k!) - log(sqrt(2 pi k) (k / e)**k) for k = 0..15; the
# entry at 0 is a placeholder, as k = 0 never reaches the general form.
_STIRLERR = np.array(
    [
        0.0,
        0.08106146679532726,
        0.0413406959554093,
        0.02767792568499834,
        0.020790672103765093,
        0.016644691189821193,
        0.013876128823070748,
        0.01189670994589177,
        0.010411265261972096,
        0.009255462182712733,
        0.00833056343336287,
        0.007573675487951841,
        0.00694284010720953,
        0.006408994188004207,
        0.0059513701127588475,
        0.005554733551962801,
    ]
)
# Coefficients of the Stirling series 1/(12k) - 1/(360k^3) + 1/(1260k^5) - ...
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188
# Coefficients 1/(2j+1) of the bd0 series for j = 8 down to 1, for Horner's rule.
_BD0_SERIES = tuple(1.0 / (2 * j + 1) for j in range(8, 0, -1))


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """stirlerr(k) for a float array of counts k >= 1: the table up to 15, the series above."""
    kk = k * k
    series = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / k
    return np.where(k <= 15, _STIRLERR[np.minimum(k, 15).astype(np.intp)], series)


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """bd0(x, m) = x log(x / m) + m - x for x, m > 0, the deviance of x from mean m.

    Where |x - m| < 0.1 (x + m), the closed form cancels; there it is the
    series (x - m) v + 2 x sum_j v**(2j+1) / (2j+1) with v = (x - m) / (x + m),
    whose eight terms reach double precision since v**2 < 0.01.
    """
    d = x - m
    v = d / (x + m)
    u = v * v
    poly = _BD0_SERIES[0]
    for c in _BD0_SERIES[1:]:
        poly = poly * u + c
    series = d * v + 2.0 * x * v * u * poly
    return np.where(np.abs(v) < 0.1, series, x * np.log(x / m) - d)


def _log_pmf(counts: np.ndarray, q: float, n: int) -> np.ndarray:
    """log p(k) of Binomial(n, q) for each count of an integer array, in Loader's form.

    Inside (0, n) it is stirlerr(n) - (stirlerr(k) + stirlerr(n-k))
    - (bd0(k, nq) + bd0(n-k, n(1-q))) + log(n / (2 pi k (n-k))) / 2; the
    paired terms are sums, so q = 0.5 gives the same value at k and n-k
    to the bit. k = 0 and k = n take the closed forms.
    """
    k = np.asarray(counts, dtype=float)
    out = np.where(k == 0, n * math.log1p(-q), n * math.log(q))
    inner = np.flatnonzero((k > 0) & (k < n))
    if inner.size:
        k = k[inner]
        m = k.size
        r = n - k
        st = _stirlerr(np.concatenate((k, r, [n])))
        dev = _bd0(np.concatenate((k, r)), np.repeat((n * q, n * (1.0 - q)), m))
        out[inner] = (
            st[-1]
            - (st[:m] + st[m:-1])
            - (dev[:m] + dev[m:])
            + 0.5 * np.log(n / (2.0 * math.pi * (k * r)))
        )
    return out


@dataclass(frozen=True)
class LRStatistic:
    """Value of the likelihood-ratio statistic H at a grid point (i, j).

    ``exact`` distinguishes the exact binomial form from the asymptotic
    quadratic (de Moivre-Laplace) form.
    """

    value: float
    i_star: int
    j_star: int
    exact: bool


def deficits(counts, q: float, n: int):
    """Deficit g(k) = -2 (log h(k|q,n) - log h(mode|q,n)) of each count, zero at the mode.

    The mode is floor(q*(n+1)). ``counts`` is a count or an integer array
    of counts; the kernel runs once per distinct count. A deficit is
    never negative: one that rounds below zero, at a count whose pmf ties
    the mode's, is +0.0, and one below -``_LR_SLACK`` raises
    :class:`ConsistencyError`, since it means a broken invariant.
    """
    distinct, inverse = np.unique(counts, return_inverse=True)
    values = _log_pmf(np.append(distinct, max_likelihood_index(q, n)), q, n)
    g = -2.0 * (values[:-1] - values[-1])
    if g.min() < -_LR_SLACK:
        raise ConsistencyError(f"deficit {g.min()} below -{_LR_SLACK}; likelihood order violated")
    return np.where(g <= 0.0, 0.0, g)[inverse]


def _lr_statistic(deficit, i: int, j: int, spec: QuantileSpec, n_c: int, n_t: int, exact: bool):
    """LRStatistic of deficit(i | q, n_c) + deficit(j | q, n_t) after the size and count checks."""
    if n_c < 1 or n_t < 1:
        raise DomainError("sample sizes must be >= 1")
    if i < 0 or i > n_c:
        raise IndexOutOfRangeError(f"count i={i} outside [0, {n_c}]")
    if j < 0 or j > n_t:
        raise IndexOutOfRangeError(f"count j={j} outside [0, {n_t}]")
    value = float(deficit(i, spec.q, n_c) + deficit(j, spec.q, n_t))
    return LRStatistic(value=value, i_star=i, j_star=j, exact=exact)


def lr_statistic_exact(i: int, j: int, spec: QuantileSpec, n_c: int, n_t: int) -> LRStatistic:
    """Exact LR statistic H(i, j | q, n_c, n_t), the sum of two :func:`deficits`.

    H is -2 times the log of the ratio between the joint likelihood at
    counts (i, j) and the unconstrained maximum, which sits at the counts
    floor(q*(n+1)) for each sample. Zero iff (i, j) is that maximizer.
    Counts outside [0, n] raise :class:`IndexOutOfRangeError`.
    """
    return _lr_statistic(deficits, i, j, spec, n_c, n_t, exact=True)


def lr_statistic_asymptotic(i: int, j: int, spec: QuantileSpec, n_c: int, n_t: int) -> LRStatistic:
    """Large-sample quadratic form replacing the exact H.

    Applies the normal limit of the binomial to each sample:
    (i - n_c q)^2 / (n_c q (1-q)) + (j - n_t q)^2 / (n_t q (1-q)).
    Counts outside [0, n] raise :class:`IndexOutOfRangeError`.
    """
    return _lr_statistic(asymptotic_deficit, i, j, spec, n_c, n_t, exact=False)


def asymptotic_deficit(i, q: float, n: int):
    """One sample's term (i - n q)^2 / (n q (1-q)) of the asymptotic statistic.

    ``i`` is a count or an integer array of counts; no domain checks. The
    square is a product, so a count and an array of counts round alike.
    """
    d = i - n * q
    return d * d / (n * q * (1.0 - q))


# Acklam's rational approximation to the standard normal inverse CDF.
_PPF_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_PPF_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_PPF_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_PPF_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_PPF_P_LOW = 0.02425
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _ppf_tail(u: float) -> float:
    # u = sqrt(-2 ln p_tail); returns the (negative) lower-tail branch.
    a, b, c, d, e, f = _PPF_C
    num = ((((a * u + b) * u + c) * u + d) * u + e) * u + f
    g, h, k, m = _PPF_D
    den = (((g * u + h) * u + k) * u + m) * u + 1.0
    return num / den


def normal_quantile(p: float) -> float:
    """Standard normal inverse CDF, accurate to roughly 1e-15.

    Rational approximation followed by one Halley refinement of
    Phi(x) - p = 0; the refinement is skipped in the far tails where
    exp(x*x/2) would overflow (|x| > 37, i.e. p below ~1e-300, where the
    raw approximation is already adequate).
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0, 1), got {p!r}")
    if p < _PPF_P_LOW:
        x = _ppf_tail(math.sqrt(-2.0 * math.log(p)))
    elif p > 1.0 - _PPF_P_LOW:
        x = -_ppf_tail(math.sqrt(-2.0 * math.log1p(-p)))
    else:
        r = p - 0.5
        s = r * r
        a, b, c, d, e, f = _PPF_A
        num = (((((a * s + b) * s + c) * s + d) * s + e) * s + f) * r
        g, h, k, m, t = _PPF_B
        den = ((((g * s + h) * s + k) * s + m) * s + t) * s + 1.0
        x = num / den
    if abs(x) < 37.0:
        err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
        u = err * _SQRT_2PI * math.exp(0.5 * x * x)
        x = x - u / (1.0 + 0.5 * x * u)
    return x


def two_sided_z(alpha: float) -> float:
    """The two-sided critical value: the standard normal quantile at 1 - alpha/2."""
    return normal_quantile(1.0 - alpha / 2.0)


def chi2_quantile_1df(alpha: float) -> float:
    """Upper-alpha critical value of chi-square with one degree of freedom.

    P(chi2(1) > c) = alpha at the returned c; computed as the square of
    the standard normal upper alpha/2 quantile.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    z = two_sided_z(alpha)
    return z * z


def chi2_sf_1df(x: float) -> float:
    """Survival function P(chi2(1) > x) = 2 (1 - Phi(sqrt(x))) = erfc(sqrt(x/2))."""
    if x < 0.0:
        raise DomainError(f"x must be >= 0, got {x!r}")
    return math.erfc(math.sqrt(0.5 * x))
