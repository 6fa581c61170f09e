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

The normal inverse CDF is Wichura's AS241, evaluated here bit for bit as
the standard library's ``statistics.NormalDist().inv_cdf`` evaluates it,
and the two-sided critical value takes it in the lower tail, at alpha/2.
Through chi2(1) = Z**2 the chi-square(1) quantile is that value squared,
and its tail probability is erfc(sqrt(x/2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    QuantileSpec,
    _check_alpha,
    _check_probability,
    _check_q,
    _check_sizes,
    max_likelihood_index,
)
from .errors import ConsistencyError, DomainError, IndexOutOfRangeError

# Largest negative LR value attributed to rounding noise; anything more
# negative means a broken invariant, not floating-point slack.
_LR_SLACK = 1e-9


def _check_count(name: str, k: int, n: int) -> None:
    if k < 0 or k > n:
        raise IndexOutOfRangeError(f"count {name}={k} outside [0, {n}]")


def log_binomial_pmf(i: int, q: float, n: int) -> float:
    """Natural log of the binomial pmf C(n, i) * q**i * (1-q)**(n-i).

    Parameters
    ----------
    i : int
        Number of successes, 0 <= i <= n.
    q : float
        Success probability, strictly inside (0, 1) and a normal double,
        as :class:`QuantileSpec` requires.
    n : int
        Number of trials, n >= 1.

    Returns
    -------
    float
        ln P(X = i) for X ~ Binomial(n, q), always finite for such q.
    """
    _check_q(q)
    _check_sizes(n)
    _check_count("i", i, n)
    return float(_log_pmf(np.array([i]), q, n)[0])


# stirlerr(k) = log(k!) - log(sqrt(2 pi k) (k / e)**k) for k = 0..15; the
# entry at 0 is a placeholder, as the general form never sees a count of 0.
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
    """log p(k) of Binomial(n, q) for each count of a 1-D integer array, in Loader's form.

    Inside (0, n) it is stirlerr(n) - (stirlerr(k) + stirlerr(n-k))
    - (bd0(k, nq) + bd0(n-k, n(1-q))) + log(n / (2 pi k (n-k))) / 2; the
    paired terms are sums, so q = 0.5 gives the same value at k and n-k
    to the bit. That form runs on every count, with 1 standing in for both
    k and n-k at an edge count, and k = 0 and k = n then take the closed forms.
    """
    k = np.asarray(counts, dtype=float)
    inner = (k > 0) & (k < n)
    x = np.where(inner, k, 1.0)
    r = np.where(inner, n - k, 1.0)
    m = x.size
    st = _stirlerr(np.concatenate((x, r, [n])))
    dev = _bd0(np.concatenate((x, r)), np.repeat((n * q, n * (1.0 - q)), m))
    log_p = st[-1] - (st[:m] + st[m:-1]) - (dev[:m] + dev[m:])
    log_p += 0.5 * np.log(n / (2.0 * math.pi * (x * r)))
    return np.where(inner, log_p, np.where(k == 0, n * math.log1p(-q), n * math.log(q)))


@dataclass(frozen=True)
class LRStatistic:
    """Value of the likelihood-ratio statistic H at a grid point (i, j)."""

    value: float


def deficits(counts, q: float, n: int):
    """Deficit g(k) = -2 (log h(k|q,n) - log h(mode|q,n)) of each count, zero at the mode.

    The mode is floor(q*(n+1)). ``counts`` is a count or an integer array
    of counts, and the result has its shape; the kernel runs once per count
    given. A deficit is never negative: one that rounds below zero, at a
    count whose pmf ties the mode's, is +0.0, and one below -``_LR_SLACK``
    raises :class:`ConsistencyError`, since it means a broken invariant.
    """
    values = _log_pmf(np.append(counts, max_likelihood_index(q, n)), q, n)
    g = -2.0 * (values[:-1] - values[-1])
    if g.min() < -_LR_SLACK:
        raise ConsistencyError(f"deficit {g.min()} below -{_LR_SLACK}; likelihood order violated")
    return np.where(g <= 0.0, 0.0, g).reshape(np.shape(counts))


def _lr_statistic(deficit, i: int, j: int, spec: QuantileSpec, n_c: int, n_t: int):
    """LRStatistic of deficit(i | q, n_c) + deficit(j | q, n_t) after the size and count checks."""
    _check_sizes(n_c, n_t)
    _check_count("i", i, n_c)
    _check_count("j", j, n_t)
    return LRStatistic(float(deficit(i, spec.q, n_c) + deficit(j, spec.q, n_t)))


def lr_statistic_exact(i: int, j: int, spec: QuantileSpec, n_c: int, n_t: int) -> LRStatistic:
    """Exact LR statistic H(i, j | q, n_c, n_t), the sum of two :func:`deficits`.

    H is -2 times the log of the ratio between the joint likelihood at
    counts (i, j) and the unconstrained maximum, which sits at the counts
    floor(q*(n+1)) for each sample. Zero iff (i, j) is that maximizer.
    Counts outside [0, n] raise :class:`IndexOutOfRangeError`.
    """
    return _lr_statistic(deficits, i, j, spec, n_c, n_t)


def lr_statistic_asymptotic(i: int, j: int, spec: QuantileSpec, n_c: int, n_t: int) -> LRStatistic:
    """Large-sample quadratic form replacing the exact H.

    Applies the normal limit of the binomial to each sample:
    (i - n_c q)^2 / (n_c q (1-q)) + (j - n_t q)^2 / (n_t q (1-q)).
    Counts outside [0, n] raise :class:`IndexOutOfRangeError`.
    """
    return _lr_statistic(asymptotic_deficit, i, j, spec, n_c, n_t)


def asymptotic_deficit(i, q: float, n: int):
    """One sample's term (i - n q)^2 / (n q (1-q)) of the asymptotic statistic.

    ``i`` is a count or an integer array of counts; no domain checks. The
    square is a product, so a count and an array of counts round alike.
    """
    d = i - n * q
    return d * d / (n * q * (1.0 - q))


# Wichura's AS241 with CPython's coefficients, highest power first:
# (numerator, denominator) in r = 0.180625 - (p - 0.5)**2 for
# |p - 0.5| <= 0.425; beyond that (shift, numerator, denominator) in
# r - shift, with r = sqrt(-log(min(p, 1 - p))) up to 5 and above 5.
_AS241_CENTRAL = (
    (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
     4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
     1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
    (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
     2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
     4.23133_30701_60091_1252e+1, 1.0),
)
_AS241_NEAR = (
    1.6,
    (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
     1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
     4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
    (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
     1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
     2.05319_16266_37758_82187e+0, 1.0),
)
_AS241_FAR = (
    5.0,
    (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
     2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
     5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
    (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
     7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
     5.99832_20655_58879_37690e-1, 1.0),
)


def _horner(coefficients: tuple[float, ...], r: float) -> float:
    value = coefficients[0]
    for c in coefficients[1:]:
        value = value * r + c
    return value


def normal_quantile(p: float) -> float:
    """Standard normal inverse CDF by Wichura's AS241.

    AS241 ("The percentage points of the normal distribution", Applied
    Statistics 37, 1988) is within about 1e-15 relative for every double p
    in (0, 1). The coefficients and the Horner order are CPython's, so the
    result equals ``statistics.NormalDist().inv_cdf(p)`` bit for bit
    without importing ``statistics``, which loads ``decimal`` and
    ``fractions``. Other p raise :class:`DomainError`.
    """
    _check_probability(p, "p")
    q = p - 0.5
    if math.fabs(q) <= 0.425:
        r = 0.180625 - q * q
        num, den = _AS241_CENTRAL
        return _horner(num, r) * q / _horner(den, r)
    r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
    shift, num, den = _AS241_NEAR if r <= 5.0 else _AS241_FAR
    x = _horner(num, r - shift) / _horner(den, r - shift)
    return -x if q < 0.0 else x


def two_sided_z(alpha: float) -> float:
    """Phi^-1(1 - alpha/2), taken as -Phi^-1(alpha/2): alpha/2 is exact where 1 - alpha/2 rounds."""
    return -normal_quantile(alpha / 2.0)


def chi2_quantile_1df(alpha: float) -> float:
    """Upper-alpha critical value of chi-square with one degree of freedom.

    P(chi2(1) > c) = alpha at the returned c; computed as the square of
    :func:`two_sided_z`, the standard normal upper alpha/2 quantile.
    """
    _check_alpha(alpha)
    z = two_sided_z(alpha)
    return z * z


def chi2_sf_1df(x: float) -> float:
    """Survival function P(chi2(1) > x) = 2 (1 - Phi(sqrt(x))) = erfc(sqrt(x/2))."""
    if x < 0.0:
        raise DomainError(f"x must be >= 0, got {x!r}")
    return math.erfc(math.sqrt(0.5 * x))
