"""Closed-form index selection and the two-step confidence interval.

Under a locally linear cdf, minimizing the interval width subject to the
chi-square acceptance constraint has a closed-form solution: the optimal
counts sit at N q plus or minus a z multiple of a variance-allocation
radical that depends only on the sample sizes and the ratio of the two
local cdf slopes. The slopes are unknown, so the procedure runs twice:
step 1 assumes equal slopes, step 2 plugs in finite-difference slope
estimates read off the step-1 order statistics. The final interval uses
just four order statistics, two per sample. The squared slope ratio is
an IEEE product (``np.square``); past the float range it is infinity,
which collapses that step-2 band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfidenceInterval,
    IntervalRows,
    Method,
    OrderedSample,
    QuantileSpec,
    outward_index_bounds,
    quiet_overflow,
)
from .errors import DomainError, InsufficientSampleError
from .likelihood import normal_quantile


@dataclass(frozen=True)
class IndexQuad:
    """The four order-statistic indexes defining a two-step interval.

    ``clamped`` records that at least one fractional index fell outside
    [1, N] before clamping; the resulting interval is valid but may be
    degenerate at the sample edge.
    """

    i_minus: int
    i_plus: int
    j_minus: int
    j_plus: int
    clamped: bool = False

    def __post_init__(self) -> None:
        if not (1 <= self.i_minus <= self.i_plus):
            raise DomainError(f"bad i indexes ({self.i_minus}, {self.i_plus})")
        if not (1 <= self.j_minus <= self.j_plus):
            raise DomainError(f"bad j indexes ({self.j_minus}, {self.j_plus})")


@dataclass(frozen=True)
class SlopeEstimates:
    """Finite-difference cdf slopes near the target quantile.

    ``fallback`` is set when an estimate degenerated (tied order
    statistics give a zero denominator); m_c and m_t are NaN in that case
    and callers revert to the equal-slope indexes.
    """

    m_c: float
    m_t: float
    fallback: bool


def _index_halfwidth(z: float, n_c: int, n_t: int, q: float, denom):
    return z * np.sqrt(n_c * n_t * q * (1.0 - q) / denom)


def _quads(spec: QuantileSpec, n_c: int, n_t: int, ratio_c2: np.ndarray, ratio_t2: np.ndarray):
    """Optimal indexes for arrays of squared slope ratios (m_c/m_t)^2 and (m_t/m_c)^2.

    Returns the index arrays (i_minus, i_plus, j_minus, j_plus) and the
    clamped and collapsed masks. Both steps run this one formula, so
    ratios of 1.0 reproduce the step-1 indexes bit for bit.
    """
    z = normal_quantile(1.0 - spec.alpha / 2.0)
    hw_i = _index_halfwidth(z, n_c, n_t, spec.q, n_t + n_c * ratio_c2)
    hw_j = _index_halfwidth(z, n_c, n_t, spec.q, n_c + n_t * ratio_t2)
    i_minus, i_plus, clamp_i = outward_index_bounds(n_c * spec.q, hw_i, n_c)
    j_minus, j_plus, clamp_j = outward_index_bounds(n_t * spec.q, hw_j, n_t)
    collapsed = (i_minus == i_plus) | (j_minus == j_plus)
    return i_minus, i_plus, j_minus, j_plus, clamp_i | clamp_j, collapsed


def _step2_quads(spec: QuantileSpec, n_c: int, n_t: int, m_c: np.ndarray, m_t: np.ndarray):
    """:func:`_quads` for arrays of slope estimates."""
    positive = (m_c > 0.0) & (m_t > 0.0)
    if not positive.all():
        bad = np.flatnonzero(~positive)[0]
        raise DomainError(f"slopes must be positive, got ({m_c[bad]}, {m_t[bad]})")
    with np.errstate(over="ignore"):  # an infinite ratio or square is a valid extreme
        ratio_c2, ratio_t2 = np.square(m_c / m_t), np.square(m_t / m_c)
    return _quads(spec, n_c, n_t, ratio_c2, ratio_t2)


def _one_quad(quads, n_c: int, n_t: int, q: float) -> IndexQuad:
    i_minus, i_plus, j_minus, j_plus, clamped, collapsed = (v[0] for v in quads)
    if collapsed:
        raise InsufficientSampleError(
            f"index interval collapsed (n_c={n_c}, n_t={n_t}, q={q}): "
            "sample too small for the requested quantile and level"
        )
    return IndexQuad(int(i_minus), int(i_plus), int(j_minus), int(j_plus), clamped=bool(clamped))


def step1_indexes(spec: QuantileSpec, n_c: int, n_t: int) -> IndexQuad:
    """Equal-slope optimal indexes, N q +/- z * s with the pooled radical.

    s = sqrt(n_c n_t q (1-q) / (n_c + n_t)); fractional endpoints round
    outward (floor below, ceil above) and clamp into [1, N].
    """
    if n_c < 1 or n_t < 1:
        raise DomainError("sample sizes must be >= 1")
    one = np.ones(1)
    return _one_quad(_quads(spec, n_c, n_t, one, one), n_c, n_t, spec.q)


def _slopes(y_c: np.ndarray, y_t: np.ndarray, quad: IndexQuad):
    """m_c, m_t and the fallback mask for each row pair of sorted blocks.

    Where a denominator is zero the row falls back and its slopes are
    meaningless.
    """
    dy_c = y_c[:, quad.i_plus - 1] - y_c[:, quad.i_minus - 1]
    dy_t = y_t[:, quad.j_plus - 1] - y_t[:, quad.j_minus - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        m_c = ((quad.i_plus - quad.i_minus) / y_c.shape[1]) / dy_c
        m_t = ((quad.j_plus - quad.j_minus) / y_t.shape[1]) / dy_t
    return m_c, m_t, (dy_c <= 0.0) | (dy_t <= 0.0)


def estimate_slopes(
    control: OrderedSample, treatment: OrderedSample, quad: IndexQuad
) -> SlopeEstimates:
    """Finite-difference cdf slopes across the step-1 index span.

    m_hat = ((i_plus - i_minus) / n) / (y_(i_plus) - y_(i_minus)). Tied
    order statistics make a denominator zero; that is reported through
    ``fallback`` rather than an error, since ties are routine in rounded
    or discrete-valued data.
    """
    if quad.i_plus > control.n or quad.j_plus > treatment.n:
        raise DomainError(f"index quad {quad} outside the samples ({control.n}, {treatment.n})")
    m_c, m_t, fallback = _slopes(control.values[None], treatment.values[None], quad)
    if fallback[0]:
        return SlopeEstimates(m_c=math.nan, m_t=math.nan, fallback=True)
    return SlopeEstimates(m_c=float(m_c[0]), m_t=float(m_t[0]), fallback=False)


def step2_indexes(
    spec: QuantileSpec, n_c: int, n_t: int, slopes: SlopeEstimates
) -> IndexQuad:
    """Slope-aware optimal indexes from the width-minimizing allocation.

    i = n_c q +/- z sqrt(n_c n_t q(1-q) / (n_t + n_c (m_c/m_t)^2))
    j = n_t q +/- z sqrt(n_c n_t q(1-q) / (n_c + n_t (m_t/m_c)^2))

    A large m_c/m_t means the control quantile is pinned down precisely,
    so the variance budget shifts toward the treatment indexes.
    """
    if n_c < 1 or n_t < 1:
        raise DomainError("sample sizes must be >= 1")
    if slopes.fallback:
        raise DomainError("step-2 indexes require non-degenerate slope estimates")
    quads = _step2_quads(spec, n_c, n_t, np.array([slopes.m_c]), np.array([slopes.m_t]))
    return _one_quad(quads, n_c, n_t, spec.q)


@quiet_overflow
def two_step_rows(y_c: np.ndarray, y_t: np.ndarray, spec: QuantileSpec) -> IntervalRows:
    """:func:`two_step_ci` for each row pair of sorted (R, n_c) and (R, n_t) blocks."""
    n_c, n_t = y_c.shape[1], y_t.shape[1]
    quad1 = step1_indexes(spec, n_c, n_t)
    m_c, m_t, fallback = _slopes(y_c, y_t, quad1)
    quad = [
        np.full(len(y_c), k) for k in (quad1.i_minus, quad1.i_plus, quad1.j_minus, quad1.j_plus)
    ]
    clamped = np.full(len(y_c), quad1.clamped)
    fit = np.flatnonzero(~fallback)
    *quad2, clamped2, collapsed = _step2_quads(spec, n_c, n_t, m_c[fit], m_t[fit])
    # A collapsed step-2 quad keeps step 1 and counts as a fallback.
    fallback[fit[collapsed]] = True
    used, fit = ~collapsed, fit[~collapsed]
    for old, new in zip(quad, quad2):
        old[fit] = new[used]
    clamped[fit] |= clamped2[used]
    i_minus, i_plus, j_minus, j_plus = quad
    rows = np.arange(len(y_c))
    return IntervalRows(
        method=Method.LR_TWO_STEP,
        alpha=spec.alpha,
        lower=y_t[rows, j_minus - 1] - y_c[rows, i_plus - 1],
        upper=y_t[rows, j_plus - 1] - y_c[rows, i_minus - 1],
        flags={"slope_fallback": fallback, "clamped_index": clamped},
    )


def two_step_ci(
    control: OrderedSample, treatment: OrderedSample, spec: QuantileSpec
) -> ConfidenceInterval:
    """Fast difference-in-quantile interval from four order statistics.

    Runs step 1, estimates slopes across the step-1 span, then recomputes
    the indexes with the slope ratio. If slope estimation degenerates or
    the step-2 indexes collapse, the step-1 quad is used instead and the
    slope_fallback flag is set. The interval is

        (y_t(j_minus) - y_c(i_plus), y_t(j_plus) - y_c(i_minus)).
    """
    return two_step_rows(control.values[None], treatment.values[None], spec).first()
