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
which gives that step-2 band zero halfwidth: it collapses where N q is an
integer and is one index wide otherwise.

One fallback rule: a row whose step-1 spacing is zero or infinite, or
whose step-2 quad collapses, takes equal slopes, whose ratio 1.0 gives
the step-1 quad bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfidenceInterval,
    IntervalRows,
    Method,
    OrderedSample,
    QuantileSpec,
    _check_sizes,
    outward_index_bounds,
    power_of_two_lift,
    quiet_overflow,
)
from .errors import InsufficientSampleError
from .likelihood import two_sided_z


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


def _index_halfwidth(z: float, n_c: int, n_t: int, q: float, denom):
    return z * np.sqrt(n_c * n_t * q * (1.0 - q) / denom)


def _quads(spec: QuantileSpec, n_c: int, n_t: int, m_c: np.ndarray, m_t: np.ndarray):
    """Optimal indexes for arrays of positive slopes m_c and m_t with a ratio.

    i = n_c q +/- z sqrt(n_c n_t q(1-q) / (n_t + n_c (m_c/m_t)^2))
    j = n_t q +/- z sqrt(n_c n_t q(1-q) / (n_c + n_t (m_t/m_c)^2))

    A large m_c/m_t means the control quantile is pinned down precisely,
    so the variance budget shifts toward the treatment indexes. Returns
    the index arrays (i_minus, i_plus, j_minus, j_plus) and the clamped
    and collapsed masks. Both steps run this one formula, so equal slopes
    reproduce the step-1 indexes bit for bit.
    """
    ratio_c2, ratio_t2 = np.square(m_c / m_t), np.square(m_t / m_c)
    z = two_sided_z(spec.alpha)
    hw_i = _index_halfwidth(z, n_c, n_t, spec.q, n_t + n_c * ratio_c2)
    hw_j = _index_halfwidth(z, n_c, n_t, spec.q, n_c + n_t * ratio_t2)
    i_minus, i_plus, clamp_i = outward_index_bounds(n_c * spec.q, hw_i, n_c)
    j_minus, j_plus, clamp_j = outward_index_bounds(n_t * spec.q, hw_j, n_t)
    collapsed = (i_minus == i_plus) | (j_minus == j_plus)
    return i_minus, i_plus, j_minus, j_plus, clamp_i | clamp_j, collapsed


def step1_indexes(spec: QuantileSpec, n_c: int, n_t: int) -> IndexQuad:
    """Equal-slope optimal indexes, N q +/- z * s with the pooled radical.

    s = sqrt(n_c n_t q (1-q) / (n_c + n_t)); fractional endpoints round
    outward (floor below, ceil above) and clamp into [1, N].
    """
    _check_sizes(n_c, n_t)
    one = np.ones(1)
    i_minus, i_plus, j_minus, j_plus, clamped, collapsed = (
        v[0] for v in _quads(spec, n_c, n_t, one, one)
    )
    if collapsed:
        raise InsufficientSampleError(
            f"index interval collapsed (n_c={n_c}, n_t={n_t}, q={spec.q}): "
            "sample too small for the requested quantile and level"
        )
    return IndexQuad(int(i_minus), int(i_plus), int(j_minus), int(j_plus), clamped=bool(clamped))


def _slopes(y_c: np.ndarray, y_t: np.ndarray, quad: IndexQuad):
    """m_c, m_t and the fallback mask for each row pair of sorted blocks.

    m = ((i_plus - i_minus) / n) / (y_(i_plus) - y_(i_minus)), both spacings
    lifted by :func:`power_of_two_lift`: their ratio is kept, and the larger
    one's slope is finite. A row falls back where a spacing is zero or
    infinite; its slopes are meaningless.
    """
    dy_c = y_c[:, quad.i_plus - 1] - y_c[:, quad.i_minus - 1]
    dy_t = y_t[:, quad.j_plus - 1] - y_t[:, quad.j_minus - 1]
    fallback = (dy_c <= 0.0) | (dy_t <= 0.0) | np.isinf(dy_c) | np.isinf(dy_t)
    dy_c, dy_t, _ = power_of_two_lift(dy_c, dy_t)
    m_c = ((quad.i_plus - quad.i_minus) / y_c.shape[1]) / dy_c
    m_t = ((quad.j_plus - quad.j_minus) / y_t.shape[1]) / dy_t
    return m_c, m_t, fallback


@quiet_overflow
def two_step_rows(y_c: np.ndarray, y_t: np.ndarray, spec: QuantileSpec) -> IntervalRows:
    """:func:`two_step_ci` for each row pair of sorted (R, n_c) and (R, n_t) blocks."""
    n_c, n_t = y_c.shape[1], y_t.shape[1]
    quad1 = step1_indexes(spec, n_c, n_t)
    m_c, m_t, fallback = _slopes(y_c, y_t, quad1)
    # A fallback row takes equal slopes. A row whose step-2 quad collapses
    # falls back too and is computed again the same way, as the step-1
    # quad, which never collapses; so the second pass is the last.
    for _ in range(2):
        slopes = np.where(fallback, 1.0, m_c), np.where(fallback, 1.0, m_t)
        i_minus, i_plus, j_minus, j_plus, clamped, collapsed = _quads(spec, n_c, n_t, *slopes)
        fallback = fallback | collapsed
    rows = np.arange(len(y_c))
    return IntervalRows(
        method=Method.LR_TWO_STEP,
        lower=y_t[rows, j_minus - 1] - y_c[rows, i_plus - 1],
        upper=y_t[rows, j_plus - 1] - y_c[rows, i_minus - 1],
        flags={"slope_fallback": fallback, "clamped_index": clamped | quad1.clamped},
    )


def two_step_ci(
    control: OrderedSample, treatment: OrderedSample, spec: QuantileSpec
) -> ConfidenceInterval:
    """Fast difference-in-quantile interval from four order statistics.

    Runs step 1, estimates slopes across the step-1 span, then recomputes
    the indexes with the slope ratio. Under the module's fallback rule the
    step-1 quad is used instead and the slope_fallback flag is set. The
    interval is

        (y_t(j_minus) - y_c(i_plus), y_t(j_plus) - y_c(i_minus)).
    """
    return two_step_rows(control.values[None], treatment.values[None], spec).first()
