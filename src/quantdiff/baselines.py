"""Baseline difference-in-quantile intervals built from one-sample CIs.

The one-sample interval is the distribution-free order-statistic
construction with normal-approximation indexes, N q +/- z sqrt(N q (1-q)).
Price-Bonnet combines two such intervals through a Wald variance
back-solve, Var(tau_hat) ~= ((u - l) / (2 z))^2, which keeps the whole
pipeline density-free. Donner-Zou recombines the one-sample bounds
asymmetrically so that skewed sampling distributions keep their skew in
the final interval.

Both combine two spreads as a root-sum-square whose squares are IEEE
products (``np.square``), rounded once like every other operation here.
The spreads are scaled up by a power of two first, never down: a square
past the float range is infinity, and the row it feeds fails on its own,
while spreads below about 1e-154 keep their width instead of squaring
to zero.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ConfidenceInterval,
    IntervalRows,
    OrderedSample,
    QuantileSpec,
    outward_index_bounds,
    point_estimates,
    power_of_two_lift,
    quiet_overflow,
)
from .errors import InsufficientSampleError
from .likelihood import two_sided_z


def _one_sample_indexes(n: int, spec: QuantileSpec):
    halfwidth = two_sided_z(spec.alpha) * math.sqrt(n * spec.q * (1.0 - spec.q))
    lo_idx, hi_idx, clamped = outward_index_bounds(n * spec.q, halfwidth, n)
    if lo_idx == hi_idx:
        raise InsufficientSampleError(
            f"one-sample index interval collapsed (n={n}, q={spec.q}, alpha={spec.alpha})"
        )
    return lo_idx, hi_idx, clamped


def _one_sample_rows(y: np.ndarray, spec: QuantileSpec):
    """One-sample lower and upper bounds of each row of a sorted block, and the clamp."""
    lo_idx, hi_idx, clamped = _one_sample_indexes(y.shape[1], spec)
    return y[:, lo_idx - 1], y[:, hi_idx - 1], clamped


def _root_sum_square(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sqrt(a^2 + b^2) of each pair, squared after :func:`power_of_two_lift`: the
    plain formula's bits wherever no square leaves the normal range."""
    a, b, k = power_of_two_lift(a, b)
    return np.ldexp(np.sqrt(np.square(a) + np.square(b)), -k)


def _interval_rows(lower, upper, clamped: bool) -> IntervalRows:
    return IntervalRows(lower, upper, {"clamped_index": np.full(len(lower), clamped)})


@quiet_overflow
def price_bonnet_rows(y_c: np.ndarray, y_t: np.ndarray, spec: QuantileSpec) -> IntervalRows:
    """:func:`price_bonnet_ci` for each row pair of sorted (R, n_c) and (R, n_t) blocks."""
    z = two_sided_z(spec.alpha)
    lower_c, upper_c, clamped_c = _one_sample_rows(y_c, spec)
    lower_t, upper_t, clamped_t = _one_sample_rows(y_t, spec)
    diff = point_estimates(y_t, spec.q) - point_estimates(y_c, spec.q)
    sd_c, sd_t = (upper_c - lower_c) / (2.0 * z), (upper_t - lower_t) / (2.0 * z)
    halfwidth = z * _root_sum_square(sd_t, sd_c)
    clamped = clamped_c or clamped_t
    return _interval_rows(diff - halfwidth, diff + halfwidth, clamped)


def price_bonnet_ci(
    control: OrderedSample, treatment: OrderedSample, spec: QuantileSpec
) -> ConfidenceInterval:
    """Symmetric Wald interval for the quantile difference.

    C(alpha) = (tau_t - tau_c) +/- z sqrt(Var_t + Var_c) with each
    variance backed out of the one-sample CI halfwidth at the same alpha.
    """
    return price_bonnet_rows(control.values[None], treatment.values[None], spec).first()


@quiet_overflow
def donner_zou_rows(y_c: np.ndarray, y_t: np.ndarray, spec: QuantileSpec) -> IntervalRows:
    """:func:`donner_zou_ci` for each row pair of sorted (R, n_c) and (R, n_t) blocks."""
    lower_c, upper_c, clamped_c = _one_sample_rows(y_c, spec)
    lower_t, upper_t, clamped_t = _one_sample_rows(y_t, spec)
    tau_c = point_estimates(y_c, spec.q)
    tau_t = point_estimates(y_t, spec.q)
    diff = tau_t - tau_c
    upper = diff + _root_sum_square(upper_t - tau_t, tau_c - lower_c)
    lower = diff - _root_sum_square(tau_t - lower_t, upper_c - tau_c)
    return _interval_rows(lower, upper, clamped_c or clamped_t)


def donner_zou_ci(
    control: OrderedSample, treatment: OrderedSample, spec: QuantileSpec
) -> ConfidenceInterval:
    """Asymmetric interval combining one-sample bounds per tail.

    Each endpoint pairs the relevant tail distances of the two one-sample
    intervals:

        upper = diff + sqrt((u_t - tau_t)^2 + (tau_c - l_c)^2)
        lower = diff - sqrt((tau_t - l_t)^2 + (u_c - tau_c)^2)

    so asymmetry of the one-sample intervals survives into the combined
    interval instead of being averaged away.
    """
    return donner_zou_rows(control.values[None], treatment.values[None], spec).first()
