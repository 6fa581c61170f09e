"""Facts every result record holds, checked over the functions that build it.

``ConfidenceInterval``, ``IndexQuad``, ``LRStatistic`` and
``LRTestResult`` carry no checks of their own: each fact below follows
from the functions that build the record, and is checked there.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from quantdiff import (
    Method,
    QuantileSpec,
    ingest_sample,
    lr_statistic_asymptotic,
    lr_statistic_exact,
    lr_test,
    step1_indexes,
)
from quantdiff.baselines import _one_sample_rows, donner_zou_rows, price_bonnet_rows
from quantdiff.errors import EstimationError, InsufficientSampleError
from quantdiff.likelihood import two_sided_z
from quantdiff.region import conservative_rows
from quantdiff.two_step import two_step_rows

from oracles import one_sample_bounds, outward_indexes

ROW_FUNCTIONS = {
    Method.LR_CONSERVATIVE: conservative_rows,
    Method.LR_TWO_STEP: two_step_rows,
    Method.PRICE_BONNET: price_bonnet_rows,
    Method.DONNER_ZOU: donner_zou_rows,
}


def _block(rng, rows: int, n: int, kind: str) -> np.ndarray:
    """A sorted (rows, n) block: continuous, tied on a coarse grid, or with a constant row 0."""
    if kind == "tied":
        y = rng.integers(0, 4, size=(rows, n)).astype(float)
    else:
        y = rng.lognormal(size=(rows, n))
        if kind == "constant":
            y[0] = y[0, 0]
    return np.sort(y, axis=1)


def _quarters(rng, rows: int, n: int, tied: bool) -> np.ndarray:
    """A sorted block of quarter-integers: every spread is 0 or at least 1/4."""
    high = 8 if tied else 2**20
    return np.sort(rng.integers(-high, high, size=(rows, n)) / 4.0, axis=1)


def _rows_or_none(fn, y_c, y_t, spec):
    # Collapsed indexes and empty regions depend on (n_c, n_t, q, alpha) only.
    try:
        return fn(y_c, y_t, spec)
    except EstimationError:
        return None


def _assert_rows_scale(method, y_c, y_t, spec, k):
    """The method's rows on the blocks times 2^k are its rows times 2^k, bit
    for bit, with the same flags."""
    fn = ROW_FUNCTIONS[method]
    base = _rows_or_none(fn, y_c, y_t, spec)
    if base is None:
        return
    scaled = fn(np.ldexp(y_c, k), np.ldexp(y_t, k), spec)
    assert scaled.lower.tobytes() == np.ldexp(base.lower, k).tobytes(), (method, k)
    assert scaled.upper.tobytes() == np.ldexp(base.upper, k).tobytes(), (method, k)
    flags = {name: mask.tolist() for name, mask in base.flags.items()}
    assert {name: mask.tolist() for name, mask in scaled.flags.items()} == flags, (method, k)


_seed = hst.integers(0, 2**32 - 1)
_kind = hst.sampled_from(["continuous", "tied", "constant"])
_alpha = hst.sampled_from([0.1, 0.05, 0.01])


@settings(max_examples=200, deadline=None)
@given(
    seed=_seed,
    rows=hst.integers(1, 4),
    n_c=hst.integers(2, 80),
    n_t=hst.integers(2, 80),
    kind=_kind,
    exponent=hst.integers(-300, 300),
    q=hst.floats(0.02, 0.98),
    alpha=_alpha,
)
def test_lower_never_above_upper(seed, rows, n_c, n_t, kind, exponent, q, alpha):
    # Every endpoint is a monotone rounding of lower <= upper in exact
    # arithmetic, so a finite lower never passes a finite upper.
    rng = np.random.default_rng(seed)
    y_c = _block(rng, rows, n_c, kind) * 10.0**exponent
    y_t = _block(rng, rows, n_t, kind) * 10.0**exponent
    spec = QuantileSpec(q, alpha)
    for method, fn in ROW_FUNCTIONS.items():
        got = _rows_or_none(fn, y_c, y_t, spec)
        if got is None:
            continue
        finite = np.isfinite(got.lower) & np.isfinite(got.upper)
        assert (got.lower[finite] <= got.upper[finite]).all(), method
    for y in (y_c, y_t):
        try:
            lower, upper, _, clamped = _one_sample_rows(y, spec)
        except EstimationError:
            continue
        assert (lower <= upper).all()
        for r in range(rows):
            bounds = one_sample_bounds(y[r], q, two_sided_z(alpha))
            assert (lower[r], upper[r], clamped) == bounds[:2] + (bounds.clamped,)


@settings(max_examples=300, deadline=None)
@given(
    n_c=hst.integers(1, 10**6),
    n_t=hst.integers(1, 10**6),
    q=hst.floats(1e-6, 1.0 - 1e-6),
    alpha=hst.floats(1e-6, 0.999),
)
@example(n_c=10, n_t=10, q=0.99, alpha=0.05)
@example(n_c=10, n_t=10, q=0.001, alpha=0.05)
def test_step1_indexes_ordered_inside_the_samples(n_c, n_t, q, alpha):
    # Each band N q +/- z s is rounded outward and clamped into [1, N]:
    # clamped exactly when a rounded bound left [1, N], and a refusal
    # exactly when a band collapsed to one index.
    spec = QuantileSpec(q, alpha)
    s = math.sqrt(n_c * n_t * q * (1.0 - q) / (n_c + n_t))
    i_band = outward_indexes(n_c * q, two_sided_z(alpha) * s, n_c)
    j_band = outward_indexes(n_t * q, two_sided_z(alpha) * s, n_t)
    collapsed = i_band[0] == i_band[1] or j_band[0] == j_band[1]
    try:
        quad = step1_indexes(spec, n_c, n_t)
    except InsufficientSampleError:
        assert collapsed
        return
    assert not collapsed
    assert 1 <= quad.i_minus < quad.i_plus <= n_c
    assert 1 <= quad.j_minus < quad.j_plus <= n_t
    assert (quad.i_minus, quad.i_plus, quad.j_minus, quad.j_plus) == i_band[:2] + j_band[:2]
    assert quad.clamped == (i_band[2] or j_band[2])


@settings(max_examples=200, deadline=None)
@given(
    seed=_seed,
    n_c=hst.integers(1, 60),
    n_t=hst.integers(1, 60),
    kind=_kind,
    same=hst.booleans(),
    q=hst.floats(0.01, 0.99),
    d=hst.floats(-5.0, 5.0),
    at=hst.tuples(hst.floats(0.0, 1.0), hst.floats(0.0, 1.0)),
)
def test_statistics_and_p_values_in_range(seed, n_c, n_t, kind, same, q, d, at):
    # H is a sum of deficits clamped at +0.0 and p = erfc(sqrt(H / 2)), so
    # H >= 0, p lies in [0, 1], and H = 0 gives erfc(0) = 1 exactly.
    rng = np.random.default_rng(seed)
    y_c = _block(rng, 1, n_c, kind)[0]
    y_t = y_c if same else _block(rng, 1, n_t, kind)[0]
    spec = QuantileSpec(q, 0.05)
    result = lr_test(ingest_sample(y_c), ingest_sample(y_t), spec, 0.0 if same else d)
    assert result.statistic >= 0.0
    assert 0.0 <= result.p_value <= 1.0
    if same and kind == "continuous":
        # Distinct values: a tau reaches the two modes at once.
        assert result.statistic == 0.0
    if result.statistic == 0.0:
        assert result.p_value == 1.0
    i, j = round(at[0] * y_c.size), round(at[1] * y_t.size)
    for statistic in (lr_statistic_exact, lr_statistic_asymptotic):
        assert statistic(i, j, spec, y_c.size, y_t.size).value >= 0.0


@settings(max_examples=200, deadline=None)
@given(
    seed=_seed,
    n_c=hst.integers(10, 80),
    n_t=hst.integers(10, 80),
    tied=hst.booleans(),
    q=hst.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]),
    alpha=_alpha,
    k=hst.integers(-400, 400),
)
def test_power_of_two_scale_equivariance(seed, n_c, n_t, tied, q, alpha, k):
    # Quarter-integers at 2^k for |k| <= 400 keep every spread, square and
    # slope in the normal range, where scaling by 2^k commutes with
    # rounding: each method's rows scale bit for bit.
    rng = np.random.default_rng(seed)
    y_c, y_t = _quarters(rng, 3, n_c, tied), _quarters(rng, 3, n_t, tied)
    spec = QuantileSpec(q, alpha)
    for method in ROW_FUNCTIONS:
        _assert_rows_scale(method, y_c, y_t, spec, k)


_subnormal_scale = given(
    seed=_seed,
    n_c=hst.integers(10, 80),
    n_t=hst.integers(10, 80),
    tied=hst.booleans(),
    q=hst.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]),
    alpha=_alpha,
    k=hst.integers(-1068, -1000),
)


@settings(max_examples=200, deadline=None)
@_subnormal_scale
# Squared one-sample spreads of these arms underflow to zero, which once
# gave both baselines a point interval.
@example(seed=0, n_c=50, n_t=50, tied=False, q=0.5, alpha=0.05, k=-1040)
def test_no_point_interval_at_subnormal_scale(seed, n_c, n_t, tied, q, alpha, k):
    # At 2^k the values are subnormal but exact (every spread is at least
    # 2^-1070); an interval wider than a point at unit scale stays so.
    rng = np.random.default_rng(seed)
    y_c, y_t = _quarters(rng, 3, n_c, tied), _quarters(rng, 3, n_t, tied)
    spec = QuantileSpec(q, alpha)
    for method, fn in ROW_FUNCTIONS.items():
        base = _rows_or_none(fn, y_c, y_t, spec)
        if base is None:
            continue
        scaled = fn(np.ldexp(y_c, k), np.ldexp(y_t, k), spec)
        wide = base.lower < base.upper
        assert (scaled.lower[wide] < scaled.upper[wide]).all(), (method, k)


@settings(max_examples=200, deadline=None)
@_subnormal_scale
def test_two_step_scale_equivariance_at_subnormal_scale(seed, n_c, n_t, tied, q, alpha, k):
    # The step-1 spacings are lifted by a power of two before their slopes
    # are formed, so subnormal arms get the slopes, ratio and quad of the
    # arms at unit scale: the rows scale by 2^k bit for bit, flags and all.
    rng = np.random.default_rng(seed)
    y_c, y_t = _quarters(rng, 3, n_c, tied), _quarters(rng, 3, n_t, tied)
    _assert_rows_scale(Method.LR_TWO_STEP, y_c, y_t, QuantileSpec(q, alpha), k)
