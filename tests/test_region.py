"""Constrained line search, LR test, and acceptance-region interval."""

import dataclasses
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from quantdiff import (
    OrderedSample,
    QuantileSpec,
    acceptance_grid,
    conservative_ci,
    ingest_sample,
    lr_statistic_asymptotic,
    lr_test,
    max_likelihood_index,
    write_acceptance_grid_csv,
)
from quantdiff import region
from quantdiff.errors import (
    DegenerateRegionError,
    DomainError,
    NumericOverflowError,
    ValidationError,
)
from quantdiff.likelihood import asymptotic_deficit, chi2_quantile_1df, deficits

from oracles import (
    best_reachable_score,
    full_grid_conservative,
    per_cell_grid_csv,
    reachable_pairs,
)

# n = 101 at q = 0.5 has two modes, counts 50 and 51, of equal likelihood;
# the LR test reports the smaller.
GRID_101 = ingest_sample(np.arange(1.0, 102.0))


def _spec(q=0.5, alpha=0.05, calibration=None):
    return QuantileSpec(q=q, alpha=alpha, calibration=calibration)


def constrained_max_indexes(control, treatment, q, d):
    """The LR test's constrained maximizer (i*, j*) at quantile q and shift d."""
    result = lr_test(control, treatment, _spec(q=q), d)
    return result.i_star, result.j_star


@hst.composite
def _two_mode_cases(draw):
    """(y_c, y_t, q, d): sizes with two modes, q(n + 1) an integer, and values
    on a 0.1 grid, so pairs of equal score are common."""
    q = draw(hst.sampled_from([0.25, 0.5, 0.75]))
    step = 2 if q == 0.5 else 4
    values = hst.integers(-30, 30).map(lambda v: v / 10)
    arms = []
    for _ in range(2):
        n = step * draw(hst.integers(0, 12)) + step - 1
        arms.append(sorted(draw(hst.lists(values, min_size=n, max_size=n))))
    d = draw(
        hst.one_of(
            hst.just(0.0),
            hst.floats(-0.5, 0.5),
            hst.floats(-4.0, 4.0),
            hst.integers(-40, 40).map(lambda v: v / 10),
        )
    )
    return *arms, q, d


class TestConstrainedMaxIndexes:
    def test_identical_samples_d0(self):
        assert constrained_max_indexes(GRID_101, GRID_101, 0.5, 0.0) == (50, 50)

    def test_true_shift(self):
        shifted = ingest_sample(GRID_101.values + 10.0)
        assert constrained_max_indexes(GRID_101, shifted, 0.5, 10.0) == (50, 50)
        result = lr_test(GRID_101, shifted, _spec(), 10.0)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_binding_constraint_splits_optima(self):
        # The hypothesis "treatment exceeds control by 5" is false for
        # identical samples, so tau slides below the control optimum while
        # tau + 5 lands above the treatment one: i drops, j climbs. The
        # symmetric balance point is (48, 53).
        i, j = constrained_max_indexes(GRID_101, GRID_101, 0.5, 5.0)
        assert i < 51 < j
        assert (i, j) == (48, 53)

    def test_exact_tie_breaks_to_smaller_i(self):
        # With 100 points, d=1.0 produces candidates (49, 50) and (50, 51)
        # whose scores tie bitwise: at q = 0.5 the log-pmf kernel gives
        # counts k and n - k the same value. Ascending first-wins keeps the
        # smaller i.
        grid100 = ingest_sample(np.arange(1.0, 101.0))
        assert constrained_max_indexes(grid100, grid100, 0.5, 1.0) == (49, 50)

    @staticmethod
    def _random_cases(seed, trials, max_n, qs):
        rng = np.random.default_rng(seed)
        for trial in range(trials):
            n_c = int(rng.integers(2, max_n))
            n_t = int(rng.integers(2, max_n))
            branch = trial % 5
            if branch == 0:
                # heavy ties: values on a coarse grid
                y_c = np.sort(rng.integers(0, 6, size=n_c).astype(float))
                y_t = np.sort(rng.integers(0, 6, size=n_t).astype(float))
            elif branch == 1:
                # decimal values shifted by a decimal d: 0.4 - 0.1 is the
                # double just above 0.3, so many gaps are one double wide
                y_c = np.sort(np.round(rng.normal(size=n_c), 1))
                y_t = np.sort(np.round(rng.normal(size=n_t), 1))
            elif branch == 2:
                # each treatment value is the double just above a control value
                y_c = np.sort(rng.normal(size=n_c))
                y_t = np.nextafter(y_c, np.inf)
            else:
                y_c = np.sort(rng.normal(size=n_c))
                y_t = np.sort(rng.normal(size=n_t))
            q = float(rng.uniform(0.1, 0.9)) if qs is None else qs[trial % len(qs)]
            d = float(rng.choice([0.0, 0.5, -2.0, 10.0, rng.normal()]))
            if branch == 1:
                d = float(rng.choice([0.1, 0.2, 0.3, 0.7]))
            elif branch == 2:
                d = 0.0
            yield trial, y_c, y_t, q, d

    def test_optimal_over_reachable_pairs_randomized(self):
        cases = [
            *self._random_cases(42, 200, 40, None),
            # larger samples and the extreme quantiles
            *self._random_cases(43, 100, 300, (0.05, 0.95, 0.5)),
        ]
        for trial, y_c, y_t, q, d in cases:
            n_c, n_t = len(y_c), len(y_t)
            control = ingest_sample(y_c)
            treatment = ingest_sample(y_t)
            i, j = constrained_max_indexes(control, treatment, q, d)
            pairs = reachable_pairs(y_c, y_t, d)
            assert (i, j) in pairs, (trial, i, j, d, q)
            score = best_reachable_score(y_c, y_t, q, d)
            got = st.binom.logpmf(i, n_c, q) + st.binom.logpmf(j, n_t, q)
            assert got >= score - 1e-10, (trial, i, j, got, score)

    @settings(max_examples=300, deadline=None)
    @given(case=_two_mode_cases())
    @example(case=([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0], 0.5, 0.0))
    @example(case=([1.5], [1.5], 0.5, 0.0))
    @example(case=([k / 10 for k in range(13)], [k / 10 for k in range(7)], 0.25, 4.0))
    def test_first_minimum_of_the_full_scan(self, case):
        # Every reachable pair scored in ascending tau; the test's (i*, j*, H)
        # is the first smallest score, bit for bit, so a faster search of the
        # pairs must keep both the value and the smallest-(i, j) tie rule.
        y_c, y_t, q, d = case
        pairs = reachable_pairs(np.array(y_c), np.array(y_t), d)
        i, j = np.array(pairs).T
        score = deficits(i, q, len(y_c)) + deficits(j, q, len(y_t))
        best = int(np.argmin(score))
        r = lr_test(ingest_sample(y_c), ingest_sample(y_t), _spec(q=q), d)
        assert (r.i_star, r.j_star, r.statistic.hex()) == (*pairs[best], score[best].hex())

    def test_block_rows_match_one_pair_calls(self):
        # The coverage engine decides the LR test for many replications at
        # once, by a read of the region; every row must get the decision of
        # its own one-pair call.
        rng = np.random.default_rng(44)
        for trial in range(60):
            n_c, n_t, rows = int(rng.integers(1, 80)), int(rng.integers(1, 80)), 9
            if trial % 2:
                y_c = rng.integers(0, 6, size=(rows, n_c)).astype(float)
                y_t = rng.integers(0, 6, size=(rows, n_t)).astype(float)
            else:
                y_c, y_t = rng.normal(size=(rows, n_c)), rng.normal(size=(rows, n_t))
            y_c.sort(axis=1)
            y_t.sort(axis=1)
            spec = _spec(q=float(rng.choice([0.05, 0.3, 0.5, 0.95])))
            d = float(rng.choice([0.0, 0.5, -2.0, 10.0, rng.normal()]))
            rejects = region.lr_rejections(y_c, y_t, spec, d)
            for r in range(rows):
                want = lr_test(OrderedSample(y_c[r]), OrderedSample(y_t[r]), spec, d)
                assert rejects[r] == want.rejects_at(spec.alpha), (trial, r)

    def test_gap_one_double_wide(self):
        # Rounded to 0.1 and shifted by 0.7, the treatment value -0.1 lands
        # on -0.7999999999999999, the double just above the control value
        # -0.8. Only a tau in that one-double gap reaches (12, 38).
        rng = np.random.default_rng(32)
        y_c = np.sort(np.round(rng.normal(0.0, 1.0, 60), 1))
        y_t = np.sort(np.round(rng.normal(0.3, 1.0, 120), 1))
        result = lr_test(ingest_sample(y_c), ingest_sample(y_t), _spec(q=0.25), 0.7)
        assert (result.i_star, result.j_star) == (12, 38)
        assert result.statistic == pytest.approx(3.52521979474, abs=1e-9)
        assert not result.rejects_at(0.05)
        best = best_reachable_score(y_c, y_t, 0.25, 0.7)
        got = st.binom.logpmf(12, 60, 0.25) + st.binom.logpmf(38, 120, 0.25)
        assert got == pytest.approx(best, abs=1e-10)

    def test_breakpoints_near_the_float_limit(self):
        # Halfway between two treatment values near 1.2e308 lies beyond the
        # float range; the counts at the breakpoints need no such tau.
        k = np.arange(30.0)
        control = ingest_sample(-1e308 - k * 1e306)
        treatment = ingest_sample(1e308 + k * 1e306)
        result = lr_test(control, treatment, _spec(), 0.0)
        assert (result.i_star, result.j_star) == (15, 0)
        # H = 2 (log h(15) - log h(0)) at q = 0.5, n = 30
        assert result.statistic == pytest.approx(2.0 * math.log(math.comb(30, 15)), abs=1e-9)
        assert result.statistic == pytest.approx(37.7193871622, abs=1e-9)

    def test_shift_past_the_float_range_raises(self):
        # Shifted by d, the treatment values pass the float range; as
        # infinities they would tie and hide reachable pairs.
        rng = np.random.default_rng(0)
        control = ingest_sample(rng.uniform(-1, 1, 30))
        treatment = ingest_sample(rng.uniform(1e308, 1.7e308, 60))
        with pytest.raises(NumericOverflowError, match=r"by d = -1e\+308 overflows"):
            lr_test(control, treatment, _spec(), -1e308)

    def test_extreme_d_pushes_to_boundary(self):
        i, j = constrained_max_indexes(GRID_101, GRID_101, 0.5, 1e6)
        # tau + d is above every treatment value long before tau reaches
        # the control optimum, or vice versa; the search must still return
        # a reachable pair.
        assert (i, j) in reachable_pairs(GRID_101.values, GRID_101.values, 1e6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            constrained_max_indexes(GRID_101, GRID_101, 0.0, 0.0)
        with pytest.raises(ValidationError):
            constrained_max_indexes(GRID_101, GRID_101, 0.5, math.inf)


# Sizes around each power of two, where the search's first step and its
# clamp at n change.
_NEAR_POWERS_OF_TWO = sorted({m for p in range(7) for m in (2**p - 1, 2**p, 2**p + 1)} - {0})


@settings(max_examples=300, deadline=None)
@given(
    seed=hst.integers(0, 2**32 - 1),
    rows=hst.integers(1, 6),
    n=hst.one_of(hst.sampled_from(_NEAR_POWERS_OF_TWO), hst.integers(1, 70)),
    tied=hst.booleans(),
    size=hst.integers(1, 40),
)
def test_searchsorted_rows_matches_numpy_row_by_row(seed, rows, n, tied, size):
    # Each key's count is numpy's search of its own row, on both sides, for
    # keys equal to a value of the row (tied or not), half a unit off one,
    # and +-inf.
    rng = np.random.default_rng(seed)
    block = np.sort(rng.integers(0, 3 if tied else 1000, size=(rows, n)).astype(float), axis=1)
    row = rng.integers(0, rows, size=size)
    keys = block[row, rng.integers(0, n, size=size)] + rng.choice([-0.5, 0.0, 0.0, 0.5], size=size)
    infinite = rng.random(size) < 0.2
    keys[infinite] = rng.choice([-np.inf, np.inf], size=infinite.sum())
    for side in ("left", "right"):
        want = [np.searchsorted(block[r], key, side=side) for r, key in zip(row, keys)]
        assert region._searchsorted_rows(block, row, keys, side).tolist() == want, side


@settings(max_examples=300, deadline=None)
@given(
    seed=hst.integers(0, 2**32 - 1),
    n_c=hst.integers(1, 40),
    n_t=hst.one_of(hst.integers(1, 40), hst.integers(0, 10).map(lambda m: 4 * m + 3)),
    kind=hst.sampled_from(["continuous", "rounded", "constant"]),
    q=hst.sampled_from([0.05, 0.25, 0.5, 0.75, 0.95]),
    d=hst.one_of(hst.just(0.0), hst.integers(-20, 20).map(lambda k: k / 10), hst.floats(-3.0, 3.0)),
)
def test_best_pairs_is_the_first_least_sum_of_each_control_count(seed, n_c, n_t, kind, q, d):
    # Per control count i, the kernel's (score, j) is the first least
    # g_c(i) + g_t(j) over the reachable pairs with that i, and +inf where
    # the count's tau-interval is empty. q = 0.25 or 0.75 with n_t = 4m + 3
    # and q = 0.5 with odd n_t give the treatment two modes.
    rng = np.random.default_rng(seed)
    y_c, y_t = rng.normal(size=n_c), rng.normal(0.3, 1.0, size=n_t)
    if kind == "rounded":
        y_c, y_t = np.round(y_c, 1), np.round(y_t, 1)
    elif kind == "constant":
        y_c, y_t = np.full(n_c, y_c[0]), np.full(n_t, y_t[0])
    y_c, y_t = np.sort(y_c), np.sort(y_t)
    t = y_t - d
    i = np.arange(n_c + 1)
    g_c, g_t = deficits(i, q, n_c), deficits(np.arange(n_t + 1), q, n_t)
    mode = region._order_stats(t, np.array([max_likelihood_index(q, n_t)]))
    lo, hi = region._order_stats(y_c, i), region._order_stats(y_c, i + 1)
    score, j = region._best_pairs(t.searchsorted, y_c, i, g_c, mode, g_t, 0)
    pairs = reachable_pairs(y_c, y_t, d)
    for count in i.tolist():
        js = [pj for pi, pj in pairs if pi == count]
        if lo[count] == hi[count]:
            assert not js and score[count] == math.inf, count
            continue
        sums = [g_c[count] + g_t[pj] for pj in js]
        first = int(np.argmin(sums))
        assert (score[count].hex(), j[count]) == (sums[first].hex(), js[first]), count


class TestLRRejections:
    """The coverage engine's region read decides each row as lr_test does."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        rows=hst.integers(1, 9),
        n_c=hst.one_of(hst.integers(1, 5), hst.integers(1, 300)),
        n_t=hst.one_of(hst.integers(1, 5), hst.integers(1, 300)),
        kind=hst.sampled_from(["continuous", "rounded", "constant", "control ties"]),
        q=hst.one_of(hst.sampled_from([0.001, 0.02, 0.5, 0.98, 0.999]), hst.floats(0.001, 0.999)),
        alpha=hst.sampled_from([1e-6, 0.05, 0.9999]),
        d=hst.one_of(
            hst.just(0.0),
            hst.floats(-3.0, 3.0),
            hst.integers(-30, 30).map(lambda k: k / 10),
            hst.sampled_from([-1e6, 1e6]),
        ),
    )
    # Rows 0 and 2 accept at the control's mode count 30. Row 1 accepts only
    # at a farther count: its 30th and 31st control values tie, so the mode
    # count's tau-interval is empty. Row 3 rejects.
    @example(seed=1, rows=4, n_c=60, n_t=40, kind="control ties", q=0.5, alpha=0.05, d=0.0)
    def test_rows_decide_as_lr_test(self, seed, rows, n_c, n_t, kind, q, alpha, d):
        rng = np.random.default_rng(seed)
        y_c, y_t = rng.normal(size=(rows, n_c)), rng.normal(0.3, 1.0, size=(rows, n_t))
        decimals = int(rng.integers(0, 3))
        if kind == "rounded":
            y_c, y_t = np.round(y_c, decimals), np.round(y_t, decimals)
        elif kind == "constant":
            y_c, y_t = np.repeat(y_c[:, :1], n_c, axis=1), np.repeat(y_t[:, :1], n_t, axis=1)
        elif kind == "control ties":
            y_c = np.round(y_c, decimals)
        y_c.sort(axis=1)
        y_t.sort(axis=1)
        spec = _spec(q=q, alpha=alpha)
        rejects = region.lr_rejections(y_c, y_t, spec, d)
        for r in range(rows):
            want = lr_test(OrderedSample(y_c[r]), OrderedSample(y_t[r]), spec, d)
            assert rejects[r] == want.rejects_at(alpha), r

    def test_mode_count_inside_a_treatment_tie_block(self):
        # Treatment values on a coarse grid: the 41st to 60th share the
        # value 0, so the mode count 50 is never reached, and the nearest
        # counts that are (40 and 60) have deficits near 3.99, between the
        # 5% and 1% thresholds. Where a control interval straddles 0, j
        # spans 40..60 and the mode lies inside that span, yet at 5% every
        # d is rejected.
        y_c = np.linspace(-1.0, 1.0, 101)[None]
        y_t = np.repeat([-1.0, 0.0, 1.0], [40, 20, 40])[None]
        treatment = OrderedSample(y_t[0])
        for d in (-0.5, 0.0, 0.005, 0.5):
            for alpha in (0.05, 0.01):
                spec = _spec(alpha=alpha)
                want = lr_test(OrderedSample(y_c[0]), treatment, spec, d)
                assert want.j_star in (40, 60)
                assert region.lr_rejections(y_c, y_t, spec, d)[0] == want.rejects_at(alpha)
                assert want.rejects_at(alpha) == (alpha == 0.05)

    @pytest.mark.parametrize("n_c", [200, 10_001])
    def test_rows_decide_exactly_whatever_the_spec_says(self, n_c):
        # At q = 0.25 with 12 treatment values the asymptotic region differs
        # from the exact one near each row's interval ends: on this d grid a
        # read of the asymptotic region decides 10 (n_c = 200) and 22
        # (n_c = 10,001) row pairs otherwise.
        rng = np.random.default_rng(0)
        y_c = np.sort(rng.normal(size=(4, n_c)), axis=1)
        y_t = np.sort(rng.normal(0.3, 1.0, size=(4, 12)), axis=1)
        spec = _spec(q=0.25, calibration=asymptotic_deficit)
        for d in np.linspace(-2.0, 2.5, 91).tolist():
            rejects = region.lr_rejections(y_c, y_t, spec, d)
            for r in range(4):
                want = lr_test(OrderedSample(y_c[r]), OrderedSample(y_t[r]), spec, d)
                assert rejects[r] == want.rejects_at(spec.alpha), (r, d)


class TestLRTest:
    def test_identical_d0(self):
        r = lr_test(GRID_101, GRID_101, _spec(), 0.0)
        assert r.statistic == 0.0
        assert r.p_value == 1.0
        assert not r.rejects_at(0.05)
        assert (r.i_star, r.j_star) == (50, 50)

    def test_statistic_grows_with_distance_from_estimate(self):
        stats = [
            lr_test(GRID_101, GRID_101, _spec(), d).statistic
            for d in (0.0, 5.0, 10.0, 20.0)
        ]
        assert stats[0] == 0.0
        assert stats == sorted(stats)
        assert stats[-1] > stats[1] > 0.0

    @pytest.mark.parametrize("n_c", [300, 10_001])
    def test_ignores_the_statistic_of_the_spec(self, n_c):
        rng = np.random.default_rng(n_c)
        y_c = ingest_sample(rng.normal(size=n_c))
        y_t = ingest_sample(np.round(rng.normal(0.3, 1.0, size=200), 1))
        for d in (0.0, 0.3, 1.0):
            outcomes = {
                (r.statistic, r.p_value, r.i_star, r.j_star)
                for r in (lr_test(y_c, y_t, _spec(calibration=e), d) for e in (None, deficits, asymptotic_deficit))
            }
            assert len(outcomes) == 1, d

    def test_rejection_rate_near_nominal_null(self):
        # Monte Carlo check under the null: i.i.d. standard normal samples,
        # d=0, q=0.5. The single-point test should reject at or slightly
        # below the nominal 5% level.
        rng = np.random.default_rng(2024)
        spec = _spec()
        rejections = 0
        reps = 2000
        for _ in range(reps):
            c = ingest_sample(rng.normal(size=1000))
            t = ingest_sample(rng.normal(size=1000))
            if lr_test(c, t, spec, 0.0).rejects_at(0.05):
                rejections += 1
        assert 0.03 <= rejections / reps <= 0.06


# Quarter-integers: sums, differences and power-of-two multiples of these
# are exact in double precision, so equivariance must hold bit for bit.
# The narrow range makes ties common.
_dyadic = hst.one_of(hst.integers(-8, 8), hst.integers(-(2**20), 2**20)).map(lambda v: v / 4)
_arm = hst.lists(_dyadic, min_size=1, max_size=40)


class TestLRTestEquivariance:
    @staticmethod
    def _outcome(y_c, y_t, q, d):
        r = lr_test(ingest_sample(y_c), ingest_sample(y_t), _spec(q=q), d)
        return r.statistic.hex(), r.p_value.hex(), r.i_star, r.j_star

    @settings(max_examples=200, deadline=None)
    @given(
        y_c=_arm,
        y_t=_arm,
        d=_dyadic,
        c=_dyadic,
        k=hst.integers(-8, 8),
        q=hst.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]),
    )
    def test_shift_and_scale(self, y_c, y_t, d, c, k, q):
        y_c, y_t = np.array(y_c), np.array(y_t)
        base = self._outcome(y_c, y_t, q, d)
        assert self._outcome(y_c + c, y_t + c, q, d) == base
        assert self._outcome(y_c, y_t + c, q, d + c) == base
        scale = 2.0**k
        assert self._outcome(scale * y_c, scale * y_t, q, scale * d) == base


class TestConservativeCI:
    def test_identical_samples_contain_zero(self):
        for q in (0.3, 0.5, 0.7, 0.9):
            ci = conservative_ci(GRID_101, GRID_101, _spec(q=q))
            assert ci.contains(0.0)
            assert ci.lower < 0.0 < ci.upper

    def test_translation_equivariance(self):
        base = conservative_ci(GRID_101, GRID_101, _spec())
        shifted = conservative_ci(
            GRID_101, ingest_sample(GRID_101.values + 7.25), _spec()
        )
        assert shifted.lower == pytest.approx(base.lower + 7.25, abs=1e-12)
        assert shifted.upper == pytest.approx(base.upper + 7.25, abs=1e-12)
        control_shift = conservative_ci(
            ingest_sample(GRID_101.values + 3.0), GRID_101, _spec()
        )
        assert control_shift.lower == pytest.approx(base.lower - 3.0, abs=1e-12)
        assert control_shift.upper == pytest.approx(base.upper - 3.0, abs=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        y_c = ingest_sample(rng.normal(size=60))
        y_t = ingest_sample(rng.normal(size=80))
        base = conservative_ci(y_c, y_t, _spec())
        scaled = conservative_ci(
            ingest_sample(y_c.values * 4.0), ingest_sample(y_t.values * 4.0), _spec()
        )
        assert scaled.lower == pytest.approx(4.0 * base.lower, rel=1e-12)
        assert scaled.upper == pytest.approx(4.0 * base.upper, rel=1e-12)

    def test_alpha_nesting(self):
        rng = np.random.default_rng(17)
        y_c = ingest_sample(rng.normal(size=120))
        y_t = ingest_sample(rng.normal(size=90))
        wide = conservative_ci(y_c, y_t, _spec(alpha=0.01))
        narrow = conservative_ci(y_c, y_t, _spec(alpha=0.05))
        assert wide.lower <= narrow.lower
        assert wide.upper >= narrow.upper

    def test_matches_full_grid_oracle_seeded(self):
        rng = np.random.default_rng(123)
        continuous = (np.sort(rng.normal(size=25)), np.sort(rng.normal(size=25)))
        tied = (
            np.sort(rng.integers(0, 5, size=40).astype(float)),
            np.sort(rng.integers(0, 5, size=33).astype(float)),
        )
        for y_c, y_t in (continuous, tied):
            for calibration, exact in ((deficits, True), (asymptotic_deficit, False)):
                spec = _spec(calibration=calibration)
                got = conservative_ci(ingest_sample(y_c), ingest_sample(y_t), spec)
                want = full_grid_conservative(y_c, y_t, 0.5, 0.05, exact=exact)
                assert want is not None
                assert got.lower == want[0], (len(y_c), exact)
                assert got.upper == want[1], (len(y_c), exact)
                assert ("clamped_index" in got.flags) == want[2]

    def test_clamped_flag_small_n_extreme_q(self):
        rng = np.random.default_rng(5)
        y_c = np.sort(rng.normal(size=8))
        y_t = np.sort(rng.normal(size=8))
        ci = conservative_ci(ingest_sample(y_c), ingest_sample(y_t), _spec(q=0.1))
        assert "clamped_index" in ci.flags
        want = full_grid_conservative(y_c, y_t, 0.1, 0.05)
        assert (ci.lower, ci.upper) == (want[0], want[1])

    def test_clamped_flag_at_the_upper_sample_edge(self):
        # At n = 200 per arm and q = 0.99 the region accepts j = n_t, where
        # y_t(n_t + 1) does not exist: the test accepts every d past the
        # interval's upper end. The flag says so; the endpoints stay the
        # paper's, and at q = 0.5 a far d is rejected with no flag.
        rng = np.random.default_rng(11)
        y_c, y_t = np.sort(rng.normal(size=200)), np.sort(rng.normal(size=200))
        control, treatment = ingest_sample(y_c), ingest_sample(y_t)
        ci = conservative_ci(control, treatment, _spec(q=0.99))
        assert "clamped_index" in ci.flags
        assert (ci.lower, ci.upper, True) == full_grid_conservative(y_c, y_t, 0.99, 0.05)
        assert not lr_test(control, treatment, _spec(q=0.99), ci.upper + 1e6).rejects_at(0.05)
        mid = conservative_ci(control, treatment, _spec())
        assert not mid.flags
        assert lr_test(control, treatment, _spec(), mid.upper + 1e6).rejects_at(0.05)

    def test_degenerate_region(self):
        one = ingest_sample([1.0])
        with pytest.raises(DegenerateRegionError):
            conservative_ci(one, one, _spec(q=0.01))

    def test_point_test_consistency(self):
        rng = np.random.default_rng(31)
        y_c = ingest_sample(rng.normal(size=200))
        y_t = ingest_sample(rng.normal(size=150))
        ci = conservative_ci(y_c, y_t, _spec())
        for frac in (0.05, 0.25, 0.5, 0.75, 0.95):
            d = ci.lower + frac * (ci.upper - ci.lower)
            assert not lr_test(y_c, y_t, _spec(), d).rejects_at(0.05)

    def test_exact_vs_asymptotic_modes_close(self):
        rng = np.random.default_rng(99)
        y_c = ingest_sample(rng.normal(size=400))
        y_t = ingest_sample(rng.normal(size=400))
        exact = conservative_ci(y_c, y_t, _spec(calibration=deficits))
        asym = conservative_ci(y_c, y_t, _spec(calibration=asymptotic_deficit))
        assert asym.width == pytest.approx(exact.width, rel=0.2)


def _cells(grid):
    """Counts i (a column), j (a row) and H of every window cell of a grid."""
    i = np.arange(grid.i_lo, grid.i_lo + grid.g_c.size)[:, None]
    j = np.arange(grid.j_lo, grid.j_lo + grid.g_t.size)
    return i, j, grid.g_c[:, None] + grid.g_t


def _accepted_cells(grid):
    """The (i, j) of every window cell with H below the threshold."""
    i, j = np.nonzero(grid.g_c[:, None] + grid.g_t < grid.threshold)
    return set(zip((i + grid.i_lo).tolist(), (j + grid.j_lo).tolist()))


class TestAcceptanceGrid:
    def test_asymptotic_ellipse_101(self):
        grid = acceptance_grid(101, 101, _spec(calibration=asymptotic_deficit))
        threshold = 3.8414588206941285
        i, j, h = _cells(grid)
        want_h = (i - 50.5) ** 2 / 25.25 + (j - 50.5) ** 2 / 25.25
        np.testing.assert_allclose(h, want_h, rtol=1e-12, atol=1e-12)
        accepted = h < grid.threshold
        assert np.array_equal(accepted, want_h < threshold)
        assert accepted.any()  # ellipse interior is non-trivial
        assert grid.calibration is asymptotic_deficit

    def test_near_one_alpha_nearly_empty(self):
        grid = acceptance_grid(101, 101, _spec(alpha=0.9999, calibration=asymptotic_deficit))
        for i, j in _accepted_cells(grid):
            assert abs(i - 50.5) < 1.0 and abs(j - 50.5) < 1.0

    def test_smallest_case(self):
        grid = acceptance_grid(1, 1, _spec(calibration=deficits))
        i, j, h = _cells(grid)
        assert i.ravel().tolist() == [0, 1] and j.tolist() == [0, 1]
        assert np.isfinite(h).all() and (h >= 0.0).all()

    @pytest.mark.parametrize(
        "n_c, n_t, calibration, want",
        [
            (10_000, 7, None, deficits),
            (10_001, 7, None, asymptotic_deficit),
            (7, 10_001, None, asymptotic_deficit),
            (500, 7, asymptotic_deficit, asymptotic_deficit),
            (10_001, 7, deficits, deficits),
        ],
    )
    def test_spec_picks_the_statistic(self, n_c, n_t, calibration, want):
        # None is exact when both samples have at most 10,000 values.
        assert acceptance_grid(n_c, n_t, _spec(calibration=calibration)).calibration is want

    @pytest.mark.parametrize("calibration", [True, False, "exact", [1]])
    def test_rejects_a_calibration_that_is_not_a_deficit(self, calibration):
        # An old boolean spelling, a name or an unhashable value is a
        # DomainError (exit 2), not a TypeError from calling it.
        spec = _spec(calibration=calibration)
        with pytest.raises(DomainError, match=re.escape(f"calibration {calibration!r} ")):
            acceptance_grid(20, 20, spec)
        with pytest.raises(DomainError, match=re.escape(f"calibration {calibration!r} ")):
            conservative_ci(GRID_101, GRID_101, spec)

    def test_window_covers_all_accepted(self):
        # every accepted cell of the full grid must appear in the window
        grid = acceptance_grid(30, 30, _spec(q=0.3, calibration=deficits))
        windowed = _accepted_cells(grid)
        lp_c = st.binom.logpmf(np.arange(31), 30, 0.3)
        thr = st.chi2.isf(0.05, 1)
        k = int(np.argmax(lp_c))
        full = set()
        for i in range(31):
            for j in range(31):
                h = -2 * (lp_c[i] + lp_c[j] - 2 * lp_c[k])
                if h < thr:
                    full.add((i, j))
        assert windowed == full

    def test_cached_and_read_only(self):
        grid = acceptance_grid(40, 30, _spec(q=0.3))
        assert acceptance_grid(40, 30, _spec(q=0.3)) is grid
        for arr in (grid.g_c, grid.g_t, grid.accepted_i, grid.j_first, grid.j_last):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("n, shared", [(1, True), (10_000, True), (10_001, False)])
    def test_default_shares_the_region_of_its_calibration(self, n, shared):
        # conservative_rows reads the default region and lr_rejections the
        # exact one; up to 10,000 values a coverage block builds it once.
        default = acceptance_grid(n, n, QuantileSpec(0.3, 0.05))
        assert (default is acceptance_grid(n, n, QuantileSpec(0.3, 0.05, deficits))) is shared
        resolved = acceptance_grid(n, n, QuantileSpec(0.3, 0.05, default.calibration))
        assert resolved is default

    @settings(max_examples=400, deadline=None)
    @given(
        calibration=hst.sampled_from([deficits, asymptotic_deficit]),
        n=hst.integers(1, 400),
        q=hst.one_of(
            hst.sampled_from([1e-12, 1e-6, 0.001, 0.05, 0.5, 0.9, 0.999, 1 - 1e-6, 1 - 1e-12]),
            hst.floats(1e-12, 1 - 1e-12),
        ),
        alpha=hst.sampled_from([1e-12, 1e-6, 0.01, 0.05, 0.5, 0.9999]),
    )
    def test_window_holds_every_accepted_count(self, calibration, n, q, alpha):
        # The window is the full scan's slice, bit for bit, and no count
        # outside it scores below the threshold.
        threshold = chi2_quantile_1df(alpha)
        lo, window = region._window_deficits(q, n, threshold, calibration)
        full = calibration(np.arange(n + 1), q, n)
        assert window.tobytes() == full[lo : lo + window.size].tobytes()
        accepted = np.flatnonzero(full < threshold)
        assert ((lo <= accepted) & (accepted < lo + window.size)).all()
        # An edge short of count 0 or n rejects, so a count past the window
        # may read its edge in place of +inf (region._best_pairs does).
        edges = {lo: window[0], lo + window.size - 1: window[-1]}
        assert all(g >= threshold for k, g in edges.items() if k not in (0, n))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n_c=hst.integers(5, 300),
        n_t=hst.integers(5, 300),
        q=hst.sampled_from([0.1, 0.25, 0.5, 0.9]),
        rounded=hst.booleans(),
        d=hst.one_of(hst.floats(-0.3, 0.3), hst.floats(-3.0, 3.0)),
    )
    def test_lr_test_reads_its_grid_cell(self, seed, n_c, n_t, q, rounded, d):
        # The statistic at (i*, j*) is g_c(i*) + g_t(j*), from the same
        # per-sample deficits the grid holds, so the two agree bit for bit.
        rng = np.random.default_rng(seed)
        y_c, y_t = rng.normal(size=n_c), rng.normal(size=n_t)
        if rounded:
            y_c, y_t, d = np.round(y_c, 1), np.round(y_t, 1), round(d, 1)
        spec = _spec(q=q, calibration=deficits)
        grid = acceptance_grid(n_c, n_t, spec)
        r = lr_test(ingest_sample(y_c), ingest_sample(y_t), spec, d)
        i, j = r.i_star - grid.i_lo, r.j_star - grid.j_lo
        if not (0 <= i < grid.g_c.size and 0 <= j < grid.g_t.size):
            assert r.rejects_at(spec.alpha)
            return
        h = grid.g_c[i] + grid.g_t[j]
        assert r.statistic == h
        assert r.rejects_at(spec.alpha) == (not h < grid.threshold)

    @settings(max_examples=100, deadline=None)
    @given(
        n_c=hst.integers(10, 1000),
        n_t=hst.integers(10, 1000),
        q=hst.floats(0.02, 0.98),
        alpha=hst.sampled_from([0.1, 0.05, 0.01]),
    )
    # C pow(x, 2.0) misrounded the scalar square at some of these cells.
    @example(n_c=492, n_t=67, q=0.6344101359849695, alpha=0.1)
    def test_asymptotic_statistic_reads_its_grid_cell(self, n_c, n_t, q, alpha):
        spec = _spec(q=q, alpha=alpha, calibration=asymptotic_deficit)
        grid = acceptance_grid(n_c, n_t, spec)
        for i, g_c in enumerate(grid.g_c.tolist(), start=grid.i_lo):
            for j, g_t in enumerate(grid.g_t.tolist(), start=grid.j_lo):
                assert lr_statistic_asymptotic(i, j, spec, n_c, n_t).value == g_c + g_t

    def test_csv_export(self):
        grid = acceptance_grid(3, 3, _spec(calibration=deficits))
        buf = io.BytesIO()
        write_acceptance_grid_csv(grid, buf)
        lines = buf.getvalue().decode("ascii").splitlines()
        assert lines[0] == "i,j,h,accepted"
        assert len(lines) == 1 + grid.g_c.size * grid.g_t.size
        first = lines[1].split(",")
        assert first[:2] == [str(grid.i_lo), str(grid.j_lo)]
        assert first[3] in {"0", "1"}
        # reals carry at most 9 significant digits
        for line in lines[1:]:
            h_field = line.split(",")[2]
            digits = h_field.replace("-", "").replace(".", "").replace("e", "")
            assert len(digits.lstrip("0")) <= 9 or "e" in h_field

    @staticmethod
    def _csv(writer, grid) -> bytes:
        buf = io.BytesIO()
        writer(grid, buf)
        return buf.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(
        n_c=hst.integers(1, 400),
        n_t=hst.integers(1, 400),
        q=hst.sampled_from([1e-3, 0.02, 0.5, 0.98, 0.999]),
        alpha=hst.sampled_from([1e-6, 0.05, 0.9999]),
        calibration=hst.sampled_from([deficits, asymptotic_deficit, None]),
        cell=hst.integers(0, 2**32),
    )
    def test_csv_bytes_match_per_cell_writer(self, n_c, n_t, q, alpha, calibration, cell):
        grid = acceptance_grid(n_c, n_t, _spec(q=q, alpha=alpha, calibration=calibration))
        assert self._csv(write_acceptance_grid_csv, grid) == self._csv(per_cell_grid_csv, grid)
        # With the threshold moved onto one cell's h, that cell must read 0.
        i, j = cell % grid.g_c.size, cell // grid.g_c.size % grid.g_t.size
        edge = dataclasses.replace(grid, threshold=float(grid.g_c[i] + grid.g_t[j]))
        assert self._csv(write_acceptance_grid_csv, edge) == self._csv(per_cell_grid_csv, edge)

    def test_csv_bytes_match_per_cell_writer_large_asymptotic(self):
        grid = acceptance_grid(20_000, 30_000, _spec(q=0.9, calibration=asymptotic_deficit))
        assert self._csv(write_acceptance_grid_csv, grid) == self._csv(per_cell_grid_csv, grid)

    # Shapes on each side of the writer's chunk of 4,096 cells: many rows
    # to a chunk with a short last chunk, and rows longer than a chunk.
    @pytest.mark.parametrize("n_i, n_j", [(1, 1), (1500, 7), (3, 5000)])
    def test_csv_bytes_match_per_cell_writer_on_synthetic_deficits(self, n_i, n_j):
        # Real grids keep h below ~50; these deficits span 1e-6..1e10 with
        # exact zeros, so their cells reach exponent notation and h >= 1e9.
        rng = np.random.default_rng(n_i * n_j)
        grid = acceptance_grid(101, 101, _spec(calibration=deficits))

        def spread(n):
            g = 10 ** rng.uniform(-6, 10, n)
            g[rng.random(n) < 0.1] = 0.0
            return g

        synthetic = dataclasses.replace(grid, g_c=spread(n_i), g_t=spread(n_j))
        assert self._csv(write_acceptance_grid_csv, synthetic) == self._csv(per_cell_grid_csv, synthetic)

    def test_csv_export_memory_stays_bounded(self):
        # The 200,000 x 100,000 grid's text is 12 MB; the writer holds a chunk.
        grid = acceptance_grid(200_000, 100_000, _spec())

        class Discard:
            def write(self, text):
                pass

        tracemalloc.start()
        try:
            write_acceptance_grid_csv(grid, Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


def _h_texts(values) -> list[str]:
    """The writer's h field of each value, with its 0-byte padding dropped."""
    fields = region._h_fields(np.asarray(values, dtype=float))
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in fields]


class TestHFields:
    """The grid writer's vectorised %.9g against Python's, value by value."""

    @settings(max_examples=500, deadline=None)
    @given(h=hst.floats(0.0, 1e12))
    @example(h=0.0)
    @example(h=5e-324)
    @example(h=999999999.5)
    @example(h=(123456789 + 0.5) / 10**8)
    @example(h=(100000000 + 0.5) / 10**12)
    @example(h=(999999998 + 0.5) / 10**4)
    @example(h=math.nextafter(1e-4, -math.inf))
    @example(h=math.nextafter(1e-4, math.inf))
    @example(h=math.nextafter(1.0, -math.inf))
    @example(h=math.nextafter(1e8, math.inf))
    @example(h=math.nextafter(1e9, -math.inf))
    def test_matches_format(self, h):
        assert _h_texts([h]) == [format(h, ".9g")]

    def test_matches_format_on_ties_decade_edges_and_a_log_sweep(self):
        rng = np.random.default_rng(0)
        digits = np.concatenate([[10**8, 10**9 - 2, 10**9 - 1], rng.integers(10**8, 10**9, 200)])
        ties = [(k + 0.5) / 10**p for k in digits.tolist() for p in range(2, 17)]
        powers = [10.0**e for e in range(-6, 11)]
        edges = [math.nextafter(x, to) for x in powers for to in (-math.inf, math.inf)]
        values = [0.0, *ties, *powers, *edges, *(10 ** rng.uniform(-6, 10, 20_000)).tolist()]
        assert _h_texts(values) == [format(h, ".9g") for h in values]
