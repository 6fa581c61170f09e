"""Constrained line search, LR test, and acceptance-region interval."""

import io
import math

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from quantdiff import (
    OrderedSample,
    QuantileSpec,
    acceptance_grid,
    conservative_ci,
    constrained_max_indexes,
    ingest_sample,
    lr_test,
    write_acceptance_grid_csv,
)
from quantdiff import region
from quantdiff.errors import DegenerateRegionError, NumericOverflowError, ValidationError

from oracles import best_reachable_score, full_grid_conservative, reachable_pairs

GRID_101 = ingest_sample(np.arange(1.0, 102.0))


def _spec(q=0.5, alpha=0.05):
    return QuantileSpec(q=q, alpha=alpha)


class TestConstrainedMaxIndexes:
    def test_identical_samples_d0(self):
        assert constrained_max_indexes(GRID_101, GRID_101, 0.5, 0.0) == (51, 51)

    def test_true_shift(self):
        shifted = ingest_sample(GRID_101.values + 10.0)
        assert constrained_max_indexes(GRID_101, shifted, 0.5, 10.0) == (51, 51)
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
        # whose scores tie bitwise: C(100,49) == C(100,51) makes the two
        # lgamma expressions identical. Ascending first-wins keeps the
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

    def test_block_rows_match_one_pair_calls(self):
        # The coverage engine decides the LR test for many replications at
        # once; every row must get the (i*, j*) and the decision of its own
        # one-pair call.
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
            i, j, h = region._constrained_max_rows(y_c, y_t, spec.q, d)
            rejects = region.lr_rejections(y_c, y_t, spec, d)
            for r in range(rows):
                control, treatment = OrderedSample(y_c[r], n_c), OrderedSample(y_t[r], n_t)
                got = (i[r], j[r])
                assert got == constrained_max_indexes(control, treatment, spec.q, d), (trial, r)
                want = lr_test(control, treatment, spec, d)
                assert (want.i_star, want.j_star) == got, (trial, r)
                assert float(h[r]).hex() == want.statistic.hex(), (trial, r)
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


class TestLRTest:
    def test_identical_d0(self):
        r = lr_test(GRID_101, GRID_101, _spec(), 0.0)
        assert r.statistic == 0.0
        assert r.p_value == 1.0
        assert not r.rejects_at(0.05)
        assert (r.i_star, r.j_star) == (51, 51)

    def test_statistic_grows_with_distance_from_estimate(self):
        stats = [
            lr_test(GRID_101, GRID_101, _spec(), d).statistic
            for d in (0.0, 5.0, 10.0, 20.0)
        ]
        assert stats[0] == 0.0
        assert stats == sorted(stats)
        assert stats[-1] > stats[1] > 0.0

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
            for exact in (True, False):
                got = conservative_ci(
                    ingest_sample(y_c), ingest_sample(y_t), _spec(), use_exact=exact
                )
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
        exact = conservative_ci(y_c, y_t, _spec(), use_exact=True)
        asym = conservative_ci(y_c, y_t, _spec(), use_exact=False)
        assert asym.width == pytest.approx(exact.width, rel=0.2)


class TestAcceptanceGrid:
    def test_asymptotic_ellipse_101(self):
        grid = acceptance_grid(101, 101, _spec(), use_exact=False)
        threshold = 3.8414588206941285
        for i, j, h, accepted in grid.rows:
            want_h = (i - 50.5) ** 2 / 25.25 + (j - 50.5) ** 2 / 25.25
            assert h == pytest.approx(want_h, rel=1e-12)
            assert accepted == (want_h < threshold)
        accepted_cells = [r for r in grid.rows if r[3]]
        assert accepted_cells  # ellipse interior is non-trivial
        assert not grid.exact

    def test_near_one_alpha_nearly_empty(self):
        grid = acceptance_grid(101, 101, _spec(alpha=0.9999), use_exact=False)
        accepted = [(i, j) for i, j, _, a in grid.rows if a]
        for i, j in accepted:
            assert abs(i - 50.5) < 1.0 and abs(j - 50.5) < 1.0

    def test_smallest_case(self):
        grid = acceptance_grid(1, 1, _spec(), use_exact=True)
        cells = {(i, j) for i, j, _, _ in grid.rows}
        assert cells == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for _, _, h, _ in grid.rows:
            assert math.isfinite(h) and h >= 0.0

    def test_window_covers_all_accepted(self):
        # every accepted cell of the full grid must appear in the window
        grid = acceptance_grid(30, 30, _spec(q=0.3), use_exact=True)
        windowed = {(i, j) for i, j, _, a in grid.rows if a}
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

    def test_csv_export(self):
        grid = acceptance_grid(3, 3, _spec(), use_exact=True)
        buf = io.StringIO()
        write_acceptance_grid_csv(grid, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "i,j,h,accepted"
        assert len(lines) == 1 + len(grid.rows)
        first = lines[1].split(",")
        assert first[0] == str(grid.rows[0][0])
        assert first[3] in {"0", "1"}
        # reals carry at most 9 significant digits
        for line in lines[1:]:
            h_field = line.split(",")[2]
            digits = h_field.replace("-", "").replace(".", "").replace("e", "")
            assert len(digits.lstrip("0")) <= 9 or "e" in h_field
