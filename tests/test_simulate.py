"""Scenario generation, per-replication streams, and coverage aggregation."""

import csv
import io
import math

import numpy as np
import pytest

from quantdiff import (
    COVERAGE_CSV_HEADER,
    Distribution,
    Method,
    ScenarioSpec,
    generate_pair,
    parse_distribution,
    run_coverage_study,
    true_quantile,
    write_coverage_csv,
)
from quantdiff.errors import DomainError, ValidationError
from quantdiff.simulate import _replication_records


def _scenario(**overrides):
    kwargs = dict(
        dist_c=Distribution.normal(0.0, 1.0),
        dist_t=Distribution.normal(0.0, 1.0),
        n_c=100,
        n_t=100,
        q=0.5,
        alpha=0.05,
        replications=50,
        master_seed=7,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestTrueQuantile:
    def test_normal_median_is_exact_zero(self):
        assert true_quantile(Distribution.normal(0.0, 1.0), 0.5) == 0.0

    def test_exponential_median(self):
        got = true_quantile(Distribution.exponential(1.0), 0.5)
        assert got == pytest.approx(math.log(2.0), rel=1e-15)

    def test_uniform(self):
        assert true_quantile(Distribution.uniform(0.0, 1.0), 0.25) == 0.25
        assert true_quantile(Distribution.uniform(-2.0, 6.0), 0.5) == 2.0

    def test_lognormal(self):
        assert true_quantile(Distribution.lognormal(0.0, 1.0), 0.5) == pytest.approx(
            1.0, rel=1e-12
        )
        got = true_quantile(Distribution.lognormal(1.0, 2.0), 0.9)
        want = math.exp(1.0 + 2.0 * 1.2815515655446004)
        assert got == pytest.approx(want, rel=1e-8)

    def test_q_domain(self):
        with pytest.raises(DomainError):
            true_quantile(Distribution.normal(0.0, 1.0), 0.0)

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            Distribution.normal(0.0, 0.0)
        with pytest.raises(DomainError):
            Distribution.exponential(-1.0)
        with pytest.raises(DomainError):
            Distribution.uniform(3.0, 3.0)


class TestParseDistribution:
    @pytest.mark.parametrize(
        "text,family,params",
        [
            ("normal(0,1)", "normal", (0.0, 1.0)),
            ("lognormal(0, 1)", "lognormal", (0.0, 1.0)),
            ("exponential(2)", "exponential", (2.0,)),
            ("uniform(-1, 1)", "uniform", (-1.0, 1.0)),
            (" normal( 0.5 , 2.5 ) ", "normal", (0.5, 2.5)),
        ],
    )
    def test_good(self, text, family, params):
        d = parse_distribution(text)
        assert d.family.value == family
        assert d.params == params

    @pytest.mark.parametrize(
        "text", ["gamma(1,1)", "normal(0)", "normal(0,1,2)", "normal(a,b)", "normal", ""]
    )
    def test_bad(self, text):
        with pytest.raises((ValidationError, DomainError)):
            parse_distribution(text)

    def test_str_roundtrip(self):
        for text in ("normal(0,1)", "lognormal(1,0.5)", "exponential(2)", "uniform(0,1)"):
            assert str(parse_distribution(text)) == text


class TestGeneratePair:
    def test_deterministic(self):
        spec = _scenario()
        a_c, a_t = generate_pair(spec, 3)
        b_c, b_t = generate_pair(spec, 3)
        assert np.array_equal(a_c.values, b_c.values)
        assert np.array_equal(a_t.values, b_t.values)

    def test_distinct_indexes_distinct_draws(self):
        spec = _scenario()
        a_c, _ = generate_pair(spec, 0)
        b_c, _ = generate_pair(spec, 1)
        assert not np.array_equal(a_c.values, b_c.values)

    def test_control_treatment_not_aliased(self):
        spec = _scenario()
        c, t = generate_pair(spec, 0)
        assert not np.array_equal(c.values, t.values)

    def test_mean_sanity_large_n(self):
        spec = _scenario(n_c=100_000, n_t=100_000, replications=1)
        c, t = generate_pair(spec, 0)
        bound = 4.0 / math.sqrt(100_000)
        assert abs(float(np.mean(c.values))) < bound
        assert abs(float(np.mean(t.values))) < bound

    def test_index_out_of_range(self):
        spec = _scenario(replications=5)
        with pytest.raises(DomainError):
            generate_pair(spec, 5)
        with pytest.raises(DomainError):
            generate_pair(spec, -1)


class TestScenarioSpec:
    def test_true_delta_derived(self):
        spec = _scenario(dist_t=Distribution.normal(1.5, 1.0))
        assert spec.true_delta == 1.5
        spec2 = _scenario(
            dist_c=Distribution.exponential(1.0), dist_t=Distribution.exponential(2.0)
        )
        assert spec2.true_delta == pytest.approx(
            -math.log(2.0) / 2.0, rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            _scenario(replications=0)
        with pytest.raises(DomainError):
            _scenario(n_c=0)
        with pytest.raises(DomainError):
            _scenario(master_seed=-1)
        with pytest.raises(DomainError):
            _scenario(master_seed=2**64)


class TestRunCoverageStudy:
    def test_row_shape_and_order(self):
        spec = _scenario()
        # request out of order; rows must come back in canonical order
        rows = run_coverage_study(
            spec,
            [
                Method.DONNER_ZOU,
                Method.LR_CONSERVATIVE,
                Method.LR_TWO_STEP,
                Method.PRICE_BONNET,
            ],
        )
        assert [r.method for r in rows] == [
            Method.LR_CONSERVATIVE,
            Method.LR_TWO_STEP,
            Method.PRICE_BONNET,
            Method.DONNER_ZOU,
        ]
        for r in rows:
            assert 0.0 <= r.coverage <= 1.0
            assert r.mean_width > 0.0
            assert r.failures == 0
            assert r.mc_stderr == pytest.approx(
                math.sqrt(r.coverage * (1 - r.coverage) / spec.replications)
            )
            assert r.reject_rate_at_true_d == rows[0].reject_rate_at_true_d

    def test_parallel_matches_sequential(self):
        spec = _scenario(replications=60, n_c=80, n_t=80)
        methods = [Method.LR_CONSERVATIVE, Method.LR_TWO_STEP, Method.PRICE_BONNET]
        sequential = run_coverage_study(spec, methods, jobs=1)
        parallel = run_coverage_study(spec, methods, jobs=2)
        assert sequential == parallel

    def test_one_sample_rejected(self):
        with pytest.raises(ValidationError):
            run_coverage_study(_scenario(), ["one_sample"])
        with pytest.raises(ValidationError):
            run_coverage_study(_scenario(), [])

    def test_string_method_names_accepted(self):
        rows = run_coverage_study(_scenario(replications=5), ["lr_two_step"])
        assert rows[0].method is Method.LR_TWO_STEP

    def test_location_shift_preserves_containment_sequence(self):
        # Same substreams, treatment shifted through its location parameter:
        # order statistics shift by exactly the constant, so every method's
        # per-replication containment indicator must match the unshifted run.
        methods = tuple(
            (Method.LR_CONSERVATIVE, Method.LR_TWO_STEP, Method.PRICE_BONNET,
             Method.DONNER_ZOU)
        )
        base = _scenario(replications=200)
        shifted = _scenario(
            replications=200, dist_t=Distribution.normal(1.5, 1.0)
        )
        for r in range(base.replications):
            rec_a, _ = _replication_records(base, methods, r)
            rec_b, _ = _replication_records(shifted, methods, r)
            assert [x[0] for x in rec_a] == [x[0] for x in rec_b], r

    def test_tiny_samples_fail_only_where_expected(self):
        spec = _scenario(n_c=1, n_t=1, replications=30)
        rows = run_coverage_study(
            spec,
            [Method.LR_CONSERVATIVE, Method.LR_TWO_STEP, Method.PRICE_BONNET,
             Method.DONNER_ZOU],
        )
        by_method = {r.method: r for r in rows}
        # two_step and both baselines need a non-collapsed index interval,
        # impossible at n=1; the region search still yields a (degenerate)
        # interval.
        for m in (Method.LR_TWO_STEP, Method.PRICE_BONNET, Method.DONNER_ZOU):
            assert by_method[m].failures == spec.replications
            assert math.isnan(by_method[m].coverage)
            assert math.isnan(by_method[m].mc_stderr)
        assert by_method[Method.LR_CONSERVATIVE].failures == 0

    def test_jobs_validation(self):
        with pytest.raises(DomainError):
            run_coverage_study(_scenario(replications=2), [Method.LR_TWO_STEP], jobs=0)


class TestWriteCoverageCsv:
    def test_header_and_rows(self):
        spec = _scenario(replications=10)
        rows = run_coverage_study(spec, [Method.LR_TWO_STEP, Method.PRICE_BONNET])
        buf = io.StringIO()
        write_coverage_csv(spec, rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == COVERAGE_CSV_HEADER
        assert lines[0] == (
            "method,coverage,mean_width,reject_rate,mc_stderr,failures,"
            "n_c,n_t,q,alpha,dist_c,dist_t,seed,replications"
        )
        assert len(lines) == 3
        first = next(csv.reader([lines[1]]))
        assert first[0] == "lr_two_step"
        assert first[6] == "100" and first[7] == "100"
        assert first[10] == "normal(0,1)"
        assert first[13] == "10"

    def test_distribution_column_text(self):
        spec = _scenario(
            replications=5, dist_t=Distribution.lognormal(0.0, 1.0)
        )
        rows = run_coverage_study(spec, [Method.LR_TWO_STEP])
        buf = io.StringIO()
        write_coverage_csv(spec, rows, buf)
        body = buf.getvalue().splitlines()[1]
        assert '"normal(0,1)"' in body and '"lognormal(0,1)"' in body
