"""Scenario generation, per-replication streams, and coverage aggregation."""

import csv
import io
import math
import os
import re
import subprocess
import sys
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from oracles import per_block_coverage_tally

from quantdiff import (
    COVERAGE_CSV_HEADER,
    TWO_SAMPLE_METHODS,
    Distribution,
    Method,
    OrderedSample,
    QuantileSpec,
    ScenarioSpec,
    generate_pair,
    lr_test,
    parse_distribution,
    run_coverage_study,
    true_quantile,
    write_coverage_csv,
)
from quantdiff import simulate
from quantdiff.cli import main as cli_main
from quantdiff.errors import (
    DomainError,
    EstimationError,
    NonFiniteValueError,
    NumericOverflowError,
    ValidationError,
)
from quantdiff.simulate import compute_ci

GOLDEN = Path(__file__).parent / "data"


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

    @pytest.mark.parametrize(
        "dist, q, name",
        [
            (Distribution.normal(1.7e308, 1e308), 0.9, "normal(1.7e+308,1e+308)"),
            (Distribution.exponential(5e-324), 0.5, "exponential(4.94066e-324)"),
            (Distribution.lognormal(0.0, 1000.0), 0.9, "lognormal(0,1000)"),
        ],
    )
    def test_overflow_is_an_error_for_every_family(self, dist, q, name):
        message = f"the {q} quantile of {name} overflows double precision"
        with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
            true_quantile(dist, q)
        with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
            _scenario(dist_c=Distribution.normal(0.0, 1.0), dist_t=dist, q=q)

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
        "text",
        ["gamma(1,1)", "normal(0)", "normal(0,1,2)", "normal(a,b)", "normal", "", "normal(inf,1)"],
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


# One arm of each family, and its draw as plain numpy code.
_ARMS = [
    Distribution.normal(0.5, 2.0),
    Distribution.lognormal(-0.5, 0.8),
    Distribution.exponential(3.0),
    Distribution.uniform(-1.0, 4.0),
]
_NUMPY_DRAWS = {
    "normal": lambda rng, p, n: rng.normal(p[0], p[1], size=n),
    "lognormal": lambda rng, p, n: rng.lognormal(p[0], p[1], size=n),
    "exponential": lambda rng, p, n: rng.exponential(scale=1.0 / p[0], size=n),
    "uniform": lambda rng, p, n: rng.uniform(p[0], p[1], size=n),
}
_U64 = 2**64 - 1


def _numpy_pair(spec, r):
    """Replication r's sorted draws from numpy's own substream for (master_seed, r)."""
    seed_seq = np.random.SeedSequence(entropy=(spec.master_seed, r))
    rng = np.random.Generator(np.random.Philox(seed_seq))
    arms = [(spec.dist_c, spec.n_c), (spec.dist_t, spec.n_t)]
    return [np.sort(_NUMPY_DRAWS[d.family.value](rng, d.params, n)) for d, n in arms]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSubstreams:
    """Replication r draws exactly what numpy's substream for (master_seed, r) gives."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=hst.integers(0, _U64),
        r=hst.integers(0, _U64),
        arm_c=hst.sampled_from(_ARMS),
        arm_t=hst.sampled_from(_ARMS),
        n_c=hst.integers(1, 30),
        n_t=hst.integers(1, 30),
    )
    @example(seed=0, r=0, arm_c=_ARMS[0], arm_t=_ARMS[1], n_c=5, n_t=6)
    @example(seed=2**32 - 1, r=2**32 - 1, arm_c=_ARMS[1], arm_t=_ARMS[2], n_c=5, n_t=6)
    @example(seed=2**32, r=2**32, arm_c=_ARMS[2], arm_t=_ARMS[3], n_c=5, n_t=6)
    @example(seed=_U64, r=_U64, arm_c=_ARMS[3], arm_t=_ARMS[0], n_c=5, n_t=6)
    @example(seed=2**32 - 1, r=2**32 + 5, arm_c=_ARMS[0], arm_t=_ARMS[0], n_c=5, n_t=6)
    @example(seed=2**32, r=7, arm_c=_ARMS[3], arm_t=_ARMS[3], n_c=5, n_t=6)
    def test_pair_is_numpys_substream(self, seed, r, arm_c, arm_t, n_c, n_t):
        # generate_pair draws one row only, so any index below replications works.
        spec = _scenario(
            dist_c=arm_c, dist_t=arm_t, n_c=n_c, n_t=n_t,
            replications=2**64, master_seed=seed,
        )
        control, treatment = generate_pair(spec, r)
        want_c, want_t = _numpy_pair(spec, r)
        assert _same_bits(control.values, want_c)
        assert _same_bits(treatment.values, want_t)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, _U64])
    @pytest.mark.parametrize("family", range(4))
    def test_block_across_two_to_the_32(self, seed, family):
        # r's high word turns from 0 to 1 inside the block.
        spec = _scenario(
            dist_c=_ARMS[family], dist_t=_ARMS[(family + 1) % 4], n_c=9, n_t=4,
            replications=2**64, master_seed=seed,
        )
        y_c, y_t = simulate._draw_block(spec, 2**32 - 2, 2**32 + 2)
        for row, r in enumerate(range(2**32 - 2, 2**32 + 2)):
            want_c, want_t = _numpy_pair(spec, r)
            assert _same_bits(y_c[row], want_c), (seed, r)
            assert _same_bits(y_t[row], want_t), (seed, r)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=hst.integers(0, _U64),
        start=hst.one_of(
            hst.integers(0, 50),
            hst.integers(2**32 - 30, 2**32 + 5),
            hst.integers(2**64 - 60, 2**64 - 30),
        ),
        data=hst.data(),
    )
    def test_split_does_not_change_the_draws(self, seed, start, data):
        # Drawing rows [start, stop) as one block or as sub-blocks, as the
        # study does for any --jobs, gives the same rows bit for bit.
        stop = start + data.draw(hst.integers(2, 30), label="rows")
        cuts = data.draw(hst.sets(hst.integers(start + 1, stop - 1)), label="cuts")
        bounds = [start, *sorted(cuts), stop]
        spec = _scenario(
            dist_c=data.draw(hst.sampled_from(_ARMS), label="arm_c"),
            dist_t=data.draw(hst.sampled_from(_ARMS), label="arm_t"),
            n_c=6, n_t=3, replications=2**64, master_seed=seed,
        )
        whole = simulate._draw_block(spec, start, stop)
        parts = [simulate._draw_block(spec, a, b) for a, b in zip(bounds, bounds[1:])]
        for arm in (0, 1):
            assert _same_bits(np.concatenate([part[arm] for part in parts]), whole[arm])


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
        with pytest.raises(DomainError):
            _scenario(replications=2**64 + 1)

    def test_true_difference_past_the_float_range(self):
        # Two finite quantiles whose difference overflows.
        dist_c, dist_t = Distribution.normal(-1e308, 1.0), Distribution.normal(1e308, 1.0)
        with pytest.raises(DomainError, match="true difference of the 0.9 quantiles"):
            _scenario(dist_c=dist_c, dist_t=dist_t, q=0.9)


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
        base = _scenario(replications=200)
        shifted = _scenario(
            replications=200, dist_t=Distribution.normal(1.5, 1.0)
        )
        blocks = []
        for spec in (base, shifted):
            intervals, _ = simulate._evaluate_block(spec, TWO_SAMPLE_METHODS, 0, 200)
            d = spec.true_delta
            blocks.append([(rows.lower <= d) & (d <= rows.upper) for rows in intervals])
        for method, in_a, in_b in zip(TWO_SAMPLE_METHODS, *blocks):
            assert np.array_equal(in_a, in_b), method

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

    @staticmethod
    def _fresh_python(code):
        """What ``code`` prints in a fresh interpreter that imports quantdiff from src."""
        src = Path(simulate.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout

    @classmethod
    def _modules_after_cli_import(cls, packages, argv=None):
        """The loaded modules of the packages, after a fresh ``import
        quantdiff.cli`` and, given ``argv``, a ``main(argv)`` that exits 0."""
        dotted = tuple(f"{p}." for p in packages)
        return cls._fresh_python(
            "import sys, quantdiff.cli; "
            + (f"assert quantdiff.cli.main({argv!r}) == 0; " if argv else "")
            + f"print(sorted(m for m in sys.modules if (m + '.').startswith({dotted!r})))"
        )

    def test_only_the_cli_import_freezes_the_collector(self):
        # A command keeps its imports until exit, so the cli takes them out
        # of the collector's walks; a program importing the library does not.
        freeze_count = "import gc, {}; print(gc.get_freeze_count())"
        assert int(self._fresh_python(freeze_count.format("quantdiff.cli"))) > 0
        assert int(self._fresh_python(freeze_count.format("quantdiff"))) == 0

    def test_cli_import_leaves_out_the_process_pool(self):
        # Only a study with more than one worker needs concurrent.futures
        # and the multiprocessing modules it pulls in.
        assert self._modules_after_cli_import(["concurrent", "multiprocessing"]) == "[]\n"

    def test_cli_import_leaves_out_numpy_random(self):
        # numpy.random (with secrets, hashlib and every bit generator) loads
        # when a study first draws, so ci, test and region never pay for it.
        assert self._modules_after_cli_import(["numpy.random"]) == "[]\n"

    def test_cli_import_leaves_out_statistics(self):
        # The normal quantile is computed in likelihood, so no process loads
        # statistics and, through it, fractions and decimal.
        modules = ["statistics", "_statistics", "fractions", "decimal", "_decimal"]
        assert self._modules_after_cli_import(modules) == "[]\n"

    def test_region_and_simulate_leave_out_json(self, tmp_path):
        # Only ci and test print JSON.
        output = ["--output", str(tmp_path / "out")]
        for argv in (
            ["region", "--n-c", "5", "--n-t", "5", "--q", "0.5", *output],
            ["simulate", "--n-c", "5", "--n-t", "5", "--q", "0.5", "--replications", "2", *output],
        ):
            assert self._modules_after_cli_import(["json"], argv) == "[]\n", argv

    def test_ci_test_and_region_leave_out_numpy_random_and_ma(self, tmp_path):
        # A cold call pays 10-15 ms to import numpy.random and 15-25 ms for
        # numpy.ma, which np.unique loads unless it returns the inverse.
        rng = np.random.default_rng(7)
        control, treatment = tmp_path / "control.csv", tmp_path / "treatment.csv"
        np.savetxt(control, np.round(rng.lognormal(3.0, 0.5, 500), 6))
        np.savetxt(treatment, np.round(rng.lognormal(3.02, 0.5, 500), 1))
        samples = ["--control", str(control), "--treatment", str(treatment), "--q", "0.5"]
        output = ["--output", str(tmp_path / "out")]
        for argv in (
            ["ci", *samples, *output],
            ["test", *samples, "--d", "0.4", *output],
            ["test", *samples, "--d", "30", *output],
            ["region", "--n-c", "500", "--n-t", "500", "--q", "0.5", *output],
        ):
            modules = self._modules_after_cli_import(["numpy.random", "numpy.ma"], argv)
            assert modules == "[]\n", argv


def _bits(x):
    return np.float64(x).view(np.uint64)


def _random_distribution(rng):
    family = rng.integers(4)
    if family == 0:
        return Distribution.normal(rng.uniform(-3, 3), rng.uniform(0.1, 5))
    if family == 1:
        return Distribution.lognormal(rng.uniform(-1, 1), rng.uniform(0.1, 2))
    if family == 2:
        return Distribution.exponential(rng.uniform(0.1, 10))
    a = rng.uniform(-5, 5)
    return Distribution.uniform(a, a + rng.uniform(0.01, 10))


class TestBlockEngine:
    """The study's block evaluation against the one-pair functions."""

    @staticmethod
    def _assert_block_matches_pairs(spec):
        intervals, rejections = simulate._evaluate_block(
            spec, TWO_SAMPLE_METHODS, 0, spec.replications
        )
        qspec = QuantileSpec(spec.q, spec.alpha)
        for r in range(spec.replications):
            control, treatment = generate_pair(spec, r)
            for method, rows in zip(TWO_SAMPLE_METHODS, intervals):
                try:
                    ci = compute_ci(method, control, treatment, qspec)
                except EstimationError:
                    # The method raised on the whole block: NaN endpoints, no flags.
                    ends = np.concatenate([rows.lower, rows.upper])
                    assert np.isnan(ends).all() and rows.flags == {}, (spec, r, method)
                    continue
                assert _bits(rows.lower[r]) == _bits(ci.lower), (spec, r, method)
                assert _bits(rows.upper[r]) == _bits(ci.upper), (spec, r, method)
                flags = {name for name, mask in rows.flags.items() if mask[r]}
                assert flags == ci.flags, (spec, r, method)
            test = lr_test(control, treatment, qspec, spec.true_delta)
            assert rejections[r] == test.rejects_at(spec.alpha), (spec, r)

    def test_block_matches_pairs_randomized(self):
        rng = np.random.default_rng(20240)
        for case in range(80):
            spec = ScenarioSpec(
                dist_c=_random_distribution(rng),
                dist_t=_random_distribution(rng),
                n_c=int(rng.integers(1, 301)),
                n_t=int(rng.integers(1, 301)),
                q=float(rng.choice([0.05, 0.5, 0.9, 0.95])),
                alpha=float(rng.choice([0.05, 0.01, 0.2])),
                replications=int(rng.integers(1, 12)),
                master_seed=int(rng.integers(0, 2**63)),
            )
            self._assert_block_matches_pairs(spec)

    def test_block_matches_pairs_asymptotic_region(self):
        spec = _scenario(
            dist_t=Distribution.lognormal(0.0, 0.5), n_c=10_500, n_t=12_001, q=0.9,
            replications=3,
        )
        self._assert_block_matches_pairs(spec)

    def test_generate_pair_is_a_block_row(self):
        spec = _scenario(replications=7)
        y_c, y_t = simulate._draw_block(spec, 2, 7)
        for r in range(2, 7):
            control, treatment = generate_pair(spec, r)
            assert np.array_equal(control.values, y_c[r - 2])
            assert np.array_equal(treatment.values, y_t[r - 2])


class _InlineExecutor:
    """Stands in for the study's process pool: records max_workers, maps in-process."""

    def __init__(self, max_workers, record):
        record.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def inline_pool(monkeypatch):
    """The max_workers of every pool the study opens; workers run inline."""
    record = []
    monkeypatch.setattr(
        "concurrent.futures.ProcessPoolExecutor",
        lambda max_workers: _InlineExecutor(max_workers, record),
    )
    return record


def _csv(spec, jobs):
    buf = io.StringIO()
    write_coverage_csv(spec, run_coverage_study(spec, "all", jobs=jobs), buf)
    return buf.getvalue()


class TestChunking:
    @pytest.mark.parametrize("replications,pool_of_three", [(1, []), (2, [2]), (23, [3])])
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_csv_identical_across_chunkings(
        self, replications, pool_of_three, jobs, monkeypatch, request
    ):
        spec = _scenario(n_c=40, n_t=60, replications=replications)
        want = _csv(spec, 1)
        # Blocks of at most 5 rows: 23 replications split 5, 5, 5, 5, 3.
        monkeypatch.setattr(simulate, "_BLOCK_BYTES", 8 * (40 + 60) * 5)
        # Three workers run inline, so that no test starts more than two
        # processes, on a machine of three CPUs.
        pools = request.getfixturevalue("inline_pool") if jobs == 3 else None
        if pools is not None:
            monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _csv(spec, jobs) == want
        if pools is not None:
            assert pools == pool_of_three

    def test_workers_capped_by_chunks(self, inline_pool, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 500)
        run_coverage_study(_scenario(replications=10), [Method.LR_TWO_STEP], jobs=500)
        assert inline_pool == [10]
        run_coverage_study(_scenario(replications=1), [Method.LR_TWO_STEP], jobs=3)
        assert inline_pool == [10]  # one block: no pool at all

    @pytest.mark.parametrize("cpus, pools", [(3, [3]), (1, []), (None, [])])
    def test_workers_capped_by_cpus(self, inline_pool, monkeypatch, cpus, pools):
        # --jobs 5000 on 10 replications: blocks of ceil(10 / cpus), one per CPU.
        spec = _scenario(n_c=20, n_t=30, replications=10)
        want = _csv(spec, 1)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert _csv(spec, 5000) == want
        assert inline_pool == pools

    def test_broken_pool_exits_2(self, inline_pool, monkeypatch, capsys):
        from concurrent.futures.process import BrokenProcessPool

        def worker_died(self, fn, *iterables):
            raise BrokenProcessPool("A child process terminated abruptly")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(_InlineExecutor, "map", worker_died)
        argv = ["simulate", "--n-c", "20", "--n-t", "20", "--q", "0.5", "--replications", "4"]
        assert cli_main([*argv, "--jobs", "2"]) == 2
        assert inline_pool == [2]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a worker process ended abruptly, perhaps out of memory; rerun with --jobs 1\n"
        )

    def test_block_stays_a_few_megabytes(self):
        for n_c, n_t in [(500, 500), (10_000, 300), (1, 1)]:
            spec = _scenario(n_c=n_c, n_t=n_t, replications=100_000)
            rows = simulate._chunk_size(spec, 1)
            assert rows * 8 * (n_c + n_t) <= 4 << 20
        assert simulate._chunk_size(_scenario(n_c=10**7, n_t=10**7, replications=5), 1) == 1

    def test_overflowing_draws_raise_validation_error(self, tmp_path, capsys):
        spec = _scenario(dist_c=Distribution.lognormal(0.0, 1000.0), replications=5)
        with pytest.raises(NonFiniteValueError):
            run_coverage_study(spec, "all")
        args = [
            "simulate", "--dist-c", "lognormal(0,1000)", "--n-c", "50", "--n-t", "50",
            "--q", "0.5", "--replications", "5", "--output", str(tmp_path / "out.csv"),
        ]
        assert cli_main(args) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_overflow_fails_only_its_replications(self, monkeypatch):
        # Near e^355 some replications' squared spreads pass the float range
        # and others do not; each counts on its own, however blocks split.
        dist = Distribution.lognormal(355.0, 1.0)
        spec = _scenario(dist_c=dist, dist_t=dist, n_c=20, n_t=20, replications=23)
        qspec = QuantileSpec(spec.q, spec.alpha)
        want = dict.fromkeys(TWO_SAMPLE_METHODS, 0)
        # A sum of two in-range squares may still pass the float range;
        # that fails its replication too, so no mean width is infinite.
        for r in range(spec.replications):
            control, treatment = generate_pair(spec, r)
            for method in TWO_SAMPLE_METHODS:
                try:
                    compute_ci(method, control, treatment, qspec)
                except EstimationError:
                    want[method] += 1
        rows = run_coverage_study(spec, "all")
        whole = _csv(spec, 1)
        monkeypatch.setattr(simulate, "_BLOCK_BYTES", 8 * (20 + 20) * 5)
        split = _csv(spec, 1)
        assert 0 < want[Method.DONNER_ZOU] < spec.replications
        assert {row.method: row.failures for row in rows} == want
        assert all(math.isfinite(row.mean_width) for row in rows)
        assert split == whole

    def test_overflowing_rows_add_no_containment_or_width(self):
        # Price-Bonett's sum of two squares passes the float range in 20 of
        # 23 replications, giving [-inf, inf], which would contain every d.
        # Those rows are failures; coverage and mean width come from the rest.
        # On the wide uniform arms every LR width is finite, but their sum
        # passes the float range; the mean width must stay finite.
        narrow = Distribution.uniform(0.0, 9e154)
        wide = Distribution.uniform(-8.5e307, 8.5e307)
        cases = [
            (narrow, 23, 7, Method.PRICE_BONNET, 20),
            (wide, 50, 1, Method.LR_CONSERVATIVE, 0),
            (wide, 50, 1, Method.LR_TWO_STEP, 0),
        ]
        for dist, replications, seed, method, failures in cases:
            spec = _scenario(
                dist_c=dist, dist_t=dist, n_c=20, n_t=20,
                replications=replications, master_seed=seed,
            )
            qspec = QuantileSpec(spec.q, spec.alpha)
            (row,) = run_coverage_study(spec, [method])
            cis = []
            for r in range(spec.replications):
                try:
                    cis.append(compute_ci(method, *generate_pair(spec, r), qspec))
                except NumericOverflowError:
                    pass
            assert row.failures == spec.replications - len(cis) == failures
            assert row.coverage == sum(ci.contains(spec.true_delta) for ci in cis) / len(cis)
            # Scaling by a power of two is exact, so this is the plain
            # sequential mean wherever that sum is finite.
            scaled = sum(ci.width * 2.0**-6 for ci in cis) / len(cis)
            assert math.isfinite(row.mean_width)
            assert row.mean_width == scaled * 2.0**6
            exact = sum(Fraction(ci.width) for ci in cis) / len(cis)
            assert row.mean_width == pytest.approx(float(exact), rel=1e-12)

    def test_width_past_the_float_range_leaves_a_finite_mean(self):
        # Every endpoint is finite, but some widths pass the float range;
        # their mean does not, and no numpy warning is raised on the way.
        wide = Distribution.uniform(-8.5e307, 8.5e307)
        spec = _scenario(dist_c=wide, dist_t=wide, n_c=4, n_t=4, q=0.9, replications=30,
                         master_seed=3)
        qspec = QuantileSpec(spec.q, spec.alpha)
        cis = [compute_ci(Method.LR_TWO_STEP, *generate_pair(spec, r), qspec) for r in range(30)]
        (row,) = run_coverage_study(spec, [Method.LR_TWO_STEP])
        assert any(math.isinf(ci.width) for ci in cis) and row.failures == 0
        exact = sum(Fraction(ci.upper) - Fraction(ci.lower) for ci in cis) / len(cis)
        assert math.isfinite(row.mean_width)
        assert row.mean_width == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("method", TWO_SAMPLE_METHODS)
    def test_block_with_an_overflowing_row(self, method):
        # Row 1's arms sit near -1e308 and +1e308, so its endpoints, or the
        # treatment midpoint, pass the float range; its neighbours do not.
        k = np.arange(30)
        rng = np.random.default_rng(9)
        y_c = np.sort(rng.normal(size=(3, 30)), axis=1)
        y_t = np.sort(rng.normal(size=(3, 30)), axis=1)
        y_c[1], y_t[1] = -1e308 - k[::-1] * 1e306, 1e308 + k * 1e306
        qspec = QuantileSpec(0.5, 0.05)
        rows = simulate._METHODS[method][1](y_c, y_t, qspec)
        assert not (np.isfinite(rows.lower[1]) and np.isfinite(rows.upper[1]))
        pairs = [(OrderedSample(y_c[r]), OrderedSample(y_t[r])) for r in range(3)]
        for r in (0, 2):
            ci = compute_ci(method, *pairs[r], qspec)
            assert rows.lower[r].hex() == ci.lower.hex()
            assert rows.upper[r].hex() == ci.upper.hex()
        with pytest.raises(NumericOverflowError, match="overflows double precision"):
            compute_ci(method, *pairs[1], qspec)


class TestReductionMatchesPerBlockTally:
    """The study's one reduction over all endpoints against a per-block tally."""

    # Whole-block failures (n of 1-3), rows whose endpoints overflow
    # (lognormal near e^355) and widths whose sum passes the float range
    # (uniform near +-8.5e307), beside plain arms.
    _DISTS = [
        Distribution.normal(0.0, 1.0),
        Distribution.lognormal(355.0, 1.0),
        Distribution.uniform(-8.5e307, 8.5e307),
        Distribution.exponential(2.0),
    ]

    @staticmethod
    def _assert_matches_tally(spec, jobs):
        got = run_coverage_study(spec, "all", jobs=jobs)
        # Blocks of random lengths, unrelated to the study's own split.
        rng = np.random.default_rng(spec.master_seed)
        cuts = np.unique(rng.integers(1, spec.replications + 1, size=3))
        bounds = [0, *cuts[cuts < spec.replications].tolist(), spec.replications]
        blocks = [
            simulate._evaluate_block(spec, TWO_SAMPLE_METHODS, start, stop)
            for start, stop in zip(bounds, bounds[1:])
        ]
        want = per_block_coverage_tally(
            blocks, TWO_SAMPLE_METHODS, spec.true_delta, spec.replications
        )
        # repr tells every float apart, and NaN equals NaN.
        assert [repr(astuple(row)) for row in got] == [repr(row) for row in want], (spec, jobs)

    def test_random_scenarios(self, monkeypatch, inline_pool):
        rng = np.random.default_rng(14)
        for case in range(60):
            dist = self._DISTS[case % len(self._DISTS)]
            tiny = case % 3 == 0
            spec = _scenario(
                dist_c=dist,
                dist_t=dist,
                n_c=int(rng.integers(1, 4)) if tiny else int(rng.integers(4, 40)),
                n_t=int(rng.integers(1, 4)) if tiny else int(rng.integers(4, 40)),
                q=float(rng.choice([0.1, 0.5, 0.9])),
                replications=int(rng.integers(1, 40)),
                master_seed=int(rng.integers(0, 2**63)),
            )
            rows = int(rng.integers(1, 8))
            monkeypatch.setattr(simulate, "_BLOCK_BYTES", 8 * (spec.n_c + spec.n_t) * rows)
            self._assert_matches_tally(spec, jobs=int(rng.integers(1, 4)))

    def test_worker_processes(self, monkeypatch):
        # Two workers return whole blocks, failed methods included, by pickle.
        spec = _scenario(
            dist_c=Distribution.lognormal(355.0, 1.0), dist_t=Distribution.lognormal(355.0, 1.0),
            n_c=3, n_t=40, replications=23,
        )
        monkeypatch.setattr(simulate, "_BLOCK_BYTES", 8 * (3 + 40) * 5)
        self._assert_matches_tally(spec, jobs=2)


@pytest.mark.parametrize(
    "name,dist,q,seed",
    [
        ("normal_q50", Distribution.normal(0.0, 1.0), 0.5, 1001),
        ("lognormal_q50", Distribution.lognormal(0.0, 1.0), 0.5, 1002),
        ("lognormal_q90", Distribution.lognormal(0.0, 1.0), 0.9, 1003),
    ],
)
def test_golden_coverage_csv(name, dist, q, seed):
    # The acceptance scenarios at 300 replications; the files were written
    # by the per-replication implementation that preceded the block engine.
    spec = ScenarioSpec(
        dist_c=dist, dist_t=dist, n_c=500, n_t=500, q=q, alpha=0.05,
        replications=300, master_seed=seed,
    )
    golden = (GOLDEN / f"golden_{name}_r300.csv").read_text(encoding="utf-8")
    assert _csv(spec, 1) == golden


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
