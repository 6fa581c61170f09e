"""End-to-end command-line behavior, run in-process (a closed pipe in a subprocess)."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quantdiff
from quantdiff import (
    TWO_SAMPLE_METHODS,
    QuantileSpec,
    acceptance_grid,
    conservative_ci,
    ingest_sample,
)
from quantdiff.cli import build_parser, main
from quantdiff.errors import ConsistencyError


@pytest.fixture
def sample_files(tmp_path):
    rng = np.random.default_rng(555)
    c = tmp_path / "control.csv"
    t = tmp_path / "treatment.csv"
    c.write_text("\n".join(format(v, ".17g") for v in rng.normal(size=200)) + "\n")
    t.write_text(
        "\n".join(format(v, ".17g") for v in rng.normal(loc=0.4, size=220)) + "\n"
    )
    return str(c), str(t)


@pytest.fixture
def identical_files(tmp_path):
    values = "\n".join(str(k) for k in range(1, 102)) + "\n"
    c = tmp_path / "same_c.csv"
    t = tmp_path / "same_t.csv"
    c.write_text(values)
    t.write_text(values)
    return str(c), str(t)


@pytest.fixture
def far_control_files(tmp_path):
    """A control of 100 x -1e308 and 100 x 1e308, whose spacings pass the
    float range, against 200 normal values."""
    c = tmp_path / "far_c.csv"
    t = tmp_path / "far_t.csv"
    c.write_text("-1e308\n" * 100 + "1e308\n" * 100)
    t.write_text("\n".join(map(repr, np.random.default_rng(0).normal(size=200).tolist())) + "\n")
    return str(c), str(t)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCI:
    def test_all_methods_json(self, capsys, sample_files):
        c, t = sample_files
        code, out, err = _run(
            capsys, ["ci", "--control", c, "--treatment", t, "--q", "0.5"]
        )
        assert code == 0 and err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["method"] for r in records] == [
            "lr_conservative",
            "lr_two_step",
            "price_bonnet",
            "donner_zou",
        ]
        for r in records:
            assert r["lower"] < r["upper"]
            assert r["alpha"] == 0.05 and r["q"] == 0.5
            assert r["n_c"] == 200 and r["n_t"] == 220
            assert isinstance(r["flags"], list)
            assert list(r) == [
                "method", "lower", "upper", "alpha", "q", "n_c", "n_t", "flags",
            ]

    def test_identical_files_contain_zero(self, capsys, identical_files):
        c, t = identical_files
        code, out, _ = _run(
            capsys, ["ci", "--control", c, "--treatment", t, "--q", "0.5"]
        )
        assert code == 0
        for line in out.splitlines():
            r = json.loads(line)
            assert r["lower"] <= 0.0 <= r["upper"], r["method"]

    def test_single_method(self, capsys, sample_files):
        c, t = sample_files
        code, out, _ = _run(
            capsys,
            ["ci", "--control", c, "--treatment", t, "--q", "0.5",
             "--methods", "lr_two_step"],
        )
        assert code == 0
        records = out.splitlines()
        assert len(records) == 1
        assert json.loads(records[0])["method"] == "lr_two_step"

    def test_csv_format(self, capsys, sample_files):
        c, t = sample_files
        code, out, _ = _run(
            capsys,
            ["ci", "--control", c, "--treatment", t, "--q", "0.5",
             "--format", "csv"],
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["method", "lower", "upper", "alpha", "q", "n_c", "n_t", "flags"]
        assert len(rows) == 5

    def test_csv_rows_are_the_json_records(self, capsys, sample_files):
        c, t = sample_files
        argv = ["ci", "--control", c, "--treatment", t, "--q", "0.5"]
        _, out_json, _ = _run(capsys, argv)
        _, out_csv, _ = _run(capsys, argv + ["--format", "csv"])
        records = [json.loads(line) for line in out_json.splitlines()]
        rows = list(csv.reader(io.StringIO(out_csv)))
        assert rows[0] == list(records[0])
        for rec, row in zip(records, rows[1:], strict=True):
            assert row == [";".join(v) if k == "flags" else str(v) for k, v in rec.items()]

    def test_exact_and_asymptotic_set_one_destination(self, capsys):
        parser = build_parser()
        argv = ["ci", "--control", "c.csv", "--treatment", "t.csv", "--q", "0.5"]
        assert parser.parse_args(argv).use_exact is None
        assert parser.parse_args([*argv, "--exact"]).use_exact is True
        assert parser.parse_args([*argv, "--asymptotic"]).use_exact is False
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*argv, "--exact", "--asymptotic"])
        assert exc.value.code == 2
        assert "not allowed with argument --exact" in capsys.readouterr().err

    def test_spacing_past_the_float_range_falls_back(self, capsys, far_control_files):
        c, t = far_control_files
        argv = ["ci", "--control", c, "--treatment", t, "--q", "0.5"]
        code, out, err = _run(capsys, [*argv, "--methods", "lr_two_step"])
        assert code == 0 and err == ""
        record = json.loads(out)
        assert record["flags"] == ["slope_fallback"]
        # The step-1 quad: y_t(j_minus) - 1e308 and y_t(j_plus) + 1e308.
        assert (record["lower"], record["upper"]) == (-1e308, 1e308)
        # Either way round, no method calls these valid files an input error.
        for files in [(c, t), (t, c)]:
            for method in TWO_SAMPLE_METHODS:
                argv = ["ci", "--control", files[0], "--treatment", files[1], "--q", "0.5",
                        "--methods", method.value]
                code, _, err = _run(capsys, argv)
                assert code in (0, 3) and (code == 0) == (err == ""), (files, method, err)

    def test_unknown_method_exits_2(self, capsys, sample_files):
        c, t = sample_files
        code, _, err = _run(
            capsys,
            ["ci", "--control", c, "--treatment", t, "--q", "0.5",
             "--methods", "bootstrap"],
        )
        assert code == 2
        assert "bootstrap" in err

    def test_one_sample_method_rejected(self, capsys, sample_files):
        c, t = sample_files
        code, _, err = _run(
            capsys,
            ["ci", "--control", c, "--treatment", t, "--q", "0.5",
             "--methods", "one_sample"],
        )
        assert code == 2

    def test_estimation_error_exits_3_naming_method(self, capsys, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("1.0\n")
        code, _, err = _run(
            capsys,
            ["ci", "--control", str(p), "--treatment", str(p), "--q", "0.5",
             "--methods", "lr_two_step"],
        )
        assert code == 3
        assert "lr_two_step" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = _run(
            capsys,
            ["ci", "--control", str(tmp_path / "nope.csv"),
             "--treatment", str(tmp_path / "nope.csv"), "--q", "0.5"],
        )
        assert code == 2
        assert err.startswith("error:")

    def test_bad_q_exits_2(self, capsys, sample_files):
        c, t = sample_files
        code, _, err = _run(
            capsys, ["ci", "--control", c, "--treatment", t, "--q", "1.5"]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["ci", "simulate"])
    def test_alpha_too_small_for_its_quantile_exits_2(self, capsys, sample_files, command):
        # alpha/2 rounds to 0, so the normal quantile behind the critical
        # value would get p = 0, an argument nobody passed. Only the
        # smallest subnormal does this.
        c, t = sample_files
        args = {
            "ci": ["ci", "--control", c, "--treatment", t],
            "simulate": ["simulate", "--replications", "2"],
        }[command]
        code, out, err = _run(capsys, [*args, "--q", "0.5", "--alpha", "5e-324"])
        assert code == 2 and out == ""
        assert err == "error: alpha=5e-324 is too small: alpha/2 rounds to 0\n"

    def test_tiny_alpha_follows_the_formula(self, capsys, sample_files):
        # z = -Phi^-1(1e-300 / 2) = 37.07: every interval reaches past the
        # sample, so each record carries the clamped flag.
        c, t = sample_files
        code, out, err = _run(
            capsys, ["ci", "--control", c, "--treatment", t, "--q", "0.5", "--alpha", "1e-300"]
        )
        assert code == 0 and err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 4
        assert all(r["alpha"] == 1e-300 and "clamped_index" in r["flags"] for r in records)
        code, out, err = _run(
            capsys, ["simulate", "--replications", "2", "--q", "0.5", "--alpha", "1e-300"]
        )
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4 and all(row["alpha"] == "1e-300" for row in rows)

    @pytest.mark.parametrize("command", ["ci", "region", "simulate"])
    def test_subnormal_q_exits_2(self, capsys, sample_files, command):
        # count / (n q) would overflow in the binomial log-pmf.
        c, t = sample_files
        args = {
            "ci": ["ci", "--control", c, "--treatment", t],
            "region": ["region", "--n-c", "500", "--n-t", "500", "--exact"],
            "simulate": ["simulate", "--replications", "2"],
        }[command]
        code, out, err = _run(capsys, [*args, "--q", "1e-320"])
        assert code == 2 and out == ""
        assert err == (
            "error: q=1e-320 is too small: below the smallest normal double "
            "2.2250738585072014e-308\n"
        )

    def test_smallest_normal_q_gives_finite_grid(self, capsys):
        argv = ["region", "--n-c", "500", "--n-t", "500", "--exact"]
        code, out, _ = _run(capsys, [*argv, "--q", "2.2250738585072014e-308"])
        assert code == 0
        h = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        assert len(h) > 1 and all(math.isfinite(v) for v in h)

    def test_malformed_line_names_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\noops\n3.0\n")
        good = tmp_path / "good.csv"
        good.write_text("1.0\n2.0\n3.0\n")
        code, _, err = _run(
            capsys,
            ["ci", "--control", str(bad), "--treatment", str(good), "--q", "0.5"],
        )
        assert code == 2
        assert "bad.csv:2" in err

    def test_non_utf8_input_exits_2(self, capsys, tmp_path, identical_files):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"1.0\n2.5\xb0\n")
        _, t = identical_files
        code, out, err = _run(
            capsys, ["ci", "--control", str(bad), "--treatment", t, "--q", "0.5"]
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad}: not valid UTF-8: ")

    def test_overflowing_squares_exit_3_naming_method(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        paths = []
        for name in ("c.csv", "t.csv"):
            p = tmp_path / name
            p.write_text("\n".join(map(repr, (rng.uniform(-1, 1, 200) * 1e300).tolist())))
            paths.append(str(p))
        argv = ["ci", "--control", paths[0], "--treatment", paths[1], "--q", "0.5"]
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == ""
        assert err == (
            "error: price_bonnet: interval [-inf, inf] overflows double precision; "
            "rescale the samples\n"
        )
        for method in ("price_bonnet", "donner_zou"):
            code, _, err = _run(capsys, argv + ["--methods", method])
            assert code == 3 and err.startswith(f"error: {method}: interval [")
        code, out, err = _run(capsys, argv + ["--methods", "lr_conservative"])
        assert code == 0 and err == ""
        r = json.loads(out)
        assert r["method"] == "lr_conservative" and r["lower"] < r["upper"]

    def test_overflowing_endpoints_exit_3_naming_method(self, capsys, tmp_path):
        # Every value and every square is in range, but a difference, a
        # midpoint or a sum of squares is not: no endpoint may be printed
        # as Infinity or NaN.
        k = np.arange(30)
        rng = np.random.default_rng(3)
        arms = {
            "far": (-1e308 - k * 1e306, 1e308 + k * 1e306),
            "wide": (rng.uniform(0, 9e154, 20), rng.uniform(0, 9e154, 20)),
        }
        paths = {}
        for name, values in arms.items():
            paths[name] = []
            for arm, arr in zip("ct", values):
                p = tmp_path / f"{name}_{arm}.csv"
                p.write_text("\n".join(map(repr, arr.tolist())) + "\n")
                paths[name].append(str(p))
        cases = [
            ("far", "lr_conservative", "[inf, inf]"),
            ("far", "lr_two_step", "[inf, inf]"),
            ("far", "donner_zou", "[nan, inf]"),
            ("wide", "price_bonnet", "[-inf, inf]"),
        ]
        for name, method, endpoints in cases:
            c, t = paths[name]
            argv = ["ci", "--control", c, "--treatment", t, "--q", "0.5", "--methods", method]
            code, out, err = _run(capsys, argv)
            assert code == 3 and out == "", (name, method)
            assert err == (
                f"error: {method}: interval {endpoints} overflows double precision; "
                "rescale the samples\n"
            )

    def test_header_skip(self, capsys, tmp_path):
        c = tmp_path / "h.csv"
        c.write_text("value\n" + "\n".join(str(k) for k in range(1, 102)) + "\n")
        code, out, _ = _run(
            capsys,
            ["ci", "--control", str(c), "--treatment", str(c), "--q", "0.5",
             "--header", "--methods", "price_bonnet"],
        )
        assert code == 0
        assert json.loads(out.splitlines()[0])["n_c"] == 101

    def test_stdin_input(self, capsys, monkeypatch, identical_files):
        c, _ = identical_files
        data = "\n".join(str(k) for k in range(1, 102)) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(data))
        code, out, _ = _run(
            capsys,
            ["ci", "--control", "-", "--treatment", c, "--q", "0.5",
             "--methods", "lr_two_step"],
        )
        assert code == 0
        r = json.loads(out.splitlines()[0])
        assert r["lower"] <= 0.0 <= r["upper"]

    @pytest.mark.parametrize("command", ["ci", "region"])
    def test_both_arms_from_stdin_exit_2(self, capsys, monkeypatch, command):
        # The treatment would read the stdin the control has exhausted.
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n3\n"))
        argv = [command, "--control", "-", "--treatment", "-", "--q", "0.5"]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err == "error: --control and --treatment cannot both be '-': stdin is read once\n"

    def test_output_file(self, tmp_path, capsys, sample_files):
        c, t = sample_files
        dest = tmp_path / "out.json"
        code, out, _ = _run(
            capsys,
            ["ci", "--control", c, "--treatment", t, "--q", "0.5",
             "--output", str(dest)],
        )
        assert code == 0 and out == ""
        assert len(dest.read_text().splitlines()) == 4


class TestNoWarningReachesAUser:
    """numpy warnings raised outside pytest's process, where its filters do not reach."""

    @staticmethod
    def _run_w_error(argv):
        src = str(Path(quantdiff.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "quantdiff.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["ci", "--methods", "lr_conservative,lr_two_step"], 0),
            # price_bonnet's interval is [-inf, inf] on these files.
            (["ci"], 3),
            (["test", "--d", "0"], 0),
            (["region"], 0),
        ],
    )
    def test_python_w_error_on_values_spanning_the_float_range(
        self, tmp_path, far_control_files, argv, code
    ):
        c, t = far_control_files
        proc = self._run_w_error(
            [*argv, "--control", c, "--treatment", t, "--q", "0.5",
             "--output", str(tmp_path / "out")]
        )
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stderr == ""
        else:
            assert proc.stderr.startswith("error: price_bonnet: interval [-inf, inf]")
            assert proc.stderr.count("\n") == 1

    # Two arms of normal values times 1e-310, whose step-1 slopes pass the
    # float range unless their spacings are lifted first (step 2 is taken),
    # and a constant control, whose zero spacing divides by zero (a fallback).
    @pytest.mark.parametrize("control, flags", [("subnormal", []), ("constant", ["slope_fallback"])])
    def test_python_w_error_on_two_step_float_edges(self, tmp_path, control, flags):
        rng = np.random.default_rng(0)
        arms = {
            "subnormal": rng.normal(size=200) * 1e-310,
            "constant": np.full(200, 3.0),
            "treatment": rng.normal(size=200) * (1e-310 if control == "subnormal" else 1.0),
        }
        c, t = tmp_path / "c.csv", tmp_path / "t.csv"
        for path, values in [(c, arms[control]), (t, arms["treatment"])]:
            path.write_text("\n".join(map(repr, values.tolist())) + "\n")
        proc = self._run_w_error(
            ["ci", "--methods", "lr_two_step", "--control", str(c), "--treatment", str(t),
             "--q", "0.5"]
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["flags"] == flags

    # Subnormal arms, whose one-sample spreads square to below the float
    # range, and arms whose widths sum past it.
    @pytest.mark.parametrize("dist", ["normal(0,1e-310)", "uniform(-8.5e307,8.5e307)"])
    def test_python_w_error_on_simulate(self, dist):
        proc = self._run_w_error(
            ["simulate", "--dist-c", dist, "--dist-t", dist, "--n-c", "50", "--n-t", "50",
             "--q", "0.5", "--replications", "200"]
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        if dist.startswith("normal"):
            rows = {row["method"]: row for row in csv.DictReader(io.StringIO(proc.stdout))}
            for method in ("price_bonnet", "donner_zou"):
                assert rows[method]["failures"] == "0"
                assert float(rows[method]["mean_width"]) > 0.0

    # The exact grid has h = 0 at its mode cell, which the writer formats
    # apart from the cells it prints in numpy.
    def test_python_w_error_on_a_region_with_a_zero_cell(self):
        proc = self._run_w_error(["region", "--n-c", "101", "--n-t", "101", "--exact", "--q", "0.5"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "51,51,0,1" in proc.stdout.splitlines()


class TestTest:
    def test_identical_d0(self, capsys, identical_files):
        c, t = identical_files
        code, out, _ = _run(
            capsys, ["test", "--control", c, "--treatment", t, "--q", "0.5", "--d", "0"]
        )
        assert code == 0
        r = json.loads(out)
        assert r["statistic"] == 0.0
        assert r["p_value"] == 1.0
        assert r["reject_at_alpha"] is False
        assert r["d"] == 0.0

    def test_tie_goes_to_the_smallest_pair(self, capsys, tmp_path):
        # One value has two modes at q = 0.5, counts 0 and 1, of equal
        # likelihood; the test reports the smaller pair.
        for name in ("c.csv", "t.csv"):
            (tmp_path / name).write_text("1.5\n")
        argv = ["test", "--control", str(tmp_path / "c.csv"), "--treatment",
                str(tmp_path / "t.csv"), "--q", "0.5", "--d", "0"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert '"i_star": 0, "j_star": 0' in out
        assert json.loads(out)["statistic"] == 0.0

    def test_far_d_rejects(self, capsys, identical_files):
        c, t = identical_files
        code, out, _ = _run(
            capsys,
            ["test", "--control", c, "--treatment", t, "--q", "0.5", "--d", "80"],
        )
        assert code == 0
        r = json.loads(out)
        assert r["reject_at_alpha"] is True
        assert r["p_value"] < 0.001

    def test_d_outside_ci_rejects_d_inside_does_not(self, capsys, sample_files):
        c, t = sample_files
        control = ingest_sample(np.loadtxt(c))
        treatment = ingest_sample(np.loadtxt(t))
        ci = conservative_ci(control, treatment, QuantileSpec(0.5, 0.05))
        mid = 0.5 * (ci.lower + ci.upper)
        code, out, _ = _run(
            capsys,
            ["test", "--control", c, "--treatment", t, "--q", "0.5",
             "--d", format(mid, ".17g")],
        )
        assert json.loads(out)["reject_at_alpha"] is False
        code, out, _ = _run(
            capsys,
            ["test", "--control", c, "--treatment", t, "--q", "0.5",
             "--d", format(ci.upper + 2.0, ".17g")],
        )
        assert json.loads(out)["reject_at_alpha"] is True

    def test_shift_past_the_float_range_exits_3(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        paths = []
        arms = {"c.csv": rng.uniform(-1, 1, 30), "t.csv": rng.uniform(1e308, 1.7e308, 60)}
        for name, values in arms.items():
            p = tmp_path / name
            p.write_text("\n".join(map(repr, values.tolist())) + "\n")
            paths.append(str(p))
        argv = ["test", "--control", paths[0], "--treatment", paths[1], "--q", "0.5", "--d=-1e308"]
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == ""
        assert err == (
            "error: shifting the treatment values by d = -1e+308 overflows double precision; "
            "rescale the samples\n"
        )

    @pytest.mark.parametrize("d", ["-1e-3", "-2E+1", "-1_000.5", "-0.001", "-.5", "1e-3"])
    def test_negative_d_in_any_float_spelling(self, capsys, sample_files, d):
        c, t = sample_files
        argv = ["test", "--control", c, "--treatment", t, "--q", "0.5"]
        spaced = _run(capsys, [*argv, "--d", d])
        joined = _run(capsys, [*argv, f"--d={d}"])
        assert spaced == joined
        assert spaced[0] == 0 and json.loads(spaced[1])["d"] == float(d)

    def test_consistency_error_exits_4(self, capsys, monkeypatch, sample_files):
        def broken(*args):
            raise ConsistencyError("likelihood ordering violated")

        monkeypatch.setattr("quantdiff.cli.lr_test", broken)
        c, t = sample_files
        code, _, err = _run(
            capsys,
            ["test", "--control", c, "--treatment", t, "--q", "0.5", "--d", "0"],
        )
        assert code == 4
        assert err.startswith("error:")
        assert "please report" in err


class TestRegion:
    def test_sizes_grid_matches_library(self, capsys):
        code, out, _ = _run(
            capsys, ["region", "--n-c", "12", "--n-t", "9", "--q", "0.5"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["i", "j", "h", "accepted"]
        grid = acceptance_grid(12, 9, QuantileSpec(0.5, 0.05))
        hs = (grid.g_c[:, None] + grid.g_t).ravel()
        assert len(rows) - 1 == hs.size
        i_off, j_off = np.divmod(np.arange(hs.size), grid.g_t.size)
        cells = zip((grid.i_lo + i_off).tolist(), (grid.j_lo + j_off).tolist(), hs.tolist())
        for text_row, (i, j, h) in zip(rows[1:], cells):
            assert text_row[0] == str(i) and text_row[1] == str(j)
            assert text_row[2] == format(h, ".9g")
            assert text_row[3] == ("1" if h < grid.threshold else "0")

    def test_files_input(self, capsys, identical_files):
        c, t = identical_files
        code, out, _ = _run(
            capsys, ["region", "--control", c, "--treatment", t, "--q", "0.5"]
        )
        assert code == 0
        accepted = [row for row in csv.reader(io.StringIO(out)) if row[-1] == "1"]
        assert accepted

    def test_requires_sizes_or_files(self, capsys):
        code, _, err = _run(capsys, ["region", "--q", "0.5"])
        assert code == 2

    def test_control_without_treatment_exits_2(self, capsys, identical_files):
        code, out, err = _run(capsys, ["region", "--control", identical_files[0], "--q", "0.5"])
        assert code == 2 and out == ""
        assert err == "error: provide both --control and --treatment, or sizes\n"

    @pytest.mark.parametrize("size", [["--n-c", "3"], ["--n-t", "3"], ["--n-c", "3", "--n-t", "3"]])
    def test_files_with_sizes_exit_2(self, capsys, identical_files, size):
        c, t = identical_files
        argv = ["region", *size, "--control", c, "--treatment", t, "--q", "0.5"]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err == "error: --n-c/--n-t cannot be given with --control/--treatment\n"

    def test_size_past_64_bits_exits_2_naming_the_sizes(self, capsys):
        # The window's counts do not fit an intp, so it fails before any allocation.
        argv = ["region", "--n-c", str(10**20), "--n-t", "10", "--q", "0.5"]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err == (
            "error: the acceptance windows of n_c = 100000000000000000000 "
            "and n_t = 10 do not fit in memory\n"
        )

    def test_asymptotic_flag(self, capsys):
        code_e, out_e, _ = _run(
            capsys, ["region", "--n-c", "50", "--n-t", "50", "--q", "0.5", "--exact"]
        )
        code_a, out_a, _ = _run(
            capsys,
            ["region", "--n-c", "50", "--n-t", "50", "--q", "0.5", "--asymptotic"],
        )
        assert code_e == code_a == 0
        assert out_e != out_a

    def test_closed_pipe_ends_quietly(self):
        # The reader stops after the header, long before the 12 MB grid is written.
        src = str(Path(quantdiff.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        argv = ["region", "--n-c", "200000", "--n-t", "100000", "--q", "0.5"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "quantdiff.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"i,j,h,accepted\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""


class TestSimulate:
    def test_small_run_shape(self, capsys):
        code, out, _ = _run(
            capsys,
            ["simulate", "--n-c", "60", "--n-t", "60", "--q", "0.5",
             "--replications", "25", "--seed", "9", "--methods",
             "lr_two_step,price_bonnet"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("method,coverage,")
        assert len(lines) == 3
        assert lines[1].startswith("lr_two_step,")
        assert lines[2].startswith("price_bonnet,")

    def test_single_replication_indicator(self, capsys):
        code, out, _ = _run(
            capsys,
            ["simulate", "--n-c", "80", "--n-t", "80", "--q", "0.5",
             "--replications", "1", "--seed", "3", "--methods", "lr_two_step"],
        )
        assert code == 0
        row = next(csv.reader([out.splitlines()[1]]))
        assert row[1] in {"0", "1"}

    def test_bad_distribution_exits_2(self, capsys):
        code, _, err = _run(
            capsys,
            ["simulate", "--dist-c", "cauchy(0,1)", "--replications", "2",
             "--q", "0.5"],
        )
        assert code == 2
        assert "cauchy" in err

    def test_overflowing_true_quantile_exits_2(self, capsys):
        code, out, err = _run(
            capsys,
            ["simulate", "--dist-c", "lognormal(0,1000)", "--q", "0.9",
             "--replications", "5"],
        )
        assert code == 2 and out == ""
        assert err == "error: the 0.9 quantile of lognormal(0,1000) overflows double precision\n"

    def test_overflowing_uniform_width_exits_2(self, capsys):
        code, out, err = _run(
            capsys,
            ["simulate", "--dist-c", "uniform(-1e308,1e308)", "--q", "0.5",
             "--replications", "3"],
        )
        assert code == 2 and out == ""
        assert err.startswith("error: uniform width b - a overflows double precision")

    def test_overflowing_true_difference_exits_2(self, capsys):
        code, out, err = _run(
            capsys,
            ["simulate", "--dist-c", "normal(-1e308,1)", "--dist-t", "normal(1e308,1)",
             "--n-c", "50", "--n-t", "50", "--q", "0.5", "--replications", "10", "--seed", "1"],
        )
        assert code == 2 and out == ""
        assert err == (
            "error: the true difference of the 0.5 quantiles, 1e+308 of normal(1e+308,1) "
            "minus -1e+308 of normal(-1e+308,1), overflows double precision\n"
        )

    def test_overflowing_lr_shift_ends_the_whole_study(self, capsys):
        # The LR rejection count shifts a whole block of treatment arms by the
        # true difference and raises if any value overflows, so the study
        # ends with exit 3 instead of counting failed replications.
        code, out, err = _run(
            capsys,
            ["simulate", "--dist-c", "normal(-1.7e308,1)", "--dist-t", "normal(0,1e307)",
             "--n-c", "50", "--n-t", "50", "--q", "0.5", "--replications", "20", "--seed", "1"],
        )
        assert code == 3 and out == ""
        assert err == (
            "error: shifting the treatment values by d = 1.7e+308 overflows double "
            "precision; rescale the samples\n"
        )

    def test_oversize_arrays_exit_2_naming_the_sizes(self, capsys, monkeypatch):
        # numpy refuses an array of 2**61 doubles (2**64 bytes) before it
        # allocates anything.
        argv = ["simulate", "--q", "0.5", "--replications", "3", "--n-t", "7"]
        code, out, err = _run(capsys, [*argv, "--n-c", str(2**61)])
        assert code == 2 and out == ""
        assert err == (
            "error: the draws of 1 replication(s) with n_c = 2305843009213693952 "
            "and n_t = 7 do not fit in memory\n"
        )

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(np, "empty", out_of_memory)
        code, out, err = _run(capsys, [*argv, "--n-c", "1000000000000"])
        assert code == 2 and out == ""
        assert err == (
            "error: the draws of 1 replication(s) with n_c = 1000000000000 "
            "and n_t = 7 do not fit in memory\n"
        )

    def test_deterministic_across_runs_and_jobs(self, tmp_path, capsys):
        args = ["simulate", "--n-c", "50", "--n-t", "50", "--q", "0.5",
                "--replications", "40", "--seed", "11", "--methods",
                "lr_two_step,donner_zou"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        out4 = tmp_path / "c.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert main(args + ["--jobs", "2", "--output", str(out4)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes() == out4.read_bytes()
