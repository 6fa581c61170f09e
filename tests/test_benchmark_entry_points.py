"""The package names the benchmark in perfbench/ calls, checked without changing perfbench/.

A traced benchmark run wraps every entry point of ``perfbench/shim.py``'s
TRACED table and fails outright when one is gone; the oracle spot check in
``perfbench/workloads.py`` calls the library directly. A call that no
longer goes through a wrapped name (one bound before the wrapper was
installed, say) records no span, and the benchmark's per-layer figure for
it reads zero; the traced runs below catch that.
"""

import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quantdiff
from quantdiff import QuantileSpec, conservative_ci, ingest_sample, lr_test

ROOT = Path(__file__).resolve().parents[1]
SHIM = ROOT / "perfbench" / "shim.py"
# run_path compiles the source in memory: nothing is written under perfbench/.
TRACED = runpy.run_path(str(SHIM), run_name="perfbench_shim")["TRACED"]

# The names library_spot_check in perfbench/workloads.py reads from quantdiff.
SPOT_CHECK_NAMES = [
    "ScenarioSpec",
    "parse_distribution",
    "QuantileSpec",
    "conservative_ci",
    "two_step_ci",
    "price_bonnet_ci",
    "donner_zou_ci",
    "generate_pair",
    "lr_test",
]


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in TRACED.items() for name in names]
)
def test_traced_entry_point_is_a_callable_of_its_module(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("name", SPOT_CHECK_NAMES)
def test_spot_check_name_is_exported(name):
    assert name in quantdiff.__all__
    assert callable(getattr(quantdiff, name))


def test_spot_check_result_fields():
    sample = ingest_sample([1.0, 2.0, 3.0, 4.0, 5.0])
    spec = QuantileSpec(0.5, 0.05)
    ci = conservative_ci(sample, sample, spec)
    assert (ci.lower, ci.upper, ci.flags) == (-3.0, 3.0, frozenset())
    result = lr_test(sample, sample, spec, 0.0)
    assert (result.d, result.statistic, result.p_value) == (0.0, 0.0, 1.0)
    assert (result.i_star, result.j_star) == (2, 2)
    assert result.rejects_at(spec.alpha) is False


# The spans each traced CLI call must record, by subcommand.
EXPECTED_SPANS = {
    "ci": {
        "region.conservative_ci",
        "two_step.two_step_ci",
        "baselines.price_bonnet_ci",
        "baselines.donner_zou_ci",
        "region.acceptance_grid",
        "core.read_sample_csv",
        "core.ingest_sample",
    },
    "test": {"region.lr_test"},
    "region": {"region.acceptance_grid", "region.write_acceptance_grid_csv"},
    "simulate": {"simulate.run_coverage_study", "region.acceptance_grid"},
}


@pytest.mark.parametrize("command", sorted(EXPECTED_SPANS))
def test_traced_call_records_its_spans(tmp_path, command):
    rng = np.random.default_rng(3)
    control, treatment = tmp_path / "control.csv", tmp_path / "treatment.csv"
    np.savetxt(control, rng.normal(size=200))
    np.savetxt(treatment, rng.normal(0.3, 1.0, size=150))
    samples = ["--control", str(control), "--treatment", str(treatment)]
    argv = {
        "ci": ["ci", *samples, "--q", "0.5"],
        "test": ["test", *samples, "--q", "0.5", "--d", "0.3"],
        "region": ["region", "--n-c", "60", "--n-t", "40", "--q", "0.5"],
        "simulate": ["simulate", "--n-c", "60", "--n-t", "40", "--q", "0.5", "--replications", "9"],
    }[command]
    report, out = tmp_path / "report.json", tmp_path / "out"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SHIM), str(report), "1", "--", *argv, "--output", str(out)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = {name for name, *_ in json.loads(report.read_text())["spans"]}
    assert EXPECTED_SPANS[command] <= spans, spans


# Two small scenarios for the oracle spot check, which calls the library
# directly where every other benchmark path goes through the CLI.
SPOT_CHECK_RUN = """
import json, oracle, workloads
scenarios = [
    oracle.Scenario("normal", 0, 1, 500, 0.5, 0.05, 500, 11),
    oracle.Scenario("lognormal", 0, 1, 500, 0.9, 0.05, 500, 12),
]
print(json.dumps([workloads.library_spot_check(sc) for sc in scenarios]))
"""


def test_library_spot_check_finds_no_problems(tmp_path):
    parts = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    # No bytecode is written, so the run leaves nothing under perfbench/.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, parts))}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", SPOT_CHECK_RUN],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]
