"""The package names the benchmark in perfbench/ calls, checked without changing perfbench/.

A traced benchmark run wraps every entry point of ``perfbench/shim.py``'s
TRACED table and fails outright when one is gone; the oracle spot check in
``perfbench/workloads.py`` calls the library directly.
"""

import importlib
import runpy
from pathlib import Path

import pytest

import quantdiff
from quantdiff import QuantileSpec, conservative_ci, ingest_sample, lr_test

SHIM = Path(__file__).resolve().parents[1] / "perfbench" / "shim.py"
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
