"""Run one quantdiff CLI command in this process and report its timing.

    python3 perfbench/shim.py REPORT.json TRACE -- <quantdiff arguments>

The report holds the import time of ``quantdiff.cli``, the time spent in
its ``main``, the exit code and, with TRACE=1, one span (name, start, end,
parent index) per call into a traced entry point. Spans stay in memory
until ``main`` returns. quantdiff must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Entry points wrapped in spans, by module. Helpers they call (index
# arithmetic, the breakpoint sweep, likelihood math) count in their caller;
# argument parsing and output outside these count as the CLI's own time.
TRACED = {
    "quantdiff.core": ("read_sample_csv", "ingest_sample"),
    "quantdiff.simulate": ("run_coverage_study", "generate_pair"),
    "quantdiff.region": ("conservative_ci", "lr_test", "acceptance_grid", "write_acceptance_grid_csv"),
    "quantdiff.two_step": ("two_step_ci",),
    "quantdiff.baselines": ("price_bonnet_ci", "donner_zou_ci"),
}


class Tracer:
    """Collects spans; each wrapper records its caller's span as parent."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def install(self) -> None:
        """Rebind every module-level reference to a traced function.

        quantdiff modules import each other's functions by name, so the
        wrapper must replace each binding, not only the defining one.
        """
        loaded = [m for name, m in sys.modules.items() if name.split(".")[0] == "quantdiff"]
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                wrapped = self.wrap(f"{module_name.split('.')[-1]}.{name}", original)
                for other in loaded:
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, wrapped)


def main(argv: list[str]) -> int:
    report_path, trace, sep, *cli_args = argv
    if sep != "--" or trace not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    start = time.perf_counter()
    import quantdiff.cli

    imported = time.perf_counter()
    tracer = Tracer()
    if trace == "1":
        tracer.install()
    rc = quantdiff.cli.main(cli_args)
    done = time.perf_counter()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"import_s": imported - start, "main_s": done - imported, "rc": rc, "spans": tracer.spans},
            fh,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
