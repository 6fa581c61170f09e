"""quantdiff benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload coverage-n500 --seed 1 --seconds 40 --trace 0

Run it from the root of a quantdiff checkout; it imports quantdiff from
./src and keeps its scratch files in ./.perfbench-work. One sequential
caller runs each round's CLI calls in a closed loop, one process at a time
(two more during the --jobs 2 determinism check). An untimed warm-up
round's outputs are checked against the oracle in perfbench/oracle.py;
then whole timed rounds repeat until --seconds have passed, and their
outputs must match the warm-up round's byte for byte.

End-to-end times are scaled to a reference machine speed. Between
consecutive processes the caller times a fresh interpreter importing
numpy and a fixed pure-Python loop (see calibrate()). Each process's
start-up and its time in quantdiff's main are scaled separately, by the
reference time of the matching calibration over the mean of its timings
on either side of the process.

With --trace 0 the last line carries the end-to-end metrics. With
--trace 1, untraced and traced rounds alternate and the last line carries
per-layer self times (seconds per round, median over traced rounds) and
the tracing overhead; the spans are written to
.perfbench-work/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

import workloads
from workloads import Op, Plan

HERE = os.path.dirname(os.path.abspath(__file__))
SHIM = os.path.join(HERE, "shim.py")
WORK_DIR = ".perfbench-work"
SETUP_SPAWNS_PER_ROUND = 1
PROCESS_TIMEOUT_S = 150
STARTUP_CALIBRATION_ARGV = [sys.executable, "-c", "import numpy"]
WORK_CALIBRATION_LOOPS = 500_000


@dataclasses.dataclass(frozen=True)
class Calibration:
    """Two timings of how fast the machine runs at one moment."""

    startup_s: float  # a fresh interpreter importing numpy, as every quantdiff process starts
    work_s: float  # a fixed pure-Python loop in this process


# The calibrations' times at the speed the scaled figures refer to: about
# their medians on the 2-core machine the benchmark was tuned on.
REFERENCE = Calibration(startup_s=0.18, work_s=0.04)


def calibrate() -> Calibration:
    """Time both calibrations once.

    The benchmark was tuned on a shared host whose processor speed drifts
    by up to 1.6x over seconds to minutes, while a process's CPU time moves
    with its wall time; the cost of starting an interpreter and loading
    numpy drifts too, by itself. The loop follows the first drift and the
    numpy import the second, and a call's start-up and work scaled by them
    held steadier than raw times did (see perfbench/README.md).
    """
    start = time.perf_counter()
    subprocess.run(STARTUP_CALIBRATION_ARGV, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True)
    mid = time.perf_counter()
    total = 0.0
    for i in range(WORK_CALIBRATION_LOOPS):
        total += i * 0.5
    return Calibration(mid - start, time.perf_counter() - mid)


@dataclasses.dataclass(frozen=True)
class Scale:
    """Reference over measured calibration time, averaged over both sides of a process."""

    startup: float
    work: float

    @staticmethod
    def around(before: Calibration, after: Calibration) -> Scale:
        return Scale(2.0 * REFERENCE.startup_s / (before.startup_s + after.startup_s),
                     2.0 * REFERENCE.work_s / (before.work_s + after.work_s))


@dataclasses.dataclass
class Call:
    op: Op
    wall: float
    scale: Scale
    ok: bool
    report: dict | None

    @property
    def scaled_main(self) -> float:
        return self.report["main_s"] * self.scale.work

    @property
    def scaled_wall(self) -> float:
        """Start-up (wall time outside main) at the start-up scale, main at the work scale."""
        return (self.wall - self.report["main_s"]) * self.scale.startup + self.scaled_main


@dataclasses.dataclass
class Round:
    traced: bool
    calls: list[Call]

    @property
    def wall(self) -> float:
        """Scaled wall time of the round's successful calls."""
        return sum(c.scaled_wall for c in self.calls if c.ok)


class Runner:
    """Starts quantdiff processes one at a time and waits for each."""

    def __init__(self, root: str, work: str) -> None:
        self.root, self.work = root, work
        self.env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        self.calibration = calibrate()

    def spawn(self, argv: list[str], label: str) -> tuple[float, Scale, bool]:
        """Returns the process's wall time, the speed scale measured around it, and success.

        The calibration that follows one process also precedes the next, so
        each process is scaled by the calibrations on both sides of it.
        """
        err_path = os.path.join(self.work, f"{label}.err")
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.root, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            # A blocking wait returns the moment the child exits; wait(timeout)
            # would poll and round wall times up to 50 ms steps.
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                rc = proc.wait()
            finally:
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        before, self.calibration = self.calibration, calibrate()
        scale = Scale.around(before, self.calibration)
        if rc != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(f"{label}: exit {rc}\n{fh.read()[-2000:]}\n")
        return wall, scale, rc == 0

    def call(self, op: Op, traced: bool) -> Call:
        out = self.output(op)
        report_path = os.path.join(self.work, f"{op.label}.report.json")
        for path in (out, report_path):
            if os.path.exists(path):
                os.remove(path)
        argv = [sys.executable, SHIM, report_path, "1" if traced else "0", "--",
                *op.args, "--output", out]
        wall, scale, ok = self.spawn(argv, op.label)
        report = None
        if ok:
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        return Call(op, wall, scale, ok, report)

    def output(self, op: Op) -> str:
        return os.path.join(self.work, f"{op.label}.out")

    def setup_seconds(self) -> float:
        """Scaled wall time of a fresh interpreter importing quantdiff.cli."""
        wall, scale, ok = self.spawn([sys.executable, "-c", "import quantdiff.cli"], "setup")
        if not ok:
            raise RuntimeError("importing quantdiff.cli failed")
        return wall * scale.startup


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Outputs:
    """Checks each op's first output with the oracle; later ones must be identical."""

    def __init__(self, runner: Runner) -> None:
        self.runner = runner
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []

    def record(self, call: Call) -> None:
        if not call.ok:
            return
        path = self.runner.output(call.op)
        digest = file_digest(path)
        first = self.digests.get(call.op.label)
        if first is None:
            self.digests[call.op.label] = digest
            self.problems += [f"{call.op.label}: {p}" for p in call.op.check(path)]
        elif first != digest:
            self.problems.append(f"{call.op.label}: output changed between identical calls")

    def same_as_first(self, call: Call, what: str) -> None:
        if call.ok and file_digest(self.runner.output(call.op)) != self.digests.get(call.op.label):
            self.problems.append(f"{call.op.label}: {what}")


def _with_jobs(op: Op, jobs: int) -> Op:
    args = list(op.args)
    args[args.index("--jobs") + 1] = str(jobs)
    return dataclasses.replace(op, args=args)


def measure(plan: Plan, runner: Runner, outputs: Outputs, seconds: float, trace: bool):
    """A warm-up round, then whole timed rounds until `seconds` have passed.

    The warm-up round's outputs are checked against the oracle, which runs
    for seconds between its calls, so its calls are not timed; every timed
    round's outputs must match them byte for byte. With trace, timed
    rounds come in untraced/traced pairs. Untraced rounds start with set-up
    samples, so that those spread over the run like the calls do.
    Returns (warm-up calls, timed rounds, set-up samples).
    """
    runner.setup_seconds()  # compiles bytecode once, so it is not a sample
    warmup = []
    for op in plan.ops:
        warmup.append(runner.call(op, traced=False))
        outputs.record(warmup[-1])
    runner.calibration = calibrate()  # the last one is older than the checks
    rounds: list[Round] = []
    setups: list[float] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for traced in (False, True) if trace else (False,):
            if not trace:
                setups += [runner.setup_seconds() for _ in range(SETUP_SPAWNS_PER_ROUND)]
            calls = []
            for op in plan.ops:
                call = runner.call(op, traced)
                outputs.record(call)
                calls.append(call)
            rounds.append(Round(traced, calls))
    return warmup, rounds, setups


def determinism_checks(plan: Plan, runner: Runner, outputs: Outputs, trace: bool) -> list[Call]:
    """Outside the timed rounds: --jobs 2 and a repeated ci call must not change a byte."""
    pooled = runner.call(_with_jobs(plan.simulate, 2), traced=trace)
    outputs.same_as_first(pooled, "simulate CSV differs between --jobs 1 and --jobs 2")
    repeat = runner.call(plan.ci, traced=False)
    outputs.same_as_first(repeat, "ci NDJSON differs between two identical runs")
    return [pooled, repeat]


def end_to_end(rounds: list[Round], setups: list[float]) -> dict[str, tuple[float, str]]:
    """Each call's figure is the median of its scaled times over the run; a kind's is the mean over its calls.

    The mean gives every call of a round the same weight, whatever its
    number of repeats. ``simulate`` is timed inside ``main``, without
    interpreter start-up.
    """
    per_label: dict[str, list[Call]] = defaultdict(list)
    for rnd in rounds:
        for c in rnd.calls:
            if c.ok:
                per_label[c.op.label].append(c)

    def per_call(kind: str) -> float:
        walls = [statistics.median(c.scaled_wall for c in calls)
                 for calls in per_label.values() if calls[0].op.kind == kind]
        if not walls:
            raise RuntimeError(f"no successful {kind} call")
        return statistics.fmean(walls)

    sims = [(calls[0].op.reps, statistics.median(c.scaled_main for c in calls))
            for calls in per_label.values() if calls[0].op.kind == "simulate"]
    if not sims:
        raise RuntimeError("no successful simulate call")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "sim_reps_per_s": (sum(r for r, _ in sims) / sum(m for _, m in sims), "replications/s"),
        "ci_s": (per_call("ci"), "s"),
        "test_s": (per_call("test"), "s"),
        "region_s": (per_call("region"), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


SPAN_METRICS = (
    "core.read_sample_csv", "core.ingest_sample", "simulate.generate_pair", "simulate.run_coverage_study",
    "region.conservative_ci", "two_step.two_step_ci", "baselines.price_bonnet_ci",
    "baselines.donner_zou_ci", "region.acceptance_grid", "region.write_acceptance_grid_csv",
)


def self_times(spans: list) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for (_, start, end, parent) in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _line_count(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def per_layer(rounds: list[Round], pooled: Call, runner: Runner) -> dict[str, tuple[float, str]]:
    traced = [r for r in rounds if r.traced]
    per_round = defaultdict(list)
    for rnd in traced:
        sums = defaultdict(float)
        for c in rnd.calls:
            if not c.ok:
                continue
            spans = c.report["spans"]
            for (name, start, end, parent), own in zip(spans, self_times(spans)):
                if name == "region.lr_test":
                    name += "_far" if c.op.far else "_near"
                sums[name] += own
                if parent < 0:
                    sums["cli.self"] -= end - start
            sums["cli.self"] += c.wall
            sums["cli.import"] += c.report["import_s"]
            if c.op.kind == "region":
                path = runner.output(c.op)
                sums["region.grid_csv_bytes"] += os.path.getsize(path)
                sums["region.grid_rows"] += _line_count(path) - 1
        for name in (*SPAN_METRICS, "region.lr_test_near", "region.lr_test_far", "cli.self", "cli.import",
                     "region.grid_rows", "region.grid_csv_bytes"):
            per_round[name].append(sums[name])
    metrics = {}
    for name, values in per_round.items():
        if name.startswith("region.grid_"):
            metrics[name] = (statistics.median(values), "count" if name.endswith("rows") else "bytes")
        else:
            metrics[f"{name}_s"] = (statistics.median(values), "s")
    if pooled.ok:
        study = [end - start for name, start, end, _ in pooled.report["spans"] if name == "simulate.run_coverage_study"]
        metrics["simulate.pool_reps_per_s"] = (pooled.op.reps / study[0], "replications/s")
    untraced = statistics.median(r.wall for r in rounds if not r.traced)
    overhead = statistics.median(r.wall for r in traced) / untraced - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return metrics


def write_trace(rounds: list[Round], pooled: Call, path: str) -> None:
    entries = [
        {"round": k, "op": c.op.label, "wall_s": c.wall, "spans": c.report["spans"]}
        for k, rnd in enumerate(rounds) if rnd.traced for c in rnd.calls if c.ok
    ]
    if pooled.ok:
        entries.append({"round": None, "op": f"{pooled.op.label}-jobs2", "wall_s": pooled.wall,
                        "spans": pooled.report["spans"]})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"span_fields": ["name", "start", "end", "parent"], "calls": entries}, fh)


def main() -> int:
    parser = argparse.ArgumentParser(description="quantdiff benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quantdiff", "cli.py")):
        print("error: run from the root of a quantdiff checkout (src/quantdiff not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    work = os.path.join(root, WORK_DIR)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    runner = Runner(root, work)
    plan = workloads.build(args.workload, args.seed, work)
    outputs = Outputs(runner)
    warmup, rounds, setups = measure(plan, runner, outputs, args.seconds, bool(args.trace))
    checks = determinism_checks(plan, runner, outputs, bool(args.trace))

    calls = warmup + [c for rnd in rounds for c in rnd.calls] + checks
    if args.trace:
        metrics = per_layer(rounds, checks[0], runner)
        write_trace(rounds, checks[0], os.path.join(work, f"trace-{args.workload}-{args.seed}.json"))
    else:
        metrics = end_to_end(rounds, setups)
    for name in os.listdir(work):
        if not name.startswith("trace-"):
            os.remove(os.path.join(work, name))

    for problem in outputs.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not outputs.problems,
        "attempted": len(calls),
        "failed": sum(not c.ok for c in calls),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
