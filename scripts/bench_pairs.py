"""Run the benchmark on two checkouts in interleaved pairs and summarise each metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload coverage-n500 --seeds 1-10

PARENT and CHANGE are the roots of two quantdiff checkouts (a ``git archive``
of each commit, say). For each seed, ``perfbench/run.py`` runs once from each
checkout with its own copy of the benchmark; odd seeds run the parent first
and even seeds the change first, so a slow spell of the machine does not
always land on one side. A run that is not ``correct: true`` with 0 failed
operations stops the script (exit code 1): its figures would compare
nothing.

The last line printed is one JSON object: the runs, and per metric the
parent's and the change's quartiles (``numpy.percentile``, linear
interpolation), the change's median over the parent's, the pairs (same
seed) in which the change was better, the gap between the medians and the
parent's interquartile range. Which way is better comes from CHANGE's
``BENCHMARK.json``. Each run is also printed as it ends, as a JSON line on
stderr, so a long series that is cut keeps what it measured.

Nothing from quantdiff is imported here.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np


def parse_seeds(text: str) -> list[int]:
    """``"1-10"``, ``"11"`` or ``"1,3,5-7"`` as a list of ints."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run from ``root``; its result line, refused unless it is correct."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"] != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"refused: {root} {workload} seed {seed}: {result}")
    return result


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: quartiles per side, median ratio, change-better pairs, gap and parent IQR."""
    by_seed = {(run["side"], run["seed"]): run["result"]["metrics"] for run in runs}
    seeds = sorted({run["seed"] for run in runs})
    names = [name for name in by_seed[("parent", seeds[0])] if name in better]
    summary = {}
    for name in names:
        parent = np.array([by_seed[("parent", s)][name]["value"] for s in seeds])
        change = np.array([by_seed[("change", s)][name]["value"] for s in seeds])
        p_q = np.percentile(parent, [25, 50, 75])
        c_q = np.percentile(change, [25, 50, 75])
        wins = change < parent if better[name] == "lower" else change > parent
        summary[name] = {
            "better": better[name],
            "parent_q1_median_q3": [round(float(v), 4) for v in p_q],
            "change_q1_median_q3": [round(float(v), 4) for v in c_q],
            "change_median_over_parent": round(float(c_q[1] / p_q[1]), 4) if p_q[1] else None,
            "change_better_pairs": int(wins.sum()),
            "pairs": len(seeds),
            "median_gap": round(float(abs(c_q[1] - p_q[1])), 4),
            "parent_iqr": round(float(p_q[2] - p_q[0]), 4),
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 1,3,5-7")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}

    sides = {"parent": args.parent, "change": args.change}
    runs = []
    for seed in args.seeds:
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds, args.trace)
            run = {"side": side, "workload": args.workload, "seed": seed, "trace": args.trace,
                   "result": result}
            print(json.dumps(run), file=sys.stderr, flush=True)
            runs.append(run)
    print(json.dumps({"workload": args.workload, "summary": summarise(runs, better), "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
