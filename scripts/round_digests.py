"""Print a sha256 of each output of one seed's round of a benchmark workload.

    PYTHONPATH=src python3 scripts/round_digests.py --workload cli-ab-1e6 --seed 7 --out /tmp/qd-round

The round and its input files come from ``perfbench/workloads.build``.
Each distinct call of the round runs once as ``python -m quantdiff.cli``
under the caller's PYTHONPATH. The round's simulate call runs once more at
``--jobs 2``, and each ``ci`` and ``region`` call once more with ``--exact``
and once more with ``--asymptotic``, labelled ``<label>-exact`` and
``<label>-asymptotic``, and each ``ci`` call once more with ``--format csv``,
labelled ``<label>-csv``. Each ``ci`` and ``test`` call runs once more with
``--control -`` and the control file on stdin (``<label>-stdin``). A small
simulate then runs for each pair of families that holds an exponential or a
uniform arm, which no round draws (``family-<control>-<treatment>``), and
a 40/1,000-value simulate at q = 0.01 and a 1,000/40-value one at q = 0.99
(``edge-q<q>``): their accepted rows reach control count 0 or treatment
count n_t, so the LR decision reads an infinite order statistic, and it
rejects at some rows. The parser's texts follow, with ``COLUMNS=80``:
the top-level ``--help`` (label ``help``), each subcommand's ``--help``
(``<command>-help``) and each bare subcommand, a usage error
(``<command>-usage``); each is digested as its stdout, stderr and exit
code. Each line is ``sha256 label``. Two checkouts give bit-identical
outputs when their lines are the same.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import workloads  # noqa: E402

# One law per family, and the pairs the family-<c>-<t> simulates draw.
LAWS = {"normal": "normal(0,1)", "lognormal": "lognormal(0,0.5)",
        "exponential": "exponential(2)", "uniform": "uniform(-1,3)"}
FAMILY_PAIRS = [(c, t) for i, c in enumerate(LAWS) for t in list(LAWS)[i:]
                if "exponential" in (c, t) or "uniform" in (c, t)]


def main() -> None:
    parser = argparse.ArgumentParser(description="Print a sha256 of each output of a round.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the inputs and outputs")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    plan = workloads.build(args.workload, args.seed, args.out)
    calls = {op.label: op.args for op in plan.ops}
    jobs2 = list(plan.simulate.args)
    jobs2[jobs2.index("--jobs") + 1] = "2"
    calls[f"{plan.simulate.label}-jobs2"] = jobs2
    for op in {op.label: op for op in plan.ops if op.kind in ("ci", "region")}.values():
        for flag in ("exact", "asymptotic"):
            calls[f"{op.label}-{flag}"] = [*op.args, f"--{flag}"]
        if op.kind == "ci":
            calls[f"{op.label}-csv"] = [*op.args, "--format", "csv"]
    stdin = {}
    for op in {op.label: op for op in plan.ops if op.kind in ("ci", "test")}.values():
        call = list(op.args)
        control = call.index("--control") + 1
        stdin[f"{op.label}-stdin"], call[control] = call[control], "-"
        calls[f"{op.label}-stdin"] = call
    for k, (c, t) in enumerate(FAMILY_PAIRS):
        calls[f"family-{c}-{t}"] = [
            "simulate", "--dist-c", LAWS[c], "--dist-t", LAWS[t], "--n-c", "120", "--n-t", "90",
            "--q", ("0.1", "0.5", "0.9")[k % 3], "--replications", "300", "--seed", str(args.seed)]
    for q, n_c, n_t in (("0.01", "40", "1000"), ("0.99", "1000", "40")):
        calls[f"edge-q{q}"] = [
            "simulate", "--dist-c", LAWS["normal"], "--dist-t", LAWS["lognormal"], "--n-c", n_c,
            "--n-t", n_t, "--q", q, "--replications", "2000", "--seed", str(args.seed)]
    for label, call in calls.items():
        out = os.path.join(args.out, f"{label}.out")
        with open(stdin.get(label, os.devnull), "rb") as fh:
            subprocess.run([sys.executable, "-m", "quantdiff.cli", *call, "--output", out],
                           stdin=fh, check=True)
        with open(out, "rb") as fh:
            print(hashlib.sha256(fh.read()).hexdigest(), label)
    texts = {"help": ["--help"]}
    for command in ("ci", "test", "region", "simulate"):
        texts[f"{command}-help"] = [command, "--help"]
        texts[f"{command}-usage"] = [command]
    for label, call in texts.items():
        proc = subprocess.run([sys.executable, "-m", "quantdiff.cli", *call], capture_output=True,
                              env={**os.environ, "COLUMNS": "80"})
        text = b"\0".join([proc.stdout, proc.stderr, str(proc.returncode).encode()])
        print(hashlib.sha256(text).hexdigest(), label)


if __name__ == "__main__":
    main()
