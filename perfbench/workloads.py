"""The benchmark's workloads: seeded inputs, one round of CLI calls, checks.

Every workload runs all four subcommands in each round, so every
end-to-end metric is measured on every workload. The workload fixes the
scale and which path dominates the round; the subcommands it does not
stress run as small N = 500 probes, where they measure per-call overhead.

Every input derives from the workload seed alone. To write a workload's
input files and print one round's commands:

    python3 perfbench/workloads.py --workload cli-ab-1e6 --seed 7 --out /tmp/qd-inputs
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats

import oracle
from oracle import Interval, Scenario

WORKLOADS = ("coverage-n500", "cli-ab-1e6")

# The three preregistered acceptance scenarios of tests/test_acceptance.py:
# both arms share one distribution, N = 500 per arm, alpha = 0.05. Their
# master seeds come from the workload seed.
ACCEPTANCE = (("normal", 0.0, 1.0, 0.5), ("lognormal", 0.0, 1.0, 0.5), ("lognormal", 0.0, 1.0, 0.9))
ALPHA = 0.05
COVERAGE_REPS = 500
PROBE_REPS = 500
PROBE_N = 500
PROBE_REPEATS = 2
AB_SIZES = (1_000_000, 500_000)
GRID_SIZES = (200_000, 100_000)
# The far test shifts d past the CI's centre by the control arm's gap
# between its 50th and FAR_QUANTILE-th percentiles, so the LR breakpoint
# sweep spans about 5% of the control values whatever the seed.
FAR_QUANTILE = 0.55
# Monte Carlo bounds are Z standard errors of a level-alpha proportion over
# R replications. Two-step's true coverage at N=500 is near 0.955, half an
# se above nominal, so a 3-se band would fail a correct method about once in
# 160 scenario checks. At 4.5 se the nine checks of a run trip with
# probability about 1e-4, and a method covering 0.88 still fails nine times
# in ten.
Z = 4.5
SPOT_REPS = 4

COVERAGE_HEADER = (
    "method,coverage,mean_width,reject_rate,mc_stderr,failures,"
    "n_c,n_t,q,alpha,dist_c,dist_t,seed,replications"
)


@dataclass
class Op:
    """One quantdiff CLI call of a round; ``check`` reads its output file."""

    label: str
    kind: str  # simulate | ci | test | region
    args: list[str]
    check: Callable[[str], list[str]]
    reps: int = 0
    far: bool = False


@dataclass
class Plan:
    ops: list[Op]
    simulate: Op  # re-run with --jobs 2: its CSV must not change
    ci: Op  # re-run once more: its NDJSON must not change


@dataclass(frozen=True)
class Arms:
    """Sorted control and treatment samples, and the files that hold them."""

    control: np.ndarray
    treatment: np.ndarray
    control_path: str
    treatment_path: str


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, *stream.encode()])


def latency_arms(seed: int, stream: str, n_c: int, n_t: int, out_dir: str) -> Arms:
    """Log-normal latencies in ms around 20 ms, the treatment 2% slower.

    Control values are logged to 1 ns, so they are nearly all distinct;
    treatment values are logged to 0.1 ms, so that arm is full of ties, as
    coarsely logged latencies are.
    The files hold shortest round-trip reprs, so the program parses
    exactly the arrays the oracle sees.
    """
    rng = _rng(seed, stream)
    mu = math.log(20.0)
    control = np.round(rng.lognormal(mu, 0.5, n_c), 6)
    treatment = np.round(rng.lognormal(mu + 0.02, 0.5, n_t), 1)
    paths = []
    for name, values in (("control", control), ("treatment", treatment)):
        path = os.path.join(out_dir, f"{stream}-{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(map(repr, values.tolist())))
            fh.write("\n")
        paths.append(path)
    return Arms(np.sort(control), np.sort(treatment), paths[0], paths[1])


def scenarios(seed: int, reps: int) -> list[Scenario]:
    seeds = _rng(seed, "scenarios").integers(0, 2**63, size=len(ACCEPTANCE))
    return [
        Scenario(family, mu, sigma, PROBE_N, q, ALPHA, reps, int(s))
        for (family, mu, sigma, q), s in zip(ACCEPTANCE, seeds)
    ]


def grid_sizes(seed: int) -> tuple[int, int]:
    """Region sizes just above GRID_SIZES; the jitter varies inputs, not work."""
    jitter = _rng(seed, "grid").integers(0, 1000, size=2)
    return GRID_SIZES[0] + int(jitter[0]), GRID_SIZES[1] + int(jitter[1])


# ------------------------------------------------------------------ checks


def check_ci(arms: Arms, q: float) -> Callable[[str], list[str]]:
    y_c, y_t = arms.control, arms.treatment
    exact = oracle.default_exact(len(y_c), len(y_t))

    def check(path: str) -> list[str]:
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        if [r["method"] for r in records] != list(oracle.METHODS):
            return [f"ci methods {[r['method'] for r in records]}"]
        problems = []
        for rec in records:
            if (rec["n_c"], rec["n_t"], rec["q"], rec["alpha"]) != (len(y_c), len(y_t), q, ALPHA):
                problems.append(f"{rec['method']}: wrong echo of n_c, n_t, q or alpha")
            got = Interval(rec["lower"], rec["upper"], frozenset(rec["flags"]))
            problems += oracle.check_interval(rec["method"], got, y_c, y_t, q, ALPHA, exact)
        return problems

    return check


def check_test(arms: Arms, q: float, d: float) -> Callable[[str], list[str]]:
    def check(path: str) -> list[str]:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        return oracle.check_lr(record, arms.control, arms.treatment, q, ALPHA, d)

    return check


def check_region(n_c: int, n_t: int, q: float) -> Callable[[str], list[str]]:
    def check(path: str) -> list[str]:
        with open(path, encoding="utf-8") as fh:
            if fh.readline() != "i,j,h,accepted\n":
                return ["region CSV header"]
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        return oracle.check_region(table, n_c, n_t, q, ALPHA)

    return check


def _method_properties(rows: dict, sc: Scenario) -> list[str]:
    """Coverage and size properties of the methods, with bounds from R."""
    se = math.sqrt(sc.alpha * (1.0 - sc.alpha) / sc.replications)
    nominal = 1.0 - sc.alpha
    tail = float(stats.norm.sf(Z))
    reject_max = float(stats.binom.isf(tail, sc.replications, sc.alpha)) / sc.replications
    problems = []
    if any(row["failures"] for row in rows.values()):
        problems.append("estimation failures")
    if rows["lr_conservative"]["coverage"] < nominal - Z * se:
        problems.append(f"conservative coverage {rows['lr_conservative']['coverage']} below {nominal} - {Z} se")
    if abs(rows["lr_two_step"]["coverage"] - nominal) > Z * se:
        problems.append(f"two-step coverage {rows['lr_two_step']['coverage']} not within {Z} se of {nominal}")
    if rows["lr_two_step"]["reject_rate"] > reject_max:
        problems.append(f"LR rejection rate {rows['lr_two_step']['reject_rate']} above {reject_max}")
    return problems


def library_spot_check(sc: Scenario) -> list[str]:
    """Regenerate a few replications and compare quantdiff's intervals with the oracle's."""
    import quantdiff as qd

    spec = qd.ScenarioSpec(
        dist_c=qd.parse_distribution(sc.dist), dist_t=qd.parse_distribution(sc.dist),
        n_c=sc.n, n_t=sc.n, q=sc.q, alpha=sc.alpha, replications=sc.replications, master_seed=sc.seed,
    )
    qspec = qd.QuantileSpec(sc.q, sc.alpha)
    functions = {
        "lr_conservative": qd.conservative_ci, "lr_two_step": qd.two_step_ci,
        "price_bonnet": qd.price_bonnet_ci, "donner_zou": qd.donner_zou_ci,
    }
    problems = []
    picks = np.linspace(0, sc.replications - 1, SPOT_REPS).astype(int)
    for r in picks.tolist():
        y_c, y_t = oracle.draw_pair(sc, r)
        control, treatment = qd.generate_pair(spec, r)
        if not (np.array_equal(control.values, y_c) and np.array_equal(treatment.values, y_t)):
            problems.append(f"replication {r}: draws differ from the Philox substream")
            continue
        exact = oracle.default_exact(sc.n, sc.n)
        for method, fn in functions.items():
            ci = fn(control, treatment, qspec)
            got = Interval(ci.lower, ci.upper, frozenset(ci.flags))
            problems += [f"replication {r}: {p}" for p in
                         oracle.check_interval(method, got, y_c, y_t, sc.q, sc.alpha, exact)]
        res = qd.lr_test(control, treatment, qspec, oracle.true_delta(sc))
        record = {"d": res.d, "statistic": res.statistic, "p_value": res.p_value, "i_star": res.i_star,
                  "j_star": res.j_star, "reject_at_alpha": res.rejects_at(sc.alpha)}
        problems += [f"replication {r}: {p}" for p in
                     oracle.check_lr(record, y_c, y_t, sc.q, sc.alpha, oracle.true_delta(sc))]
    return problems


def check_simulate(sc: Scenario) -> Callable[[str], list[str]]:
    def check(path: str) -> list[str]:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = list(csv.reader(fh))
        if ",".join(lines[0]) != COVERAGE_HEADER:
            return ["simulate CSV header"]
        got = {}
        for line in lines[1:]:
            row = dict(zip(lines[0], line))
            got[row["method"]] = row
        if list(got) != list(oracle.METHODS):
            return [f"simulate methods {list(got)}"]
        want = oracle.coverage_rows(sc)
        problems = []
        echo = [str(sc.n), str(sc.n), f"{sc.q:g}", f"{sc.alpha:g}", sc.dist, sc.dist, str(sc.seed), str(sc.replications)]
        rows = {}
        for method, row in got.items():
            if [row[k] for k in lines[0][6:]] != echo:
                problems.append(f"{method}: scenario columns {[row[k] for k in lines[0][6:]]}")
            rows[method] = {k: float(row[k]) for k in lines[0][1:6]}
            for key, value in want[method].items():
                if abs(rows[method][key] - value) > 1e-5 * max(abs(value), 1e-12):
                    problems.append(f"{method} {key} {rows[method][key]!r}, oracle {value!r}")
        problems += _method_properties(rows, sc)
        problems += library_spot_check(sc)
        return problems

    return check


# ------------------------------------------------------------------- plans


def _simulate_op(label: str, sc: Scenario) -> Op:
    args = ["simulate", "--dist-c", sc.dist, "--dist-t", sc.dist, "--n-c", str(sc.n), "--n-t", str(sc.n),
            "--q", repr(sc.q), "--alpha", repr(sc.alpha), "--replications", str(sc.replications),
            "--seed", str(sc.seed), "--jobs", "1"]
    return Op(label, "simulate", args, check_simulate(sc), reps=sc.replications)


def _ci_op(label: str, arms: Arms, q: float) -> Op:
    args = ["ci", "--control", arms.control_path, "--treatment", arms.treatment_path, "--q", repr(q)]
    return Op(label, "ci", args, check_ci(arms, q))


def _test_ops(prefix: str, arms: Arms, q: float, outside: bool) -> list[Op]:
    """Tests at the CI's centre, optionally just past its upper end, and far from it."""
    exact = oracle.default_exact(len(arms.control), len(arms.treatment))
    strict, _ = oracle.conservative_bounds(arms.control, arms.treatment, q, ALPHA, exact)
    centre, width = 0.5 * (strict.lower + strict.upper), strict.upper - strict.lower
    ds = {"near": centre}
    if outside:
        ds["outside"] = strict.upper + 0.05 * width
    y_c = arms.control
    ds["far"] = centre + float(y_c[int(FAR_QUANTILE * len(y_c))] - y_c[len(y_c) // 2])
    ops = []
    for name, d in ds.items():
        args = ["test", "--control", arms.control_path, "--treatment", arms.treatment_path,
                "--q", repr(q), "--d", repr(d)]
        ops.append(Op(f"{prefix}-test-{name}", "test", args, check_test(arms, q, d), far=name == "far"))
    return ops


def _region_op(label: str, n_c: int, n_t: int) -> Op:
    args = ["region", "--n-c", str(n_c), "--n-t", str(n_t), "--q", "0.5"]
    return Op(label, "region", args, check_region(n_c, n_t, 0.5))


def build(workload: str, seed: int, out_dir: str) -> Plan:
    """Write the workload's inputs under out_dir and return one round of calls.

    Probes run PROBE_REPEATS times a round: a short probe is noisier than
    the calls it sits between, and its figure is a median over the run.
    """
    if workload == "coverage-n500":
        sims = [_simulate_op(f"simulate-{i}", sc) for i, sc in enumerate(scenarios(seed, COVERAGE_REPS))]
        probe = latency_arms(seed, "probe", PROBE_N, PROBE_N, out_dir)
        probe_ci = _ci_op("probe-ci", probe, 0.5)
        probes = [probe_ci, *_test_ops("probe", probe, 0.5, outside=False), _region_op("probe-region", PROBE_N, PROBE_N)]
        return Plan(sims + probes * PROBE_REPEATS, sims[0], probe_ci)
    if workload == "cli-ab-1e6":
        ab = latency_arms(seed, "ab", *AB_SIZES, out_dir)
        cis = [_ci_op("ab-ci-q50", ab, 0.5), _ci_op("ab-ci-q90", ab, 0.9)]
        tests = _test_ops("ab", ab, 0.5, outside=True)
        grid = _region_op("grid-region", *grid_sizes(seed))
        probe_sim = _simulate_op("probe-simulate", scenarios(seed, PROBE_REPS)[0])
        # The probes open the round, away from the write-back of the region
        # call's 14 MB CSV, which ends the previous one.
        return Plan([probe_sim] * PROBE_REPEATS + cis + tests + [grid], probe_sim, cis[0])
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description="Write a workload's inputs and print one round's commands.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    plan = build(args.workload, args.seed, args.out)
    for op in plan.ops:
        print("quantdiff " + " ".join(op.args))


if __name__ == "__main__":
    main()
