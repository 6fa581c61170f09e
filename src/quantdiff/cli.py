"""Command-line interface: ci, test, region, and simulate subcommands.

Exit codes: 0 on success, 2 on input or validation problems (bad flags,
unparseable files, out-of-domain parameters, a ``simulate`` whose draw
arrays cannot be allocated at the given sizes or whose worker process
dies), 3 when the input is valid but statistically too degenerate for the
requested inference, 4 when an internal consistency check fails (a bug;
the message asks for a report), 141 (128 + SIGPIPE, as a shell reports for
a killed writer) when the reader of stdout closes the pipe early; nothing
is printed then.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from typing import IO, Iterator

from . import __version__
from .core import OrderedSample, QuantileSpec, TWO_SAMPLE_METHODS, read_sample_csv
from .errors import ConsistencyError, EstimationError, ValidationError
from .region import acceptance_grid, lr_test, write_acceptance_grid_csv
from .simulate import (
    ScenarioSpec,
    compute_ci,
    parse_distribution,
    run_coverage_study,
    select_methods,
    write_coverage_csv,
)


def _add_sample_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--control", required=True, help="control sample CSV, '-' for stdin")
    sub.add_argument("--treatment", required=True, help="treatment sample CSV")
    sub.add_argument("--header", action="store_true", help="skip the first line of each file")


def _add_quantile_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q", type=float, required=True, help="target quantile in (0,1)")
    sub.add_argument("--alpha", type=float, default=0.05, help="significance level (default 0.05)")


def _add_mode_args(sub: argparse.ArgumentParser) -> None:
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument(
        "--exact",
        dest="use_exact",
        action="store_const",
        const=True,
        help="force the exact binomial statistic (default: exact when max(N) <= 10000)",
    )
    mode.add_argument(
        "--asymptotic",
        dest="use_exact",
        action="store_const",
        const=False,
        help="force the asymptotic chi-square statistic",
    )


def _add_output_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", default="-", help="output path, '-' for stdout (default)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantdiff",
        description="Difference-in-quantile tests and confidence intervals.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ci = sub.add_parser("ci", help="confidence intervals for the quantile difference")
    _add_sample_args(p_ci)
    _add_quantile_args(p_ci)
    p_ci.add_argument(
        "--methods",
        default="all",
        help="comma-separated method tags or 'all' "
        f"(choices: {', '.join(m.value for m in TWO_SAMPLE_METHODS)})",
    )
    _add_mode_args(p_ci)
    p_ci.add_argument("--format", choices=("json", "csv"), default="json")
    _add_output_arg(p_ci)
    p_ci.set_defaults(func=cmd_ci)

    p_test = sub.add_parser("test", help="LR test of a hypothesized quantile difference")
    _add_sample_args(p_test)
    _add_quantile_args(p_test)
    p_test.add_argument("--d", type=float, required=True, help="hypothesized difference")
    _add_output_arg(p_test)
    p_test.set_defaults(func=cmd_test)

    p_region = sub.add_parser("region", help="export the acceptance-region grid as CSV")
    p_region.add_argument("--control", help="control sample CSV (sizes read from data)")
    p_region.add_argument("--treatment", help="treatment sample CSV")
    p_region.add_argument("--header", action="store_true", help="skip the first line of each file")
    p_region.add_argument("--n-c", type=int, help="control sample size (alternative to --control)")
    p_region.add_argument("--n-t", type=int, help="treatment sample size")
    _add_quantile_args(p_region)
    _add_mode_args(p_region)
    _add_output_arg(p_region)
    p_region.set_defaults(func=cmd_region)

    p_sim = sub.add_parser("simulate", help="run a seeded Monte Carlo coverage study")
    p_sim.add_argument("--dist-c", default="normal(0,1)", help="control distribution, e.g. lognormal(0,1)")
    p_sim.add_argument("--dist-t", default="normal(0,1)", help="treatment distribution")
    p_sim.add_argument("--n-c", type=int, default=500)
    p_sim.add_argument("--n-t", type=int, default=500)
    _add_quantile_args(p_sim)
    p_sim.add_argument("--replications", type=int, default=5000)
    p_sim.add_argument("--seed", type=int, default=0, help="master seed (unsigned 64-bit)")
    p_sim.add_argument("--methods", default="all")
    p_sim.add_argument("--jobs", type=int, default=1, help="worker processes (output is identical)")
    _add_output_arg(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


@contextlib.contextmanager
def _open_output(path: str, binary: bool = False) -> Iterator[IO]:
    if path == "-":
        yield sys.stdout.buffer if binary else sys.stdout
    else:
        # newline='' so the csv module's `\n` terminator is written verbatim
        with open(path, "wb") if binary else open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _load_samples(args: argparse.Namespace) -> tuple[OrderedSample, OrderedSample]:
    if args.control == "-" and args.treatment == "-":
        raise ValidationError("--control and --treatment cannot both be '-': stdin is read once")
    control = read_sample_csv(args.control, skip_header=args.header)
    treatment = read_sample_csv(args.treatment, skip_header=args.header)
    return control, treatment


def cmd_ci(args: argparse.Namespace) -> int:
    control, treatment = _load_samples(args)
    spec = QuantileSpec(args.q, args.alpha, args.use_exact)
    methods = select_methods(args.methods)

    records = []
    for method in methods:
        try:
            ci = compute_ci(method, control, treatment, spec)
        except EstimationError as exc:
            raise EstimationError(f"{method.value}: {exc}") from exc
        records.append(
            {
                "method": method.value,
                "lower": ci.lower,
                "upper": ci.upper,
                "alpha": spec.alpha,
                "q": spec.q,
                "n_c": control.n,
                "n_t": treatment.n,
                "flags": sorted(ci.flags),
            }
        )

    with _open_output(args.output) as out:
        if args.format == "json":
            for rec in records:
                print(json.dumps(rec), file=out)
        else:
            writer = csv.DictWriter(out, fieldnames=records[0], lineterminator="\n")
            writer.writeheader()
            writer.writerows({**rec, "flags": ";".join(rec["flags"])} for rec in records)
    return 0


def cmd_test(args: argparse.Namespace) -> int:
    control, treatment = _load_samples(args)
    spec = QuantileSpec(args.q, args.alpha)
    result = lr_test(control, treatment, spec, args.d)
    record = {
        "d": result.d,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "i_star": result.i_star,
        "j_star": result.j_star,
        "reject_at_alpha": result.rejects_at(spec.alpha),
    }
    with _open_output(args.output) as out:
        print(json.dumps(record), file=out)
    return 0


def cmd_region(args: argparse.Namespace) -> int:
    if (args.control or args.treatment) and (args.n_c, args.n_t) != (None, None):
        raise ValidationError("--n-c/--n-t cannot be given with --control/--treatment")
    if args.control or args.treatment:
        if not (args.control and args.treatment):
            raise ValidationError("provide both --control and --treatment, or sizes")
        control, treatment = _load_samples(args)
        n_c, n_t = control.n, treatment.n
    elif args.n_c is not None and args.n_t is not None:
        n_c, n_t = args.n_c, args.n_t
    else:
        raise ValidationError("provide --control/--treatment files or --n-c/--n-t sizes")
    grid = acceptance_grid(n_c, n_t, QuantileSpec(args.q, args.alpha, args.use_exact))
    with _open_output(args.output, binary=True) as out:
        write_acceptance_grid_csv(grid, out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = ScenarioSpec(
        dist_c=parse_distribution(args.dist_c),
        dist_t=parse_distribution(args.dist_t),
        n_c=args.n_c,
        n_t=args.n_t,
        q=args.q,
        alpha=args.alpha,
        replications=args.replications,
        master_seed=args.seed,
    )
    rows = run_coverage_study(scenario, args.methods, jobs=args.jobs)
    with _open_output(args.output) as out:
        write_coverage_csv(scenario, rows, out)
    return 0


def _join_shift(argv: list[str]) -> list[str]:
    """argv with each ``--d VALUE`` that ``float`` parses joined into ``--d=VALUE``.

    argparse takes ``-1e-3``, unlike ``-0.001``, for an option, not a value.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--d":
            with contextlib.suppress(ValueError):
                float(token)
                out[-1] = f"--d={token}"
                continue
        out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_shift(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot fail again.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"error: internal error (please report): {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
