"""Seeded Monte Carlo coverage studies for the difference-in-quantile CIs.

Scenarios pair two closed-form distributions, so the true quantile
difference is known analytically and coverage is a simple containment
count. Every replication draws from its own counter-based substream keyed
by (master_seed, replication_index); results are therefore bit-identical
no matter how replications are scheduled.

The study evaluates replications in blocks: consecutive replications'
sorted draws form the rows of one (R, n_c) and one (R, n_t) array, and
every method's endpoints and the LR decision come out of array operations
over those rows, through the same code the one-pair functions run. A
failed row is a non-finite endpoint, and a method that fails on a whole
block gives each of its rows NaN endpoints. The study reduces all the
endpoints once, in replication order, so parallel runs reproduce the
sequential output exactly.
"""

from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import repeat
from typing import IO, Iterable, Sequence

import numpy as np

from .baselines import donner_zou_ci, donner_zou_rows, price_bonnet_ci, price_bonnet_rows
from .core import (
    TWO_SAMPLE_METHODS,
    ConfidenceInterval,
    IntervalRows,
    Method,
    OrderedSample,
    QuantileSpec,
    _check_probability,
    _check_sizes,
)
from .errors import (
    DomainError,
    EstimationError,
    NonFiniteValueError,
    ValidationError,
)
from .likelihood import normal_quantile
from .region import conservative_ci, conservative_rows, lr_rejections
from .two_step import two_step_ci, two_step_rows


class DistFamily(str, Enum):
    """A scenario family, named after the numpy ``Generator`` method that draws it.

    The sampler passes the family's parameters to that method in order,
    except exponential's rate, which numpy takes as the scale 1 / rate.
    """

    NORMAL = "normal"
    LOGNORMAL = "lognormal"
    EXPONENTIAL = "exponential"
    UNIFORM = "uniform"


# Each family's parameter count and closed-form q-quantile.
_FAMILIES = {
    DistFamily.NORMAL: (2, lambda q, mu, sigma: mu + sigma * normal_quantile(q)),
    DistFamily.LOGNORMAL: (2, lambda q, mu, sigma: math.exp(mu + sigma * normal_quantile(q))),
    DistFamily.EXPONENTIAL: (1, lambda q, rate: -math.log1p(-q) / rate),
    DistFamily.UNIFORM: (2, lambda q, a, b: a + q * (b - a)),
}


@dataclass(frozen=True)
class Distribution:
    """A sampling distribution with closed-form quantiles.

    Families and parameters: normal(mu, sigma), lognormal(mu, sigma) with
    the parameters of the underlying normal, exponential(rate), and
    uniform(a, b).
    """

    family: DistFamily
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        family = DistFamily(self.family)
        object.__setattr__(self, "family", family)
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        count = _FAMILIES[family][0]
        if len(params) != count:
            raise DomainError(f"{family.value} takes {count} parameters, got {len(params)}")
        if not all(math.isfinite(p) for p in params):
            raise DomainError(f"distribution parameters must be finite: {params}")
        if family in (DistFamily.NORMAL, DistFamily.LOGNORMAL) and params[1] <= 0.0:
            raise DomainError(f"sigma must be > 0, got {params[1]}")
        if family is DistFamily.EXPONENTIAL and params[0] <= 0.0:
            raise DomainError(f"rate must be > 0, got {params[0]}")
        if family is DistFamily.UNIFORM and params[1] <= params[0]:
            raise DomainError(f"uniform needs a < b, got {params}")
        if family is DistFamily.UNIFORM and not math.isfinite(params[1] - params[0]):
            raise DomainError(f"uniform width b - a overflows double precision: {params}")

    @classmethod
    def normal(cls, mu: float, sigma: float) -> "Distribution":
        return cls(DistFamily.NORMAL, (mu, sigma))

    @classmethod
    def lognormal(cls, mu: float, sigma: float) -> "Distribution":
        return cls(DistFamily.LOGNORMAL, (mu, sigma))

    @classmethod
    def exponential(cls, rate: float) -> "Distribution":
        return cls(DistFamily.EXPONENTIAL, (rate,))

    @classmethod
    def uniform(cls, a: float, b: float) -> "Distribution":
        return cls(DistFamily.UNIFORM, (a, b))

    def __str__(self) -> str:
        args = ",".join(format(p, "g") for p in self.params)
        return f"{self.family.value}({args})"


_DIST_PATTERN = re.compile(r"^\s*([a-z]+)\s*\(([^()]*)\)\s*$")


def parse_distribution(text: str) -> Distribution:
    """Parse a spec like ``normal(0,1)`` or ``exponential(2)``."""
    match = _DIST_PATTERN.match(text)
    if match is None:
        raise ValidationError(
            f"cannot parse distribution {text!r}; expected e.g. normal(0,1)"
        )
    name, arg_text = match.groups()
    try:
        family = DistFamily(name)
    except ValueError:
        valid = ", ".join(f.value for f in DistFamily)
        raise ValidationError(f"unknown distribution {name!r}; valid: {valid}") from None
    try:
        params = tuple(float(a) for a in arg_text.split(","))
    except ValueError:
        raise ValidationError(f"bad distribution parameters in {text!r}") from None
    return Distribution(family, params)


def true_quantile(dist: Distribution, q: float) -> float:
    """Closed-form q-quantile of a scenario distribution."""
    _check_probability(q, "q")
    try:
        value = _FAMILIES[dist.family][1](q, *dist.params)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"the {q} quantile of {dist} overflows double precision")
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation setting: two distributions, sizes, q, alpha, seed.

    ``true_delta`` is derived from the closed-form quantiles at
    construction and is not an input.
    """

    dist_c: Distribution
    dist_t: Distribution
    n_c: int
    n_t: int
    q: float
    alpha: float
    replications: int
    master_seed: int
    true_delta: float = field(init=False)

    def __post_init__(self) -> None:
        QuantileSpec(self.q, self.alpha)  # domain checks
        _check_sizes(self.n_c, self.n_t)
        if not (1 <= self.replications <= 2**64):
            # A replication's index keys its substream as an unsigned 64-bit integer.
            raise DomainError("replications must lie in [1, 2**64]")
        if not (0 <= self.master_seed < 2**64):
            raise DomainError("master_seed must fit in an unsigned 64-bit integer")
        tau_c, tau_t = true_quantile(self.dist_c, self.q), true_quantile(self.dist_t, self.q)
        delta = tau_t - tau_c
        if not math.isfinite(delta):
            raise DomainError(
                f"the true difference of the {self.q} quantiles, {tau_t:g} of {self.dist_t} "
                f"minus {tau_c:g} of {self.dist_c}, overflows double precision"
            )
        object.__setattr__(self, "true_delta", delta)


@dataclass(frozen=True)
class CoverageRow:
    """Aggregated results for one method within one scenario."""

    method: Method
    coverage: float
    mean_width: float
    reject_rate_at_true_d: float
    mc_stderr: float
    failures: int


def _sampler(rng: np.random.Generator, dist: Distribution, n: int):
    """A call that draws n values of ``dist`` from ``rng`` (see ``DistFamily``)."""
    args = (1.0 / dist.params[0],) if dist.family is DistFamily.EXPONENTIAL else dist.params
    return partial(getattr(rng, dist.family.value), *args, n)


# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hash of uint32 words; each call steps the hash constant by ``mult``."""

    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    return hash_words


def _philox_keys(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The Philox keys of replications start..stop-1, one (stop - start, 2) uint64 row each.

    Row r holds the key of ``Philox(SeedSequence(entropy=(master_seed, r)))``,
    for any master_seed and r below 2**64: numpy's SeedSequence mixing over
    a pool of 4 words, run for all rows at once in uint32 arithmetic, then
    ``generate_state(2, np.uint64)``. The entropy words are master_seed's
    (one below 2**32, else two), then r's low and high words; a pool word
    past the end is hashed as 0, as numpy hashes its missing ones.
    """
    r = np.arange(stop - start, dtype=np.uint64) + np.uint64(start)
    seed_words = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed >> 32 else [])
    words = [np.full(len(r), w, dtype=np.uint32) for w in seed_words]
    words += [(r & _MASK32).astype(np.uint32), (r >> 32).astype(np.uint32)]
    words += [np.zeros(len(r), dtype=np.uint32)] * (4 - len(words))

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)

    finish = _hasher(_INIT_B, _MULT_B)
    state = [finish(word).astype(np.uint64) for word in pool]
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def _draw_block(spec: ScenarioSpec, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted control and treatment draws of replications start..stop-1, one row each.

    Replication r draws control then treatment from its own Philox
    substream, that of ``Generator(Philox(SeedSequence(entropy=(master_seed,
    r))))``. One generator serves the block: before each row its Philox
    is set to the state such a fresh one starts in, under the row's key.
    """
    try:
        y_c = np.empty((stop - start, spec.n_c))
        y_t = np.empty((stop - start, spec.n_t))
    except (ValueError, MemoryError):
        raise DomainError(
            f"the draws of {stop - start} replication(s) with n_c = {spec.n_c} and "
            f"n_t = {spec.n_t} do not fit in memory"
        ) from None
    bit_generator = np.random.Philox(0)  # a fixed seed: no OS entropy
    rng = np.random.Generator(bit_generator)
    draw_c = _sampler(rng, spec.dist_c, spec.n_c)
    draw_t = _sampler(rng, spec.dist_t, spec.n_t)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for row, key in enumerate(_philox_keys(spec.master_seed, start, stop)):
        state["state"]["key"] = key
        bit_generator.state = state
        y_c[row] = draw_c()
        y_t[row] = draw_t()
    finite = np.isfinite(y_c).all(axis=1) & np.isfinite(y_t).all(axis=1)
    if not finite.all():
        bad = start + int(np.flatnonzero(~finite)[0])
        raise NonFiniteValueError(f"replication {bad} drew a non-finite value")
    y_c.sort(axis=1)
    y_t.sort(axis=1)
    return y_c, y_t


def generate_pair(
    spec: ScenarioSpec, replication_index: int
) -> tuple[OrderedSample, OrderedSample]:
    """Draw one (control, treatment) pair from its dedicated substream.

    The stream is keyed by (master_seed, replication_index), so any
    replication can be regenerated in isolation and execution order never
    affects the draws. The pair is the study's row for that replication.
    """
    if not (0 <= replication_index < spec.replications):
        raise DomainError(
            f"replication index {replication_index} outside [0, {spec.replications})"
        )
    y_c, y_t = _draw_block(spec, replication_index, replication_index + 1)
    return OrderedSample(y_c[0]), OrderedSample(y_t[0])


# Each method's interval for one sample pair, and for the rows of two
# sorted blocks. The lambdas look the one-pair functions up when called,
# so a module attribute rebound later (a timing wrapper, say) is the one
# that runs.
_METHODS = {
    Method.LR_CONSERVATIVE: (lambda c, t, spec: conservative_ci(c, t, spec), conservative_rows),
    Method.LR_TWO_STEP: (lambda c, t, spec: two_step_ci(c, t, spec), two_step_rows),
    Method.PRICE_BONNET: (lambda c, t, spec: price_bonnet_ci(c, t, spec), price_bonnet_rows),
    Method.DONNER_ZOU: (lambda c, t, spec: donner_zou_ci(c, t, spec), donner_zou_rows),
}


def compute_ci(
    method: Method, control: OrderedSample, treatment: OrderedSample, spec: QuantileSpec
) -> ConfidenceInterval:
    """The method's interval; ``spec.calibration`` applies to lr_conservative only."""
    return _METHODS[method][0](control, treatment, spec)


def select_methods(methods: str | Iterable[Method | str]) -> tuple[Method, ...]:
    """Validated methods in TWO_SAMPLE_METHODS order, without duplicates.

    A string is a comma-separated list of method names, or ``all``.
    """
    if isinstance(methods, str):
        text = methods.strip()
        methods = TWO_SAMPLE_METHODS if text == "all" else [m.strip() for m in text.split(",")]
    chosen = set()
    for name in methods:
        try:
            chosen.add(Method(name))
        except ValueError:
            valid = ", ".join(m.value for m in TWO_SAMPLE_METHODS)
            raise ValidationError(f"unknown method {name!r}; valid: {valid}") from None
    if not chosen:
        raise ValidationError("no methods requested")
    return tuple(m for m in TWO_SAMPLE_METHODS if m in chosen)


# Bytes of one block's two draw arrays. The other arrays of a block's
# evaluation are of about the same size or smaller.
_BLOCK_BYTES = 4 << 20


def _chunk_size(spec: ScenarioSpec, jobs: int) -> int:
    """Replications per block: at most _BLOCK_BYTES of draws, and every job gets one."""
    rows = _BLOCK_BYTES // (8 * (spec.n_c + spec.n_t))
    return max(1, min(rows, math.ceil(spec.replications / jobs)))


def _evaluate_block(
    spec: ScenarioSpec, methods: tuple[Method, ...], start: int, stop: int
) -> tuple[list[IntervalRows], np.ndarray]:
    """Each method's intervals for replications start..stop-1, and the LR rejections at true_delta.

    A method whose inference raises on the block gives every row NaN
    endpoints and no flags; such failures depend only on the sizes, q and
    alpha. An overflow depends on the draws: it leaves a non-finite
    endpoint in its own row only.
    """
    y_c, y_t = _draw_block(spec, start, stop)
    qspec = QuantileSpec(spec.q, spec.alpha)
    intervals: list[IntervalRows] = []
    for method in methods:
        try:
            intervals.append(_METHODS[method][1](y_c, y_t, qspec))
        except EstimationError:
            failed = np.full(stop - start, np.nan)
            intervals.append(IntervalRows(failed, failed, {}))
    return intervals, lr_rejections(y_c, y_t, qspec, spec.true_delta)


def run_coverage_study(
    spec: ScenarioSpec, methods: str | Iterable[Method | str], jobs: int = 1
) -> list[CoverageRow]:
    """Run the scenario and aggregate one CoverageRow per method.

    A replication fails for a method where an endpoint is not finite: the
    formula overflowed, or the method raised an estimation error on the
    replication's whole block, whose rows then count as failures. Failures
    count into ``failures`` and drop out of the coverage and width
    denominators. The LR-test rejection rate at d = true_delta is shared
    by all rows since the test is method-independent.

    ``methods`` takes anything :func:`select_methods` accepts. ``jobs`` > 1
    evaluates blocks in up to that many worker processes, never more than
    there are CPUs or blocks; the output is identical to the sequential
    run. A worker that dies (killed for lack of memory, say) ends the
    study with a :class:`ValidationError`.
    """
    method_tuple = select_methods(methods)
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")

    jobs = min(jobs, os.cpu_count() or 1)
    chunk = _chunk_size(spec, jobs)
    starts = range(0, spec.replications, chunk)
    stops = [min(start + chunk, spec.replications) for start in starts]
    workers = min(jobs, len(starts))
    if workers == 1:
        results = list(map(_evaluate_block, repeat(spec), repeat(method_tuple), starts, stops))
    else:
        # Imported only here: concurrent.futures pulls in multiprocessing,
        # socket and subprocess, which nothing else in the package needs.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(
                    pool.map(_evaluate_block, repeat(spec), repeat(method_tuple), starts, stops)
                )
        except BrokenProcessPool:
            raise ValidationError(
                "a worker process ended abruptly, perhaps out of memory; rerun with --jobs 1"
            ) from None

    reject_rate = sum(int(rejected.sum()) for _, rejected in results) / spec.replications
    d = spec.true_delta
    rows = []
    for pos, method in enumerate(method_tuple):
        ends = np.concatenate(
            [(intervals[pos].lower, intervals[pos].upper) for intervals, _ in results], axis=1
        )
        scored = ends[:, np.isfinite(ends).all(axis=0)]
        lower, upper = scored
        successes = len(lower)
        contained = int(((lower <= d) & (d <= upper)).sum())
        # A sequential sum in replication order, so the mean width does not
        # depend on how the replications were split into blocks. Where an
        # endpoint is large enough for a width or the sum to pass the float
        # range, every endpoint is scaled down by a power of two first, which
        # changes no bit of the mean unless another endpoint is within that
        # power of two of the subnormal range; otherwise the scale is 1.
        top = math.frexp(np.abs(scored).max(initial=0.0))[1]
        scale = 2.0 ** -max(top + spec.replications.bit_length() - 1023, 0)
        coverage = mean_width = stderr = math.nan
        if successes > 0:
            coverage = contained / successes
            widths = upper * scale - lower * scale
            mean_width = float(np.add.accumulate(widths)[-1]) / successes / scale
            stderr = math.sqrt(coverage * (1.0 - coverage) / successes)
        rows.append(
            CoverageRow(
                method=method,
                coverage=coverage,
                mean_width=mean_width,
                reject_rate_at_true_d=reject_rate,
                mc_stderr=stderr,
                failures=spec.replications - successes,
            )
        )
    return rows


COVERAGE_CSV_HEADER = (
    "method,coverage,mean_width,reject_rate,mc_stderr,failures,"
    "n_c,n_t,q,alpha,dist_c,dist_t,seed,replications"
)


def write_coverage_csv(
    spec: ScenarioSpec, rows: Sequence[CoverageRow], stream: IO[str]
) -> None:
    """Serialize coverage rows with their scenario columns, 6 significant digits."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(COVERAGE_CSV_HEADER.split(","))
    for row in rows:
        writer.writerow(
            [
                row.method.value,
                format(row.coverage, ".6g"),
                format(row.mean_width, ".6g"),
                format(row.reject_rate_at_true_d, ".6g"),
                format(row.mc_stderr, ".6g"),
                row.failures,
                spec.n_c,
                spec.n_t,
                format(spec.q, ".6g"),
                format(spec.alpha, ".6g"),
                str(spec.dist_c),
                str(spec.dist_t),
                spec.master_seed,
                spec.replications,
            ]
        )
