"""Seeded workloads of the isbound benchmark: operations, references and output checks.

Each workload is one cycle of operations built from the workload seed.  An
operation is an in-process ``isbound.cli.main(argv)`` call, plus direct
``exact_mse`` calls on the quadrature workload where the CLI has no
equivalent.  Its output text is what gets digested; ``check`` validates it
against references computed when the workload is built.

Importing this module imports numpy and isbound, so the benchmark times the
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from isbound import cli, gaussian, sampling

# The paper's Table 2 targets N(m, 1) and Table 3 targets N(0, s2), against N(0, 1).
TABLE2_MEANS = (2.0, 2.5, 3.0, 3.5)
TABLE3_VARIANCES = (1e-9, 1e-4, 16.0, 25.0)
METRICS = ("kl", "chi2", "tv", "hellinger")
METRIC_RANGE = {"kl": math.inf, "chi2": math.inf, "tv": 1.0, "hellinger": 2.0}
STD_NORMAL = gaussian.Gaussian1D(0.0, 1.0)

# Criterion 6 tolerance for quadrature against the closed forms.
QUADRATURE_RTOL = 1e-8
# Monte Carlo estimates of a bounded metric may exceed its range by noise only.
MC_RANGE_SIGMAS = 6.0
# Largest log of a finite reference the random pairs may reach.  Beyond
# exp(709) a finite chi-squared divergence no longer fits a float and the
# closed form raises OverflowError (a known defect tracked in ROADMAP item 4),
# so such pairs are redrawn rather than counted as failed operations.
MAX_LOG_REFERENCE = 700.0

BREAKDOWN_REPLICATES = 1000
BREAKDOWN_SMALL_SIZES = (5, 25, 45)  # below the criterion-10 threshold 49.63
QUADRATURE_RANDOM_PAIRS = 48
MC_SAMPLES = 1_000_000
LARGE_BREAKDOWN_SIZE = 25_000
ESS_PARTICLES = 5_000_000


class CheckError(Exception):
    """An operation exited non-zero or produced an output that fails its check."""


@dataclass(frozen=True)
class Op:
    """One benchmark operation: ``run`` returns its output text, ``check`` raises CheckError."""

    label: str
    run: Callable[[], str]
    check: Callable[[str], None]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def run_cli(argv: list[str]) -> str:
    """Call ``isbound.cli.main`` in-process and return what it wrote to stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    _require(code == 0, f"exit code {code} for {' '.join(argv)}")
    return buffer.getvalue()


def closed_forms(mean: float, variance: float) -> dict[str, float]:
    """The library's closed-form divergences of N(mean, variance) from N(0, 1)."""
    target = gaussian.Gaussian1D(mean, variance)
    return {
        "kl": gaussian.gaussian_kl(target, STD_NORMAL).value,
        "chi2": gaussian.gaussian_chi_squared(target, STD_NORMAL).value,
        "tv": gaussian.gaussian_total_variation(target, STD_NORMAL).value,
        "hellinger": gaussian.gaussian_squared_hellinger(target, STD_NORMAL).value,
    }


def _log_second_moments(mean: float, variance: float) -> tuple[float, float]:
    """log E_Q[g^2] and log E_Q[g^2 x^2] for target N(mean, variance), Q = N(0, 1).

    For variance < 2, p^2/q is (chi2 + 1) times the density of
    N(2 mean / (2 - variance), variance / (2 - variance)); both moments are
    infinite otherwise.
    """
    if variance >= 2.0:
        return math.inf, math.inf
    log_chi2_plus_1 = mean * mean / (2.0 - variance) - 0.5 * math.log(variance * (2.0 - variance))
    centre = 2.0 * mean / (2.0 - variance)
    spread = variance / (2.0 - variance)
    return log_chi2_plus_1, log_chi2_plus_1 + math.log(centre * centre + spread)


def _representable(mean: float, variance: float) -> bool:
    moments = _log_second_moments(mean, variance)
    return all(v < MAX_LOG_REFERENCE for v in moments if math.isfinite(v))


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= QUADRATURE_RTOL * max(1.0, abs(reference))


def _check_threshold_rows(rows: list[dict], references: list[dict], method: str) -> None:
    """Check the rows of a bounds/table2/table3 result, one reference dict per pair."""
    expected = [(i, metric) for i in range(len(references)) for metric in METRICS]
    _require(len(rows) == len(expected), f"expected {len(expected)} rows, got {len(rows)}")
    for row, (pair, metric) in zip(rows, expected):
        _require(row["metric"] == metric, f"row metric {row['metric']!r}, expected {metric!r}")
        reference = references[pair][metric]
        value = row["divergence"]
        where = f"{row['row_label']} {metric}"
        _require((value is None) == math.isinf(reference), f"{where}: infinite iff closed form is")
        _require((row["threshold"] is None) == (value is None), f"{where}: threshold finiteness")
        if value is None:
            continue
        cap = METRIC_RANGE[metric]
        if method == "quadrature":
            _require(row["divergence_method"] == "quadrature", f"{where}: method")
            _require(_close(value, reference), f"{where}: {value!r} vs closed form {reference!r}")
            _require(0.0 <= value <= cap, f"{where}: {value!r} out of range")
        else:
            stderr = row["divergence_stderr"]
            _require(row["divergence_method"] == "monte_carlo", f"{where}: method")
            _require(stderr is not None and 0.0 <= stderr < math.inf, f"{where}: stderr {stderr!r}")
            slack = MC_RANGE_SIGMAS * stderr
            _require(-slack <= value <= cap + slack, f"{where}: {value!r} out of range")
        _require(row["threshold"] > 0 and row["necessary_n_integer"] >= 1, f"{where}: threshold")


def pair_op(mean: float, variance: float) -> Op:
    """``bounds --method quadrature`` plus exact_mse for phi = 1 and phi = x on one pair."""
    argv = [
        "bounds", "--target-mean", repr(mean), "--target-var", repr(variance),
        "--method", "quadrature", "--metric", "all", "--format", "json",
    ]
    references = closed_forms(mean, variance)
    _, log_m2_x = _log_second_moments(mean, variance)
    mse_references = (references["chi2"], math.exp(log_m2_x) - mean * mean)

    def run() -> str:
        text = run_cli(argv)
        model = gaussian.make_gaussian_model(gaussian.Gaussian1D(mean, variance), STD_NORMAL)
        mse_one = sampling.exact_mse(model, sampling.Observable.one(), 1)
        mse_x = sampling.exact_mse(model, sampling.Observable.identity(), 1)
        return text + json.dumps({"exact_mse": [mse_one, mse_x]})

    def check(text: str) -> None:
        cli_text, mse_line = text.rsplit("\n", 1)
        _check_threshold_rows(json.loads(cli_text)["rows"], [references], "quadrature")
        values = json.loads(mse_line)["exact_mse"]
        for label, value, reference in zip(("1", "x"), values, mse_references):
            where = f"exact_mse phi={label} N({mean!r}, {variance!r})"
            _require(math.isinf(value) == math.isinf(reference), f"{where}: infinite iff closed is")
            close = math.isinf(value) or _close(value, reference)
            _require(close, f"{where}: {value!r} vs {reference!r}")

    return Op(f"pair N({mean:.6g},{variance:.6g})", run, check)


def breakdown_op(mean: float, particles: int, metric: str, seed: int) -> Op:
    argv = [
        "breakdown", "--target-mean", repr(mean), "--particles", str(particles),
        "--replicates", str(BREAKDOWN_REPLICATES), "--metric", metric,
        "--seed", str(seed), "--format", "json",
    ]
    reference = closed_forms(mean, 1.0)[metric]

    def check(text: str) -> None:
        (row,) = json.loads(text)["rows"]
        replicates, failures = row["replicates"], row["failure_count"]
        _require(replicates == BREAKDOWN_REPLICATES, f"replicates {replicates}")
        _require(row["n_particles"] == particles, f"n_particles {row['n_particles']}")
        _require(0 <= failures <= replicates, f"failure_count {failures} of {replicates}")
        _require(
            max(row["mass_violations"], row["estimate_violations"]) <= failures
            <= row["mass_violations"] + row["estimate_violations"],
            "failure_count inconsistent with the violation counts",
        )
        _require(row["failure_frequency"] == failures / replicates, "failure_frequency")
        _require(row["below_threshold"] == (particles < row["threshold"]), "below_threshold")
        _require(abs(row["divergence"] - reference) <= 1e-12 * reference, "divergence vs closed")

    return Op(f"breakdown m={mean:g} N={particles} {metric}", lambda: run_cli(argv), check)


def table_op(command: str, seed: int) -> Op:
    argv = [
        command, "--method", "mc", "--mc-samples", str(MC_SAMPLES),
        "--seed", str(seed), "--format", "json",
    ]
    if command == "table2":
        references = [closed_forms(m, 1.0) for m in TABLE2_MEANS]
    else:
        references = [closed_forms(0.0, s2) for s2 in TABLE3_VARIANCES]

    def check(text: str) -> None:
        _check_threshold_rows(json.loads(text)["rows"], references, "mc")

    return Op(f"{command} mc", lambda: run_cli(argv), check)


def ess_op(mean: float, particles: int, seed: int) -> Op:
    argv = [
        "ess", "--target-mean", repr(mean), "--particles", str(particles),
        "--seed", str(seed), "--format", "json",
    ]

    def check(text: str) -> None:
        (row,) = json.loads(text)["rows"]
        for key in ("ess_kl", "ess_chi2"):
            in_range = 1.0 - 1e-9 <= row[key] <= particles * (1.0 + 1e-9)
            _require(in_range, f"{key} {row[key]!r} outside [1, N]")
        _require(0.0 < row["total_mass"] < math.inf, f"total_mass {row['total_mass']!r}")

    return Op(f"ess m={mean:g} N={particles}", lambda: run_cli(argv), check)


def _random_pairs(rng: np.random.Generator, count: int) -> list[tuple[float, float]]:
    """Stratified draws of m in [0, 4] and log s2 uniform on [log 1e-4, log 25].

    Each marginal gets one draw per stratum, so the mix of pairs (and the
    share with infinite chi-squared) barely changes from seed to seed.
    """
    lo, hi = math.log(1e-4), math.log(25.0)
    mean_strata, var_strata = rng.permutation(count), rng.permutation(count)
    pairs = []
    for i in range(count):
        while True:
            mean = 4.0 * (int(mean_strata[i]) + rng.random()) / count
            variance = math.exp(lo + (hi - lo) * (int(var_strata[i]) + rng.random()) / count)
            if _representable(mean, variance):
                break
        pairs.append((mean, variance))
    return pairs


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def quadrature_oracle(rng: np.random.Generator) -> list[Op]:
    pairs = [(m, 1.0) for m in TABLE2_MEANS] + [(0.0, s2) for s2 in TABLE3_VARIANCES]
    pairs += _random_pairs(rng, QUADRATURE_RANDOM_PAIRS)
    return [pair_op(m, s2) for m, s2 in pairs]


def breakdown_small(rng: np.random.Generator) -> list[Op]:
    cells = list(itertools.product(BREAKDOWN_SMALL_SIZES, METRICS))
    means = rng.choice(TABLE2_MEANS, size=len(cells))
    seeds = _seeds(rng, len(cells))
    return [
        breakdown_op(float(mean), n, metric, seed)
        for (n, metric), mean, seed in zip(cells, means, seeds)
    ]


def large_arrays(rng: np.random.Generator) -> list[Op]:
    seeds = _seeds(rng, 4)
    return [
        table_op("table2", seeds[0]),
        table_op("table3", seeds[1]),
        breakdown_op(3.0, LARGE_BREAKDOWN_SIZE, "kl", seeds[2]),
        ess_op(float(rng.choice(TABLE2_MEANS)), ESS_PARTICLES, seeds[3]),
    ]


WORKLOADS = {
    "quadrature-oracle": quadrature_oracle,
    "breakdown-small": breakdown_small,
    "large-arrays": large_arrays,
}


def build(name: str, seed: int) -> list[Op]:
    """The workload's cycle of operations, shuffled by the seed."""
    rng = np.random.default_rng(seed)
    ops = WORKLOADS[name](rng)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]
