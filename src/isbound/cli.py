"""Command-line harness: divergence tables, bound tables, breakdown and ESS runs.

Every command produces one ordered field dict per output row, rendered as
CSV (default) or JSON.  Infinite values render as ``---`` in CSV and
``null`` in JSON; a missing value (the standard error of an exact
divergence) is an empty CSV cell and ``null``.  Output is a deterministic
function of the configuration and seed, so files are byte-identical across
runs.  Thresholds are printed rounded to two decimals next to a
full-precision companion column.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import (
    SampleSizeReport,
    ToleranceBudget,
    divergence_bound,
    necessary_sample_size,
    symbolic_divergence_bound,
)
from .divergences import BUILTIN_GENERATORS, DivergenceKind, DivergenceValue
from .gaussian import (
    Gaussian1D,
    GaussianPair,
    QuadratureError,
    _parallel_map,
    gaussian_chi_squared,
    gaussian_kl,
    gaussian_squared_hellinger,
    gaussian_total_variation,
    make_gaussian_model,
    monte_carlo_divergence,
    quadrature_divergence,
)
from .sampling import _normalized, breakdown_probability, ess_chi2, ess_kl, sample_particles

__all__ = [
    "ConfigError",
    "NumericalError",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_bounds",
    "run_breakdown",
    "run_ess",
    "render_csv",
    "render_json",
    "main",
    "app",
]

SEED_ENV_VAR = "ISBOUND_SEED"

TABLE2_MEANS = (2.0, 2.5, 3.0, 3.5)
TABLE3_VARIANCES = (1e-9, 1e-4, 16.0, 25.0)
_STD_NORMAL = Gaussian1D(0.0, 1.0)  # the proposal of both paper tables

_CLOSED_FORMS = {
    DivergenceKind.KULLBACK_LEIBLER: gaussian_kl,
    DivergenceKind.CHI_SQUARED: gaussian_chi_squared,
    DivergenceKind.TOTAL_VARIATION: gaussian_total_variation,
    DivergenceKind.SQUARED_HELLINGER: gaussian_squared_hellinger,
}

THRESHOLD_FIELDS = (
    "row_label", "metric", "divergence", "divergence_method", "divergence_stderr",
    "threshold", "threshold_full", "necessary_n_integer", "epsilon", "delta", "seed",
)
TABLE1_FIELDS = ("row_label", "metric", "bound_generic", "bound_symbolic", "abs_deviation",
                 "epsilon")


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """A computation cannot produce a meaningful result (CLI exit code 1)."""


class _TwoDecimals(float):
    """A float shown rounded to two decimals: ``2.70`` in CSV, ``2.7`` in JSON."""


def _cell_seed(seed: int, row: int, column: int) -> int:
    state = np.random.SeedSequence(entropy=int(seed), spawn_key=(row, column))
    return int(state.generate_state(1, dtype=np.uint64)[0])


def _compute_divergence(
    pair: GaussianPair,
    kind: DivergenceKind,
    method: str,
    mc_samples: int,
    seed: int,
) -> DivergenceValue:
    if method == "closed":
        return _CLOSED_FORMS[kind](pair.target, pair.proposal)
    if method == "quadrature":
        return quadrature_divergence(pair, BUILTIN_GENERATORS[kind])
    if method == "mc":
        # a provably infinite divergence is not estimated, it is reported
        exact = _CLOSED_FORMS[kind](pair.target, pair.proposal)
        if math.isinf(exact.value):
            return exact
        return monte_carlo_divergence(pair, BUILTIN_GENERATORS[kind], mc_samples, seed)
    raise ConfigError(f"unknown divergence method {method!r}")


@dataclass(frozen=True)
class ThresholdRecord:
    """One (row, metric) cell of a necessary-sample-size table.

    ``divergence`` is the raw value; the report holds it clamped into the
    metric's range when it is a Monte Carlo estimate.
    """

    row_label: str
    metric: DivergenceKind
    divergence: DivergenceValue
    report: SampleSizeReport
    seed: int

    def fields(self) -> dict:
        """The record's output row, keyed by ``THRESHOLD_FIELDS``."""
        threshold = self.report.threshold
        return dict(zip(THRESHOLD_FIELDS, (
            self.row_label,
            self.metric.value,
            self.divergence.value,
            self.divergence.method,
            self.divergence.std_error,
            _TwoDecimals(threshold),
            threshold,
            self.report.necessary_size,  # +inf exactly when the threshold is
            self.report.budget.epsilon,
            self.report.budget.delta,
            self.seed,
        )))


def _run_pairs(
    pairs, epsilon: float, delta: float, method: str, seed: int, mc_samples: int, metric: str
) -> list[ThresholdRecord]:
    """Threshold records for each (label, target, proposal), one per metric.

    Row ``i`` column ``j`` of a Monte Carlo run draws from its own seed, so
    its cells may run on separate threads and still give the same records.
    """
    budget = ToleranceBudget(epsilon, delta)
    metrics = list(enumerate(_resolve_metrics(metric)))
    rows = [(row, label, make_gaussian_model(target, proposal))
            for row, (label, target, proposal) in enumerate(pairs)]

    def record(cell) -> ThresholdRecord:
        (row, label, pair), (column, kind) = cell
        cell_seed = _cell_seed(seed, row, column) if method == "mc" else seed
        d = _compute_divergence(pair, kind, method, mc_samples, cell_seed)
        report = necessary_sample_size(d, kind, budget)
        return ThresholdRecord(label, kind, d, report, cell_seed)

    cells = itertools.product(rows, metrics)
    return _parallel_map(record, cells, mc_samples if method == "mc" else 0)


def _resolve_metrics(metric: str) -> list[DivergenceKind]:
    if metric == "all":
        return list(_CLOSED_FORMS)
    try:
        kind = DivergenceKind(metric)
    except ValueError:
        raise ConfigError(f"unknown metric {metric!r}") from None
    if kind not in _CLOSED_FORMS:
        raise ConfigError(f"metric {metric!r} has no Gaussian closed form")
    return [kind]


def run_table2(
    epsilon: float = 0.1,
    delta: float = 0.1,
    method: str = "closed",
    seed: int = 0,
    mc_samples: int = 10**6,
    metric: str = "all",
) -> list[ThresholdRecord]:
    """Mean-shift table: target N(m, 1) against proposal N(0, 1)."""
    pairs = [(f"m={m:g}", Gaussian1D(m, 1.0), _STD_NORMAL) for m in TABLE2_MEANS]
    return _run_pairs(pairs, epsilon, delta, method, seed, mc_samples, metric)


def run_table3(
    epsilon: float = 0.1,
    delta: float = 0.1,
    method: str = "closed",
    seed: int = 0,
    mc_samples: int = 10**6,
    metric: str = "all",
) -> list[ThresholdRecord]:
    """Variance table: target N(0, s2) against proposal N(0, 1).

    The chi-squared rows with s2 >= 2 have an infinite divergence and render
    as ``---`` / null whatever the estimation method.
    """
    pairs = [(f"sigma2={s2:g}", Gaussian1D(0.0, s2), _STD_NORMAL) for s2 in TABLE3_VARIANCES]
    return _run_pairs(pairs, epsilon, delta, method, seed, mc_samples, metric)


def run_bounds(
    target: Gaussian1D,
    proposal: Gaussian1D,
    epsilon: float = 0.1,
    delta: float = 0.1,
    method: str = "closed",
    seed: int = 0,
    mc_samples: int = 10**6,
    metric: str = "all",
) -> list[ThresholdRecord]:
    """Necessary-sample-size report for one configured Gaussian pair."""
    # semicolons keep the label CSV-safe
    label = (
        f"N({target.mean:g};{target.variance:g})"
        f"|N({proposal.mean:g};{proposal.variance:g})"
    )
    pairs = [(label, target, proposal)]
    return _run_pairs(pairs, epsilon, delta, method, seed, mc_samples, metric)


def run_table1(n_values, epsilon_values) -> list[dict]:
    """Tabulate the generic divergence bound against its symbolic closed forms."""
    rows = []
    for n in n_values:
        if n < 1:
            raise ConfigError(f"table1 sizes must be >= 1, got {n}")
        for eps in epsilon_values:
            if eps < 0:
                raise ConfigError(f"table1 epsilons must be >= 0, got {eps}")
            for kind, generator in BUILTIN_GENERATORS.items():
                generic = divergence_bound(int(n), generator, eps)
                symbolic = symbolic_divergence_bound(kind, int(n), eps)
                rows.append(dict(zip(TABLE1_FIELDS, (
                    f"N={int(n)};eps={eps:g}", kind.value, generic, symbolic,
                    abs(generic - symbolic), eps,
                ))))
    return rows


def run_breakdown(
    target: Gaussian1D,
    proposal: Gaussian1D,
    metric: str,
    n_particles: int,
    replicates: int,
    epsilon: float = 0.1,
    delta: float = 0.1,
    seed: int = 0,
) -> dict:
    """Replicated breakdown experiment against the exact divergence oracle."""
    if metric == "all":
        raise ConfigError("breakdown runs need a single metric")
    kind = _resolve_metrics(metric)[0]
    budget = ToleranceBudget(epsilon, delta)
    exact = _CLOSED_FORMS[kind](target, proposal)
    if math.isinf(exact.value):
        raise NumericalError(
            f"the {kind.value} divergence of this pair is infinite; "
            "no finite sample size satisfies the bound and the experiment is undefined"
        )
    report = necessary_sample_size(exact, kind, budget)
    pair = make_gaussian_model(target, proposal)
    outcome = breakdown_probability(
        pair, BUILTIN_GENERATORS[kind], exact.value, n_particles, budget, replicates, seed
    )
    return {
        "metric": kind.value,
        "divergence": exact.value,
        "n_particles": n_particles,
        "replicates": replicates,
        "failure_count": outcome.failure_count,
        "failure_frequency": outcome.failure_frequency,
        "mass_violations": outcome.mass_violations,
        "estimate_violations": outcome.estimate_violations,
        "threshold": report.threshold,
        "necessary_n_integer": report.necessary_size,
        "below_threshold": n_particles < report.threshold,
        "epsilon": epsilon,
        "delta": delta,
        "seed": seed,
    }


def run_ess(
    target: Gaussian1D,
    proposal: Gaussian1D,
    n_particles: int,
    seed: int = 0,
) -> dict:
    """Sample one particle set and report both effective-sample-size diagnostics."""
    pair = make_gaussian_model(target, proposal)
    # the particles are freed with the measure, before the weights are normalized
    weights = sample_particles(pair, n_particles, seed).weights
    total_mass, w_hat = float(weights.sum()), _normalized(weights)
    del weights  # freed before the ESS sums run
    return {
        "n_particles": n_particles,
        "ess_kl": ess_kl(w_hat),
        "ess_chi2": ess_chi2(w_hat),
        "total_mass": total_mass,
        "seed": seed,
    }


def _rows(payload) -> list[dict]:
    """A command's result as its ordered field dicts, one per output row."""
    if isinstance(payload, dict):  # breakdown / ess: a single record
        return [payload]
    return [row.fields() if isinstance(row, ThresholdRecord) else row for row in payload]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "---"
        return f"{value:.2f}" if isinstance(value, _TwoDecimals) else repr(float(value))
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        if math.isinf(value):
            return None
        if isinstance(value, _TwoDecimals):
            return round(value, 2)
    return value


def render_csv(command: str, payload) -> str:
    rows = _rows(payload)
    header = _COMMANDS[command].header or list(rows[0])
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(value) for value in row.values()) for row in rows)
    return "\n".join(lines) + "\n"


def render_json(command: str, payload, config: dict) -> str:
    rows = [{key: _json_value(value) for key, value in row.items()} for row in _rows(payload)]
    return json.dumps({"config": config, "rows": rows}, indent=2) + "\n"


def _resolve_seed(args) -> int:
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        raw, source = os.environ.get(SEED_ENV_VAR, "0"), SEED_ENV_VAR
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ConfigError(f"{source} must be non-negative, got {seed}")
    return seed


def _validate(args) -> None:
    """Check each numeric flag of the command against the range it is declared with.

    Every float must be finite before any value is checked against its range.
    """
    checked = [(flag, getattr(args, flag[2:].replace("-", "_")), options["check"])
               for flag, options in _COMMANDS[args.command].flags if "check" in options]
    for flag, value, _ in checked:
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite")
    for flag, value, (holds, requirement) in checked:
        if not holds(value):
            raise ConfigError(f"{flag} must be {requirement}")
    # a Monte Carlo standard error needs at least two samples
    if getattr(args, "method", None) == "mc" and args.mc_samples < 2:
        raise ConfigError("--mc-samples must be at least 2 with --method mc")


def _check_out(path: str) -> None:
    """Raise ConfigError if ``--out`` cannot be written; creates and truncates nothing.

    The path must not be a directory, and its parent must be a writable
    directory; the message names the error that opening the path would raise.
    """
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(parent, os.W_OK) or (
        os.path.exists(path) and not os.access(path, os.W_OK)
    ):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write --out {path}: {os.strerror(code)}")


def _parse_list(raw: str, caster):
    try:
        values = [caster(token) for token in raw.split(",") if token.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad list {raw!r}: {exc}") from None
    if not all(math.isfinite(value) for value in values):
        raise ConfigError(f"bad list {raw!r}: values must be finite")
    return values


def _pair(args) -> tuple[Gaussian1D, Gaussian1D]:
    return (Gaussian1D(args.target_mean, args.target_var),
            Gaussian1D(args.proposal_mean, args.proposal_var))


def _options(args, seed: int) -> tuple:
    return (args.eps, args.delta, args.method, seed, args.mc_samples, args.metric)


# the range of a numeric flag, as (test, requirement); a flag declared with one
# under "check" is tested by ``_validate``, which also requires floats to be finite
_FINITE = (lambda value: True, "finite")
_POSITIVE = (lambda value: value > 0, "positive")
_COUNT = (lambda value: value >= 1, "at least 1")

# flag groups, as (flag, add_argument options plus an optional "check"); --seed
# is range-checked by ``_resolve_seed``, together with its environment variable
_PAIR = tuple((flag, dict(type=float, default=default, check=check)) for flag, default, check in (
    ("--target-mean", 0.0, _FINITE), ("--target-var", 1.0, _POSITIVE),
    ("--proposal-mean", 0.0, _FINITE), ("--proposal-var", 1.0, _POSITIVE),
))
_BUDGET = (
    ("--eps", dict(type=float, default=0.1, check=_POSITIVE, help="mass inflation tolerance")),
    ("--delta", dict(type=float, default=0.1, check=_POSITIVE, help="estimation tolerance")),
    ("--metric", dict(choices=[*(kind.value for kind in _CLOSED_FORMS), "all"], default="all")),
)
_METHOD = (
    ("--method", dict(choices=["closed", "quadrature", "mc"], default="closed")),
    ("--mc-samples", dict(type=int, default=10**6, check=_COUNT)),
)
_OUTPUT = (
    ("--seed", dict(type=int, default=None, help=f"default: ${SEED_ENV_VAR} or 0")),
    ("--format", dict(choices=["csv", "json"], default="csv")),
    ("--out", dict(default=None, help="write output to PATH instead of stdout")),
)
_PARTICLES = ("--particles", dict(type=int, default=100, check=_COUNT))


@dataclass(frozen=True)
class _Command:
    """One subcommand: its help, the flags it reads in ``--help`` order, its runner."""

    help: str
    flags: tuple
    run: Callable[[argparse.Namespace, int], object]
    header: tuple | None = None  # a table command prints its header even without rows


# a command takes only the flags it reads, so the JSON config records exactly those
_COMMANDS = dict(
    table1=_Command(
        "generic vs symbolic divergence bounds",
        (("--n-list", dict(default="1,2,4,10,100,1000", help="comma-separated sizes")),
         ("--eps-list", dict(default="0,0.1,1", help="comma-separated mass excesses")),
         *_OUTPUT),
        lambda args, seed: run_table1(_parse_list(args.n_list, int),
                                      _parse_list(args.eps_list, float)),
        TABLE1_FIELDS,
    ),
    table2=_Command("mean-shift necessary-sample-size table", (*_BUDGET, *_METHOD, *_OUTPUT),
                    lambda args, seed: run_table2(*_options(args, seed)), THRESHOLD_FIELDS),
    table3=_Command("variance necessary-sample-size table", (*_BUDGET, *_METHOD, *_OUTPUT),
                    lambda args, seed: run_table3(*_options(args, seed)), THRESHOLD_FIELDS),
    bounds=_Command(
        "necessary sample sizes for one Gaussian pair", (*_PAIR, *_BUDGET, *_METHOD, *_OUTPUT),
        lambda args, seed: run_bounds(*_pair(args), *_options(args, seed)), THRESHOLD_FIELDS,
    ),
    breakdown=_Command(
        "replicated breakdown experiment",
        (*_PAIR, *_BUDGET, *_OUTPUT, _PARTICLES,
         ("--replicates", dict(type=int, default=100, check=_COUNT))),
        lambda args, seed: run_breakdown(*_pair(args), args.metric, args.particles,
                                         args.replicates, args.eps, args.delta, seed),
    ),
    ess=_Command("effective sample size diagnostics", (*_PAIR, *_OUTPUT, _PARTICLES),
                 lambda args, seed: run_ess(*_pair(args), args.particles, seed)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``isbound`` argument parser, built on first use and shared by every call.

    Parsing leaves the parser unchanged, so one instance serves all ``main``
    calls of a process; callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="isbound",
        description="f-divergences and necessary sample sizes for importance sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        # no prefix matching: table1 would read a stray --eps as --eps-list
        command_parser = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for flag, options in command.flags:
            command_parser.add_argument(
                flag, **{key: value for key, value in options.items() if key != "check"}
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        seed = _resolve_seed(args)
        if args.out:
            _check_out(args.out)
        payload = _COMMANDS[args.command].run(args, seed)
    except ConfigError as exc:
        print(f"isbound: config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, QuadratureError, ValueError, OverflowError) as exc:
        print(f"isbound: numerical failure: {exc}", file=sys.stderr)
        return 1

    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("out", "format")}
    config["seed"] = seed
    if args.format == "json":
        text = render_json(args.command, payload, config)
    else:
        text = render_csv(args.command, payload)

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"isbound: config error: cannot write --out {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
