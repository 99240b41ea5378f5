"""Command-line harness: divergence tables, bound tables, breakdown and ESS runs.

Every command emits CSV (default) or JSON.  Infinite values render as
``---`` in CSV and ``null`` in JSON.  Output is a deterministic function of
the configuration and seed, so files are byte-identical across runs.
Thresholds are printed rounded to two decimals next to a full-precision
companion column.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

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
    QuadratureError,
    gaussian_chi_squared,
    gaussian_kl,
    gaussian_squared_hellinger,
    gaussian_total_variation,
    make_gaussian_model,
    monte_carlo_divergence,
    quadrature_divergence,
)
from .sampling import (
    breakdown_probability,
    ess_chi2,
    ess_kl,
    normalized_weights,
    sample_particles,
)

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

_CLOSED_FORMS = {
    DivergenceKind.KULLBACK_LEIBLER: gaussian_kl,
    DivergenceKind.CHI_SQUARED: gaussian_chi_squared,
    DivergenceKind.TOTAL_VARIATION: gaussian_total_variation,
    DivergenceKind.SQUARED_HELLINGER: gaussian_squared_hellinger,
}

_METRIC_RANGE_CAP = {
    DivergenceKind.TOTAL_VARIATION: 1.0,
    DivergenceKind.SQUARED_HELLINGER: 2.0,
}

THRESHOLD_CSV_HEADER = (
    "row_label,metric,divergence,divergence_method,divergence_stderr,"
    "threshold,threshold_full,necessary_n_integer,epsilon,delta,seed"
)


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """A computation cannot produce a meaningful result (CLI exit code 1)."""


def _full(x: float) -> str:
    return repr(float(x))


def _cell_seed(seed: int, row: int, column: int) -> int:
    state = np.random.SeedSequence(entropy=int(seed), spawn_key=(row, column))
    return int(state.generate_state(1, dtype=np.uint64)[0])


def _compute_divergence(
    target: Gaussian1D,
    proposal: Gaussian1D,
    kind: DivergenceKind,
    method: str,
    mc_samples: int,
    seed: int,
) -> DivergenceValue:
    if method == "closed":
        return _CLOSED_FORMS[kind](target, proposal)
    if method == "quadrature":
        model = make_gaussian_model(target, proposal)
        return quadrature_divergence(model, BUILTIN_GENERATORS[kind])
    if method == "mc":
        # a provably infinite divergence is not estimated, it is reported
        exact = _CLOSED_FORMS[kind](target, proposal)
        if math.isinf(exact.value):
            return exact
        model = make_gaussian_model(target, proposal)
        return monte_carlo_divergence(model, BUILTIN_GENERATORS[kind], mc_samples, seed)
    raise ConfigError(f"unknown divergence method {method!r}")


def _threshold_input(d: DivergenceValue, kind: DivergenceKind) -> float:
    """Clamp a noisy estimate into the metric's range before inverting.

    Monte Carlo estimates can stray slightly outside [0, cap] for bounded
    metrics; the raw estimate is still reported in the divergence column.
    """
    value = d.value
    if d.method == "monte_carlo":
        value = max(value, 0.0)
        cap = _METRIC_RANGE_CAP.get(kind)
        if cap is not None:
            value = min(value, cap)
    return value


@dataclass(frozen=True)
class ThresholdRecord:
    """One (row, metric) cell of a necessary-sample-size table."""

    row_label: str
    metric: DivergenceKind
    divergence: DivergenceValue
    report: SampleSizeReport
    seed: int

    def csv_fields(self) -> list[str]:
        budget = self.report.budget
        infinite = math.isinf(self.report.threshold)
        return [
            self.row_label,
            self.metric.value,
            "---" if math.isinf(self.divergence.value) else _full(self.divergence.value),
            self.divergence.method,
            "" if self.divergence.std_error is None else _full(self.divergence.std_error),
            "---" if infinite else f"{self.report.threshold:.2f}",
            "---" if infinite else _full(self.report.threshold),
            "---" if infinite else str(self.report.necessary_size),
            _full(budget.epsilon),
            _full(budget.delta),
            str(self.seed),
        ]

    def json_object(self) -> dict:
        budget = self.report.budget
        infinite = math.isinf(self.report.threshold)
        return {
            "row_label": self.row_label,
            "metric": self.metric.value,
            "divergence": None if math.isinf(self.divergence.value) else self.divergence.value,
            "divergence_method": self.divergence.method,
            "divergence_stderr": self.divergence.std_error,
            "threshold": None if infinite else round(self.report.threshold, 2),
            "threshold_full": None if infinite else self.report.threshold,
            "necessary_n_integer": None if infinite else self.report.necessary_size,
            "epsilon": budget.epsilon,
            "delta": budget.delta,
            "seed": self.seed,
        }


def _pair_records(
    row_label: str,
    row_index: int,
    target: Gaussian1D,
    proposal: Gaussian1D,
    budget: ToleranceBudget,
    metrics,
    method: str,
    mc_samples: int,
    seed: int,
) -> list[ThresholdRecord]:
    records = []
    for column, kind in enumerate(metrics):
        cell_seed = _cell_seed(seed, row_index, column) if method == "mc" else seed
        d = _compute_divergence(target, proposal, kind, method, mc_samples, cell_seed)
        report = necessary_sample_size(
            DivergenceValue(_threshold_input(d, kind), d.method, d.std_error, d.sample_count),
            kind,
            budget,
        )
        records.append(ThresholdRecord(row_label, kind, d, report, cell_seed))
    return records


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
    budget = ToleranceBudget(epsilon, delta)
    proposal = Gaussian1D(0.0, 1.0)
    metrics = _resolve_metrics(metric)
    records = []
    for row, m in enumerate(TABLE2_MEANS):
        records.extend(
            _pair_records(
                f"m={m:g}", row, Gaussian1D(m, 1.0), proposal,
                budget, metrics, method, mc_samples, seed,
            )
        )
    return records


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
    budget = ToleranceBudget(epsilon, delta)
    proposal = Gaussian1D(0.0, 1.0)
    metrics = _resolve_metrics(metric)
    records = []
    for row, s2 in enumerate(TABLE3_VARIANCES):
        records.extend(
            _pair_records(
                f"sigma2={s2:g}", row, Gaussian1D(0.0, s2), proposal,
                budget, metrics, method, mc_samples, seed,
            )
        )
    return records


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
    budget = ToleranceBudget(epsilon, delta)
    # semicolons keep the label CSV-safe
    label = (
        f"N({target.mean:g};{target.variance:g})"
        f"|N({proposal.mean:g};{proposal.variance:g})"
    )
    return _pair_records(
        label, 0, target, proposal, budget, _resolve_metrics(metric),
        method, mc_samples, seed,
    )


TABLE1_CSV_HEADER = "row_label,metric,bound_generic,bound_symbolic,abs_deviation,epsilon"


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
                rows.append(
                    {
                        "row_label": f"N={int(n)},eps={eps:g}",
                        "metric": kind.value,
                        "bound_generic": generic,
                        "bound_symbolic": symbolic,
                        "abs_deviation": abs(generic - symbolic),
                        "epsilon": eps,
                    }
                )
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
    model = make_gaussian_model(target, proposal)
    outcome = breakdown_probability(
        model, BUILTIN_GENERATORS[kind], exact.value, n_particles, budget, replicates, seed
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
    model = make_gaussian_model(target, proposal)
    measure = sample_particles(model, n_particles, seed)
    w_hat = normalized_weights(measure)
    return {
        "n_particles": n_particles,
        "ess_kl": ess_kl(w_hat),
        "ess_chi2": ess_chi2(w_hat),
        "total_mass": measure.total_mass(),
        "seed": seed,
    }


def render_csv(command: str, payload) -> str:
    if command in ("table2", "table3", "bounds"):
        lines = [THRESHOLD_CSV_HEADER]
        lines.extend(",".join(record.csv_fields()) for record in payload)
    elif command == "table1":
        lines = [TABLE1_CSV_HEADER]
        for row in payload:
            lines.append(
                ",".join(
                    [
                        row["row_label"],
                        row["metric"],
                        _full(row["bound_generic"]),
                        _full(row["bound_symbolic"]),
                        _full(row["abs_deviation"]),
                        _full(row["epsilon"]),
                    ]
                )
            )
    else:  # breakdown / ess: single-record key,value table
        lines = [",".join(str(k) for k in payload)]
        lines.append(
            ",".join(
                "---" if isinstance(v, float) and math.isinf(v) else str(v)
                for v in payload.values()
            )
        )
    return "\n".join(lines) + "\n"


def _json_safe(value):
    if isinstance(value, float) and math.isinf(value):
        return None
    return value


def render_json(command: str, payload, config: dict) -> str:
    if command in ("table2", "table3", "bounds"):
        rows = [record.json_object() for record in payload]
    elif command == "table1":
        rows = payload
    else:
        rows = [{k: _json_safe(v) for k, v in payload.items()}]
    return json.dumps({"config": config, "rows": rows}, indent=2) + "\n"


def _add_common(parser: argparse.ArgumentParser, pair: bool = True) -> None:
    if pair:
        parser.add_argument("--target-mean", type=float, default=0.0)
        parser.add_argument("--target-var", type=float, default=1.0)
        parser.add_argument("--proposal-mean", type=float, default=0.0)
        parser.add_argument("--proposal-var", type=float, default=1.0)
    parser.add_argument("--eps", type=float, default=0.1, help="mass inflation tolerance")
    parser.add_argument("--delta", type=float, default=0.1, help="estimation tolerance")
    parser.add_argument(
        "--metric",
        choices=["kl", "chi2", "tv", "hellinger", "all"],
        default="all",
    )
    parser.add_argument("--method", choices=["closed", "quadrature", "mc"], default="closed")
    parser.add_argument("--mc-samples", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=None, help=f"default: ${SEED_ENV_VAR} or 0")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", default=None, help="write output to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isbound",
        description="f-divergences and necessary sample sizes for importance sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="generic vs symbolic divergence bounds")
    p1.add_argument("--n-list", default="1,2,4,10,100,1000", help="comma-separated sizes")
    p1.add_argument("--eps-list", default="0,0.1,1", help="comma-separated mass excesses")
    _add_common(p1, pair=False)

    for name, help_text in (
        ("table2", "mean-shift necessary-sample-size table"),
        ("table3", "variance necessary-sample-size table"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, pair=False)

    pb = sub.add_parser("bounds", help="necessary sample sizes for one Gaussian pair")
    _add_common(pb)

    pk = sub.add_parser("breakdown", help="replicated breakdown experiment")
    _add_common(pk)
    pk.add_argument("--particles", type=int, default=100)
    pk.add_argument("--replicates", type=int, default=100)

    pe = sub.add_parser("ess", help="effective sample size diagnostics")
    _add_common(pe)
    pe.add_argument("--particles", type=int, default=100)

    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _validate(args) -> None:
    for name in ("target_var", "proposal_var"):
        if hasattr(args, name) and getattr(args, name) <= 0:
            raise ConfigError(f"--{name.replace('_', '-')} must be positive")
    for name in ("eps", "delta"):
        if hasattr(args, name) and getattr(args, name) <= 0:
            raise ConfigError(f"--{name} must be positive")
    for name in ("mc_samples", "particles", "replicates"):
        if hasattr(args, name) and getattr(args, name) is not None and getattr(args, name) < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be at least 1")
    # a Monte Carlo standard error needs at least two samples
    if args.method == "mc" and args.mc_samples < 2:
        raise ConfigError("--mc-samples must be at least 2 with --method mc")


def _parse_list(raw: str, caster):
    try:
        return [caster(token) for token in raw.split(",") if token.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad list {raw!r}: {exc}") from None


def _dispatch(args, seed: int):
    if args.command == "table1":
        return run_table1(_parse_list(args.n_list, int), _parse_list(args.eps_list, float))
    if args.command == "table2":
        return run_table2(args.eps, args.delta, args.method, seed, args.mc_samples, args.metric)
    if args.command == "table3":
        return run_table3(args.eps, args.delta, args.method, seed, args.mc_samples, args.metric)

    target = Gaussian1D(args.target_mean, args.target_var)
    proposal = Gaussian1D(args.proposal_mean, args.proposal_var)
    if args.command == "bounds":
        return run_bounds(
            target, proposal, args.eps, args.delta, args.method,
            seed, args.mc_samples, args.metric,
        )
    if args.command == "breakdown":
        return run_breakdown(
            target, proposal, args.metric, args.particles, args.replicates,
            args.eps, args.delta, seed,
        )
    if args.command == "ess":
        return run_ess(target, proposal, args.particles, seed)
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        seed = _resolve_seed(args)
        payload = _dispatch(args, seed)
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
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
