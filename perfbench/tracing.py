"""Span tracing of the isbound modules, installed at run time from outside the package.

A ``Tracer`` replaces the public functions of ``cli``, ``bounds``,
``gaussian``, ``sampling`` and ``divergences`` (every reference the package's
modules hold, including module-level dispatch dicts) with wrappers that
record a span ``(name, start, end, parent, op)`` in memory.  At the end of
each operation the spans are folded into per-name totals: a span's self time
is its duration minus the durations of its child spans, which nest and never
overlap because the benchmark is single-threaded.  Leaving the ``with`` block
restores the original functions.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from isbound import bounds, cli, divergences, gaussian, sampling

CLOSED_FORMS = (
    "gaussian_kl",
    "gaussian_chi_squared",
    "gaussian_total_variation",
    "gaussian_squared_hellinger",
)
SAMPLING_SPANS = (
    "breakdown_trial",
    "sample_particles",
    "exact_mse",
    "normalized_weights",
    "ess_kl",
    "ess_chi2",
)

# Per-layer metrics of the traced run: name, unit, which direction is better.
PER_LAYER = (
    ("gaussian.adaptive_integral.calls", "count", "lower"),
    ("gaussian.adaptive_integral.self_s", "s", "lower"),
    ("gaussian.integrand.evals_per_integral", "count", "lower"),
    ("gaussian.integrand.points_per_eval", "count", "higher"),
    ("gaussian.quadrature_divergence.ms.p50", "ms", "lower"),
    ("sampling.exact_mse.ms.p50", "ms", "lower"),
    ("gaussian.monte_carlo_divergence.ms.p50", "ms", "lower"),
    ("gaussian.mc.samples_per_s", "1/s", "higher"),
    ("gaussian.proposal_sampler.self_s", "s", "lower"),
    ("gaussian.log_ratio.self_s", "s", "lower"),
    ("gaussian.closed_form.calls", "count", "lower"),
    ("sampling.breakdown_trial.calls", "count", "lower"),
    ("sampling.breakdown_trial.us.p50", "us", "lower"),
    ("sampling.breakdown_trial.self_us.p50", "us", "lower"),
    ("sampling.trials_per_s", "1/s", "higher"),
    ("sampling.sample_particles.ms.p50", "ms", "lower"),
    ("divergences.generator_call.calls", "count", "lower"),
    ("divergences.generator_call.points", "count", "lower"),
    ("divergences.generator_call.self_s", "s", "lower"),
    ("cli.main.self_ms.p50", "ms", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("trace.cmds_per_s", "1/s", "higher"),
    ("trace.untraced_cmds_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

# Spans whose per-call durations are kept for medians; the rest keep totals only.
_MEDIAN_SPANS = frozenset(
    {
        "cli.main",
        "gaussian.quadrature_divergence",
        "gaussian.monte_carlo_divergence",
        "sampling.exact_mse",
        "sampling.breakdown_trial",
        "sampling.sample_particles",
    }
)


class SpanStats:
    """Totals of one span name, plus per-call durations for the names in _MEDIAN_SPANS."""

    __slots__ = ("calls", "total", "self_total", "durations", "self_durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations: list[float] = []
        self.self_durations: list[float] = []


class Tracer:
    """Records spans of the isbound modules while installed (``with tracer:``)."""

    def __init__(self):
        self.spans: list = []
        self.stats: defaultdict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.span_count = 0
        self._stack: list[int] = []
        self._op = -1
        self._undo: list = []

    # -- recording -----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self) -> None:
        """Fold the operation's spans into the per-name totals and drop them."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(spans):
            duration = end - start
            own = duration - child_time[index]
            stats = self.stats[name]
            stats.calls += 1
            stats.total += duration
            stats.self_total += own
            if name in _MEDIAN_SPANS:
                stats.durations.append(duration)
                stats.self_durations.append(own)
        self.span_count += len(spans)
        spans.clear()
        self._op = -1

    def _span(self, name, fn, before=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)

        return wrapper

    # -- argument hooks ------------------------------------------------

    def _count_integrand(self, signature):
        counters = self.counters

        def before(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            fn = bound.arguments["fn"]

            def integrand(x):
                counters["gaussian.integrand.evals"] += 1
                counters["gaussian.integrand.points"] += int(np.size(x))
                return fn(x)

            bound.arguments["fn"] = integrand
            return bound.args, bound.kwargs

        return before

    def _count_argument(self, signature, argument, counter):
        counters = self.counters

        def before(args, kwargs):
            counters[counter] += int(signature.bind(*args, **kwargs).arguments[argument])
            return args, kwargs

        return before

    def _count_points(self, args, kwargs):
        self.counters["divergences.generator_call.points"] += int(np.size(args[1]))
        return args, kwargs

    def _model_factory(self, factory):
        """Wrap make_gaussian_model so the model's public callables record spans."""

        @functools.wraps(factory)
        def make(*args, **kwargs):
            model = factory(*args, **kwargs)
            for attribute in ("log_ratio", "proposal_sampler"):
                traced = self._span(f"gaussian.{attribute}", getattr(model, attribute))
                object.__setattr__(model, attribute, traced)
            return model

        return make

    # -- installation --------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Point every reference the isbound modules hold to ``original`` at ``replacement``."""
        for module_name, module in list(sys.modules.items()):
            if module_name != "isbound" and not module_name.startswith("isbound."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, original))
                elif isinstance(value, dict):
                    for dict_key, entry in list(value.items()):
                        if entry is original:
                            value[dict_key] = replacement
                            self._undo.append((value, dict_key, original))

    def __enter__(self) -> "Tracer":
        wrap, signature = self._replace, inspect.signature
        wrap(cli.main, self._span("cli.main", cli.main))
        for name in bounds.__all__:
            fn = getattr(bounds, name)
            if inspect.isfunction(fn):
                wrap(fn, self._span(f"bounds.{name}", fn))
        fn = gaussian.adaptive_integral
        count = self._count_integrand(signature(fn))
        wrap(fn, self._span("gaussian.adaptive_integral", fn, count))
        fn = gaussian.quadrature_divergence
        wrap(fn, self._span("gaussian.quadrature_divergence", fn))
        fn = gaussian.monte_carlo_divergence
        count = self._count_argument(signature(fn), "sample_count", "gaussian.mc.samples")
        wrap(fn, self._span("gaussian.monte_carlo_divergence", fn, count))
        for name in CLOSED_FORMS:
            fn = getattr(gaussian, name)
            wrap(fn, self._span("gaussian.closed_form", fn))
        wrap(gaussian.make_gaussian_model, self._model_factory(gaussian.make_gaussian_model))
        fn = sampling.breakdown_probability
        count = self._count_argument(signature(fn), "replicates", "sampling.replicates")
        wrap(fn, self._span("sampling.breakdown_probability", fn, count))
        for name in SAMPLING_SPANS:
            fn = getattr(sampling, name)
            wrap(fn, self._span(f"sampling.{name}", fn))
        call = divergences.ConvexGenerator.__call__
        divergences.ConvexGenerator.__call__ = self._span(
            "divergences.generator_call", call, self._count_points
        )
        self._undo.append((divergences.ConvexGenerator, "__call__", call))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            container, key, original = self._undo.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    # -- reduction -----------------------------------------------------

    def layer_metrics(self, cycles: int, untraced_s: float, traced_s: float, ops: int):
        """Per-layer metrics per traced cycle, and the sample count behind each."""
        stats, counters = self.stats, self.counters

        def median(name, scale, own=False):
            values = stats[name].self_durations if own else stats[name].durations
            return (statistics.median(values) * scale if values else 0.0), len(values)

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        mc, replicated = "gaussian.monte_carlo_divergence", "sampling.breakdown_probability"
        integrals = stats["gaussian.adaptive_integral"].calls
        evals = counters["gaussian.integrand.evals"]
        bounds_spans = [s for name, s in stats.items() if name.startswith("bounds.")]
        values = {
            "gaussian.adaptive_integral.calls": (integrals / cycles, integrals),
            "gaussian.adaptive_integral.self_s": (
                stats["gaussian.adaptive_integral"].self_total / cycles, integrals
            ),
            "gaussian.integrand.evals_per_integral": (ratio(evals, integrals), integrals),
            "gaussian.integrand.points_per_eval": (
                ratio(counters["gaussian.integrand.points"], evals), evals
            ),
            "gaussian.quadrature_divergence.ms.p50": median("gaussian.quadrature_divergence", 1e3),
            "sampling.exact_mse.ms.p50": median("sampling.exact_mse", 1e3),
            "gaussian.monte_carlo_divergence.ms.p50": median(mc, 1e3),
            "gaussian.mc.samples_per_s": (
                ratio(counters["gaussian.mc.samples"], stats[mc].total), stats[mc].calls
            ),
            "sampling.trials_per_s": (
                ratio(counters["sampling.replicates"], stats[replicated].total),
                stats[replicated].calls,
            ),
            "sampling.breakdown_trial.us.p50": median("sampling.breakdown_trial", 1e6),
            "sampling.breakdown_trial.self_us.p50": median(
                "sampling.breakdown_trial", 1e6, own=True
            ),
            "sampling.sample_particles.ms.p50": median("sampling.sample_particles", 1e3),
            "divergences.generator_call.points": (
                counters["divergences.generator_call.points"] / cycles,
                stats["divergences.generator_call"].calls,
            ),
            "cli.main.self_ms.p50": median("cli.main", 1e3, own=True),
            "bounds.self_s": (
                sum(s.self_total for s in bounds_spans) / cycles, sum(s.calls for s in bounds_spans)
            ),
            "trace.cmds_per_s": (ops / traced_s, ops),
            "trace.untraced_cmds_per_s": (ops / untraced_s, ops),
            "trace.overhead": (traced_s / untraced_s - 1.0, ops),
            "trace.spans": (self.span_count / cycles, self.span_count),
        }
        for name in ("gaussian.closed_form", "sampling.breakdown_trial",
                     "divergences.generator_call"):
            values[f"{name}.calls"] = (stats[name].calls / cycles, stats[name].calls)
        for name in ("gaussian.proposal_sampler", "gaussian.log_ratio",
                     "divergences.generator_call"):
            values[f"{name}.self_s"] = (stats[name].self_total / cycles, stats[name].calls)
        return {
            name: ({"value": values[name][0], "unit": unit}, values[name][1])
            for name, unit, _ in PER_LAYER
        }
