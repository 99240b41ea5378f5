"""Benchmark contract tests, with the ``perfbench`` modules loaded read-only by path.

Every benchmark operation runs once and passes its own output check, so a
change that breaks a benchmark output check fails here, not only in a
benchmark run.  The tracer still sees the spans the per-layer readings are
built from.
"""

import contextlib
import importlib.util
import io
import sys
import threading
from pathlib import Path

import pytest

from isbound import DivergenceKind, cli, gaussian

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
@pytest.mark.parametrize("name", ["quadrature-oracle", "breakdown-small", "large-arrays"])
def test_every_operation_passes_its_check(name):
    workloads = load_perfbench("workloads")
    ops = workloads.build(name, seed=1)
    assert ops
    for op in ops:
        op.check(op.run())


def test_tracer_sees_closed_forms_bounds_and_the_pair_model():
    """The tracer rewrites module globals and module-level dict values only, so
    the CLI must reach the closed forms through its plain ``_CLOSED_FORMS`` dict
    and build its pairs with ``make_gaussian_model``."""
    tracer = load_perfbench("tracing").Tracer()
    argv = ["bounds", "--target-mean", "1", "--method", "mc", "--mc-samples", "100"]
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        tracer.begin_op(0)
        assert cli.main(argv) == 0
        tracer.end_op()
    calls = {name: stats.calls for name, stats in tracer.stats.items()}
    assert calls["gaussian.closed_form"] == 4
    assert calls["bounds.necessary_sample_size"] == 4
    assert calls["gaussian.proposal_sampler"] == 4
    assert cli._CLOSED_FORMS[DivergenceKind.KULLBACK_LEIBLER] is gaussian.gaussian_kl


def test_tracer_sees_every_quadrature_integral():
    """The pair's integrals reach ``adaptive_integral`` through the module
    global the tracer wraps, so each one is a span and its integrand counted.
    Every integral of these commands converges in its first sweep, which also
    covers the window-edge probes: one integrand call per integral."""
    for argv, integrals in (
        (["bounds", "--target-mean", "2", "--method", "quadrature", "--format", "json"], 4),
        (["table3", "--method", "quadrature"], 16),
    ):
        tracer = load_perfbench("tracing").Tracer()
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            tracer.begin_op(0)
            assert cli.main(argv) == 0
            tracer.end_op()
        assert tracer.stats["gaussian.adaptive_integral"].calls == integrals
        assert tracer.counters["gaussian.integrand.evals"] == integrals


def test_tracer_survives_threaded_monte_carlo_cells(cpus, drawing_threads):
    """Monte Carlo cells of 2^15 draws run on worker threads, whose spans
    overlap; the traced run still completes and counts every draw call."""
    cpus(2)
    tracer = load_perfbench("tracing").Tracer()
    argv = ["table2", "--method", "mc", "--mc-samples", "32768"]
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        tracer.begin_op(0)
        assert cli.main(argv) == 0
        tracer.end_op()
    assert drawing_threads and threading.main_thread() not in drawing_threads
    assert tracer._stack == []
    assert tracer.stats["gaussian.proposal_sampler"].calls == 16
