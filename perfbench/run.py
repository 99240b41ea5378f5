#!/usr/bin/env python3
"""Benchmark of the isbound package: time to a checked result, end to end and per layer.

Usage, from the root of a source checkout (numpy is the only dependency):

    python3 perfbench/run.py --workload breakdown-small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                      # every workload, untraced and traced

With ``--workload`` the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``.  The line
before it is the full report: provenance, sample counts, tail percentile,
error rate and the digest of every operation's output.  Without
``--workload`` the command runs all workloads, prints a table to stderr and
the reports as one JSON document to stdout.

Each workload runs in its own single-threaded worker process as a closed
loop with one client.  The orchestrating process imports only the standard
library; set-up time is measured in fresh processes.  See README.md in this
directory for the workloads and how to read the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "isbound"
WORKLOADS = ("quadrature-oracle", "breakdown-small", "large-arrays")
RUN_SECONDS = 30
SETUP_PROBES = 10  # extra fresh processes; with the worker's own set-up, 11 samples
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it
DEADLINE_S = 170  # a run ends within 180 s
THREAD_POOL_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"
)
END_TO_END = (
    ("cmd_s.p50", "s"),
    ("cmd_s.tail", "s"),
    ("cmds_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


# -- worker process ------------------------------------------------------------


def _load(workload: str, seed: int):
    """Import isbound from this checkout and build the workload; returns (ops, seconds taken)."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import isbound
    import workloads

    if Path(isbound.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"isbound was imported from {isbound.__file__}, not from {PACKAGE}")
    ops = workloads.build(workload, seed)
    return ops, time.perf_counter() - start


class Runner:
    """Executes operations, checks the first output of each and digests every output."""

    def __init__(self, ops):
        import workloads

        self.ops = ops
        self.check_error = workloads.CheckError
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, index: int, tracer=None) -> float | None:
        """Run one operation; its wall time, or None if it failed."""
        op = self.ops[index]
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op(index)
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # a failed operation is counted and the loop goes on
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
        digest = hashlib.sha256(output.encode()).hexdigest()
        if index not in self.digests:
            try:
                op.check(output)
            except (self.check_error, AttributeError, KeyError, TypeError, ValueError) as exc:
                self.failures.append(f"{op.label}: check failed: {exc!r}")
                return None
            self.digests[index] = digest
        elif digest != self.digests[index]:
            self.failures.append(f"{op.label}: output differs from its first run")
            return None
        return elapsed

    def cycle(self, tracer=None) -> float:
        """Run every operation once in order; the summed wall time of those that succeeded."""
        times = (self.execute(index, tracer) for index in range(len(self.ops)))
        return sum(t for t in times if t is not None)

    def report(self) -> dict:
        joined = "".join(self.digests.get(index, "-") for index in range(len(self.ops)))
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "cycle_ops": len(self.ops),
            "cycle_digest": hashlib.sha256(joined.encode()).hexdigest(),
            "digests": {f"{i:03d} {self.ops[i].label}": d for i, d in sorted(self.digests.items())},
        }


def _tail(durations: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it, its value and that count.

    With too few samples for that, the maximum (no sample beyond it).
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1], 0
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1], TAIL_BEYOND


def measure_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Repeat the cycle for ``seconds``; end-to-end metrics of the timed window.

    ``cmd_s.p50`` is the median over the cycle's operations of each one's mean
    wall time in the window.  Every operation repeats across the whole window,
    so a machine that runs slow for part of it shifts every mean alike; the
    median of single executions would instead jump between the fast and the
    slow mode, depending on which covered more of the window.
    """
    runner.cycle()  # warm-up: checks every output and records the reference digests
    durations = []
    per_op = defaultdict(list)
    index = 0
    start = now = time.perf_counter()
    while now - start < seconds:
        elapsed = runner.execute(index % len(runner.ops))
        if elapsed is not None:
            durations.append(elapsed)
            per_op[index % len(runner.ops)].append(elapsed)
        index += 1
        now = time.perf_counter()
    if not durations:
        raise SystemExit("no operation succeeded in the timed window")
    window = now - start
    percentile, tail, beyond = _tail(durations)
    metrics = {
        "cmd_s.p50": statistics.median(statistics.fmean(times) for times in per_op.values()),
        "cmd_s.tail": tail,
        "cmds_per_s": len(durations) / window,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "timed_ops": len(durations),
        "distinct_ops_timed": len(per_op),
        "execution_p50_s": statistics.median(durations),
        "window_s": window,
        "tail_percentile": percentile,
        "tail_beyond": beyond,
    }
    return metrics, detail


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced cycles until ``seconds`` pass; per-layer metrics per cycle."""
    import tracing

    runner.cycle()  # warm-up, as in the untraced run
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    cycles = 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds:
        untraced += runner.cycle()
        with tracer:
            traced += runner.cycle(tracer)
        cycles += 1
    layers = tracer.layer_metrics(cycles, untraced, traced, cycles * len(runner.ops))
    metrics = {name: value for name, (value, _) in layers.items()}
    detail = {"traced_cycles": cycles, "samples": {name: n for name, (_, n) in layers.items()}}
    return metrics, detail


def worker(args) -> int:
    ops, setup = _load(args.workload, args.seed)
    if args.role == "setup":
        print(json.dumps({"setup_s": setup}))
        return 0
    import numpy

    runner = Runner(ops)
    if args.trace:
        metrics, detail = measure_traced(runner, args.seconds)
    else:
        metrics, detail = measure_untraced(runner, args.seconds)
    detail.update(runner.report(), setup_s=setup, numpy=numpy.__version__)
    print(json.dumps({"metrics": metrics, "detail": detail}))
    return 0


# -- orchestration ---------------------------------------------------------------


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(seed: int) -> dict:
    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def _spawn(role: str, workload: str, seed: int, seconds: float, trace: int, deadline: float):
    """Run one worker process to completion and return its JSON result."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--role", role, "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ, **{name: "1" for name in THREAD_POOL_VARIABLES})
    timeout = max(1.0, deadline - time.monotonic())
    done = subprocess.run(
        argv, stdout=subprocess.PIPE, text=True, env=env, timeout=timeout, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"{role} process for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run of a workload; the report, whose 'result' is the contract line."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for _ in range(0 if trace else SETUP_PROBES):
        setups.append(_spawn("setup", workload, seed, seconds, trace, deadline)["setup_s"])
    out = _spawn("worker", workload, seed, seconds, trace, deadline)
    detail = out["detail"]
    metrics = out["metrics"]
    if trace:
        values = metrics
    else:
        setups.append(detail["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        values = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        detail["samples"] = {
            "cmd_s.p50": detail["distinct_ops_timed"],
            "cmd_s.tail": detail["timed_ops"],
            "cmds_per_s": detail["timed_ops"],
            "setup_s": len(setups),
            "peak_rss_mb": 1,
        }
        detail["setup_samples_s"] = setups
    provenance = _provenance(seed)
    provenance["numpy"] = detail.pop("numpy")
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": values,
    }
    return {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "error_rate": detail["failed"] / detail["attempted"],
        "provenance": provenance,
        "detail": detail,
        "result": result,
    }


def _summary(seed: int, seconds: float) -> int:
    """Run every workload untraced and traced; table to stderr, reports to stdout."""
    reports = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            reports.append(measure(workload, seed, seconds, trace))
    err = sys.stderr
    for plain, traced in zip(reports[::2], reports[1::2]):
        print(f"\n{plain['workload']}  (seed {seed}, {seconds:g} s)", file=err)
        for name, entry in plain["result"]["metrics"].items():
            print(f"  {name:<22} {entry['value']:>14.6g} {entry['unit']}", file=err)
        print(f"  {'error_rate':<22} {plain['error_rate']:>14.6g} ratio", file=err)
        layers = traced["result"]["metrics"]
        print(
            f"  tracing: {layers['trace.cmds_per_s']['value']:.4g} cmds/s traced vs "
            f"{layers['trace.untraced_cmds_per_s']['value']:.4g} untraced "
            f"(overhead {100 * layers['trace.overhead']['value']:.1f}%)",
            file=err,
        )
    print(json.dumps({"reports": reports}, indent=1))
    failed = sum(r["result"]["failed"] for r in reports)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS, help="length of the timed window"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument(
        "--role", choices=("main", "worker", "setup"), default="main", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.role != "main":
        return worker(args)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no isbound sources at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            return _summary(args.seed, args.seconds)
        report = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
