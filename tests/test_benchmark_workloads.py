"""Smoke test: every benchmark operation runs once and passes its own output check.

``perfbench/workloads.py`` is loaded read-only by path, so a change that breaks
a benchmark output check fails here, not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
@pytest.mark.parametrize("name", ["quadrature-oracle", "breakdown-small", "large-arrays"])
def test_every_operation_passes_its_check(name):
    workloads = load_workloads()
    ops = workloads.build(name, seed=1)
    assert ops
    for op in ops:
        op.check(op.run())
