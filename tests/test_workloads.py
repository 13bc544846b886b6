"""The benchmark's workloads, each run once in-process at seed 1.

Every name that ``perfbench/workloads.py`` calls must still exist and give
outputs that its own checks accept, so a deletion the benchmark depends on
fails here, in the tier-1 run.  The module is only read: it is loaded by
path, and no bytecode is written under ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from mealygrowth import cli, mealy, rewrite, series, tables

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    wrote, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = wrote
        del sys.modules[spec.name]
    return module


workloads = _load_workloads()

# the namespace that perfbench/child.py hands each workload
MG = SimpleNamespace(cli=cli, series=series, tables=tables, mealy=mealy, rewrite=rewrite)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_outputs_pass_its_checks(name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(1)
    assert wl.check(MG, inputs, wl.run(MG, inputs, {})) == [True] * wl.op_count
