"""Package metadata, import footprint and the collector pause of the bulk kernels."""

import gc
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mealygrowth
from mealygrowth import (
    I2,
    CapacityError,
    automaton_growth,
    enumerate_monoid,
    mealy,
    minimize,
    power,
    tables,
)


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert match.group(1) == mealygrowth.__version__


def test_import_leaves_numpy_out():
    src = Path(mealygrowth.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mealygrowth; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def _modules_added(statement):
    """Modules that ``statement`` adds to a fresh interpreter's ``sys.modules``.

    ``-S`` skips ``site``, so nothing is loaded before the statement that
    a site hook might have loaded instead."""
    src = Path(mealygrowth.__file__).resolve().parents[1]
    code = f"import sys; before = set(sys.modules); {statement}; print(*set(sys.modules) - before)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return set(proc.stdout.split())


def test_import_footprint():
    added = _modules_added("import mealygrowth")
    assert {f"mealygrowth.{m}" for m in ("mealy", "rewrite", "series", "tables")} <= added
    assert not added & {"dataclasses", "inspect", "argparse", "json", "numpy"}
    assert not _modules_added("import mealygrowth.cli") & {"dataclasses", "inspect"}


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector enabled or disabled by the test; its state restored after it."""
    was = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if was else gc.disable()


# the no-cycles tests run with the collector disabled, so that a cycle a
# kernel left behind is still there for gc.collect() to find
collector_off = pytest.mark.parametrize("collector", [False], ids=["disabled"], indirect=True)


@collector_off
@pytest.mark.parametrize("call", [
    lambda: enumerate_monoid(I2, 6),
    lambda: enumerate_monoid(I2, 6, spheres=False),
    lambda: enumerate_monoid(I2, 5, max_depth=9),
    lambda: enumerate_monoid(I2, 5, max_depth=9, spheres=False),
    lambda: automaton_growth(I2, 30),
    lambda: minimize(power(I2, 4)),
], ids=["closure", "closure-no-spheres", "ball", "ball-no-spheres", "growth", "minimize"])
def test_kernels_leave_no_cycles(collector, call):
    # the pause is safe only because reference counting alone frees
    # everything a kernel builds: nothing is left for the collector
    gc.collect()
    call()
    assert gc.collect() == 0


@collector_off
@pytest.mark.parametrize("max_depth", [None, 30])
def test_capacity_error_leaves_no_cycles(collector, monkeypatch, max_depth):
    monkeypatch.setattr(tables, "MAX_ELEMENTS", 500)
    gc.collect()
    try:
        enumerate_monoid(I2, 8, max_depth=max_depth)
    except CapacityError:
        pass
    else:
        pytest.fail("the element cap was not enforced")
    assert gc.collect() == 0


def _refine_raising(error):
    def refine(trans, outs):
        raise error
    return refine


@pytest.mark.parametrize("call, error, patch", [
    (lambda: enumerate_monoid(I2, 4), None, None),
    (lambda: enumerate_monoid(I2, 4, max_depth=-1), ValueError, None),
    (lambda: enumerate_monoid(I2, 8), CapacityError, (tables, "MAX_ELEMENTS", 100)),
    (lambda: automaton_growth(I2, 5), None, None),
    (lambda: automaton_growth(I2, 0), ValueError, None),
    (lambda: automaton_growth(I2, 10), CapacityError, (mealy, "MAX_STATES", 20)),
    (lambda: minimize(power(I2, 3)), None, None),
    (lambda: minimize(I2), ValueError, (mealy, "_refine", _refine_raising(ValueError))),
    (lambda: minimize(I2), CapacityError, (mealy, "_refine", _refine_raising(CapacityError))),
], ids=["closure", "closure-bad-depth", "closure-cap", "growth", "growth-bad-N", "growth-cap",
        "minimize", "minimize-ValueError", "minimize-CapacityError"])
def test_kernels_restore_the_collector(monkeypatch, collector, call, error, patch):
    if patch is not None:
        monkeypatch.setattr(*patch)
    if error is None:
        call()
    else:
        with pytest.raises(error):
            call()
    assert gc.isenabled() is collector


@pytest.mark.parametrize("module, name", [
    (tables, "enumerate_monoid"), (mealy, "automaton_growth"), (mealy, "minimize")])
def test_paused_kernels_keep_their_identity(module, name):
    # perfbench's tracer wraps the public functions for which inspect.isfunction
    # holds and whose __module__ is the module holding them, and names spans by them
    kernel = getattr(module, name)
    assert inspect.isfunction(kernel) and inspect.isfunction(kernel.__wrapped__)
    assert (kernel.__name__, kernel.__module__) == (name, module.__name__)
    assert kernel.__doc__ == kernel.__wrapped__.__doc__ and kernel.__doc__
