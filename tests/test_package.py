"""Package metadata."""

import os
import re
import subprocess
import sys
from pathlib import Path

import mealygrowth


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
