"""Self-tests of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

0. BENCHMARK.json names the workloads and metrics this benchmark prints.
1. Inputs are a pure function of the seed, independent of hash
   randomization, and the two claim seeds give different inputs.
2. One corrupted output per repetition is counted as a failed operation,
   for every workload, and raises ``ops_failed_frac``.
3. Containment: a child that exceeds its memory cap (the level-13
   quotient) or its time limit is reported as failed, and the benchmark
   process carries on.

Exits non-zero on the first failed test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import run
from workloads import WORKLOADS

SEEDED = ("words-long",)


def check(condition: bool, message: str) -> None:
    """Like assert, but kept under ``python -O``."""
    if not condition:
        raise AssertionError(message)


def input_digest(name: str, seed: int) -> str:
    return hashlib.sha256(repr(WORKLOADS[name].make_inputs(seed)).encode()).hexdigest()


def _digest_in_subprocess(name: str, seed: int, hashseed: str) -> str:
    code = f"import selftest; print(selftest.input_digest({name!r}, {seed}))"
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run([sys.executable, "-c", code], cwd=run.HERE, env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_spec_matches():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([(w["name"], w["why"]) for w in spec["workloads"]]
          == [(w.name, w.why) for w in WORKLOADS.values()], "workloads differ")
    for key, metrics in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        check([(m["name"], m["unit"], m["better"]) for m in spec[key]]
              == [(m.name, m.unit, m.better) for m in metrics], f"{key} metrics differ")


def test_inputs_follow_seed():
    first, holdout = run.CLAIM_SEEDS
    for name in SEEDED:
        a = _digest_in_subprocess(name, first, "1")
        b = _digest_in_subprocess(name, first, "2")
        check(a == b == input_digest(name, first), f"{name}: same seed, different inputs")
        check(input_digest(name, holdout) != a, f"{name}: seeds {run.CLAIM_SEEDS} agree")


def _quiet_measure(name: str, trace: bool, corrupt: bool) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.measure(name, run.CLAIM_SEEDS[0], seconds=0, trace=trace, corrupt=corrupt)


def test_corrupted_output_is_counted():
    for name in WORKLOADS:
        result = _quiet_measure(name, trace=False, corrupt=True)
        check(result["failed"] >= 1 and not result["correct"], f"{name}: corruption not counted")
    result = _quiet_measure("words-long", trace=True, corrupt=True)
    check(result["metrics"]["ops_failed_frac"]["value"] > 0, "ops_failed_frac did not rise")
    clean = _quiet_measure("words-long", trace=True, corrupt=False)
    check(clean["failed"] == 0 and clean["metrics"]["ops_failed_frac"]["value"] == 0,
          "clean run counted failures")


def test_caps_contain_failures():
    oom = "import sys; from mealygrowth import cli; sys.exit(cli.main(['quotient', '--n', '13']))"
    t = time.monotonic()
    check(run.run_python(["-c", oom], timeout=120, mem_cap_mb=768) is None, "capped child succeeded")
    print(f"  level-13 quotient under a 768 MB cap failed after {time.monotonic() - t:.1f} s")
    t = time.monotonic()
    check(run.run_python(["-c", "import time; time.sleep(60)"], timeout=2) is None, "slow child succeeded")
    check(time.monotonic() - t < 10, "timed-out child was not stopped promptly")


def main() -> int:
    for test in (test_spec_matches, test_inputs_follow_seed, test_corrupted_output_is_counted, test_caps_contain_failures):
        print(f"{test.__name__} ...", flush=True)
        test()
        print(f"{test.__name__} ok", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
