"""Record the benchmark's figures for the commit in this checkout.

    python3 perfbench/baseline.py --out FILE [--seeds 1-10]

For every workload in BENCHMARK.json, runs ``run.py`` untraced once per
seed and traced once on the first seed, through its command line, and
writes each end-to-end metric's values, median, quartiles and relative
spread ((q3 - q1) / median), plus the traced per-layer figures.  Run it
on two commits to get the "before" and "after" columns of a claim.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks: {result}")
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {
        "machine": {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
                    "cpus": os.cpu_count(), "platform": platform.platform()},
        "run_seconds": seconds,
        "seeds": args.seeds,
        "untraced": {},
        "traced": {},
    }
    for wl in spec["workloads"]:
        name = wl["name"]
        runs = []
        for seed in args.seeds:
            runs.append(run_once(name, seed, seconds, 0))
            print(name, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()},
                  file=sys.stderr, flush=True)
        out["untraced"][name] = {
            m["name"]: spread([r["metrics"][m["name"]]["value"] for r in runs])
            for m in spec["end_to_end"]
        }
        out["untraced"][name]["ops"] = {"attempted": sum(r["attempted"] for r in runs),
                                        "failed": sum(r["failed"] for r in runs)}
        traced = run_once(name, args.seeds[0], seconds, 1)
        out["traced"][name] = {"seed": args.seeds[0], "attempted": traced["attempted"],
                               "failed": traced["failed"],
                               **{k: v["value"] for k, v in traced["metrics"].items()}}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
