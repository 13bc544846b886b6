"""mealygrowth benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every repetition is a fresh, single-threaded Python process
(``child.py``) with a wall-clock timeout and an address-space cap, so a
crash, a timeout or an exhausted cap counts as failed operations and
never takes the benchmark or the machine down.

``--trace 0`` (closed loop, one client): five import probes, then
repetitions of the workload's job for as long as the next one is
expected to end within ``--seconds``.  It
reports the end-to-end metrics: the median import time over all
processes, and the median job time and peak RSS over the repetitions.

Times are wall times scaled to a reference machine speed: each process
times a fixed calibration loop (``calibrate.py``) right after the import
and around the job, and multiplies its wall times by
``REFERENCE_S / calibration time``.  The shared machines this runs on
drift in speed by tens of percent over minutes, which the raw wall times
show and the scaled ones largely cancel.  The raw wall times are printed
and reported beside them.

``--trace 1``: repetitions alternate untraced and traced.  The traced ones
wrap the public functions of cli, series, tables, mealy and rewrite from
outside (``tracing.py``) and report the per-layer metrics, as medians
over the traced repetitions, with times speed-scaled like ``job_s``; the
untraced ones give the base of ``trace.overhead_frac`` and the RSS
figures.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Claims of a gain must hold
on the primary seed and on the hold-out seed in ``CLAIM_SEEDS``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

#: Primary seed and the hold-out seed on which every claim must also hold.
CLAIM_SEEDS = (1, 2)
SETUP_PROBES = 5
#: Address-space cap of each child.  level-oracle peaks near 0.8 GB of
#: virtual memory; the level-13 quotient would need about 13 GB.
MEM_CAP_MB = 2048
REP_TIMEOUT_S = 120.0
#: Every run, however it goes, ends within this many seconds.
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    kind: str  # "measured" or "computed"
    about: str


END_TO_END = [
    Metric("setup_s", "s", "lower", "measured",
           "import mealygrowth (numpy included) in a fresh process, speed-scaled; median over all processes"),
    Metric("job_s", "s", "lower", "measured",
           "wall time of the workload's operations, speed-scaled, tracing off; median over repetitions"),
    Metric("peak_rss_mb", "MB", "lower", "measured",
           "ru_maxrss of the repetition's process; median over repetitions"),
]

_GT, _LO, _WL = "job_s on growth-table", "job_s on level-oracle", "job_s on words-long"
PER_LAYER = [
    Metric("cli.main.self_s", "s", "lower", "measured",
           f"cli layer self time under main (parsing, row assembly, CSV/JSON output); {_GT}"),
    Metric("cli.output_bytes", "bytes", "lower", "measured", f"bytes cli.main wrote to stdout; {_GT}"),
    Metric("series.odd_distinct_partitions.self_s", "s", "lower", "measured", _GT),
    Metric("series.automaton_growth_coeffs.self_s", "s", "lower", "measured", _GT),
    Metric("series.word_growth_coeffs.self_s", "s", "lower", "measured", _GT),
    Metric("series.ball_growth_coeffs.self_s", "s", "lower", "measured", _GT),
    Metric("series.growth_asymptotes.self_s", "s", "lower", "measured", _GT),
    Metric("series.growth_asymptotes.calls", "count", "lower", "measured", _GT),
    Metric("series.self_s", "s", "lower", "measured", f"{_GT}; near zero on level-oracle"),
    Metric("tables.self_s", "s", "lower", "measured", _LO),
    Metric("tables.enumerate_monoid.self_s", "s", "lower", "measured", _LO),
    Metric("tables.table_of.self_s", "s", "lower", "measured", _LO),
    Metric("tables.bfs_elements", "count", "lower", "measured",
           f"elements found by enumerate_monoid, exact; {_LO}"),
    Metric("tables.bfs_elements_per_s", "1/s", "higher", "measured",
           f"tables.bfs_elements over enumerate_monoid self time; {_LO}"),
    Metric("tables.key_bytes_per_element", "bytes", "lower", "computed",
           "size of one BFS dict key at level 11; peak_rss_mb on level-oracle"),
    Metric("tables.rss_growth_mb", "MB", "lower", "measured",
           "ru_maxrss growth across quotient --n 11 (untraced); peak_rss_mb on level-oracle"),
    Metric("mealy.self_s", "s", "lower", "measured", _LO),
    Metric("mealy.automaton_growth.self_s", "s", "lower", "measured", _LO),
    Metric("mealy.product.self_s", "s", "lower", "measured", _LO),
    Metric("mealy.minimize.self_s", "s", "lower", "measured", _LO),
    Metric("mealy.minimize.calls", "count", "lower", "measured", _LO),
    Metric("mealy.product_states", "count", "lower", "measured", f"sum of product() states, exact; {_LO}"),
    Metric("mealy.min_states", "count", "lower", "measured", f"sum of minimize() states, exact; {_LO}"),
    Metric("rewrite.self_s", "s", "lower", "measured", _WL),
    Metric("rewrite.reduce_detailed.self_s", "s", "lower", "measured", _WL),
    Metric("rewrite.letters_per_s", "1/s", "higher", "measured",
           f"letters into reduce_detailed over its self time; {_WL}"),
    Metric("rewrite.steps", "count", "lower", "measured",
           f"relation applications reported by reduce_detailed, exact, at most letters/2; {_WL}"),
    Metric("rewrite.length_exponent", "1", "lower", "computed",
           f"log-log slope of top-level reduce_detailed time against word length; {_WL}"),
    Metric("rewrite.length_fit_min_letters", "letters", "higher", "measured", "shortest word in that fit"),
    Metric("rewrite.length_fit_max_letters", "letters", "higher", "measured", "longest word in that fit"),
    Metric("job.wall_s", "s", "lower", "measured", "raw wall time of the untraced jobs; median"),
    Metric("machine.speed_factor", "1", "higher", "measured",
           "REFERENCE_S over the calibration time, untraced repetitions; median"),
    Metric("trace.job_s", "s", "lower", "measured", "speed-scaled job time with tracing on; median over traced repetitions"),
    Metric("trace.overhead_frac", "1", "lower", "computed", "traced job_s over untraced job_s, minus 1"),
    Metric("ops_failed_frac", "1", "lower", "computed", "failed operations over attempted operations"),
]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MG_THREADS", "PYTHONPATH")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_python(argv: list[str], timeout: float, mem_cap_mb: int = MEM_CAP_MB):
    """Run ``python argv`` under the caps; the parsed RESULT line, or None.

    ``None`` means the process timed out, exited non-zero, or printed no
    result.  On a timeout the process is killed and reaped before return.
    """
    cap = mem_cap_mb * 1024 * 1024

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), preexec_fn=limit,
            stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out after {timeout:.0f} s: {argv}", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        tail = "\n".join(proc.stderr.splitlines()[-5:])
        print(f"child failed (exit {proc.returncode}): {argv}\n{tail}", file=sys.stderr)
        return None
    return json.loads(lines[-1][len("RESULT "):])


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def layer_metrics(rep: dict) -> dict:
    """Per-layer values of one traced repetition; times speed-scaled like job_s."""
    summary, speed = rep["trace"], rep["speed"]
    fns, layers = summary["functions"], summary["layers"]

    def fn(name, key="self_s"):
        value = fns.get(name, {}).get(key, 0)
        return value * speed if key == "self_s" else value

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out = {f"{layer}.self_s": layers.get(layer, 0.0) * speed for layer in ("series", "tables", "mealy", "rewrite")}
    out["cli.main.self_s"] = layers.get("cli", 0.0) * speed
    for name in ("series.odd_distinct_partitions", "series.automaton_growth_coeffs",
                 "series.word_growth_coeffs", "series.ball_growth_coeffs",
                 "series.growth_asymptotes", "tables.enumerate_monoid", "tables.table_of",
                 "mealy.automaton_growth", "mealy.product", "mealy.minimize",
                 "rewrite.reduce_detailed"):
        out[f"{name}.self_s"] = fn(name)
    out["series.growth_asymptotes.calls"] = fn("series.growth_asymptotes", "calls")
    out["mealy.minimize.calls"] = fn("mealy.minimize", "calls")
    out["tables.bfs_elements"] = fn("tables.enumerate_monoid", "a")
    out["tables.bfs_elements_per_s"] = rate(out["tables.bfs_elements"], fn("tables.enumerate_monoid"))
    out["mealy.product_states"] = fn("mealy.product", "a")
    out["mealy.min_states"] = fn("mealy.minimize", "a")
    out["rewrite.letters_per_s"] = rate(fn("rewrite.reduce_detailed", "a"), fn("rewrite.reduce_detailed"))
    out["rewrite.steps"] = fn("rewrite.reduce_detailed", "b")
    fit = summary["length_fit"]
    out["rewrite.length_exponent"] = fit["exponent"]
    out["rewrite.length_fit_min_letters"] = fit["min_letters"]
    out["rewrite.length_fit_max_letters"] = fit["max_letters"]
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, corrupt: bool = False) -> dict:
    """Run the probes and repetitions of one benchmark run.

    Prints a readable table of the metrics and returns the result object.
    """
    started = time.monotonic()
    op_count = WORKLOADS[workload].op_count
    attempted = failed = 0
    setup, untraced, traced = [], [], []

    if not trace:
        for _ in range(SETUP_PROBES):
            res = run_python([str(HERE / "child.py"), "--probe"], timeout=60)
            attempted += 1
            if res is None:
                failed += 1
            else:
                setup.append(res["setup_s"])

    loop_start = time.monotonic()
    longest = 0.0
    rep = 0
    while True:
        is_traced = trace and rep % 2 == 1
        argv = [str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
        if is_traced:
            SPANS_DIR.mkdir(exist_ok=True)
            argv += ["--trace", "--spans", str(SPANS_DIR / f"{workload}.spans.tsv")]
        if corrupt:
            argv.append("--corrupt")
        remaining = started + RUN_LIMIT_S - time.monotonic()
        t = time.monotonic()
        res = run_python(argv, timeout=min(REP_TIMEOUT_S, remaining))
        longest = max(longest, time.monotonic() - t)
        rep += 1
        if res is None:
            attempted += op_count
            failed += op_count
        else:
            attempted += res["attempted"]
            failed += res["failed"]
            setup.append(res["setup_s"])
            (traced if is_traced else untraced).append(res)
        now = time.monotonic()
        # Start another repetition only if it can end within --seconds.
        done = now + longest - loop_start > seconds and (not trace or rep >= 2)
        if done or now + longest > started + RUN_LIMIT_S:
            break

    metrics = {}
    if trace:
        per_rep = [layer_metrics(r) for r in traced]
        for m in PER_LAYER:
            metrics[m.name] = _median([v[m.name] for v in per_rep if m.name in v])
        job = _median([r["job_s"] for r in untraced])
        metrics["trace.job_s"] = _median([r["job_s"] for r in traced])
        metrics["trace.overhead_frac"] = metrics["trace.job_s"] / job - 1 if job > 0 else 0.0
        metrics["job.wall_s"] = _median([r["job_wall_s"] for r in untraced])
        metrics["machine.speed_factor"] = _median([r["speed"] for r in untraced])
        metrics["cli.output_bytes"] = _median([r["notes"].get("cli_output_bytes", 0) for r in traced])
        for key in ("tables.key_bytes_per_element", "tables.rss_growth_mb"):
            note = key.split(".", 1)[1]
            metrics[key] = _median([r["notes"][note] for r in untraced if note in r["notes"]])
        metrics["ops_failed_frac"] = failed / attempted
        chosen = PER_LAYER
    else:
        metrics["setup_s"] = _median(setup)
        metrics["job_s"] = _median([r["job_s"] for r in untraced])
        metrics["peak_rss_mb"] = _median([r["peak_rss_mb"] for r in untraced])
        chosen = END_TO_END

    complete = bool(untraced) and (bool(traced) or not trace) and (bool(setup) or trace)
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in chosen},
    }
    print(f"# workload {workload}: {WORKLOADS[workload].why}")
    print(f"# seed {seed}, {rep} repetitions, {failed}/{attempted} operations failed")
    print(f"# untraced repetitions, job_s: {[round(r['job_s'], 4) for r in untraced]}")
    print(f"# their wall time: {[round(r['job_wall_s'], 4) for r in untraced]}, "
          f"speed factor: {[round(r['speed'], 3) for r in untraced]}")
    for m in chosen:
        print(f"{m.name:40s} {metrics[m.name]:>16.6g} {m.unit:8s} [{m.kind}] {m.about}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output per repetition (self-test of the checks)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mealygrowth" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.corrupt)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
