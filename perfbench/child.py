"""One benchmark repetition in a fresh process.

Times ``import mealygrowth``, builds the workload's inputs from the seed,
times the job, checks every output after the timed region, and prints
one line ``RESULT {json}``.  The calibration loop runs before and after
the job; ``setup_s`` and ``job_s`` are the wall times scaled by its
speed factor, and the raw wall times are reported beside them.  With ``--probe`` it only times the import.
With ``--trace`` the job runs under the tracer and the spans are written
to ``--spans``.
"""

from __future__ import annotations

import time


def main() -> int:
    # Time the import before anything else is loaded into the process.
    t0 = time.perf_counter()
    import mealygrowth  # noqa: F401 - the import is what is timed
    setup_wall_s = time.perf_counter() - t0

    import argparse
    import json

    import calibrate

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()
    if args.probe:
        speed = calibrate.speed_factor(calibrate.calibrate())
        print("RESULT " + json.dumps({"setup_s": setup_wall_s * speed, "setup_wall_s": setup_wall_s}))
        return 0

    from types import SimpleNamespace

    from mealygrowth import cli, mealy, rewrite, series, tables
    import tracing
    import workloads

    mg = SimpleNamespace(cli=cli, series=series, tables=tables, mealy=mealy, rewrite=rewrite)
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    notes: dict = {}
    cal_before = calibrate.calibrate()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install([cli, series, tables, mealy, rewrite])
    t1 = time.perf_counter()
    outputs = wl.run(mg, inputs, notes)
    job_wall_s = time.perf_counter() - t1
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = workloads.max_rss_mb()
    speed = calibrate.speed_factor(cal_before, calibrate.calibrate())

    if args.corrupt:
        wl.corrupt(outputs)
    verdicts = wl.check(mg, inputs, outputs)
    result = {
        "setup_s": setup_wall_s * speed,
        "job_s": job_wall_s * speed,
        "setup_wall_s": setup_wall_s,
        "job_wall_s": job_wall_s,
        "speed": speed,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(verdicts),
        "failed": verdicts.count(False),
        "notes": notes,
    }
    if args.workload == "level-oracle":
        result["notes"]["key_bytes_per_element"] = workloads.key_bytes_per_element(mg)
    if tracer is not None:
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print("RESULT " + json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
