"""One pass of one workload, in the fresh interpreter it is started in.

    python3 bench/onepass.py --workload horns --seed 1 --workdir DIR [--trace] [--setup-only]

Imports exitpath from ``src/`` of the checkout this file sits in, makes
the workload's inputs (setup), runs every job, checks its output, and
prints one JSON line: when the first job started (``time.monotonic``,
which the parent compares with its own clock), wall time and the time
of the workload's largest job, both scaled to the reference speed of
``bench/speed.py``, the unscaled wall time, the speed samples, peak
resident memory, the number of jobs
and failures, a digest of every verdict and, with ``--trace``, the
per-layer counters and times (the span records go to
``bench/out/spans-<workload>-<seed>.json``).  ``bench/run.py`` starts one of these per
timed pass, so no state carries from one pass to the next.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MIN_PROBES = 5


def run_jobs(jobs, meter, tracer=None) -> dict:
    """Run and check jobs in order; timings, failures and a verdict digest.

    Job times leave out the meter's probing; the wall time is scaled by
    the mean speed factor over all jobs, the largest job's time by the
    factor over that job alone (at least MIN_PROBES probes)."""
    digest = hashlib.sha256()
    failed, problems, largest = 0, [], None
    wall = 0.0
    start = meter.mark()
    for job in jobs:
        if tracer is not None:
            tracer.start_job(job.id)
        mark = meter.mark()
        try:
            out, found = job.run()
        except Exception as e:  # a job that raises is a failed job, not a crash
            out, found = "", [f"raised {type(e).__name__}: {e}"]
        dt = meter.seconds(mark)
        if tracer is not None:
            tracer.end_job()
        wall += dt
        if job.largest:
            largest = dt * meter.factor(mark, MIN_PROBES)
        if found:
            failed += 1
            problems += [f"{job.id}: {p}" for p in found]
        digest.update(f"{job.id}\n{out}\n".encode("utf-8"))
    factor = meter.factor(start, MIN_PROBES)
    return {"wall_s": wall * factor, "raw_wall_s": wall, "wall_factor": factor,
            "largest_job_s": largest, "jobs": len(jobs), "failed": failed,
            "problems": problems[:20], "verdicts": digest.hexdigest()}


def main(argv=None) -> int:
    meter = speed.Meter().start()
    try:
        return run_pass(meter, argv)
    finally:
        meter.stop()


def run_pass(meter, argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True,
                        help="where to write the documents; the caller removes it")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "exitpath", "__init__.py")):
        print(f"error: no exitpath sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import exitpath
    import tracer as tracing
    import workloads

    if os.path.dirname(os.path.abspath(exitpath.__file__)) != os.path.join(SRC, "exitpath"):
        print(f"error: imported exitpath from {exitpath.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer().install() if args.trace else None
    try:
        jobs = workloads.build(args.workload, args.seed, args.workdir)
        result = {"first_job_at": time.monotonic(), "setup_overhead_s": meter.overhead}
        if not args.setup_only:
            result.update(run_jobs(jobs, meter, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["counts"], result["seconds"] = tracer.metrics()
        spans_out = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.json")
        os.makedirs(os.path.dirname(spans_out), exist_ok=True)
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.span_records(), fh)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
