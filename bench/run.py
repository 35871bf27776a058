"""The exitpath benchmark: time to a correct verdict, end to end and per layer.

    python3 bench/run.py --workload horns --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each timed pass runs the whole workload in a fresh interpreter
(``bench/onepass.py``), as a command-line user pays cold caches on every
invocation; passes run one after another, one process at a time, until
``--seconds`` is spent (at least three).  Timings are medians over the
passes.  With ``--trace 0`` it reports the end-to-end metrics:

  wall_s         first job to last verdict, the time a user waits for the batch
  slowest_job_s  the workload's largest job, the hardest single verdict
  setup_s        interpreter start to the first job: import, inputs, documents
  peak_rss_mb    peak resident memory of the pass's process

The three times are in seconds at the reference speed of
``bench/speed.py``: a shared host runs the same code up to twice as
slowly in spells of a second to minutes, so each pass times a short
fixed reference loop every 20 ms while it runs and scales its times by
the loop's mean speed over them, less the time spent probing.  The
unscaled medians and the speed factor are printed too, on lines of
their own.

With ``--trace 1`` it alternates untraced passes with traced ones and
reports the per-layer counters and times of ``bench/tracer.py``, plus
the tracing overhead (traced ÷ untraced ``wall_s``).

Every job's output is checked (``bench/workloads.py``).  The last line
of output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it print each metric by name, with its
unit, quartiles and sample count, and the error rate.  The exit status
is 1 when any job's output was wrong, and 2 when the benchmark could not
run at all (then no JSON is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ONEPASS = os.path.join(HERE, "onepass.py")
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("horns", "lifts", "identities", "sweep")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "slowest_job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, workdir: str, trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return its JSON result,
    with setup_s measured from just before the process was started, less
    the time spent probing, and scaled by the speed factor of the pass's
    jobs.  (The few probes that fall in the import itself run amid cold
    caches and spread twice as much as the setup they would scale.)"""
    cmd = [sys.executable, ONEPASS, "--workload", workload, "--seed", str(seed),
           "--workdir", workdir]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    # bytecode is written (by the untimed warm-up pass), as for an installed CLI
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: a pass took longer than {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: pass exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["first_job_at"] - started - result["setup_overhead_s"]
    if not setup_only:
        result["setup_s"] = result["raw_setup_s"] * result["wall_factor"]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_passes(workload: str, seed: int, seconds: float, traced: bool,
               workdir: str) -> list[dict]:
    """Passes until one as long as the longest so far would end after
    `seconds` (at least MIN_PASSES).  With traced, untraced and traced
    passes alternate."""
    passes: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        trace = traced and len(passes) % 2 == 1
        begun = time.monotonic()
        result = spawn(workload, seed, workdir, trace=trace)
        result["traced"] = trace
        passes.append(result)
        longest = max(longest, time.monotonic() - begun)
        if len(passes) >= MIN_PASSES and time.monotonic() - start + longest > seconds:
            return passes


def describe(workload: str, name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return (f"{workload:<10s} {name:<36s} {med:12.6g} {unit:<6s} "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Warm up, run the passes, check them; the result object.

    Every pass of the run writes its documents to the same directory,
    over the files of the pass before, and the directory is removed at
    the end.  Deleting a pass's few hundred files after each pass made
    the file writes in the setup of the next passes up to ten times
    slower, more so the longer it went on (on an ext4 file system
    mounted with ``discard``)."""
    workdir = os.path.join(WORK, f"run-{os.getpid()}-{workload}")
    try:
        spawn(workload, seed, workdir, setup_only=True)  # compiles bytecode
        passes = run_passes(workload, seed, seconds, traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [q for p in passes for q in p["problems"]]
    verdicts = {p["verdicts"] for p in passes}
    if len(verdicts) != 1:
        problems.append("passes printed different verdicts")
    lines = []
    metrics: dict[str, dict] = {}
    plain = [p for p in passes if not p["traced"]]
    if not traced:
        samples = {"wall_s": [p["wall_s"] for p in plain],
                   "slowest_job_s": [p["largest_job_s"] for p in plain],
                   "setup_s": [p["setup_s"] for p in plain],
                   "peak_rss_mb": [p["rss_mb"] for p in plain]}
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
            lines.append(describe(workload, name, samples[name], unit))
        for name in ("raw_wall_s", "raw_setup_s"):
            lines.append(describe(workload, f"{name} (unscaled)", [p[name] for p in plain], "s"))
        lines.append(describe(workload, "speed factor", [p["wall_factor"] for p in plain], "ratio"))
    else:
        traces = [p for p in passes if p["traced"]]
        if any(t["counts"] != traces[0]["counts"] for t in traces):
            problems.append("traced passes gave different counts")
        for name, value in sorted(traces[0]["counts"].items()):
            unit = "ratio" if name.endswith("_ratio") else (
                "bytes" if name.startswith("documents.bytes") else "count")
            metrics[name] = {"value": value, "unit": unit}
            lines.append(describe(workload, name, [value], unit))
        for name in sorted(traces[0]["seconds"]):
            values = [t["seconds"][name] for t in traces]
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
            lines.append(describe(workload, name, values, "s"))
        overhead = (statistics.median(t["wall_s"] for t in traces)
                    / statistics.median(p["wall_s"] for p in plain))
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        lines.append(describe(workload, "trace.overhead", [overhead], "ratio"))
    error_rate = failed / attempted
    lines.append(f"{workload:<10s} {'error_rate':<36s} {error_rate:12.6g} ratio  "
                 f"({failed} of {attempted} jobs)")
    for q in problems[:20]:
        lines.append(f"{workload:<10s} MISMATCH {q}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            for line in results[name]["lines"]:
                print(line, flush=True)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
