"""Record the machine output of every fixed-workload job.

    python3 bench/record_expected.py

Writes ``bench/expected/<workload>.json`` (job id -> stdout) for
``horns``, ``lifts`` and ``identities``.  Run it only on code whose
output is known good: the benchmark then requires every later run to
print the same bytes.  A job whose exit status differs from the one
written by hand in ``workloads.EXPECTED_STATUS`` is not recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    workdir = os.path.join(HERE, ".work", f"record-{os.getpid()}")
    bad = 0
    try:
        for name in ("horns", "lifts", "identities"):
            recorded = {}
            for job in workloads.build(name, 0, workdir):
                status, out = workloads.run_cli(job.argv)
                if status != job.status:
                    print(f"{name}: {job.id}: exit status {status}, want {job.status}",
                          file=sys.stderr)
                    bad += 1
                    continue
                recorded[job.id] = out
            path = os.path.join(workloads.EXPECTED_DIR, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(recorded, fh, sort_keys=True, indent=1)
                fh.write("\n")
            print(f"wrote {path} ({len(recorded)} jobs)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
