"""Tests of the benchmark itself.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import onepass  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from exitpath import documents  # noqa: E402


def small_jobs(workdir: str) -> list[workloads.Job]:
    """A few quick jobs over every kind of check, with recorded outputs."""
    jobs = [workloads._cli_job("verify-qcat", "broken", "broken", ["--max-dim", "3"]),
            workloads._cli_job("verify-qcat", "s0-defect", "s0-defect", ["--max-dim", "3"]),
            workloads._cli_job("check-fibration", "boundary-collar", "boundary-collar", []),
            workloads._cli_job("check-mono", "trivial", "trivial", []),
            workloads._cli_job("verify-identities", "point-cone", "point-cone",
                               ["--max-dim", "3"])]
    for job in jobs:
        job.expected = workloads.run_cli(job.argv)[1]
    return jobs + workloads.sweep_jobs(3, workdir, count=4)


def family_documents(seed: int) -> list[str]:
    out = []
    for i, p in enumerate(workloads.sweep_family(seed, count=9)):
        span = workloads.sweep_span(i, p)
        out += [documents.print_sset(X) for X in (span.M, span.L, span.N)]
        out += [documents.print_smap(f) for f in (span.pi, span.iota)]
    return out


def module_bindings() -> dict:
    """Every name bound in a loaded module or a class of exitpath."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("exitpath"):
                for meth, fn in vars(value).items():
                    seen[(name, attr, meth)] = fn
    return seen


def test_sweep_family_is_deterministic_per_seed():
    assert family_documents(11) == family_documents(11)
    assert family_documents(11) != family_documents(12)


def test_sweep_family_keeps_its_schedule_across_seeds():
    a, b = workloads.sweep_family(1, count=9), workloads.sweep_family(2, count=9)
    chains = workloads._strict_chain_counts
    for p, q in zip(a, b):
        assert (len(p.below), p.r, p.m) == (len(q.below), q.r, q.m)
        assert chains(range(len(p.below)), p.below) == chains(range(len(q.below)), q.below)
        assert chains(range(p.r), p.below) == chains(range(q.r), q.below)


def test_sweep_spans_have_unique_names(tmp_path):
    jobs = workloads.sweep_jobs(5, str(tmp_path), count=6)
    spans = [p for p in os.listdir(tmp_path) if p.endswith(".span")]
    assert len(spans) == len(set(spans)) == 6
    assert len({job.id for job in jobs}) == len(jobs)


def test_recorded_outputs_agree_with_hand_statuses(tmp_path):
    for name in ("horns", "lifts", "identities"):
        for job in workloads.build(name, 0, str(tmp_path)):
            assert job.expected is not None, job.id
            assert json.loads(job.expected).get("ok") is (job.status == workloads.PASS), job.id


@pytest.fixture
def meter():
    m = speed.Meter().start()
    yield m
    m.stop()


def test_traced_and_untraced_runs_print_identical_verdicts(tmp_path, meter):
    plain = onepass.run_jobs(small_jobs(str(tmp_path / "a")), meter)
    with tracing.Tracer() as tracer:
        traced = onepass.run_jobs(small_jobs(str(tmp_path / "b")), meter, tracer)
    assert plain["failed"] == traced["failed"] == 0, plain["problems"] + traced["problems"]
    assert plain["verdicts"] == traced["verdicts"]


def test_tracer_restores_every_function():
    import exitpath.operators as operators

    before = module_bindings()
    original = operators.compose
    with tracing.Tracer():
        assert operators.compose is not original
        assert "open" in vars(documents)
    assert operators.compose is original
    assert "open" not in vars(documents)
    after = module_bindings()
    changed = [k for k in before if k in after and after[k] is not before[k]]
    assert changed == []


def test_two_traced_runs_give_identical_counts(tmp_path, meter):
    counts = []
    for run in ("a", "b"):
        with tracing.Tracer() as tracer:
            onepass.run_jobs(small_jobs(str(tmp_path / run)), meter, tracer)
        counts.append(tracer.metrics()[0])
    assert counts[0] == counts[1]
    assert counts[0]["simplicial.act.calls"] > counts[0]["simplicial.act.distinct"] > 0
    assert counts[0]["verify.horns"] > 0 and counts[0]["verify.lift_squares"] > 0


def test_meter_leaves_out_its_probes_and_restores_the_signal():
    import signal

    previous = signal.getsignal(signal.SIGALRM)
    m = speed.Meter().start()
    try:
        mark = m.mark()
        t = speed.time.perf_counter()
        while speed.time.perf_counter() - t < 0.3:
            pass
        seconds, overhead = m.seconds(mark), m.overhead
        factor = m.factor(mark)
    finally:
        m.stop()
    assert len(m.factors) >= 5 and overhead > 0
    assert abs(seconds + overhead - 0.3) < 0.05
    assert 0 < factor and all(f > 0 for f in m.factors)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_checker_flags_a_tampered_verdict(tmp_path):
    job = small_jobs(str(tmp_path))[1]
    assert job.run()[1] == []
    job.expected = job.expected.replace('"pass"', '"fail"', 1)
    assert job.run()[1] == ["machine output differs from the recorded seed output"]
    job.status = workloads.FAIL
    assert len(job.run()[1]) == 2


def test_checker_flags_a_tampered_count(tmp_path):
    build = [j for j in workloads.sweep_jobs(4, str(tmp_path), count=3)
             if j.id.startswith("build-exit")][0]
    out, problems = build.run()
    assert problems == []
    stats = json.loads(out)
    stats["degrees"][2]["exit"] += 1
    tampered = json.dumps(stats, sort_keys=True, indent=2) + "\n"
    assert build.check(tampered) == ["build-exit --stats differs from the poset counts"]


def test_benchmark_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(onepass, "SRC", str(tmp_path))
    assert onepass.main(["--workload", "horns", "--seed", "1", "--workdir", str(tmp_path)]) == 2


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
