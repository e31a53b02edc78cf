"""One repetition of a workload in a fresh interpreter.

    python bench/worker.py --workload NAME --seed N --mode plain|traced \
        --t0 MONOTONIC_NS --out RECORD.json [--size full|tiny] [--spans SPANS.csv.gz]

Imports areasig from the checkout's src/, builds the workload (set-up),
runs its job list once, digests and checks every job's output, and writes
one JSON record.  Started by run.py; the module-level memo caches of the
program are cold, as they are for an `areasig` command.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"
SAMPLE_PERIOD_S = 0.05
SAMPLE_STEPS = 400  # under 2 ms per sample here
MIN_SAMPLES = 20


def expected_digest(reference, job, seed, size):
    """The committed digest this job must match, "" if missing, None if unchecked.

    Jobs whose input does not depend on the seed are checked on every seed;
    seeded jobs only on the reference seed.  Every full-size job has a
    reference; tiny jobs are checked only when the reference names them.
    """
    if job.seeded and seed != reference["seed"]:
        return None
    expected = reference["digests"].get(job.id)
    if expected is None and size == "full":
        return ""
    return expected


def calibrate(steps):
    """Seconds for a fixed loop of the program's kind of work, using no areasig code.

    Fraction products and sums accumulated in a dict keyed by word tuples.
    """
    t0 = time.perf_counter()
    acc = {}
    scale = Fraction(1, 3)
    for i in range(steps):
        word = (i % 3 + 1, i % 5 + 1, i % 7 + 1)
        value = scale * Fraction(i % 7 - 3, i % 5 + 1)
        cur = acc.get(word)
        acc[word] = value if cur is None else cur + value
    return time.perf_counter() - t0


class HostSpeed:
    """Samples the host's speed while the jobs run.

    A shared host's speed can change within a second, so one calibration
    before the jobs does not describe them.  A SIGALRM every
    SAMPLE_PERIOD_S runs a short calibration between two bytecodes of
    whatever job is running; the samples' time is taken out of the job
    times, and each job is described by the samples taken while it ran.
    """

    def __init__(self):
        self.seconds = 0.0
        self.samples = []  # (perf_counter at the sample, ns per calibration step)

    def _sample(self, signum, frame):
        at = time.perf_counter()
        took = calibrate(SAMPLE_STEPS)
        self.seconds += took
        self.samples.append((at, took * 1e9 / SAMPLE_STEPS))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # jobs shorter than one period
            self._sample(None, None)

    def ns_per_step(self, start=None, end=None):
        """Mean ns per step of the samples in [start, end], or of all of them.

        A window with fewer than MIN_SAMPLES samples takes the MIN_SAMPLES
        nearest to its middle instead.
        """
        chosen = self.samples
        if start is not None:
            chosen = [s for s in chosen if start <= s[0] <= end]
            if len(chosen) < MIN_SAMPLES:
                middle = (start + end) / 2
                chosen = sorted(self.samples, key=lambda s: abs(s[0] - middle))
                chosen = chosen[:MIN_SAMPLES]
        return statistics.fmean(ns for _at, ns in chosen)


def run_job(job, seed, size, reference, speed):
    """Run, digest and check one job; returns (result, start, end, cpu seconds)."""
    from areasig.errors import TermBudgetExceeded
    from workloads import CheckFailed

    reason = None
    digest = None
    sampled = speed.seconds
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        digest = hashlib.sha256(job.run()).hexdigest()
    except TermBudgetExceeded as exc:
        reason = "term budget: %s" % exc
    except CheckFailed as exc:
        reason = "check: %s" % exc
    except Exception as exc:  # a job that raises is a failed job, not a crash
        reason = "raised %s: %s" % (type(exc).__name__, exc)
    t1 = time.perf_counter()
    sampled = speed.seconds - sampled
    wall = t1 - t0 - sampled
    cpu = time.process_time() - c0 - sampled
    if reason is None:
        expected = expected_digest(reference, job, seed, size)
        if expected == "":
            reason = "no reference digest"
        elif expected is not None and expected != digest:
            reason = "digest mismatch"
    result = {"id": job.id, "ms": wall * 1e3, "digest": digest, "failure": reason}
    return result, t0, t1, cpu


def run_jobs(jobs, seed, size, reference, tracer=None):
    """Run every job once; returns (results, wall s, cpu s, calibration ns per step).

    Untraced, HostSpeed samples the host while the jobs run, and every
    result carries the calibration of its own stretch of time.
    """
    results = []
    windows = []
    cpu = 0.0
    speed = HostSpeed()
    with contextlib.ExitStack() as stack:
        if tracer is None:
            stack.enter_context(speed)
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            result, start, end, job_cpu = run_job(job, seed, size, reference, speed)
            results.append(result)
            windows.append((start, end))
            cpu += job_cpu
    run_s = sum(r["ms"] for r in results) / 1e3
    if tracer is not None:
        tracer.job = -1
        return results, run_s, cpu, None
    for result, (start, end) in zip(results, windows):
        result["cal_ns_per_step"] = speed.ns_per_step(start, end)
    return results, run_s, cpu, speed.ns_per_step()


def repetition(workload, seed, size, mode, t0_ns, reference=None, spans_path=None):
    """Set up and run one repetition in this process; returns the record."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import areasig
    from areasig import guard

    import tracing
    import workloads

    if Path(areasig.__file__).resolve().parent != SRC / "areasig":
        raise RuntimeError("imported areasig from %s, not %s" % (areasig.__file__, SRC))
    if reference is None:
        with open(REFERENCE_FILE, encoding="utf-8") as handle:
            reference = json.load(handle)
    problems = []
    if guard.get_term_budget() != guard.DEFAULT_TERM_BUDGET:
        problems.append("term budget is %d, not the default" % guard.get_term_budget())
    snapshot = tracing.bindings([workloads])
    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer([workloads])
        tracer.install()
    try:
        jobs = workloads.WORKLOADS[workload](seed, size)
        ready_ns = time.monotonic_ns()
        results, run_s, cpu_s, cal_ns = run_jobs(jobs, seed, size, reference, tracer)
    finally:
        if tracer is not None:
            problems.extend(tracer.uninstall())
    if tracer is None:
        problems.extend(tracing.untouched(snapshot, [workloads]))
    record = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "mode": mode,
        "setup_s": (ready_ns - t0_ns) / 1e9,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "cal_ns_per_step": cal_ns,
        "jobs": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": problems,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }
    if tracer is not None:
        record["trace"] = tracer.metrics()
        record["accounting"] = tracer.accounting()
        record["spans"] = len(tracer.spans)
        record["spans_dropped"] = tracer.spans_dropped
        if spans_path:
            tracer.write_spans(spans_path)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["plain", "traced"], default="plain")
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    record = repetition(
        args.workload, args.seed, args.size, args.mode, args.t0, spans_path=args.spans
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
