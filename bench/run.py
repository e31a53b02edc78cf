"""Benchmark entry point: repeats a workload in fresh interpreters and reports.

    python3 bench/run.py --workload features|tables|identities \
        --seed N --seconds S --trace 0|1

--trace 0 starts one worker process after another (one closed-loop caller,
one thread) until the next would end after S seconds, at least one, and
reports the end-to-end metrics: medians over the repetitions, job
percentiles over every job run.  --trace 1 runs one untraced and one
traced repetition and reports the per-layer metrics.  Every job's output
is digested and checked in both modes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Full records (environment, per-job
digests, traced accounting, spans) go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("features", "tables", "identities")
RUN_LIMIT_S = 170  # every run must end within 180 s
# Times are reported at a reference host speed: each job's wall time is
# multiplied by REFERENCE_NS_PER_STEP / (the calibration ns per step
# measured while it ran); set-up uses its repetition's mean calibration.
# The speed of a shared host drifts by a third within minutes; the
# calibration samples taken during the jobs follow that drift.
REFERENCE_NS_PER_STEP = 4000.0


def program_present():
    return (ROOT / "src" / "areasig" / "__init__.py").is_file()


def declared_metrics(kind):
    """{name: unit} of the end_to_end or per_layer metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def with_units(values, kind):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared_metrics(kind).items()}


def worker_env():
    env = dict(os.environ)
    env.pop("AREASIG_TERM_BUDGET", None)  # every workload runs at the default budget
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode, deadline, tag):
    """One repetition in a fresh interpreter; returns its record."""
    out = OUT_DIR / ("%s-seed%d-%s.json" % (args.workload, args.seed, tag))
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--size", args.size,
        "--out", str(out),
    ]
    if mode == "traced":
        cmd += ["--spans", str(out.with_suffix(".spans.csv.gz"))]
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        cmd + ["--t0", str(t0)],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError("worker exited %d" % proc.returncode)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def job_percentiles(job_ms):
    """(p50, p90) over the jobs of each job's median time; p90 by nearest rank.

    Taking each job's median across the repetitions first keeps the
    percentiles off the extremes of a few noisy jobs when a workload has
    only 5 or 10 jobs.
    """
    ordered = sorted(statistics.median(times) for times in zip(*job_ms))
    p90 = ordered[-(-9 * len(ordered) // 10) - 1]
    return statistics.median(ordered), p90


def adjusted(seconds, ns_per_step):
    return seconds * REFERENCE_NS_PER_STEP / ns_per_step


def end_to_end(reps):
    job_ms = [[adjusted(job["ms"], job["cal_ns_per_step"]) for job in rep["jobs"]]
              for rep in reps]
    p50, p90 = job_percentiles(job_ms)
    values = {
        "run_s": statistics.median(sum(rep_ms) / 1e3 for rep_ms in job_ms),
        "job_ms_p50": p50,
        "job_ms_p90": p90,
        "setup_s": statistics.median(adjusted(rep["setup_s"], rep["cal_ns_per_step"])
                                     for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    return with_units(values, "end_to_end")


def per_layer(plain, traced):
    values = dict(traced["trace"])
    values["trace.overhead_ratio"] = traced["run_s"] / plain["run_s"]
    return with_units(values, "per_layer")


def summarise(args, reps, metrics):
    """Human-readable lines before the result line; returns (attempted, failed, ok)."""
    attempted = sum(len(rep["jobs"]) for rep in reps)
    failures = [(rep["mode"], job) for rep in reps for job in rep["jobs"] if job["failure"]]
    problems = [p for rep in reps for p in rep["problems"]]
    first = reps[0]
    print("# workload %s seed %d size %s trace %d: %d repetition(s), %d jobs each"
          % (args.workload, args.seed, args.size, args.trace, len(reps), len(first["jobs"])))
    print("# python %s, nproc %s" % (first["python"], first["nproc"]))
    for i, rep in enumerate(reps):
        calibration = rep["cal_ns_per_step"]
        print("# rep %d %-6s wall: run_s %.4f cpu_s %.4f setup_s %.4f; peak_rss_mb %.1f; "
              "calibration %s ns/step"
              % (i, rep["mode"], rep["run_s"], rep["cpu_s"], rep["setup_s"], rep["peak_rss_mb"],
                 "%.1f" % calibration if calibration else "off (traced)"))
    for job in first["jobs"]:
        print("# digest %s %s" % (job["id"], job["digest"]))
    for mode, job in failures:
        print("# FAILED (%s) %s: %s" % (mode, job["id"], job["failure"]))
    for problem in problems:
        print("# PROBLEM %s" % problem)
    print("# fail_ratio %.6f ratio (%d failed / %d attempted)"
          % (len(failures) / attempted, len(failures), attempted))
    for name, metric in metrics.items():
        print("# %s %s %s" % (name, metric["value"], metric["unit"]))
    return attempted, len(failures), not failures and not problems


def main(argv=None):
    parser = argparse.ArgumentParser(description="areasig benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not program_present():
        print("error: %s/src/areasig not found; run from a checkout of the repository"
              % ROOT, file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=1, maxlevels=0)
    try:
        if args.trace:
            plain = run_worker(args, "plain", deadline, "trace1-plain")
            traced = run_worker(args, "traced", deadline, "trace1-traced")
            reps = [plain, traced]
            metrics = per_layer(plain, traced)
        else:
            reps = []
            measure_end = start + args.seconds
            while True:
                began = time.monotonic()
                reps.append(run_worker(args, "plain", deadline, "rep%d" % len(reps)))
                took = time.monotonic() - began
                if time.monotonic() + took > measure_end:
                    break
            metrics = end_to_end(reps)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    attempted, failed, ok = summarise(args, reps, metrics)
    summary = {"args": vars(args), "reps": reps, "metrics": metrics}
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(OUT_DIR / (tag + ".json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
