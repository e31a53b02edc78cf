"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import fractions
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import areasig  # noqa: E402
import areasig.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

END_TO_END = ("run_s", "job_ms_p50", "job_ms_p90", "setup_s", "peak_rss_mb")


def bench_config():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace == "1" else "end_to_end"
    for metric in bench_config()[key]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if trace == "0":
        assert all(result["metrics"][name]["value"] > 0 for name in END_TO_END)


def test_planted_wrong_digest_counts_as_failure():
    good = worker.repetition("tables", 0, "tiny", "plain", time.monotonic_ns())
    digests = {job["id"]: job["digest"] for job in good["jobs"]}
    assert all(job["failure"] is None for job in good["jobs"])
    planted = dict(digests)
    victim = sorted(planted)[0]
    planted[victim] = "0" * 64
    record = worker.repetition("tables", 0, "tiny", "plain", time.monotonic_ns(),
                               reference={"seed": 0, "digests": planted})
    failures = {job["id"]: job["failure"] for job in record["jobs"] if job["failure"]}
    assert failures == {victim: "digest mismatch"}

    class Args:
        workload, seed, size, trace = "tables", 0, "tiny", 0

    attempted, failed, ok = run.summarise(Args, [record], run.end_to_end([record]))
    assert (attempted, failed, ok) == (len(digests), 1, False)


def test_full_size_job_without_reference_fails():
    job = workloads.Job("tables/unknown", False, lambda: b"")
    assert worker.expected_digest({"seed": 0, "digests": {}}, job, 5, "full") == ""
    seeded = workloads.Job("features/unknown", True, lambda: b"")
    assert worker.expected_digest({"seed": 0, "digests": {}}, seeded, 5, "full") is None


def test_untraced_run_leaves_every_binding_original():
    snapshot = tracing.bindings([workloads])
    labels = {label for label, *_ in snapshot}
    # re-imports, the package namespace, dispatch dicts and classes are all found
    for label in ("areasig['pairing']", "areasig.double_tensor['shuffle_words']",
                  "areasig.cli['signature_pwl']", "areasig.trees['_OPS']['area']['a']",
                  "areasig.hall.HallBasis.dual_pbw", "fractions.Fraction.__new__"):
        assert label in labels
    record = worker.repetition("features", 1, "tiny", "plain", time.monotonic_ns())
    assert record["problems"] == []
    assert tracing.untouched(snapshot, [workloads]) == []

    tracer = tracing.Tracer([workloads])
    tracer.install()
    try:
        patched = tracing.untouched(snapshot, [workloads])
        assert areasig.double_tensor.shuffle_words is areasig.tensor.shuffle_words
        assert getattr(areasig.double_tensor.shuffle_words, tracing.MARK)
        assert getattr(areasig.cli.signature_pwl, tracing.MARK)
    finally:
        restored = tracer.uninstall()
    assert any("areasig.double_tensor['shuffle_words']" in p for p in patched)
    assert any("fractions.Fraction.__new__" in p for p in patched)
    assert restored == []
    assert tracing.untouched(snapshot, [workloads]) == []
    originals = {label: obj for label, _c, _k, obj in snapshot}
    assert vars(fractions.Fraction)["__new__"] is originals["fractions.Fraction.__new__"]


def test_layer_self_times_add_up_to_root_span():
    record = worker.repetition("identities", 2, "tiny", "traced", time.monotonic_ns())
    assert record["problems"] == []
    accounting = record["accounting"]
    assert accounting["root_ns"] == sum(accounting["self_ns"].values())
    trace = record["trace"]
    total = sum(trace["%s.self_s" % layer] for layer in tracing.LAYERS)
    total += trace["bench.self_s"] + trace["trace.self_s"]
    assert total == pytest.approx(accounting["root_ns"] / 1e9, abs=1e-6)
    for layer in tracing.LAYERS:  # the tiny identities job list reaches every layer
        assert trace["%s.calls" % layer] > 0, layer


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "features", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
