"""Tests of the benchmark itself: smoke runs, a planted wrong answer, the
per-call budget, a tree without sources, and the traced call counts.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, root=ROOT, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=timeout)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_tree(dest, with_sources=True):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "bench", dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    out = result_of(bench("--workload", workload, "--seed", "5", "--seconds", "0",
                          "--trace", str(trace), "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1 and out["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_planted_wrong_certificate_fails_the_run(tmp_path):
    copy_tree(tmp_path)
    canon = tmp_path / "src" / "ncgraph" / "canon.py"
    canon.write_text(canon.read_text() + (
        "\n_true_certificate = certificate\n\n"
        "def certificate(graph):\n"
        "    return _true_certificate(graph) + bytes([graph.vertices[0] % 256])\n"))
    proc = bench("--workload", "canon-relabeled", "--seed", "1", "--seconds", "0",
                 "--trace", "0", "--smoke", root=tmp_path)
    assert proc.returncode != 0
    assert "wrong output" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_tiny_budget_is_counted_as_failures():
    out = result_of(bench("--workload", "canon-relabeled", "--seed", "1", "--seconds", "0",
                          "--trace", "0", "--smoke", "--budget", "0.000001"))
    assert out["failed"] > 0
    assert out["metrics"]["ok_ratio"]["value"] == 1 - out["failed"] / out["attempted"]


def test_tree_without_sources_fails_without_a_result(tmp_path):
    copy_tree(tmp_path, with_sources=False)
    proc = bench("--workload", "scan-default", "--seed", "1", "--seconds", "1",
                 "--trace", "0", root=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_default_scan_reproduces_baseline_counts():
    baseline = json.loads((ROOT / "bench" / "baseline.json").read_text())
    proc = bench("--workload", "scan-default", "--seed", "1", "--seconds", "0",
                 "--trace", "1")
    header = proc.stdout.splitlines()[1]
    metrics = {k: v["value"] for k, v in result_of(proc)["metrics"].items()}
    assert (metrics["graphs.build_nc_graph.from_catalog"]
            + metrics["graphs.build_nc_graph.from_audits"]
            == metrics["graphs.build_nc_graph.calls"])
    assert metrics["trace.accounted_ratio"] > 0.99
    if f"source_sha256={baseline['source_sha256']}" not in header:
        pytest.skip("ncgraph sources differ from the baseline's; counts may move")
    for name, count in baseline["scan_default_counts"].items():
        assert metrics[name] == count, name
