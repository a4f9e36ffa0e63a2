"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in ``BENCHMARK.json`` is emitted for every
workload, that damaged output is counted as failed, and that the benchmark
refuses to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import worker  # noqa: E402
from workloads import FIG3_FILES, WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace, kind):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared(kind)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def _rewrite_report(out, edit):
    with open(out, encoding="utf-8") as f:
        report = json.load(f)
    edit(report)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report, f)


def _shift_first_gap(cmd, out):
    def edit(report):
        report["violations"][0]["observed_gap"] += 1e-9
    _rewrite_report(out, edit)


def _wrong_sample_count(cmd, out):
    def edit(report):
        report["n_samples"] += 1
    _rewrite_report(out, edit)


def _negative_order_gap(cmd, out):
    path = os.path.join(out, FIG3_FILES[0])
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    lines[-1] = "0.5,0.1,-0.001\n"
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


@pytest.mark.parametrize("workload,corrupt", [
    ("region-sweep", _shift_first_gap),
    ("figure-csv", _negative_order_gap),
    ("locc-pairs", _wrong_sample_count),
    ("ppt-pairs", _wrong_sample_count),
])
def test_corrupted_output_counts_as_failed(workload, corrupt, tmp_path):
    result = worker.run_loop(workload, 5, 0, False, "tiny", str(tmp_path), corrupt=corrupt)
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert result["problems"]


def test_nondeterministic_output_counts_as_failed(tmp_path):
    calls = []

    def append_on_second_run(cmd, out):
        calls.append(out)
        if len(calls) % 2 == 0:
            with open(out, "a", encoding="utf-8") as f:
                f.write(" ")

    result = worker.run_loop("ppt-pairs", 5, 0, False, "tiny", str(tmp_path),
                             corrupt=append_on_second_run)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "differ" in result["problems"][0]


def test_tracing_restores_the_package(tmp_path):
    import bineg.harness
    import bineg.measures
    import numpy as np

    before = (bineg.harness.binegativity, bineg.measures.partial_transpose, np.linalg.eigh)
    result = worker.run_loop("ppt-pairs", 5, 0, True, "tiny", str(tmp_path))
    assert result["failed"] == 0
    assert result["trace"]["functions"]["channels.project_to_ppt_channel"][0] > 0
    assert (bineg.harness.binegativity, bineg.measures.partial_transpose, np.linalg.eigh) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "region-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
