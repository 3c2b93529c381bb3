"""Workloads at toy scale, the operation loop, and the BENCHMARK.json contract."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "scan_infer": dict(n_azimuth=40, width=8),
    "train_step": dict(n_azimuth=40, n_points=256, width=16),
    "deep_eval": dict(n_azimuth=40, depth=3, width=16),
}


def tiny(name, workdir, seed=0):
    workdir.mkdir(parents=True, exist_ok=True)
    work = workloads.WORKLOADS[name](seed, workdir, **TINY[name])
    work.setup()
    return work


@pytest.mark.parametrize("name", ["scan_infer", "deep_eval"])
def test_repeated_operations_give_identical_checked_outputs(name, tmp_path):
    work = tiny(name, tmp_path)
    records = [work.check(work.op()) for _ in range(2)]
    assert all(ok for ok, _ in records)
    assert records[0][1] == records[1][1]


def test_scan_infer_labels_every_raw_point(tmp_path):
    work = tiny("scan_infer", tmp_path)
    work.op()
    labels = np.fromfile(work.out_path, dtype="<u4")
    assert labels.size == work.points_per_op == 32 * 40


def test_check_rejects_changed_output(tmp_path):
    work = tiny("deep_eval", tmp_path)
    logits = work.op()
    assert work.check(logits)[0]
    assert not work.check(logits + 1.0)[0]
    assert not work.check(np.full_like(logits, np.nan))[0]


class _Flaky:
    points_per_op = 1

    def __init__(self):
        self.calls = 0

    def op(self):
        self.calls += 1
        if self.calls == 2:
            raise ValueError("boom")
        return self.calls

    def check(self, result):
        return result != 3, {"value": result}


def test_op_loop_counts_raised_errors_and_failed_checks():
    records, elapsed = run.run_ops(_Flaky(), seconds=0.0)
    assert len(records) == run.MIN_OPS
    assert [r["ok"] for r in records] == [True, False, False]
    assert "boom" in records[1]["error"]
    assert elapsed >= 0


def test_traced_runs_report_every_per_layer_metric(tmp_path):
    produced = set()
    for name in workloads.WORKLOADS:
        work = tiny(name, tmp_path / name)
        t = tracing.Tracer()
        uninstall = tracing.install(t)
        try:
            records, _ = run.run_ops(work, seconds=0.0, tracer=t)
        finally:
            uninstall()
        assert all(r["ok"] for r in records)
        for r in records:
            produced |= set(t.op_metrics(r["op"], r["seconds"]))
    wanted = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    assert wanted <= produced, sorted(wanted - produced)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmark"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(name_re.match(n) for n in names)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    argv = [sys.executable, "benchmark/run.py", "--workload", "scan_infer", "--seed", "1", "--seconds", "1", "--trace", "0"]
    child = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert "correct" not in child.stdout
