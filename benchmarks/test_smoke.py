"""Tiny-size runs of every workload and every output check of the benchmark.

Run from the repository root: `PYTHONPATH=src python -m pytest -q benchmarks`.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fake_transport
import homorag.pipeline
from harness import WORKLOADS, Bench

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _digest(stdout: str) -> str:
    return next(line.split()[-1] for line in stdout.splitlines() if "output_digest" in line)


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_and_checks(workload):
    digests = []
    for trace in (0, 1):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        digests.append(_digest(proc.stdout))
    # the traced run reproduces the untraced outputs
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "offline_shared", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _nondeterministic_prompt(monkeypatch):
    counter = itertools.count()
    original = homorag.pipeline.build_prompt
    monkeypatch.setattr(homorag.pipeline, "build_prompt",
                        lambda record, context: original(record, context) + str(next(counter)))


def _wrong_remote_answer(monkeypatch):
    answer = fake_transport._ANSWER["generator"]
    monkeypatch.setitem(fake_transport._ANSWER, "generator",
                        lambda payload: {"text": answer(payload)["text"] + " (remote)"})


def _drifting_labels(monkeypatch):
    counter = itertools.count()
    monkeypatch.setattr(homorag.pipeline, "segment_ig", lambda *a, **kw: next(counter) % 3 / 50)


@pytest.mark.parametrize("workload,fault", [
    ("offline_shared", _nondeterministic_prompt),
    ("offline_unique", _wrong_remote_answer),
    ("offline_unique", _drifting_labels),
])
def test_wrong_outputs_are_caught(monkeypatch, workload, fault):
    fault(monkeypatch)
    bench = Bench(workload, seed=3, seconds=0.1, traced=False, root=ROOT, smoke=True)
    bench.run()
    assert bench.checks.problems and bench.checks.failed > 0
