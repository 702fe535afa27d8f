"""Smoke runs of the walkthrough scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

from homorag.config import MODE_STAGES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, env=None):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], capture_output=True,
                          text=True, timeout=120, env=env)


def test_ablation_run_prints_one_table_per_mode(tmp_path):
    proc = run_script("ablation_run.py", "--out", str(tmp_path / "work"))
    assert proc.returncode == 0, proc.stderr
    headers = [l for l in proc.stdout.splitlines() if l.startswith("### mode: ")]
    assert [h.split()[2] for h in headers] == list(MODE_STAGES)
    assert all("errors 0)" in h for h in headers)
    assert proc.stdout.count("\ntask ") == len(MODE_STAGES)  # one metric table each
    for mode in MODE_STAGES:
        assert (tmp_path / "work" / mode / "report.txt").is_file()


def test_case_study_prints_each_stage_and_the_prompt(tmp_path):
    proc = run_script("run_case_study.py", env=dict(os.environ, TMPDIR=str(tmp_path)))
    assert proc.returncode == 0, proc.stderr
    for section in ("=== raw pool", "=== horizontal pool", "=== vertical pool", "=== prompt ===",
                    "=== generated answer (mock) ==="):
        assert section in proc.stdout
    assert f"work dir: {tmp_path}" in proc.stdout
