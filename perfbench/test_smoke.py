"""Smoke checks of the benchmark harness.

Run from the root of a checkout (kept outside the library's `testpaths`):

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout, check=False)


def test_short_mode_prints_every_end_to_end_metric_for_every_workload():
    proc = bench("--workload", "all", "--seconds", "1", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], proc.stdout
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    units["failed_frac"] = "1"
    printed = {tuple(line.split()[:2]): line.split()[-1] for line in lines[:-1]}
    for w in BENCH["workloads"]:
        for name, unit in units.items():
            metric = result["metrics"][f"{w['name']}.{name}"]
            assert metric["unit"] == unit
            assert printed[(w["name"], name)] == unit
        assert result["metrics"][f"{w['name']}.setup_s"]["value"] > 0
    for w in BENCH["workloads"]:
        assert result["metrics"][f"{w['name']}.failed_frac"]["value"] == 0


def test_traced_run_reports_every_per_layer_metric():
    proc = bench("--workload", "open_dynamics", "--seconds", "2", "--seed", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        k: v["unit"] for k, v in metrics.items()}
    assert metrics["opendyn.reduced_map.per_time"]["value"] == 2.0
    assert metrics["opendyn.unitary_at.per_time"]["value"] == 3.0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "channel_audit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
