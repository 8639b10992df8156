"""Self-test of the benchmark: every workload runs at a tiny size and prints
every metric ``BENCHMARK.json`` names; the correctness checks report a
planted wrong answer; no run leaves a process behind, even when killed.

    python3 -m pytest cdcbench/test_selftest.py -q   # from the checkout root, ~3 min
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _cmd(workload: str, trace: int, *extra: str) -> list[str]:
    return [sys.executable, "cdcbench/run.py", "--workload", workload,
            "--seed", "5", "--seconds", "2", "--trace", str(trace),
            "--scale", "tiny", *extra]


def _marked() -> list[int]:
    """Processes carrying any benchmark run's environment marker."""
    out = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == os.getpid():
            continue
        try:
            with open(f"/proc/{d}/environ", "rb") as f:
                env = f.read().split(b"\0")
            with open(f"/proc/{d}/stat") as f:
                zombie = f.read().rsplit(")", 1)[1].split()[0] == "Z"
        except OSError:
            continue
        if not zombie and any(e.startswith(b"CDCBENCH_RUN=") for e in env):
            out.append(int(d))
    return out


def run(workload: str, trace: int, *extra: str) -> dict:
    p = subprocess.run(_cmd(workload, trace, *extra), cwd=ROOT,
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    assert len(lines) == 1, f"stdout holds more than the result: {lines[:-1]}"
    assert not _marked(), "a process of the run outlived it"
    return json.loads(lines[0])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric(workload, trace):
    res = run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert set(res["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        if trace == 0:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload,plant", [
    ("backfill", "state"), ("tail", "state"), ("serve", "answer")])
def test_checks_fail_on_planted_wrong_answer(workload, plant):
    res = run(workload, 0, "--plant", plant)
    assert res["correct"] is False


def test_killed_run_leaves_no_process():
    p = subprocess.Popen(_cmd("tail", 0), cwd=ROOT, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 120
    while len(_marked()) < 3 and time.monotonic() < deadline:
        time.sleep(0.2)  # until Ray's processes are up
    assert _marked(), "the run never started Ray"
    p.send_signal(signal.SIGKILL)
    p.wait(timeout=10)
    deadline = time.monotonic() + 20
    while _marked() and time.monotonic() < deadline:
        time.sleep(0.2)
    assert not _marked(), "processes of a killed run are still alive"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for d in SPEC["paths"]:
        shutil.copytree(ROOT / d, tmp_path / d,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                       capture_output=True, text=True, timeout=180)
    assert p.returncode != 0 and not p.stdout.strip()
