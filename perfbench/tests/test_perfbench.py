"""The benchmark's own tests: tiny-scale runs of every workload, the metric
names against ``BENCHMARK.json``, the oracles, and exact counts.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
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

#: tensor scale and window of the smoke runs (a few seconds each)
TINY = ["--scale", "0.03", "--seconds", "1"]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


def expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_named_metric(workload, trace):
    proc, result = bench("--workload", workload, "--seed", "5",
                         "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = expected("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values()), \
        result["metrics"]


def test_exact_counts_repeat_between_runs():
    args = ("--workload", WORKLOADS[0], "--seed", "8", "--trace", "1", *TINY)
    runs = [bench(*args) for _ in range(2)]
    for proc, result in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    exact = ("storage_mb.", "mttkrp_mb.", "hicoo.", "plan.gather_mb",
             "serve.views_cached")
    counts = [{k: v["value"] for k, v in result["metrics"].items()
               if k.startswith(exact)} for _, result in runs]
    assert len(counts[0]) == 13
    assert counts[0] == counts[1]


@pytest.mark.parametrize("corrupt, shown", [
    ("fit", ["fits"]),
    ("digest", ["digest"]),
    # a configuration whose every cp_als call raises
    ("call", ["PROBLEM cpals alto-process: no timed iterations",
              "PROBLEM cpals alto-process call 0: ValueError"]),
])
def test_corrupted_output_fails_the_run(corrupt, shown):
    proc, result = bench("--workload", WORKLOADS[0], "--seed", "6",
                         "--trace", "0", "--corrupt", corrupt, *TINY)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    for text in shown:
        assert text in proc.stdout


def session_pids(sid):
    """Pids of the live processes in session ``sid``, from /proc."""
    pids = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):
            continue
        # the fields after the parenthesised command: state, ppid, pgrp,
        # session, ...
        if entry.name.isdigit() and int(stat.rsplit(")", 1)[1].split()[3]) \
                == sid:
            pids.append(int(entry.name))
    return pids


def test_no_process_outlives_a_run():
    """The pool workers, their resource trackers and the daemon have all
    ended by the time the command exits."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "9", "--trace", "0", *TINY], cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    assert proc.wait(timeout=300) == 0
    assert session_pids(proc.pid) == []


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("--workload", WORKLOADS[0], "--seed", "1",
                         "--trace", "0", *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
