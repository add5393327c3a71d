"""Smoke tests of the benchmark at tiny sizes: python3 -m pytest perfbench/test_smoke.py

They sit outside the repository's ``tests`` directory, so the tier-1 run does
not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert "check FAIL" not in proc.stdout
    (HERE / ".work" / f"spans-{workload}-seed5.json").unlink(missing_ok=True)


def test_corrupted_output_raises_error_rate(tmp_path):
    wl = workloads.WORKLOADS["batch"]
    size = workloads.SIZES["tiny"]["batch"]
    inp, out = tmp_path / "in", tmp_path / "out"
    inp.mkdir()
    out.mkdir()
    wl.setup(5, size, inp)
    wl.run(wl.prepare(inp, size), out)
    assert all(c.ok for c in wl.checks(inp, size, [out]))

    # drop one inter-super-node edge from the written graph
    path = out / "transformed.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    edge = next(i for i, line in enumerate(lines) if line.startswith("E\t"))
    path.write_text("".join(lines[:edge] + lines[edge + 1:]), encoding="utf-8")
    failed = [c for c in wl.checks(inp, size, [out]) if not c.ok]
    assert failed and any("weight" in c.detail for c in failed)


def test_replay_check_catches_a_wrong_snapshot(tmp_path):
    wl = workloads.WORKLOADS["replay"]
    size = workloads.SIZES["tiny"]["replay"]
    inp, out = tmp_path / "in", tmp_path / "out"
    inp.mkdir()
    out.mkdir()
    wl.setup(5, size, inp)
    result = wl.run(wl.prepare(inp, size), out)
    wl.finish(result, out)
    assert all(c.ok for c in wl.checks(inp, size, [out]))

    path = out / "snapshot_graph.tsv"
    text = path.read_text(encoding="utf-8")
    i, j, w = next(line for line in text.splitlines() if line.startswith("E\t")).split("\t")[1:]
    path.write_text(text.replace(f"E\t{i}\t{j}\t{w}\n", f"E\t{i}\t{j}\t{float(w) + 1:.6f}\n", 1),
                    encoding="utf-8")
    assert not all(c.ok for c in wl.checks(inp, size, [out]))


def test_tail_needs_ten_samples_beyond_it():
    assert workloads.tail(list(range(19))) is None
    p, _, n = workloads.tail(list(range(20)))
    assert (p, n) == (50.0, 20)
    assert workloads.tail(list(range(1000)))[0] == 99.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("--workload", "batch", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
