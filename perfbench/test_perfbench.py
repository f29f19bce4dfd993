"""Self-tests of the benchmark, on tiny inputs.

    python3 -m pytest perfbench/test_perfbench.py -q
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
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "0.5", "--scale", "smoke", *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    lines = proc.stdout.splitlines()[:-1]
    for m in declared:
        assert any(ln.split()[:1] == [m["name"]] and f" {m['unit']}" in ln for ln in lines), m
    assert any(ln.startswith("error_rate") for ln in lines)
    if not trace:
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in declared)


@pytest.mark.parametrize("workload,fault,reason", [
    ("palette-gaussian", "off-palette", "palette"),
    ("palette-gaussian", "total", "reports"),
    ("palette-saltpepper", "off-palette", "palette"),
    ("cube-gaussian", "total", "reports"),
    ("exact-certify", "total", "reports")])
def test_corrupted_labelling_counts_as_failure_and_fails_the_command(workload, fault, reason):
    proc = bench("--workload", workload, "--inject-fault", fault)
    assert proc.returncode == 1
    res = result_of(proc)
    assert res["correct"] is False
    assert 0 < res["failed"] <= res["attempted"]
    failures = [ln for ln in proc.stdout.splitlines() if ln.startswith("# failure:")]
    assert failures and all(reason in ln for ln in failures), failures


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "palette-gaussian", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())


def test_tail_leaves_ten_samples_beyond():
    times = [float(i) for i in range(100)]
    value, pct = measure.tail(times)
    assert sum(t > value for t in times) == 10
    assert pct == pytest.approx(90.0)


def test_checks_use_the_tests_tolerance():
    assert workloads.close(1.0 + 5e-10, 1.0)
    assert not workloads.close(1.0 + 2e-9, 1.0)
    assert not workloads.close(50.0 + 2e-9, 50.0)
    assert workloads.within(3.0 + 5e-10, 3.0) and not workloads.within(3.0 + 2e-9, 3.0)
    tol = workloads.pixel_tol(2e5)
    assert workloads.close(2e5 * (1 + 5e-10), 2e5, tol)
    assert not workloads.close(2e5 * (1 + 2e-9), 2e5, tol)


def test_off_palette_colour_is_outside_the_palette():
    inputs = workloads.make("palette-saltpepper", "smoke").setup(42)
    assert workloads.colour_codes(inputs.off_palette)[0] not in set(inputs.palette_codes)
