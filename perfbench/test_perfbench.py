"""Self-tests of the benchmark, outside the package's own test suite:

    python3 -m pytest perfbench

Tampered outputs must count as failed operations, the result line must have
the schema BENCHMARK.json promises, and without the program the benchmark
must fail instead of printing a result.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _set_field(text: str, step: int, col: int, value) -> str:
    """The CSV with one field in the row of `step` (stride 1) replaced."""
    lines = text.split("\n")
    fields = lines[step + 1].split(",")
    fields[col] = value(fields[col])
    lines[step + 1] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("tamper", [
    lambda text: _set_field(text, 50, 1, lambda v: repr(float(v) + 1e-6)),  # H off
    lambda text: _set_field(text, 1500, 4, lambda v: "nan"),  # dI not finite
    lambda text: text.rsplit("\n", 2)[0] + "\n",  # last row dropped
])
def test_tampered_csv_counts_as_failed(tmp_path, tamper):
    wl = workloads.RunPresets(0)
    spec = next(wl.specs())
    raw = wl.run(spec, tmp_path)
    good = (tmp_path / "run.csv").read_text()
    assert wl.check(spec, raw, tmp_path).failed == 0
    bad = tamper(good)
    assert bad != good
    (tmp_path / "run.csv").write_text(bad)
    outcome = wl.check(spec, raw, tmp_path)
    assert (outcome.attempted, outcome.failed, outcome.steps) == (1, 1, 0)


def test_tampered_report_counts_as_failed(tmp_path):
    wl = workloads.ProbeGrid(0)
    point = next(wl.specs())
    results = wl.run(point, tmp_path)
    assert wl.check(point, results, tmp_path).failed == 0
    erkn2 = results[1]
    assert erkn2.method == "ERKN2"
    forged = dataclasses.replace(
        erkn2, check_text=erkn2.check_text.replace("symmetric: pass", "symmetric: fail"))
    tampered = results[:1] + [forged] + results[2:]
    assert wl.check(point, tampered, tmp_path).failed == 1


@pytest.mark.parametrize("workload,trace", [("run_presets", 1), ("probe_grid", 0)])
def test_result_line_schema(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
    if trace:  # run_presets steps ERKN2 only, so the trig step has no spans
        assert result["metrics"]["splitting.trig_step_us"]["value"] == 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
