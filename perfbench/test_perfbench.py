"""Self-test of the benchmark: a tiny smoke run of every workload, plain and
traced, and the correctness check firing on corrupted artifacts.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE_SCALE = 0.25
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=300, check=False)


def test_benchmark_json_matches_the_harness():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == (
        run.LAYER_METRICS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--scale", str(SMOKE_SCALE))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_LOOPS
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    report = "\n".join(lines[:-1])
    assert "seed=3" in report and '"nproc"' in report
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert f"{name} " in report, name


def _loop_pair(tmp_path):
    """A cold loop and one more loop of the same tiny input."""
    workload = WORKLOADS["sphere-specular-pps"]
    cli, configs, _, _, _ = run.set_up(workload, 0, tmp_path, scale=SMOKE_SCALE)
    run.run_loop(cli, workload, 0, configs, tmp_path / "loop")
    run.check_loop(workload, tmp_path / "loop", reference=tmp_path / "cold")
    return workload


def test_correctness_check_fires_on_a_corrupted_artifact(tmp_path):
    workload = _loop_pair(tmp_path)
    depth = tmp_path / "loop" / "recon" / "depth.pfm"
    data = bytearray(depth.read_bytes())
    data[-1] ^= 0x01
    depth.write_bytes(bytes(data))
    with pytest.raises(run.LoopFailure, match="depth.pfm"):
        run.check_loop(workload, tmp_path / "loop", reference=tmp_path / "cold")


def test_correctness_check_fires_on_a_missing_artifact(tmp_path):
    workload = _loop_pair(tmp_path)
    (tmp_path / "loop" / "recon" / "grad_x.pfm").unlink()
    with pytest.raises(run.LoopFailure, match="artifact set"):
        run.check_loop(workload, tmp_path / "loop", reference=tmp_path / "cold")


def test_correctness_check_fires_on_an_accuracy_failure(tmp_path):
    workload = _loop_pair(tmp_path)
    path = tmp_path / "loop" / "eval" / "evaluation.json"
    evaluation = json.loads(path.read_text())
    path.write_text(json.dumps(dict(evaluation, mse_normalized=0.5)))
    with pytest.raises(run.LoopFailure, match="mse_normalized"):
        run.check_loop(workload, tmp_path / "loop")


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "relief-diffuse-lpps", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
