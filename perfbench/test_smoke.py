"""Smoke test of the benchmark itself: python3 -m pytest perfbench

Runs every workload at 8x8x1 shapes for a second, traced and untraced, and
checks the reported metric names and units against BENCHMARK.json. Also
checks the self-time arithmetic on synthetic spans.
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
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.HEADLINES)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        list(spans.LAYER_METRICS)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    S = spans.Span
    synthetic = [
        S("root", 0.0, 10.0, None),
        S("a", 1.0, 4.0, 0),
        S("b", 3.0, 6.0, 0),      # overlaps a: together they cover 1..6
        S("a.child", 2.0, 3.0, 1),
        S("c", 9.0, 12.0, 0),     # only 9..10 lies inside root
    ]
    assert spans.self_times(synthetic) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_normalise_per_operation():
    tracer = spans.Tracer()
    S = spans.Span
    tracer.spans = [
        S("op", 0.0, 2.0, None),
        S("model.forward_batch", 0.0, 1.0, 0, {"images": 10}),
        S("nn.conv_forward_batch.conv1", 0.25, 0.75, 1, {"flops": 4e9}),
        S("op", 2.0, 4.0, None),
        S("attacks.jsma", 2.0, 3.0, 3, {"iterations": 4, "success": False}),
    ]
    m = spans.layer_metrics(tracer, ops=2, overhead_pct=5.0)
    assert m["model.forward_batch.self_ms"]["value"] == pytest.approx(250.0)
    assert m["nn.conv_forward_batch.conv1.self_ms"]["value"] == pytest.approx(250.0)
    assert m["nn.conv_forward_batch.conv1.gflops"]["value"] == pytest.approx(8.0)
    assert m["model.forward_batch.images"]["value"] == pytest.approx(5.0)
    assert m["attacks.jsma.self_ms_per_iter"]["value"] == pytest.approx(250.0)
    assert m["attacks.jsma.iterations"]["value"] == pytest.approx(4.0)
    assert m["attacks.jsma.success_ratio"]["value"] == 0.0
    assert m["trace.overhead_pct"]["value"] == 5.0


def _run(cwd: Path, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.HEADLINES))
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "train_tq", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
