"""Self-tests of the benchmark (not of torelli):

    python3 -m pytest -q bench/test_bench.py

They run every workload at a tiny size, so they take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

COUNTS = ("count", "bits", "ratio")


def _dump_rounds(seed, rounds=6):
    return json.dumps({w: [inputs.round_ops(w, seed, i) for i in range(rounds)]
                       for w in inputs.WORKLOADS}, sort_keys=True)


def test_inputs_are_a_pure_function_of_the_seed():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import test_bench; print(test_bench._dump_rounds(int(sys.argv[2])))")
    seen = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code, str(HERE), "11"],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        seen.append(out.strip())
    assert seen[0] == seen[1] == _dump_rounds(11)
    assert _dump_rounds(12) != _dump_rounds(11)
    assert (inputs.round_ops("calculus", 11, 0, stream="warmup")
            != inputs.round_ops("calculus", 11, 0))


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(inputs.WORKLOADS)
    import tracer
    assert tracer.GROUPS == run.GROUPS


def test_closed_forms_of_the_expectations():
    assert inputs.witt_rank(4, 3) == 20
    assert inputs.witt_rank(10, 3) - 10 == 320
    assert len(inputs.multidegrees(3, 6)) == 462
    from torelli.trees import all_multidegrees
    assert inputs.multidegrees(2, 6) == all_multidegrees(2, 6)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_run_completes(workload):
    result, record = run.run_workload(workload, 5, 0, False, size="tiny")
    assert result["correct"] and result["failed"] == 0, record["ops"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["info"]["failed_ratio"] == 0


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_counts_repeat_and_times_add_up(workload):
    counts = []
    for _ in range(2):
        result, record = run.run_workload(workload, 5, 0, True, size="tiny")
        assert result["correct"], record["ops"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert set(metrics) == set(run.PER_LAYER)
        counts.append({k: v for k, v in metrics.items()
                       if run.PER_LAYER[k] in COUNTS
                       and k != "trace.overhead_ratio"})
        selfs = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert selfs + metrics["trace.unattributed_s"] == pytest.approx(
            metrics["trace.op_s"])
    assert counts[0] == counts[1]


def test_speed_probe_prices_its_own_loop_at_one_loop():
    with speed.Probe() as probe:
        for _ in range(1000):
            speed.loop()
    assert probe.probes >= 4
    assert 0.7 < probe.cost / 1000 < 1.4
    assert 0 < probe.busy_s


def test_wrong_expectation_counts_as_a_failed_op(monkeypatch):
    real = inputs.round_ops

    def wrong(workload, seed, index, size="normal", stream="timed"):
        ops = real(workload, seed, index, size, stream)
        if index == 0:
            ops[0]["calls"][0]["expect"] = -1
        return ops

    monkeypatch.setattr(run.inputs, "round_ops", wrong)
    result, record = run.run_workload("sp-kernel", 5, 0, False, size="tiny")
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 2
    assert "expected -1" in record["ops"][0]["error"]


def test_wrong_identity_expectation_counts_as_a_failed_op():
    from torelli.words import get_table
    op = inputs.round_ops("calculus", 5, 0, size="tiny")[0]
    table = get_table(1, 4)
    assert child.run_calculus_op(op, table)["error"] is None
    assert child.run_calculus_op(dict(op, expect=False), table)["error"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "lcst", "--seed", "1", "--seconds",
                           "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
