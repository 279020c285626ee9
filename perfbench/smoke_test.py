"""Smoke test of the benchmark: every workload at minimal size.

Run from the repository root:

    python3 -m pytest -q perfbench/smoke_test.py

It checks that each metric BENCHMARK.json names is printed with its unit,
that a deliberately corrupted output counts as a failed operation, that
tracing leaves the program's functions as it found them, and that the
benchmark fails without printing a result when the program is missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# The results each workload prints above the JSON line besides the
# end-to-end metrics.
WORKLOAD_RESULTS = {
    "fedavg": ("train_s", "test_acc_final"),
    "fedavg-2w": ("train_s", "test_acc_final"),
    "audit": ("attack_s", "ablate_s", "probe_ms_p50", "probe_ms_p99",
              "probe_samples", "auc_resmia"),
    "report-large": ("report_s", "auc_resmia", "records"),
}


def bench(capsys, workload, trace, corrupt=False):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke"], corrupt=corrupt)
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def printed(lines, name, unit):
    return any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
               for line in lines)


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    code, lines, result = bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        row = result["metrics"][m["name"]]
        assert row["unit"] == m["unit"]
        assert isinstance(row["value"], (int, float))
        assert printed(lines, m["name"], m["unit"])
        if not trace:
            assert row["value"] > 0, m["name"]
    if not trace:
        for name in WORKLOAD_RESULTS[workload]:
            assert any(line.startswith(f"{name} = ") for line in lines), name
        assert any(line.startswith("fail_ratio = 0.0 ") for line in lines)
    assert any(line.startswith("machine: ") for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_output_raises_fail_ratio(capsys, workload):
    code, lines, result = bench(capsys, workload, 0, corrupt=True)
    assert code == 0
    assert result["failed"] >= 1 and not result["correct"]
    ratio = next(line for line in lines if line.startswith("fail_ratio = "))
    assert float(ratio.split()[2]) > 0


def test_tracing_restores_every_original(capsys):
    from fedaudit import attacks, cli, data, federated, metrics, nn, tensors
    targets = run.wrap_targets(cli, data, nn, tensors, federated, attacks,
                               metrics)
    before = [owner.__dict__[attr] for owner, attr, _ in targets]
    code, _, result = bench(capsys, "audit", 1)
    assert code == 0 and result["correct"]
    assert [owner.__dict__[attr] for owner, attr, _ in targets] == before
    assert attacks.erosion_sequence is tensors.erosion_sequence


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fedavg",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
