"""Smoke test of the benchmark's own code: tiny sizes, one pass per workload.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, *extra: str) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace, key):
    lines, result = _run(workload, trace)
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith("metric %s " % name) and line.endswith(" " + unit) for line in lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_reference_value_makes_the_fail_ratio_nonzero(workload, tmp_path):
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    stored = reference["smoke"][workload]
    if workload == "tune-ladder":
        stored["rungs"][0]["theta"] *= 1.001
    elif workload == "paper-sweep":
        stored["rows"][0][4] *= 1.001
    else:
        stored["points"][0]["total"] *= 1.001
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference), encoding="utf-8")
    lines, result = _run(workload, 0, "--reference", str(corrupted))
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("# fail_ratio ") and not line.startswith("# fail_ratio 0 ") for line in lines)
