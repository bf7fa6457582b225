import json
from pathlib import Path

import pytest

from perfbench import layers, run, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER
    )


def test_sweep_golden_is_the_case_study_output():
    published = ROOT / "scripts" / "out" / "capacity_sweep.csv"
    if not published.exists():
        pytest.skip("scripts/out/capacity_sweep.csv is not in this checkout")
    assert (workloads.GOLDEN / "capacity_sweep.csv").read_bytes() == published.read_bytes()
