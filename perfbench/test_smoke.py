"""Smoke test of the benchmark itself, at a tiny frame count.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload end to end, untraced and traced, and checks that
every metric named in BENCHMARK.json is emitted with its unit and that
the trace's self-time arithmetic is consistent.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FRAMES = 60

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

run._import_package()

import workloads  # noqa: E402
from tracer import self_times  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--frames", str(FRAMES)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_emits_end_to_end_metrics(workload):
    out = _run(workload, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for k, v in out["metrics"].items() if k != "passed_frac")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_emits_per_layer_metrics_and_consistent_spans(workload):
    out = _run(workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    if workload == "twophase":
        assert metrics["dual_solver.eval_point.calls"] == 0
        assert metrics["allocation.decisions_from_arrays.calls"] > 0
    else:
        assert metrics["dual_solver.eval_point.calls"] > 0
        assert metrics["dual_solver.lambda.evals"] > 0

    lines = (run.OUT / f"trace-{workload}-seed3.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    spans = [
        [r["id"], r["name"], r["start"], r["end"], r["parent"], r["solve"], r["extra"]]
        for r in records
    ]
    assert spans
    by_id = {s[0]: s for s in spans}
    for s in spans:
        assert s[3] >= s[2]
        if s[4] is not None:
            parent = by_id[s[4]]
            assert parent[2] <= s[2] and s[3] <= parent[3]
            assert s[5] == parent[5] or parent[5] is None
    selfs, bad = self_times(spans)
    assert not bad
    assert all(v >= -1e-9 for v in selfs.values())
    rep = layers.layer_metrics(spans)
    per_module = sum(rep[f"{m}.self_s"] for m in layers.MODULES)
    roots = sum(s[3] - s[2] for s in spans if s[4] is None)
    assert per_module == pytest.approx(roots, rel=1e-6, abs=1e-9)
