import json
import runpy
import shutil
import sys
from pathlib import Path

import pytest

from secure_ofdma import secrecy_rate_upper_bound

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_feasibility_map_prints_the_bound_table(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv",
                        ["feasibility_map.py", "--n", "16", "32", "--k", "2", "4"])
    runpy.run_path(str(SCRIPTS / "feasibility_map.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["N\\K", "2", "4"]
    for line, n in zip(lines[1:3], (16, 32)):
        cells = line.split()
        assert int(cells[0]) == n
        for cell, k in zip(cells[1:], (2, 4)):
            assert float(cell) == pytest.approx(secrecy_rate_upper_bound(n, k), abs=5e-5)
    assert "independent of the fading mean" in lines[-1]


def test_cell_diff_finds_no_difference_between_a_checkout_and_itself(tmp_path, capsys):
    root = str(SCRIPTS.parent)
    main = runpy.run_path(str(SCRIPTS / "cell_diff.py"))["main"]
    out = tmp_path / "verdict.json"
    # 100 frames keep every dual solve short; 10 frames run the loop for seconds
    assert main([root, root, "--seeds", "1", "--frames", "100", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["differing"] == []
    # every field the one-pass judge computes is compared, beside the rest
    assert {"owner", "power", "rate", "r_nu", "r_su", "avg_power", "su_power",
            "su_subcarriers", "dual_trace", "iterations", "message"} <= set(
        summary["fields"])
    assert {name: w["cells"] for name, w in summary["workloads"].items()} == {
        "sweep_avg": 24, "peak_cold": 16, "twophase": 60}
    # each checked-in sweep spec's CSV is compared byte for byte
    assert summary["csv"] == {p.name: "identical"
                              for p in sorted(SCRIPTS.glob("*.json"))}
    assert len(summary["csv"]) == 3
    src_lines = sum(p.read_bytes().count(b"\n")
                    for p in (SCRIPTS.parent / "src" / "secure_ofdma").glob("*.py"))
    assert summary["src_lines"] == {"parent": src_lines, "change": src_lines}
    # each side counts its auctions on freshly drawn ensembles; the
    # two-phase workload never enters the dual solver
    auctions = summary["auctions"]
    assert auctions["parent"] == auctions["change"]
    assert set(auctions["change"]) == {"sweep_avg", "peak_cold", "twophase"}
    for name in ("sweep_avg", "peak_cold"):
        counts = auctions["change"][name]
        assert counts["auctions"] >= counts["full"] > 0 and counts["nu"] > 0
        assert counts["water"] > 0 and counts["su_cols"] > 0
    assert auctions["change"]["twophase"] == {"auctions": 0, "full": 0, "nu": 0,
                                              "water": 0, "su_cols": 0}
    assert capsys.readouterr().out.splitlines() == [
        json.dumps(summary["workloads"]), json.dumps(summary["csv"]),
        json.dumps(auctions)]


def test_bench_pairs_compares_a_checkout_with_itself(tmp_path, capsys):
    # a copy, so the runs' perfbench/out/ files land outside the tree
    root = tmp_path / "checkout"
    skip = shutil.ignore_patterns("out", "__pycache__")
    for name in ("src", "perfbench"):
        shutil.copytree(SCRIPTS.parent / name, root / name, ignore=skip)
    shutil.copy(SCRIPTS.parent / "BENCHMARK.json", root)
    main = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["main"]
    out = tmp_path / "pairs.json"
    assert main([str(root), str(root), "--workloads", "sweep_avg", "--pairs", "1",
                 "--frames", "20", "--seconds", "0.5", "--out", str(out)]) == 0
    block = json.loads(out.read_text())["workloads"]["sweep_avg"]
    assert block["pairs"] == 1 and block["correct"]
    assert block["failed"] == {"parent": 0, "change": 0}
    metrics = block["metrics"]
    assert set(metrics) == {"wall_s", "setup_s", "peak_rss_mb", "r_nu_mean",
                            "passed_frac"}
    # the same code on the same seed gives the same results
    assert metrics["r_nu_mean"]["tied_pairs"] == metrics["passed_frac"]["tied_pairs"] == 1
    for m in metrics.values():
        assert len(m["parent_runs"]) == len(m["change_runs"]) == 1
        assert m["parent_iqr"] == 0.0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == [
        "pair 0 sweep_avg parent", "pair 0 sweep_avg change"]
    assert len(lines) == 2 + len(metrics)
