"""Run the benchmark in two checkouts as interleaved pairs and compare them.

    python scripts/bench_pairs.py PARENT CHANGE [--workloads W ...] [--seed S]
        [--pairs 10] [--seconds 30] [--frames N] [--out FILE]

Each pair runs every workload once in each checkout, untraced, with that
checkout's own ``perfbench/run.py`` and ``src/``; the parent runs first
in even pairs (0, 2, ...) and the change first in odd ones.  Each run
is printed as it ends.  Then, per workload and end-to-end metric (the
names and their better direction from the change's ``BENCHMARK.json``),
it prints each side's median and quartiles, the parent's IQR (the
distance between its quartiles), the pairs the change wins and ties,
and whether the change meets the gain rule: it wins at least nine
tenths of the pairs, and its median is better by more than the parent's
IQR.  ``--out`` gets the per-workload block a ``BENCH_*.json`` carries.
Exits 1 when a run fails a cell check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run(root, workload, seed, seconds, frames):
    """One untraced benchmark run in checkout ``root``: its JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if frames:
        cmd += ["--frames", str(frames)]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def compare(parent, change, better, pairs):
    """The summary of one metric's runs on both sides, in pair order."""
    sign = 1.0 if better == "higher" else -1.0
    q_parent, q_change = (np.percentile(runs, [25, 50, 75]) for runs in (parent, change))
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins, ties = sum(g > 0 for g in gains), sum(g == 0 for g in gains)
    iqr = q_parent[2] - q_parent[0]
    gain = sign * (q_change[1] - q_parent[1])
    return {
        "parent_q1_median_q3": [round(float(q), 6) for q in q_parent],
        "change_q1_median_q3": [round(float(q), 6) for q in q_change],
        "parent_iqr": round(float(iqr), 6),
        "median_rel_change": round(float(q_change[1] / q_parent[1] - 1.0), 4)
        if q_parent[1] else None,
        "change_better_pairs": int(wins),
        "tied_pairs": int(ties),
        "meets_gain_rule": bool(10 * wins >= 9 * pairs and gain > iqr),
        "parent_runs": [round(float(x), 6) for x in parent],
        "change_runs": [round(float(x), 6) for x in change],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workloads", nargs="+",
                    default=["sweep_avg", "peak_cold", "twophase"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--frames", type=int, default=0, help="0: each workload's own")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {w: {"parent": [], "change": []} for w in args.workloads}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in args.workloads:
            for side in order:
                result = run(roots[side], workload, args.seed, args.seconds, args.frames)
                runs[workload][side].append(result)
                wall = result["metrics"]["wall_s"]["value"]
                print(f"pair {pair} {workload} {side}: wall_s {wall:.4f}, "
                      f"failed {result['failed']} of {result['attempted']}", flush=True)
    block = {}
    for workload, sides in runs.items():
        metrics = {}
        for name, direction in better.items():
            parent, change = ([r["metrics"][name]["value"] for r in sides[s]]
                              for s in ("parent", "change"))
            metrics[name] = m = compare(parent, change, direction, args.pairs)
            print(f"{workload} {name}: parent {m['parent_q1_median_q3']} "
                  f"(IQR {m['parent_iqr']}), change {m['change_q1_median_q3']}, "
                  f"change better in {m['change_better_pairs']} of {args.pairs} "
                  f"pairs, {m['tied_pairs']} tied; gain rule "
                  f"{'met' if m['meets_gain_rule'] else 'not met'}")
        block[workload] = {
            "pairs": args.pairs, "metrics": metrics,
            **{key: {s: sum(r[key] for r in sides[s]) for s in sides}
               for key in ("failed", "attempted")},
            "correct": all(r["correct"] for s in sides.values() for r in s),
        }
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"command": "python3 perfbench/run.py --workload W --seed "
                        f"{args.seed} --seconds {args.seconds:g} --trace 0"
                        + (f" --frames {args.frames}" if args.frames else ""),
             "workloads": block}, indent=1) + "\n")
    return 0 if all(w["correct"] for w in block.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
