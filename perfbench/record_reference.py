"""Record the per-cell reference values the output checks compare against.

    python3 perfbench/record_reference.py --seeds 101-110

Runs each named workload once per seed at its default frame count and
replaces its entry in ``reference.json``.  Per cell label the entry holds
R_NU and the per-SU secrecy rates averaged over all ensembles of all
seeds, and the largest relative R_NU offset of any one ensemble from
that mean (for the record; the checks use their own eps-derived
tolerance).  Re-record only when a change is meant to move
the solvers' results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

import run  # pins BLAS threads before NumPy loads

run._import_package()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="101-110")
    p.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = p.parse_args(argv)
    seeds = _seed_range(args.seeds)
    run.OUT.mkdir(exist_ok=True)

    ref = checks.REFERENCE_FILE
    table = json.loads(ref.read_text()) if ref.exists() else {}
    for name in args.workloads.split(","):
        wl = workloads.WORKLOADS[name]
        r_nu, r_su = defaultdict(list), defaultdict(list)
        for seed in seeds:
            inputs = workloads.make_inputs(wl, seed)
            _, cells = workloads.run_workload(name, inputs, run.OUT)
            for cell in cells:
                if cell.expect_infeasible:
                    continue
                if cell.result is None or cell.result.infeasible:
                    print(f"{name} seed {seed} {cell.label}: no solution",
                          file=sys.stderr)
                    return 1
                r_nu[cell.label].append(cell.result.report.r_nu_total)
                r_su[cell.label].append(np.asarray(cell.result.report.r_su))
            print(f"{name} seed {seed} done", file=sys.stderr, flush=True)
        cells_out = {}
        for label, values in r_nu.items():
            mean = float(np.mean(values))
            cells_out[label] = {
                "r_nu": mean,
                "r_su": np.mean(r_su[label], axis=0).tolist(),
                "max_rel_offset": float(np.max(np.abs(np.array(values) - mean)) / mean),
            }
        table[name] = {"frames": wl.frames, "seeds": args.seeds,
                       "ensembles_per_seed": wl.ensembles, "cells": cells_out}

    ref.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {ref}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
