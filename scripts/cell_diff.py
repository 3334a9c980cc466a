"""Compare every benchmark cell of two checkouts, field by field.

    python scripts/cell_diff.py PARENT CHANGE [--seeds 1 2] [--frames N] [--out FILE]

Each checkout runs the three ``perfbench/workloads.py`` workloads and
its own ``scripts/*.json`` sweep specs (at ``--frames`` realizations
when that is given) in a subprocess on its own ``src/``.  Cells are
compared on their owners, powers and per-column rates (by digest),
prices, dual trace, iterations, flags, message, R_NU, per-SU secrecy,
mean power, SU power and SU subcarrier count; each sweep's CSV is
compared byte for byte.  Each checkout also counts, per workload, its
dual-solver auctions (``dual_solver._eval_point`` calls), the full-width
ones among them (no frame subset, nor, on checkouts that take one, an
SU subset), its NU auctions (``_NuCandidates.auction`` calls), its
NU water pricings (``_NuCandidates.water`` calls, where the checkout has
them) and the SU columns it prices with the closed form (the elements
passed to ``dual_solver._h_su_core``), on ensembles drawn afresh, so
every price-free search is counted too.  Where an SU probe sets the
other SUs to ``mu = 0`` and a peak probe of most frames prices every
frame, both are whole auctions and count as full.  Each differing cell
is printed with the largest change of each numeric field, then the
verdict on each CSV and both checkouts' auction counts, and ``--out``
gets a JSON summary that also names every compared field and each
checkout's ``src/`` line count.  Exits 1 when a cell or a CSV differs.
"""

import argparse
import json
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CHILD = r"""
import hashlib, pickle, sys, tempfile
from pathlib import Path
root, out, frames, seeds = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), sys.argv[4:]
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import numpy as np
import workloads
from secure_ofdma import dual_solver, rates
from secure_ofdma.experiments import ExperimentSpec, run_experiment

# all are looked up at call time: the auction and the SU closed form as
# module globals, the NU auction and water pricing as methods
eval_point, nu_auction = dual_solver._eval_point, rates._NuCandidates.auction
h_su_core = dual_solver._h_su_core
nu_water = getattr(rates._NuCandidates, "water", None)

def counted_eval_point(prep, mu, lam, *args, **kwargs):
    # a narrow probe passes a frame (or, on older checkouts, an SU) subset
    tally["auctions"] += 1
    tally["full"] += all(a is None for a in (*args, *kwargs.values()))
    return eval_point(prep, mu, lam, *args, **kwargs)

def counted_h_su_core(alpha, *args, **kwargs):
    tally["su_cols"] += np.size(alpha)
    return h_su_core(alpha, *args, **kwargs)

def counted_nu_auction(self, *args, **kwargs):
    tally["nu"] += 1
    return nu_auction(self, *args, **kwargs)

def counted_nu_water(self, *args, **kwargs):
    tally["water"] += 1
    return nu_water(self, *args, **kwargs)

def fields(r):
    digest = lambda a: hashlib.sha256(np.ascontiguousarray(a)).hexdigest()
    rep = r.report
    return {"owner": digest(r.decisions.owner), "power": digest(r.decisions.power),
            "rate": digest(r.decisions.rate), "mu": r.duals.mu, "lam": r.duals.lam,
            "frame_prices": r.lambda_per_realization,
            "dual_trace": np.asarray(r.dual_trace, float), "iterations": r.iterations,
            "converged": r.converged, "infeasible": r.infeasible, "message": r.message,
            "r_nu": rep.r_nu_total, "r_su": rep.r_su, "avg_power": rep.avg_power,
            "su_power": rep.su_power, "su_subcarriers": rep.su_subcarriers}

cells, csv, auctions = {}, {}, {}
dual_solver._eval_point, dual_solver._h_su_core = counted_eval_point, counted_h_su_core
rates._NuCandidates.auction = counted_nu_auction
if nu_water is not None:
    rates._NuCandidates.water = counted_nu_water
with tempfile.TemporaryDirectory() as tmp:
    for name, w in workloads.WORKLOADS.items():
        auctions[name] = tally = {"auctions": 0, "full": 0, "nu": 0, "water": 0,
                                  "su_cols": 0}
        for seed in map(int, seeds):
            ens = workloads.make_inputs(w, seed, frames or None)
            for c in workloads.run_workload(name, ens, Path(tmp))[1]:
                key = f"{name} seed={seed} ens={c.ensemble_index} {c.label}"
                cells[key] = {"error": c.error, **(fields(c.result) if c.result else {})}
    dual_solver._eval_point, dual_solver._h_su_core = eval_point, h_su_core
    rates._NuCandidates.auction = nu_auction
    if nu_water is not None:
        rates._NuCandidates.water = nu_water
    for path in sorted((root / "scripts").glob("*.json")):
        spec = ExperimentSpec.from_file(path)
        spec.realizations = frames or spec.realizations
        spec.output = str(Path(tmp) / f"{path.stem}.csv")
        run_experiment(spec)
        csv[path.name] = Path(spec.output).read_bytes()
package = root / "src" / "secure_ofdma"
lines = sum(p.read_bytes().count(b"\n") for p in package.glob("*.py"))
Path(out).write_bytes(pickle.dumps((cells, csv, lines, auctions)))
"""


def change(a, b):
    """``None`` when equal; else the largest numeric change, or ``"differs"``."""
    try:
        if np.shape(a) == np.shape(b) and np.array_equal(a, b, equal_nan=True):
            return None
        return float(np.max(np.abs(np.subtract(a, b, dtype=float))))
    except (TypeError, ValueError):   # a digest, message, error or None
        same = a is b or isinstance(a, str) and isinstance(b, str) and a == b
        return None if same else "differs"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--frames", type=int, default=0, help="0: each workload's own")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    sides = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, root in enumerate((args.parent, args.change)):
            out = Path(tmp) / f"{i}.pkl"
            subprocess.run([sys.executable, "-c", CHILD, str(Path(root).resolve()),
                            str(out), str(args.frames), *map(str, args.seeds)], check=True)
            sides.append(pickle.loads(out.read_bytes()))
    (old, old_csv, old_lines, old_count), (new, new_csv, new_lines, new_count) = sides
    diffs, counts, compared = [], {}, set()
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, {}), new.get(key, {})
        compared |= a.keys() | b.keys()
        moved = {f: change(a.get(f), b.get(f)) for f in sorted(a.keys() | b.keys())}
        moved = {f: d for f, d in moved.items() if d is not None}
        tally = counts.setdefault(key.split()[0], {"cells": 0, "differing": 0})
        tally["cells"] += 1
        if moved:
            tally["differing"] += 1
            diffs.append({"cell": key, "fields": moved})
            print(key, json.dumps(moved))
    csv = {name: "identical" if old_csv.get(name) == new_csv.get(name) else "differs"
           for name in sorted(old_csv.keys() | new_csv.keys())}
    auctions = {"parent": old_count, "change": new_count}
    print(json.dumps(counts))
    print(json.dumps(csv))
    print(json.dumps(auctions))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"parent": args.parent, "change": args.change, "seeds": args.seeds,
             "frames": args.frames or "workload default", "workloads": counts,
             "fields": sorted(compared), "differing": diffs, "csv": csv,
             "auctions": auctions,
             "src_lines": {"parent": old_lines, "change": new_lines}}, indent=1) + "\n")
    return 1 if diffs or "differs" in csv.values() else 0


if __name__ == "__main__":
    sys.exit(main())
