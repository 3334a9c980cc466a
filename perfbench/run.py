"""Run one benchmark workload, untraced or traced, and print one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_avg --seed 1 --seconds 30 --trace 0

The seed makes the channel ensembles; the solvers receive only those.
Set-up (``generate_ensemble``) is repeated and reported as its median.
Repetitions of the workload then run until ``--seconds`` would be
exceeded (at least one), and ``wall_s`` is their median.  Every cell of
every repetition goes through the output checks in ``checks.py``.

With ``--trace 1`` half the time runs untraced and half traced; the
per-layer metrics come from the traced repetitions (counts from the
first, times as medians) and the spans of the first traced repetition
are written as JSONL under ``perfbench/out/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: the solvers are elementwise NumPy; BLAS only sees
# K-length dot products, and one thread keeps reduction order fixed so
# iteration counts repeat exactly.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 21

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("r_nu_mean", "nat/symbol"),
    ("passed_frac", "frac"),
)


def _import_package():
    """Import secure_ofdma from this checkout's src/, or exit non-zero."""
    if not (SRC / "secure_ofdma" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/secure_ofdma", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import secure_ofdma

    if Path(secure_ofdma.__file__).resolve().parent != (SRC / "secure_ofdma").resolve():
        print("error: secure_ofdma imported from outside this checkout",
              file=sys.stderr)
        sys.exit(2)
    return secure_ofdma


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--frames", type=int, default=None,
                   help="realizations per ensemble (default: the workload's)")
    return p.parse_args(argv)


def _median(xs):
    return float(statistics.median(xs))


def _repeat(body, budget: float) -> list[float]:
    """Call body() (which returns its timed seconds) until the next call
    would overrun ``budget`` seconds of wall clock; at least once."""
    walls, start = [], time.perf_counter()
    while True:
        walls.append(body())
        if time.perf_counter() - start + _median(walls) > budget:
            return walls


def machine_facts(np_module, scipy_module) -> dict:
    """Machine and run facts, read only (nothing is written or pinned)."""
    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": sys.version.split()[0],
        "numpy": np_module.__version__,
        "scipy": scipy_module.__version__,
        "blas": "unknown",
        "blas_threads_pinned": BLAS_THREADS,
        "system_changes": "none: nothing under /proc or /sys written, "
                          "no cache drops, no CPU pinning",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for level, index in (("l2", 2), ("l3", 3)):
        cache = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        try:
            facts[f"{level}_size"] = cache.read_text().strip()
        except OSError:
            facts[f"{level}_size"] = "unknown"
    try:
        blas = np_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return facts


def _size_bytes(text: str) -> int | None:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1] in units and text[:-1].isdigit():
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else None


def traced_metrics(wl, seed, frames, inputs, checker, wall_s, facts, budget):
    """Per-layer metrics from traced repetitions of the workload."""
    import layers
    import workloads
    from tracer import Tracer, self_times

    reps, walls, tracers = [], [], []

    def traced():
        tracer = Tracer()
        with tracer.installed():
            workloads.make_inputs(wl, seed, frames)
            wall, cells = workloads.run_workload(wl.name, inputs, OUT)
        checker.check(cells)
        _, bad = self_times(tracer.spans)
        if bad:
            checker.failures.append(f"trace: {len(bad)} spans overrun by children")
        reps.append(layers.layer_metrics(tracer.spans))
        walls.append(wall)
        tracers.append(tracer)
        return wall

    _repeat(traced, budget)
    first = reps[0]
    for rep in reps[1:]:
        moved = [k for k in layers.COUNTS if rep[k] != first[k]]
        if moved:
            checker.failures.append(f"trace: counts differ between reps: {moved}")
    first.update({"trace.wall_s": _median(walls),
                  "trace.overhead_s": _median(walls) - wall_s})
    metrics = {}
    for name, unit, _ in layers.PER_LAYER:
        if name in layers.COUNTS or name.startswith("trace."):
            value = first[name]
        else:
            value = _median([rep[name] for rep in reps])
        metrics[name] = {"value": value, "unit": unit}

    path = OUT / f"trace-{wl.name}-seed{seed}.jsonl"
    tracers[0].dump_jsonl(path, facts)
    print(f"# spans: {path.relative_to(ROOT)}")
    print("# eval_point bytes per call (computed from array sizes, not "
          f"measured): {first['dual_solver.eval_point.bytes_per_call']}; "
          f"L2 {_size_bytes(facts['l2_size'])} bytes")
    print("# largest self time: " + ", ".join(
        f"{n} {s:.3f}s" for n, s in layers.top_self(tracers[0].spans)
    ))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_package()

    import json
    import resource

    import numpy as np
    import scipy

    import checks
    import workloads
    from secure_ofdma import SolverOptions

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    frames = args.frames or wl.frames
    OUT.mkdir(exist_ok=True)

    facts = machine_facts(np, scipy)
    facts.update(workload=wl.name, seed=args.seed, frames=frames,
                 ensembles=wl.ensembles, trace=args.trace)
    print("# facts " + json.dumps(facts, sort_keys=True))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workloads.make_inputs(wl, args.seed, frames)
        setup_times.append(time.perf_counter() - t0)

    checker = checks.CellChecker(
        SolverOptions().epsilon, checks.load_reference(wl.name, frames)
    )
    budget = args.seconds / 2 if args.trace else args.seconds
    r_nu = []

    def untraced():
        wall, cells = workloads.run_workload(wl.name, inputs, OUT)
        feasible = checker.check(cells)
        if not r_nu:
            r_nu.extend(feasible)
        return wall

    walls = _repeat(untraced, budget)
    wall_s = _median(walls)
    print(f"# {wl.name}: {len(walls)} reps, wall_s "
          f"{[round(w, 4) for w in walls]}, setup_s median of {SETUP_REPEATS}")

    if args.trace:
        metrics = traced_metrics(wl, args.seed, frames, inputs, checker,
                                 wall_s, facts, budget)

    failed = len(checker.failures)
    for line in checker.failures:
        print(f"# FAILED {line}")
    print(f"# failed_frac {failed / checker.attempted:.6g} "
          f"({failed} of {checker.attempted} cells)")

    if not args.trace:
        values = {
            "wall_s": wall_s,
            "setup_s": _median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "r_nu_mean": float(np.mean(r_nu)) if r_nu else 0.0,
            "passed_frac": 1.0 - failed / checker.attempted,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
