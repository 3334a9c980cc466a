"""In-memory span tracer that rebinds the package's stage functions.

Spans are recorded around calls into each layer from outside the
package: every stage function is replaced, for the lifetime of a
``Tracer.installed()`` block, at every module attribute that holds it.
Callers that imported a function by name (``from .allocation import
decisions_from_arrays``) and callers that look it up as a module global
at call time (the ``_eval_point`` closures inside the lambda bisections)
are therefore both caught.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "secure_ofdma"

# (span name, module, attribute).  Span names are "<module>.<stage>";
# the private ``_search`` module is named ``search`` because metric names
# must start with a letter.
STAGES = (
    ("channel.generate_ensemble", "channel", "generate_ensemble"),
    ("channel.column_order_stats", "channel", "column_order_stats"),
    ("dual_solver.solve_average", "dual_solver", "solve_average"),
    ("dual_solver.solve_peak", "dual_solver", "solve_peak"),
    ("dual_solver.outer", "dual_solver", "_dual_outer_loop"),
    ("dual_solver.initial_mu", "dual_solver", "_initial_mu"),
    ("dual_solver.lambda_avg", "dual_solver", "_solve_lambda_avg"),
    ("dual_solver.lambda_peak", "dual_solver", "_solve_lambda_peak"),
    ("dual_solver.eval_point", "dual_solver", "_eval_point"),
    ("dual_solver.trim", "dual_solver", "_trim_su_surplus"),
    ("dual_solver.refill", "dual_solver", "_refill_nu_water"),
    ("dual_solver.finish", "dual_solver", "_finish"),
    ("dual_solver.infeasible_result", "dual_solver", "_infeasible_result"),
    ("allocation.decisions_from_arrays", "allocation", "decisions_from_arrays"),
    ("evaluate.evaluate", "evaluate", "evaluate"),
    ("suboptimal.solve_suboptimal", "suboptimal", "solve_suboptimal"),
    ("suboptimal.su_phase", "suboptimal", "su_phase"),
    ("suboptimal.nu_phase", "suboptimal", "nu_phase"),
    ("suboptimal.assemble", "suboptimal", "_assemble_result"),
    ("search.search_threshold", "_search", "search_threshold"),
    ("search.bisect_monotone", "_search", "bisect_monotone"),
    ("baselines.solve_fsa", "baselines", "solve_fsa"),
    ("feasibility.check_feasibility", "feasibility", "check_feasibility"),
    ("experiments.run_experiment", "experiments", "run_experiment"),
    ("experiments.write_results", "experiments", "write_results"),
)

# the class is looked up by callers and by isinstance checks, so its
# constructor is wrapped instead of the name
PREPARE = ("dual_solver.prepare", "dual_solver", "_Prepared")

# a new solve id starts at each of these when no solve is open
SOLVE_ROOTS = frozenset({
    "dual_solver.solve_average", "dual_solver.solve_peak",
    "suboptimal.solve_suboptimal", "baselines.solve_fsa",
    "feasibility.check_feasibility",
})


def _module(name: str):
    # ``secure_ofdma.evaluate`` is the function on the package, so the
    # module has to come from the import system, not attribute access
    return importlib.import_module(f"{PACKAGE}.{name}")


def _eval_point_extra(args, kwargs, _out):
    prep = args[0]
    full = kwargs.get("full", True)
    # arrays the auction reads, summed from their sizes (computed, not measured)
    read = (prep.ln_wa.nbytes + prep.inv_alpha_nu.nbytes + prep.nu1.nbytes
            + prep.nu2.nbytes + prep.kmax.nbytes + prep.is_su_col.nbytes)
    return {"full": bool(full), "bytes": int(read)}


def _solve_extra(_args, _kwargs, out):
    return {"converged": bool(out.converged), "infeasible": bool(out.infeasible)}


# what each span records from its call on a normal return
EXTRAS = {
    "dual_solver.eval_point": _eval_point_extra,
    "dual_solver.solve_average": _solve_extra,
    "dual_solver.solve_peak": _solve_extra,
    "search.bisect_monotone": lambda a, k, out: {"steps": int(out.iterations)},
    "suboptimal.su_phase": lambda a, k, out: {"steps": int(out[1].iterations.sum())},
    "suboptimal.nu_phase": lambda a, k, out: {"steps": int(out[1].iterations)},
}


class Tracer:
    """Collects spans ``[id, name, start, end, parent, solve, extra]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._next_solve = 0
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        extra_fn = EXTRAS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[5] is not None:
                solve = parent[5]
            elif name in SOLVE_ROOTS:
                solve = self._next_solve
                self._next_solve += 1
            else:
                solve = None
            span = [len(self.spans), name, 0.0, 0.0,
                    parent[0] if parent else None, solve, None]
            self.spans.append(span)
            stack.append(span)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if extra_fn is not None:
                span[6] = extra_fn(args, kwargs, out)
            return out

        return traced

    def _rebind_everywhere(self, name, original) -> None:
        wrapped = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    @contextmanager
    def installed(self):
        """Rebind every stage for the duration of the block."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for name, mod_name, attr in STAGES:
                self._rebind_everywhere(name, getattr(_module(mod_name), attr))
            cls = getattr(_module(PREPARE[1]), PREPARE[2])
            init = cls.__init__
            self._saved.append((cls, "__init__", init))
            cls.__init__ = self._wrap(PREPARE[0], init)
            yield self
        finally:
            for obj, attr, original in reversed(self._saved):
                setattr(obj, attr, original)
            self._saved = []

    def dump_jsonl(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for sid, name, start, end, parent, solve, extra in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "solve": solve, "extra": extra,
                }) + "\n")


def self_times(spans) -> tuple[dict, list]:
    """Per-span self time, and the ids of spans whose children overrun them.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child_total = {}
    for s in spans:
        if s[4] is not None:
            child_total[s[4]] = child_total.get(s[4], 0.0) + (s[3] - s[2])
    selfs, bad = {}, []
    for s in spans:
        dur = s[3] - s[2]
        own = dur - child_total.get(s[0], 0.0)
        if own < -1e-9 * max(dur, 1.0):
            bad.append(s[0])
        selfs[s[0]] = own
    return selfs, bad
