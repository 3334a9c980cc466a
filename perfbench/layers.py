"""Per-layer metrics computed from one traced repetition's spans.

Each metric names the module it measures; the end-to-end metric it
should move is listed in ``perfbench/README.md``.
"""

from __future__ import annotations

from tracer import self_times

MODULES = (
    "channel", "dual_solver", "allocation", "evaluate", "suboptimal",
    "search", "baselines", "feasibility", "experiments",
)

# (name, unit, better)
PER_LAYER = (
    ("dual_solver.eval_point.calls", "count", "lower"),
    ("dual_solver.eval_point.full_calls", "count", "lower"),
    ("dual_solver.eval_point.s", "s", "lower"),
    ("dual_solver.eval_point.ms_per_call", "ms", "lower"),
    ("dual_solver.eval_point.bytes_computed", "bytes", "lower"),
    ("dual_solver.eval_point.bytes_per_call", "bytes", "lower"),
    ("dual_solver.lambda.calls", "count", "lower"),
    ("dual_solver.lambda.evals", "count", "lower"),
    ("dual_solver.lambda.evals_per_resolve", "count", "lower"),
    ("dual_solver.lambda.s", "s", "lower"),
    ("dual_solver.initial_mu.calls", "count", "lower"),
    ("dual_solver.initial_mu.evals", "count", "lower"),
    ("dual_solver.initial_mu.eval_share", "frac", "lower"),
    ("dual_solver.initial_mu.s", "s", "lower"),
    ("dual_solver.outer.iterations", "count", "lower"),
    ("dual_solver.outer.self_s", "s", "lower"),
    ("dual_solver.prepare.s", "s", "lower"),
    ("dual_solver.trim.s", "s", "lower"),
    ("dual_solver.refill.s", "s", "lower"),
    ("dual_solver.finish.s", "s", "lower"),
    ("dual_solver.converged_frac", "frac", "higher"),
    ("allocation.decisions_from_arrays.calls", "count", "lower"),
    ("allocation.decisions_from_arrays.s", "s", "lower"),
    ("evaluate.evaluate.s", "s", "lower"),
    ("channel.generate_ensemble.s", "s", "lower"),
    ("channel.column_order_stats.calls", "count", "lower"),
    ("channel.column_order_stats.s", "s", "lower"),
    ("suboptimal.su_phase.s", "s", "lower"),
    ("suboptimal.su_phase.steps", "count", "lower"),
    ("suboptimal.nu_phase.s", "s", "lower"),
    ("suboptimal.nu_phase.steps", "count", "lower"),
    ("suboptimal.assemble.self_s", "s", "lower"),
    ("search.bisect_monotone.calls", "count", "lower"),
    ("search.bisect_monotone.steps", "count", "lower"),
    ("search.bisect_monotone.s", "s", "lower"),
    ("baselines.solve_fsa.s", "s", "lower"),
    ("feasibility.check_feasibility.s", "s", "lower"),
    ("experiments.write_results.s", "s", "lower"),
    ("experiments.run_experiment.self_s", "s", "lower"),
) + tuple((f"{m}.self_s", "s", "lower") for m in MODULES) + (
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# metrics that count work; they must repeat exactly for a fixed seed
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes"))


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one repetition, without the trace.* entries."""
    selfs, _ = self_times(spans)
    by_id = {s[0]: s for s in spans}

    def named(name):
        return [s for s in spans if s[1] == name]

    def total(name):
        return sum(s[3] - s[2] for s in named(name))

    def self_total(name):
        return sum(selfs[s[0]] for s in named(name))

    def steps(name):
        # a span whose call raised recorded no extra
        return sum((s[6] or {}).get("steps", 0) for s in named(name))

    def parent_name(s):
        return by_id[s[4]][1] if s[4] is not None else None

    evals = named("dual_solver.eval_point")
    lam_names = ("dual_solver.lambda_avg", "dual_solver.lambda_peak")
    lam_spans = [s for s in spans if s[1] in lam_names]
    lam_evals = sum(1 for s in evals if parent_name(s) in lam_names)
    mu_evals = sum(1 for s in evals if parent_name(s) == "dual_solver.initial_mu")
    dual_solves = [
        s for s in spans
        if s[1] in ("dual_solver.solve_average", "dual_solver.solve_peak")
        and s[6] is not None and not s[6]["infeasible"]
    ]
    eval_s = total("dual_solver.eval_point")
    bytes_total = sum(s[6]["bytes"] for s in evals if s[6])
    n_evals = max(len(evals), 1)  # ratios are 0 when there are no auctions

    m = {
        "dual_solver.eval_point.calls": len(evals),
        "dual_solver.eval_point.full_calls": sum(
            1 for s in evals if s[6] and s[6]["full"]
        ),
        "dual_solver.eval_point.s": eval_s,
        "dual_solver.eval_point.ms_per_call": 1e3 * eval_s / n_evals,
        "dual_solver.eval_point.bytes_computed": bytes_total,
        "dual_solver.eval_point.bytes_per_call": bytes_total // n_evals,
        "dual_solver.lambda.calls": len(lam_spans),
        "dual_solver.lambda.evals": lam_evals,
        "dual_solver.lambda.evals_per_resolve": lam_evals / max(len(lam_spans), 1),
        "dual_solver.lambda.s": sum(s[3] - s[2] for s in lam_spans),
        "dual_solver.initial_mu.calls": len(named("dual_solver.initial_mu")),
        "dual_solver.initial_mu.evals": mu_evals,
        "dual_solver.initial_mu.eval_share": mu_evals / n_evals,
        "dual_solver.initial_mu.s": total("dual_solver.initial_mu"),
        # one full auction per subgradient iteration, called from the loop itself
        "dual_solver.outer.iterations": sum(
            1 for s in evals if parent_name(s) == "dual_solver.outer"
        ),
        "dual_solver.outer.self_s": self_total("dual_solver.outer"),
        "dual_solver.prepare.s": total("dual_solver.prepare"),
        "dual_solver.trim.s": total("dual_solver.trim"),
        "dual_solver.refill.s": total("dual_solver.refill"),
        "dual_solver.finish.s": total("dual_solver.finish"),
        "dual_solver.converged_frac": (
            sum(1 for s in dual_solves if s[6]["converged"]) / len(dual_solves)
            if dual_solves else 0.0
        ),
        "allocation.decisions_from_arrays.calls": len(
            named("allocation.decisions_from_arrays")
        ),
        "allocation.decisions_from_arrays.s": total("allocation.decisions_from_arrays"),
        "evaluate.evaluate.s": total("evaluate.evaluate"),
        "channel.generate_ensemble.s": total("channel.generate_ensemble"),
        "channel.column_order_stats.calls": len(named("channel.column_order_stats")),
        "channel.column_order_stats.s": total("channel.column_order_stats"),
        "suboptimal.su_phase.s": total("suboptimal.su_phase"),
        "suboptimal.su_phase.steps": steps("suboptimal.su_phase"),
        "suboptimal.nu_phase.s": total("suboptimal.nu_phase"),
        "suboptimal.nu_phase.steps": steps("suboptimal.nu_phase"),
        "suboptimal.assemble.self_s": self_total("suboptimal.assemble"),
        "search.bisect_monotone.calls": len(named("search.bisect_monotone")),
        "search.bisect_monotone.steps": steps("search.bisect_monotone"),
        "search.bisect_monotone.s": total("search.bisect_monotone"),
        "baselines.solve_fsa.s": total("baselines.solve_fsa"),
        "feasibility.check_feasibility.s": total("feasibility.check_feasibility"),
        "experiments.write_results.s": total("experiments.write_results"),
        "experiments.run_experiment.self_s": self_total("experiments.run_experiment"),
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(
            selfs[s[0]] for s in spans if s[1].split(".", 1)[0] == mod
        )
    return m


def top_self(spans, n: int = 6) -> list[tuple[str, float]]:
    """Span names with the largest summed self time."""
    selfs, _ = self_times(spans)
    acc: dict[str, float] = {}
    for s in spans:
        acc[s[1]] = acc.get(s[1], 0.0) + selfs[s[0]]
    return sorted(acc.items(), key=lambda kv: -kv[1])[:n]
