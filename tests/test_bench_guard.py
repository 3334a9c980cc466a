"""The benchmark's tracer and workloads still fit the package.

``perfbench/tracer.py`` rebinds stage functions by module and name,
wraps the ``_Prepared`` constructor and reads a few ``_Prepared`` arrays,
``perfbench/workloads.py`` builds an ``ExperimentSpec`` of its own, and
``perfbench/checks.py`` judges every result through the per-frame view
and ``validate_exclusivity``.  A refactor that renames one of them, or
stops accepting that spec, would otherwise only show up as a crash, or
as silently zeroed counts, in a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from secure_ofdma import (
    SolverOptions, generate_ensemble, solve_average, solve_fsa, solve_peak,
    solve_suboptimal,
)
from secure_ofdma.dual_solver import _Prepared

from conftest import make_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


def test_every_stage_resolves_on_the_package(tracer):
    def resolve(mod, attr):
        return getattr(importlib.import_module(f"{tracer.PACKAGE}.{mod}"), attr)

    for name, mod, attr in tracer.STAGES:
        assert callable(resolve(mod, attr)), name
    _, mod, attr = tracer.PREPARE
    assert isinstance(resolve(mod, attr), type)


def test_prepared_exposes_what_the_auction_span_reads(tracer):
    cfg = make_config(n=4, k=3, k1=1)
    prep = _Prepared(generate_ensemble(cfg, 2, seed=1), cfg)
    for attr in ("ln_wa", "inv_alpha_nu", "nu1", "nu2", "kmax", "is_su_col"):
        assert isinstance(getattr(prep, attr), np.ndarray), attr
    extra = tracer._eval_point_extra((prep,), {"full": False}, None)
    assert extra == {"full": False, "bytes": extra["bytes"]} and extra["bytes"] > 0


def test_traced_solves_attribute_auctions_to_their_stages(tracer):
    # lambda and mu auctions are counted from spans whose direct parent
    # is the stage, so no traced function may sit between them
    cfg = make_config(n=8, k=4, k1=2, c=0.4, power=50.0, mode="peak")
    cfg_avg = make_config(n=8, k=4, k1=2, c=0.4, power=50.0)
    ens = generate_ensemble(cfg, 20, seed=3)
    spans = tracer.Tracer()
    with spans.installed():
        solve_peak(ens, cfg)
        solve_suboptimal(ens, cfg_avg)
        solve_average(ens, cfg_avg)
    name = {s[0]: s[1] for s in spans.spans}
    parents = {
        name[s[4]] for s in spans.spans
        if s[1] == "dual_solver.eval_point" and s[4] is not None
    }
    # both power modes' price searches share one untraced body, so the
    # dual_solver.lambda.* metrics count the auctions of either mode; the
    # primal is recovered from the loop's best auction, so the finish
    # stage prices nothing
    assert {"dual_solver.lambda_peak", "dual_solver.lambda_avg",
            "dual_solver.initial_mu", "dual_solver.outer"} <= parents
    assert "dual_solver.finish" not in parents
    # the two-phase NU level is solved exactly, not bisected: one NU phase
    # span counts its level solves, and no bisect_monotone span opens
    steps = [s[6]["steps"] for s in spans.spans if s[1] == "suboptimal.nu_phase"]
    assert len(steps) == 1 and steps[0] >= 1
    assert not [s for s in spans.spans if s[1] == "search.bisect_monotone"]
    # the peak trim tunes its thresholds through the shared search, inside
    # its own span, so dual_solver.trim.s covers the search; a trim that
    # searches makes one per-SU search, with no per-frame loop around it
    trims = {s[0]: s for s in spans.spans if s[1] == "dual_solver.trim"}
    searches = [s for s in spans.spans
                if s[1] == "search.search_threshold" and s[4] in trims]
    assert searches
    assert all(trims[s[4]][2] <= s[2] <= s[3] <= trims[s[4]][3] for s in searches)
    per_trim = [s[4] for s in searches]
    assert all(per_trim.count(i) == 1 for i in set(per_trim))


def test_screened_auctions_keep_their_stage_and_one_prepare_span(
    tracer, monkeypatch,
):
    # the searches price views of the prepared ensemble, built without
    # its constructor: a traced solve still opens one prepare span, every
    # auction on a contested view is a lambda or mu auction of its stage,
    # and every auction on a frame view, or on a view narrowed from one, a
    # peak lambda auction
    from secure_ofdma import dual_solver

    views, frame_views = [], []
    contested, rows = dual_solver._Prepared.contested, dual_solver._Prepared.rows

    def keep(self, mu, lam):
        views.append(contested(self, mu, lam))
        return views[-1]

    def keep_rows(self, frames):
        frame_views.append(rows(self, frames))
        return frame_views[-1]

    on_view, on_rows = [], []
    eval_point = dual_solver._eval_point

    def note(prep, *args, **kwargs):
        on_view.append(any(prep is v for v in views))
        built = len(frame_views)
        out = eval_point(prep, *args, **kwargs)
        # the auction prices the frame view, or a view narrowed from it
        # (without the columns of SUs at mu = 0), which keeps its frames
        on_rows.append(len(frame_views) > built
                       and out.prep.nu_rows is frame_views[-1].nu_rows)
        return out

    monkeypatch.setattr(dual_solver._Prepared, "contested", keep)
    monkeypatch.setattr(dual_solver._Prepared, "rows", keep_rows)
    monkeypatch.setattr(dual_solver, "_eval_point", note)
    cfg = make_config(n=16, k=4, k1=2, c=0.4, power=50.0)
    ens = generate_ensemble(cfg, 40, seed=4)
    spans = tracer.Tracer()
    with spans.installed():
        # looked up on the module, where the tracer rebinds them as roots
        dual_solver.solve_average(ens, cfg)
        dual_solver.solve_peak(ens, make_config(n=16, k=4, k1=2, c=0.4,
                                                power=50.0, mode="peak"))
    name = {s[0]: s[1] for s in spans.spans}
    prepares = [s[5] for s in spans.spans if s[1] == "dual_solver.prepare"]
    assert sorted(prepares) == [0, 1]
    evals = [s for s in spans.spans if s[1] == "dual_solver.eval_point"]
    assert len(evals) == len(on_view)
    parents = [name[s[4]] for s, v in zip(evals, on_view) if v]
    assert set(parents) == {"dual_solver.lambda_avg", "dual_solver.lambda_peak",
                            "dual_solver.initial_mu"}
    assert frame_views and sum(on_rows) == len(frame_views)
    parents = [name[s[4]] for s, v in zip(evals, on_rows) if v]
    assert set(parents) == {"dual_solver.lambda_peak"}


def test_two_phase_solves_never_enter_the_dual_solver(tracer):
    # the twophase workload is the benchmark's bypass: a dual-solver
    # change must not move it, so its solvers may open no dual_solver span
    cfg = make_config(n=8, k=4, k1=2, c=0.05, power=50.0)
    ens = generate_ensemble(cfg, 20, seed=3)
    spans = tracer.Tracer()
    with spans.installed():
        solve_suboptimal(ens, cfg)
        solve_fsa(ens, cfg, "fsa1")
        two_phase = [s[1] for s in spans.spans]
        solve_average(ens, cfg)
    assert two_phase.count("suboptimal.su_phase") == 2
    assert two_phase.count("search.search_threshold") == 2
    assert not [n for n in two_phase if n.startswith("dual_solver.")]
    # the ensemble's order statistics are computed once, by the first
    # solve, through the traced function, and shared by the other two
    names = [s[1] for s in spans.spans]
    assert names.count("channel.column_order_stats") == 1
    assert two_phase.count("channel.column_order_stats") == 1
    assert "dual_solver.prepare" in names


def test_sweep_workload_runs_on_the_package(tmp_path):
    workloads = _load("workloads")
    ens = generate_ensemble(workloads.headline_config(), 2, seed=1)
    cells = workloads._run_sweep([ens], tmp_path)
    assert [c.label for c in cells] == [f"C={v}" for v in workloads.SWEEP_GRID]
    assert all(c.error is None and c.result is not None for c in cells)
    assert cells[-1].expect_infeasible and cells[-1].result.infeasible
    assert (tmp_path / f"sweep_avg-{ens.seed}.csv").is_file()


def test_output_checks_pass_a_peak_solve():
    checks, workloads = _load("checks"), _load("workloads")
    cfg = make_config(n=16, k=4, k1=2, c=0.5, power=100.0, mode="peak")
    res = solve_peak(generate_ensemble(cfg, 100, seed=8), cfg)
    cell = workloads.Cell("C=0.5", cfg, 0, result=res)
    assert checks.check_cell(cell, SolverOptions().epsilon, None) == []
