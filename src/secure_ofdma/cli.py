"""Command-line front end.

Subcommands::

    generate          draw a seeded ensemble and write it to a file
    solve-optimal     dual-decomposition solver (mode from the config)
    solve-suboptimal  two-phase threshold/water-level solver
    baseline          fixed subcarrier assignment (--scheme fsa1|fsa2)
    feasibility-bound unbounded-power secrecy ceiling and per-target verdicts
    experiment        sweep described by a JSON spec file

Configs are JSON files with fields ``N, K, K1, C, omega, snr_db, mode,
rho, realizations, seed, epsilon``; ``C`` and ``omega`` accept a scalar
or a per-user list.  All file outputs are linear/nat units; dB appears
only here at the boundary.  Input that fails a check (a config, spec or
ensemble file, or a solve the solver rejects) exits with its message.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .baselines import SCHEMES
from .channel import ensemble_hash, generate_ensemble, load_ensemble, save_ensemble
from .config import RunSpec
from .experiments import ExperimentSpec, _run_solver, run_experiment
from .feasibility import check_feasibility, secrecy_rate_upper_bound


def _print_result(tag: str, run: RunSpec, result) -> None:
    rep = result.report
    status = "infeasible" if result.infeasible else (
        "converged" if result.converged else "not converged"
    )
    print(f"[{tag}] {status} after {result.iterations} iterations")
    if result.message:
        print(f"  note: {result.message}")
    print(f"  aggregate NU rate : {rep.r_nu_total:.6f} nat/OFDM symbol")
    for i, r in enumerate(np.atleast_1d(rep.r_su)):
        target = run.config.secrecy_targets[i]
        print(f"  SU {i + 1} secrecy    : {r:.6f} (target {target:.6f})")
    print(f"  average power     : {rep.avg_power:.6f} (budget {run.config.power:.6f})")
    print(f"  SU power / carriers: {rep.su_power:.6f} / {rep.su_subcarriers:.3f}")


def _dump_result(path, run: RunSpec, result) -> None:
    payload = {
        "config": run.config.to_dict(),
        "seed": run.seed,
        "realizations": run.realizations,
        "converged": result.converged,
        "infeasible": result.infeasible,
        "iterations": result.iterations,
        "message": result.message,
        "report": result.report.to_dict(),
        "mu": result.duals.mu.tolist(),
        "lambda": result.duals.lam,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _cmd_generate(args) -> int:
    run = RunSpec.from_file(args.config)
    ens = generate_ensemble(run.config, run.realizations, run.seed)
    save_ensemble(ens, args.out)
    print(
        f"wrote {args.out}: {ens.count} realizations of "
        f"{ens.n_users}x{ens.n_subcarriers}, rho={ens.rho}, seed={ens.seed}"
    )
    print(f"sha256 {ensemble_hash(ens)}")
    return 0


def _cmd_solve(args) -> int:
    """solve-optimal, solve-suboptimal and baseline: one solver by name."""
    run = RunSpec.from_file(args.config)
    ens = (load_ensemble(args.ensemble) if args.ensemble
           else generate_ensemble(run.config, run.realizations, run.seed))
    result = _run_solver(args.solver, ens, run.config, run.options)
    tag = f"optimal/{run.config.mode}" if args.solver == "optimal" else args.solver
    _print_result(tag, run, result)
    if args.out:
        _dump_result(args.out, run, result)
    return 0


def _cmd_feasibility(args) -> int:
    if args.config:
        cfg = RunSpec.from_file(args.config).config
        n, k, rho = cfg.n_subcarriers, cfg.n_users, cfg.rho
        targets = cfg.secrecy_targets
    else:
        if args.n is None or args.k is None:
            raise SystemExit("need --config or both --n and --k")
        n, k, rho = args.n, args.k, args.rho
        targets = np.asarray(args.targets or [], dtype=float)
        if not np.all((targets >= 0) & (targets < np.inf)):
            raise ValueError("secrecy targets must be finite and >= 0")
    bound = secrecy_rate_upper_bound(n, k, rho)
    print(f"secrecy-rate upper bound: {bound:.6f} nat/OFDM symbol "
          f"(N={n}, K={k}, rho={rho})")
    if targets.size:
        from types import SimpleNamespace

        cfg_like = SimpleNamespace(
            n_subcarriers=n, n_users=k, rho=rho, secrecy_targets=targets,
        )
        check = check_feasibility(cfg_like)
        for i, (c, verdict) in enumerate(zip(targets, check.verdicts)):
            print(f"  C_{i + 1} = {c:.4f}: {verdict}")
        print("  note: necessary condition only; finite power is stricter")
    return 0


def _cmd_experiment(args) -> int:
    spec = ExperimentSpec.from_file(args.spec)
    if args.out:
        spec.output = args.out
    rows = run_experiment(spec)
    print(f"{len(rows)} rows "
          f"({len(spec.values)} sweep points x {len(spec.solvers)} solvers)")
    if spec.output:
        print(f"wrote {spec.output} (+ .meta.json)")
    else:
        for row in rows:
            print(f"  {row['solver']:<12} {row['sweep']}={row['value']:g} "
                  f"status={row['status']} r_nu={row['r_nu_total']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secure-ofdma",
        description="OFDMA power/subcarrier allocation with secrecy guarantees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a seeded channel ensemble file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    for name, solver in (
        ("solve-optimal", "optimal"),
        ("solve-suboptimal", "suboptimal"),
        ("baseline", None),
    ):
        p = sub.add_parser(name, help=None if solver else "fixed subcarrier assignment")
        p.add_argument("--config", required=True)
        if solver is None:
            p.add_argument("--scheme", dest="solver", required=True, choices=SCHEMES)
        p.add_argument("--ensemble", help="reuse a generated ensemble file")
        p.add_argument("--out", help="write a JSON result file")
        p.set_defaults(func=_cmd_solve, solver=solver)

    p = sub.add_parser("feasibility-bound",
                       help="unbounded-power secrecy ceiling")
    p.add_argument("--config")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--targets", type=float, nargs="*")
    p.set_defaults(func=_cmd_feasibility)

    p = sub.add_parser("experiment", help="run a JSON sweep spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", help="override the spec's output path")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:  # a check rejected the input: exit with its message
        raise SystemExit(str(err)) from None


if __name__ == "__main__":
    sys.exit(main())
