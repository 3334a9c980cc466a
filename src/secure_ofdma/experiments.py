"""Sweep orchestration: run solver variants over shared ensembles.

Every sweep point reuses one seeded ensemble so solver comparisons are
paired, and every point is solved on its own: nothing carries from one
point to the next, so a row does not depend on the rest of the grid.
Rows are emitted in a fixed documented column order and output files are
byte-reproducible for a given spec.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import solve_fsa
from .channel import ChannelEnsemble, ensemble_hash, generate_ensemble
from .config import (
    RUN_FIELD_KEYS, ProblemConfig, SolverOptions, run_fields, snr_db_to_power,
)
from .dual_solver import solve_average, solve_peak
from .suboptimal import solve_suboptimal

SOLVERS = ("optimal", "suboptimal", "fsa1", "fsa2")
SWEEPS = ("C", "snr_db")
SPEC_KEYS = {"sweep", "values", "solvers", "config", "output"} | RUN_FIELD_KEYS

# fixed CSV column order, before the per-SU rate columns
BASE_COLUMNS = (
    "sweep", "value", "solver", "mode", "status", "converged", "infeasible",
    "iterations", "r_nu_total", "avg_power", "su_power", "su_subcarriers",
    "realizations",
)


@dataclass
class ExperimentSpec:
    sweep: str
    values: list
    solvers: list
    config: ProblemConfig
    realizations: int = 2000
    seed: int = 0
    options: SolverOptions = field(default_factory=SolverOptions)
    output: str | None = None

    def __post_init__(self):
        if self.sweep not in SWEEPS:
            raise ValueError(f"sweep must be one of {SWEEPS}")
        values = [float(v) for v in self.values]
        if not values:
            raise ValueError("sweep values must be nonempty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        self.values = values
        if not self.solvers:
            raise ValueError("solver list must be nonempty")
        unknown = set(self.solvers) - set(SOLVERS)
        if unknown:
            raise ValueError(f"unknown solvers: {sorted(unknown)}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        unknown = set(d) - SPEC_KEYS
        if unknown:
            raise ValueError(f"unknown experiment spec keys: {sorted(unknown)}")
        return cls(
            sweep=d["sweep"],
            values=d["values"],
            solvers=list(d["solvers"]),
            config=ProblemConfig.from_dict(d["config"]),
            output=d.get("output"),
            **run_fields(d),
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        with open(Path(path)) as fh:
            return cls.from_dict(json.load(fh))


def _point_config(spec: ExperimentSpec, value: float) -> ProblemConfig:
    if spec.sweep == "C":
        return spec.config.with_targets(value)
    return spec.config.with_power(snr_db_to_power(value))


def _run_solver(name, ensemble, cfg, opts):
    if name == "optimal":
        if cfg.mode == "peak":
            return solve_peak(ensemble, cfg, opts)
        return solve_average(ensemble, cfg, opts)
    if name == "suboptimal":
        return solve_suboptimal(ensemble, cfg, opts)
    if name in ("fsa1", "fsa2"):
        return solve_fsa(ensemble, cfg, name, opts)
    raise ValueError(f"unknown solver {name!r}")


def run_experiment(spec: ExperimentSpec):
    """Run every (sweep value, solver) cell; failures become error rows.

    Returns the row dicts; when ``spec.output`` is set also writes the CSV
    plus a JSON sidecar (spec echo, ensemble hash, content hash).
    """
    ensemble = generate_ensemble(spec.config, spec.realizations, spec.seed)
    k1 = spec.config.n_secure
    rows = []
    for value in spec.values:
        cfg = _point_config(spec, value)
        for solver in spec.solvers:
            row = {
                "sweep": spec.sweep,
                "value": value,
                "solver": solver,
                "mode": cfg.mode,
                "realizations": spec.realizations,
            }
            try:
                result = _run_solver(solver, ensemble, cfg, spec.options)
            except Exception as err:  # keep the sweep alive
                row.update(
                    status=f"error: {err}", converged=False, infeasible=False,
                    iterations=0, r_nu_total=np.nan, avg_power=np.nan,
                    su_power=np.nan, su_subcarriers=np.nan,
                )
                for i in range(k1):
                    row[f"r_su_{i + 1}"] = np.nan
                rows.append(row)
                continue
            rep = result.report
            row.update(
                status="infeasible" if result.infeasible else "ok",
                converged=result.converged,
                infeasible=result.infeasible,
                iterations=result.iterations,
                r_nu_total=rep.r_nu_total,
                avg_power=rep.avg_power,
                su_power=rep.su_power,
                su_subcarriers=rep.su_subcarriers,
            )
            for i in range(k1):
                row[f"r_su_{i + 1}"] = float(rep.r_su[i])
            rows.append(row)
    if spec.output:
        write_results(spec, ensemble, rows)
    return rows


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "nan" if np.isnan(v) else f"{v:.12g}"
    return str(v)


def rows_to_csv(rows, k1: int) -> str:
    columns = list(BASE_COLUMNS) + [f"r_su_{i + 1}" for i in range(k1)]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


def write_results(spec: ExperimentSpec, ensemble: ChannelEnsemble, rows) -> None:
    out = Path(spec.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_text = rows_to_csv(rows, spec.config.n_secure)
    out.write_text(csv_text)
    meta = {
        "spec": {
            "sweep": spec.sweep,
            "values": spec.values,
            "solvers": list(spec.solvers),
            "config": spec.config.to_dict(),
            "realizations": spec.realizations,
            "seed": spec.seed,
            "epsilon": spec.options.epsilon,
        },
        "package_version": __version__,
        "ensemble_sha256": ensemble_hash(ensemble),
        "csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
        "columns": list(BASE_COLUMNS)
        + [f"r_su_{i + 1}" for i in range(spec.config.n_secure)],
    }
    out.with_suffix(out.suffix + ".meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )
