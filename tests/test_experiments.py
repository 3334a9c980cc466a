import json
from pathlib import Path

import pytest

from secure_ofdma import (
    ExperimentSpec,
    ensemble_hash,
    generate_ensemble,
    run_experiment,
    solve_average,
)
from secure_ofdma.config import SolverOptions

from conftest import make_config

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def small_spec(tmp_path=None, **overrides):
    base = dict(
        sweep="C",
        values=[0.2, 0.6],
        solvers=["optimal", "suboptimal"],
        config=make_config(n=16, k=4, k1=2, power=100.0),
        realizations=80,
        seed=5,
        options=SolverOptions(),
    )
    base.update(overrides)
    if tmp_path is not None:
        base["output"] = str(tmp_path / "rows.csv")
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_empty_solvers_rejected(self):
        with pytest.raises(ValueError):
            small_spec(solvers=[])

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            small_spec(solvers=["optimal", "magic"])

    def test_nonincreasing_grid_rejected(self):
        with pytest.raises(ValueError):
            small_spec(values=[0.6, 0.2])
        with pytest.raises(ValueError):
            small_spec(values=[])

    def test_from_dict_roundtrip(self):
        d = {
            "sweep": "snr_db",
            "values": [10, 20],
            "solvers": ["fsa1"],
            "config": {"N": 16, "K": 4, "K1": 2, "C": 0.2, "omega": 1.0,
                       "snr_db": 20, "mode": "average", "rho": 1.0},
            "realizations": 10,
            "seed": 3,
        }
        spec = ExperimentSpec.from_dict(d)
        assert spec.sweep == "snr_db"
        assert spec.config.n_users == 4

    def test_from_dict_rejects_unknown_keys(self):
        d = {
            "sweep": "C", "values": [0.2], "solvers": ["optimal"],
            "config": {"N": 16, "K": 4, "K1": 2, "snr_db": 20},
        }
        ExperimentSpec.from_dict(d)
        with pytest.raises(ValueError, match="warm_start"):
            ExperimentSpec.from_dict({**d, "warm_start": False})
        with pytest.raises(ValueError, match="realisations"):
            ExperimentSpec.from_dict({**d, "realisations": 10})
        with pytest.raises(ValueError, match="solver"):
            ExperimentSpec.from_dict({**d, "solver": {"method": "ellipsoid"}})
        with pytest.raises(ValueError, match="mdoe"):
            ExperimentSpec.from_dict({**d, "config": {**d["config"], "mdoe": "peak"}})

    @pytest.mark.parametrize("name", [
        "rate_frontier", "snr_sweep_average", "snr_sweep_peak",
    ])
    def test_checked_in_specs_load(self, name):
        spec = ExperimentSpec.from_file(SCRIPTS / f"{name}.json")
        cfg = spec.config
        assert (cfg.n_subcarriers, cfg.n_users, cfg.n_secure) == (64, 8, 4)
        assert (spec.seed, spec.realizations) == (2025, 2000)
        assert spec.output == f"results/{name}.csv"
        if cfg.mode == "peak":
            assert spec.solvers == ["optimal"]


class TestRun:
    def test_row_per_cell_with_paired_ensembles(self):
        spec = small_spec()
        rows = run_experiment(spec)
        assert len(rows) == 4
        # paired comparison: the ensemble is a pure function of the spec seed
        e1 = generate_ensemble(spec.config, spec.realizations, spec.seed)
        e2 = generate_ensemble(spec.config, spec.realizations, spec.seed)
        assert ensemble_hash(e1) == ensemble_hash(e2)

    def test_rows_capture_solver_failures(self):
        # an indivisible FSA partition must not kill the sweep
        spec = small_spec(
            solvers=["fsa2", "suboptimal"],
            config=make_config(n=18, k=4, k1=2, power=100.0),
        )
        rows = run_experiment(spec)
        fsa_rows = [r for r in rows if r["solver"] == "fsa2"]
        sub_rows = [r for r in rows if r["solver"] == "suboptimal"]
        assert all(r["status"].startswith("error") for r in fsa_rows)
        assert all(r["status"] in ("ok", "infeasible") for r in sub_rows)

    def test_output_files_reproducible(self, tmp_path):
        spec1 = small_spec(tmp_path=tmp_path)
        run_experiment(spec1)
        first = (tmp_path / "rows.csv").read_bytes()
        meta1 = json.loads((tmp_path / "rows.csv.meta.json").read_text())

        spec2 = small_spec(tmp_path=tmp_path)
        run_experiment(spec2)
        second = (tmp_path / "rows.csv").read_bytes()
        meta2 = json.loads((tmp_path / "rows.csv.meta.json").read_text())

        assert first == second
        assert meta1["csv_sha256"] == meta2["csv_sha256"]
        assert meta1["ensemble_sha256"] == meta2["ensemble_sha256"]

    def test_peak_sweep_runs_the_peak_solver(self, tmp_path):
        def run():
            rows = run_experiment(small_spec(
                tmp_path=tmp_path, solvers=["optimal"], realizations=40,
                config=make_config(n=16, k=4, k1=2, power=100.0, mode="peak"),
            ))
            return rows, (tmp_path / "rows.csv").read_bytes()

        rows, first = run()
        assert [(r["mode"], r["status"]) for r in rows] == [("peak", "ok")] * 2
        assert run()[1] == first

    def test_csv_columns_documented_order(self, tmp_path):
        spec = small_spec(tmp_path=tmp_path)
        run_experiment(spec)
        header = (tmp_path / "rows.csv").read_text().splitlines()[0]
        assert header.startswith(
            "sweep,value,solver,mode,status,converged,infeasible,iterations,"
            "r_nu_total,avg_power,su_power,su_subcarriers,realizations"
        )
        assert header.endswith("r_su_1,r_su_2")

    def test_snr_sweep_uses_power_conversion(self):
        spec = small_spec(
            sweep="snr_db", values=[10.0, 20.0], solvers=["suboptimal"],
            config=make_config(n=16, k=4, k1=2, c=0.1, power=1.0),
        )
        rows = run_experiment(spec)
        r10 = [r for r in rows if r["value"] == 10.0][0]
        r20 = [r for r in rows if r["value"] == 20.0][0]
        assert r20["avg_power"] > r10["avg_power"] * 5
        assert r20["r_nu_total"] > r10["r_nu_total"]


class TestSweepPointsIndependent:
    """A sweep row depends on its own point only, not on the rest of the grid."""

    GRID = [0.2, 0.6, 1.0, 1.4]
    FIELDS = ("converged", "infeasible", "iterations", "r_nu_total",
              "avg_power", "su_power", "su_subcarriers")

    def test_optimal_rows_match_standalone_solves(self):
        spec = small_spec(values=self.GRID, solvers=["optimal"])
        forward = run_experiment(spec)
        # the spec only accepts increasing grids, so reverse it after checking
        reversed_spec = small_spec(values=self.GRID, solvers=["optimal"])
        reversed_spec.values = self.GRID[::-1]
        backward = {row["value"]: row for row in run_experiment(reversed_spec)}
        ens = generate_ensemble(spec.config, spec.realizations, spec.seed)
        ok = [row for row in forward if row["status"] == "ok"]
        assert len(ok) >= 3
        for row in ok:
            c = row["value"]
            alone = solve_average(ens, spec.config.with_targets(c))
            expect = dict(
                converged=alone.converged, infeasible=alone.infeasible,
                iterations=alone.iterations, **{
                    f: getattr(alone.report, f) for f in self.FIELDS[3:]
                },
                r_su_1=float(alone.report.r_su[0]),
                r_su_2=float(alone.report.r_su[1]),
            )
            assert {f: row[f] for f in expect} == expect, c
            single = run_experiment(small_spec(values=[c], solvers=["optimal"]))
            assert row == backward[c] == single[0], c
