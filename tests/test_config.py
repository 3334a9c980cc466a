import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from secure_ofdma import DualState, ProblemConfig, RunSpec, SolverOptions, dual_solver
from secure_ofdma.config import power_to_snr_db, snr_db_to_power

from conftest import make_config


class TestProblemConfig:
    def test_su_nu_split_invariants(self):
        with pytest.raises(ValueError):
            make_config(k=4, k1=0)
        with pytest.raises(ValueError):
            make_config(k=4, k1=4)
        with pytest.raises(ValueError):
            make_config(n=0)

    def test_vector_lengths_enforced(self):
        with pytest.raises(ValueError):
            make_config(k=4, k1=2, c=[0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            make_config(k=4, k1=2, omega=[1.0])

    def test_sign_constraints(self):
        with pytest.raises(ValueError):
            make_config(c=-0.1)
        with pytest.raises(ValueError):
            make_config(omega=0.0)
        with pytest.raises(ValueError):
            make_config(power=0.0)
        with pytest.raises(ValueError):
            make_config(mode="sometimes")
        # non-finite inputs fail here, not as NaNs or a stall inside a solve
        for bad in (np.nan, np.inf):
            for field in ("c", "omega", "power", "rho"):
                with pytest.raises(ValueError, match="finite"):
                    make_config(**{field: bad})
        with pytest.raises(ValueError, match="finite"):
            make_config(c=[0.1, np.nan, 0.2, 0.3])
        # counts are whole numbers: a fraction fails instead of truncating
        # and a bool (JSON's true) is an int subclass, not a count
        for bad in (8.9, True):
            with pytest.raises(ValueError, match="n_subcarriers"):
                make_config(n=bad)
        base = {"N": 8, "K": 4, "K1": 1, "snr_db": 10}
        for key, field, bad in [("N", "n_subcarriers", 8.9), ("K", "n_users", 4.5),
                                ("K1", "n_secure", 1.7), ("N", "n_subcarriers", "8"),
                                ("N", "n_subcarriers", True), ("K", "n_users", True),
                                ("K1", "n_secure", True)]:
            with pytest.raises(ValueError, match=f"{field} must be a whole number"):
                RunSpec.from_dict({**base, key: bad})
        cfg = ProblemConfig.from_dict({**base, "N": 8.0})
        assert cfg.n_subcarriers == 8 and isinstance(cfg.n_subcarriers, int)

    def test_snr_conversion_roundtrip(self):
        assert snr_db_to_power(30.0) == pytest.approx(1000.0)
        assert power_to_snr_db(snr_db_to_power(17.3)) == pytest.approx(17.3)

    @pytest.mark.parametrize("snr_db", [1e4, -1e4, np.inf, np.nan])
    def test_snr_without_a_finite_positive_budget_is_rejected(self, snr_db):
        with pytest.raises(ValueError, match="no finite positive power budget"):
            snr_db_to_power(snr_db)

    def test_from_dict_broadcasts_scalars(self):
        cfg = ProblemConfig.from_dict(
            {"N": 8, "K": 4, "K1": 2, "C": 0.5, "omega": 2.0, "snr_db": 10.0}
        )
        assert np.array_equal(cfg.secrecy_targets, [0.5, 0.5])
        assert np.array_equal(cfg.weights, [2.0, 2.0])
        assert cfg.power == pytest.approx(10.0)

    def test_with_targets_keeps_other_fields(self):
        cfg = make_config(c=0.2)
        cfg2 = cfg.with_targets(1.5)
        assert np.all(cfg2.secrecy_targets == 1.5)
        assert cfg2.power == cfg.power
        assert np.all(cfg.secrecy_targets == 0.2)


class TestSolverOptions:
    def test_defaults_follow_contract(self):
        opts = SolverOptions()
        assert opts.epsilon == 1e-2
        # epsilon is the one option; the loop's limits are constants
        assert [f.name for f in fields(SolverOptions)] == ["epsilon"]
        assert dual_solver._MAX_ITERATIONS == 5000
        assert dual_solver._MU_CEILING == 1e6

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(epsilon=0.0)
        # removed knobs: one dual method, a fixed step scale, price floor,
        # iteration cap and multiplier ceiling, and no solver block
        payload = {"N": 8, "K": 4, "K1": 2, "snr_db": 20.0}
        for key, value in [("stepsize", 1.0), ("keep_decisions", False),
                           ("method", "subgradient"), ("step_scale", 0.5),
                           ("lambda_floor", 1e-12), ("max_iterations", 100),
                           ("multiplier_ceiling", 1e6), ("solver", {})]:
            with pytest.raises(ValueError, match=f"unknown run config keys: .*{key}"):
                RunSpec.from_dict({**payload, key: value})


class TestDualState:
    def test_validation(self):
        with pytest.raises(ValueError):
            DualState(mu=[-0.1])
        with pytest.raises(ValueError):
            DualState(mu=[0.1], lam=-1.0)
        # a NaN or infinite price fails here, not as an empty allocation
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                DualState(mu=[bad, 1.0])
            with pytest.raises(ValueError, match="finite"):
                DualState(mu=[0.1], lam=bad)
        state = DualState(mu=[0.0, 1.0])
        assert state.lam is None


class TestRunSpec:
    def test_from_file(self, tmp_path):
        payload = {
            "N": 8, "K": 4, "K1": 2, "C": [0.1, 0.2], "omega": 1.0,
            "snr_db": 20.0, "realizations": 50, "seed": 9, "epsilon": 0.02,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        run = RunSpec.from_file(path)
        assert run.realizations == 50 and run.seed == 9
        assert run.options == SolverOptions(epsilon=0.02)
        assert np.array_equal(run.config.secrecy_targets, [0.1, 0.2])

    def test_unknown_keys_fail_at_load(self):
        payload = {"N": 8, "K": 4, "K1": 2, "snr_db": 20.0}
        assert RunSpec.from_dict(payload).realizations == 2000
        with pytest.raises(ValueError, match="relaizations"):
            RunSpec.from_dict({**payload, "relaizations": 5})
        with pytest.raises(ValueError, match="mdoe"):
            RunSpec.from_dict({**payload, "mdoe": "peak"})

    def test_solver_block_with_a_method_fails_at_load(self):
        payload = {"N": 8, "K": 4, "K1": 2, "snr_db": 20.0,
                   "solver": {"method": "ellipsoid"}}
        with pytest.raises(ValueError, match="solver"):
            RunSpec.from_dict(payload)
        # nor can a solver block override the top-level epsilon
        with pytest.raises(ValueError, match="solver"):
            RunSpec.from_dict({**payload, "epsilon": 0.02,
                               "solver": {"epsilon": 0.05}})

    def test_run_fields_are_whole_numbers(self):
        payload = {"N": 8, "K": 4, "K1": 2, "snr_db": 20.0}
        for key, bad in [("realizations", 0), ("realizations", 2.9),
                         ("seed", -1), ("seed", 2.5), ("seed", np.nan),
                         ("realizations", True), ("seed", False)]:
            with pytest.raises(ValueError, match=f"{key} must be a whole number"):
                RunSpec.from_dict({**payload, key: bad})
        run = RunSpec.from_dict({**payload, "realizations": 5.0})
        assert run.realizations == 5 and isinstance(run.realizations, int)

    def test_readme_config_example_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Config files are JSON:")[1].split("```json")[1]
        block = block.split("```")[0]
        run = RunSpec.from_dict(json.loads(re.sub(r"//[^\n]*", "", block)))
        assert run.config.n_subcarriers == 64 and run.seed == 7
