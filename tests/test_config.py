import json

import numpy as np
import pytest

from secure_ofdma import DualState, ProblemConfig, RunSpec, SolverOptions
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

    def test_snr_conversion_roundtrip(self):
        assert snr_db_to_power(30.0) == pytest.approx(1000.0)
        assert power_to_snr_db(snr_db_to_power(17.3)) == pytest.approx(17.3)

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
        assert opts.max_iterations == 5000
        assert opts.multiplier_ceiling == 1e6

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverOptions.from_dict({"stepsize": 1.0})
        # removed knobs: one dual method, a fixed step scale and price floor
        for key, value in [("keep_decisions", False), ("method", "subgradient"),
                           ("step_scale", 0.5), ("lambda_floor", 1e-12)]:
            with pytest.raises(ValueError, match="unknown solver options"):
                SolverOptions.from_dict({key: value})


class TestDualState:
    def test_validation(self):
        with pytest.raises(ValueError):
            DualState(mu=[-0.1])
        with pytest.raises(ValueError):
            DualState(mu=[0.1], lam=-1.0)
        state = DualState(mu=[0.0, 1.0])
        assert state.lam is None


class TestRunSpec:
    def test_from_file(self, tmp_path):
        payload = {
            "N": 8, "K": 4, "K1": 2, "C": [0.1, 0.2], "omega": 1.0,
            "snr_db": 20.0, "realizations": 50, "seed": 9,
            "epsilon": 0.02, "solver": {"max_iterations": 100},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        run = RunSpec.from_file(path)
        assert run.realizations == 50 and run.seed == 9
        assert run.options.epsilon == 0.02
        assert run.options.max_iterations == 100
        assert np.array_equal(run.config.secrecy_targets, [0.1, 0.2])

    def test_solver_block_with_a_method_fails_at_load(self):
        payload = {"N": 8, "K": 4, "K1": 2, "snr_db": 20.0,
                   "solver": {"method": "ellipsoid"}}
        with pytest.raises(ValueError, match="method"):
            RunSpec.from_dict(payload)
