import numpy as np
import pytest

from secure_ofdma import (
    fsa_partition,
    generate_ensemble,
    solve_average,
    solve_fsa,
)
from secure_ofdma.allocation import validate_exclusivity

from conftest import make_config


@pytest.fixture(scope="module")
def ens300():
    return generate_ensemble(make_config(), 300, seed=11)


class TestPartition:
    def test_fsa1_even_blocks(self):
        cfg = make_config()
        sets = fsa_partition("fsa1", cfg)
        assert len(sets) == 8
        assert all(len(s) == 8 for s in sets)

    def test_fsa2_priority_blocks(self):
        cfg = make_config()
        sets = fsa_partition("fsa2", cfg)
        assert [len(s) for s in sets] == [12, 12, 12, 12, 4, 4, 4, 4]

    @pytest.mark.parametrize("scheme", ["fsa1", "fsa2"])
    def test_partition_property(self, scheme):
        cfg = make_config(n=32, k=4, k1=2)
        sets = fsa_partition(scheme, cfg)
        joined = np.concatenate(sets)
        assert len(joined) == 32
        assert len(np.unique(joined)) == 32

    def test_indivisible_configurations_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            fsa_partition("fsa1", make_config(n=30, k=8, k1=4))
        with pytest.raises(ValueError, match="divisible"):
            fsa_partition("fsa2", make_config(n=30, k=8, k1=4))
        with pytest.raises(ValueError, match="unknown scheme"):
            fsa_partition("fsa3", make_config())


class TestSolveFsa:
    def test_zero_targets_waterfill_nu_blocks_only(self, ens300):
        cfg = make_config(c=0.0)
        res = solve_fsa(ens300, cfg, "fsa1")
        assert res.converged
        sets = fsa_partition("fsa1", cfg)
        su_cols = np.concatenate(sets[:4])
        for d in res.decisions:
            assert d.power[:, su_cols].sum() == 0.0
            assert np.all(d.su_secrecy == 0.0)
        assert abs(res.report.avg_power - cfg.power) < 1e-2 * cfg.power

    def test_targets_met_on_fixed_sets(self, ens300):
        cfg = make_config(c=0.3)
        res = solve_fsa(ens300, cfg, "fsa2")
        assert res.converged
        assert np.all(np.abs(res.report.r_su - 0.3) <= 1e-2 * 0.3)
        # the NU blocks are poured to the budget's exact water level
        assert abs(res.report.avg_power - cfg.power) <= 1e-12 * cfg.power
        for d in res.decisions:
            validate_exclusivity(d)

    def test_owners_stay_inside_their_blocks(self, ens300):
        cfg = make_config(c=0.3)
        for scheme in ("fsa1", "fsa2"):
            res = solve_fsa(ens300, cfg, scheme)
            sets = fsa_partition(scheme, cfg)
            for d in res.decisions:
                for n in np.flatnonzero(d.owner >= 0):
                    assert n in sets[d.owner[n]]

    def test_wastes_subcarriers_relative_to_preassignment(self, ens300):
        # occupied-by-SU count stays below the pre-assigned count
        cfg = make_config(c=0.3)
        res = solve_fsa(ens300, cfg, "fsa1")
        preassigned = sum(len(s) for s in fsa_partition("fsa1", cfg)[:4])
        assert res.report.su_subcarriers < preassigned

    def test_infeasible_targets_flagged(self, ens300):
        cfg = make_config(c=1.5)  # far above the 8-subcarrier block ceiling
        res = solve_fsa(ens300, cfg, "fsa1")
        assert res.infeasible and not res.converged

    def test_never_beats_adaptive_assignment(self, ens300):
        cfg = make_config(c=0.3)
        res_opt = solve_average(ens300, cfg)
        for scheme in ("fsa1", "fsa2"):
            res = solve_fsa(ens300, cfg, scheme)
            assert res.report.r_nu_total <= res_opt.report.r_nu_total
