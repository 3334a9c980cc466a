import pytest

from secure_ofdma import check_feasibility, feasibility, secrecy_rate_upper_bound

from conftest import make_config
from oracles import top_two_log_ratio_mc


class TestBound:
    def test_quadrature_is_integrated_once_per_user_count(self):
        ratio = feasibility.expected_top_two_log_ratio
        first = ratio(7, rho=2.0)
        assert feasibility._top_two_log_ratio.cache_info().currsize >= 1
        # the cached value is the integral itself, for every rho
        fresh = feasibility._top_two_log_ratio.__wrapped__(7)
        assert ratio(7, rho=0.5) == first == fresh
        # the arguments are checked on every call, cached or not
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="rho"):
                ratio(7, rho=bad)
        with pytest.raises(ValueError, match="at least 2 users"):
            ratio(1)

    def test_headline_configuration(self):
        bound = secrecy_rate_upper_bound(64, 8, rho=1.0)
        assert 3.4 <= bound <= 3.6

    def test_independent_of_mean_cnr(self):
        b1 = secrecy_rate_upper_bound(64, 8, rho=0.5)
        b2 = secrecy_rate_upper_bound(64, 8, rho=1.0)
        b3 = secrecy_rate_upper_bound(64, 8, rho=4.0)
        assert abs(b1 - b2) < 1e-9 and abs(b2 - b3) < 1e-9

    def test_small_case_against_sampling_oracle(self):
        bound = secrecy_rate_upper_bound(8, 2, rho=1.0)
        mc = 8 / 2 * top_two_log_ratio_mc(2, 1.0, samples=2_000_000, seed=99)
        assert abs(bound - mc) / mc < 0.01

    def test_oracle_agreement_across_configurations(self):
        for n, k in ((16, 3), (64, 8), (32, 5)):
            bound = secrecy_rate_upper_bound(n, k)
            mc = n / k * top_two_log_ratio_mc(k, 2.0, samples=1_000_000, seed=n + k)
            assert abs(bound - mc) / mc < 0.01

    def test_decreasing_in_user_count(self):
        bounds = [secrecy_rate_upper_bound(64, k) for k in (2, 4, 8, 16)]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            secrecy_rate_upper_bound(64, 1)
        with pytest.raises(ValueError):
            secrecy_rate_upper_bound(0, 8)
        for rho in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                secrecy_rate_upper_bound(64, 8, rho=rho)


class TestCheck:
    def test_target_above_bound_is_infeasible(self):
        cfg = make_config(c=3.6)
        check = check_feasibility(cfg)
        assert not check.feasible_hint
        assert all(v == "infeasible" for v in check.verdicts)

    def test_zero_targets_always_feasible(self):
        check = check_feasibility(make_config(c=0.0))
        assert check.feasible_hint
        assert all(v == "feasible" for v in check.verdicts)

    def test_near_boundary_marked(self):
        bound = secrecy_rate_upper_bound(64, 8)
        check = check_feasibility(make_config(c=bound * 0.99))
        assert check.feasible_hint
        assert all(v == "near-boundary" for v in check.verdicts)

    def test_mixed_targets(self):
        bound = secrecy_rate_upper_bound(64, 8)
        cfg = make_config(c=[0.5, bound * 0.99, bound + 0.1, 0.2])
        check = check_feasibility(cfg)
        assert check.verdicts == [
            "feasible", "near-boundary", "infeasible", "feasible",
        ]
        assert not check.feasible_hint
