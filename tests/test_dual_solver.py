import importlib
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secure_ofdma import (
    DualState,
    SolverOptions,
    apply_policy,
    dual_point,
    dual_solver,
    evaluate,
    generate_ensemble,
    h_nu,
    nu_power,
    solve_average,
    solve_peak,
)
from secure_ofdma.allocation import validate_exclusivity
from secure_ofdma.channel import ChannelEnsemble, column_order_stats

from conftest import make_config
from test_search import random_instance
from oracles import (
    maximize_power_payoff,
    nu_payoff,
    su_payoff,
    unpruned_auction,
    weighted_waterfilling_rate,
)


def one_frame(alpha):
    return ChannelEnsemble(alpha=np.asarray(alpha, float)[None], seed=0, rho=1.0)


class TestAllocateRealizationAvg:
    """``apply_policy`` on one frame at fixed average-mode prices."""

    def test_zero_mu_reduces_to_best_nu_waterfilling(self):
        cfg = make_config(n=16, k=4, k1=2, c=0.0, power=50.0)
        ens = generate_ensemble(cfg, 1, seed=5)
        lam = 0.7
        alloc, _ = apply_policy(ens, DualState(mu=[0.0, 0.0], lam=lam), cfg)
        decision = alloc[0]
        alpha_nu = ens.alpha[0, 2:]
        for n in range(16):
            j = int(np.argmax([h_nu(a, 1.0, lam) for a in alpha_nu[:, n]]))
            expect_p = nu_power(alpha_nu[j, n], 1.0, lam)
            if expect_p > 0:
                assert decision.owner[n] == 2 + j
                assert np.isclose(decision.power[2 + j, n], expect_p)
            else:
                assert decision.owner[n] == -1

    def test_huge_price_leaves_everything_unassigned(self):
        cfg = make_config(n=8, k=3, k1=1, c=0.2)
        ens = generate_ensemble(cfg, 1, seed=6)
        alloc, _ = apply_policy(ens, DualState(mu=[1.0], lam=1e6), cfg)
        decision = alloc[0]
        assert np.all(decision.owner == -1)
        assert decision.total_power == 0.0

    def test_matches_exhaustive_owner_search(self):
        # N=2, K=2: enumerate all 3^N ownership maps with a 1-D power
        # oracle per column and compare the priced objective
        cfg = make_config(n=2, k=2, k1=1, c=0.5, omega=[1.3])
        rng = np.random.default_rng(12)
        for _ in range(20):
            alpha = rng.exponential(size=(2, 2)) + 0.05
            mu, lam = float(rng.uniform(0.2, 4)), float(rng.uniform(0.2, 2))
            alloc, _ = apply_policy(one_frame(alpha), DualState(mu=[mu], lam=lam), cfg)
            decision = alloc[0]
            got = (
                mu * decision.su_secrecy.sum()
                + 1.3 * decision.nu_rate.sum()
                - lam * decision.total_power
            )

            best = -np.inf
            for owners in itertools.product((-1, 0, 1), repeat=2):
                value = 0.0
                for n, o in enumerate(owners):
                    if o < 0:
                        continue
                    others = np.delete(alpha[:, n], o)
                    if o == 0:
                        f = su_payoff(alpha[0, n], others.max(), mu, lam)
                        hi = mu * alpha[0, n] / lam + 1
                    else:
                        f = nu_payoff(alpha[1, n], 1.3, lam)
                        hi = 1.3 / lam + 1
                    value += maximize_power_payoff(f, hi)[1]
                best = max(best, value)
            assert got >= best - 1e-5
            assert got <= best + 1e-7

    def test_requires_positive_lambda(self):
        cfg = make_config(n=2, k=2, k1=1)
        ens = generate_ensemble(cfg, 1, seed=1)
        with pytest.raises(ValueError):
            apply_policy(ens, DualState(mu=[1.0]), cfg)


def test_apply_policy_recovers_the_solves_primal():
    # at a solve's own prices the policy rebuilds the solve's allocation:
    # bit for bit at the average-mode (mu, lam); in peak mode the frame
    # prices are resolved afresh at mu, so R_NU agrees to within eps
    cfg = make_config(n=16, k=4, k1=2, c=0.5, power=100.0)
    ens = generate_ensemble(cfg, 100, seed=8)
    res = solve_average(ens, cfg)
    assert res.converged
    alloc, lam = apply_policy(ens, res.duals, cfg)
    assert lam == res.duals.lam
    assert np.array_equal(alloc.owner, res.decisions.owner)
    assert np.array_equal(alloc.power, res.decisions.power)

    peak = make_config(n=16, k=4, k1=2, c=0.5, power=100.0, mode="peak")
    res = solve_peak(ens, peak)
    assert res.converged
    alloc, lam = apply_policy(ens, res.duals, peak)
    assert lam.shape == (ens.count,)
    r_nu = evaluate(alloc, ens, peak).r_nu_total
    eps = SolverOptions().epsilon
    assert abs(r_nu - res.report.r_nu_total) <= eps * res.report.r_nu_total


@pytest.mark.parametrize("mode", ["average", "peak"])
def test_a_converged_solve_prices_its_duals_in_one_auction(mode, monkeypatch):
    # the primal is recovered from the loop's best auction, so the returned
    # (mu, lam) is priced once on every column of every frame, not again
    # for the recovery; a price search's probe there prices a contested view
    cfg = make_config(n=16, k=4, k1=2, c=0.5, power=100.0, mode=mode)
    ens = generate_ensemble(cfg, 100, seed=8)
    full, views = [], []
    auction, contested = dual_solver._eval_point, dual_solver._Prepared.contested

    def record(prep, mu, lam, frames=None):
        if frames is None and not any(prep is v for v in views):
            full.append((np.copy(mu), np.copy(lam)))
        return auction(prep, mu, lam, frames)

    monkeypatch.setattr(dual_solver, "_eval_point", record)
    monkeypatch.setattr(dual_solver._Prepared, "contested", lambda self, mu, lam:
                        views.append(contested(self, mu, lam)) or views[-1])
    res = (solve_peak if mode == "peak" else solve_average)(ens, cfg)
    assert res.converged
    lam = res.lambda_per_realization if mode == "peak" else res.duals.lam
    at_duals = [1 for mu, lam_ in full
                if np.array_equal(mu, res.duals.mu) and np.array_equal(lam_, lam)]
    assert len(at_duals) == 1


@pytest.mark.parametrize("mode", ["average", "peak"])
def test_no_auction_outlives_the_recovery(mode, monkeypatch):
    # the judge builds the allocation after the recovery; by then nothing
    # holds an auction, so its cached (T, N) arrays are freed, on an
    # infeasible exit's no-secrecy auction too
    judge = importlib.import_module("secure_ofdma.evaluate")
    cfg = make_config(n=16, k=4, k1=2, c=0.5, power=100.0, mode=mode)
    ens = generate_ensemble(cfg, 50, seed=8)
    auctions, alive = [], []
    eval_point, decide = dual_solver._eval_point, judge.decisions_from_arrays

    def keep(*args, **kwargs):
        auction = eval_point(*args, **kwargs)
        auctions.append(weakref.ref(auction))
        return auction

    def decisions(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in auctions))
        return decide(*args, **kwargs)

    monkeypatch.setattr(dual_solver, "_eval_point", keep)
    monkeypatch.setattr(judge, "decisions_from_arrays", decisions)
    solve = solve_peak if mode == "peak" else solve_average
    assert solve(ens, cfg).converged
    assert solve(ens, cfg.with_targets([0.5, 1e3])).infeasible
    assert auctions and alive == [0, 0]


def assert_same_result(got, want):
    """Two solve results equal field by field, every array bit for bit."""
    for name in ("owner", "power", "rate"):
        assert np.array_equal(getattr(got.decisions, name),
                              getattr(want.decisions, name)), name
    assert np.array_equal(got.duals.mu, want.duals.mu)
    assert got.duals.lam == want.duals.lam
    lam_got, lam_want = got.lambda_per_realization, want.lambda_per_realization
    assert (lam_got is None) == (lam_want is None)
    assert lam_got is None or np.array_equal(lam_got, lam_want)
    assert got.report.to_dict() == want.report.to_dict()
    for name in ("iterations", "converged", "infeasible", "dual_trace", "message"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.dual_value == want.dual_value or (
        np.isnan(got.dual_value) and np.isnan(want.dual_value))


def test_no_secrecy_price_is_memoized_per_ensemble_and_inputs(monkeypatch):
    # the price at mu = 0 is solved once per ensemble and input set; a
    # solve that reads it equals a solve on a fresh copy of the ensemble,
    # and solves that differ in P, mode, eps, K1 or the NU weights each
    # get their own entry
    base = dict(n=16, k=5, k1=2, c=0.3, power=60.0)
    ens = generate_ensemble(make_config(**base), 60, seed=21)
    built = []
    memo = ChannelEnsemble.memo

    def spied(self, key, build):
        def counted():
            if self is ens:
                built.append(key)
            return build()
        return memo(self, key, counted)

    monkeypatch.setattr(ChannelEnsemble, "memo", spied)
    variants = [
        (make_config(**base), None),
        (make_config(**base), SolverOptions(epsilon=0.05)),
        (make_config(**{**base, "power": 90.0}), None),
        (make_config(**{**base, "mode": "peak"}), None),
        (make_config(**{**base, "k1": 3}), None),
        (make_config(**base, omega=[1.0, 2.0, 0.5]), None),
        # a target above every SU's limit takes the infeasible path
        (make_config(**{**base, "c": 50.0}), None),
    ]
    for round_ in range(2):
        for cfg, opts in variants:
            solve = solve_peak if cfg.mode == "peak" else solve_average
            # other targets: a hit on the entry their first solve made
            if round_:
                cfg = cfg.with_targets(cfg.secrecy_targets * 0.5)
            got = solve(ens, cfg, opts)
            fresh = ChannelEnsemble(alpha=np.array(ens.alpha), seed=ens.seed,
                                    rho=ens.rho)
            assert_same_result(got, solve(fresh, cfg, opts))
        # the infeasible variant shares the first variant's inputs
        prices = [key for key in built if key[0] == "no_secrecy_price"]
        assert len(prices) == len(set(prices)) == len(variants) - 1
    peak = [key for key in prices if key[1] == "peak"]
    assert len(peak) == 1
    lam = ens.memo(peak[0], lambda: pytest.fail("the price was solved again"))
    assert lam.shape == (ens.count,) and not lam.flags.writeable


class TestSolveAverage:
    def test_zero_targets_match_waterfilling_oracle(self):
        cfg = make_config(n=32, k=6, k1=2, c=0.0, power=200.0)
        ens = generate_ensemble(cfg, 150, seed=21)
        res = solve_average(ens, cfg)
        assert res.converged
        assert np.all(res.duals.mu == 0.0)
        oracle = weighted_waterfilling_rate(ens.alpha, 2, 200.0)
        assert abs(res.report.r_nu_total - oracle) / oracle < 0.01

    def test_constraints_hold_at_convergence(self, headline_config, small_ensemble):
        cfg = headline_config.with_targets(1.2)
        res = solve_average(small_ensemble, cfg)
        assert res.converged and not res.infeasible
        eps = SolverOptions().epsilon
        assert np.all(res.report.r_su >= 1.2 * (1 - eps))
        assert res.report.avg_power <= cfg.power * (1 + eps)
        for d in res.decisions:
            validate_exclusivity(d)

    def test_su_owner_requires_max_column_and_threshold(self, headline_config, small_ensemble):
        cfg = headline_config.with_targets(1.6)
        res = solve_average(small_ensemble, cfg)
        nu1, nu2, kmax = column_order_stats(small_ensemble.alpha)
        lam = res.duals.lam
        mu = res.duals.mu
        for t, d in enumerate(res.decisions):
            for n in np.flatnonzero((d.owner >= 0) & (d.owner < cfg.n_secure)):
                k = d.owner[n]
                assert kmax[t, n] == k
                assert nu1[t, n] - nu2[t, n] > lam / mu[k]

    def test_infeasible_targets_are_flagged(self, headline_config, small_ensemble):
        res = solve_average(small_ensemble, headline_config.with_targets(3.8))
        assert res.infeasible and not res.converged
        assert res.message

    def test_unconverged_result_says_why(self, headline_config, small_ensemble,
                                         monkeypatch):
        monkeypatch.setattr(dual_solver, "_MAX_ITERATIONS", 1)
        cfg = headline_config.with_targets(1.2)
        opts = SolverOptions(epsilon=1e-6)
        res = solve_average(small_ensemble, cfg, opts)
        assert not res.converged and not res.infeasible
        assert "max_iterations=1" in res.message

    def test_converged_result_has_no_message(self, headline_config, small_ensemble):
        res = solve_average(small_ensemble, headline_config.with_targets(0.8))
        assert res.converged and res.message == ""

    def test_empty_ensemble_rejected(self, headline_config):
        with pytest.raises(ValueError):
            ChannelEnsemble(alpha=np.empty((0, 8, 64)), seed=0, rho=1.0)

    def test_mode_mismatch_rejected(self, small_ensemble):
        cfg = make_config(mode="peak")
        with pytest.raises(ValueError):
            solve_average(small_ensemble, cfg)

    def test_dual_best_is_monotone_bookkeeping(self, headline_config, small_ensemble):
        res = solve_average(small_ensemble, headline_config.with_targets(0.8))
        trace = np.asarray(res.dual_trace)
        assert trace.size >= 1
        best = np.minimum.accumulate(trace)
        assert np.all(np.diff(best) <= 1e-12)
        assert np.isclose(res.dual_value, trace.min())

    def test_duality_gap_small(self):
        cfg = make_config(c=1.2)
        ens = generate_ensemble(cfg, 500, seed=33)
        res = solve_average(ens, cfg, SolverOptions(epsilon=5e-3))
        assert res.converged
        primal = res.report.r_nu_total
        assert res.dual_value >= primal - 1e-6
        assert (res.dual_value - primal) / primal < 0.02


class TestOuterLoopExits:
    """Every way out of the outer loop over mu."""

    OUT_OF_ITERATIONS = "reached max_iterations={} before the tolerance test passed"

    @pytest.fixture(scope="class")
    def problem(self):
        cfg = make_config(n=16, k=4, k1=2, c=0.5, power=100.0)
        return generate_ensemble(cfg, 100, seed=8), cfg

    def test_converged_has_no_message(self, problem):
        res = solve_average(*problem)
        assert res.converged and not res.infeasible and res.message == ""

    @pytest.mark.parametrize("cap", [1, 3])
    def test_max_iterations(self, problem, cap, monkeypatch):
        monkeypatch.setattr(dual_solver, "_MAX_ITERATIONS", cap)
        res = solve_average(*problem, SolverOptions(epsilon=1e-7))
        assert not res.converged and not res.infeasible
        assert res.message == self.OUT_OF_ITERATIONS.format(cap)
        assert 1 <= res.iterations <= cap

    def test_tight_tolerance_stops_with_its_reason(self, problem, monkeypatch):
        monkeypatch.setattr(dual_solver, "_MAX_ITERATIONS", 400)
        res = solve_average(*problem, SolverOptions(epsilon=1e-7))
        assert not res.converged and not res.infeasible
        assert res.message == ("stalled: the secrecy violation did not "
                               "improve in 150 iterations")
        assert len(res.dual_trace) < 400

    def test_no_auction_is_priced_at_a_negative_mu(self, problem, monkeypatch):
        # SU 0 starts far above its optimum, so its first subgradient step
        # overshoots zero and only the projection keeps it in the orthant
        ens, cfg = problem
        cfg = cfg.with_targets([0.1, 0.5])
        calibrate = dual_solver._initial_mu
        monkeypatch.setattr(dual_solver, "_initial_mu", lambda prep, lam0, eps:
                            np.array([50.0, calibrate(prep, lam0, eps)[1]]))
        seen = []
        auction = dual_solver._eval_point
        monkeypatch.setattr(dual_solver, "_eval_point",
                            lambda prep, mu, *a, **k: seen.append(np.copy(mu))
                            or auction(prep, mu, *a, **k))
        monkeypatch.setattr(dual_solver, "_MAX_ITERATIONS", 3)
        res = solve_average(ens, cfg)
        assert res.message == self.OUT_OF_ITERATIONS.format(3)
        assert any(mu[0] == 50.0 for mu in seen)
        assert all(np.all(mu >= 0) for mu in seen)
        assert np.all(res.duals.mu >= 0)

    def test_subgradient_multiplier_ceiling(self, problem, monkeypatch):
        monkeypatch.setattr(dual_solver, "_MU_CEILING", 1e-3)
        res = solve_average(*problem, SolverOptions(epsilon=1e-7))
        assert res.infeasible and not res.converged
        assert "exceeded the ceiling" in res.message
        # the ceiling exit gives the precheck's result, after the loop's iterations
        assert res.iterations >= 1 and np.all(res.duals.mu == 0.0)

    def test_precheck_infeasible(self, problem):
        # the one infeasible result: the no-secrecy allocation within the
        # budget, at mu = 0, before any outer iteration
        ens, cfg = problem
        res = solve_average(ens, cfg.with_targets(10.0))
        assert res.infeasible and not res.converged and res.iterations == 0
        assert "unbounded-power limit" in res.message
        assert np.all(res.duals.mu == 0.0) and res.duals.lam > 0
        assert not (res.decisions.owner[res.decisions.owner >= 0] < cfg.n_secure).any()
        assert res.report.avg_power <= cfg.power


class TestDualPointInputs:
    """``dual_point`` prices only the prices the dual is defined at."""

    @pytest.fixture(scope="class")
    def instance(self):
        cfg = make_config(n=8, k=4, k1=2, power=10.0)
        return generate_ensemble(cfg, 20, seed=1), cfg

    @pytest.mark.parametrize("mu", [[-1.0, -1.0], [np.nan, 1.0], [np.inf, 1.0],
                                    [1.0], [1.0, 1.0, 1.0]],
                             ids=["negative", "nan", "inf", "short", "long"])
    def test_rejects_bad_mu(self, instance, mu):
        # mu = (-1, -1) returned 11.18; the lengths raised IndexError or a
        # matmul shape error
        with pytest.raises(ValueError, match="mu must hold 2 finite values >= 0"):
            dual_point(*instance, mu, 0.5)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, 0.0, -1.0, np.ones(20)],
                             ids=["nan", "inf", "zero", "negative", "per-frame"])
    def test_rejects_bad_average_lam(self, instance, lam):
        # 0 and -1 raised "math domain error" and NaN returned NaN
        with pytest.raises(ValueError, match="lam must be finite and > 0"):
            dual_point(*instance, [1.0, 1.0], lam)

    @pytest.mark.parametrize("lam", [np.ones(5), np.full(20, np.nan),
                                     np.r_[0.0, np.ones(19)]],
                             ids=["length-5", "nan", "zero"])
    def test_rejects_bad_frame_prices(self, instance, lam):
        ens, cfg = instance
        peak = make_config(n=8, k=4, k1=2, power=10.0, mode="peak")
        with pytest.raises(ValueError, match="lam must be finite and > 0"):
            dual_point(ens, peak, [1.0, 1.0], lam)
        # one finite positive price, or one per frame, is priced
        for good in (0.5, np.full(20, 0.5)):
            g, dmu, dlam = dual_point(ens, peak, [1.0, 1.0], good)
            assert np.isfinite(g) and dmu.shape == (2,) and np.isfinite(dlam)


class TestSubgradientInequality:
    def test_inequality_on_random_dual_pairs(self):
        cfg = make_config(n=16, k=4, k1=2, c=0.5, power=100.0)
        ens = generate_ensemble(cfg, 80, seed=55)
        rng = np.random.default_rng(3)
        for _ in range(30):
            mu = rng.uniform(0.0, 3.0, size=2)
            mu2 = rng.uniform(0.0, 3.0, size=2)
            lam = float(rng.uniform(0.05, 2.0))
            lam2 = float(rng.uniform(0.05, 2.0))
            g1, dmu, dlam = dual_point(ens, cfg, mu, lam)
            g2, _, _ = dual_point(ens, cfg, mu2, lam2)
            assert g2 >= g1 + (mu2 - mu) @ dmu + (lam2 - lam) * dlam - 1e-8


class TestPeakMode:
    def test_power_nonincreasing_in_lambda(self):
        cfg = make_config(n=8, k=3, k1=1, c=0.4, power=40.0, mode="peak")
        rng = np.random.default_rng(14)
        for _ in range(5):
            alpha = rng.exponential(size=(3, 8)) + 0.02
            ens = ChannelEnsemble(alpha=alpha[None], seed=0, rho=1.0)
            from secure_ofdma.dual_solver import _Prepared, _eval_point

            prep = _Prepared(ens, cfg)
            mu = rng.uniform(0.1, 3.0, size=1)
            grid = np.geomspace(1e-4, 50, 40)
            powers = [
                _eval_point(prep, mu, np.array([lam])).power_t[0]
                for lam in grid
            ]
            assert all(a >= b - 1e-9 for a, b in zip(powers, powers[1:]))

    def test_single_nu_lambda_inversion(self):
        # one NU, one subcarrier: the resolved price is w/(P + 1/alpha)
        # and the frame spends exactly its budget
        cfg = make_config(n=1, k=2, k1=1, c=0.0, power=25.0, mode="peak")
        alloc, lam = apply_policy(one_frame([[0.3], [2.0]]), DualState(mu=[0.0]),
                                  cfg, SolverOptions(epsilon=1e-9))
        expect = 1.0 / (25.0 + 1.0 / 2.0)
        assert abs(lam[0] - expect) < 1e-6
        assert abs(alloc[0].total_power - 25.0) < 1e-6
        assert alloc[0].owner[0] == 1

    def test_per_frame_budget_never_exceeded(self, headline_config):
        cfg = make_config(c=0.4, mode="peak")
        ens = generate_ensemble(cfg, 250, seed=61)
        res = solve_peak(ens, cfg)
        assert res.converged
        cap = cfg.power * (1 + 1e-6)
        for d in res.decisions:
            assert d.total_power <= cap
            validate_exclusivity(d)

    def test_rejudged_result_clears_the_stop_message(self, monkeypatch):
        # on this ensemble one outer iteration stops the loop unconverged,
        # but the recovered primal passes every check
        loop = dual_solver._dual_outer_loop
        seen = []
        monkeypatch.setattr(dual_solver, "_dual_outer_loop",
                            lambda *a: seen.append(loop(*a)) or seen[-1])
        cfg = make_config(c=0.4, mode="peak")
        ens = generate_ensemble(cfg, 120, seed=62)
        monkeypatch.setattr(dual_solver, "_MAX_ITERATIONS", 1)
        res = solve_peak(ens, cfg)
        # the loop says why it stopped early; its result is judged anyway
        loop_best, *_, loop_message = seen[0]
        assert loop_best is not None and loop_message
        assert res.converged and not res.infeasible and res.message == ""

    def test_zero_targets_fill_budget_every_frame(self):
        cfg = make_config(n=16, k=4, k1=1, c=0.0, power=80.0, mode="peak")
        ens = generate_ensemble(cfg, 40, seed=71)
        res = solve_peak(ens, cfg)
        assert res.converged
        assert np.all(res.duals.mu == 0.0)
        for d in res.decisions:
            assert abs(d.total_power - 80.0) < 80.0 * 1e-6 + 1e-9

    def test_infeasible_result_is_the_zero_target_solve(self):
        # targets at the SU cap are out of reach; the infeasible result is
        # the refilled no-secrecy allocation, which spends the frame's whole
        # budget, as the solve at zero targets does (the auction alone left
        # 0.49970 of 0.5 unspent)
        ens, cfg = random_instance(np.random.default_rng(1), 3, 1, 4, 1, False, 0.5)
        res = solve_peak(ens, cfg.with_targets(dual_solver._Prepared(ens, cfg).su_caps))
        zero = solve_peak(ens, cfg.with_targets(0.0))
        assert res.infeasible and res.message.startswith("SU 0: secrecy target")
        assert zero.converged
        spend = res.decisions.power.sum(axis=1)
        assert abs(spend[0] - 0.5) <= 1e-12 and spend[0] <= 0.5
        assert np.array_equal(res.decisions.owner, zero.decisions.owner)
        np.testing.assert_allclose(res.decisions.power, zero.decisions.power,
                                   rtol=1e-12, atol=0)
        assert res.report.r_nu_total == pytest.approx(zero.report.r_nu_total, rel=1e-12)
        # the dual value is the auction's at the no-secrecy price
        prep = dual_solver._Prepared(ens, cfg)
        lam = dual_solver._no_secrecy_price(prep, SolverOptions().epsilon)
        dual = dual_solver._eval_point(prep, np.zeros(1), lam).dual_value
        assert res.dual_value == dual and res.dual_trace == [dual]

    def test_average_and_peak_close_at_high_power(self):
        cfg_a = make_config(c=0.4, mode="average")
        cfg_p = make_config(c=0.4, mode="peak")
        ens = generate_ensemble(cfg_a, 200, seed=81)
        res_a = solve_average(ens, cfg_a)
        res_p = solve_peak(ens, cfg_p)
        assert res_a.converged and res_p.converged
        gap = abs(res_a.report.r_nu_total - res_p.report.r_nu_total)
        assert gap / res_a.report.r_nu_total < 0.05


class TestPrunedAuction:
    """The pruned auction against every user priced on every column."""

    @given(
        k=st.integers(2, 6), k1_frac=st.floats(0.0, 1.0),
        n=st.integers(1, 8), t=st.integers(1, 6),
        weights=st.sampled_from(["unit", "distinct", "repeated"]),
        lam_kind=st.sampled_from(["scalar", "vector"]),
        cnr_tie=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_unpruned(self, k, k1_frac, n, t, weights,
                                       lam_kind, cnr_tie, seed):
        from secure_ofdma.dual_solver import _Prepared, _eval_point

        rng = np.random.default_rng(seed)
        k1 = min(1 + int(k1_frac * (k - 1)), k - 1)   # K1 = K-1 included
        n_nu = k - k1
        omega = {
            "unit": np.ones(n_nu),
            "distinct": rng.permutation(np.arange(1.0, n_nu + 1.0) / 2.0),
            "repeated": rng.choice([0.5, 1.0, 3.0], size=n_nu),
        }[weights]
        cfg = make_config(n=n, k=k, k1=k1, c=0.3, omega=omega, power=20.0)
        alpha = rng.exponential(size=(t, k, n))
        if cnr_tie and n_nu > 1:
            alpha[:, -1, :] = alpha[:, k1, :]   # two NUs with equal CNRs
        ens = ChannelEnsemble(alpha=alpha, seed=0, rho=1.0)
        mu = rng.uniform(0.0, 4.0, size=k1) * (rng.random(k1) < 0.7)
        lam = np.exp(rng.uniform(-4.0, 1.0, size=t if lam_kind == "vector" else None))

        got = _eval_point(_Prepared(ens, cfg), mu, lam)
        want = unpruned_auction(alpha, cfg, mu, lam)
        for name, value in want.items():
            assert np.array_equal(getattr(got, name), value), name

        # the duality gap of the auction's own primal is an identity:
        # d - R_NU = mu.(r_su - C) + mean_t lam_t (P - p_t)
        surplus = mu @ (got.secrecy - cfg.secrecy_targets)
        slack = np.mean(lam * (cfg.power - got.power_t))
        scale = got.r_nu_total + mu @ (got.secrecy + cfg.secrecy_targets) \
            + np.mean(lam * (cfg.power + got.power_t))
        assert abs(got.dual_value - got.r_nu_total - surplus - slack) <= 1e-12 * scale

    def test_refill_opens_a_column_for_the_strongest_nu(self):
        # one frame, SU 0 and NUs 1 (weak) and 2 (strong) on column 0.  At
        # lam = 5 no NU is profitable there (omega*alpha <= lam), so the
        # refill must raise the water level for NU 2, not for NU 1.
        from secure_ofdma.dual_solver import _eval_point, _Prepared, _refill_nu_water

        cfg = make_config(n=2, k=3, k1=1, c=0.0, power=10.0, mode="peak")
        alpha = np.array([[[0.1, 0.1], [0.5, 1.0], [4.0, 100.0]]])
        prep = _Prepared(ChannelEnsemble(alpha=alpha, seed=0, rho=1.0), cfg)
        lam_t = np.array([5.0])
        owner = np.array([[-1, 2]])
        p_win = np.array([[0.0, 1.0 / 5.0 - 1.0 / 100.0]])
        g = _eval_point(prep, np.zeros(1), lam_t).nu_class
        _refill_nu_water(prep, owner, p_win, lam_t, g)

        assert owner.tolist() == [[2, 2]]
        # one water level theta across both columns spends the budget
        theta = (cfg.power + 1.0 / 4.0 + 1.0 / 100.0) / 2.0
        assert p_win[0] == pytest.approx([theta - 1.0 / 4.0, theta - 1.0 / 100.0])
        assert p_win.sum() <= cfg.power

    def test_refill_skips_a_frame_without_nu_columns(self):
        # frame 0's only column belongs to the SU, so it has nowhere to
        # pour; frame 1's NU column takes the rest of its budget
        from secure_ofdma.dual_solver import _eval_point, _Prepared, _refill_nu_water

        cfg = make_config(n=1, k=2, k1=1, c=0.0, power=10.0, mode="peak")
        alpha = np.array([[[5.0], [1.0]], [[0.5], [2.0]]])
        prep = _Prepared(ChannelEnsemble(alpha=alpha, seed=0, rho=1.0), cfg)
        owner = np.array([[0], [1]])
        p_win = np.array([[2.0], [1.0]])
        g = _eval_point(prep, np.zeros(1), np.ones(2)).nu_class
        _refill_nu_water(prep, owner, p_win, np.ones(2), g)

        assert owner.tolist() == [[0], [1]]
        assert p_win[0, 0] == 2.0
        assert p_win[1, 0] == pytest.approx(cfg.power) and p_win[1, 0] <= cfg.power
