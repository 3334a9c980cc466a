import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest
from scipy import optimize

from secure_ofdma import (
    ChannelEnsemble,
    SecrecyInfeasibleError,
    generate_ensemble,
    nu_phase,
    solve_average,
    solve_fsa,
    solve_suboptimal,
    su_phase,
)
from secure_ofdma import _search
from secure_ofdma._search import threshold_stats
from secure_ofdma.allocation import validate_exclusivity
from secure_ofdma.channel import column_order_stats
from secure_ofdma.dual_solver import _Prepared

from conftest import make_config
from oracles import ThresholdCurve, looped_su_phase


@pytest.fixture(scope="module")
def ens300():
    cfg = make_config()
    return generate_ensemble(cfg, 300, seed=11)


class TestSuPhase:
    def test_zero_target_claims_nothing(self, ens300):
        cfg = make_config(c=[0.0, 0.5, 0.5, 0.5])
        thresholds, rep, p_su = su_phase(ens300, cfg, eps=1e-2)
        assert np.isinf(thresholds[0]) and rep.iterations[0] == 0
        assert rep.power[0] == 0.0 and rep.secrecy[0] == 0.0
        assert not (rep.owner == 0).any()
        assert p_su == rep.power.sum()

    def test_targets_met_within_tolerance(self, ens300):
        cfg = make_config(c=1.0)
        _, rep, _ = su_phase(ens300, cfg, eps=1e-2)
        assert np.all(np.abs(rep.secrecy - 1.0) <= 1e-2 * 1.0)

    def test_near_limit_target_uses_tiny_threshold(self):
        cfg = make_config(n=16, k=3, k1=1, c=0.0)
        ens = generate_ensemble(cfg, 200, seed=5)
        nu1, nu2, kmax = column_order_stats(ens.alpha)
        curve = ThresholdCurve(nu1[kmax == 0], nu2[kmax == 0], 200)
        limit = curve.limit_rate()
        cfg2 = make_config(n=16, k=3, k1=1, c=limit * 0.995)
        thresholds, rep, _ = su_phase(ens, cfg2, eps=1e-2)
        assert thresholds[0] < np.median(curve.gap)
        assert abs(rep.secrecy[0] - limit * 0.995) <= 1e-2 * limit

    def test_unreachable_target_raises_with_su_identity(self, ens300):
        cfg = make_config(c=[0.5, 4.5, 0.5, 0.5])
        with pytest.raises(SecrecyInfeasibleError) as err:
            su_phase(ens300, cfg, eps=1e-2)
        assert err.value.su_index == 1
        assert err.value.target == 4.5

    def test_bracket_maintained_throughout_search(self, ens300, monkeypatch):
        # replay every bisection probe: each SU's bracket keeps its target
        # between the rates at its ends, and only open SUs are probed
        cfg = make_config(c=[1.0, 0.6, 1.0, 1.4])
        start, probes = [], []
        bisect = _search.bisect

        def recording(probe, lo, hi, **kw):
            def logged(x, idx):
                out = probe(x, idx)
                probes.append((x, np.arange(x.size) if idx is None else idx, out[0]))
                return out
            start.append(np.array(hi))
            return bisect(logged, lo, hi, **kw)

        monkeypatch.setattr(_search, "bisect", recording)
        _, rep, _ = su_phase(ens300, cfg, eps=1e-2)
        nu1, nu2, kmax = column_order_stats(ens300.alpha)
        curves = [ThresholdCurve(nu1[kmax == k], nu2[kmax == k], ens300.count)
                  for k in range(4)]
        target = cfg.secrecy_targets
        lo, hi = np.zeros(4), start[0].copy()
        for x, idx, up in probes:
            lo[idx] = np.where(up, x, lo[idx])
            hi[idx] = np.where(up, hi[idx], x)
            for k in idx:
                assert curves[k].rate(lo[k]) >= target[k] - 1e-9
                assert curves[k].rate(hi[k]) <= target[k] + 1e-9
        probed = np.bincount(np.concatenate([idx for _, idx, _ in probes]), minlength=4)
        assert np.array_equal(probed, rep.iterations) and len(set(probed)) > 1
        assert np.all(np.abs(rep.secrecy - target) <= 1e-2 * target)

    def test_every_rate_is_priced_by_a_probe(self, ens300, monkeypatch):
        # every bracket runs from 0 to its group's cap, where the rate is
        # 0, so the search grows no bracket and prices no rate outside a
        # bisection probe; SU 2's tiny target stops high in its bracket
        cfg = make_config(c=[1.0, 0.6, 1e-3, 1.4])
        calls = {"stats": 0, "probes": 0}
        stats, bisect = _search.threshold_stats, _search.bisect

        def counted(fn):
            def probe(*args):
                calls["probes"] += 1
                return fn(*args)
            return probe

        def counting_stats(*args):
            calls["stats"] += 1
            return stats(*args)

        def no_bracket(*args, **kw):
            raise AssertionError("the threshold search grows no bracket")

        monkeypatch.setattr(_search, "threshold_stats", counting_stats)
        monkeypatch.setattr(_search, "bracket", no_bracket)
        monkeypatch.setattr(_search, "bisect",
                            lambda probe, *a, **kw: bisect(counted(probe), *a, **kw))
        nu1, nu2, kmax = (s.ravel() for s in column_order_stats(ens300.alpha))
        on = kmax < cfg.n_secure
        a, b, su = nu1[on], nu2[on], kmax[on]
        thresholds, steps = _search.search_threshold(
            a, b, su, cfg.secrecy_targets, 1e-2, ens300.count
        )
        assert calls["stats"] == calls["probes"] == steps.max()
        want = looped_su_phase(ens300, cfg, 1e-2)
        assert np.array_equal(thresholds, want[0])
        assert np.array_equal(steps, want[3])

    def test_rate_and_power_decrease_with_threshold(self, ens300):
        nu1, nu2, kmax = (s.ravel() for s in column_order_stats(ens300.alpha))
        on = kmax < 4
        a, b, su = nu1[on], nu2[on], kmax[on]
        grid = np.linspace(0.05, (a - b)[su == 2].max() * 0.9, 25)
        stats = [
            threshold_stats(a, b, su, np.array([np.inf, np.inf, v, np.inf]), ens300.count)
            for v in grid
        ]
        rates = [s[0][2] for s in stats]
        powers = [s[1][2] for s in stats]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(powers, powers[1:]))
        # an infinite threshold leaves its SU idle
        assert all(not s[0][[0, 1, 3]].any() and not s[1][[0, 1, 3]].any() for s in stats)

    def test_claimed_sets_disjoint(self, ens300):
        # one owner array makes the claims disjoint; each SU-owned column
        # must be one where that SU holds the largest CNR
        cfg = make_config(c=0.8)
        _, rep, _ = su_phase(ens300, cfg, eps=1e-2)
        kmax = column_order_stats(ens300.alpha)[2]
        owned = rep.owner >= 0
        assert owned.any() and np.array_equal(rep.occupied, owned)
        assert np.array_equal(kmax[owned], rep.owner[owned])
        assert np.all(rep.p_win[~owned] == 0.0)
        per_su = np.bincount(rep.owner[owned], rep.p_win[owned], minlength=4)
        np.testing.assert_allclose(per_su / ens300.count, rep.power, rtol=1e-12)

    @given(
        st.integers(0, 10_000),
        st.integers(3, 6),
        st.floats(0.05, 0.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_claimed_sets_disjoint_on_random_ensembles(self, seed, k, c):
        k1 = k // 2
        cfg = make_config(n=10, k=k, k1=k1, c=c, power=100.0)
        ens = generate_ensemble(cfg, 50, seed=seed)
        try:
            _, rep, _ = su_phase(ens, cfg, eps=0.05)
        except SecrecyInfeasibleError:
            return
        kmax = column_order_stats(ens.alpha)[2]
        owned = rep.owner >= 0
        assert np.array_equal(kmax[owned], rep.owner[owned])


FRACTIONS = (0.0, 0.3, 0.7, 0.995, 1.2)


@pytest.mark.parametrize("seed", range(5))
def test_both_prechecks_share_one_unbounded_power_limit(seed):
    # the dual solver's precheck and su_phase's compare against one limit,
    # so they cannot disagree about a target at its boundary
    cfg = make_config()
    ens = generate_ensemble(cfg, 100, seed=seed)
    caps = _Prepared(ens, cfg).su_caps
    for k in range(cfg.n_secure):
        targets = np.zeros(cfg.n_secure)
        targets[k] = caps[k] * 1.02
        with pytest.raises(SecrecyInfeasibleError) as err:
            su_phase(ens, cfg.with_targets(targets), eps=1e-2)
        assert err.value.su_index == k and err.value.achievable == caps[k]


class TestSuPhaseMatchesLoop:
    """``su_phase`` against the per-SU loop it replaced (``oracles``)."""

    @given(
        seed=st.integers(0, 10_000),
        shape=st.sampled_from([(1, 8, 4, 2), (1, 6, 3, 2), (12, 8, 4, 3),
                               (25, 8, 5, 2), (40, 12, 4, 1)]),
        fractions=st.lists(st.sampled_from(FRACTIONS), min_size=3, max_size=3),
        fixed_sets=st.booleans(),
        absent=st.booleans(),
        eps=st.sampled_from([1e-2, 0.05]),
    )
    @settings(max_examples=150, deadline=None)
    def test_thresholds_steps_and_arrays_match(self, seed, shape, fractions,
                                              fixed_sets, absent, eps):
        t, n, k, k1 = shape
        cfg = make_config(n=n, k=k, k1=k1, c=0.0, power=100.0)
        ens = generate_ensemble(cfg, t, seed=seed)
        if absent:
            # SU 0 falls below every other user: the column maximum nowhere
            alpha = ens.alpha.copy()
            alpha[:, 0, :] = 0.5 * alpha[:, 1:, :].min(axis=1)
            ens = ChannelEnsemble(alpha=alpha, seed=ens.seed, rho=ens.rho)
        sets = np.array_split(np.arange(n), k)[:k1] if fixed_sets else None
        nu1, nu2, kmax = column_order_stats(ens.alpha)
        targets = []
        for j in range(k1):
            mask = kmax == j
            if sets is not None:
                mask &= np.isin(np.arange(n), sets[j])
            limit = ThresholdCurve(nu1[mask], nu2[mask], t).limit_rate()
            frac = fractions[j % 3]
            targets.append(frac * limit if limit > 0 else frac)
        cfg = make_config(n=n, k=k, k1=k1, c=targets, power=100.0)

        def run(fn):
            try:
                return fn(ens, cfg, eps, sets)
            except SecrecyInfeasibleError as err:
                return err.su_index, err.target

        want, got = run(looped_su_phase), run(su_phase)
        if len(want) == 2:
            assert got == want
            return
        thresholds, secrecy, power, iterations, owner, p_win = want
        got_thresholds, rep, p_su = got
        assert np.array_equal(got_thresholds, thresholds)
        assert np.array_equal(rep.iterations, iterations)
        assert np.array_equal(rep.owner, owner) and np.array_equal(rep.p_win, p_win)
        np.testing.assert_allclose(rep.secrecy, secrecy, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rep.power, power, rtol=1e-12, atol=0)
        assert p_su == rep.power.sum()


class TestNuPhase:
    def test_zero_residual_flags_exhausted(self, ens300):
        cfg = make_config()
        occupied = np.zeros((300, 64), dtype=bool)
        level, rep = nu_phase(ens300, cfg, 0.0, occupied, eps=1e-2)
        assert level == 0.0
        assert rep.budget_exhausted
        assert np.all(rep.nu_rate == 0.0) and rep.power == 0.0

    def test_no_free_subcarrier_spends_nothing(self):
        cfg = make_config(n=4, k=3, k1=1, power=10.0)
        ens = generate_ensemble(cfg, 5, seed=1)
        level, rep = nu_phase(ens, cfg, 5.0, np.ones((5, 4), bool), 1e-2)
        assert level == 0.0 and rep.power == 0.0 and rep.iterations == 0
        assert not rep.budget_exhausted and np.all(rep.owner_nu == -1)

    def test_single_nu_level_matches_scalar_root(self):
        # one NU, every subcarrier free: the level solves
        # E[sum_n (L - 1/alpha)+] = residual, checkable by brentq
        cfg = make_config(n=4, k=2, k1=1, c=0.0, power=30.0)
        ens = generate_ensemble(cfg, 400, seed=23)
        occupied = np.zeros((400, 4), dtype=bool)
        residual = 30.0
        level, rep = nu_phase(ens, cfg, residual, occupied, eps=1e-3)
        inv = 1.0 / ens.alpha[:, 1, :]

        def spend(l0):
            return np.maximum(l0 - inv, 0.0).sum() / 400 - residual

        root = optimize.brentq(spend, 0.0, 1e4, xtol=1e-10)
        assert abs(level - root) <= 2e-3 * root

    def test_power_nondecreasing_in_level(self, ens300):
        cfg = make_config()
        occupied = np.zeros((300, 64), dtype=bool)
        _, rep_small = nu_phase(ens300, cfg, 50.0, occupied, eps=1e-2)
        _, rep_large = nu_phase(ens300, cfg, 500.0, occupied, eps=1e-2)
        assert rep_large.power >= rep_small.power


class TestSolveSuboptimal:
    def test_constraints_and_exclusivity(self, ens300):
        cfg = make_config(c=1.2)
        res = solve_suboptimal(ens300, cfg)
        assert res.converged and not res.infeasible
        assert np.all(np.abs(res.report.r_su - 1.2) <= 1e-2 * 1.2)
        assert abs(res.report.avg_power - cfg.power) < 1e-2 * cfg.power
        for d in res.decisions:
            validate_exclusivity(d)

    def test_zero_targets_reduce_to_pure_nu_phase(self, ens300):
        cfg = make_config(c=0.0)
        res = solve_suboptimal(ens300, cfg)
        assert res.converged
        occupied = np.zeros((300, 64), dtype=bool)
        level, rep = nu_phase(ens300, cfg, cfg.power, occupied, eps=1e-2)
        assert np.allclose(res.report.r_su, 0.0)
        assert np.isclose(res.report.r_nu_total, float(rep.nu_rate.sum()))

    def test_iteration_count_within_bisection_budget(self, ens300):
        cfg = make_config(c=1.0)
        res = solve_suboptimal(ens300, cfg)
        # K1 threshold searches plus one water-level search, each O(log(1/eps))
        per_search = int(np.ceil(np.log2(1e12))) + 2
        assert res.iterations <= (cfg.n_secure + 1) * per_search

    def test_infeasible_secrecy_propagates(self, ens300):
        cfg = make_config(c=4.2)
        for res, prefix in ((solve_suboptimal(ens300, cfg), ""),
                            (solve_fsa(ens300, cfg, "fsa1"), "fsa1: ")):
            assert res.infeasible and not res.converged
            assert res.message.startswith(f"{prefix}SU 0: target 4.2 exceeds")
            assert res.iterations == 0 and res.duals.lam is None
            assert np.array_equal(res.duals.mu, np.zeros(4))
            assert np.all(res.decisions.owner == -1) and res.report.avg_power == 0.0

    def test_dominated_by_optimal(self, ens300):
        cfg = make_config(c=1.6)
        res_sub = solve_suboptimal(ens300, cfg)
        res_opt = solve_average(ens300, cfg)
        assert res_sub.report.r_nu_total <= res_opt.report.r_nu_total * 1.02

    def test_state_invariants(self, ens300):
        cfg = make_config(c=0.9)
        thresholds, rep, p_su = su_phase(ens300, cfg, eps=1e-2)
        level, _ = nu_phase(
            ens300, cfg, cfg.power - p_su, rep.occupied, eps=1e-2
        )
        assert np.all(thresholds >= 0)
        assert level >= 0
