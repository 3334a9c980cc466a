import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest
from scipy import optimize

from secure_ofdma import (
    ChannelEnsemble,
    SecrecyInfeasibleError,
    fsa_partition,
    generate_ensemble,
    nu_phase,
    solve_average,
    solve_fsa,
    solve_suboptimal,
    su_phase,
)
from secure_ofdma import _search, suboptimal
from secure_ofdma._search import threshold_stats
from secure_ofdma.allocation import validate_exclusivity
from secure_ofdma.channel import column_order_stats
from secure_ofdma.dual_solver import _Prepared
from secure_ofdma.rates import _NuCandidates

from conftest import make_config
from oracles import ThresholdCurve, exact_refill_levels, looped_su_phase


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

    def test_rejects_an_ensemble_of_other_dimensions(self):
        ens = generate_ensemble(make_config(n=16, k=4, k1=2), 20, seed=2)
        for cfg in (make_config(n=16, k=5, k1=2), make_config(n=8, k=4, k1=2)):
            with pytest.raises(ValueError, match="ensemble dimensions do not match"):
                su_phase(ens, cfg, eps=1e-2)

    @pytest.mark.parametrize("eps", [np.nan, 0.0, -1.0, 1.0])
    def test_rejects_eps_outside_the_unit_interval(self, ens300, eps):
        # the SolverOptions rule; a NaN eps would disable the infeasibility check
        with pytest.raises(ValueError, match=r"eps must be in \(0, 1\)"):
            su_phase(ens300, make_config(c=4.5), eps=eps)

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
    # the dual solver's precheck and su_phase's make one comparison with one
    # limit, so they cannot disagree about a target at its boundary, nor
    # inside the eps band above it, and they say so in one message
    cfg = make_config()
    ens = generate_ensemble(cfg, 100, seed=seed)
    caps = _Prepared(ens, cfg).su_caps
    for k in range(cfg.n_secure):
        for factor in (1.0, 1.0 / (1.0 - 1e-2 / 2), 1.02):
            targets = np.zeros(cfg.n_secure)
            targets[k] = caps[k] * factor
            with pytest.raises(SecrecyInfeasibleError) as err:
                su_phase(ens, cfg.with_targets(targets), eps=1e-2)
            assert err.value.su_index == k and err.value.achievable == caps[k]
            res = solve_average(ens, cfg.with_targets(targets))
            assert res.infeasible and res.iterations == 0
            assert res.message == str(err.value)


@pytest.mark.parametrize("arg", ["candidate_sets", "fixed_sets"])
@pytest.mark.parametrize("sets, what", [
    ([[-1, -2], [4, 5]], "[0] must hold integer indices in [0, 8)"),
    ([[0, 1, 2], [2, 3]], "[1] must hold integer indices in [0, 8)"),
    ([[0, 1], [4.0, 5.5]], "[1] must hold integer indices in [0, 8)"),
    ([[0, 1]], " must hold 2 subcarrier sets, not 1"),
    ([[0], [1], [2]], " must hold 2 subcarrier sets, not 3"),
])
def test_subcarrier_sets_are_checked_at_the_boundary(arg, sets, what):
    # a negative index would wrap to the band's top, a shared column would
    # go to the later set, a float index or a short or long list would fail
    # inside the phase; each names the argument instead
    cfg = make_config(n=8, k=4, k1=2, c=0.1, power=10.0)
    ens = generate_ensemble(cfg, 10, seed=1)
    with pytest.raises(ValueError, match=re.escape(arg + what)):
        if arg == "candidate_sets":
            su_phase(ens, cfg, 1e-2, sets)
        else:
            nu_phase(ens, cfg, 5.0, np.zeros((10, 8), bool), sets)


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
    def test_rejects_a_non_positive_residual(self, ens300):
        # the two-phase allocator calls the NU phase only with budget left;
        # an SU phase that spends it all returns the no-secrecy allocation
        occupied = np.zeros((300, 64), dtype=bool)
        for residual in (0.0, -1.0):
            with pytest.raises(ValueError, match="p_residual must be finite and positive"):
                nu_phase(ens300, make_config(), residual, occupied)

    def test_no_free_subcarrier_spends_nothing(self):
        cfg = make_config(n=4, k=3, k1=1, power=10.0)
        ens = generate_ensemble(cfg, 5, seed=1)
        level, rep = nu_phase(ens, cfg, 5.0, np.ones((5, 4), bool))
        assert level == 0.0 and rep.power == 0.0 and rep.iterations == 0
        assert np.all(rep.owner_nu == -1) and not rep.power_nu.any()

    def test_single_nu_level_matches_scalar_root(self):
        # one NU, every subcarrier free: the level solves
        # E[sum_n (L - 1/alpha)+] = residual, checkable by brentq
        cfg = make_config(n=4, k=2, k1=1, c=0.0, power=30.0)
        ens = generate_ensemble(cfg, 400, seed=23)
        occupied = np.zeros((400, 4), dtype=bool)
        residual = 30.0
        level, rep = nu_phase(ens, cfg, residual, occupied)
        inv = 1.0 / ens.alpha[:, 1, :]

        def spend(l0):
            return np.maximum(l0 - inv, 0.0).sum() / 400 - residual

        root = optimize.brentq(spend, 0.0, 1e4, xtol=1e-10)
        assert abs(level - root) <= 1e-9 * root
        assert rep.iterations == 1

    @pytest.mark.parametrize("scheme", [None, "fsa2"])
    def test_level_matches_enumerated_water_level(self, scheme):
        # one weight class, or fixed sets: each free column has one bidder,
        # so the level is one water level over the free columns of all frames
        cfg = make_config(n=16, k=6, k1=2, c=0.1, power=40.0)
        ens = generate_ensemble(cfg, 40, seed=4)
        alpha_nu = ens.alpha[:, 2:, :]
        if scheme is None:
            sets = None
            _, su_rep, p_su = su_phase(ens, cfg, 1e-2)
            free, a = ~su_rep.occupied, alpha_nu.max(axis=1)
        else:
            sets = fsa_partition(scheme, cfg)
            # NU j alone holds column 12 + j
            assert [list(s) for s in sets[2:]] == [[12], [13], [14], [15]]
            _, su_rep, p_su = su_phase(ens, cfg, 1e-2, sets[:2])
            free, a = np.zeros((40, 16), bool), np.ones((40, 16))
            free[:, 12:] = True
            a[:, 12:] = alpha_nu[:, np.arange(4), np.arange(12, 16)]
            sets = sets[2:]
        residual = cfg.power - p_su
        level, rep = nu_phase(ens, cfg, residual, su_rep.occupied, sets)
        m = int(free.sum())
        want = exact_refill_levels(np.ones(m), 1.0 / a[free], residual * 40)
        np.testing.assert_allclose(level, want, rtol=1e-12, atol=0)
        assert rep.iterations == 1 and not rep.power_nu[~free].any()
        np.testing.assert_array_equal(
            rep.power_nu[free], np.maximum(level - 1.0 / a[free], 0.0)
        )

    def test_rejects_bad_dimensions_and_masks(self, ens300):
        cfg = make_config()
        occupied = np.zeros((300, 64), dtype=bool)
        with pytest.raises(ValueError, match="ensemble dimensions do not match"):
            nu_phase(ens300, make_config(k=9, k1=4), 100.0, occupied)
        # a per-subcarrier mask is not broadcast to every frame
        for bad in (occupied[0], occupied[:, :32], occupied[:10]):
            with pytest.raises(ValueError, match="occupied must have shape"):
                nu_phase(ens300, cfg, 100.0, bad)

    @pytest.mark.parametrize("residual", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_residual(self, ens300, residual):
        occupied = np.zeros((300, 64), dtype=bool)
        with pytest.raises(ValueError, match="p_residual must be finite"):
            nu_phase(ens300, make_config(), residual, occupied)

    def test_power_nondecreasing_in_level(self, ens300):
        cfg = make_config()
        occupied = np.zeros((300, 64), dtype=bool)
        _, rep_small = nu_phase(ens300, cfg, 50.0, occupied)
        _, rep_large = nu_phase(ens300, cfg, 500.0, occupied)
        assert rep_large.power >= rep_small.power


class TestSolveSuboptimal:
    def test_constraints_and_exclusivity(self, ens300):
        cfg = make_config(c=1.2)
        res = solve_suboptimal(ens300, cfg)
        assert res.converged and not res.infeasible
        assert np.all(np.abs(res.report.r_su - 1.2) <= 1e-2 * 1.2)
        # the NU phase pours the residual at its exact water level
        assert abs(res.report.avg_power - cfg.power) <= 1e-12 * cfg.power
        for d in res.decisions:
            validate_exclusivity(d)

    def test_zero_targets_reduce_to_pure_nu_phase(self, ens300):
        cfg = make_config(c=0.0)
        res = solve_suboptimal(ens300, cfg)
        assert res.converged
        occupied = np.zeros((300, 64), dtype=bool)
        level, rep = nu_phase(ens300, cfg, cfg.power, occupied)
        assert np.allclose(res.report.r_su, 0.0)
        # the solve's allocation is the NU phase's, column for column
        owner = np.where(rep.owner_nu >= 0, cfg.n_secure + rep.owner_nu, -1)
        assert np.array_equal(res.decisions.owner, owner)
        assert np.array_equal(res.decisions.power, rep.power_nu)
        assert res.duals.lam == 1.0 / level

    def test_iteration_count_within_bisection_budget(self, ens300):
        cfg = make_config(c=1.0)
        res = solve_suboptimal(ens300, cfg)
        # K1 threshold searches, each O(log(1/eps)), plus one exact water level
        per_search = int(np.ceil(np.log2(1e12))) + 2
        assert res.iterations <= (cfg.n_secure + 1) * per_search

    def test_infeasible_secrecy_propagates(self, ens300):
        # an unreachable target gives the no-secrecy allocation: the NU
        # phase pours the whole budget onto every column (fsa1: onto the
        # NUs' fixed sets) at mu = 0
        cfg = make_config(c=4.2)
        free = np.zeros((300, 64), dtype=bool)
        for res, prefix, sets in (
            (solve_suboptimal(ens300, cfg), "", None),
            (solve_fsa(ens300, cfg, "fsa1"), "fsa1: ", fsa_partition("fsa1", cfg)[4:]),
        ):
            assert res.infeasible and not res.converged
            assert res.message.startswith(f"{prefix}SU 0: secrecy target 4.2 is not "
                                          "below the ensemble's unbounded-power limit")
            level, rep = nu_phase(ens300, cfg, cfg.power, free, sets)
            assert res.iterations == rep.iterations and res.duals.lam == 1.0 / level
            assert np.array_equal(res.duals.mu, np.zeros(4))
            assert np.array_equal(res.decisions.owner, np.where(
                rep.owner_nu >= 0, cfg.n_secure + rep.owner_nu, -1))
            assert np.array_equal(res.decisions.power, rep.power_nu)
            assert abs(res.report.avg_power - cfg.power) <= 1e-12 * cfg.power

    def test_dominated_by_optimal(self, ens300):
        cfg = make_config(c=1.6)
        res_sub = solve_suboptimal(ens300, cfg)
        res_opt = solve_average(ens300, cfg)
        assert res_sub.report.r_nu_total <= res_opt.report.r_nu_total * 1.02

    def test_state_invariants(self, ens300):
        cfg = make_config(c=0.9)
        thresholds, rep, p_su = su_phase(ens300, cfg, eps=1e-2)
        level, _ = nu_phase(ens300, cfg, cfg.power - p_su, rep.occupied)
        assert np.all(thresholds >= 0)
        assert level >= 0


def _weighted_instance(seed):
    """A small seeded instance with two or three NU weight classes."""
    weights = [[1.0, 2.0], [0.5, 1.0, 3.0], [1.0, 1.0, 2.5]][seed % 3]
    k1 = 1 + seed % 2
    cfg = make_config(n=8, k=k1 + len(weights), k1=k1, c=0.3, omega=weights,
                      power=20.0)
    return cfg, generate_ensemble(cfg, 30, seed=seed)


class TestUnequalWeights:
    """The NU phase when a column's winning class depends on the level."""

    @pytest.mark.parametrize("seed, exact", [
        (0, True), (1, True), (7, True), (16, False), (44, False),
    ])
    def test_level_is_exact_or_on_a_jump_of_the_spend(self, seed, exact):
        cfg, ens = _weighted_instance(seed)
        res = solve_suboptimal(ens, cfg)
        assert res.converged and not res.infeasible
        k1, t = cfg.n_secure, ens.count
        _, su_rep, p_su = su_phase(ens, cfg, 1e-2)
        residual = cfg.power - p_su
        level, rep = nu_phase(ens, cfg, residual, su_rep.occupied)
        assert 2 <= rep.iterations < suboptimal._MAX_LEVEL_ROUNDS
        assert res.duals.lam == 1.0 / level
        nu = _NuCandidates(ens.alpha[:, k1:, :], cfg.weights)
        free = ~su_rep.occupied

        def auction(x):
            """The winners at price 1/x and their powers on the free columns."""
            _, g = nu.auction(-np.log(x), 1.0 / x)
            p = np.maximum(nu.weight(g) * x - nu.take(nu.inv_alpha, g), 0.0)
            return nu.take(nu.index, g), np.where(free, p, 0.0)

        # every powered free column goes to the auction's winner at 1/level
        index, p = auction(level)
        assert np.array_equal(rep.power_nu, p)
        assert np.array_equal(rep.owner_nu, np.where(p > 0, index, -1))
        nu_cols = res.decisions.owner >= k1
        assert np.array_equal(nu_cols, rep.owner_nu >= 0)
        assert np.array_equal(res.decisions.power[nu_cols], rep.power_nu[nu_cols])

        gap = res.report.avg_power - cfg.power
        assert (abs(gap) <= 1e-12 * cfg.power) == exact
        if exact:
            return
        # under the budget only where no level spends it: the auction's
        # spend, non-decreasing in the level, jumps over the budget
        assert gap < 0

        def spend(x):
            return auction(x)[1].sum() / t

        lo, hi = level, 2.0 * level
        while spend(hi) < residual:
            hi *= 2.0
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if spend(mid) < residual else (lo, mid)
        assert spend(lo) < residual < spend(hi)
        assert spend(hi) - spend(lo) > 1e-6 * cfg.power
