"""The bracket-and-bisect primitive and the dual-solver stages built on it."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from secure_ofdma import dual_solver, rates
from secure_ofdma._search import _ITP_SLACK, bisect, bisect_monotone, bracket
from secure_ofdma.channel import ChannelEnsemble, generate_ensemble
from secure_ofdma.dual_solver import (
    _eval_point,
    _initial_mu,
    _Prepared,
    _refill_nu_water,
    _solve_lambda_avg,
    _solve_lambda_peak,
    _trim_su_surplus,
)

from conftest import make_config


class TestPrimitive:
    def test_scalar_bisection_is_the_size_one_case(self):
        def probe(x, _idx):
            return x * x < 2.0, abs(x * x - 2.0) <= 1e-12

        lo, hi, steps = bisect(probe, 0.0, 2.0)
        assert np.ndim(lo) == 0 and np.ndim(hi) == 0
        assert min(abs(float(lo) - 2**0.5), abs(float(hi) - 2**0.5)) < 1e-12
        assert 0 < steps < 60

    def test_elements_stop_on_their_own(self):
        roots = np.array([0.3, 3.1, 7.3])
        seen = []

        def probe(x, idx):
            at = slice(None) if idx is None else idx
            seen.append(np.arange(3) if idx is None else idx)
            return x < roots[at], np.abs(x - roots[at]) <= np.array([1e-3, 1e-9, 1.0])[at]

        lo, hi, steps = bisect(probe, np.zeros(3), np.full(3, 8.0))
        assert np.all((lo <= roots) & (roots <= hi))
        assert steps == len(seen) > 20
        # the loosest tolerance stops within a few steps; from then on the
        # element is no longer probed
        first_out = next(i for i, idx in enumerate(seen) if 2 not in idx)
        assert 0 < first_out <= 5
        assert all(2 not in idx for idx in seen[first_out:])

    def test_width_stop_and_step_cap(self):
        def probe(x, _idx):
            return np.ones(np.shape(x), bool), False

        lo, hi, steps = bisect(probe, 0.0, 1.0, xtol=0.25)
        assert (float(lo), float(hi), steps) == (0.75, 1.0, 2)
        lo, hi, steps = bisect(probe, 1.0, 1024.0, geometric=True, rtol=0.0,
                               max_steps=3)
        assert steps == 3 and float(lo) == pytest.approx(1024.0 ** (7 / 8))

    def test_done_elements_never_move(self):
        def probe(x, _idx):
            return x < 0.3, False

        lo, hi, _ = bisect(probe, np.zeros(2), np.ones(2), max_steps=30,
                           done=np.array([True, False]))
        assert (lo[0], hi[0]) == (0.0, 1.0)
        assert abs(lo[1] - 0.3) < 1e-8

    def test_bracket_grows_and_carries_lo(self):
        probes = []

        def probe(x, idx):
            assert idx is None     # every element is probed at its hi
            probes.append(x.copy())
            r = x - np.array([5.0, 0.5])
            return r < 0, False, r

        lo, hi, f_lo, f_hi = bracket(probe, np.zeros(2), np.ones(2), 2.0, f_lo=-1.0)
        assert hi.tolist() == [8.0, 1.0] and lo.tolist() == [4.0, 0.0]
        assert f_lo.tolist() == [-1.0, -1.0] and f_hi.tolist() == [3.0, 0.5]
        assert len(probes) == 4

    def test_bracket_limit_is_not_probed(self):
        probes = []

        def probe(x, _idx):
            probes.append(float(x))
            return True, False, -1.0

        lo, hi, _, f_hi = bracket(probe, 0.0, 1.0, 4.0, f_lo=-1.0, limit=4.0**3)
        assert probes == [1.0, 4.0, 16.0]
        assert (float(lo), float(hi)) == (16.0, 64.0) and np.isnan(f_hi)

    def test_bracket_raises_when_it_cannot(self):
        with pytest.raises(RuntimeError):
            bracket(lambda x, _idx: (True, False, -1.0), 0.0, 1.0, 2.0, f_lo=-1.0,
                    max_steps=5)

    def test_open_only_probes_see_just_the_open_elements(self):
        # the vector bisection is the per-element bisections side by side
        roots = np.array([0.3, 3.1, 7.3, 5.0])
        tol = np.array([1e-3, 1e-9, 1.0, 0.0])
        seen = []

        def probe(x, idx):
            at = slice(None) if idx is None else idx
            seen.append(idx)
            assert x.shape == roots[at].shape
            return x < roots[at], np.abs(x - roots[at]) <= tol[at]

        start = (np.zeros(4), np.full(4, 8.0))
        for done in (None, np.array([False, False, False, True])):
            seen.clear()
            got = bisect(probe, *start, done=done)
            for k in range(4):
                def alone(x, _idx, k=k):
                    return x < roots[k], abs(x - roots[k]) <= tol[k]

                lo, hi, _ = bisect(alone, 0.0, 8.0,
                                   done=None if done is None else done[k])
                assert (got[0][k], got[1][k]) == (lo, hi)
            if done is None:
                # every element is open until the loosest one stops
                assert seen[0] is None and seen[-1].tolist() == [1]
            else:
                assert (got[0][3], got[1][3]) == (0.0, 8.0)
                assert all(idx is not None and 3 not in idx for idx in seen)
            sets = [set(range(4)) if idx is None else set(idx) for idx in seen]
            assert all(a >= b for a, b in zip(sets, sets[1:]))

    @pytest.mark.parametrize("jump", [1e-9, 1.0, 1e9])
    def test_residual_steps_keep_the_bisection_worst_case(self, jump):
        # a step residual gives the interpolation nothing to work with;
        # a lopsided jump drags regula falsi to one end of the bracket
        xtol = 1e-9
        for root in np.random.default_rng(1).uniform(0.0, 1.0, size=40):
            _, _, plain = bisect(lambda x, _idx: (x < root, False), 0.0, 1.0,
                                 xtol=xtol)

            def residual(x, _idx):
                r = -1.0 if x < root else jump
                return r < 0, False, r

            lo, hi, steps = bisect(residual, 0.0, 1.0, xtol=xtol, f_lo=-1.0,
                                   f_hi=jump)
            assert steps <= plain + _ITP_SLACK
            assert lo <= root <= hi and hi - lo <= xtol

    def test_residual_steps_converge_fast_on_a_smooth_curve(self):
        scale = np.array([0.5, 1.0, 3.0, 8.0])
        counts = []

        def residual(x, idx):
            at = slice(None) if idx is None else idx
            counts.append(x.size)
            r = np.expm1(scale[at] * x) - 2.0
            return r < 0, np.abs(r) <= 1e-9, r

        lo, hi, steps = bisect(residual, np.zeros(4), np.full(4, 3.0),
                               f_lo=np.full(4, -2.0))
        roots = np.log(3.0) / scale
        assert np.all((lo <= roots) & (roots <= hi))
        # bisection needs about 31 probes for the same residual tolerance
        assert steps <= 10 and counts[0] == 4 and counts[-1] < 4

    def test_residuals_need_an_arithmetic_bracket(self):
        with pytest.raises(ValueError):
            bisect(lambda x, _idx: (x < 2, False, x - 2), 1.0, 4.0, geometric=True,
                   f_lo=-1.0)

    def test_bracket_carries_the_residuals_at_its_ends(self):
        def residual(x, _idx):
            r = x - np.array([5.0, 0.5, 1e9])
            return r < 0, False, r

        lo, hi, f_lo, f_hi = bracket(residual, np.zeros(3), np.ones(3), 4.0,
                                     limit=256.0, f_lo=-1.0)
        assert hi.tolist() == [16.0, 1.0, 256.0] and lo.tolist() == [4.0, 0.0, 64.0]
        assert f_lo.tolist() == [-1.0, -1.0, 64.0 - 1e9]
        assert f_hi[:2].tolist() == [11.0, 0.5] and np.isnan(f_hi[2])

    def test_bracket_caps_each_element_at_its_own_limit(self):
        # two of three elements still up against per-element limits
        def residual(x, _idx):
            r = x - np.array([5.0, 100.0, 0.5])
            return r < 0, False, r

        lo, hi, _, f_hi = bracket(residual, np.zeros(3), np.ones(3), 2.0, f_lo=-1.0,
                                  limit=np.array([64.0, 8.0, 4.0]))
        assert lo.tolist() == [4.0, 8.0, 0.0] and hi.tolist() == [8.0, 8.0, 1.0]
        assert f_hi[0] == 3.0 and np.isnan(f_hi[1]) and f_hi[2] == 0.5

    def test_bisect_monotone_returns_last_probe(self):
        probes = []

        def cube(x):
            probes.append(x)
            return x**3

        out = bisect_monotone(cube, 2.0, 0.0, 4.0, 1e-9, increasing=True)
        assert abs(out.value**3 - 2.0) <= 1e-9 and out.value == probes[-1]
        # the first call checks the top of the bracket, the rest are steps
        assert out.iterations == len(probes) - 1 > 0


@contextlib.contextmanager
def recorded_auctions():
    """Record every auction the library stages and the oracles make."""
    log = {"lib": [], "oracle": []}

    def recorder(key):
        def call(prep, mu, lam, **kw):
            if not isinstance(lam, float):
                lam = np.array(lam, float)   # the loops grow brackets in place
            log[key].append((np.array(mu, float), lam, kw))
            return _eval_point(prep, mu, lam, **kw)
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dual_solver, "_eval_point", recorder("lib"))
        mp.setattr(oracles, "_eval_point", recorder("oracle"))
        yield log


def clear(log):
    log["lib"].clear()
    log["oracle"].clear()


def assert_same_probes(log):
    """The library made the oracle's auctions, in order, at the same points."""
    assert len(log["lib"]) == len(log["oracle"])
    for (mu_a, lam_a, kw_a), (mu_b, lam_b, kw_b) in zip(log["lib"], log["oracle"]):
        assert np.array_equal(mu_a, mu_b)
        # a size-1 array would switch the auction to per-frame prices
        assert isinstance(lam_a, float) == isinstance(lam_b, float)
        assert np.array_equal(lam_a, lam_b)
        assert kw_a.keys() == kw_b.keys()
        for key, frames in kw_a.items():
            assert (frames is None) == (kw_b[key] is None)
            assert frames is None or np.array_equal(frames, kw_b[key])
    clear(log)


def assert_mu_contract(log, prep, lam0, eps, mu, rounds=28):
    """The calibration against ``oracles.looped_initial_mu``.

    A probe at ``mu_k = 0`` did not probe SU k: a probe bids only the SUs
    it moves.  Replayed from its probes, every SU's search keeps a bracket
    [lo, hi] with secrecy below the target at lo and not below it at hi,
    and probes strictly inside it.  Each SU ends within its tolerance
    band at its last probe, which is what is returned, or the search ran
    to its round cap; either way it makes no more auctions than the
    oracle.
    """
    targets = prep.config.secrecy_targets
    below, above = eps * targets / 4, eps * np.maximum(targets, 1.0) / 4
    secrecy = [_eval_point(prep, m, lam0).secrecy for m, _, _ in log["lib"]]
    met = True
    for k in np.flatnonzero(targets > 0):
        lo, hi, last, gap = 0.0, np.inf, None, None
        for m, s in zip((m for m, _, _ in log["lib"]), secrecy):
            if m[k] == 0 or m[k] == last:
                continue    # not probed for SU k, or a held bracket end
            assert lo < m[k] < hi
            last, gap = m[k], s[k] - targets[k]
            if gap < 0:
                lo = last
            else:
                hi = last
        assert mu[k] == last
        met &= -below[k] <= gap <= above[k]
    assert np.all(mu[targets <= 0] == 0)
    lib, oracle = len(log["lib"]), len(log["oracle"])
    assert lib <= oracle
    if not met:
        # the oracle always runs its bracket plus ``rounds`` bisections
        assert lib == oracle
    clear(log)


def random_instance(rng, k, k1, n, t, zero_target, power, weights="unit"):
    """A random peak-mode ``(ensemble, config)``; NU weights by kind."""
    n_nu = k - k1
    targets = rng.uniform(0.05, 1.5, size=k1)
    if zero_target:
        targets[rng.integers(k1)] = 0.0
    omega = {
        "unit": np.ones(n_nu),
        "distinct": rng.permutation(np.arange(1.0, n_nu + 1.0) / 2.0),
        "repeated": rng.choice([0.5, 1.0, 3.0], size=n_nu),
    }[weights]
    cfg = make_config(n=n, k=k, k1=k1, c=targets, omega=omega,
                      power=power, mode="peak")
    alpha = rng.exponential(size=(t, k, n)) + 1e-3
    return ChannelEnsemble(alpha=alpha, seed=0, rho=1.0), cfg


def random_problem(rng, k, k1, n, t, zero_target, power, weights="unit"):
    return _Prepared(*random_instance(rng, k, k1, n, t, zero_target, power, weights))


def test_frame_subset_spend_is_the_whole_auction_row():
    # a frame view is a whole auction on fewer frames: its rows are the
    # whole auction's, bit for bit, with one NU weight class or several
    rng = np.random.default_rng(4)
    for weights in ("unit", "distinct", "repeated"):
        prep = random_problem(rng, 6, 2, 8, 10, False, 20.0, weights)
        mu, lam = rng.uniform(0.0, 4.0, size=2), rng.uniform(0.05, 2.0, size=10)
        whole = _eval_point(prep, mu, lam)
        for frames in (np.array([3]), np.array([0, 4, 9]), np.arange(1, 10)):
            got = _eval_point(prep, mu, lam[frames], frames=frames)
            for name in ("owner", "p_win", "power_t"):
                assert np.array_equal(getattr(got, name),
                                      getattr(whole, name)[frames]), (weights, name)
            if whole.nu_class is None:   # one class: always with unit weights
                assert got.nu_class is None
            else:
                assert np.array_equal(got.nu_class, whole.nu_class[frames])


@given(
    k=st.integers(2, 6), k1_frac=st.floats(0.0, 1.0),
    n=st.integers(1, 8), t=st.integers(1, 6),
    weights=st.sampled_from(["unit", "distinct", "repeated"]),
    lam_kind=st.sampled_from(["scalar", "vector"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_narrow_probes_and_idle_sus_price_as_the_whole_auction(
    k, k1_frac, n, t, weights, lam_kind, seed,
):
    rng = np.random.default_rng(seed)
    k1 = min(1 + int(k1_frac * (k - 1)), k - 1)   # K1 = K-1 included
    ens, cfg = random_instance(rng, k, k1, n, t, False, 20.0, weights)
    prep = _Prepared(ens, cfg)
    mu = rng.uniform(0.0, 4.0, size=k1) * (rng.random(k1) < 0.7)
    mu[rng.integers(k1)] = 0.0     # an SU at mu = 0 is never priced
    lam = np.exp(rng.uniform(-4.0, 1.0, size=t if lam_kind == "vector" else None))

    whole = _eval_point(prep, mu, lam)
    want = oracles.unpruned_auction(ens.alpha, cfg, mu, lam)
    for name in ("owner", "p_win", "power_t", "secrecy", "r_nu_total", "dual_value"):
        assert np.array_equal(getattr(whole, name), want[name]), name
    assert not np.isin(whole.owner, np.flatnonzero(mu == 0)).any()

    # a probe of an SU subset sets the other SUs to mu = 0: every reduction
    # is the unpruned auction's at those masked prices
    for size in range(1, k1 + 1):
        subset = np.sort(rng.choice(k1, size, replace=False))
        masked = np.zeros(k1)
        masked[subset] = mu[subset]
        narrow = _eval_point(prep, masked, lam)
        want = oracles.unpruned_auction(ens.alpha, cfg, masked, lam)
        for name in ("owner", "p_win", "power_t", "secrecy", "r_nu_total",
                     "dual_value"):
            assert np.array_equal(getattr(narrow, name), want[name]), name
        assert np.array_equal(narrow.secrecy[subset], whole.secrecy[subset])
    if lam_kind == "vector":
        # the idle SUs are skipped on a frame subset too
        frames = np.sort(rng.choice(t, rng.integers(1, t + 1), replace=False))
        got = _eval_point(prep, mu, lam[frames], frames=frames)
        assert np.array_equal(got.power_t, whole.power_t[frames])


@given(
    k=st.integers(2, 6), k1_frac=st.floats(0.0, 1.0),
    n=st.integers(1, 8), t=st.integers(1, 6),
    weights=st.sampled_from(["unit", "distinct", "repeated"]),
    lam_kind=st.sampled_from(["scalar", "vector"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_contested_view_prices_as_the_whole_auction_below_its_prices(
    k, k1_frac, n, t, weights, lam_kind, seed,
):
    # the screen is safe: at any power price at or below the one it was
    # built at, or any secrecy price at or below its own, the view keeps
    # every column an SU can win, so the spend and the secrecy it prices
    # are the whole auction's bit for bit
    rng = np.random.default_rng(seed)
    k1 = min(1 + int(k1_frac * (k - 1)), k - 1)
    ens, cfg = random_instance(rng, k, k1, n, t, False, 20.0, weights)
    prep = _Prepared(ens, cfg)
    # prices over many decades, so some SU payoffs come near their bound
    mu_hi = np.exp(rng.uniform(-3.0, 7.0, size=k1)) * (rng.random(k1) < 0.8)
    lam_hi = np.exp(rng.uniform(-12.0, 1.0, size=t if lam_kind == "vector" else None))
    view = prep.contested(mu_hi, lam_hi)
    assert view.su_k.size <= prep.su_k.size

    floor = dual_solver._LAMBDA_FLOOR
    below = lam_hi * np.exp(-rng.uniform(0.0, 8.0, size=(4, *np.shape(lam_hi))))
    for lam in (lam_hi, *below, np.full(np.shape(lam_hi), floor)):
        lam = float(lam) if lam_kind == "scalar" else lam
        whole, got = _eval_point(prep, mu_hi, lam), _eval_point(view, mu_hi, lam)
        for name in ("power_mean", "power_t", "p_win", "owner", "secrecy"):
            assert np.array_equal(getattr(got, name), getattr(whole, name)), name
        if lam_kind == "vector":
            frames = np.sort(rng.choice(t, rng.integers(1, t + 1), replace=False))
            narrow = _eval_point(view, mu_hi, lam[frames], frames=frames)
            assert np.array_equal(narrow.power_t, whole.power_t[frames])

    # the calibration's screen, at one fixed scalar price
    lam0 = float(np.median(lam_hi))
    view = prep.contested(mu_hi, lam0)
    for mu in (mu_hi, *(mu_hi * rng.uniform(0.0, 1.0, size=(3, k1)))):
        whole = _eval_point(prep, mu, lam0).secrecy
        for size in range(1, k1 + 1):
            subset = np.sort(rng.choice(k1, size, replace=False))
            masked = np.zeros(k1)
            masked[subset] = mu[subset]
            # a probe of the subset, the other SUs at mu = 0
            got = _eval_point(view, masked, lam0)
            want = oracles.unpruned_auction(ens.alpha, cfg, masked, lam0)
            for name in ("owner", "p_win", "power_t", "secrecy", "r_nu_total",
                         "dual_value"):
                assert np.array_equal(getattr(got, name), want[name]), name
            assert np.array_equal(got.secrecy[subset], whole[subset])


def test_contested_view_drops_columns_at_a_solves_prices():
    # at the converged prices of a headline-size solve the screen rules
    # out most SU-max columns; a higher power price (a lower NU payoff)
    # or a higher secrecy price keeps more
    cfg = make_config(c=1.2)
    ens = generate_ensemble(cfg, 100, seed=12)
    res = dual_solver.solve_average(ens, cfg)
    prep = _Prepared(ens, cfg)
    mu, lam = res.duals.mu, res.duals.lam
    view = prep.contested(mu, lam)
    kept = view.su_k.size
    assert 0 < kept < 0.5 * prep.su_k.size
    # only the whole prep is screened, so no view gathers the screen's bound
    assert not hasattr(view, "su_ln_ratio")
    assert prep.contested(mu, 4 * lam).su_k.size > kept
    assert prep.contested(4 * mu, lam).su_k.size > kept


@given(
    k=st.integers(2, 6), k1_frac=st.floats(0.0, 1.0),
    n=st.integers(1, 8), t=st.integers(1, 6),
    weights=st.sampled_from(["unit", "distinct", "repeated"]),
    lam_kind=st.sampled_from(["scalar", "vector"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_the_eager_spend_is_the_row_sum_of_p_win(
    k, k1_frac, n, t, weights, lam_kind, seed,
):
    # one NU rule for every output: p_win is the NU water levels with the
    # SU wins written over them, each frame's spend is its row sum, and an
    # NU owns exactly the non-SU columns its level powers
    rng = np.random.default_rng(seed)
    k1 = min(1 + int(k1_frac * (k - 1)), k - 1)
    prep = random_problem(rng, k, k1, n, t, False, 20.0, weights)
    mu = rng.uniform(0.0, 4.0, size=k1) * (rng.random(k1) < 0.7)
    mu[rng.integers(k1)] = 0.0     # an idle SU
    lam = np.exp(rng.uniform(-4.0, 1.0, size=t if lam_kind == "vector" else None))
    whole = _eval_point(prep, mu, lam)
    row_sums = whole.p_win.sum(axis=1)
    assert np.array_equal(whole.power_t, row_sums)
    assert whole.power_mean == row_sums.mean()
    on_nu = (whole.owner < 0) | (whole.owner >= k1)   # the columns no SU owns
    assert np.array_equal(whole.owner[on_nu] >= k1, whole.p_win[on_nu] > 0)
    if lam_kind == "vector":
        # one frame is gathered (when t > 1); all frames are priced whole
        for frames in (np.sort(rng.choice(t, 1)), np.arange(t)):
            got = _eval_point(prep, mu, lam[frames], frames=frames).power_t
            np.testing.assert_allclose(got, row_sums[frames], rtol=1e-12, atol=0.0)


def test_price_searches_and_screens_price_no_nu_auction_with_one_class(monkeypatch):
    # with one NU class an auction's powers, owners and spend are the NU
    # water levels and the SU columns' NU payoff is priced on those columns
    # alone, so the price searches, the calibration, the screens and every
    # output but the dual value never run the full-width NU auction
    rng = np.random.default_rng(7)
    prep = random_problem(rng, 6, 3, 16, 12, False, 20.0)
    mu = rng.uniform(0.5, 4.0, size=3)
    calls = []
    auction = rates._NuCandidates.auction

    def counted(self, *args, **kwargs):
        calls.append(args)
        return auction(self, *args, **kwargs)

    monkeypatch.setattr(rates._NuCandidates, "auction", counted)
    lam = _solve_lambda_avg(prep, mu, 1e-3)
    lam_t = _solve_lambda_peak(prep, mu, 1e-3)
    prep.contested(mu, lam)
    prep.contested(mu, lam_t)
    _initial_mu(prep, lam, 1e-2)
    # nor does any output of an auction but its dual value
    for price in (lam, lam_t):
        st = _eval_point(prep, mu, price)
        for name in ("p_win", "owner", "nu_class", "power_t", "r_nu_total"):
            getattr(st, name)
        assert calls == [] and st.nu_class is None
    st.dual_value
    assert len(calls) == 1


class TestStagesMatchLoops:
    """Each stage against the plain loop it must reproduce.

    The power-price searches return the prices of ``oracles.looped_price``
    bit for bit and make its auctions, in the same order, on the same
    frames.  The mu calibration stops each SU at its own tolerance and
    steps by ITP, so it is held to the contract of ``assert_mu_contract``
    instead of the loop's probes.
    """

    @given(
        k=st.integers(2, 6), k1_frac=st.floats(0.0, 1.0),
        n=st.integers(1, 8), t=st.integers(1, 6),
        zero_target=st.booleans(), zero_mu=st.booleans(),
        at_floor=st.booleans(), warm=st.booleans(),
        eps=st.sampled_from([1.0, 1e-2, 1e-6]), power=st.floats(1.0, 50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_lambda_and_mu_searches_bit_identical(
        self, k, k1_frac, n, t, zero_target, zero_mu, at_floor, warm, eps,
        power, seed,
    ):
        rng = np.random.default_rng(seed)
        k1 = min(1 + int(k1_frac * (k - 1)), k - 1)   # K1 = K-1 included
        prep = random_problem(rng, k, k1, n, t, zero_target, power)
        mu = rng.uniform(0.0, 4.0, size=k1)
        if zero_mu:
            mu[rng.integers(k1)] = 0.0
        tol = eps * power / 4
        floor = dual_solver._LAMBDA_FLOOR
        if at_floor:
            # a floor inside the spread of the resolved prices pins some
            # frames (or the scalar price) to it
            lam_t = _solve_lambda_peak(prep, mu, tol)
            floor = float(np.quantile(lam_t, 0.5)) * 1.01
        rtol = dual_solver._LAMBDA_RTOL

        with recorded_auctions() as log:
            warm_avg = None
            if warm:
                warm_avg = _solve_lambda_avg(prep, mu, tol) * rng.uniform(0.3, 3)
                clear(log)
            with mock.patch.object(dual_solver, "_LAMBDA_FLOOR", floor):
                got = _solve_lambda_avg(prep, mu, tol, warm_avg)
            want = oracles.looped_price(prep, mu, tol, floor, warm_avg, peak=False,
                                        rtol=rtol)
            assert isinstance(got, float) and got == want
            assert_same_probes(log)

            warm_t = None
            if warm:
                warm_t = _solve_lambda_peak(prep, mu, tol)
                warm_t = warm_t * rng.uniform(0.3, 3, size=t)
                clear(log)
            with mock.patch.object(dual_solver, "_LAMBDA_FLOOR", floor):
                got_t = _solve_lambda_peak(prep, mu, tol, warm_t)
            want_t = oracles.looped_price(prep, mu, tol, floor, warm_t, peak=True,
                                          rtol=rtol)
            assert np.array_equal(got_t, want_t)
            assert_same_probes(log)
            # a frame is at the floor exactly when it underspends there
            spend_floor = _eval_point(prep, mu, np.full(t, floor)).power_t
            assert np.array_equal(got_t == floor, spend_floor <= power)
            if at_floor and t > 1:
                assert (got_t == floor).any()

            lam0 = float(np.median(got_t)) if warm else got
            mu0 = _initial_mu(prep, lam0, eps)
            oracles.looped_initial_mu(prep, lam0)
            assert_mu_contract(log, prep, lam0, eps, mu0)

    @given(
        k=st.integers(2, 6), k1_frac=st.floats(0.0, 1.0),
        n=st.integers(1, 8), t=st.integers(1, 6),
        zero_mu=st.booleans(), scalar_lam=st.booleans(), drop=st.booleans(),
        eps=st.sampled_from([1e-2, 0.2]), power=st.floats(1.0, 50.0),
        weights=st.sampled_from(["unit", "distinct", "repeated"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_trim_and_refill_match(self, k, k1_frac, n, t, zero_mu, scalar_lam,
                                   drop, eps, power, weights, seed):
        # the refill pours onto the NU classes the auction chose, checked
        # against the oracle's per-frame NU auction with several classes
        rng = np.random.default_rng(seed)
        k1 = min(1 + int(k1_frac * (k - 1)), k - 1)
        prep = random_problem(rng, k, k1, n, t, False, power, weights)
        mu = rng.uniform(0.5, 6.0, size=k1)
        if zero_mu:
            mu[rng.integers(k1)] = 0.0
        lam_t = _solve_lambda_peak(prep, mu, eps * power / 4)
        lam = float(np.median(lam_t)) if scalar_lam else lam_t
        st_ = _eval_point(prep, mu, lam)
        owner, p_win = st_.owner, st_.p_win

        # targets below the achieved secrecy so that trimming runs; an SU
        # without columns in some frames is common at these sizes
        achieved = st_.secrecy
        targets = achieved * rng.uniform(0.2, 0.95, size=k1)
        targets[achieved <= 0] = 0.3
        prep.config = make_config(
            n=n, k=k, k1=k1, c=targets, omega=prep.config.weights, power=power,
            mode="peak",
        )
        su_cols = np.argwhere((owner >= 0) & (owner < k1))
        if drop and su_cols.size:
            # an SU's columns of one frame carry no power: the trim leaves
            # them out of its search and releases them
            t0, n0 = su_cols[rng.integers(len(su_cols))]
            p_win[t0, owner[t0] == owner[t0, n0]] = 0.0

        lam_vec = np.broadcast_to(np.asarray(lam, float), (t,)).copy()
        o_lib, p_lib = owner.copy(), p_win.copy()
        o_ref, p_ref = owner.copy(), p_win.copy()
        _trim_su_surplus(prep, o_lib, p_lib, lam_vec)
        oracles.looped_trim_su_surplus(prep, o_ref, p_ref, lam_vec)
        assert np.array_equal(o_lib, o_ref) and np.array_equal(p_lib, p_ref)

        residual = power - p_ref.sum(axis=1)
        o_lib, p_lib = o_ref.copy(), p_ref.copy()
        _refill_nu_water(prep, o_lib, p_lib, lam_vec, st_.nu_class)
        budgets = oracles.looped_refill_nu_water(
            prep, o_ref, p_ref, lam_vec, residual, dual_solver._LAMBDA_FLOOR)
        assert np.array_equal(o_lib, o_ref)
        np.testing.assert_allclose(p_lib, p_ref, rtol=0.0, atol=1e-12 * power)
        for frame, budget in budgets.items():
            # the NU spend meets the NU budget to rounding, and the frame's
            # total, summed as an Allocation sums it, never exceeds the cap
            su = (o_lib[frame] >= 0) & (o_lib[frame] < k1)
            nu_budget = power - np.where(su, p_lib[frame], 0.0).sum()
            nu_spend = np.where(su, 0.0, p_lib[frame]).sum()
            assert abs(nu_budget - budget) <= 1e-12 * power
            assert abs(nu_spend - nu_budget) <= 1e-12 * power
            assert p_lib[frame].sum() <= power

    def test_trim_drop_path_unassigns_the_group(self):
        # SU 0 owns every column of two frames; frame 1's columns carry no
        # power, so the threshold search leaves them out and they are
        # released, while frame 0's are trimmed
        cfg = make_config(n=2, k=3, k1=1, c=0.1, power=10.0, mode="peak")
        alpha = np.array([[[5.0, 4.0], [0.1, 0.2], [0.2, 0.1]],
                          [[3.0, 6.0], [0.1, 0.3], [0.2, 0.2]]])
        prep = _Prepared(ChannelEnsemble(alpha=alpha, seed=0, rho=1.0), cfg)
        mu, lam = np.array([3.0]), np.array([0.5, 0.5])
        st_ = _eval_point(prep, mu, lam)
        owner, p_win = st_.owner, st_.p_win
        assert np.all(owner == 0)
        p_before = p_win[0].sum()
        p_win[1] = 0.0      # frame 1's columns carry no power
        o_ref, p_ref = owner.copy(), p_win.copy()
        _trim_su_surplus(prep, owner, p_win, lam)
        oracles.looped_trim_su_surplus(prep, o_ref, p_ref, lam)
        assert owner[1].tolist() == [-1, -1] and owner[0, 0] == 0
        assert np.array_equal(owner, o_ref) and np.array_equal(p_win, p_ref)
        assert 0 < p_win[0].sum() < p_before


@given(
    k=st.integers(2, 6), k1_frac=st.floats(0.0, 1.0),
    n=st.integers(1, 8), t=st.integers(1, 6),
    kinds=st.lists(st.sampled_from(["trim", "keep", "zero"]), min_size=5, max_size=5),
    power=st.floats(1.0, 50.0), seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_trim_lowers_each_su_to_its_target_and_refill_keeps_the_cap(
    k, k1_frac, n, t, kinds, power, seed,
):
    # the peak recovery on the auction at its own frame prices: one lower
    # secrecy price per trimmed SU, so no column gains power, the trimmed
    # SUs land on their targets, the others are not touched, and the
    # refill keeps every frame within its budget
    rng = np.random.default_rng(seed)
    k1 = min(1 + int(k1_frac * (k - 1)), k - 1)
    prep = random_problem(rng, k, k1, n, t, False, power)
    mu = rng.uniform(0.5, 6.0, size=k1)
    lam_t = _solve_lambda_peak(prep, mu, 1e-2 * power / 4)
    st_ = _eval_point(prep, mu, lam_t)
    owner, p_win = st_.owner, st_.p_win
    achieved = st_.secrecy
    kind = np.array(kinds[:k1])
    trim = (kind == "trim") & (achieved > 0)
    targets = np.where(trim, achieved * rng.uniform(0.2, 0.95, size=k1),
                       achieved * rng.uniform(1.001, 2.0, size=k1) + 0.1)
    targets[kind == "zero"] = 0.0
    prep.config = make_config(
        n=n, k=k, k1=k1, c=targets, omega=np.ones(k - k1), power=power, mode="peak",
    )
    o_new, p_new = owner.copy(), p_win.copy()
    _trim_su_surplus(prep, o_new, p_new, lam_t)

    assert np.all(p_new <= p_win)
    su = (owner >= 0) & (owner < k1)
    mine = su & trim[np.where(su, owner, 0)]
    assert np.array_equal(o_new[~mine], owner[~mine])
    assert np.array_equal(p_new[~mine], p_win[~mine])
    # a trimmed SU keeps only powered columns
    assert np.all((o_new[mine] == owner[mine]) == (p_new[mine] > 0))
    kept = mine & (o_new >= 0)
    a, b, p = prep.nu1[kept], prep.nu2[kept], p_new[kept]
    r_su = np.bincount(o_new[kept], np.log1p(p * a) - np.log1p(p * b),
                       minlength=k1) / t
    # the search's band, with room for the rounding of p'/lam_t
    band = 1e-6 * targets * (1 + 1e-9)
    assert np.all(np.abs(r_su - targets)[trim] <= band[trim])

    _refill_nu_water(prep, o_new, p_new, lam_t, st_.nu_class)
    assert np.all(p_new.sum(axis=1) <= power)


def test_initial_mu_at_a_tight_tolerance_stops_within_its_rounds():
    cfg = make_config(n=8, k=4, k1=2, c=[0.4, 0.7], power=50.0)
    prep = _Prepared(generate_ensemble(cfg, 20, seed=3), cfg)
    lam0 = _solve_lambda_avg(prep, np.zeros(2), 1e-3)
    for rounds in (6, 28):
        with recorded_auctions() as log:
            mu = _initial_mu(prep, lam0, 1e-7, rounds=rounds)
            oracles.looped_initial_mu(prep, lam0, rounds=rounds)
            assert np.all(mu > 0)
            assert_mu_contract(log, prep, lam0, 1e-7, mu, rounds)


@given(
    k=st.integers(2, 6), k1_frac=st.floats(0.0, 1.0), n=st.integers(1, 8),
    zero_mu=st.booleans(), warm=st.booleans(),
    eps=st.sampled_from([1.0, 1e-2, 1e-6]), power=st.floats(1.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_one_frame_prices_the_same_in_both_modes(
    k, k1_frac, n, zero_mu, warm, eps, power, seed,
):
    # one power-price search serves both modes: with a single frame the
    # per-frame price is the scalar one
    rng = np.random.default_rng(seed)
    k1 = min(1 + int(k1_frac * (k - 1)), k - 1)
    prep = random_problem(rng, k, k1, n, 1, False, power)
    mu = rng.uniform(0.0, 4.0, size=k1)
    if zero_mu:
        mu[rng.integers(k1)] = 0.0
    tol = eps * power / 4
    lam_warm = None
    if warm:
        lam_warm = _solve_lambda_avg(prep, mu, tol) * rng.uniform(0.3, 3)
    got = _solve_lambda_peak(prep, mu, tol,
                             None if lam_warm is None else np.array([lam_warm]))
    assert got.shape == (1,)
    assert got[0] == _solve_lambda_avg(prep, mu, tol, lam_warm)


@given(
    k=st.integers(2, 6), k1_frac=st.floats(0.0, 1.0),
    n=st.integers(1, 8), t=st.integers(1, 8), warm=st.booleans(),
    eps=st.sampled_from([1.0, 1e-2, 1e-6]), power=st.floats(1.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_frame_prices_meet_their_budget_from_below(
    k, k1_frac, n, t, warm, eps, power, seed,
):
    rng = np.random.default_rng(seed)
    k1 = min(1 + int(k1_frac * (k - 1)), k - 1)
    prep = random_problem(rng, k, k1, n, t, False, power)
    mu = rng.uniform(0.0, 4.0, size=k1)
    tol, floor, rtol = eps * power / 4, dual_solver._LAMBDA_FLOOR, dual_solver._LAMBDA_RTOL
    lam_warm = None
    if warm:
        lam_warm = _solve_lambda_peak(prep, mu, tol) * rng.uniform(0.3, 3, size=t)
    lam = _solve_lambda_peak(prep, mu, tol, lam_warm)
    spend = _eval_point(prep, mu, lam).power_t
    assert np.all(spend <= power)
    # each frame is within the tolerance, at the floor, or stopped by the
    # bracket width: then just below its price it overspends
    close = power - spend <= tol
    below = _eval_point(prep, mu, lam * (1 - 2 * rtol)).power_t > power
    assert np.all(close | (lam == floor) | below)


@pytest.mark.parametrize("mode", ["average", "peak"])
def test_a_warm_start_that_overspends_probes_nothing_below_it(mode):
    cfg = make_config(n=8, k=4, k1=2, c=[0.4, 0.7], power=50.0, mode=mode)
    prep = _Prepared(generate_ensemble(cfg, 20, seed=3), cfg)
    mu, tol = np.array([1.0, 2.0]), 1e-6 * cfg.power
    search = _solve_lambda_peak if mode == "peak" else _solve_lambda_avg
    lam = search(prep, mu, tol)
    # at a quarter of the price, 2 * warm overspends
    warm = lam / 4.0
    overspent = _eval_point(prep, mu, 2.0 * warm)
    if mode == "peak":
        assert np.all(overspent.power_t > cfg.power)
    else:
        assert overspent.power_mean > cfg.power
    with recorded_auctions() as log:
        search(prep, mu, tol, warm)
    # every lower end moves off the floor in the bracket, so the floor is
    # never probed
    assert log["lib"]
    for _, probe, kw in log["lib"]:
        frames = kw.get("frames")
        assert np.all(probe >= 2.0 * (warm if frames is None else warm[frames]))
