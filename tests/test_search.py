"""The bracket-and-bisect primitive and the dual-solver stages built on it."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from secure_ofdma import dual_solver
from secure_ofdma._search import bisect, bisect_monotone, bracket
from secure_ofdma.channel import ChannelEnsemble
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
        def probe(x):
            return x * x < 2.0, abs(x * x - 2.0) <= 1e-12

        lo, hi, steps = bisect(probe, 0.0, 2.0)
        assert np.ndim(lo) == 0 and np.ndim(hi) == 0
        assert min(abs(float(lo) - 2**0.5), abs(float(hi) - 2**0.5)) < 1e-12
        assert 0 < steps < 60

    def test_elements_stop_on_their_own(self):
        roots = np.array([0.3, 3.1, 7.3])
        calls = []

        def probe(x):
            calls.append(x.copy())
            return x < roots, np.abs(x - roots) <= np.array([1e-3, 1e-9, 1.0])

        lo, hi, steps = bisect(probe, np.zeros(3), np.full(3, 8.0))
        assert np.all((lo <= roots) & (roots <= hi))
        assert steps == len(calls) > 20
        # the loosest tolerance stops within a few steps; from then on the
        # element is probed at its hi and no longer moves
        assert calls[-1][2] == calls[-2][2] == calls[5][2] == hi[2]

    def test_width_stop_and_step_cap(self):
        def probe(x):
            return np.ones(np.shape(x), bool), False

        lo, hi, steps = bisect(probe, 0.0, 1.0, xtol=0.25)
        assert (float(lo), float(hi), steps) == (0.75, 1.0, 2)
        lo, hi, steps = bisect(probe, 1.0, 1024.0, geometric=True, rtol=0.0,
                               max_steps=3)
        assert steps == 3 and float(lo) == pytest.approx(1024.0 ** (7 / 8))

    def test_done_elements_never_move(self):
        def probe(x):
            return x < 0.3, False

        lo, hi, _ = bisect(probe, np.zeros(2), np.ones(2), max_steps=30,
                           done=np.array([True, False]))
        assert (lo[0], hi[0]) == (0.0, 1.0)
        assert abs(lo[1] - 0.3) < 1e-8

    def test_bracket_grows_and_carries_lo(self):
        probes = []

        def probe(x):
            probes.append(x.copy())
            return x < np.array([5.0, 0.5]), False

        lo, hi = bracket(probe, np.zeros(2), np.ones(2), 2.0)
        assert hi.tolist() == [8.0, 1.0] and lo.tolist() == [4.0, 0.0]
        assert len(probes) == 4

    def test_bracket_limit_is_not_probed(self):
        probes = []

        def probe(x):
            probes.append(float(x))
            return True, False

        lo, hi = bracket(probe, 0.0, 1.0, 4.0, limit=4.0**3)
        assert probes == [1.0, 4.0, 16.0]
        assert (float(lo), float(hi)) == (16.0, 64.0)

    def test_bracket_raises_when_it_cannot(self):
        with pytest.raises(RuntimeError):
            bracket(lambda x: (True, False), 0.0, 1.0, 2.0, max_steps=5)

    def test_bisect_monotone_returns_last_probe(self):
        out = bisect_monotone(lambda x: x**3, 2.0, 0.0, 4.0, 1e-9, increasing=True)
        assert out.converged and abs(out.value**3 - 2.0) <= 1e-9
        assert out.iterations == len(out.trace) + 1
        for lo, hi in out.trace:
            assert lo**3 < 2.0 < hi**3


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


def assert_same_probes(log, scalar_lam=False):
    assert len(log["lib"]) == len(log["oracle"])
    for (mu_a, lam_a, kw_a), (mu_b, lam_b, kw_b) in zip(log["lib"], log["oracle"]):
        assert np.array_equal(mu_a, mu_b)
        assert np.array_equal(lam_a, lam_b)
        assert kw_a == kw_b
        if scalar_lam:
            # a size-1 array would switch the auction to per-frame prices
            assert isinstance(lam_a, float)
    log["lib"].clear()
    log["oracle"].clear()


def random_problem(rng, k, k1, n, t, zero_target, power):
    n_nu = k - k1
    targets = rng.uniform(0.05, 1.5, size=k1)
    if zero_target:
        targets[rng.integers(k1)] = 0.0
    cfg = make_config(n=n, k=k, k1=k1, c=targets, omega=np.ones(n_nu),
                      power=power, mode="peak")
    alpha = rng.exponential(size=(t, k, n)) + 1e-3
    return _Prepared(ChannelEnsemble(alpha=alpha, seed=0, rho=1.0), cfg)


class TestStagesMatchLoops:
    """Each rewritten stage against the parent's hand-rolled loop."""

    @given(
        k=st.integers(2, 6), k1_frac=st.floats(0.0, 1.0),
        n=st.integers(1, 8), t=st.integers(1, 6),
        zero_target=st.booleans(), zero_mu=st.booleans(),
        at_floor=st.booleans(), warm=st.booleans(),
        eps=st.sampled_from([1e-2, 1e-6]), power=st.floats(1.0, 50.0),
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
        floor = 1e-12
        if at_floor:
            # a floor inside the spread of the resolved prices pins some
            # frames (or the scalar price) to it
            lam_t, _ = _solve_lambda_peak(prep, mu, tol, floor)
            floor = float(np.quantile(lam_t, 0.5)) * 1.01

        with recorded_auctions() as log:
            warm_avg = None
            if warm:
                warm_avg = _solve_lambda_avg(prep, mu, tol, 1e-12) * rng.uniform(0.3, 3)
                log["lib"].clear()
            got = _solve_lambda_avg(prep, mu, tol, floor, warm_avg)
            want, _, _ = oracles.looped_solve_lambda_avg(prep, mu, tol, floor, warm_avg)
            assert isinstance(got, float) and got == want
            assert_same_probes(log, scalar_lam=True)

            warm_t = None
            if warm:
                warm_t, _ = _solve_lambda_peak(prep, mu, tol, 1e-12)
                warm_t = warm_t * rng.uniform(0.3, 3, size=t)
                log["lib"].clear()
            got_t, got_floor = _solve_lambda_peak(prep, mu, tol, floor, warm_t)
            want_t, want_floor = oracles.looped_solve_lambda_peak(
                prep, mu, tol, floor, warm_t
            )
            assert np.array_equal(got_t, want_t)
            assert np.array_equal(got_floor, want_floor)
            if at_floor and t > 1:
                assert got_floor.any()
            assert_same_probes(log)

            lam0 = float(np.median(got_t)) if warm else got
            assert np.array_equal(_initial_mu(prep, lam0),
                                  oracles.looped_initial_mu(prep, lam0))
            assert_same_probes(log)

    @given(
        k=st.integers(2, 6), k1_frac=st.floats(0.0, 1.0),
        n=st.integers(1, 8), t=st.integers(1, 6),
        zero_mu=st.booleans(), scalar_lam=st.booleans(), drop=st.booleans(),
        eps=st.sampled_from([1e-2, 0.2]), power=st.floats(1.0, 50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_trim_and_refill_match(self, k, k1_frac, n, t, zero_mu, scalar_lam,
                                   drop, eps, power, seed):
        rng = np.random.default_rng(seed)
        k1 = min(1 + int(k1_frac * (k - 1)), k - 1)
        prep = random_problem(rng, k, k1, n, t, False, power)
        mu = rng.uniform(0.5, 6.0, size=k1)
        if zero_mu:
            mu[rng.integers(k1)] = 0.0
        lam_t, _ = _solve_lambda_peak(prep, mu, eps * power / 4, 1e-12)
        lam = float(np.median(lam_t)) if scalar_lam else lam_t
        st_ = _eval_point(prep, mu, lam, full=True, arrays=True)
        owner, p_win = st_.owner, st_.p_win

        # targets below the achieved secrecy so that trimming runs; an SU
        # without columns in some frames is common at these sizes
        achieved = st_.secrecy
        targets = achieved * rng.uniform(0.2, 0.95, size=k1)
        targets[achieved <= 0] = 0.3
        prep.config = make_config(
            n=n, k=k, k1=k1, c=targets, omega=np.ones(k - k1), power=power,
            mode="peak",
        )
        su_cols = np.argwhere((owner >= 0) & (owner < k1))
        if drop and su_cols.size:
            # a (frame, SU) group with zero power has a zero frame target
            t0, n0 = su_cols[rng.integers(len(su_cols))]
            p_win[t0, owner[t0] == owner[t0, n0]] = 0.0

        o_lib, p_lib = owner.copy(), p_win.copy()
        o_ref, p_ref = owner.copy(), p_win.copy()
        _trim_su_surplus(prep, o_lib, p_lib, mu, lam, eps)
        oracles.looped_trim_su_surplus(prep, o_ref, p_ref, mu, lam, eps)
        assert np.array_equal(o_lib, o_ref)
        np.testing.assert_allclose(p_lib, p_ref, rtol=1e-6, atol=0.0)

        lam_vec = np.broadcast_to(np.asarray(lam, float), (t,)).copy()
        residual = power - p_ref.sum(axis=1)
        o_lib, p_lib = o_ref.copy(), p_ref.copy()
        _refill_nu_water(prep, o_lib, p_lib, lam_vec, residual, 1e-12)
        oracles.looped_refill_nu_water(prep, o_ref, p_ref, lam_vec, residual, 1e-12)
        assert np.array_equal(o_lib, o_ref)
        assert np.array_equal(p_lib, p_ref)

    def test_trim_drop_path_unassigns_the_group(self):
        # SU 0 owns every column of two frames; frame 1's columns carry no
        # power, so that frame's share of the target is 0 and its columns
        # are released, while frame 0 is trimmed by the bisection
        cfg = make_config(n=2, k=3, k1=1, c=0.1, power=10.0, mode="peak")
        alpha = np.array([[[5.0, 4.0], [0.1, 0.2], [0.2, 0.1]],
                          [[3.0, 6.0], [0.1, 0.3], [0.2, 0.2]]])
        prep = _Prepared(ChannelEnsemble(alpha=alpha, seed=0, rho=1.0), cfg)
        mu, lam = np.array([3.0]), np.array([0.5, 0.5])
        st_ = _eval_point(prep, mu, lam, full=True, arrays=True)
        owner, p_win = st_.owner, st_.p_win
        assert np.all(owner == 0)
        p_before = p_win[0].sum()
        p_win[1] = 0.0      # frame 1's group has no secrecy: target_t = 0
        o_ref, p_ref = owner.copy(), p_win.copy()
        _trim_su_surplus(prep, owner, p_win, mu, lam, 1e-2)
        oracles.looped_trim_su_surplus(prep, o_ref, p_ref, mu, lam, 1e-2)
        assert owner[1].tolist() == [-1, -1] and owner[0, 0] == 0
        assert np.array_equal(owner, o_ref)
        np.testing.assert_allclose(p_win, p_ref, rtol=1e-6, atol=0.0)
        assert 0 < p_win[0].sum() < p_before
