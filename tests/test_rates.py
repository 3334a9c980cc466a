import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from secure_ofdma import (
    ChannelEnsemble,
    DualState,
    apply_policy,
    generate_ensemble,
    h_nu,
    h_su,
    info_rate,
    nu_power,
    secrecy_rate,
    su_power,
)
from secure_ofdma.rates import _h_su_core, _NuCandidates, _su_power_core, _su_terms

from conftest import make_config
from oracles import nu_power_oracle, su_power_oracle, textbook_h_su, textbook_su_power

cnr = st.floats(1e-3, 1e3)
mult = st.floats(1e-3, 1e2)


class TestRates:
    def test_secrecy_rate_examples(self):
        assert secrecy_rate(0.0, 2.0, 1.0) == 0.0
        assert secrecy_rate(5.0, 1.0, 1.0) == 0.0
        assert math.isclose(secrecy_rate(1.0, 3.0, 1.0), math.log(2.0))

    def test_secrecy_rate_clamps_at_zero(self):
        assert secrecy_rate(2.0, 1.0, 4.0) == 0.0

    def test_info_rate_examples(self):
        assert info_rate(0.0, 7.0) == 0.0
        assert math.isclose(info_rate(1.0, math.e - 1.0), 1.0)
        assert math.isclose(info_rate(3.0, 2.0), math.log(7.0))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            secrecy_rate(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            info_rate(-1.0, 1.0)


class TestSuPower:
    def test_zero_when_eavesdropper_stronger(self):
        assert su_power(1.0, 2.0, 5.0, 1.0) == 0.0

    def test_zero_exactly_at_threshold(self):
        assert su_power(2.0, 1.0, 1.0, 1.0) == 0.0

    def test_matches_numeric_maximizer(self):
        p_star, _ = su_power_oracle(2.0, 1.0, 2.0, 1.0)
        assert abs(su_power(2.0, 1.0, 2.0, 1.0) - p_star) < 1e-6

    def test_lam_zero_rejected(self):
        with pytest.raises(ValueError):
            su_power(2.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            su_power(2.0, 1.0, -1.0, 1.0)

    @given(cnr, cnr, mult, mult)
    @settings(max_examples=150, deadline=None)
    def test_oracle_agreement(self, alpha, beta, mu, lam):
        p = su_power(alpha, beta, mu, lam)
        p_star, value = su_power_oracle(alpha, beta, mu, lam)
        assert abs(p - p_star) < 1e-5 * (1 + p_star)

    @given(cnr, mult, mult)
    @settings(max_examples=80, deadline=None)
    def test_positivity_threshold_is_exact(self, beta, mu, lam):
        boundary = beta + lam / mu
        assert su_power(boundary + 1e-9, beta, mu, lam) > 0.0
        assert su_power(boundary - 1e-9, beta, mu, lam) == 0.0

    @given(cnr, mult)
    @settings(max_examples=50, deadline=None)
    def test_zero_multiplier_kills_power(self, beta, lam):
        assert su_power(beta * 3.0, beta, 0.0, lam) == 0.0
        assert h_su(beta * 3.0, beta, 0.0, lam) == 0.0

    def test_nonincreasing_in_price_ratio(self):
        # power depends on (mu, lam) only through lam/mu
        ratios = np.linspace(0.05, 2.0, 30)
        powers = [su_power(4.0, 1.0, 1.0, r) for r in ratios]
        assert all(a >= b - 1e-12 for a, b in zip(powers, powers[1:]))


def _same_bits(got, want):
    """Equal shapes and bytes: tells -0.0 from +0.0 and compares NaNs."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _read_only(a):
    a = np.array(a, float)
    a.flags.writeable = False
    return a


# (alpha, beta, mu, lam) columns; mu is 0 on some of them
su_columns = st.integers(2, 40).flatmap(lambda m: st.tuples(*(
    hnp.arrays(float, m, elements=e)
    for e in (cnr, cnr, st.one_of(st.just(0.0), mult), mult))))


class TestSuKernels:
    """The in-place SU kernels against the textbook expressions, bit for bit."""

    @given(su_columns, st.sampled_from(["scalar", "per_column", "threshold"]),
           st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_kernels_match_the_textbook(self, columns, prices, all_active, with_terms):
        alpha, beta, mu, lam = columns
        # an auction's one price, a peak auction's price per column, or the
        # gap-threshold search's price pair (1/x, 1)
        lam = {"scalar": lam[0], "per_column": lam, "threshold": 1.0}[prices]
        if all_active:
            mu = np.maximum(mu, 1e-3)
            alpha = beta + 2.0 * lam / mu
        else:   # one column idle at mu = 0 and one active
            mu[:2] = 0.0, 1.0
            alpha[1] = beta[1] + 2.0 * np.broadcast_to(lam, mu.shape)[1]
        want_h, want_p, want_rs = textbook_h_su(alpha, beta, mu, lam)
        # every write into an input raises
        alpha, beta, mu = map(_read_only, (alpha, beta, mu))
        lam = _read_only(lam) if np.ndim(lam) else lam
        terms = _read_only(_su_terms(alpha, beta)) if with_terms else None
        assert (want_p > 0).all() == all_active
        assert _same_bits(_su_power_core(alpha, beta, mu, lam, terms), want_p)
        h, p, rs = _h_su_core(alpha, beta, mu, lam, terms)
        assert _same_bits(h, want_h) and _same_bits(p, want_p)
        assert _same_bits(rs, want_rs)

    @given(cnr, cnr, st.one_of(st.just(0.0), mult), mult)
    @settings(max_examples=150, deadline=None)
    def test_scalars_match_the_textbook(self, alpha, beta, mu, lam):
        p, h = su_power(alpha, beta, mu, lam), h_su(alpha, beta, mu, lam)
        assert type(p) is float and type(h) is float
        assert _same_bits(p, textbook_su_power(alpha, beta, mu, lam))
        assert _same_bits(h, textbook_h_su(alpha, beta, mu, lam)[0])


class TestNuPower:
    def test_examples(self):
        assert nu_power(1.0, 1.0, 2.0) == 0.0
        assert math.isclose(nu_power(1.0, 1.0, 0.5), 1.0)
        assert math.isclose(nu_power(4.0, 2.0, 1.0), 1.75)

    @given(cnr, mult, mult)
    @settings(max_examples=150, deadline=None)
    def test_oracle_agreement(self, alpha, omega, lam):
        p = nu_power(alpha, omega, lam)
        p_star, _ = nu_power_oracle(alpha, omega, lam)
        assert abs(p - p_star) < 1e-5 * (1 + p_star)

    def test_lam_zero_rejected(self):
        with pytest.raises(ValueError):
            nu_power(1.0, 1.0, 0.0)


class TestPayoffs:
    def test_h_su_examples(self):
        assert h_su(1.0, 2.0, 3.0, 1.0) == 0.0
        assert h_su(2.0, 1.0, 1.0, 1.0) == 0.0
        _, value = su_power_oracle(2.0, 1.0, 2.0, 1.0)
        assert abs(h_su(2.0, 1.0, 2.0, 1.0) - value) < 1e-8

    def test_h_nu_examples(self):
        assert h_nu(1.0, 1.0, 2.0) == 0.0
        assert math.isclose(h_nu(1.0, 1.0, 0.5), math.log(2.0) - 0.5)
        assert math.isclose(h_nu(math.e, 1.0, 1.0), 1.0 / math.e)

    @given(cnr, cnr, mult, mult)
    @settings(max_examples=150, deadline=None)
    def test_h_su_is_the_maximized_payoff(self, alpha, beta, mu, lam):
        h = h_su(alpha, beta, mu, lam)
        assert h >= 0.0
        p = su_power(alpha, beta, mu, lam)
        rs = secrecy_rate(p, alpha, beta)
        assert abs(h - (mu * rs - lam * p)) < 1e-8
        _, value = su_power_oracle(alpha, beta, mu, lam)
        assert h >= value - 1e-7

    @given(cnr, mult, mult)
    @settings(max_examples=150, deadline=None)
    def test_h_nu_is_the_maximized_payoff(self, alpha, omega, lam):
        h = h_nu(alpha, omega, lam)
        assert h >= 0.0
        p = nu_power(alpha, omega, lam)
        assert abs(h - (omega * info_rate(p, alpha) - lam * p)) < 1e-8
        _, value = nu_power_oracle(alpha, omega, lam)
        assert h >= value - 1e-7

    @given(st.lists(cnr, min_size=2, max_size=6), mult, mult)
    @settings(max_examples=80, deadline=None)
    def test_h_nu_monotone_in_alpha(self, alphas, omega, lam):
        alphas = sorted(alphas)
        values = [h_nu(a, omega, lam) for a in alphas]
        assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))


@pytest.mark.parametrize("omega", [1.0, [1.0, 2.0, 1.0, 2.0]], ids=["G1", "G2"])
def test_nu_candidates_gather_their_cnrs_at_the_index(omega):
    cfg = make_config(n=8, k=6, k1=2, omega=omega)
    ens = generate_ensemble(cfg, 12, seed=4)
    nu = _NuCandidates(ens, 2, cfg.weights)
    want = np.take_along_axis(ens.alpha[:, 2:, :], nu.index, axis=1)
    assert want.shape == (12, nu.weights.size, 8)
    assert np.array_equal(nu.alpha(), want)
    if nu.weights.size == 1:   # the one candidate is each column's strongest NU
        assert np.array_equal(want[:, 0], ens.alpha[:, 2:, :].max(axis=1))


def auction_column(column, duals, cfg):
    """One column auctioned by ``apply_policy``: ``(owner or None, power)``."""
    ens = ChannelEnsemble(alpha=np.asarray(column, float)[None, :, None],
                          seed=0, rho=1.0)
    alloc, _ = apply_policy(ens, duals, cfg)
    owner = int(alloc.owner[0, 0])
    return (None if owner < 0 else owner), float(alloc.power[0, 0])


class TestAssignSubcarrier:
    """The per-subcarrier auction, on one-frame one-subcarrier ensembles."""

    def test_su_wins_with_dominant_channel(self):
        cfg = make_config(n=1, k=3, k1=1, c=0.5, omega=[1.0, 1.0])
        duals = DualState(mu=[1.0], lam=1.0)
        column = np.array([5.0, 1.0, 1.0])
        owner, p = auction_column(column, duals, cfg)
        assert owner == 0
        assert math.isclose(p, su_power(5.0, 1.0, 1.0, 1.0))
        # the SU bid must dominate each NU bid
        assert h_su(5.0, 1.0, 1.0, 1.0) > h_nu(1.0, 1.0, 1.0)

    def test_best_nu_wins_when_secrecy_unpriced(self):
        cfg = make_config(n=1, k=3, k1=1, c=0.0, omega=[1.0, 1.0])
        duals = DualState(mu=[0.0], lam=0.5)
        owner, p = auction_column(np.array([9.0, 2.0, 3.0]), duals, cfg)
        assert owner == 2
        assert math.isclose(p, nu_power(3.0, 1.0, 0.5))

    def test_unassigned_when_price_too_high(self):
        cfg = make_config(n=1, k=3, k1=1, c=0.5, omega=[1.0, 1.0])
        duals = DualState(mu=[1.0], lam=1e6)
        owner, p = auction_column(np.array([2.0, 1.0, 1.5]), duals, cfg)
        assert owner is None and p == 0.0

    def test_direct_argmax(self):
        # engineered so the SU payoff clearly exceeds the NU payoff
        cfg = make_config(n=1, k=2, k1=1, c=0.5, omega=[1.0])
        duals = DualState(mu=[4.0], lam=1.0)
        column = np.array([8.0, 0.9])
        h_secure = h_su(8.0, 0.9, 4.0, 1.0)
        h_normal = h_nu(0.9, 1.0, 1.0)
        assert h_secure > h_normal
        owner, _ = auction_column(column, duals, cfg)
        assert owner == 0

    def test_nu_preferred_on_exact_tie(self):
        # a zero-payoff tie must leave the subcarrier unassigned, not SU-owned
        cfg = make_config(n=1, k=2, k1=1, c=0.5, omega=[1.0])
        duals = DualState(mu=[1.0], lam=50.0)
        owner, p = auction_column(np.array([3.0, 2.0]), duals, cfg)
        assert owner is None and p == 0.0

    @given(st.integers(0, 10_000), mult, mult)
    @settings(max_examples=60, deadline=None)
    def test_winner_has_the_largest_payoff(self, seed, mu_val, lam):
        # the auction result must dominate every user's independently
        # computed payoff, with the NU-on-tie policy
        rng = np.random.default_rng(seed)
        k, k1 = 5, 2
        cfg = make_config(n=1, k=k, k1=k1, c=0.5, omega=rng.uniform(0.5, 2, 3))
        column = rng.exponential(size=k) + 1e-3
        duals = DualState(mu=[mu_val, mu_val / 2], lam=lam)
        owner, p = auction_column(column, duals, cfg)
        best = column.max()
        second = np.sort(column)[-2]
        payoffs = []
        for u in range(k):
            beta = second if column[u] == best else best
            if u < k1:
                payoffs.append(h_su(column[u], beta, duals.mu[u], lam))
            else:
                payoffs.append(h_nu(column[u], cfg.weights[u - k1], lam))
        if owner is None:
            assert max(payoffs) == 0.0
        else:
            assert payoffs[owner] == max(payoffs)
            if owner < k1:  # an SU wins only by strictly beating every NU
                assert all(payoffs[owner] > payoffs[j] for j in range(k1, k))
