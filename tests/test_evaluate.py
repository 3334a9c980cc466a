import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secure_ofdma import dual_solver, evaluate, generate_ensemble, secrecy_rate, info_rate
from secure_ofdma import SolverOptions, solve_average, solve_peak, solve_suboptimal
from secure_ofdma.baselines import SCHEMES, fsa_partition, solve_fsa
from secure_ofdma.allocation import (
    AllocationDecision,
    decisions_from_arrays,
    validate_exclusivity,
)
from secure_ofdma.channel import ChannelEnsemble, column_order_stats
from secure_ofdma.evaluate import EvaluationReport, solve_result, unmet

from conftest import make_config
from oracles import per_frame_decisions, per_frame_evaluate
from test_search import random_instance


def _random_arrays(rng, t, k, n):
    owner = rng.integers(-1, k, size=(t, n))
    power = np.where(owner >= 0, rng.exponential(size=(t, n)), 0.0)
    return owner, power


def _dense(owner, power, k):
    t, n = owner.shape
    dense = np.zeros((t, k, n))
    tt, nn = np.nonzero(owner >= 0)
    dense[tt, owner[tt, nn], nn] = power[tt, nn]
    return dense


def test_all_zero_allocation_gives_all_zero_report():
    cfg = make_config(n=4, k=3, k1=1)
    ens = generate_ensemble(cfg, 5, seed=1)
    alloc = decisions_from_arrays(np.full((5, 4), -1), np.zeros((5, 4)), ens, cfg)
    rep = evaluate(alloc, ens, cfg)
    assert rep.r_nu_total == 0.0
    assert np.all(rep.r_su == 0.0)
    assert rep.avg_power == 0.0
    assert rep.su_subcarriers == 0.0
    assert rep.realizations_used == 5


def test_hand_built_single_realization():
    cfg = make_config(n=2, k=2, k1=1, omega=[2.0])
    ens = generate_ensemble(cfg, 1, seed=3)
    alpha = ens.alpha[0]
    alloc = decisions_from_arrays(
        np.array([[0, 1]]), np.array([[1.5, 2.5]]), ens, cfg
    )
    rep = evaluate(alloc, ens, cfg)

    beta0 = alpha[1, 0]
    expected_secrecy = secrecy_rate(1.5, alpha[0, 0], beta0)
    expected_rate = info_rate(2.5, alpha[1, 1])
    assert np.isclose(rep.r_su[0], expected_secrecy)
    assert np.isclose(rep.r_nu_total, 2.0 * expected_rate)
    assert np.isclose(rep.avg_power, 4.0)
    assert np.isclose(rep.su_power, 1.5)
    assert rep.su_subcarriers == 1.0
    assert np.array_equal(alloc[0].power, [[1.5, 0.0], [0.0, 2.5]])


def test_half_ensemble_linearity():
    cfg = make_config(n=8, k=4, k1=2)
    ens = generate_ensemble(cfg, 10, seed=9)
    owner, power = _random_arrays(np.random.default_rng(4), 10, 4, 8)

    front = ChannelEnsemble(alpha=ens.alpha[:5], seed=0, rho=cfg.rho)
    back = ChannelEnsemble(alpha=ens.alpha[5:], seed=0, rho=cfg.rho)
    rep_all = evaluate(decisions_from_arrays(owner, power, ens, cfg), ens, cfg)
    rep_a = evaluate(
        decisions_from_arrays(owner[:5], power[:5], front, cfg), front, cfg
    )
    rep_b = evaluate(
        decisions_from_arrays(owner[5:], power[5:], back, cfg), back, cfg
    )
    assert abs(rep_all.r_nu_total - 0.5 * (rep_a.r_nu_total + rep_b.r_nu_total)) < 1e-12
    assert np.allclose(rep_all.r_su, 0.5 * (rep_a.r_su + rep_b.r_su), atol=1e-12)
    assert abs(rep_all.avg_power - 0.5 * (rep_a.avg_power + rep_b.avg_power)) < 1e-12


def test_rates_recomputable_from_power_and_channel():
    cfg = make_config(n=6, k=3, k1=1)
    ens = generate_ensemble(cfg, 4, seed=17)
    owner, power = _random_arrays(np.random.default_rng(2), 4, 3, 6)
    alloc = decisions_from_arrays(owner, power, ens, cfg)

    nu1, nu2, kmax = column_order_stats(ens.alpha)
    assert len(alloc) == 4
    for t, d in enumerate(alloc):
        su, nu = np.zeros(1), np.zeros(2)
        for n in range(6):
            u = d.owner[n]
            if u < 0:
                assert alloc.rate[t, n] == 0.0
                continue
            p = d.power[u, n]
            a = ens.alpha[t, u, n]
            if u < 1:
                beta = nu2[t, n] if kmax[t, n] == u else nu1[t, n]
                r = secrecy_rate(p, a, beta)
                su[u] += r
            else:
                r = info_rate(p, a)
                nu[u - 1] += r
            assert abs(alloc.rate[t, n] - r) < 1e-12
        assert np.allclose(d.su_secrecy, su, atol=1e-12)
        assert np.allclose(d.nu_rate, nu, atol=1e-12)
        assert abs(d.total_power - d.power.sum()) < 1e-12


def test_mismatched_ensemble_rejected():
    cfg = make_config(n=4, k=3, k1=1)
    ens = generate_ensemble(cfg, 5, seed=1)
    short = ChannelEnsemble(alpha=ens.alpha[:4], seed=0, rho=cfg.rho)
    alloc4 = decisions_from_arrays(np.full((4, 4), -1), np.zeros((4, 4)), short, cfg)
    with pytest.raises(ValueError):
        evaluate(alloc4, ens, cfg)
    wide_cfg = make_config(n=5, k=3, k1=1)
    wide = generate_ensemble(wide_cfg, 5, seed=1)
    bad = decisions_from_arrays(np.full((5, 5), -1), np.zeros((5, 5)), wide, wide_cfg)
    with pytest.raises(ValueError):
        evaluate(bad, ens, cfg)
    more_users = generate_ensemble(make_config(n=4, k=4, k1=1), 5, seed=1)
    with pytest.raises(ValueError):
        evaluate(alloc4, more_users, cfg)
    with pytest.raises(ValueError):
        decisions_from_arrays(np.full((5, 4), -1), np.zeros((5, 5)), ens, cfg)
    # owners that are outside [-1, K) or not whole numbers, and powers
    # that are negative or not finite
    for bad_owner in (-2, 3, 0.7, np.nan):
        owner = np.full((5, 4), -1.0)
        owner[2, 1] = bad_owner
        with pytest.raises(ValueError, match="owners"):
            decisions_from_arrays(owner, np.ones((5, 4)), ens, cfg)
    whole = decisions_from_arrays(np.full((5, 4), 2.0), np.ones((5, 4)), ens, cfg)
    assert whole.owner.dtype == np.int64 and np.all(whole.owner == 2)
    for bad_power in (-1.0, np.nan, np.inf):
        power = np.ones((5, 4))
        power[2, 1] = bad_power
        with pytest.raises(ValueError, match="power"):
            decisions_from_arrays(np.zeros((5, 4), int), power, ens, cfg)


def test_exclusivity_validation():
    cfg = make_config(n=2, k=2, k1=1)
    good = AllocationDecision(
        owner=np.array([0, -1]),
        power=np.array([[1.0, 0.0], [0.0, 0.0]]),
        su_secrecy=np.zeros(1),
        nu_rate=np.zeros(1),
        total_power=1.0,
    )
    validate_exclusivity(good)

    double = AllocationDecision(
        owner=np.array([0, -1]),
        power=np.array([[1.0, 0.0], [1.0, 0.0]]),
        su_secrecy=np.zeros(1),
        nu_rate=np.zeros(1),
        total_power=2.0,
    )
    with pytest.raises(ValueError):
        validate_exclusivity(double)

    ghost = AllocationDecision(
        owner=np.array([-1, -1]),
        power=np.array([[0.0, 1.0], [0.0, 0.0]]),
        su_secrecy=np.zeros(1),
        nu_rate=np.zeros(1),
        total_power=1.0,
    )
    with pytest.raises(ValueError):
        validate_exclusivity(ghost)

    # every frame view of an allocation powers only its owners
    ens = generate_ensemble(cfg, 6, seed=5)
    owner, power = _random_arrays(np.random.default_rng(7), 6, 2, 2)
    power[0, 0] = 0.0   # an owned column at zero power
    for d in decisions_from_arrays(owner, power, ens, cfg):
        validate_exclusivity(d)


@given(
    k=st.integers(2, 6), k1_frac=st.floats(0.0, 1.0),
    n=st.integers(1, 8), t=st.integers(1, 6),
    unequal=st.booleans(), free=st.floats(0.0, 1.0),
    zero_power=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_matches_per_frame_oracle(k, k1_frac, n, t, unequal, free, zero_power,
                                  seed):
    """Array build and evaluation against the per-frame loops, to 1e-12.

    Owners are drawn at random, so SUs also own columns where they are not
    the strongest user (their secrecy clips to 0).
    """
    rng = np.random.default_rng(seed)
    k1 = min(1 + int(k1_frac * (k - 1)), k - 1)   # K1 = K-1 included
    omega = rng.uniform(0.5, 3.0, size=k - k1) if unequal else 1.0
    cfg = make_config(n=n, k=k, k1=k1, omega=omega)
    ens = ChannelEnsemble(alpha=rng.exponential(size=(t, k, n)), seed=0, rho=1.0)
    owner = np.where(rng.random((t, n)) < free, -1, rng.integers(0, k, size=(t, n)))
    # power on unassigned columns must be dropped, as the dense tensor does
    power = rng.exponential(size=(t, n)) * (rng.random((t, n)) >= zero_power)

    alloc = decisions_from_arrays(owner, power, ens, cfg)
    want = per_frame_decisions(owner, _dense(owner, power, k), ens, cfg)
    assert len(alloc) == len(want)
    for got, ref in zip(alloc, want):
        for field in dataclasses.fields(AllocationDecision):
            np.testing.assert_allclose(
                getattr(got, field.name), getattr(ref, field.name),
                rtol=1e-12, atol=0, err_msg=field.name,
            )
    rep = evaluate(alloc, ens, cfg)
    ref_rep = per_frame_evaluate(want, ens, cfg)
    for field in dataclasses.fields(EvaluationReport):
        np.testing.assert_allclose(
            getattr(rep, field.name), getattr(ref_rep, field.name),
            rtol=1e-12, atol=0, err_msg=field.name,
        )


def _judged(owner, power, c=0.0, cap=10.0, mode="average", **kw):
    """``solve_result`` on a hand-built 2-frame allocation; SU 0 leads column 0."""
    cfg = make_config(n=2, k=3, k1=1, c=c, power=cap, mode=mode)
    alpha = np.tile(np.array([[4.0, 0.5], [1.0, 1.0], [0.5, 2.0]]), (2, 1, 1))
    ens = ChannelEnsemble(alpha=alpha, seed=0, rho=1.0)
    kw = {"infeasible": False, "message": "", **kw}
    return cfg, solve_result(np.array(owner), np.array(power, float), ens, cfg, 1e-2,
                             np.zeros(1), 1.0, iterations=0, **kw)


def test_solve_result_judges_the_allocation_it_returns():
    # SU 0 owns column 0 in both frames; user 2 (an NU) owns column 1
    owner, power = [[0, 2], [0, 2]], [[1.0, 2.0], [1.0, 2.0]]
    cfg, res = _judged(owner, power, c=np.log(5 / 2))
    assert res.converged and res.message == "" and res.duals.lam == 1.0
    # a stopped solver's note goes when its allocation meets every constraint
    assert _judged(owner, power, c=np.log(5 / 2), message="stalled")[1].converged
    _, res = _judged(owner, power, c=1.2, message="")
    assert not res.converged and res.message.startswith("SU 0 secrecy 0.916")
    # a solver's own message wins over the verdict's
    assert _judged(owner, power, c=1.2, message="stalled")[1].message == "stalled"
    _, res = _judged(owner, power, infeasible=True, message="out of reach")
    assert not res.converged and res.infeasible and res.message == "out of reach"


def test_solve_result_judges_each_peak_frame():
    owner = [[1, 2], [1, 2]]
    power = [[4.0, 5.0], [4.0, 7.0]]   # frame 1 spends 11 > 10 * (1 + 1e-2)
    _, res = _judged(owner, power, mode="peak")
    assert not res.converged and res.message.startswith("frame 1 spends 11")
    # the mean of 10 meets the average budget
    assert _judged(owner, power)[1].converged


def test_unmet_fails_on_nan():
    cfg = make_config(n=2, k=3, k1=2, c=0.5, power=10.0, mode="peak")
    assert unmet(np.array([0.5, 0.5]), np.full(3, 10.0), cfg, 1e-2) == ""
    assert unmet(np.array([0.5, np.nan]), np.full(3, 10.0), cfg, 1e-2).startswith(
        "SU 1 secrecy nan")
    assert unmet(np.array([0.5, 0.5]), np.array([1.0, np.nan, 1.0]), cfg,
                 1e-2).startswith("frame 1 spends nan")
    avg = dataclasses.replace(cfg, mode="average")
    assert unmet(np.array([0.5, 0.5]), np.array([1.0, np.nan]), avg,
                 1e-2).startswith("the mean spends nan")


@given(
    k=st.integers(2, 5), k1_frac=st.floats(0.0, 1.0), n=st.integers(1, 8),
    t=st.integers(1, 6), zero_target=st.booleans(),
    weights=st.sampled_from(["unit", "distinct", "repeated"]),
    eps=st.sampled_from([1e-2, 1e-3, 1e-7]), seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_every_solver_reports_the_one_verdict(k, k1_frac, n, t, zero_target, weights,
                                              eps, seed):
    rng = np.random.default_rng(seed)
    k1 = min(1 + int(k1_frac * (k - 1)), k - 1)
    ens, peak = random_instance(rng, k, k1, n, t, zero_target, 20.0, weights)
    avg, opts = dataclasses.replace(peak, mode="average"), SolverOptions(epsilon=eps)
    # a short loop leaves some dual solves unconverged
    with mock.patch.object(dual_solver, "_MAX_ITERATIONS", 3):
        runs = [(peak, solve_peak(ens, peak, opts)), (avg, solve_average(ens, avg, opts))]
    runs.append((avg, solve_suboptimal(ens, avg, opts)))
    for scheme in SCHEMES:
        try:
            fsa_partition(scheme, avg)
        except ValueError:
            continue   # the blocks do not come out whole for this config
        runs.append((avg, solve_fsa(ens, avg, scheme, opts)))
    for cfg, res in runs:
        verdict = unmet(res.report.r_su, res.decisions.power.sum(axis=1), cfg, eps)
        assert res.converged == (not res.infeasible and verdict == "")
        assert res.converged or res.message


@given(
    k=st.integers(3, 5), k1_frac=st.floats(0.0, 1.0), n=st.sampled_from([4, 8]),
    t=st.integers(1, 8), power=st.sampled_from([0.5, 3.0, 30.0]),
    near=st.lists(st.sampled_from([0.5, 0.9, 0.99, 1.0, 1.2]), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_every_infeasible_result_is_the_no_secrecy_allocation(k, k1_frac, n, t, power,
                                                             near, seed):
    # targets around each SU's unbounded-power cap and budgets the SU phase
    # can exhaust; a short loop with a low multiplier ceiling makes the dual
    # loop's ceiling exit fire as well as its precheck
    rng = np.random.default_rng(seed)
    k1 = min(1 + int(k1_frac * (k - 1)), k - 1)
    ens, peak = random_instance(rng, k, k1, n, t, False, power)
    peak = peak.with_targets(dual_solver._Prepared(ens, peak).su_caps * near[:k1])
    avg = dataclasses.replace(peak, mode="average")
    with mock.patch.object(dual_solver, "_MAX_ITERATIONS", 40), \
            mock.patch.object(dual_solver, "_MU_CEILING", 10.0):
        runs = [(peak, solve_peak(ens, peak)), (avg, solve_average(ens, avg))]
    runs.append((avg, solve_suboptimal(ens, avg)))
    for scheme in SCHEMES:
        try:
            fsa_partition(scheme, avg)
        except ValueError:
            continue   # the blocks do not come out whole for this config
        runs.append((avg, solve_fsa(ens, avg, scheme)))
    for cfg, res in runs:
        if not res.infeasible:
            continue
        owner, spend = res.decisions.owner, res.decisions.power.sum(axis=1)
        assert not ((owner >= 0) & (owner < k1)).any()
        assert np.all(res.duals.mu == 0.0)
        assert np.all((spend if cfg.mode == "peak" else spend.mean())
                      <= cfg.power * (1 + 1e-9))
        assert res.message
