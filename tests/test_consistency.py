"""Cross-checks between per-column oracles, the public API and the vectorized solver core."""

import numpy as np
import pytest

from secure_ofdma import (
    DualState,
    generate_ensemble,
    solve_average,
    solve_suboptimal,
)
from secure_ofdma.dual_solver import _Prepared, _eval_point

from conftest import make_config
from oracles import assign_subcarrier


def test_vectorized_auction_matches_scalar_assignment():
    cfg = make_config(n=12, k=5, k1=2, c=0.5, omega=[1.0, 2.0, 0.7],
                      power=50.0)
    ens = generate_ensemble(cfg, 20, seed=31)
    prep = _Prepared(ens, cfg)
    rng = np.random.default_rng(8)
    for _ in range(5):
        mu = rng.uniform(0.0, 3.0, size=2)
        lam = float(rng.uniform(0.05, 1.5))
        st = _eval_point(prep, mu, lam)
        duals = DualState(mu=mu, lam=lam)
        for t in (0, 7, 19):
            for n in range(cfg.n_subcarriers):
                owner, p = assign_subcarrier(ens.alpha[t, :, n], duals, cfg, lam)
                want = -1 if owner is None else owner
                assert st.owner[t, n] == want, (t, n)
                assert abs(st.p_win[t, n] - p) < 1e-10


def test_report_matches_final_auction_stats():
    """Average mode: the evaluated primal is the final auction's bookkeeping."""
    cfg = make_config(n=16, k=4, k1=2, c=0.4, power=100.0)
    ens = generate_ensemble(cfg, 120, seed=14)
    res = solve_average(ens, cfg)
    assert len(res.decisions) == 120
    st = _eval_point(_Prepared(ens, cfg), res.duals.mu, res.duals.lam)
    rep = res.report
    assert rep.r_nu_total == pytest.approx(st.r_nu_total, abs=1e-9)
    assert np.allclose(rep.r_su, st.secrecy, atol=1e-9)
    assert rep.avg_power == pytest.approx(st.power_mean, abs=1e-9)
    su = (st.owner >= 0) & (st.owner < cfg.n_secure)
    assert rep.su_power == pytest.approx(st.p_win[su].sum() / 120, abs=1e-9)
    assert rep.su_subcarriers == pytest.approx(su.sum() / 120, abs=1e-9)


def test_unequal_weights_respected():
    cfg = make_config(n=32, k=6, k1=2, c=0.6, omega=[4.0, 1.0, 1.0, 1.0],
                      power=200.0)
    ens = generate_ensemble(cfg, 250, seed=77)
    res = solve_average(ens, cfg)
    assert res.converged
    assert np.all(res.report.r_su >= 0.6 * 0.99)
    # the heavily weighted NU must capture a disproportionate rate share
    per_nu = np.array([
        np.mean([d.nu_rate[j] for d in res.decisions]) for j in range(4)
    ])
    assert per_nu[0] > per_nu[1:].max()

    sub = solve_suboptimal(ens, cfg)
    assert sub.converged
    assert abs(sub.report.avg_power - 200.0) < 0.01 * 200.0


@pytest.mark.parametrize("seed", range(8))
def test_random_geometry_fuzz(seed):
    """Random problem shapes: solver invariants hold whenever it converges."""
    from secure_ofdma.allocation import validate_exclusivity
    from secure_ofdma.channel import column_order_stats

    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    k1 = int(rng.integers(1, k))
    n = int(rng.integers(2, 24))
    mode = "peak" if seed % 2 else "average"
    cfg = make_config(
        n=n, k=k, k1=k1,
        c=float(rng.uniform(0.0, 0.3)),
        omega=rng.uniform(0.5, 2.0, size=k - k1),
        power=float(rng.uniform(5.0, 500.0)),
        mode=mode,
    )
    ens = generate_ensemble(cfg, 150, seed=seed + 100)
    if mode == "peak":
        from secure_ofdma import solve_peak

        res = solve_peak(ens, cfg)
    else:
        res = solve_average(ens, cfg)
    assert not (res.converged and res.infeasible)
    for d in res.decisions:
        validate_exclusivity(d)
        if mode == "peak":
            assert d.total_power <= cfg.power * (1 + 1e-6)
    if res.converged:
        assert np.all(res.report.r_su >= cfg.secrecy_targets * 0.99 - 1e-12)
        assert res.report.avg_power <= cfg.power * 1.01
        if res.duals.lam is not None and res.duals.lam > 1e-11:
            assert abs(res.report.avg_power - cfg.power) <= 0.011 * cfg.power
        # an SU owns a subcarrier only as the strongest user above threshold
        nu1, nu2, kmax = column_order_stats(ens.alpha)
        for t, d in enumerate(res.decisions):
            su_cols = np.flatnonzero((d.owner >= 0) & (d.owner < k1))
            for col in su_cols:
                assert kmax[t, col] == d.owner[col]

