"""End-to-end acceptance checks at their stated tolerances.

Each test prints one PASS line when its criterion holds.  The heavy
frontier computations are shared session fixtures so the whole module
stays within the runtime budget.
"""

import time

import numpy as np
import pytest

from secure_ofdma import (
    SolverOptions,
    dual_point,
    generate_ensemble,
    h_nu,
    h_su,
    nu_power,
    secrecy_rate_upper_bound,
    solve_average,
    solve_fsa,
    solve_peak,
    solve_suboptimal,
    su_power,
)
from secure_ofdma.allocation import validate_exclusivity
from secure_ofdma.channel import ChannelEnsemble
from secure_ofdma.config import snr_db_to_power

from conftest import make_config
from oracles import (
    exhaustive_best_rate,
    nu_power_oracle,
    su_power_oracle,
    top_two_log_ratio_mc,
)

SEED = 2025
REALIZATIONS = 2000
C_GRID = [0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2]
SUB_GRID = [0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8]
EPS = 1e-2


def report_pass(name, detail):
    print(f"PASS {name}: {detail}")


@pytest.fixture(scope="session")
def frontier():
    """Optimal + suboptimal sweeps over the shared 30 dB ensemble."""
    cfg = make_config(power=snr_db_to_power(30.0))
    ens = generate_ensemble(cfg, REALIZATIONS, SEED)
    t0 = time.time()
    optimal = {
        c: solve_average(ens, cfg.with_targets(c)) for c in C_GRID + [3.6]
    }
    optimal_elapsed = time.time() - t0

    suboptimal = {
        c: solve_suboptimal(ens, cfg.with_targets(c)) for c in SUB_GRID
    }
    return {
        "config": cfg,
        "ensemble": ens,
        "optimal": optimal,
        "suboptimal": suboptimal,
        "optimal_elapsed": optimal_elapsed,
    }


@pytest.fixture(scope="session")
def peak_pair(frontier):
    """Average/peak solutions at C = 0.4 on the shared ensemble."""
    ens = frontier["ensemble"]
    cfg_p = make_config(c=0.4, mode="peak", power=snr_db_to_power(30.0))
    avg = frontier["optimal"][0.4]
    peak = solve_peak(ens, cfg_p)
    return avg, peak, cfg_p


def test_criterion_1_feasibility_bound():
    t0 = time.time()
    bound = secrecy_rate_upper_bound(64, 8, rho=1.0)
    elapsed = time.time() - t0
    assert abs(bound - 3.5) <= 0.1
    assert elapsed < 10.0

    for rho in (0.5, 4.0):
        other = secrecy_rate_upper_bound(64, 8, rho=rho)
        assert abs(other - bound) < 1e-9

    mc = 8.0 * top_two_log_ratio_mc(8, 1.0, samples=10_000_000, seed=77)
    assert abs(bound - mc) / mc <= 0.01
    report_pass(
        "criterion 1",
        f"bound {bound:.4f} in 3.5+-0.1, {elapsed:.2f}s, "
        f"rho-invariant, MC(1e7) gap {abs(bound - mc) / mc:.2%}",
    )


def test_criterion_2_frontier_shape_and_runtime(frontier):
    optimal = frontier["optimal"]
    rates = [optimal[c].report.r_nu_total for c in C_GRID]
    assert all(optimal[c].converged for c in C_GRID), "grid must converge"
    assert all(a > b for a, b in zip(rates, rates[1:])), "R_NU must fall in C"
    assert optimal[3.6].infeasible
    assert optimal[3.2].converged and not optimal[3.2].infeasible
    assert frontier["optimal_elapsed"] < 1200.0
    report_pass(
        "criterion 2",
        f"R_NU {rates[0]:.1f} -> {rates[-1]:.1f} non-increasing over "
        f"{len(C_GRID)} points, infeasible at 3.6, "
        f"{frontier['optimal_elapsed']:.0f}s < 20 min",
    )


def test_criterion_3_suboptimal_gap(frontier):
    ratios = {}
    for c in SUB_GRID:
        opt = frontier["optimal"][c]
        sub = frontier["suboptimal"][c]
        assert sub.converged, f"suboptimal must converge at C={c}"
        ratios[c] = sub.report.r_nu_total / opt.report.r_nu_total
        assert ratios[c] >= 0.75, f"C={c}: ratio {ratios[c]:.3f} < 0.75"
    worst = min(ratios.values())
    report_pass("criterion 3", f"suboptimal/optimal >= {worst:.3f} on the grid")


@pytest.fixture(scope="session")
def fsa_30db(frontier):
    ens = frontier["ensemble"]
    cfg = frontier["config"]

    def max_feasible(scheme):
        lo, hi = 0.0, 1.2
        for _ in range(11):
            mid = 0.5 * (lo + hi)
            res = solve_fsa(ens, cfg.with_targets(mid), scheme)
            if res.converged and not res.infeasible:
                lo = mid
            else:
                hi = mid
        return lo

    return {scheme: max_feasible(scheme) for scheme in ("fsa1", "fsa2")}


def test_criterion_4_fsa_frontiers_and_crossover(fsa_30db):
    c1 = fsa_30db["fsa1"]
    c2 = fsa_30db["fsa2"]
    assert 0.35 <= c1 <= 0.55, f"FSA-1 max C {c1:.3f}"
    assert 0.53 <= c2 <= 0.80, f"FSA-2 max C {c2:.3f}"

    cfg = make_config(c=0.4)
    snr_grid = [10.0, 12.0, 14.0, 16.0, 18.0, 20.0]
    diff = {}
    for snr in snr_grid:
        cfg_s = cfg.with_power(snr_db_to_power(snr))
        ens = generate_ensemble(cfg_s, REALIZATIONS, SEED)
        r1 = solve_fsa(ens, cfg_s, "fsa1")
        r2 = solve_fsa(ens, cfg_s, "fsa2")
        # a scheme that cannot honor the secrecy contract delivers nothing
        v1 = 0.0 if r1.infeasible else r1.report.r_nu_total
        v2 = 0.0 if r2.infeasible else r2.report.r_nu_total
        diff[snr] = v1 - v2
    assert diff[10.0] < 0, "FSA-2 must win at 10 dB"
    assert diff[20.0] > 0, "FSA-1 must win at 20 dB"
    crossings = [
        (a, b) for a, b in zip(snr_grid, snr_grid[1:])
        if diff[a] < 0 <= diff[b]
    ]
    assert crossings and 10.0 <= crossings[0][0] < crossings[0][1] <= 18.0
    report_pass(
        "criterion 4",
        f"max C fsa1={c1:.3f}, fsa2={c2:.3f}; crossover in "
        f"[{crossings[0][0]:.0f}, {crossings[0][1]:.0f}] dB",
    )


def test_criterion_5_su_subcarrier_occupancy(frontier):
    counts = [frontier["optimal"][c].report.su_subcarriers for c in C_GRID]
    assert all(a <= b + 1e-9 for a, b in zip(counts, counts[1:])), \
        "occupancy must be non-decreasing in C"
    final = counts[-1]
    assert 29.0 <= final <= 35.0, (
        f"SU-owned count at C=3.2 is {final:.2f}, outside 32 +- 3"
    )
    report_pass(
        "criterion 5",
        f"occupancy rises {counts[0]:.1f} -> {final:.1f}, final in 32+-3",
    )


def test_criterion_6_average_vs_peak(peak_pair):
    avg, peak, _ = peak_pair
    assert avg.converged and peak.converged
    gap = abs(avg.report.r_nu_total - peak.report.r_nu_total)
    rel = gap / avg.report.r_nu_total
    assert rel < 0.05
    report_pass("criterion 6", f"|R_NU(avg) - R_NU(peak)| / R_NU(avg) = {rel:.4f}")


def test_criterion_7_tiny_instance_oracle_equivalence():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        alpha = rng.exponential(size=(3, 4)) + 0.02
        ens = ChannelEnsemble(alpha=alpha[None], seed=seed, rho=1.0)
        nu1 = alpha.max(axis=0)
        rest = np.sort(alpha, axis=0)[-2]
        su_cap = float(
            np.where(alpha[0] == nu1, np.log(nu1 / np.maximum(rest, 1e-12)), 0.0).sum()
        )
        c_target = 0.4 * su_cap
        cfg = make_config(n=4, k=3, k1=1, c=c_target, power=100.0, mode="peak")
        res = solve_peak(ens, cfg, SolverOptions(epsilon=5e-3))
        assert not res.infeasible, f"seed {seed} unexpectedly infeasible"
        oracle = exhaustive_best_rate(alpha, 1, cfg.weights, c_target, 100.0)
        assert oracle is not None
        got = res.report.r_nu_total
        rel = abs(got - oracle) / oracle
        worst = max(worst, rel)
        assert rel <= 0.02, f"seed {seed}: solver {got:.4f} vs oracle {oracle:.4f}"
    report_pass("criterion 7", f"50 seeds, worst oracle gap {worst:.3%}")


def test_criterion_8_subgradient_inequality():
    cfg = make_config(c=0.8)
    ens = generate_ensemble(cfg, 200, seed=SEED + 1)
    rng = np.random.default_rng(17)
    worst = -np.inf
    for _ in range(100):
        mu = rng.uniform(0.0, 4.0, size=4)
        mu2 = rng.uniform(0.0, 4.0, size=4)
        lam = float(np.exp(rng.uniform(np.log(0.01), np.log(2.0))))
        lam2 = float(np.exp(rng.uniform(np.log(0.01), np.log(2.0))))
        g1, dmu, dlam = dual_point(ens, cfg, mu, lam)
        g2, _, _ = dual_point(ens, cfg, mu2, lam2)
        slack = g2 - (g1 + (mu2 - mu) @ dmu + (lam2 - lam) * dlam)
        worst = max(worst, -slack)
        assert slack >= -1e-8
    report_pass("criterion 8", f"100 dual pairs, worst violation {worst:.2e}")


def test_criterion_9_constraint_satisfaction(frontier, peak_pair):
    checked = 0
    runs = [
        (c, frontier["optimal"][c]) for c in C_GRID
    ] + [(c, frontier["suboptimal"][c]) for c in SUB_GRID]
    avg, peak, cfg_p = peak_pair
    runs.append((0.4, peak))
    cfg = frontier["config"]
    for c, res in runs:
        if not res.converged:
            continue
        checked += 1
        assert np.all(res.report.r_su >= c * (1 - EPS) - 1e-12)
        under = res.report.avg_power <= cfg.power * (1 + EPS)
        near = abs(res.report.avg_power - cfg.power) <= EPS * cfg.power
        at_floor = res.duals.lam is not None and res.duals.lam <= 1e-11
        assert near or (under and at_floor) or (res is peak and under)
        for d in res.decisions:
            validate_exclusivity(d)
    assert checked >= len(C_GRID) + len(SUB_GRID)
    report_pass(
        "criterion 9",
        f"{checked} converged runs satisfy secrecy/power/exclusivity",
    )


def test_criterion_10_closed_forms_vs_oracles():
    rng = np.random.default_rng(4242)
    worst_p = 0.0
    for _ in range(1000):
        alpha = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
        beta = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
        mu = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
        lam = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e1))))
        omega = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))

        p_su, v_su = su_power_oracle(alpha, beta, mu, lam)
        got = su_power(alpha, beta, mu, lam)
        worst_p = max(worst_p, abs(got - p_su) / (1 + p_su))
        assert abs(got - p_su) <= 1e-5 * (1 + p_su)
        assert abs(h_su(alpha, beta, mu, lam) - max(v_su, 0.0)) <= 1e-5 * (1 + abs(v_su))

        p_nu, v_nu = nu_power_oracle(alpha, omega, lam)
        got_nu = nu_power(alpha, omega, lam)
        worst_p = max(worst_p, abs(got_nu - p_nu) / (1 + p_nu))
        assert abs(got_nu - p_nu) <= 1e-5 * (1 + p_nu)
        assert abs(h_nu(alpha, omega, lam) - max(v_nu, 0.0)) <= 1e-5 * (1 + abs(v_nu))

    for _ in range(200):
        beta = float(rng.uniform(0.5, 2.0))
        mu = float(rng.uniform(0.5, 5.0))
        lam = float(rng.uniform(0.5, 2.0))
        boundary = beta + lam / mu
        assert su_power(boundary + 1e-9, beta, mu, lam) > 0.0
        assert su_power(boundary - 1e-9, beta, mu, lam) == 0.0

    report_pass(
        "criterion 10",
        f"1000 closed-form checks (worst gap {worst_p:.2e}) and "
        f"200 exact threshold probes",
    )
