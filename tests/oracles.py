"""Independent reference implementations used to check the library.

Nothing here may call into the closed forms under test: power levels come
from bounded 1-D numerical maximization, distributional quantities from
brute-force sampling, and the tiny-instance benchmark from exhaustive
enumeration plus a general-purpose constrained optimizer.

The one exception is ``unpruned_auction``.  It checks the solver's
candidate pruning bit for bit, so it prices every user on every column
with the library's own per-column closed forms.

``per_frame_decisions`` and ``per_frame_evaluate`` are the per-frame
loops that ``decisions_from_arrays`` and ``evaluate`` replaced with
(T, N) array reductions; they take the dense (T, K, N) power tensor.
"""

import itertools
import math

import numpy as np
from scipy import optimize

from secure_ofdma.allocation import AllocationDecision
from secure_ofdma.channel import column_order_stats
from secure_ofdma.evaluate import EvaluationReport
from secure_ofdma.rates import _h_su_core


def maximize_power_payoff(payoff, p_hi, tol=1e-11):
    """max_{0 <= p <= p_hi} payoff(p) via bounded scalar search.

    Returns (p_star, value); the p = 0 endpoint is always a candidate.
    """
    res = optimize.minimize_scalar(
        lambda p: -payoff(p), bounds=(0.0, p_hi), method="bounded",
        options={"xatol": tol},
    )
    candidates = [(0.0, payoff(0.0)), (float(res.x), payoff(float(res.x)))]
    return max(candidates, key=lambda c: c[1])


def su_payoff(alpha, beta, mu, lam):
    def f(p):
        rs = max(np.log1p(p * alpha) - np.log1p(p * beta), 0.0)
        return mu * rs - lam * p
    return f


def nu_payoff(alpha, omega, lam):
    def f(p):
        return omega * np.log1p(p * alpha) - lam * p
    return f


def su_power_oracle(alpha, beta, mu, lam):
    # stationarity forces (1+p*a)(1+p*b) = mu(a-b)/lam, so
    # p* <= sqrt(mu (a-b) / (lam a b))
    hi = np.sqrt(max(mu * (alpha - beta) / (lam * alpha * beta), 0.0)) + 1.0
    return maximize_power_payoff(su_payoff(alpha, beta, mu, lam), hi)


def nu_power_oracle(alpha, omega, lam):
    hi = omega / lam + 1.0
    return maximize_power_payoff(nu_payoff(alpha, omega, lam), hi)


def top_two_log_ratio_mc(n_users, rho, samples, seed, batch=1 << 19):
    """Monte Carlo E[ln(nu1/nu2)] over the top two of K exponential draws."""
    rng = np.random.default_rng(seed)
    total = 0.0
    remaining = samples
    while remaining > 0:
        m = min(remaining, batch)
        x = rng.exponential(scale=rho, size=(m, n_users))
        x.sort(axis=1)
        total += float(np.log(x[:, -1] / x[:, -2]).sum())
        remaining -= m
    return total / samples


def weighted_waterfilling_rate(alpha, k1, power):
    """Best-NU water-filling benchmark for the no-secrecy case, unit weights.

    Each subcarrier goes to the NU with the largest CNR; a single water
    level across the whole ensemble spends the average power budget.
    Returns the mean aggregate NU rate.
    """
    t_count = alpha.shape[0]
    best = alpha[:, k1:, :].max(axis=1)  # (T, N)
    inv = 1.0 / best

    def spent(level):
        return float(np.maximum(level - inv, 0.0).sum() / t_count) - power

    hi = power / alpha.shape[2] + float(inv.max())
    level = optimize.brentq(spent, 0.0, hi * 4, xtol=1e-12)
    rate = np.where(level > inv, np.log(level / inv), 0.0)
    return float(rate.sum() / t_count)


def _inner_power_problem(alpha, owners, k1, weights, c_target, power):
    """Best powers for a fixed ownership map of one realization.

    Maximizes the weighted NU rate subject to the SU's total secrecy >= C
    and the frame power cap, with SLSQP.  Returns the optimum or None when
    the map cannot meet the constraint.
    """
    k, n = alpha.shape
    su_cols = []
    nu_cols = []
    for col, owner in enumerate(owners):
        if owner < 0:
            continue
        a = alpha[owner, col]
        others = np.delete(alpha[:, col], owner)
        beta = others.max()
        if owner < k1:
            if a > beta:  # zero-secrecy columns are dead weight for the SU
                su_cols.append((col, a, beta))
        else:
            nu_cols.append((col, a, weights[owner - k1]))
    cap = sum(np.log(a / b) for _, a, b in su_cols)
    if c_target > 0 and cap <= c_target:
        return None
    n_vars = len(su_cols) + len(nu_cols)
    if n_vars == 0:
        return 0.0 if c_target <= 0 else None

    def objective(p):
        return -sum(
            w * np.log1p(p[len(su_cols) + i] * a)
            for i, (_, a, w) in enumerate(nu_cols)
        )

    def secrecy(p):
        return sum(
            np.log1p(p[i] * a) - np.log1p(p[i] * b)
            for i, (_, a, b) in enumerate(su_cols)
        ) - c_target

    constraints = [
        {"type": "ineq", "fun": lambda p: power - p.sum()},
    ]
    if su_cols:
        constraints.append({"type": "ineq", "fun": secrecy})
    best = None
    for frac in (0.5, 0.95, 0.1):
        x0 = np.full(n_vars, frac * power / max(n_vars, 1))
        res = optimize.minimize(
            objective, x0, method="SLSQP", constraints=constraints,
            bounds=[(0.0, power)] * n_vars,
            options={"maxiter": 300, "ftol": 1e-12},
        )
        if not res.success:
            continue
        p = np.clip(res.x, 0.0, None)
        if p.sum() > power * (1 + 1e-6):
            continue
        if su_cols and secrecy(p) < -1e-6 * max(c_target, 1.0):
            continue
        value = -objective(p)
        if best is None or value > best:
            best = value
    return best


def _map_upper_bound(alpha, owners, k1, weights, power):
    """NU value of this map with the secrecy constraint dropped entirely."""
    cols = [
        (alpha[o, n], weights[o - k1])
        for n, o in enumerate(owners) if o >= k1
    ]
    if not cols:
        return 0.0
    a = np.array([c[0] for c in cols])
    w = np.array([c[1] for c in cols])

    def spend(lam):
        return np.maximum(w / lam - 1.0 / a, 0.0).sum() - power

    hi = w.max() * a.max()
    lam = optimize.brentq(spend, 1e-12, hi + 1.0, xtol=1e-12)
    p = np.maximum(w / lam - 1.0 / a, 0.0)
    return float((w * np.log1p(p * a)).sum())


def exhaustive_best_rate(alpha, k1, weights, c_target, power):
    """Enumerate every ownership map of one frame, solving powers per map.

    Only single-SU instances are supported (the SU is user 0).  Maps are
    visited in order of an optimistic secrecy-free bound so the search can
    stop early; the result is still the exact enumeration optimum.
    Returns the best weighted NU rate, or None when no map meets the target.
    """
    assert k1 == 1
    k, n = alpha.shape
    ranked = sorted(
        (
            (_map_upper_bound(alpha, owners, k1, weights, power), owners)
            for owners in itertools.product(range(-1, k), repeat=n)
        ),
        key=lambda item: -item[0],
    )
    best = None
    for bound, owners in ranked:
        if best is not None and bound <= best:
            break
        value = _inner_power_problem(alpha, owners, k1, weights, c_target, power)
        if value is not None and (best is None or value > best):
            best = value
    return best


def unpruned_auction(alpha, config, mu, lam, *, full=True, arrays=False):
    """The dual solver's auction with every user priced on every column.

    Every NU bids on every column and the SU payoff is evaluated
    everywhere, with the multiplier forced to 0 where no SU holds the
    column maximum.  ``lam`` is a scalar or one price per frame.  Returns
    a dict keyed like the solver's ``_PointStats`` fields.
    """
    t_count = alpha.shape[0]
    k1 = config.n_secure
    omega = config.weights
    nu1, nu2, kmax = column_order_stats(alpha)
    is_su_col = kmax < k1
    alpha_nu = alpha[:, k1:, :]
    inv_alpha_nu = 1.0 / alpha_nu
    ln_wa = np.log(omega[:, None] * alpha_nu)

    mu = np.asarray(mu, float)
    lam_arr = np.asarray(lam, float)
    if lam_arr.ndim == 1:
        lam_n = lam_arr[:, None]
        lam_kn = lam_arr[:, None, None]
        ln_lam_n = np.log(lam_arr)[:, None]
        ln_lam_kn = ln_lam_n[:, :, None]
    else:
        lam_n = lam_kn = float(lam_arr)
        ln_lam_n = ln_lam_kn = math.log(float(lam_arr))

    h_nus = np.maximum(
        omega[:, None] * np.maximum(ln_wa - ln_lam_kn, 0.0)
        - np.maximum(omega[:, None] - lam_kn * inv_alpha_nu, 0.0),
        0.0,
    )
    j_best = np.argmax(h_nus, axis=1)
    take = j_best[:, None, :]
    h_nu_best = np.take_along_axis(h_nus, take, axis=1)[:, 0, :]
    inv_a_best = np.take_along_axis(inv_alpha_nu, take, axis=1)[:, 0, :]
    p_nu_best = np.maximum(omega[j_best] / lam_n - inv_a_best, 0.0)

    mu_col = np.where(is_su_col, mu[np.minimum(kmax, k1 - 1)], 0.0)
    h_su_col, p_su, rs = _h_su_core(nu1, nu2, mu_col, lam_n)

    su_wins = h_su_col > h_nu_best
    any_pos = np.maximum(h_su_col, h_nu_best) > 0.0
    p_win = np.where(any_pos, np.where(su_wins, p_su, p_nu_best), 0.0)
    power_t = p_win.sum(axis=1)
    out = {
        "secrecy": np.zeros(k1), "power_t": power_t,
        "power_mean": float(power_t.mean()),
        "r_nu_total": np.nan, "nu_rate": np.zeros(config.n_normal),
        "su_power": np.nan, "su_count": np.nan, "dual_value": np.nan,
        "owner": None, "p_win": None,
    }
    if full:
        out["secrecy"] = np.bincount(
            kmax[su_wins], weights=rs[su_wins], minlength=k1
        )[:k1] / t_count
        nu_wins = any_pos & ~su_wins
        ln_wa_best = np.take_along_axis(ln_wa, take, axis=1)[:, 0, :]
        rate_best = np.maximum(ln_wa_best - ln_lam_n, 0.0)
        out["nu_rate"] = np.bincount(
            j_best[nu_wins], weights=rate_best[nu_wins],
            minlength=config.n_normal,
        ) / t_count
        out["r_nu_total"] = float(omega @ out["nu_rate"])
        out["su_power"] = float(p_su[su_wins].sum() / t_count)
        out["su_count"] = float(su_wins.sum() / t_count)
        h_sum_t = np.maximum(h_su_col, h_nu_best).sum(axis=1)
        spent = (lam_arr * config.power).mean() if lam_arr.ndim == 1 \
            else float(lam_arr) * config.power
        out["dual_value"] = float(
            h_sum_t.mean() + spent - mu @ config.secrecy_targets
        )
    if arrays:
        out["owner"] = np.where(
            any_pos, np.where(su_wins, kmax, k1 + j_best), -1
        ).astype(np.int64)
        out["p_win"] = p_win
    return out


def per_frame_decisions(owner, power, ensemble, config):
    """One ``AllocationDecision`` per frame from (T, N) owner and (T, K, N) power."""
    t_count = owner.shape[0]
    k1 = config.n_secure
    nu1, nu2, kmax = column_order_stats(ensemble.alpha)
    out = []
    for t in range(t_count):
        su_secrecy = np.zeros(k1)
        nu_rate = np.zeros(config.n_normal)
        own = owner[t]
        pw = power[t]
        for n in np.flatnonzero(own >= 0):
            u = own[n]
            p = pw[u, n]
            a = ensemble.alpha[t, u, n]
            if u < k1:
                beta = nu2[t, n] if kmax[t, n] == u else nu1[t, n]
                su_secrecy[u] += max(np.log1p(p * a) - np.log1p(p * beta), 0.0)
            else:
                nu_rate[u - k1] += np.log1p(p * a)
        out.append(
            AllocationDecision(
                owner=own.copy(),
                power=pw.copy(),
                su_secrecy=su_secrecy,
                nu_rate=nu_rate,
                total_power=float(pw.sum()),
            )
        )
    return out


def per_frame_evaluate(decisions, ensemble, config):
    """Ensemble averages of per-frame decisions, summed frame by frame."""
    if len(decisions) != ensemble.count:
        raise ValueError("need exactly one decision per ensemble realization")
    k, n = ensemble.n_users, ensemble.n_subcarriers
    k1 = config.n_secure
    for d in decisions:
        if d.power.shape != (k, n) or d.owner.shape != (n,):
            raise ValueError("decision dimensions do not match the ensemble")

    t_count = len(decisions)
    r_nu = 0.0
    r_su = np.zeros(k1)
    power = 0.0
    su_power = 0.0
    su_count = 0.0
    for d in decisions:
        r_nu += float(config.weights @ d.nu_rate)
        r_su += d.su_secrecy
        power += d.total_power
        su_owned = (d.owner >= 0) & (d.owner < k1)
        su_power += float(d.power[:, su_owned].sum())
        su_count += int(su_owned.sum())
    return EvaluationReport(
        r_nu_total=r_nu / t_count,
        r_su=r_su / t_count,
        avg_power=power / t_count,
        su_power=su_power / t_count,
        su_subcarriers=su_count / t_count,
        realizations_used=t_count,
    )
