"""Independent reference implementations used to check the library.

Nothing here may call into the closed forms under test: power levels come
from bounded 1-D numerical maximization, distributional quantities from
brute-force sampling, and the tiny-instance benchmark from exhaustive
enumeration plus a general-purpose constrained optimizer.

The exceptions are ``unpruned_auction`` and ``assign_subcarrier``.  They
check the solver's candidate pruning bit for bit, so they price every
user on every column with the per-column closed forms: the library's NU
ones, and for the SUs ``textbook_su_power`` and ``textbook_h_su``, this
module's own copy of the SU closed form as plain expressions, which the
library's kernels must match bit for bit; ``assign_subcarrier`` does it
one column at a time, with the column's order statistics from the
scalar ``order_stats``.  ``ThresholdCurve`` prices with the same copy.

``per_frame_decisions`` and ``per_frame_evaluate`` are the per-frame
loops that ``decisions_from_arrays`` and ``evaluate`` replaced with
(T, N) array reductions; they take the dense (T, K, N) power tensor.
``masked_rates`` and ``masked_evaluate`` are the (T, N) formulas that
the one-pass judge replaced: a ``take_along_axis`` gather, masked rates
and one masked ``bincount`` per user kind.

The ``looped_*`` functions are the dual solver's searches as plain
Python loops: ``looped_price`` the power-price search of both modes,
one element at a time, and ``looped_initial_mu`` the hand-rolled mu
calibration that ``_search.bracket``/``_search.bisect`` replaced.  They
call the library's auction through this module's ``_eval_point`` name,
so a test can record their probes.  ``looped_refill_nu_water`` refills
frame by frame at the level ``exact_refill_levels`` finds by trying
every active-set size.
``looped_su_phase`` and ``looped_trim_su_surplus`` tune gap thresholds
with one ``ThresholdCurve`` and one scalar bisection per SU (the peak
trim's on the powered columns, with CNRs divided by the frame's price),
where the library runs the single elementwise
``_search.search_threshold``.
"""

import itertools
import math

import numpy as np
from scipy import optimize

from secure_ofdma._search import SearchOutcome, bisect_monotone
from secure_ofdma.allocation import UNASSIGNED, AllocationDecision
from secure_ofdma.channel import column_order_stats
from secure_ofdma.dual_solver import _eval_point
from secure_ofdma.evaluate import EvaluationReport
from secure_ofdma.rates import _h_nu_core, _nu_power_core
from secure_ofdma.suboptimal import SecrecyInfeasibleError


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


def textbook_su_power(alpha, beta, mu, lam):
    """The SU closed-form power as plain broadcasting expressions."""
    inv_a, inv_b = 1.0 / alpha, 1.0 / beta
    d = inv_a - inv_b
    active = mu * (alpha - beta) > lam
    disc = d * d + (4.0 * mu / lam) * (inv_b - inv_a)
    root = np.sqrt(np.where(active, disc, 1.0))
    p = 0.5 * (root - (inv_a + inv_b))
    return np.where(active, np.maximum(p, np.finfo(float).tiny), 0.0)


def textbook_h_su(alpha, beta, mu, lam):
    """``(h, p, rs)``: the SU's priced payoff, power and secrecy rate."""
    p = textbook_su_power(alpha, beta, mu, lam)
    rs = np.where(p > 0, np.log1p(p * alpha) - np.log1p(p * beta), 0.0)
    return np.maximum(mu * rs - lam * p, 0.0), p, rs


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


def unpruned_auction(alpha, config, mu, lam):
    """The dual solver's auction with every user priced on every column.

    Every NU bids on every column and the SU payoff is evaluated
    everywhere, with the multiplier forced to 0 where no SU holds the
    column maximum.  ``lam`` is a scalar or one price per frame.  Returns
    a dict of every output of the solver's auction, keyed by its
    attribute name.
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
    h_su_col, p_su, rs = textbook_h_su(nu1, nu2, mu_col, lam_n)

    su_wins = h_su_col > h_nu_best
    any_pos = np.maximum(h_su_col, h_nu_best) > 0.0
    p_win = np.where(any_pos, np.where(su_wins, p_su, p_nu_best), 0.0)
    power_t = p_win.sum(axis=1)
    nu_wins = any_pos & ~su_wins
    ln_wa_best = np.take_along_axis(ln_wa, take, axis=1)[:, 0, :]
    rate_best = np.maximum(ln_wa_best - ln_lam_n, 0.0)
    nu_rate = np.bincount(
        j_best[nu_wins], weights=rate_best[nu_wins], minlength=config.n_normal,
    ) / t_count
    h_sum_t = np.maximum(h_su_col, h_nu_best).sum(axis=1)
    spent = (lam_arr * config.power).mean() if lam_arr.ndim == 1 \
        else float(lam_arr) * config.power
    return {
        "secrecy": np.bincount(
            kmax[su_wins], weights=rs[su_wins], minlength=k1
        )[:k1] / t_count,
        "power_t": power_t,
        "power_mean": float(power_t.mean()),
        "r_nu_total": float(omega @ nu_rate),
        "dual_value": float(h_sum_t.mean() + spent - mu @ config.secrecy_targets),
        "owner": np.where(
            any_pos, np.where(su_wins, kmax, k1 + j_best), -1
        ).astype(np.int64),
        "p_win": p_win,
    }


def order_stats(alpha, n):
    """Top-two CNRs on subcarrier ``n`` (0-based) of a (K, N) CNR matrix.

    Returns ``(best_user, nu1, nu2)`` where ``nu1 >= nu2`` are the largest
    and second-largest CNRs in the column and ties go to the lowest user
    index.  The strongest eavesdropper CNR for the best user is ``nu2``;
    for every other user it is ``nu1``.
    """
    if alpha.shape[0] < 2:
        raise ValueError("order statistics need at least 2 users")
    if not (0 <= n < alpha.shape[1]):
        raise ValueError("subcarrier index out of range")
    col = alpha[:, n]
    best = int(np.argmax(col))
    rest = np.delete(col, best)
    return best, float(col[best]), float(rest.max())


def assign_subcarrier(column, duals, config, lam):
    """Auction one subcarrier among all K users at the given dual prices.

    Evaluates the priced payoff of every user (secrecy payoff for SUs,
    information payoff for NUs) and returns ``(owner, power)`` for the
    winner.  Ties between an SU and an NU go to the NU; ties within a type
    go to the lowest index.  If every payoff is zero the subcarrier is
    left unassigned: ``(None, 0.0)``.
    """
    column = np.asarray(column, dtype=float)
    k = column.size
    k1 = config.n_secure
    best, nu1, nu2 = order_stats(column[:, None], 0)

    h = np.zeros(k)
    p = np.zeros(k)
    for u in range(k):
        beta = nu2 if u == best else nu1
        if u < k1:
            h[u], p[u], _ = textbook_h_su(column[u], beta, duals.mu[u], lam)
        else:
            h[u] = _h_nu_core(column[u], config.weights[u - k1], lam)
            p[u] = _nu_power_core(column[u], config.weights[u - k1], lam)

    # NU-first ordering implements the tie policy with a single argmax
    order = np.concatenate([np.arange(k1, k), np.arange(k1)])
    winner = order[int(np.argmax(h[order]))]
    if h[winner] <= 0.0:
        return None, 0.0
    return int(winner), float(p[winner])


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


def masked_rates(owner, power, ensemble, config):
    """``decisions_from_arrays``' checked ``(owner, power, rate)``, by masks.

    ``owner`` holds whole numbers in [-1, K) and ``power`` finite values
    >= 0, as ``decisions_from_arrays`` checks them.
    """
    owner = np.asarray(owner).astype(np.int64)
    owned = owner >= 0
    power = np.where(owned, power, 0.0)
    nu1, nu2, kmax = ensemble.order_stats
    a = np.take_along_axis(
        ensemble.alpha, np.where(owned, owner, 0)[:, None, :], axis=1
    )[:, 0, :]
    info = np.log1p(power * a)
    beta = np.where(kmax == owner, nu2, nu1)
    secrecy = np.maximum(info - np.log1p(power * beta), 0.0)
    rate = np.where(owned, np.where(owner < config.n_secure, secrecy, info), 0.0)
    return owner, power, rate


def masked_evaluate(owner, power, rate, config):
    """``evaluate``'s report from (T, N) arrays, one masked sum per kind."""
    t_count, k1 = owner.shape[0], config.n_secure
    su = (owner >= 0) & (owner < k1)
    nu = owner >= k1
    r_su = np.bincount(owner[su], weights=rate[su], minlength=k1)
    nu_rate = np.bincount(owner[nu] - k1, weights=rate[nu], minlength=config.n_normal)
    return EvaluationReport(
        r_nu_total=float(config.weights @ nu_rate) / t_count,
        r_su=r_su / t_count,
        avg_power=float(power.sum()) / t_count,
        su_power=float(power[su].sum()) / t_count,
        su_subcarriers=int(su.sum()) / t_count,
        realizations_used=t_count,
    )


def looped_price(prep, mu, tol_power, lam_floor, warm=None, *, peak, rtol):
    """The power-price search of both modes, element by element in Python.

    The elements are the scalar price (average mode) or one price per
    frame (peak mode).  Every step makes one auction, at Python-float
    prices, for the elements it moves: the upward bracket from
    ``2 * warm`` (cold: 1e-3) at every element's upper end, one probe at
    ``warm / 2`` where that could lift a lower end, one at the floor for
    the elements whose lower end is still there (an element that
    underspends at the floor keeps it), then geometric bisection of the
    open elements.  An element stops within ``tol_power`` of the budget
    or once its bracket is ``rtol`` wide.  A peak step that moves at most
    half of the frames prices just those; one that moves more prices
    every frame, each other one at its last probed price.  Returns the
    scalar price, or the (T,) frame prices.
    """
    target = prep.config.power
    count = prep.t_count if peak else 1
    every = list(range(count))

    last = [1.0] * count   # each element's last probed price

    def unspent(points, idx):
        """The unspent budget of the elements ``idx`` at their ``points``."""
        for i, point in zip(idx, points):
            last[i] = point
        if not peak:
            spend = [_eval_point(prep, mu, points[0]).power_mean]
        elif 2 * len(idx) <= count:
            spend = _eval_point(prep, mu, np.array(points), frames=np.array(idx)).power_t
        else:
            spend = _eval_point(prep, mu, np.array(last)).power_t[idx]
        return [target - float(s) for s in spend]

    lo = [lam_floor] * count
    warm = None if warm is None else [float(v) for v in np.atleast_1d(warm)]
    if warm is None:
        hi = [max(4.0 * lam_floor, 1e-3)] * count
    else:
        hi = [max(2.0 * w, 4.0 * lam_floor) for w in warm]
    for _ in range(200):
        r_hi = unspent(hi, every)
        if all(r >= 0 for r in r_hi):
            break
        for i in every:
            if r_hi[i] < 0:
                lo[i], hi[i] = hi[i], hi[i] * 4.0
    else:
        raise RuntimeError("failed to bracket the power price")
    done = [r_hi[i] <= tol_power for i in every]
    if warm is not None:
        half = [max(w / 2.0, lam_floor) for w in warm]
        lift = [i for i in every if half[i] > lo[i] and not done[i]]
        if lift:
            for i, r in zip(lift, unspent([half[i] for i in lift], lift)):
                if r < 0:
                    lo[i] = half[i]
    at_floor = [False] * count
    unpriced = [i for i in every if lo[i] == lam_floor]
    if unpriced:
        for i, r in zip(unpriced, unspent([lam_floor] * len(unpriced), unpriced)):
            at_floor[i] = r >= 0
            done[i] = done[i] or at_floor[i]
    for _ in range(200):
        open_ = [i for i in every if not done[i]]
        if not open_:
            break
        mid = {i: math.sqrt(lo[i] * hi[i]) for i in open_}
        for i, r in zip(open_, unspent([mid[i] for i in open_], open_)):
            if r < 0:
                lo[i] = mid[i]
            else:
                hi[i] = mid[i]
            done[i] = 0 <= r <= tol_power or hi[i] - lo[i] <= rtol * hi[i]
    lam = [lam_floor if at_floor[i] else hi[i] for i in every]
    return np.array(lam) if peak else lam[0]


def looped_trim_su_surplus(prep, owner, p_win, lam_t):
    """Primal recovery: shave secrecy overshoot back to the targets.

    Each SU whose mean secrecy exceeds ``C_k (1 + 1e-6)`` gets one
    ``ThresholdCurve`` over its powered columns, with each column's CNRs
    divided by its frame's price ``lam_t[t]``, and one
    ``looped_search_threshold`` to 1e-6; the curve's powers, divided by
    the frame's price again, replace the SU's, and its columns left
    without power are released.
    """
    targets = prep.config.secrecy_targets
    frame_lam = np.broadcast_to(np.asarray(lam_t, float)[:, None], owner.shape)
    for k in range(prep.k1):
        mine = owner == k
        p = p_win[mine]
        rs = np.log1p(p * prep.nu1[mine]) - np.log1p(p * prep.nu2[mine])
        if targets[k] <= 0 or math.fsum(rs) / prep.t_count <= targets[k] * (1 + 1e-6):
            continue
        powered = mine & (p_win > 0)
        lam = frame_lam[powered]
        curve = ThresholdCurve(prep.nu1[powered] / lam, prep.nu2[powered] / lam,
                               prep.t_count)
        threshold = looped_search_threshold(curve, targets[k], 1e-6).value
        p_win[mine] = 0.0
        p_win[powered] = curve.powers(threshold) / lam
        owner[mine & (p_win <= 0)] = UNASSIGNED


def exact_refill_levels(w, inv_a, budget):
    """The water level that spends ``budget`` on one row, by enumeration.

    A row is one frame of the peak refill, or every free column of the
    two-phase NU phase.  ``w`` and ``inv_a`` are the weights and inverse
    CNRs of the columns that may take power, where a column at level
    ``theta`` takes ``max(theta * w - inv_a, 0)``.  Every active-set size
    m is tried: the m columns with the smallest breakpoints ``inv_a / w``
    open, the linear piece gives ``theta``, and the m that keeps exactly
    those columns open wins.  Returns ``theta``.
    """
    kinks = sorted(zip((a / x for a, x in zip(inv_a, w)), w, inv_a))
    for m in range(len(kinks), 0, -1):
        w_sum = math.fsum(x for _, x, _ in kinks[:m])
        a_sum = math.fsum(a for _, _, a in kinks[:m])
        theta = (budget + a_sum) / w_sum
        if theta >= kinks[m - 1][0]:
            return theta
    raise AssertionError("a positive budget always opens the first column")


def looped_refill_nu_water(prep, owner, p_win, lam_t, residual, lam_floor):
    """Primal recovery: spend leftover per-frame budget on NU water levels.

    The leftover of each frame that needs one is poured, frame by frame,
    onto its non-SU-owned columns at the level ``exact_refill_levels``
    finds, keeping ownership and all SU powers fixed.  Each column's
    bidder is the NU auction winner at the frame's price; where no NU is
    profitable that is the strongest NU candidate.  Frames whose price
    sits at the floor are left alone.  Returns each refilled frame's NU
    budget, keyed by frame.
    """
    cfg = prep.config
    k1 = prep.k1
    nu = prep.nu
    budgets = {}
    for t in range(prep.t_count):
        if residual[t] <= 1e-9 * max(cfg.power, 1.0) or lam_t[t] <= lam_floor * 1.001:
            continue
        cols = np.flatnonzero(~((owner[t] >= 0) & (owner[t] < k1)))
        if cols.size == 0:
            continue
        lam = lam_t[t:t + 1][:, None, None]
        _, g = nu.auction(np.log(lam), lam, rows=[t])
        j_best = nu.take(nu.index, g, rows=[t])[0]
        inv_a = nu.take(nu.inv_alpha, g, rows=[t])[0]
        w = np.broadcast_to(nu.weight(g), (1, prep.n))[0]
        budget = cfg.power - math.fsum(np.delete(p_win[t], cols))
        theta = exact_refill_levels(w[cols], inv_a[cols], budget)
        p_new = np.maximum(theta * w[cols] - inv_a[cols], 0.0)
        p_win[t, cols] = p_new
        owner[t, cols[p_new > 0]] = k1 + j_best[cols[p_new > 0]]
        budgets[t] = budget
    return budgets


def looped_initial_mu(prep, lam0, *, rounds=28) -> np.ndarray:
    """Warm-start multipliers by calibrating each SU against the auction.

    At a fixed power price the SUs do not interact (each competes only
    with the NUs on the columns where it is the strongest), so every
    component's secrecy is monotone in its own multiplier and a joint
    vector bisection against the target vector is exact.  The dual
    iteration then only has to absorb the feedback of the power price.
    """
    cfg = prep.config
    targets = cfg.secrecy_targets
    want = targets > 0
    if not want.any():
        return np.zeros(prep.k1)

    hi = np.ones(prep.k1)
    for _ in range(40):
        sec = _eval_point(prep, hi, lam0).secrecy
        short = want & (sec < targets)
        if not short.any():
            break
        hi[short] *= 4.0
    lo = np.zeros(prep.k1)
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        sec = _eval_point(prep, mid, lam0).secrecy
        low = sec < targets
        lo = np.where(low, mid, lo)
        hi = np.where(low, hi, mid)
    return np.where(want, 0.5 * (lo + hi), 0.0)


class ThresholdCurve:
    """Average secrecy rate and power of one SU as its CNR-gap threshold moves.

    Built from the flattened candidate columns of an ensemble: ``a`` holds the
    SU's CNR where it is the column maximum (restricted to a fixed subcarrier
    set for the fixed-assignment baselines), ``b`` the runner-up CNR.  Power
    follows the secure-user closed form with the price pair (1/threshold, 1),
    which keeps the activation rule at ``a - b > threshold`` exactly.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, t_count: int):
        self.a = np.asarray(a, float)
        self.b = np.asarray(b, float)
        self.gap = self.a - self.b
        self.t_count = t_count

    @property
    def max_gap(self) -> float:
        return float(self.gap.max()) if self.gap.size else 0.0

    def limit_rate(self) -> float:
        """Average secrecy rate as the threshold (and the power price) -> 0."""
        act = self.gap > 0
        if not act.any():
            return 0.0
        return float(np.log(self.a[act] / self.b[act]).sum() / self.t_count)

    def stats(self, threshold: float):
        """(mean secrecy rate, mean power) at the given threshold.

        A vanishing threshold is the unbounded-power limit: the rate tends
        to the mean log-ratio of the top two CNRs and the power diverges.
        """
        if not np.isfinite(threshold):
            return 0.0, 0.0
        if threshold <= 0:
            return self.limit_rate(), np.inf
        act = self.gap > threshold
        if not act.any():
            return 0.0, 0.0
        a, b = self.a[act], self.b[act]
        p = textbook_su_power(a, b, 1.0 / threshold, 1.0)
        rs = np.log1p(p * a) - np.log1p(p * b)
        return float(rs.sum() / self.t_count), float(p.sum() / self.t_count)

    def rate(self, threshold: float) -> float:
        return self.stats(threshold)[0]

    def powers(self, threshold: float) -> np.ndarray:
        """Per-candidate-column powers at the threshold (0 when inactive)."""
        p = np.zeros_like(self.gap)
        if not np.isfinite(threshold):
            return p
        act = self.gap > threshold
        if act.any():
            p[act] = textbook_su_power(self.a[act], self.b[act], 1.0 / threshold, 1.0)
        return p


def looped_search_threshold(curve: ThresholdCurve, target: float, eps: float) -> SearchOutcome:
    """Shrink the threshold bracket until |mean rate - target| <= eps*target.

    The rate is continuous and non-increasing in the threshold, so plain
    bisection from 0 to just above the largest observed gap (where the
    rate is exactly zero) always terminates.
    """
    if target <= 0:
        return SearchOutcome(np.inf, 0)
    cap = curve.max_gap * (1 + 1e-9) + 1e-9
    return bisect_monotone(curve.rate, target, 0.0, cap, eps * target, increasing=False)


def looped_su_phase(ensemble, config, eps, candidate_sets=None):
    """One ``ThresholdCurve`` and one threshold search per SU.

    Returns ``(thresholds, secrecy, power, iterations, owner, p_win)``:
    the (K1,) per-SU results and the (T, N) SU owner (-1 where free) and
    power arrays; raises ``SecrecyInfeasibleError`` like ``su_phase``.
    """
    k1 = config.n_secure
    nu1, nu2, kmax = column_order_stats(ensemble.alpha)
    t_count = ensemble.count

    thresholds = np.full(k1, np.inf)
    secrecy = np.zeros(k1)
    power = np.zeros(k1)
    iterations = np.zeros(k1, dtype=int)
    owner = np.full((t_count, config.n_subcarriers), -1, dtype=np.int64)
    p_win = np.zeros((t_count, config.n_subcarriers))

    for k in range(k1):
        mask = kmax == k
        if candidate_sets is not None:
            in_set = np.zeros(config.n_subcarriers, dtype=bool)
            in_set[candidate_sets[k]] = True
            mask = mask & in_set
        curve = ThresholdCurve(nu1[mask], nu2[mask], t_count)
        target = float(config.secrecy_targets[k])
        if target > 0:
            achievable = curve.limit_rate()
            if achievable <= target:
                raise SecrecyInfeasibleError(k, achievable, target)
            out = looped_search_threshold(curve, target, eps)
            thresholds[k] = out.value
            iterations[k] = out.iterations
            secrecy[k], power[k] = curve.stats(out.value)
            # the curve holds SU k's candidate columns in row-major order
            # and ``claimed`` is the subset of them above the threshold
            claimed = np.zeros_like(mask)
            claimed[mask] = curve.gap > thresholds[k]
            owner[claimed] = k
            p_win[claimed] = curve.powers(thresholds[k])[curve.gap > thresholds[k]]
    return thresholds, secrecy, power, iterations, owner, p_win
