"""Dual-decomposition solver for the secrecy-constrained allocation problem.

The coupled problem (maximize weighted NU rate subject to per-SU average
secrecy targets and a total power budget) is priced with multipliers
``mu`` (secrecy) and ``lam`` (power) and split per subcarrier, where the
winner of each subcarrier is the user with the largest priced payoff.
Under the average power constraint ``lam`` is a single scalar; under the
peak constraint it is resolved per realization so that every frame's
power spend hits the budget.

The dual is minimized over ``mu`` with a projected subgradient (default)
or the ellipsoid method; ``lam`` is eliminated exactly at every step by
bisection on the spent power, which is non-increasing in ``lam``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import (
    UNASSIGNED,
    AllocationDecision,
    SolveResult,
    decisions_from_arrays,
)
from .channel import ChannelEnsemble, ChannelRealization, column_order_stats
from .config import ProblemConfig, SolverOptions
from .evaluate import evaluate
from .rates import DualState, _h_su_core, _NuCandidates


class _Prepared:
    """Per-(ensemble, config) caches for the vectorized dual evaluation.

    The auction is pruned here, once.  An SU can be paid only where it
    holds the column maximum, so the SU side keeps just those columns:
    ``su_idx`` (flat t*N + n index), ``su_t``, ``su_k`` (the SU), and
    ``su_nu1``/``su_nu2``.  On the NU side only the strongest NU of each
    weight class can win, so ``nu`` keeps one candidate per class and
    column; its (T, G, N) arrays are also exposed as ``ln_wa`` and
    ``inv_alpha_nu``, the names of the full per-NU caches they replace.
    """

    def __init__(self, ensemble: ChannelEnsemble, config: ProblemConfig):
        if ensemble.count < 1:
            raise ValueError("ensemble must contain at least one realization")
        if (ensemble.n_users, ensemble.n_subcarriers) != (
            config.n_users, config.n_subcarriers,
        ):
            raise ValueError("ensemble dimensions do not match the config")
        self.config = config
        self.alpha = ensemble.alpha
        self.t_count, self.k, self.n = ensemble.alpha.shape
        self.k1 = config.n_secure
        self.nu1, self.nu2, self.kmax = column_order_stats(self.alpha)
        self.is_su_col = self.kmax < self.k1
        self.su_idx = np.flatnonzero(self.is_su_col)
        self.su_t = self.su_idx // self.n
        self.su_k = self.kmax.ravel()[self.su_idx]
        self.su_nu1 = self.nu1.ravel()[self.su_idx]
        self.su_nu2 = self.nu2.ravel()[self.su_idx]
        self.nu = _NuCandidates(self.alpha[:, self.k1:, :], config.weights)
        self.ln_wa = self.nu.ln_wa
        self.inv_alpha_nu = self.nu.inv_alpha
        self.omega = config.weights

    _su_caps = None

    @property
    def su_caps(self) -> np.ndarray:
        """Per-SU ensemble-average secrecy at unbounded power (upper limit)."""
        if self._su_caps is None:
            a, b = self.su_nu1, self.su_nu2
            ln_ratio = np.where(a > b, np.log(a) - np.log(b), 0.0)
            self._su_caps = np.bincount(
                self.su_k, weights=ln_ratio, minlength=self.k1
            ) / self.t_count
        return self._su_caps


@dataclass
class _PointStats:
    secrecy: np.ndarray        # (K1,) mean secrecy per SU
    power_t: np.ndarray        # (T,) spent power per realization
    power_mean: float
    r_nu_total: float
    nu_rate: np.ndarray        # (K-K1,) mean rate per NU
    su_power: float
    su_count: float
    dual_value: float
    owner: np.ndarray | None = None     # (T,N)
    p_win: np.ndarray | None = None     # (T,N)


def _eval_point(prep: _Prepared, mu, lam, *, full=True, arrays=False) -> _PointStats:
    """Evaluate the per-subcarrier auction at dual prices (mu, lam).

    ``lam`` is a scalar (average mode) or a length-T vector (peak mode).
    Only the pruned bidders of ``prep`` are priced: the NU candidates on
    every column and the SU payoff on the SU-max columns.  The SU results
    are scattered back into (T, N) arrays before any per-frame sum, so
    the output is bit-identical to pricing every user everywhere.
    """
    cfg = prep.config
    k1 = prep.k1
    nu = prep.nu
    mu = np.asarray(mu, float)
    lam_arr = np.asarray(lam, float)
    if lam_arr.ndim == 1:
        lam_n = lam_arr[:, None]
        ln_lam_n = np.log(lam_arr)[:, None]
        lam_g, ln_lam_g = lam_n[:, :, None], ln_lam_n[:, :, None]
        lam_su = lam_arr[prep.su_t]
    else:
        lam_n = lam_g = lam_su = float(lam_arr)
        ln_lam_n = ln_lam_g = math.log(lam_n)

    h_nu_best, g = nu.auction(ln_lam_g, lam_g)
    p_nu_best = np.maximum(
        nu.weight(g) / lam_n - nu.take(nu.inv_alpha, g), 0.0
    )
    h_su, p_su, rs = _h_su_core(prep.su_nu1, prep.su_nu2, mu[prep.su_k], lam_su)
    h_nu_su = h_nu_best.ravel()[prep.su_idx]
    su_wins = h_su > h_nu_su
    su_won = prep.su_idx[su_wins]

    # the scatter targets below are fresh C-ordered arrays, so ravel() is a view
    nu_pos = h_nu_best > 0.0
    p_win = np.where(nu_pos, p_nu_best, 0.0)
    p_win.ravel()[su_won] = p_su[su_wins]
    power_t = p_win.sum(axis=1)
    power_mean = float(power_t.mean())

    secrecy = np.zeros(k1)
    nu_rate = np.zeros(cfg.n_normal)
    r_nu_total = su_power = su_count = dual = np.nan
    if full or arrays:
        nu_wins = nu_pos.copy()
        nu_wins.ravel()[su_won] = False
        j_best = nu.take(nu.index, g)
    if full:
        secrecy = np.bincount(
            prep.su_k[su_wins], weights=rs[su_wins], minlength=k1
        ) / prep.t_count
        rate_best = np.maximum(nu.take(nu.ln_wa, g) - ln_lam_n, 0.0)
        nu_rate = np.bincount(
            j_best[nu_wins], weights=rate_best[nu_wins], minlength=cfg.n_normal
        ) / prep.t_count
        r_nu_total = float(prep.omega @ nu_rate)
        su_power = float(p_su[su_wins].sum() / prep.t_count)
        su_count = float(su_wins.sum() / prep.t_count)
        h_col = h_nu_best.copy()
        h_col.ravel()[prep.su_idx] = np.maximum(h_su, h_nu_su)
        h_sum_t = h_col.sum(axis=1)
        if lam_arr.ndim == 1:
            dual = float(h_sum_t.mean() + (lam_arr * cfg.power).mean()
                         - mu @ cfg.secrecy_targets)
        else:
            dual = float(h_sum_t.mean() + float(lam_arr) * cfg.power
                         - mu @ cfg.secrecy_targets)

    owner = None
    if arrays:
        owner = np.where(nu_wins, k1 + j_best, UNASSIGNED).astype(np.int64)
        owner.ravel()[su_won] = prep.su_k[su_wins]
    return _PointStats(
        secrecy=secrecy, power_t=power_t, power_mean=power_mean,
        r_nu_total=r_nu_total, nu_rate=nu_rate, su_power=su_power,
        su_count=su_count, dual_value=dual,
        owner=owner, p_win=p_win if arrays else None,
    )


def dual_point(ensemble: ChannelEnsemble, config: ProblemConfig, mu, lam):
    """Dual value and subgradient at (mu, lam) under the average constraint.

    Returns ``(g, dmu, dlam)`` where ``dmu_k`` is the mean secrecy surplus
    of SU k and ``dlam`` the unspent power, both training-set averages.
    """
    prep = ensemble if isinstance(ensemble, _Prepared) else _Prepared(ensemble, config)
    st = _eval_point(prep, mu, lam, full=True)
    dmu = st.secrecy - config.secrecy_targets
    dlam = config.power - st.power_mean
    return st.dual_value, dmu, dlam


def _solve_lambda_avg(prep, mu, tol_power, lam_floor, warm=None, max_iter=200):
    """Scalar power multiplier meeting the mean budget, or the floor.

    Spent power is non-increasing in ``lam`` (each candidate's power level
    falls and auction switches always move to the lower-power bidder), so
    geometric bisection applies.  Returns ``(lam, power_mean, at_floor)``.
    """
    target = prep.config.power

    def power_at(lam):
        return _eval_point(prep, mu, lam, full=False).power_mean

    p_floor = power_at(lam_floor)
    if p_floor <= target:
        return lam_floor, p_floor, True

    lo, hi = lam_floor, None
    if warm is not None and warm > lam_floor:
        w_lo, w_hi = warm / 2.0, warm * 2.0
        if power_at(w_hi) <= target:
            hi = w_hi
            if power_at(w_lo) > target:
                lo = w_lo
        elif power_at(w_lo) > target:
            lo = w_hi
    if hi is None:
        hi = max(lo * 4.0, 1e-3)
        for _ in range(200):
            if power_at(hi) <= target:
                break
            lo, hi = hi, hi * 4.0
        else:
            raise RuntimeError("failed to bracket the power multiplier")

    lam, p = hi, power_at(hi)
    for _ in range(max_iter):
        if abs(p - target) <= tol_power:
            break
        mid = math.sqrt(lo * hi)
        pm = power_at(mid)
        if pm > target:
            lo = mid
        else:
            hi = mid
            lam, p = mid, pm
        if hi - lo <= 1e-14 * hi:
            break
    return lam, p, False


def _solve_lambda_peak(prep, mu, tol_power, lam_floor, warm=None, max_iter=90):
    """Per-realization power multipliers hitting the budget frame by frame.

    Vectorized synchronized bisection; realizations whose spend at the
    floor is already below budget keep ``lam = lam_floor``.  Returns
    ``(lam_t, at_floor_mask)`` with spend <= budget at the returned prices.
    """
    target = prep.config.power
    t_count = prep.t_count

    def power_t(lam_vec):
        return _eval_point(prep, mu, lam_vec, full=False).power_t

    lo = np.full(t_count, lam_floor)
    at_floor = power_t(lo) <= target

    hi = np.maximum(warm if warm is not None else np.ones(t_count), lam_floor * 4)
    for _ in range(200):
        need = (power_t(hi) > target) & ~at_floor
        if not need.any():
            break
        hi[need] *= 4.0
    else:
        raise RuntimeError("failed to bracket per-realization multipliers")
    if warm is not None:
        # pull the lower bracket up near last iteration's multipliers
        lo_try = np.maximum(warm / 4.0, lam_floor)
        ok = (power_t(lo_try) >= target) & ~at_floor
        lo = np.where(ok, lo_try, lo)

    # close in on the budget strictly from the under-spending side so a
    # frame's spend never exceeds it; the final refill tops up the leftover
    done = at_floor.copy()
    lam = np.where(at_floor, lam_floor, hi)
    for _ in range(max_iter):
        if done.all():
            break
        mid = np.sqrt(lo * hi)
        probe = np.where(done, lam, mid)
        pm = power_t(probe)
        active = ~done
        over = pm > target
        lo = np.where(active & over, mid, lo)
        hi = np.where(active & ~over, mid, hi)
        lam = np.where(active & ~over, mid, lam)
        done |= active & ~over & (target - pm <= tol_power)
        # frames whose budget sits inside an assignment discontinuity
        # cannot meet the tolerance; stop once the bracket pins the kink
        done |= active & (hi - lo <= 1e-12 * hi)
    return lam, at_floor


def _trim_su_surplus(prep, owner, p_win, mu, lam_t, eps):
    """Primal recovery: shave secrecy overshoot back to the targets.

    Assignment granularity can leave an SU above its average target (the
    marginal column is won whole or not at all).  With ownership fixed,
    each frame's contribution is scaled down by re-tuning the per-set gap
    threshold, releasing power for the NU refill.  Per-frame targets are
    proportional to the frame's contribution, so the ensemble average
    lands on the target exactly.
    """
    from .rates import _su_power_core

    k1 = prep.k1
    targets = prep.config.secrecy_targets
    su_owned = (owner >= 0) & (owner < k1)
    if not su_owned.any():
        return
    rs = np.zeros_like(p_win)
    rs[su_owned] = np.log1p(p_win[su_owned] * prep.nu1[su_owned]) \
        - np.log1p(p_win[su_owned] * prep.nu2[su_owned])
    s_mean = np.bincount(
        owner[su_owned], weights=rs[su_owned], minlength=k1
    )[:k1] / prep.t_count
    # overshoot already inside the tolerance band is left alone
    trim = (targets > 0) & (s_mean > targets * (1 + eps / 4)) & (mu > 0)
    if not trim.any():
        return
    scale = np.where(trim, targets / np.maximum(s_mean, 1e-300), 1.0)
    lam_t = np.broadcast_to(np.asarray(lam_t, float), (prep.t_count,))
    for t in range(prep.t_count):
        for k in np.flatnonzero(trim):
            cols = np.flatnonzero(owner[t] == k)
            if cols.size == 0:
                continue
            a = prep.nu1[t, cols]
            b = prep.nu2[t, cols]
            target_t = rs[t, cols].sum() * scale[k]
            if target_t <= 0:
                owner[t, cols] = UNASSIGNED
                p_win[t, cols] = 0.0
                continue
            lo = lam_t[t] / mu[k]          # current ratio: rate >= target
            hi = float((a - b).max())
            best_p = p_win[t, cols].copy()
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                p_mid = _su_power_core(a, b, 1.0 / mid, 1.0)
                r_mid = float(np.where(
                    p_mid > 0, np.log1p(p_mid * a) - np.log1p(p_mid * b), 0.0
                ).sum())
                if r_mid >= target_t:
                    lo = mid
                    best_p = p_mid
                    if r_mid - target_t <= 1e-6 * target_t:
                        break
                else:
                    hi = mid
            p_win[t, cols] = best_p
            dead = best_p <= 0
            if dead.any():
                owner[t, cols[dead]] = UNASSIGNED


def _refill_nu_water(prep, owner, p_win, lam_t, residual, lam_floor):
    """Primal recovery: spend leftover per-frame budget on NU water levels.

    The auction at the resolved per-frame price can undershoot the budget
    when the budget falls inside an ownership-switch discontinuity.  The
    leftover is poured onto the non-SU-owned columns of those frames by
    raising the (weight-proportional) water level, keeping ownership and
    all SU powers fixed.  Each column's bidder is the NU auction winner at
    the frame's price; where no NU is profitable that is the strongest NU
    candidate, the first to open as the water level rises.  Frames whose
    price sits at the floor legitimately underspend and are left alone.
    """
    cfg = prep.config
    k1 = prep.k1
    needs = (residual > 1e-9 * max(cfg.power, 1.0)) & (lam_t > lam_floor * 1.001)
    if not needs.any():
        return
    idx = np.flatnonzero(needs)
    nu = prep.nu
    lam_i = lam_t[idx][:, None, None]
    _, g = nu.auction(np.log(lam_i), lam_i, rows=idx)
    j_best = nu.take(nu.index, g, rows=idx)
    inv_a = nu.take(nu.inv_alpha, g, rows=idx)
    w = nu.weight(g)
    candidate = ~((owner[idx] >= 0) & (owner[idx] < k1))  # non-SU columns
    if not candidate.any():
        return
    su_spend = np.where(candidate, 0.0, p_win[idx]).sum(axis=1)
    budget = cfg.power - su_spend

    def spend(theta):
        p = np.maximum(theta[:, None] * w - inv_a, 0.0)
        return np.where(candidate, p, 0.0).sum(axis=1)

    lo = np.full(idx.size, 0.0)
    hi = np.maximum(1.0 / lam_t[idx], 1.0)
    for _ in range(200):
        short = spend(hi) < budget
        if not short.any():
            break
        hi[short] *= 2.0
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        s = spend(mid)
        under = s < budget
        lo = np.where(under, mid, lo)
        hi = np.where(under, hi, mid)
    theta = lo  # under-budget side: the frame never exceeds its cap
    p_new = np.maximum(theta[:, None] * w - inv_a, 0.0)
    p_new = np.where(candidate, p_new, 0.0)
    opened = candidate & (p_new > 0)
    sub_owner = owner[idx]
    sub_owner[opened] = k1 + j_best[opened]
    owner[idx] = sub_owner
    sub_p = p_win[idx]
    sub_p[candidate] = p_new[candidate]
    p_win[idx] = sub_p


def _initial_mu(prep: _Prepared, lam0, *, rounds=28) -> np.ndarray:
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
        sec = _eval_point(prep, hi, lam0, full=True).secrecy
        short = want & (sec < targets)
        if not short.any():
            break
        hi[short] *= 4.0
    lo = np.zeros(prep.k1)
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        sec = _eval_point(prep, mid, lam0, full=True).secrecy
        low = sec < targets
        lo = np.where(low, mid, lo)
        hi = np.where(low, hi, mid)
    return np.where(want, 0.5 * (lo + hi), 0.0)


def _converged_mu(dmu, secrecy, cfg, eps) -> bool:
    tol = eps * np.maximum(cfg.secrecy_targets, 1.0)
    if np.any(np.abs(dmu) > tol):
        return False
    return bool(np.all(secrecy >= cfg.secrecy_targets * (1.0 - eps)))


def _power_side_ok(lam, st, cfg, eps, lam_floor) -> bool:
    """Budget met within tolerance, or underspent with the price at its floor."""
    lam_arr = np.asarray(lam, float)
    if lam_arr.ndim == 1:
        # peak mode: bisection leaves every frame at the budget or at the floor
        return bool(np.all(st.power_t <= cfg.power * (1 + eps)))
    at_floor = float(lam_arr) <= 1.001 * lam_floor
    if at_floor:
        return st.power_mean <= cfg.power * (1 + eps)
    return abs(cfg.power - st.power_mean) <= eps * cfg.power


def _dual_outer_loop(prep, opts, resolve_lambda, describe_lambda):
    """Shared outer minimization over mu for both power-constraint modes.

    ``resolve_lambda(mu, warm)`` must return ``(lam, warm_state)`` with the
    power side of the dual solved exactly; ``describe_lambda(lam)`` maps it
    to the scalar stored in the dual trace bookkeeping.
    """
    cfg = prep.config
    eps = opts.epsilon
    targets = cfg.secrecy_targets

    caps = prep.su_caps
    hopeless = (targets > 0) & (targets >= caps)
    if hopeless.any():
        k_bad = int(np.flatnonzero(hopeless)[0])
        return None, (
            f"secrecy target {targets[k_bad]:.4g} for SU {k_bad} exceeds the "
            f"ensemble's unbounded-power limit {caps[k_bad]:.4g}"
        )

    warm = None
    lam, warm = resolve_lambda(np.zeros(prep.k1), warm)
    lam0 = describe_lambda(lam)
    if opts.mu0 is not None:
        mu = opts.mu0.copy()
    else:
        # calibrate, let the power price react, calibrate once more
        mu = _initial_mu(prep, lam0)
        lam, warm = resolve_lambda(mu, warm)
        mu = _initial_mu(prep, describe_lambda(lam))

    if opts.method == "ellipsoid":
        return _ellipsoid_loop(prep, opts, mu, resolve_lambda, describe_lambda), ""

    trace = []
    best = None
    converged = False
    infeasible_msg = ""
    stall = 0
    stall_limit = 150
    for t in range(1, opts.max_iterations + 1):
        lam, warm = resolve_lambda(mu, warm)
        st = _eval_point(prep, mu, lam, full=True)
        trace.append(st.dual_value)
        dmu = st.secrecy - targets

        viol = np.maximum(targets * (1 - eps) - st.secrecy, 0.0)
        score = float(viol.max())
        if best is None or score < best[0] - 1e-15 or (
            score <= best[0] + 1e-15 and st.r_nu_total > best[4].r_nu_total
        ):
            best = (score, mu.copy(), np.array(lam, copy=True), t, st)
            stall = 0
        else:
            stall += 1

        if _converged_mu(dmu, st.secrecy, cfg, eps) and _power_side_ok(
            lam, st, cfg, eps, opts.lambda_floor
        ):
            converged = True
            best = (0.0, mu.copy(), np.array(lam, copy=True), t, st)
            break

        over_ceiling = (mu > opts.multiplier_ceiling) & (viol > 0)
        if over_ceiling.any():
            k_bad = int(np.flatnonzero(over_ceiling)[0])
            infeasible_msg = (
                f"multiplier for SU {k_bad} exceeded the ceiling with its "
                f"secrecy constraint still violated"
            )
            break

        if stall >= stall_limit:
            # finite-ensemble granularity: the achievable secrecy values
            # jump across the tolerance window, no point grinding on
            break

        step = opts.step_scale / math.sqrt(t)
        scale = np.maximum(mu, describe_lambda(lam))
        mu = np.maximum(
            0.0, mu - step * scale * dmu / np.maximum(targets, 1.0)
        )

    _, mu_best, lam_best, iters, st_best = best
    return (mu_best, lam_best, iters, st_best, trace, converged, infeasible_msg), ""


def _ellipsoid_loop(prep, opts, mu0, resolve_lambda, describe_lambda):
    """Ellipsoid minimization of the reduced dual over mu >= 0."""
    cfg = prep.config
    eps = opts.epsilon
    targets = cfg.secrecy_targets
    n_dim = prep.k1
    radius = 10.0 * max(1.0, float(np.max(mu0)) * 4.0)
    center = mu0.astype(float).copy()
    shape = np.eye(n_dim) * radius**2

    trace = []
    best = None
    converged = False
    warm = None
    iters = 0
    for it in range(1, opts.max_iterations + 1):
        iters = it
        negative = center < 0
        if negative.any():
            cut = np.zeros(n_dim)
            cut[int(np.flatnonzero(negative)[0])] = -1.0
        else:
            lam, warm = resolve_lambda(center, warm)
            st = _eval_point(prep, center, lam, full=True)
            trace.append(st.dual_value)
            dmu = st.secrecy - targets
            viol = np.maximum(targets * (1 - eps) - st.secrecy, 0.0)
            score = float(viol.max())
            if best is None or score < best[0] - 1e-15 or (
                score <= best[0] + 1e-15 and st.r_nu_total > best[4].r_nu_total
            ):
                best = (score, center.copy(), np.array(lam, copy=True), it, st)
            if _converged_mu(dmu, st.secrecy, cfg, eps) and _power_side_ok(
                lam, st, cfg, eps, opts.lambda_floor
            ):
                converged = True
                best = (0.0, center.copy(), np.array(lam, copy=True), it, st)
                break
            cut = dmu  # subgradient of the reduced dual
        denom = float(cut @ shape @ cut)
        if denom <= 0 or math.sqrt(denom) < 1e-14:
            break
        if n_dim == 1:
            step = shape[0, 0] ** 0.5 / 2.0
            center = center - np.sign(cut) * step / 2.0
            shape *= 0.25
            continue
        norm_cut = (shape @ cut) / math.sqrt(denom)
        center = center - norm_cut / (n_dim + 1)
        shape = (n_dim**2 / (n_dim**2 - 1.0)) * (
            shape - (2.0 / (n_dim + 1)) * np.outer(norm_cut, norm_cut)
        )

    if best is None:
        lam, warm = resolve_lambda(np.maximum(center, 0.0), warm)
        st = _eval_point(prep, np.maximum(center, 0.0), lam, full=True)
        best = (np.inf, np.maximum(center, 0.0), np.array(lam, copy=True), iters, st)
    return best[1], best[2], best[3], best[4], trace, converged, ""


def _finish(prep, ensemble, opts, mu, lam, iters, st, trace, converged,
            infeasible_msg, *, peak):
    cfg = prep.config
    eps = opts.epsilon
    lam_arr = np.asarray(lam, float)

    st_arrays = _eval_point(prep, mu, lam, full=True, arrays=True)
    owner = st_arrays.owner
    p_win = st_arrays.p_win
    if peak:
        _trim_su_surplus(prep, owner, p_win, mu, lam_arr, eps)
        residual = cfg.power - p_win.sum(axis=1)
        _refill_nu_water(prep, owner, p_win, lam_arr, residual, opts.lambda_floor)

    decisions = decisions_from_arrays(owner, p_win, ensemble, cfg)
    report = evaluate(decisions, ensemble, cfg)

    if peak and not converged and not infeasible_msg:
        # granularity can block the dual loop's tolerance test while the
        # recovered primal still meets every constraint; judge the output
        targets = cfg.secrecy_targets
        tol = eps * np.maximum(targets, 1.0)
        sec_ok = bool(np.all(
            (targets <= 0)
            | ((report.r_su >= targets * (1 - eps))
               & (np.abs(report.r_su - targets) <= tol))
        ))
        power_ok = report.avg_power <= cfg.power * (1 + eps)
        converged = sec_ok and power_ok

    infeasible = bool(infeasible_msg)
    duals = DualState(
        mu=mu, lam=float(lam_arr) if lam_arr.ndim == 0 else None
    )
    return SolveResult(
        duals=duals,
        report=report,
        iterations=iters,
        converged=converged and not infeasible,
        infeasible=infeasible,
        dual_value=float(np.min(trace)) if trace else np.nan,
        dual_trace=trace,
        decisions=decisions,
        lambda_per_realization=lam_arr.copy() if lam_arr.ndim == 1 else None,
        message=infeasible_msg,
    )


def _infeasible_result(prep, ensemble, opts, message, *, peak=False) -> SolveResult:
    """Diagnostic result: the no-secrecy allocation plus the failure note."""
    cfg = prep.config
    mu0 = np.zeros(prep.k1)
    tol_power = opts.epsilon * cfg.power / 4
    if peak:
        lam, _ = _solve_lambda_peak(prep, mu0, tol_power, opts.lambda_floor)
    else:
        lam, _, _ = _solve_lambda_avg(prep, mu0, tol_power, opts.lambda_floor)
    st = _eval_point(prep, mu0, lam, full=True, arrays=True)
    decisions = decisions_from_arrays(st.owner, st.p_win, ensemble, cfg)
    lam_arr = np.asarray(lam, float)
    return SolveResult(
        duals=DualState(
            mu=mu0, lam=float(lam_arr) if lam_arr.ndim == 0 else None
        ),
        report=evaluate(decisions, ensemble, cfg),
        iterations=0,
        converged=False,
        infeasible=True,
        dual_value=st.dual_value,
        dual_trace=[st.dual_value],
        decisions=decisions,
        lambda_per_realization=lam_arr.copy() if lam_arr.ndim == 1 else None,
        message=message,
    )


def solve_average(
    ensemble: ChannelEnsemble,
    config: ProblemConfig,
    opts: SolverOptions | None = None,
) -> SolveResult:
    """Optimal policy under the long-term average power constraint."""
    if config.mode != "average":
        raise ValueError("config.mode must be 'average'")
    opts = opts or SolverOptions()
    prep = _Prepared(ensemble, config)
    tol_power = opts.epsilon * config.power / 4.0

    def resolve(mu, warm):
        lam, _, _ = _solve_lambda_avg(
            prep, mu, tol_power, opts.lambda_floor, warm
        )
        return lam, lam

    out, msg = _dual_outer_loop(prep, opts, resolve, lambda lam: float(lam))
    if out is None:
        return _infeasible_result(prep, ensemble, opts, msg)
    mu, lam, iters, st, trace, converged, infeasible_msg = out
    return _finish(
        prep, ensemble, opts, mu, float(lam), iters, st, trace, converged,
        infeasible_msg, peak=False,
    )


def solve_peak(
    ensemble: ChannelEnsemble,
    config: ProblemConfig,
    opts: SolverOptions | None = None,
) -> SolveResult:
    """Optimal policy under the per-realization (peak) power constraint."""
    if config.mode != "peak":
        raise ValueError("config.mode must be 'peak'")
    opts = opts or SolverOptions()
    prep = _Prepared(ensemble, config)
    tol_power = opts.epsilon * config.power / 4.0

    def resolve(mu, warm):
        lam_t, _ = _solve_lambda_peak(
            prep, mu, tol_power, opts.lambda_floor, warm
        )
        return lam_t, lam_t.copy()

    out, msg = _dual_outer_loop(
        prep, opts, resolve, lambda lam: float(np.median(lam))
    )
    if out is None:
        return _infeasible_result(prep, ensemble, opts, msg, peak=True)
    mu, lam_t, iters, st, trace, converged, infeasible_msg = out
    return _finish(
        prep, ensemble, opts, mu, lam_t, iters, st, trace, converged,
        infeasible_msg, peak=True,
    )


def allocate_realization_avg(
    real: ChannelRealization, duals: DualState, config: ProblemConfig,
) -> AllocationDecision:
    """Per-subcarrier auction of one frame at fixed average-mode duals."""
    if duals.lam is None or duals.lam <= 0:
        raise ValueError("average-mode allocation needs duals.lam > 0")
    ensemble = ChannelEnsemble(alpha=real.alpha[None], seed=0, rho=config.rho)
    prep = _Prepared(ensemble, config)
    st = _eval_point(prep, duals.mu, duals.lam, full=True, arrays=True)
    return decisions_from_arrays(st.owner, st.p_win, ensemble, config)[0]


def allocate_realization_peak(
    real: ChannelRealization, mu, config: ProblemConfig,
    epsilon: float = 1e-2, lambda_floor: float = 1e-12,
):
    """One frame under the peak constraint: resolve the frame's power price.

    Bisects the frame's multiplier until the spend hits the budget within
    ``epsilon * power`` (or leaves it at the floor when even a vanishing
    price underspends), then returns ``(decision, lam)``.
    """
    mu = np.atleast_1d(np.asarray(mu, float))
    if np.any(mu < 0):
        raise ValueError("mu must be >= 0")
    ensemble = ChannelEnsemble(alpha=real.alpha[None], seed=0, rho=config.rho)
    prep = _Prepared(ensemble, config)
    tol_power = epsilon * config.power / 4.0
    lam_t, at_floor = _solve_lambda_peak(prep, mu, tol_power, lambda_floor)
    st = _eval_point(prep, mu, lam_t, full=True, arrays=True)
    owner, p_win = st.owner, st.p_win
    if not at_floor[0]:
        _trim_su_surplus(prep, owner, p_win, mu, lam_t, epsilon)
        residual = config.power - p_win.sum(axis=1)
        _refill_nu_water(prep, owner, p_win, lam_t, residual, lambda_floor)
    decision = decisions_from_arrays(owner, p_win, ensemble, config)[0]
    return decision, float(lam_t[0])
