"""Dual-decomposition solver for the secrecy-constrained allocation problem.

The coupled problem (maximize weighted NU rate subject to per-SU average
secrecy targets and a total power budget) is priced with multipliers
``mu`` (secrecy) and ``lam`` (power) and split into one auction per
subcarrier, won by the user with the largest priced payoff.  ``lam`` is
one scalar under the average power constraint and one price per frame
under the peak constraint.  Each probe prices the auction once, and each
stage reads only the reductions it uses: the ``lam`` search the spend,
the ``mu`` calibration the secrecy, the outer loop the secrecy, NU rate
and dual value, and the primal recovery the allocation.

Every solve starts cold, from a calibrated ``mu``, and the dual is then
minimized over ``mu`` in one loop: ``lam`` is eliminated exactly at
every iterate by bisection on the spent power, which is non-increasing
in ``lam``, and ``mu`` takes a projected subgradient step.  Both power
modes run the same loop; only the ``lam`` search differs.  The ``lam``
search (over just the open frames in peak mode), the ITP ``mu``
calibration and the peak trim and refill all call the one vectorized
primitive, ``_search.bracket`` and ``_search.bisect``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._search import bisect, bracket
from .allocation import UNASSIGNED, SolveResult, decisions_from_arrays
from .channel import ChannelEnsemble, check_dimensions, secrecy_limit
from .config import ProblemConfig, SolverOptions
from .evaluate import evaluate
from .rates import DualState, _h_su_core, _NuCandidates, _su_power_core

_STEP_SCALE = 0.5      # 'a' in the a/sqrt(t) subgradient step on mu
_LAMBDA_FLOOR = 1e-12  # the smallest power price a search returns


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
        check_dimensions(ensemble, config)
        self.config = config
        alpha = ensemble.alpha
        self.t_count, _, self.n = alpha.shape
        self.k1 = config.n_secure
        self.nu1, self.nu2, self.kmax = ensemble.order_stats
        self.is_su_col = self.kmax < self.k1
        self.su_idx, self.su_k, self.su_nu1, self.su_nu2 = ensemble.su_columns(self.k1)
        self.su_t = self.su_idx // self.n
        # per-SU ensemble-average secrecy at unbounded power (upper limit)
        self.su_caps = secrecy_limit(
            self.su_nu1, self.su_nu2, self.su_k, self.k1, self.t_count
        )
        # su_idx ascends, so frame t's SU-max columns are su_ptr[t]:su_ptr[t+1]
        self.su_ptr = np.searchsorted(self.su_t, np.arange(self.t_count + 1))
        self.nu = _NuCandidates(alpha[:, self.k1:, :], config.weights)
        self.ln_wa = self.nu.ln_wa
        self.inv_alpha_nu = self.nu.inv_alpha

    def su_in_frames(self, frames):
        """The SU-max columns of ascending ``frames``.

        Returns their positions in the ``su_*`` arrays, their row among
        ``frames`` and their flat index into a (len(frames), N) array.
        """
        start = self.su_ptr[frames]
        count = self.su_ptr[frames + 1] - start
        row = np.repeat(np.arange(frames.size), count)
        at = np.arange(row.size) + np.repeat(start - (np.cumsum(count) - count), count)
        return at, row, row * self.n + self.su_idx[at] % self.n


class _Auction:
    """The per-subcarrier auction at dual prices (mu, lam), priced once.

    ``lam`` is a scalar (average mode) or a length-T vector (peak mode).
    Construction prices the pruned bidders of ``prep`` (the NU candidates
    on every column, the SU closed form on the SU-max columns) and sets
    ``p_win``, ``power_t`` and ``power_mean``; the SU results are scattered
    into (T, N) arrays before any per-frame sum, so all is bit-identical to
    pricing every user everywhere.  The reductions ``secrecy``,
    ``r_nu_total``, ``dual_value`` and ``owner`` are computed on first
    read.  ``frames`` (ascending, one price in ``lam`` each) prices just
    those frames' ``power_t``; reading a reduction of it raises ValueError.
    """

    def __init__(self, prep: _Prepared, mu, lam, frames=None):
        nu = prep.nu
        # copies: a reduction read later must not see the caller's updates
        mu, lam_arr = np.array(mu, float), np.array(lam, float)
        self.prep, self.frames, self._mu, self._lam = prep, frames, mu, lam_arr
        rows, su_at, su_t, su_idx = slice(None), slice(None), prep.su_t, prep.su_idx
        keep = slice(None)
        if frames is not None:
            if lam_arr.ndim != 1:
                raise ValueError("a frame subset needs one price per frame")
            if 2 * frames.size > prep.t_count:
                # gathering most frames costs more than pricing them all; the
                # other frames get placeholder prices and their spend is dropped
                keep, lam_arr = frames, np.ones(prep.t_count)
                lam_arr[frames] = lam
            else:
                rows = frames
                su_at, su_t, su_idx = prep.su_in_frames(frames)
        if lam_arr.ndim == 1:
            lam_n = lam_arr[:, None]
            ln_lam_n = np.log(lam_arr)[:, None]
            lam_g, ln_lam_g = lam_n[:, :, None], ln_lam_n[:, :, None]
            lam_su = lam_arr[su_t]
        else:
            lam_n = lam_g = lam_su = float(lam_arr)
            ln_lam_n = ln_lam_g = math.log(lam_n)

        h_nu_best, g = nu.auction(ln_lam_g, lam_g, rows=rows)
        p_nu_best = np.maximum(
            nu.weight(g) / lam_n - nu.take(nu.inv_alpha, g, rows=rows), 0.0
        )
        h_su, p_su, rs = _h_su_core(
            prep.su_nu1[su_at], prep.su_nu2[su_at], mu[prep.su_k[su_at]], lam_su
        )
        h_nu_su = h_nu_best.ravel()[su_idx]
        su_wins = h_su > h_nu_su
        su_won = su_idx[su_wins]

        # the scatter targets are fresh C-ordered arrays, so ravel() is a view
        nu_pos = h_nu_best > 0.0
        self.p_win = np.where(nu_pos, p_nu_best, 0.0)
        self.p_win.ravel()[su_won] = p_su[su_wins]
        self.power_t = self.p_win.sum(axis=1)[keep]
        self.power_mean = float(self.power_t.mean())
        self._ln_lam_n, self._h_nu_best, self._g, self._nu_pos = (
            ln_lam_n, h_nu_best, g, nu_pos)
        self._h_su, self._h_nu_su, self._rs, self._su_wins, self._su_won = (
            h_su, h_nu_su, rs, su_wins, su_won)

    def _whole(self) -> _Prepared:
        """``prep`` for a reduction; an auction on a frame subset has none."""
        if self.frames is not None:
            raise ValueError("a frame subset prices the per-frame spend only")
        return self.prep

    @cached_property
    def secrecy(self) -> np.ndarray:
        prep, wins = self._whole(), self._su_wins
        return np.bincount(prep.su_k[wins], weights=self._rs[wins],
                           minlength=prep.k1) / prep.t_count

    @cached_property
    def _nu_winners(self):
        nu = self._whole().nu
        nu_wins = self._nu_pos.copy()
        nu_wins.ravel()[self._su_won] = False
        return nu_wins, nu.take(nu.index, self._g)

    @cached_property
    def r_nu_total(self) -> float:
        nu_wins, j_best = self._nu_winners
        prep, nu = self.prep, self.prep.nu
        rate_best = np.maximum(nu.take(nu.ln_wa, self._g) - self._ln_lam_n, 0.0)
        nu_rate = np.bincount(j_best[nu_wins], weights=rate_best[nu_wins],
                              minlength=prep.config.n_normal) / prep.t_count
        return float(prep.config.weights @ nu_rate)

    @cached_property
    def dual_value(self) -> float:
        prep = self._whole()
        h_col = self._h_nu_best.copy()
        h_col.ravel()[prep.su_idx] = np.maximum(self._h_su, self._h_nu_su)
        return float(h_col.sum(axis=1).mean() + (self._lam * prep.config.power).mean()
                     - self._mu @ prep.config.secrecy_targets)

    @cached_property
    def owner(self) -> np.ndarray:
        nu_wins, j_best = self._nu_winners
        owner = np.where(nu_wins, self.prep.k1 + j_best, UNASSIGNED).astype(np.int64)
        owner.ravel()[self._su_won] = self.prep.su_k[self._su_wins]
        return owner


def _eval_point(prep: _Prepared, mu, lam, frames=None) -> _Auction:
    """The auction at (mu, lam); every stage prices through this rebindable name."""
    return _Auction(prep, mu, lam, frames)


def dual_point(ensemble: ChannelEnsemble, config: ProblemConfig, mu, lam):
    """Dual value and subgradient at (mu, lam).

    ``lam`` is one scalar (average constraint) or one price per frame
    (peak constraint).  Returns ``(g, dmu, dlam)`` where ``dmu_k`` is the
    mean secrecy surplus of SU k and ``dlam`` the mean unspent power.
    """
    st = _eval_point(_Prepared(ensemble, config), mu, lam)
    dmu, dlam = st.secrecy - config.secrecy_targets, config.power - st.power_mean
    return st.dual_value, dmu, dlam


def _solve_lambda_avg(prep, mu, tol_power, lam_floor, warm=None, max_iter=200):
    """Scalar power multiplier meeting the mean budget, or the floor.

    Spent power is non-increasing in ``lam`` (each candidate's power level
    falls and auction switches always move to the lower-power bidder), so
    geometric bisection applies; the budget is approached from the
    under-spending end of the bracket.
    """
    target = prep.config.power

    def power_at(lam):
        return _eval_point(prep, mu, float(lam)).power_mean

    def probe(lam):
        unspent = target - power_at(lam)
        return unspent < 0, 0 <= unspent <= tol_power, unspent

    if power_at(lam_floor) <= target:
        return lam_floor

    # the spend at hi is carried from the probe that placed hi there
    lo, hi = lam_floor, None
    if warm is not None and warm > lam_floor:
        w_lo, w_hi = warm / 2.0, warm * 2.0
        unspent = target - power_at(w_hi)
        if unspent >= 0:
            hi = w_hi
            if power_at(w_lo) > target:
                lo = w_lo
        elif power_at(w_lo) > target:
            lo = w_hi
    if hi is None:
        lo, hi, _, unspent = bracket(probe, lo, max(lo * 4.0, 1e-3), 4.0, f_lo=np.nan)
    if unspent <= tol_power:
        return float(hi)
    _, hi, _ = bisect(probe, lo, hi, geometric=True, rtol=1e-14, max_steps=max_iter)
    return float(hi)


def _solve_lambda_peak(prep, mu, tol_power, lam_floor, warm=None, max_iter=90):
    """Per-realization power multipliers hitting the budget frame by frame.

    One synchronized bisection over all frames, approaching each budget
    from the under-spending end so a frame's spend never exceeds it; the
    final refill tops up the leftover.  Realizations whose spend at the
    floor is already below budget keep ``lam = lam_floor``, and only they
    do.  Returns ``lam_t`` with spend <= budget at the returned prices.
    """
    target = prep.config.power
    t_count = prep.t_count

    def power_t(lam_vec, frames=None):
        return _eval_point(prep, mu, lam_vec, frames=frames).power_t

    lo = np.full(t_count, lam_floor)
    at_floor = power_t(lo) <= target

    # a frame at the floor underspends at every higher price too, so it
    # never grows its bracket; the bisection starts it done
    def probe(lam_vec, frames=None):
        pm = power_t(lam_vec, frames)
        over = pm > target
        return over, ~over & (target - pm <= tol_power)

    hi = np.maximum(warm if warm is not None else np.ones(t_count), lam_floor * 4)
    _, hi = bracket(probe, lo, hi, 4.0)
    if warm is not None:
        # pull the lower bracket up near last iteration's multipliers
        lo_try = np.maximum(warm / 4.0, lam_floor)
        ok = (power_t(lo_try) >= target) & ~at_floor
        lo = np.where(ok, lo_try, lo)
    # frames whose budget sits inside an assignment discontinuity cannot
    # meet the tolerance; they stop once the bracket pins the kink.  Only
    # the frames still open are priced.
    _, lam, _ = bisect(
        probe, lo, np.where(at_floor, lam_floor, hi), geometric=True,
        rtol=1e-12, max_steps=max_iter, done=at_floor, open_only=True,
    )
    return lam


def _trim_su_surplus(prep, owner, p_win, mu, lam_t, eps):
    """Primal recovery: shave secrecy overshoot back to the targets.

    Assignment granularity can leave an SU above its average target (the
    marginal column is won whole or not at all).  With ownership fixed,
    each frame's contribution is scaled down by re-tuning the per-set gap
    threshold, releasing power for the NU refill.  Per-frame targets are
    proportional to the frame's contribution, so the ensemble average
    lands on the target exactly.  All (frame, SU) groups share one bisection.
    """
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

    # the columns of trimmed SUs and their (frame, SU) group
    t, n = np.nonzero(su_owned & trim[np.where(su_owned, owner, 0)])
    keys, group = np.unique(t * k1 + owner[t, n], return_inverse=True)
    g_t, g_k = np.divmod(keys, k1)
    a, b = prep.nu1[t, n], prep.nu2[t, n]
    g_gap = np.zeros(keys.size)
    np.maximum.at(g_gap, group, a - b)

    def group_sum(x):
        return np.bincount(group, weights=x, minlength=keys.size)

    target_g = group_sum(rs[t, n]) * scale[g_k]
    drop = target_g <= 0

    def powers(ratio):
        return _su_power_core(a, b, 1.0 / ratio[group], 1.0)

    def probe(ratio):
        p = powers(ratio)
        r = group_sum(np.where(p > 0, np.log1p(p * a) - np.log1p(p * b), 0.0))
        above = r >= target_g
        return above, above & (r - target_g <= 1e-6 * target_g)

    lo0 = lam_t[g_t] / mu[g_k]       # current ratio: rate >= target
    lo, _, _ = bisect(probe, lo0, g_gap, max_steps=60, done=drop)
    # a group the bisection never moved keeps its auction powers
    p_new = np.where((lo != lo0)[group], powers(lo), p_win[t, n])
    p_new[drop[group]] = 0.0
    p_win[t, n] = p_new
    dead = p_new <= 0
    owner[t[dead], n[dead]] = UNASSIGNED


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
    candidate = ~((owner[idx] >= 0) & (owner[idx] < k1))  # non-SU columns
    # a frame whose columns all belong to SUs has nothing to pour onto
    poured = candidate.any(axis=1)
    if not poured.any():
        return
    idx, candidate = idx[poured], candidate[poured]
    nu = prep.nu
    lam_i = lam_t[idx][:, None, None]
    _, g = nu.auction(np.log(lam_i), lam_i, rows=idx)
    j_best = nu.take(nu.index, g, rows=idx)
    inv_a = nu.take(nu.inv_alpha, g, rows=idx)
    w = nu.weight(g)
    su_spend = np.where(candidate, 0.0, p_win[idx]).sum(axis=1)
    budget = cfg.power - su_spend

    def levels(theta):
        return np.where(candidate, np.maximum(theta[:, None] * w - inv_a, 0.0), 0.0)

    def probe(theta):
        return levels(theta).sum(axis=1) < budget, False

    lo = np.zeros(idx.size)
    _, hi = bracket(probe, lo, np.maximum(1.0 / lam_t[idx], 1.0), 2.0)
    # the under-budget end: the frame never exceeds its cap
    theta, _, _ = bisect(probe, lo, hi, max_steps=70)
    p_new = levels(theta)
    owner[idx] = np.where(candidate & (p_new > 0), k1 + j_best, owner[idx])
    p_win[idx] = np.where(candidate, p_new, p_win[idx])


def _initial_mu(prep: _Prepared, lam0, eps, *, rounds=28) -> np.ndarray:
    """Starting multipliers, calibrating each SU against the auction.

    At a fixed power price the SUs do not interact (each competes only
    with the NUs on the columns where it is the strongest), so every
    component's secrecy is monotone in its own multiplier and a joint
    vector search against the target vector is exact.  Each SU stops at
    the first probe with -eps * C_k / 4 <= s_k - C_k <= eps * max(C_k, 1) / 4,
    a quarter of the outer loop's convergence band, or after ``rounds``
    ITP steps, and keeps the multiplier it was last probed at.  The dual
    iteration then only has to absorb the feedback of the power price.
    """
    targets = prep.config.secrecy_targets
    want = targets > 0
    if not want.any():
        return np.zeros(prep.k1)
    below, above = eps * targets / 4.0, eps * np.maximum(targets, 1.0) / 4.0
    mu = np.zeros(prep.k1)   # every SU's last probe

    def probe(x, idx=None):
        at = slice(None) if idx is None else idx
        mu[at] = x
        gap = _eval_point(prep, mu, lam0).secrecy[at] - targets[at]
        return gap < 0, (-below[at] <= gap) & (gap <= above[at]), gap

    # no secrecy at mu = 0: the residual there is -C_k without an auction
    lo, hi, f_lo, f_hi = bracket(probe, np.zeros(prep.k1), np.ones(prep.k1), 4.0,
                                 limit=4.0**40, f_lo=-targets)
    bisect(probe, lo, hi, f_lo=f_lo, f_hi=f_hi, max_steps=rounds,
           done=~want | (f_hi <= above), open_only=True)
    return np.where(want, mu, 0.0)


def _converged_mu(dmu, secrecy, cfg, eps) -> bool:
    tol = eps * np.maximum(cfg.secrecy_targets, 1.0)
    if np.any(np.abs(dmu) > tol):
        return False
    return bool(np.all(secrecy >= cfg.secrecy_targets * (1.0 - eps)))


def _power_side_ok(lam, st, cfg, eps) -> bool:
    """Budget met within tolerance, or underspent with the price at its floor."""
    if cfg.mode == "peak":
        # bisection leaves every frame at the budget or at the floor
        return bool(np.all(st.power_t <= cfg.power * (1 + eps)))
    if lam <= 1.001 * _LAMBDA_FLOOR:
        return st.power_mean <= cfg.power * (1 + eps)
    return abs(cfg.power - st.power_mean) <= eps * cfg.power


def _solve_lambda(prep, mu, eps, warm=None):
    """The power price at ``mu``: one scalar, or one per frame in peak mode."""
    search = _solve_lambda_peak if prep.config.mode == "peak" else _solve_lambda_avg
    return search(prep, mu, eps * prep.config.power / 4.0, _LAMBDA_FLOOR, warm)


_OUT_OF_ITERATIONS = "reached max_iterations={} before the tolerance test passed"


def _dual_outer_loop(prep, opts):
    """Outer minimization over mu for both power modes.

    Every solve starts cold: calibrate ``mu``, let the power price react,
    calibrate again.  Each iterate solves the power side of the dual
    exactly, warm-started from the last price, then is evaluated, scored
    and tested, and ``mu`` takes a projected subgradient step scaled by
    the larger of itself and the (median) power price.  An unconverged
    exit says why in its message.
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

    lam = _solve_lambda(prep, np.zeros(prep.k1), eps)
    mu = _initial_mu(prep, float(np.median(lam)), eps)
    lam = _solve_lambda(prep, mu, eps, lam)
    mu = _initial_mu(prep, float(np.median(lam)), eps)

    trace = []
    best = None
    converged = infeasible = False
    message = _OUT_OF_ITERATIONS.format(opts.max_iterations)
    stall = 0
    stall_limit = 150
    for t in range(1, opts.max_iterations + 1):
        lam = _solve_lambda(prep, mu, eps, lam)
        st = _eval_point(prep, mu, lam)
        trace.append(st.dual_value)
        g = st.secrecy - targets  # subgradient of the reduced dual
        viol = np.maximum(targets * (1 - eps) - st.secrecy, 0.0)
        score = float(viol.max())
        converged = _converged_mu(g, st.secrecy, cfg, eps) and _power_side_ok(
            lam, st, cfg, eps
        )
        if converged or best is None or score < best[0] - 1e-15 or (
            score <= best[0] + 1e-15 and st.r_nu_total > best[4]
        ):
            # each search returns a fresh price, so lam needs no copy
            best = (score, mu.copy(), lam, t, st.r_nu_total)
            stall = 0
        else:
            stall += 1
        if converged:
            message = ""
            break

        over_ceiling = (mu > opts.multiplier_ceiling) & (viol > 0)
        if over_ceiling.any():
            k_bad = int(np.flatnonzero(over_ceiling)[0])
            infeasible = True
            message = (
                f"multiplier for SU {k_bad} exceeded the ceiling with its "
                f"secrecy constraint still violated"
            )
            break

        if stall >= stall_limit:
            # finite-ensemble granularity: the achievable secrecy values
            # jump across the tolerance window, no point grinding on
            message = (
                f"stalled: the secrecy violation did not improve in "
                f"{stall_limit} iterations"
            )
            break

        step = _STEP_SCALE / math.sqrt(t)
        scale = np.maximum(mu, float(np.median(lam)))
        mu = np.maximum(
            0.0, mu - step * scale * g / np.maximum(targets, 1.0)
        )

    # the loop evaluates at least one iterate, so best is always set
    _, mu_best, lam_best, iters, _ = best
    return (mu_best, lam_best, iters, trace, converged, infeasible, message), ""


def _primal(prep, mu, lam, eps):
    """The auction's ``(owner, p_win)`` at (mu, lam); peak mode trims and refills it."""
    final = _eval_point(prep, mu, lam)
    owner, p_win = final.owner, final.p_win
    if prep.config.mode == "peak":
        _trim_su_surplus(prep, owner, p_win, mu, lam, eps)
        residual = prep.config.power - p_win.sum(axis=1)
        _refill_nu_water(prep, owner, p_win, lam, residual, _LAMBDA_FLOOR)
    return owner, p_win


def _finish(prep, ensemble, opts, mu, lam, iters, trace, converged, infeasible,
            message):
    cfg = prep.config
    eps = opts.epsilon
    owner, p_win = _primal(prep, mu, lam, eps)
    res = _result(
        prep, ensemble, mu, lam, owner, p_win, iterations=iters,
        converged=converged, infeasible=infeasible,
        dual_value=float(np.min(trace)) if trace else np.nan,
        dual_trace=trace, message=message,
    )
    if cfg.mode == "peak" and not converged and not infeasible:
        # granularity can block the dual loop's tolerance test while the
        # recovered primal still meets every constraint; judge the output
        r_su = res.report.r_su
        sec_ok = _converged_mu(r_su - cfg.secrecy_targets, r_su, cfg, eps)
        if sec_ok and res.report.avg_power <= cfg.power * (1 + eps):
            res.converged, res.message = True, ""
    return res


def _infeasible_result(prep, ensemble, opts, message) -> SolveResult:
    """Diagnostic result: the no-secrecy allocation plus the failure note."""
    mu0 = np.zeros(prep.k1)
    lam = _solve_lambda(prep, mu0, opts.epsilon)
    st = _eval_point(prep, mu0, lam)
    return _result(
        prep, ensemble, mu0, lam, st.owner, st.p_win, iterations=0,
        converged=False, infeasible=True, dual_value=st.dual_value,
        dual_trace=[st.dual_value], message=message,
    )


def _result(prep, ensemble, mu, lam, owner, p_win, **fields) -> SolveResult:
    """An allocation packaged with its evaluated report and its prices."""
    lam_arr = np.asarray(lam, float)
    decisions = decisions_from_arrays(owner, p_win, ensemble, prep.config)
    return SolveResult(
        duals=DualState(mu=mu, lam=float(lam_arr) if lam_arr.ndim == 0 else None),
        report=evaluate(decisions, ensemble, prep.config),
        decisions=decisions,
        lambda_per_realization=lam_arr.copy() if lam_arr.ndim == 1 else None,
        **fields,
    )


def _solve(ensemble, config, opts) -> SolveResult:
    """The dual solve shared by both power modes."""
    opts = opts or SolverOptions()
    prep = _Prepared(ensemble, config)
    out, msg = _dual_outer_loop(prep, opts)
    if out is None:
        return _infeasible_result(prep, ensemble, opts, msg)
    return _finish(prep, ensemble, opts, *out)


def solve_average(
    ensemble: ChannelEnsemble,
    config: ProblemConfig,
    opts: SolverOptions | None = None,
) -> SolveResult:
    """Optimal policy under the long-term average power constraint."""
    if config.mode != "average":
        raise ValueError("config.mode must be 'average'")
    return _solve(ensemble, config, opts)


def solve_peak(
    ensemble: ChannelEnsemble,
    config: ProblemConfig,
    opts: SolverOptions | None = None,
) -> SolveResult:
    """Optimal policy under the per-realization (peak) power constraint."""
    if config.mode != "peak":
        raise ValueError("config.mode must be 'peak'")
    return _solve(ensemble, config, opts)


def apply_policy(ensemble: ChannelEnsemble, duals: DualState, config: ProblemConfig,
                 opts: SolverOptions | None = None):
    """Allocate every frame of ``ensemble`` at fixed, e.g. learned, prices.

    Average mode runs the auction at ``(duals.mu, duals.lam)``, which
    needs ``duals.lam > 0``.  Peak mode resolves each frame's price at
    ``duals.mu`` to within ``opts.epsilon`` of the budget.  Either way the
    allocation is recovered as a solve recovers its own.  Returns
    ``(allocation, lam)``, with ``lam`` a scalar or the (T,) frame prices.
    """
    opts = opts or SolverOptions()
    if duals.mu.size != config.n_secure:
        raise ValueError("duals.mu must have one entry per SU")
    prep = _Prepared(ensemble, config)
    if config.mode == "peak":
        lam = _solve_lambda(prep, duals.mu, opts.epsilon)
    elif duals.lam is None or duals.lam <= 0:
        raise ValueError("average-mode allocation needs duals.lam > 0")
    else:
        lam = duals.lam
    owner, p_win = _primal(prep, duals.mu, lam, opts.epsilon)
    return decisions_from_arrays(owner, p_win, ensemble, config), lam
