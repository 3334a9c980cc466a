"""Dual-decomposition solver for the secrecy-constrained allocation problem.

The coupled problem (maximize weighted NU rate subject to per-SU average
secrecy targets and a total power budget) is priced with multipliers
``mu`` (secrecy) and ``lam`` (power) and split into one auction per
subcarrier, won by the user with the largest priced payoff.  ``lam`` is
one scalar under the average power constraint and one price per frame
under the peak constraint.  Each probe prices the auction once and only
what its caller reads: the ``lam`` search the spend (of the open frames
in peak mode), the ``mu`` calibration the secrecy of the open SUs (on
their columns alone), the outer loop the secrecy, NU rate and dual
value, and the primal recovery the allocation.  An SU at ``mu_k = 0``
never wins a column, so no probe prices its columns.

The searches also price only contested columns.  An SU competes for a
column only where it holds the largest CNR and beats the runner-up by
``lam / mu_k`` (the paper's candidate condition); its payoff there stays
below ``mu_k * ln(nu1/nu2)`` at any finite power, and the NU payoff
``h_NU`` does not fall as ``lam`` falls.  So after its bracket a search
prices ``_Prepared.contested``, a view without the columns where
``mu_k * ln(nu1/nu2) <= h_NU`` at the bracket's top, and gets the whole
auction's answer bit for bit (safe screening, El Ghaoui, Viallon &
Rabbani, Pacific J. Optim. 2012, on the dual auction of Yu & Lui, IEEE
Trans. Commun. 2006).  The price at ``mu = 0`` does not depend on the
targets, so it is solved once per ensemble and memoized on it.

Every solve starts cold, from a calibrated ``mu``, and the dual is then
minimized over ``mu`` in one loop: ``lam`` is eliminated at every
iterate by bisection on the spent power, which is non-increasing in
``lam``, and ``mu`` takes a projected subgradient step.  Both power
modes run the same loop and the same ``lam`` search, ``_price``; only
its spend probe differs, the mean spend at a scalar price or the spend
of the open frames.  The ``lam`` search and the ITP ``mu`` calibration
call the one vectorized primitive, ``_search.bracket`` and
``_search.bisect``.  The peak trim lowers each over-target SU's one
secrecy price with ``_search.search_threshold``, on CNRs divided by
each frame's price, and the peak refill pours the exact
``_search.water_level``, the two kernels the two-phase allocator uses.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._search import (
    _probe_open, bisect, bracket, search_threshold, threshold_stats, water_level,
)
from .allocation import UNASSIGNED, SolveResult, decisions_from_arrays
from .channel import (ChannelEnsemble, SecrecyInfeasibleError, check_dimensions,
                      check_reachable, secrecy_limit)
from .config import ProblemConfig, SolverOptions
from .evaluate import solve_result, unmet
from .rates import DualState, _h_su_core, _NuCandidates, _su_terms

_STEP_SCALE = 0.5      # 'a' in the a/sqrt(t) subgradient step on mu
_LAMBDA_FLOOR = 1e-12  # the smallest power price a search returns
_MAX_ITERATIONS = 5000  # outer-loop iterates before an unconverged stop
_MU_CEILING = 1e6      # a still-violated SU whose mu passes this is infeasible
# the relative width at which a frame's price stops short of its budget:
# the exact refill pours what the frame's bracket leaves unspent
_LAMBDA_RTOL = 1e-6


class _Prepared:
    """Per-(ensemble, config) caches for the vectorized dual evaluation.

    The auction is pruned here, once.  An SU can be paid only where it
    holds the column maximum, so the SU side keeps just those columns:
    ``su_idx`` (flat t*N + n index), ``su_t``, ``su_k`` (the SU), and in
    the rows of ``su_cols`` their top two CNRs and the price-free terms of
    the SU closed form.  On the NU side only the strongest NU of each
    weight class can win, so ``nu`` keeps one candidate per class and
    column; its (T, G, N) arrays are also exposed as ``ln_wa`` and
    ``inv_alpha_nu``, the names of the full per-NU caches they replace.
    ``contested`` narrows the SU side further, to a view for a search's
    later probes.
    """

    def __init__(self, ensemble: ChannelEnsemble, config: ProblemConfig):
        check_dimensions(ensemble, config)
        self.config = config
        alpha = ensemble.alpha
        self.t_count, _, self.n = alpha.shape
        self.k1 = config.n_secure
        self.nu1, self.nu2, self.kmax = ensemble.order_stats
        self.su_idx, su_k, su_nu1, su_nu2 = ensemble.su_columns(self.k1)
        # an index array of the platform's width gathers without a cast
        self.su_k = su_k.astype(np.intp)
        self.su_t = self.su_idx // self.n
        self.su_cols = np.stack([su_nu1, su_nu2, *_su_terms(su_nu1, su_nu2)])
        # an SU's payoff on a column stays below mu_k * ln(nu1/nu2)
        self.su_ln_ratio = np.log(su_nu1 / su_nu2)
        # per-SU ensemble-average secrecy at unbounded power (upper limit)
        self.su_caps = secrecy_limit(su_nu1, su_nu2, self.su_k, self.k1, self.t_count)
        # su_idx ascends, so frame t's SU-max columns are su_ptr[t]:su_ptr[t+1]
        self.su_ptr = np.searchsorted(self.su_t, np.arange(self.t_count + 1))
        self.nu = _NuCandidates(alpha[:, self.k1:, :], config.weights)
        self.ln_wa = self.nu.ln_wa
        self.inv_alpha_nu = self.nu.inv_alpha
        self.price_memo = ensemble.price_memo
        self._su_nu_paid = None   # (scalar price, NU payoff on the su_* columns)

    # the (T, N) SU-max column mask: only the tracer reads it, so built on demand
    is_su_col = cached_property(lambda self: self.kmax < self.k1)

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

    def su_nu_payoff(self, lam):
        """The NU payoff on the SU-max columns at ``lam``.

        ``lam`` is a scalar, whose payoff is kept for the next call at the
        same price, or one price per frame.  The NU auction is priced on
        every column and read at ``su_idx``.
        """
        if np.ndim(lam):
            lam_t = np.asarray(lam, float)[:, None, None]
            return self.nu.auction(np.log(lam_t), lam_t)[0].ravel()[self.su_idx]
        lam = float(lam)
        if self._su_nu_paid is None or self._su_nu_paid[0] != lam:
            h = self.nu.auction(math.log(lam), lam)[0].ravel()[self.su_idx]
            self._su_nu_paid = lam, h
        return self._su_nu_paid[1]

    def contested(self, mu, lam) -> _Prepared:
        """A view keeping the SU-max columns an SU can win at prices <= ``lam``.

        A column with ``mu_k * ln(nu1/nu2) <= h_NU(lam)`` goes to the NUs
        at every power price ``lam' <= lam`` and secrecy price
        ``mu'_k <= mu_k`` (see the module docstring), so each auction
        priced on the view at such prices has the winners, ``p_win`` and
        secrecy of the whole ``prep``, bit for bit.  ``lam`` is a scalar
        or one price per frame; a margin of 1e-9 relative and 1e-12
        absolute absorbs rounding.  The view shares every other array and
        is built without ``__init__``.
        """
        h_nu = self.su_nu_payoff(lam)
        bound = np.asarray(mu, float)[self.su_k] * self.su_ln_ratio
        # gathering by index beats masking on a scattered selection
        at = np.flatnonzero(bound * (1 + 1e-9) + 1e-12 > h_nu)
        view = object.__new__(_Prepared)
        view.__dict__.update(self.__dict__)
        view.su_idx, view.su_k, view.su_t, view.su_ln_ratio = (
            a.take(at) for a in (self.su_idx, self.su_k, self.su_t, self.su_ln_ratio))
        view.su_cols = self.su_cols.take(at, axis=1)
        view.su_ptr = np.searchsorted(view.su_t, np.arange(self.t_count + 1))
        if self._su_nu_paid is not None:
            view._su_nu_paid = self._su_nu_paid[0], self._su_nu_paid[1].take(at)
        return view


class _Auction:
    """The per-subcarrier auction at dual prices (mu, lam), priced once.

    ``lam`` is a scalar (average mode) or a length-T vector (peak mode).
    An SU at ``mu_k = 0`` earns nothing and never wins a column, so only
    the SU-max columns of SUs with ``mu_k > 0`` get the SU closed form.
    Construction prices the NU candidates on every column and those SU
    columns, and sets ``p_win``, ``power_t`` and ``power_mean``; the SU
    results are scattered into (T, N) arrays before any per-frame sum, so
    all is bit-identical to pricing every user everywhere.  The
    reductions ``secrecy``, ``r_nu_total``, ``dual_value`` and ``owner``
    are computed on first read.

    Two narrow probes price less.  ``frames`` (ascending, one price in
    ``lam`` each) prices just those frames' ``power_t``.  ``sus``
    (ascending SU indices, one scalar price) prices just those SUs'
    columns against ``su_nu_payoff``, which it shares with every probe at
    the same price, and reads ``secrecy[sus]`` alone.
    Reading anything a narrow probe did not price raises ValueError.
    """

    def __init__(self, prep: _Prepared, mu, lam, frames=None, sus=None):
        # copies: a reduction read later must not see the caller's updates
        mu, lam_arr = np.array(mu, float), np.array(lam, float)
        self.prep, self.frames, self.sus, self._mu, self._lam = (
            prep, frames, sus, mu, lam_arr)
        bids = mu > 0
        if sus is not None:
            if frames is not None:
                raise ValueError("an SU subset prices every frame")
            if lam_arr.ndim:
                raise ValueError("an SU subset needs one scalar price")
            asked = np.zeros(prep.k1, bool)
            asked[sus] = True
            bids &= asked
        # the priced SU-max columns: their positions in the su_* arrays, the
        # row of their price in lam and their flat index into the priced rows
        rows, keep = slice(None), slice(None)
        su_at, su_row, su_idx = slice(None), prep.su_t, prep.su_idx
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
                su_at, su_row, su_idx = prep.su_in_frames(frames)
        if not bids.all():
            # drop the columns of the SUs that bid nothing, keeping the order
            sel = np.flatnonzero(bids[prep.su_k[su_at]])
            su_at = np.arange(prep.su_k.size)[su_at][sel]
            su_row, su_idx = su_row[sel], su_idx[sel]
        if lam_arr.ndim == 1:
            lam_n = lam_arr[:, None]
            ln_lam_n = np.log(lam_arr)[:, None]
            lam_g, ln_lam_g = lam_n[:, :, None], ln_lam_n[:, :, None]
            lam_su = lam_arr[su_row]
        else:
            lam_n = lam_g = lam_su = float(lam_arr)
            ln_lam_n = ln_lam_g = math.log(lam_n)

        su_k = prep.su_k[su_at]
        cols = prep.su_cols[:, su_at] if isinstance(su_at, slice) \
            else prep.su_cols.take(su_at, axis=1)
        h_su, p_su, rs = _h_su_core(cols[0], cols[1], mu[su_k], lam_su, cols[2:])
        if sus is not None:
            # the NU payoff on the priced columns alone
            h_nu_su = prep.su_nu_payoff(lam_n)[su_at]
        else:
            nu = prep.nu
            h_nu_best, g = nu.auction(ln_lam_g, lam_g, rows=rows)
            h_nu_su = h_nu_best.ravel()[su_idx]
        su_wins = h_su > h_nu_su
        self._su_k, self._rs, self._su_wins = su_k, rs, su_wins
        if sus is not None:
            return

        p_nu_best = np.maximum(
            nu.weight(g) / lam_n - nu.take(nu.inv_alpha, g, rows=rows), 0.0
        )
        su_won = su_idx[su_wins]
        # the scatter targets are fresh C-ordered arrays, so ravel() is a view
        nu_pos = h_nu_best > 0.0
        p_win = np.where(nu_pos, p_nu_best, 0.0)
        p_win.ravel()[su_won] = p_su[su_wins]
        power_t = p_win.sum(axis=1)[keep]
        self._spend = p_win, power_t, float(power_t.mean())
        self._ln_lam_n, self._h_nu_best, self._g, self._nu_pos = (
            ln_lam_n, h_nu_best, g, nu_pos)
        self._h_su, self._h_nu_su, self._su_idx, self._su_won = (
            h_su, h_nu_su, su_idx, su_won)

    def _spent(self):
        """``(p_win, power_t, power_mean)``; an SU subset has no spend."""
        if self.sus is not None:
            raise ValueError("an SU subset prices its secrecy only")
        return self._spend

    @property
    def p_win(self) -> np.ndarray:
        return self._spent()[0]

    @property
    def power_t(self) -> np.ndarray:
        return self._spent()[1]

    @property
    def power_mean(self) -> float:
        return self._spent()[2]

    def _whole(self) -> _Prepared:
        """``prep`` for a reduction; a narrow probe has none."""
        if self.frames is not None:
            raise ValueError("a frame subset prices the per-frame spend only")
        self._spent()
        return self.prep

    @cached_property
    def secrecy(self) -> np.ndarray:
        prep = self.prep if self.sus is not None else self._whole()
        wins = self._su_wins
        secrecy = np.bincount(self._su_k[wins], weights=self._rs[wins],
                              minlength=prep.k1) / prep.t_count
        return secrecy if self.sus is None else secrecy[self.sus]

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
        h_col.ravel()[self._su_idx] = np.maximum(self._h_su, self._h_nu_su)
        return float(h_col.sum(axis=1).mean() + (self._lam * prep.config.power).mean()
                     - self._mu @ prep.config.secrecy_targets)

    @cached_property
    def owner(self) -> np.ndarray:
        nu_wins, j_best = self._nu_winners
        owner = np.where(nu_wins, self.prep.k1 + j_best, UNASSIGNED).astype(np.int64)
        owner.ravel()[self._su_won] = self._su_k[self._su_wins]
        return owner


def _eval_point(prep: _Prepared, mu, lam, frames=None, sus=None) -> _Auction:
    """The auction at (mu, lam); every stage prices through this rebindable name."""
    return _Auction(prep, mu, lam, frames, sus)


def dual_point(ensemble: ChannelEnsemble, config: ProblemConfig, mu, lam):
    """Dual value and subgradient at (mu, lam).

    ``lam`` is one scalar (average constraint) or one price per frame
    (peak constraint).  Returns ``(g, dmu, dlam)`` where ``dmu_k`` is the
    mean secrecy surplus of SU k and ``dlam`` the mean unspent power.
    """
    st = _eval_point(_Prepared(ensemble, config), mu, lam)
    dmu, dlam = st.secrecy - config.secrecy_targets, config.power - st.power_mean
    return st.dual_value, dmu, dlam


def _price(prep, mu, spend, target, tol_power, warm, shape):
    """Power prices of the given ``shape`` at which each spend meets ``target``.

    ``spend(view, lam, idx)`` is the spend at ``mu`` of the elements
    ``idx`` (every one when ``None``) at their prices ``lam``, priced on
    ``view``.  It is non-increasing in each element's own price (each
    candidate's power level falls and auction switches always move to the
    lower-power bidder), so one geometric bisection serves all elements.
    They are bracketed upward from ``2 * warm``, or from 1e-3 on a cold
    start (never below ``4 * _LAMBDA_FLOOR``), on ``prep``; every later
    probe prices at or below the bracket's top, so it prices the view
    ``prep.contested(mu, hi)``.  An open element whose bracket starts
    below ``warm / 2`` has its lower end lifted there if that still
    overspends.  Only an element whose lower end is still the floor is
    then probed at ``_LAMBDA_FLOOR``, and keeps it if it underspends
    there.  Each approaches its budget from the under-spending end, so no
    returned price overspends, and stops within ``tol_power`` of the
    target or once its bracket is ``_LAMBDA_RTOL`` wide: a budget inside
    an assignment discontinuity is never met, and the peak refill pours
    what such a frame leaves.
    """
    view = prep

    def probe(lam, idx):
        unspent = target - spend(view, lam, idx)
        return unspent < 0, (0 <= unspent) & (unspent <= tol_power), unspent

    floor = np.full(shape, _LAMBDA_FLOOR)
    start = np.maximum(4.0 * _LAMBDA_FLOOR, 1e-3 if warm is None else 2.0 * warm)
    lo, hi, _, unspent = bracket(probe, floor, np.broadcast_to(start, shape), 4.0,
                                 f_lo=np.nan)
    view = prep.contested(mu, hi)
    done = unspent <= tol_power
    if warm is not None:
        half = np.maximum(warm / 2.0, _LAMBDA_FLOOR)
        lift = (half > lo) & ~done
        if lift.any():
            over = _probe_open(probe, half, ~lift)[0]
            lo = np.where(lift & over, half, lo)
    # an element bracketed above the floor overspends there
    unpriced = lo == floor
    at_floor = np.zeros(shape, bool)
    if unpriced.any():
        at_floor = unpriced & ~np.asarray(_probe_open(probe, floor, ~unpriced)[0])
    _, lam, _ = bisect(probe, lo, hi, geometric=True, rtol=_LAMBDA_RTOL,
                       done=done | at_floor)
    return np.where(at_floor, _LAMBDA_FLOOR, lam)


def _solve_lambda_avg(prep, mu, tol_power, warm=None):
    """The scalar power price meeting the mean budget, or the floor."""
    def spend(view, lam, _idx):
        return _eval_point(view, mu, float(lam)).power_mean

    return float(_price(prep, mu, spend, prep.config.power, tol_power, warm, ()))


def _solve_lambda_peak(prep, mu, tol_power, warm=None):
    """One power price per frame meeting that frame's budget, or the floor.

    The bracket prices every frame; the probes after it only the open ones.
    """
    def spend(view, lam, frames):
        return _eval_point(view, mu, lam, frames=frames).power_t

    return _price(prep, mu, spend, prep.config.power, tol_power, warm, prep.t_count)


def _trim_su_surplus(prep, owner, p_win, lam_t):
    """Primal recovery: shave secrecy overshoot back to the targets.

    Assignment granularity can leave an SU above its average target (the
    marginal column is won whole or not at all).  With ownership fixed,
    each SU above ``C_k (1 + 1e-6)`` gets one lower secrecy price, which
    frees power for the NU refill.  As p(a, b; mu, lam) = p(a/lam, b/lam;
    mu, 1) / lam at the same rate, the auction's power is the gap-threshold
    power at x = 1/mu_k on the CNRs divided by the frame's price, so
    ``search_threshold`` raises one x per SU, on its powered columns, to
    within 1e-6 of the target: no column gains power, and the SU's columns
    left without any are released.
    """
    k1 = prep.k1
    targets = prep.config.secrecy_targets
    t, n = np.nonzero((owner >= 0) & (owner < k1))
    su, p = owner[t, n], p_win[t, n]
    a, b = prep.nu1[t, n], prep.nu2[t, n]
    rs = np.log1p(p * a) - np.log1p(p * b)
    s_mean = np.bincount(su, weights=rs, minlength=k1) / prep.t_count
    trim = (targets > 0) & (s_mean > targets * (1 + 1e-6))
    if not trim.any():
        return
    mine = trim[su]
    on = np.flatnonzero(mine & (p > 0))
    lam = lam_t[t[on]]
    a, b = a[on] / lam, b[on] / lam
    x, _ = search_threshold(a, b, su[on], np.where(trim, targets, 0.0), 1e-6,
                            prep.t_count)
    _, _, active, p_on = threshold_stats(a, b, su[on], x, prep.t_count)
    p[mine] = 0.0
    p[on[active]] = p_on / lam[active]
    p_win[t, n] = p
    dead = mine & (p <= 0)
    owner[t[dead], n[dead]] = UNASSIGNED


def _refill_nu_water(prep, owner, p_win, lam_t):
    """Primal recovery: spend leftover per-frame budget on NU water levels.

    The auction at the resolved per-frame price can undershoot the budget
    when the budget falls inside an ownership-switch discontinuity, or by
    what the price search's width leaves.  The leftover is poured onto the
    non-SU-owned columns of those frames by raising the
    (weight-proportional) water level, keeping ownership and all SU
    powers fixed.  Each column's bidder is the NU auction winner at the
    frame's price; where no NU is profitable that is the strongest NU
    candidate, the first to open as the water level rises.  Frames whose
    price sits at the floor legitimately underspend and are left alone.
    The level is exact (``_search.water_level``), not searched; one at
    which a frame's total, summed over its columns as every reader sums
    it, rounds over the budget steps down one ulp at a time, so a frame
    never exceeds its cap.
    """
    cfg = prep.config
    k1 = prep.k1
    residual = cfg.power - p_win.sum(axis=1)
    needs = (residual > 1e-9 * max(cfg.power, 1.0)) & (lam_t > _LAMBDA_FLOOR * 1.001)
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
    inv_a = nu.take(nu.inv_alpha, g, rows=idx)
    w = np.broadcast_to(nu.weight(g), inv_a.shape)
    su_spend = np.where(candidate, 0.0, p_win[idx]).sum(axis=1)
    budget = cfg.power - su_spend

    p_kept = p_win[idx]

    def refilled(theta):
        """The frames' powers with their NU columns poured to ``theta``."""
        return np.where(candidate, np.maximum(theta[:, None] * w - inv_a, 0.0), p_kept)

    theta = water_level(candidate, w, inv_a, budget)
    # at theta = 0 a frame spends less than before, so the steps end
    over = refilled(theta).sum(axis=1) > cfg.power
    while over.any():
        theta[over] = np.nextafter(theta[over], 0.0)
        over = refilled(theta).sum(axis=1) > cfg.power
    p_new = refilled(theta)
    j_best = nu.take(nu.index, g, rows=idx)
    owner[idx] = np.where(candidate & (p_new > 0), k1 + j_best, owner[idx])
    p_win[idx] = p_new


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
    The NU payoff at ``lam0`` is priced once; after the bracket every
    probe bids at or below its top, so it prices the view
    ``prep.contested`` keeps there for the SUs still open.
    """
    targets = prep.config.secrecy_targets
    want = targets > 0
    if not want.any():
        return np.zeros(prep.k1)
    below, above = eps * targets / 4.0, eps * np.maximum(targets, 1.0) / 4.0
    mu = np.zeros(prep.k1)   # every SU's last probe
    view = prep

    def probe(x, idx):
        # each probe prices only the SUs it moves
        idx = np.arange(prep.k1) if idx is None else idx
        mu[idx] = x
        gap = _eval_point(view, mu, lam0, sus=idx).secrecy - targets[idx]
        return gap < 0, (-below[idx] <= gap) & (gap <= above[idx]), gap

    # no secrecy at mu = 0: the residual there is -C_k without an auction
    lo, hi, f_lo, f_hi = bracket(probe, np.zeros(prep.k1), np.ones(prep.k1), 4.0,
                                 limit=4.0**40, f_lo=-targets)
    done = ~want | (f_hi <= above)
    view = prep.contested(np.where(done, 0.0, hi), lam0)
    bisect(probe, lo, hi, f_lo=f_lo, f_hi=f_hi, max_steps=rounds, done=done)
    return np.where(want, mu, 0.0)


def _solve_lambda(prep, mu, eps, warm=None):
    """The power price at ``mu``: one scalar, or one per frame in peak mode."""
    search = _solve_lambda_peak if prep.config.mode == "peak" else _solve_lambda_avg
    return search(prep, mu, eps * prep.config.power / 4.0, warm)


def _no_secrecy_price(prep, eps):
    """The power price at ``mu = 0``, solved once per ensemble.

    No SU bids at ``mu = 0``, so the price depends on the ensemble, K1,
    the NU weights, the budget, the mode and ``eps``, not on the targets;
    it is memoized on the ensemble under those keys.
    """
    cfg = prep.config
    key = (cfg.mode, prep.k1, cfg.weights.tobytes(), cfg.power, eps)
    lam = prep.price_memo.get(key)
    if lam is None:
        lam = _solve_lambda(prep, np.zeros(prep.k1), eps)
        if isinstance(lam, np.ndarray):
            lam.flags.writeable = False   # shared by every solve on the ensemble
        prep.price_memo[key] = lam
    return lam


_OUT_OF_ITERATIONS = "reached max_iterations={} before the tolerance test passed"


def _dual_outer_loop(prep, eps):
    """Outer minimization over mu for both power modes.

    Every solve starts cold: calibrate ``mu``, let the power price react,
    calibrate again.  Each iterate solves the power side of the dual
    exactly, warm-started from the last price, then is evaluated, scored
    and tested, and ``mu`` takes a projected subgradient step scaled by
    the larger of itself and the (median) power price.  It stops once
    ``unmet`` passes the auction and, in average mode, the mean spend is
    within ``eps * P`` of the budget or the price is at the floor; an
    earlier exit says why in its message.  Returns ``(mu, lam, iterations,
    trace, message)`` at the best iterate, or ``mu = None`` on an
    infeasible exit: after 0 iterations when ``check_reachable`` rejects a
    target, or when a violated SU's multiplier passes ``_MU_CEILING``.
    """
    cfg = prep.config
    targets = cfg.secrecy_targets
    try:
        check_reachable(targets, prep.su_caps)
    except SecrecyInfeasibleError as err:
        return None, None, 0, [], str(err)

    lam = _no_secrecy_price(prep, eps)
    mu = _initial_mu(prep, float(np.median(lam)), eps)
    lam = _solve_lambda(prep, mu, eps, lam)
    mu = _initial_mu(prep, float(np.median(lam)), eps)

    trace = []
    best = None
    message = _OUT_OF_ITERATIONS.format(_MAX_ITERATIONS)
    stall = 0
    stall_limit = 150
    for t in range(1, _MAX_ITERATIONS + 1):
        lam = _solve_lambda(prep, mu, eps, lam)
        st = _eval_point(prep, mu, lam)
        trace.append(st.dual_value)
        g = st.secrecy - targets  # subgradient of the reduced dual
        viol = np.maximum(targets * (1 - eps) - st.secrecy, 0.0)
        score = float(viol.max())
        # bisection leaves every peak frame at the budget or at the floor
        converged = unmet(st.secrecy, st.power_t, cfg, eps) == "" and (
            cfg.mode == "peak" or lam <= 1.001 * _LAMBDA_FLOOR
            or abs(cfg.power - st.power_mean) <= eps * cfg.power)
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

        over_ceiling = (mu > _MU_CEILING) & (viol > 0)
        if over_ceiling.any():
            k_bad = int(np.flatnonzero(over_ceiling)[0])
            return None, None, t, trace, (
                f"multiplier for SU {k_bad} exceeded the ceiling with its "
                "secrecy constraint still violated")

        if stall >= stall_limit:
            # finite-ensemble granularity: the achievable secrecy values
            # jump across the tolerance window, no point grinding on
            message = ("stalled: the secrecy violation did not improve in "
                       f"{stall_limit} iterations")
            break

        step = _STEP_SCALE / math.sqrt(t)
        scale = np.maximum(mu, float(np.median(lam)))
        mu = np.maximum(
            0.0, mu - step * scale * g / np.maximum(targets, 1.0)
        )

    # the loop evaluates at least one iterate, so best is always set
    _, mu_best, lam_best, iters, _ = best
    return mu_best, lam_best, iters, trace, message


def _primal(prep, mu, lam):
    """The auction's ``(owner, p_win)`` at (mu, lam); peak mode trims and refills it."""
    final = _eval_point(prep, mu, lam)
    owner, p_win = final.owner, final.p_win
    del final   # the recovery needs none of the auction's other arrays
    if prep.config.mode == "peak":
        _trim_su_surplus(prep, owner, p_win, lam)
        _refill_nu_water(prep, owner, p_win, lam)
    return owner, p_win


def _finish(prep, ensemble, eps, mu, lam, iters, trace, message):
    """The recovered primal at the loop's best prices, judged by ``unmet``."""
    owner, p_win = _primal(prep, mu, lam)
    return solve_result(
        owner, p_win, ensemble, prep.config, eps, mu, lam, infeasible=False,
        message=message, iterations=iters, dual_value=float(np.min(trace)),
        dual_trace=trace,
    )


def _infeasible_result(prep, ensemble, eps, message, iters) -> SolveResult:
    """Every infeasible exit's result, after ``iters`` outer iterations: the
    auction at ``mu = 0`` and the no-secrecy price, which gives no SU a
    column and spends within the budget, with the failure note."""
    mu0 = np.zeros(prep.k1)
    lam = _no_secrecy_price(prep, eps)
    st = _eval_point(prep, mu0, lam)
    return solve_result(
        st.owner, st.p_win, ensemble, prep.config, eps, mu0, lam, infeasible=True,
        message=message, iterations=iters, dual_value=st.dual_value,
        dual_trace=[st.dual_value],
    )


def _solve(ensemble, config, opts) -> SolveResult:
    """The dual solve shared by both power modes."""
    eps = (opts or SolverOptions()).epsilon
    prep = _Prepared(ensemble, config)
    mu, lam, iters, trace, message = _dual_outer_loop(prep, eps)
    if mu is None:
        return _infeasible_result(prep, ensemble, eps, message, iters)
    return _finish(prep, ensemble, eps, mu, lam, iters, trace, message)


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
    owner, p_win = _primal(prep, duals.mu, lam)
    return decisions_from_arrays(owner, p_win, ensemble, config), lam
