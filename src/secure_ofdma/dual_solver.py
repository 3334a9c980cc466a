"""Dual-decomposition solver for the secrecy-constrained allocation problem.

The coupled problem (maximize weighted NU rate subject to per-SU average
secrecy targets and a total power budget) is priced with multipliers
``mu`` (secrecy) and ``lam`` (power) and split into one auction per
subcarrier, won by the user with the largest priced payoff.  ``lam`` is
one scalar under the average power constraint and one price per frame
under the peak constraint.  Each probe prices one auction on whatever
view of the prepared ensemble it is given, on every column of it, and
only what its caller reads: the ``lam`` search the spend, the ``mu``
calibration the secrecy, the outer loop the secrecy, NU rate and dual
value; the primal is read off the loop's best auction, not priced
again.  A ``_Prepared`` view is the one narrowing: a probe of the open
frames prices a ``rows`` view, a whole auction on fewer frames, and a
probe of the open SUs sets the other SUs' ``mu`` to 0, since an SU at
``mu_k = 0`` never wins a column and every auction prices a view
without such SUs' columns.  The NUs follow the water-filling rule: an
NU spends its level ``(w/lam - 1/alpha)+`` and owns the columns that
level powers outside the SU wins, and the spend is the row sums of
those powers.  The NU payoff is priced only where an SU competes, on
the SU-max columns, from price-free terms gathered once; with one NU
weight class only an outer iterate's dual value prices the full-width
NU auction, and with several it also picks each column's class.

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
``_search.bisect``.  The peak recovery of the best auction lowers each
over-target SU's one secrecy price with ``_search.search_threshold``, on
CNRs divided by each frame's price, and pours the exact
``_search.water_level`` onto the NU classes that auction chose: the two
kernels the two-phase allocator uses.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._search import _probe_open, bisect, bracket, search_threshold, water_level
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
    ``su_idx`` (flat t*N + n index), ``su_t``, ``su_k`` (the SU), in the
    rows of ``su_cols`` their top two CNRs and the price-free terms of the
    SU closed form, and in ``su_nu`` the price-free terms of the NU
    candidates there, which price the NU payoff the SU must beat.  On the
    NU side only the strongest NU of each weight class can win, so ``nu``
    keeps one candidate per class and column, read from the ensemble's
    strongest-NU index at the rows ``nu_rows`` (every row here); its
    (T, G, N) arrays are also exposed as ``ln_wa`` and ``inv_alpha_nu``,
    which the benchmark tracer reads.  A view narrows what an auction
    prices, and is the only narrowing: ``contested`` keeps the SU-max
    columns an SU can still win, ``rows`` some frames, and ``_eval_point``
    drops the columns of the SUs at ``mu_k = 0``.  All three are built by
    ``_view``.  Only the whole prep is screened, so only it keeps
    ``su_ln_ratio``, the bound ``contested`` reads.
    """

    def __init__(self, ensemble: ChannelEnsemble, config: ProblemConfig):
        check_dimensions(ensemble, config)
        self.config = config
        self.t_count, _, self.n = ensemble.alpha.shape
        self.k1 = config.n_secure
        self.nu1, self.nu2, self.kmax = ensemble.order_stats
        self.su_idx, su_k, su_nu1, su_nu2 = ensemble.su_columns(self.k1)
        # an index array of the platform's width gathers without a cast
        self.su_k = su_k.astype(np.intp)
        self.su_t = self.su_idx // self.n   # ascending, as su_idx is
        self.su_cols = np.stack([su_nu1, su_nu2, *_su_terms(su_nu1, su_nu2)])
        # an SU's payoff on a column stays below mu_k * ln(nu1/nu2)
        self.su_ln_ratio = np.log(su_nu1 / su_nu2)
        # per-SU ensemble-average secrecy at unbounded power (upper limit)
        self.su_caps = secrecy_limit(su_nu1, su_nu2, self.su_k, self.k1, self.t_count)
        self.nu = _NuCandidates(ensemble, self.k1, config.weights)
        self.nu_rows = slice(None)
        self.su_nu = self.nu.columns(self.su_idx)
        self.ln_wa = self.nu.ln_wa
        self.inv_alpha_nu = self.nu.inv_alpha
        self.memo = ensemble.memo
        self._su_nu_paid = None   # (scalar price, NU payoff on the su_* columns)

    # the (T, N) SU-max column mask: only the tracer reads it, so built on demand
    is_su_col = cached_property(lambda self: self.kmax < self.k1)

    def column_prices(self, lam):
        """``(ln lam, lam)`` on the SU-max columns: two scalars, or each
        column's frame price and its log, each gathered once."""
        if not np.ndim(lam):
            return math.log(lam), float(lam)
        lam = np.asarray(lam, float)
        return np.log(lam).take(self.su_t), lam.take(self.su_t)

    def su_nu_payoff(self, ln_lam, lam):
        """The winning NU payoff on the SU-max columns at the prices from
        ``column_prices``, priced on those columns alone; the payoff at the
        last scalar price is kept and returned while the price holds."""
        scalar, paid = not np.ndim(lam), self._su_nu_paid
        if scalar and paid is not None and paid[0] == lam:
            return paid[1]
        payoff = self.nu.best_payoff(self.su_nu, ln_lam, lam)
        if scalar:
            self._su_nu_paid = lam, payoff
        return payoff

    def _view(self, at, frames=None, row=None) -> _Prepared:
        """A view keeping the SU-max columns at the ascending positions ``at``
        of the ``su_*`` arrays, built without ``__init__``; it shares every
        other array and gathers the NU payoff kept at a scalar price.
        Given the ascending ``frames`` that hold those columns and each
        one's ``row`` among them, it is a view of just those frames, counted
        from 0 (its ``nu1``, ``nu2``, ``kmax`` and ``su_caps`` stay whole)."""
        view = object.__new__(_Prepared)
        view.__dict__.update(self.__dict__)
        # only the whole prep is screened (``contested``): a view has no bound
        vars(view).pop("su_ln_ratio", None)
        view.su_idx, view.su_k = self.su_idx.take(at), self.su_k.take(at)
        view.su_cols = self.su_cols.take(at, axis=1)
        view.su_nu = self.su_nu.take(at, axis=2)
        paid = self._su_nu_paid
        if frames is None:
            view.su_t = self.su_t.take(at)
            view._su_nu_paid = paid if paid is None else (paid[0], paid[1].take(at))
        else:   # a frame view is priced per frame, so it keeps no scalar payoff
            view.t_count, view.nu_rows, view._su_nu_paid = frames.size, frames, None
            view.su_t, view.su_idx = row, row * self.n + view.su_idx % self.n
        return view

    def contested(self, mu, lam) -> _Prepared:
        """A view keeping the SU-max columns an SU can win at prices <= ``lam``.

        A column with ``mu_k * ln(nu1/nu2) <= h_NU(lam)`` goes to the NUs
        at every power price ``lam' <= lam`` and secrecy price
        ``mu'_k <= mu_k`` (see the module docstring), so each auction
        priced on the view at such prices has the winners, ``p_win`` and
        secrecy of the whole ``prep``, bit for bit.  ``lam`` is a scalar
        or one price per frame; a margin of 1e-9 relative and 1e-12
        absolute absorbs rounding.
        """
        h_nu = self.su_nu_payoff(*self.column_prices(lam))
        bound = np.asarray(mu, float)[self.su_k] * self.su_ln_ratio
        # gathering by index beats masking on a scattered selection
        return self._view(np.flatnonzero(bound * (1 + 1e-9) + 1e-12 > h_nu))

    def rows(self, frames) -> _Prepared:
        """A view of the ascending ``frames`` of a ``prep`` of every frame,
        whole or ``contested``, whose auction is the whole auction's rows
        ``frames``, bit for bit."""
        start = self.su_t.searchsorted(frames)
        count = self.su_t.searchsorted(frames, "right") - start
        row = np.repeat(np.arange(frames.size), count)
        at = np.arange(row.size) + np.repeat(start - (np.cumsum(count) - count), count)
        return self._view(at, frames, row)


class _Auction:
    """The per-subcarrier auction at dual prices (mu, lam) on every column
    of ``prep``, the prepared ensemble or a view of it.

    ``lam`` is a scalar (average mode) or one price per frame of ``prep``
    (peak mode).  Construction prices the SU closed form on the view's
    SU-max columns with the NU payoff it must beat there (from
    ``prep.su_nu``); all else is a reduction priced on first read.  The
    SU wins are kept as their ascending positions in the view's ``su_*``
    arrays, and every reduction gathers them with ``take``.  The
    NUs follow the water-filling rule: ``p_win`` is each column's NU
    water level ``(w/lam - 1/alpha)+`` (``_NuCandidates.water``) at the
    weight class ``nu_class`` with the SU wins written over it, an NU
    owns the columns outside the SU wins that its level powers
    (``p_win > 0``), and the spend ``power_t`` (and ``power_mean``) is
    the row sums of ``p_win``.  ``nu_class`` is ``None`` with one class
    and is read from the full-width NU auction with several, so with one
    class only ``dual_value`` prices that auction.  The SU results are
    scattered into (T, N) arrays before any per-frame sum, so all is
    bit-identical to pricing every user everywhere wherever a winning NU
    payoff and its power are both positive or both zero.  ``mu`` and
    ``lam`` are copies of the prices.
    """

    def __init__(self, prep: _Prepared, mu, lam):
        # copies: a reduction read later must not see the caller's updates
        mu, lam = np.array(mu, float), np.array(lam, float)
        self.prep, self.mu, self.lam = prep, mu, lam
        ln_lam, lam_su = prep.column_prices(lam)
        cols = prep.su_cols
        h_su, p_su, rs = _h_su_core(cols[0], cols[1], mu.take(prep.su_k), lam_su, cols[2:])
        h_nu_su = prep.su_nu_payoff(ln_lam, lam_su)
        self._rs, self._p_su, self._h_su, self._h_nu_su = rs, p_su, h_su, h_nu_su
        # an index, not a mask: a scattered selection gathers faster by take
        self._su_wins = np.flatnonzero(h_su > h_nu_su)

    def _prices(self, axes):
        """``(ln lam, lam)``, each frame's price broadcasting against its
        ``axes`` trailing axes: 1 for (T, N), 2 for the NU candidates."""
        if not self.lam.ndim:
            return math.log(self.lam), float(self.lam)
        lam = self.lam.reshape(-1, *(1,) * axes)
        return np.log(lam), lam

    @cached_property
    def _su_won(self):
        """The flat (t*N + n) index and the power of each column an SU wins."""
        wins = self._su_wins
        return self.prep.su_idx.take(wins), self._p_su.take(wins)

    @cached_property
    def _nu_bid(self):
        """The full-width NU auction ``(h, g)``, priced on first read."""
        return self.prep.nu.auction(*self._prices(2), self.prep.nu_rows)

    @cached_property
    def nu_class(self):
        """Each column's NU weight class, ``None`` with one class."""
        return None if self.prep.nu.weights.size == 1 else self._nu_bid[1]

    @cached_property
    def p_win(self) -> np.ndarray:
        prep = self.prep
        p_win = prep.nu.water(self._prices(1)[1], self.nu_class, prep.nu_rows)
        su_won, p_su_won = self._su_won
        # the levels are a fresh C-ordered array, so ravel() is a view
        p_win.ravel()[su_won] = p_su_won
        return p_win

    @cached_property
    def power_t(self) -> np.ndarray:
        return self.p_win.sum(axis=1)

    @property
    def power_mean(self) -> float:
        return float(self.power_t.mean())

    @cached_property
    def secrecy(self) -> np.ndarray:
        wins = self._su_wins
        return np.bincount(self.prep.su_k.take(wins), weights=self._rs.take(wins),
                           minlength=self.prep.k1) / self.prep.t_count

    @cached_property
    def owner(self) -> np.ndarray:
        prep, nu = self.prep, self.prep.nu
        j_best = nu.take(nu.index, self.nu_class, prep.nu_rows)
        owner = np.where(self.p_win > 0.0, prep.k1 + j_best, UNASSIGNED).astype(np.int64)
        owner.ravel()[self._su_won[0]] = prep.su_k.take(self._su_wins)
        return owner

    @cached_property
    def r_nu_total(self) -> float:
        prep, nu, owner = self.prep, self.prep.nu, self.owner.ravel()
        nu_wins = np.flatnonzero(owner >= prep.k1)
        ln_wa = nu.take(nu.ln_wa, self.nu_class, prep.nu_rows)
        rate = np.maximum(ln_wa - self._prices(1)[0], 0.0).ravel()
        nu_rate = np.bincount(owner.take(nu_wins) - prep.k1, weights=rate.take(nu_wins),
                              minlength=prep.config.n_normal) / prep.t_count
        return float(prep.config.weights @ nu_rate)

    @cached_property
    def dual_value(self) -> float:
        prep = self.prep
        h_col = self._nu_bid[0].copy()
        h_col.ravel()[prep.su_idx] = np.maximum(self._h_su, self._h_nu_su)
        return float(h_col.sum(axis=1).mean() + (self.lam * prep.config.power).mean()
                     - self.mu @ prep.config.secrecy_targets)

    @property
    def primal(self):
        """``(owner, p_win, mu, lam, nu_class)``: all that ``_recover`` and the
        judge read, so a caller can drop the auction's other arrays first."""
        return self.owner, self.p_win, self.mu, self.lam, self.nu_class


def _eval_point(prep: _Prepared, mu, lam, frames=None) -> _Auction:
    """The auction at (mu, lam), on the ascending ``frames`` alone (one price
    each in ``lam``) when given; every stage prices through this rebindable
    name.  An SU at ``mu_k = 0`` never wins a column, so the auction prices
    a view without the columns of such SUs."""
    view = prep if frames is None else prep.rows(frames)
    bids = np.asarray(mu) > 0
    if not bids.all():
        view = view._view(np.flatnonzero(bids.take(view.su_k)))
    return _Auction(view, mu, lam)


def dual_point(ensemble: ChannelEnsemble, config: ProblemConfig, mu, lam):
    """Dual value and subgradient at (mu, lam).

    ``mu`` holds K1 finite values >= 0 and ``lam`` one finite price > 0 or,
    in peak mode, one per frame; other prices raise ``ValueError``.
    Returns ``(g, dmu, dlam)`` where ``dmu_k`` is the mean secrecy surplus
    of SU k and ``dlam`` the mean unspent power.
    """
    mu, lam = np.asarray(mu, float), np.asarray(lam, float)
    if mu.shape != (config.n_secure,) or not np.all((mu >= 0) & (mu < np.inf)):
        raise ValueError(f"mu must hold {config.n_secure} finite values >= 0")
    frames = (ensemble.count,) if config.mode == "peak" else ()
    if lam.shape not in ((), frames) or not np.all((lam > 0) & (lam < np.inf)):
        raise ValueError("lam must be finite and > 0: one price, or one per peak frame")
    st = _eval_point(_Prepared(ensemble, config), mu, lam)
    dmu, dlam = st.secrecy - config.secrecy_targets, config.power - st.power_mean
    return st.dual_value, dmu, dlam


def _price(prep, mu, spend, target, tol_power, warm, shape):
    """Power prices of the given ``shape`` at which each spend meets ``target``.

    ``spend(view, lam, idx)`` is the spend at ``mu`` of the elements
    ``idx`` (every one when ``None``) at their prices ``lam``, priced on
    ``view`` or, for a few frames, its ``rows``.  It is non-increasing in
    each element's own price (each candidate's power level falls and
    auction switches always move to the lower-power bidder), so one
    geometric bisection serves all elements.
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

    The bracket prices every frame; the probes after it only the open ones,
    on a ``rows`` view.  Gathering most frames costs more than pricing them
    all, so a probe of more than half of them prices every frame, each
    other one at the last price it was probed at, and drops their spend.
    """
    prices = np.ones(prep.t_count)

    def spend(view, lam, frames):
        every = slice(None) if frames is None else frames
        prices[every] = lam
        if frames is not None and 2 * frames.size <= prep.t_count:
            return _eval_point(view, mu, lam, frames=frames).power_t
        return _eval_point(view, mu, prices).power_t[every]

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
    _, _, (_, _, active, p_on) = search_threshold(
        a, b, su[on], np.where(trim, targets, 0.0), 1e-6, prep.t_count)
    p[mine] = 0.0
    p[on[active]] = p_on / lam[active]
    p_win[t, n] = p
    dead = mine & (p <= 0)
    owner[t[dead], n[dead]] = UNASSIGNED


def _refill_nu_water(prep, owner, p_win, lam_t, g):
    """Primal recovery: spend leftover per-frame budget on NU water levels.

    The auction at the resolved per-frame price can undershoot the budget
    when the budget falls inside an ownership-switch discontinuity, or by
    what the price search's width leaves.  The leftover is poured onto the
    non-SU-owned columns of those frames by raising the
    (weight-proportional) water level, keeping ownership and all SU
    powers fixed.  Each column's bidder is the candidate of the (T, N)
    weight class ``g`` (``None`` with one class) that the auction at the
    frame's price chose; where no NU is profitable that is the strongest
    candidate, the first to open as the water level rises.  Frames whose
    price sits at the floor legitimately underspend and are left alone.
    The level is exact (``_search.water_level``), not searched; one at
    which a frame's total, summed over its columns as every reader sums
    it, rounds over the budget steps down one ulp at a time, so a frame
    never exceeds its cap.
    """
    cfg, k1 = prep.config, prep.k1
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
    g = None if g is None else g[idx]
    inv_a = nu.take(nu.inv_alpha, g, rows=idx)
    w = np.broadcast_to(nu.weight(g), inv_a.shape)
    p_kept = p_win[idx]
    budget = cfg.power - np.where(candidate, 0.0, p_kept).sum(axis=1)

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
    A probe of a few SUs sets the others' multipliers to 0, so their
    columns are not priced, and reads the secrecy of its own.  The NU
    payoff at ``lam0`` is priced once; after the bracket every probe bids
    at or below its top, so it prices the view ``prep.contested`` keeps
    there for the SUs still open.
    """
    targets = prep.config.secrecy_targets
    want = targets > 0
    if not want.any():
        return np.zeros(prep.k1)
    below, above = eps * targets / 4.0, eps * np.maximum(targets, 1.0) / 4.0
    mu = np.zeros(prep.k1)   # every SU's last probe
    view = prep

    def probe(x, idx):
        idx = slice(None) if idx is None else idx
        mu[idx] = x
        bid = np.zeros(prep.k1)   # the SUs this probe does not move bid nothing
        bid[idx] = x
        gap = _eval_point(view, bid, lam0).secrecy[idx] - targets[idx]
        return gap < 0, (-below[idx] <= gap) & (gap <= above[idx]), gap

    prep.su_nu_payoff(*prep.column_prices(lam0))   # kept: every probe bids at lam0
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
    it is kept by ``ensemble.memo`` under those keys.
    """
    cfg = prep.config
    key = ("no_secrecy_price", cfg.mode, prep.k1, cfg.weights.tobytes(), cfg.power, eps)
    return prep.memo(key, lambda: _solve_lambda(prep, np.zeros(prep.k1), eps))


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
    earlier exit says why in its message.  Returns ``(primal, iterations,
    trace, message)`` with the best iterate's ``_Auction.primal``, or
    ``primal = None`` on an infeasible exit: after 0 iterations when
    ``check_reachable`` rejects a target, or when a violated SU's
    multiplier passes ``_MU_CEILING``.
    """
    cfg = prep.config
    targets = cfg.secrecy_targets
    try:
        check_reachable(targets, prep.su_caps)
    except SecrecyInfeasibleError as err:
        return None, 0, [], str(err)

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
            score <= best[0] + 1e-15 and st.r_nu_total > best[1].r_nu_total
        ):
            best = (score, st, t)
            stall = 0
        else:
            stall += 1
        if converged:
            message = ""
            break

        over_ceiling = (mu > _MU_CEILING) & (viol > 0)
        if over_ceiling.any():
            k_bad = int(np.flatnonzero(over_ceiling)[0])
            return None, t, trace, (
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
    _, auction, iters = best
    return auction.primal, iters, trace, message


def _recover(prep, owner, p_win, lam, nu_class):
    """The one recovery of a dual primal, from an auction priced on every
    frame: peak mode trims and refills its ``owner`` and ``p_win`` in place
    at its frame prices ``lam`` and NU classes."""
    if prep.config.mode == "peak":
        _trim_su_surplus(prep, owner, p_win, lam)
        _refill_nu_water(prep, owner, p_win, lam, nu_class)


def _finish(prep, ensemble, eps, primal, iters, trace, message, infeasible=False):
    """An auction's ``primal`` (``_Auction.primal``), recovered and judged
    by ``unmet``."""
    owner, p_win, mu, lam, nu_class = primal
    _recover(prep, owner, p_win, lam, nu_class)
    return solve_result(
        owner, p_win, ensemble, prep.config, eps, mu, lam,
        infeasible=infeasible, message=message, iterations=iters,
        dual_value=float(np.min(trace)), dual_trace=trace,
    )


def _infeasible_result(prep, ensemble, eps, message, iters) -> SolveResult:
    """Every infeasible exit's result, after ``iters`` outer iterations: the
    auction at ``mu = 0`` and the no-secrecy price, which gives no SU a
    column and spends within the budget, with the failure note.  It is
    recovered as every solve is, so it is the allocation ``solve_peak``
    returns at zero targets; the dual value is the auction's."""
    st = _eval_point(prep, np.zeros(prep.k1), _no_secrecy_price(prep, eps))
    trace, primal = [st.dual_value], st.primal
    del st   # the recovery and the judge run without the auction's arrays
    return _finish(prep, ensemble, eps, primal, iters, trace, message, infeasible=True)


def _solve(ensemble, config, opts) -> SolveResult:
    """The dual solve shared by both power modes."""
    eps = (opts or SolverOptions()).epsilon
    prep = _Prepared(ensemble, config)
    primal, iters, trace, message = _dual_outer_loop(prep, eps)
    if primal is None:
        return _infeasible_result(prep, ensemble, eps, message, iters)
    return _finish(prep, ensemble, eps, primal, iters, trace, message)


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
    owner, p_win, _, _, nu_class = _eval_point(prep, duals.mu, lam).primal
    _recover(prep, owner, p_win, lam, nu_class)
    return decisions_from_arrays(owner, p_win, ensemble, config), lam
