"""The bracket-and-bisect primitive behind every monotone search.

``bracket`` grows the upper ends, ``bisect`` then halves the brackets,
elementwise over an array of independent brackets (a scalar is the 0-d
case) with one probe call per step for all of them.  A probe
``probe(x, idx) -> (up, hit, ...)`` gets the points ``x`` of the
elements ``idx``, or of every element when ``idx`` is ``None``, and
returns booleans shaped like ``x``: ``up`` where the sought point lies
above ``x``, ``hit`` where ``x`` is close enough for that element to
stop.

A probe may also return a third array, a signed residual that is
negative exactly where ``up``.  ``bracket`` always carries the residuals
at the bracket ends, and ``bisect``, given them, replaces the midpoint
by an ITP step (Oliveira & Takahashi, "An Enhancement of the Bisection
Method Average Performance Preserving Minmax Optimality", ACM TOMS
47(1), 2021) wherever both are known.

With ownership fixed, both solver families share two kernels: the
gap-threshold search ``search_threshold``, built on ``bisect``, with one
group per SU (the peak trim's on CNRs divided by the frame's price), and
the exact NU water level ``water_level``, which needs no search: one
level over all free columns in the two-phase NU phase, one per frame in
the peak refill.  ``sorted_level`` is its second step, for a caller that
keeps its columns in breakpoint order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rates import _su_power_core, _su_terms

# ITP's truncation and projection constants: kappa_1 = _ITP_KAPPA / w0
# with kappa_2 = 2, and n_0 = _ITP_SLACK extra probes over bisection
_ITP_KAPPA = 0.2
_ITP_SLACK = 1


def bracket(probe, lo, hi, factor, *, f_lo, limit=np.inf, max_steps=200):
    """Grow ``hi`` by ``factor`` until the sought point is at or below it.

    Every element is probed at its ``hi``.  Where that is ``up``, ``lo``
    moves to ``hi`` and ``hi`` grows, capped at ``limit``, which is
    accepted without a probe.  ``f_lo`` holds the residuals at ``lo``;
    returns ``(lo, hi, f_lo, f_hi)``, with ``f_hi`` NaN where ``hi`` was
    not probed.  Raises ``RuntimeError`` after ``max_steps`` probes.
    """
    lo, hi = np.array(lo, float), np.array(hi, float)
    f_lo = np.array(np.broadcast_to(f_lo, lo.shape), float)
    for _ in range(max_steps):
        out = probe(hi, None)
        up = np.asarray(out[0], bool)
        f_lo = np.where(up, out[2], f_lo)
        f_hi = np.where(up, np.nan, out[2])
        if not up.any():
            return lo, hi, f_lo, f_hi
        lo = np.where(up, hi, lo)
        hi = np.where(up, np.minimum(hi * factor, limit), hi)
        if np.all((hi >= limit)[up]):
            return lo, hi, f_lo, f_hi
    raise RuntimeError("failed to bracket a monotone search")


def _itp_point(lo, hi, f_lo, f_hi, radius, kappa):
    """ITP's probe point, or the midpoint where a residual is unknown.

    Regula falsi, moved toward the midpoint by ``kappa * width**2`` and
    then projected into the ball of ``radius - width / 2`` around it.
    """
    width = hi - lo
    half = lo + 0.5 * width
    with np.errstate(invalid="ignore", divide="ignore"):
        x_f = lo - f_lo * width / (f_hi - f_lo)
    known = np.isfinite(x_f) & (width > 0)
    x_f = np.where(known, x_f, half)
    side = np.sign(half - x_f)
    delta = kappa * width * width
    x_t = np.where(delta <= np.abs(half - x_f), x_f + side * delta, half)
    ball = np.maximum(radius - 0.5 * width, 0.0)
    return np.where(np.abs(x_t - half) <= ball, x_t, half - side * ball)


def _probe_open(probe, x, done):
    """Probe the elements not ``done``; scatter the answers over ``x``'s shape."""
    if not done.any():
        return probe(x, None)
    idx = np.flatnonzero(~done)
    full = []
    for part in probe(x[idx], idx):
        out = np.zeros(x.shape, np.asarray(part).dtype)
        out[idx] = part
        full.append(out)
    return full


def bisect(probe, lo, hi, *, geometric=False, xtol=0.0, rtol=0.0,
           max_steps=200, done=None, f_lo=None, f_hi=None):
    """Halve every bracket ``[lo, hi]`` until each element stops.

    Each step probes the open elements at their arithmetic (or geometric)
    midpoint and moves ``lo`` there where it is ``up``, ``hi`` elsewhere.
    An element stops on a ``hit``, once ``hi - lo <= xtol + rtol * hi``,
    or from the start if ``done``; stopped elements are neither probed
    nor moved.  Returns ``(lo, hi, steps)`` after at most ``max_steps``
    probes.

    Given ``f_lo`` (and ``f_hi``, NaN where unknown), the residuals at
    the ends, the probe must return residuals too.  An arithmetic
    bracket whose ends both have one then takes ITP steps: after ``j``
    probes it is at most ``2**_ITP_SLACK`` times as wide as bisection
    leaves it, so a width stop costs at most ``_ITP_SLACK`` more probes
    than bisection, while a smooth residual meets its ``hit`` in a few.
    """
    lo, hi = np.array(lo, float), np.array(hi, float)
    done = np.zeros(lo.shape, bool) if done is None else np.array(done, bool)
    itp = f_lo is not None
    if itp:
        if geometric:
            raise ValueError("residual steps need an arithmetic bracket")
        f_lo = np.array(np.broadcast_to(f_lo, lo.shape), float)
        f_hi = np.full(lo.shape, np.nan) if f_hi is None else np.array(f_hi, float)
        width0 = hi - lo
        kappa = _ITP_KAPPA / np.where(width0 > 0, width0, 1.0)
    for step in range(max_steps):
        if done.all():
            return lo, hi, step
        if geometric:
            mid = np.sqrt(lo * hi)
        elif itp:
            radius = width0 * 2.0 ** (_ITP_SLACK - 1 - step)
            mid = _itp_point(lo, hi, f_lo, f_hi, radius, kappa)
        else:
            mid = 0.5 * (lo + hi)
        out = _probe_open(probe, mid, done)
        up, hit = np.asarray(out[0], bool), out[1]
        moved_lo, moved_hi = up & ~done, ~(up | done)
        lo = np.where(moved_lo, mid, lo)
        hi = np.where(moved_hi, mid, hi)
        if itp:
            f_lo = np.where(moved_lo, out[2], f_lo)
            f_hi = np.where(moved_hi, out[2], f_hi)
        done = done | hit | (hi - lo <= xtol + rtol * hi)
    return lo, hi, max_steps


@dataclass
class SearchOutcome:
    value: float           # located search variable
    iterations: int


def bisect_monotone(
    fn, target, lo, hi, tol, *, increasing, max_iter=200, width_floor=1e-12,
) -> SearchOutcome:
    """Locate x in [lo, hi] with |fn(x) - target| <= tol by bisection.

    ``fn`` must be monotone on the bracket with ``fn(lo) <= target <= fn(hi)``
    when increasing (reversed when decreasing).  Terminates on tolerance or
    when the bracket collapses below ``width_floor`` times its initial width.
    Returns the last point probed.
    """
    if abs(fn(hi) - target) <= tol:
        return SearchOutcome(hi, 0)
    last = [hi]

    def probe(x, _idx):
        last[0] = float(x)
        fx = fn(last[0])
        up = fx < target if increasing else fx > target
        return up, abs(fx - target) <= tol

    _, _, steps = bisect(
        probe, lo, hi, xtol=width_floor * max(hi - lo, 1.0), max_steps=max_iter,
    )
    return SearchOutcome(last[0], steps)


def threshold_stats(a, b, su, x, t_count, terms):
    """Mean secrecy rate and power per group at CNR-gap thresholds ``x``.

    ``a``, ``b`` and ``su`` are the flattened candidate columns: the top
    CNR, the runner-up and the group of the SU holding the top.  Group
    ``g`` is active where ``a - b > x[g]``, with the closed-form power at
    the price pair (1/x[g], 1), which keeps that rule exactly; only active
    columns are priced.  ``terms`` is ``_su_terms(a, b)``, computed once
    by a caller that prices the same columns at many thresholds.  Returns
    the per-group means, the active indices and their powers.
    """
    thr = x[su]
    on = np.flatnonzero(terms[0] > thr)
    a_on, b_on, su_on = a[on], b[on], su[on]
    p = _su_power_core(a_on, b_on, 1.0 / thr[on], 1.0, [t[on] for t in terms])
    rs = np.log1p(p * a_on) - np.log1p(p * b_on)
    rate = np.bincount(su_on, rs, minlength=x.size) / t_count
    power = np.bincount(su_on, p, minlength=x.size) / t_count
    return rate, power, on, p


def search_threshold(a, b, su, targets, rtol, t_count):
    """Tune every group's gap threshold until |mean rate - C_g| <= rtol*C_g.

    ``su`` labels each column with its group, an index into ``targets``:
    its SU.  Each group's rate is continuous and non-increasing in its own
    threshold alone, so the searches are one elementwise bisection whose
    probes price only the open groups, on price-free terms and group
    labels computed once.  Group g's bracket runs from 0 to just above its
    largest gap, where its rate is 0.  Returns each group's last probe,
    its bisection steps and ``threshold_stats`` at those probes; a zero
    target gives ``inf`` and 0 steps, a positive one needs a column.
    """
    thresholds = np.full(targets.size, np.inf)
    steps = np.zeros(targets.size, dtype=int)
    live = np.flatnonzero(targets > 0)
    su = su.astype(np.intp)
    terms = _su_terms(a, b)
    if not live.size:
        return thresholds, steps, threshold_stats(a, b, su, thresholds, t_count, terms)
    cap = np.zeros(targets.size)
    np.maximum.at(cap, su, terms[0])
    cap = cap[live] * (1 + 1e-9) + 1e-9
    c = targets[live]
    tol = rtol * c

    def probe(x, idx):
        idx = slice(None) if idx is None else idx
        at = np.full(targets.size, np.inf)
        at[live[idx]] = x
        fx = threshold_stats(a, b, su, at, t_count, terms)[0][live[idx]]
        thresholds[live[idx]] = x
        steps[live[idx]] += 1
        return fx > c[idx], np.abs(fx - c[idx]) <= tol[idx]

    bisect(probe, 0.0, cap, xtol=1e-12 * np.maximum(cap, 1.0))
    return thresholds, steps, threshold_stats(a, b, su, thresholds, t_count, terms)


def water_level(candidate, w, inv_a, budget):
    """Per row, the level ``theta`` at which the open columns spend ``budget``.

    Column ``n`` of a row takes ``max(theta * w - inv_a, 0)`` if it is a
    ``candidate`` (a mask broadcast against ``w``).  The spend is
    piecewise linear in ``theta``, with a kink at each column's breakpoint
    ``inv_a / w``, so the breakpoints are sorted and ``sorted_level``
    solves the level (Palomar & Fonollosa, "Practical algorithms for a
    family of waterfilling solutions", IEEE TSP 53(2), 2005).
    """
    # the other columns' breakpoints sort last, at infinity, and never open
    kink = np.where(candidate, inv_a / w, np.inf)
    order = np.argsort(kink, axis=1)
    kink = np.take_along_axis(kink, order, axis=1)
    shut = kink == np.inf

    def opened(x):
        """``x`` in breakpoint order, 0 on the columns that never open."""
        run = np.take_along_axis(x, order, axis=1)
        run[shut] = 0.0
        return run

    return sorted_level(kink, opened(w), opened(inv_a), budget)


def sorted_level(kink, w, inv_a, budget):
    """``water_level`` on rows already in ascending breakpoint order.

    ``kink`` holds each row's sorted breakpoints ``inv_a / w``, with
    ``inf`` on trailing columns that never open, where ``w`` and
    ``inv_a`` are 0.  The breakpoints at which the spend is still under
    the budget open the active set, and its linear piece is solved for
    the level.  It overwrites all three arrays.
    """
    w_cum = np.cumsum(w, axis=1, out=w)
    a_cum = np.cumsum(inv_a, axis=1, out=inv_a)
    # the spend where each column opens; the last one under the budget
    # closes the active set
    kink *= w_cum
    kink -= a_cum
    last = np.maximum((kink < budget[:, None]).sum(axis=1), 1) - 1
    rows = np.arange(budget.size)
    return (budget + a_cum[rows, last]) / w_cum[rows, last]
