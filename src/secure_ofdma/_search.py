"""The bracket-and-bisect primitive behind every monotone search.

``bracket`` grows the upper ends, ``bisect`` then halves the brackets,
elementwise over an array of independent brackets (a scalar is the 0-d
case) with one probe call per step for all of them.  A probe
``probe(x) -> (up, hit)`` returns booleans shaped like ``x``: ``up``
where the sought point lies above ``x``, ``hit`` where ``x`` is close
enough for that element to stop.

A probe may also return a third array, a signed residual that is
negative exactly where ``up``.  Both functions then carry the residuals
at the bracket ends, and ``bisect`` replaces the midpoint by an ITP step
(Oliveira & Takahashi, "An Enhancement of the Bisection Method Average
Performance Preserving Minmax Optimality", ACM TOMS 47(1), 2021)
wherever both are known.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rates import _su_power_core

# ITP's truncation and projection constants: kappa_1 = _ITP_KAPPA / w0
# with kappa_2 = 2, and n_0 = _ITP_SLACK extra probes over bisection
_ITP_KAPPA = 0.2
_ITP_SLACK = 1


def bracket(probe, lo, hi, factor, *, limit=np.inf, max_steps=200, f_lo=None):
    """Grow ``hi`` by ``factor`` until the sought point is at or below it.

    Where ``probe(hi)`` is ``up``, ``lo`` moves to ``hi`` and ``hi`` grows,
    capped at ``limit``, which is accepted without a probe.  Returns
    ``(lo, hi)``; raises ``RuntimeError`` after ``max_steps`` probes.
    Given ``f_lo``, the residuals at ``lo``, the probe must return
    residuals too, and ``(lo, hi, f_lo, f_hi)`` is returned, with NaN
    where ``hi`` was not probed.
    """
    lo, hi = np.array(lo, float), np.array(hi, float)
    carry = f_lo is not None
    if carry:
        f_lo = np.array(np.broadcast_to(f_lo, lo.shape), float)
    for _ in range(max_steps):
        out = probe(hi)
        up = np.asarray(out[0], bool)
        if carry:
            f_lo = np.where(up, out[2], f_lo)
            f_hi = np.where(up, np.nan, out[2])
        if not up.any():
            return (lo, hi, f_lo, f_hi) if carry else (lo, hi)
        lo = np.where(up, hi, lo)
        hi = np.where(up, np.minimum(hi * factor, limit), hi)
        if np.all(hi[up] >= limit):
            return (lo, hi, f_lo, f_hi) if carry else (lo, hi)
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
    """Call an open-only probe on the open elements; scatter its answers."""
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
           max_steps=200, done=None, open_only=False, f_lo=None, f_hi=None):
    """Halve every bracket ``[lo, hi]`` until each element stops.

    Each step probes the arithmetic (or geometric) midpoint and moves
    ``lo`` there where it is ``up``, ``hi`` elsewhere.  An element stops
    on a ``hit``, once ``hi - lo <= xtol + rtol * hi``, or from the start
    if ``done``; stopped elements never move.  They are probed at ``hi``,
    unless ``open_only``: then the call is ``probe(x, idx)`` with the
    points of the open elements only and ``idx`` their indices, or
    ``None`` while every element is open.  Returns ``(lo, hi, steps)``
    after at most ``max_steps`` probes.

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
        if open_only:
            out = _probe_open(probe, mid, done)
        else:
            out = probe(np.where(done, hi, mid))
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
    converged: bool
    trace: list = field(default_factory=list)  # (lo, hi) after each step


def bisect_monotone(
    fn, target, lo, hi, tol, *, increasing, max_iter=200, width_floor=1e-12,
) -> SearchOutcome:
    """Locate x in [lo, hi] with |fn(x) - target| <= tol by bisection.

    ``fn`` must be monotone on the bracket with ``fn(lo) <= target <= fn(hi)``
    when increasing (reversed when decreasing).  Terminates on tolerance or
    when the bracket collapses below ``width_floor`` times its initial width.
    Returns the last point probed.
    """
    trace = []
    fx = fn(hi)
    if abs(fx - target) <= tol:
        return SearchOutcome(hi, 0, True, trace)
    last = [hi, fx]
    ends = [lo, hi]

    def probe(x):
        last[:] = float(x), fn(float(x))
        up = last[1] < target if increasing else last[1] > target
        hit = abs(last[1] - target) <= tol
        if not hit:
            ends[0 if up else 1] = last[0]
            trace.append(tuple(ends))
        return up, hit

    _, _, steps = bisect(
        probe, lo, hi, xtol=width_floor * max(hi - lo, 1.0), max_steps=max_iter,
    )
    x, fx = last
    return SearchOutcome(x, steps, abs(fx - target) <= tol, trace)


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
        p = _su_power_core(a, b, 1.0 / threshold, 1.0)
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
            p[act] = _su_power_core(self.a[act], self.b[act], 1.0 / threshold, 1.0)
        return p


def search_threshold(curve: ThresholdCurve, target: float, eps: float) -> SearchOutcome:
    """Shrink the threshold bracket until |mean rate - target| <= eps*target.

    The rate is continuous and non-increasing in the threshold, so plain
    bisection with a bracket that caps at just above the largest observed
    gap (where the rate is exactly zero) always terminates.
    """
    if target <= 0:
        return SearchOutcome(np.inf, 0, True)
    hi = float(np.percentile(curve.gap, 99.9)) if curve.gap.size else 0.0
    hard_cap = curve.max_gap * (1 + 1e-9) + 1e-9
    hi = min(max(hi, 1e-12), hard_cap)
    _, hi = bracket(lambda x: (curve.rate(float(x)) > target, False), 0.0, hi, 2.0,
                    limit=hard_cap, max_steps=60)
    return bisect_monotone(
        curve.rate, target, 0.0, float(hi), eps * target, increasing=False,
    )
