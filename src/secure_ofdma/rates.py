"""Per-subcarrier rates, optimal power levels, and assignment payoffs.

Everything works in nats (natural log) on linear CNRs.  All functions
broadcast over numpy arrays and return scalars for scalar input.  The
``_core`` variants skip argument validation and are what the solvers call
on large arrays; the public functions validate and delegate.

Conventions for a secure user on one subcarrier: ``alpha`` is its own
CNR, ``beta`` the largest CNR among all other users (the strongest
eavesdropper).  A secure user can be paid only when ``alpha - beta``
exceeds ``lam / mu_k``; the priced payoff ``h_su`` is the maximum of
``mu_k * secrecy_rate(p) - lam * p`` over p >= 0, and ``h_nu`` is the
analogous ``omega_k * info_rate(p) - lam * p`` maximum for a normal user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class DualState:
    """Secrecy multipliers and the power multiplier.

    ``lam`` is a scalar under an average power constraint and ``None``
    under a peak constraint, where it is resolved per realization.
    """

    mu: np.ndarray
    lam: float | None = None

    def __post_init__(self):
        self.mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        # each test is written to fail on NaN as well
        if not np.all((self.mu >= 0) & (self.mu < np.inf)):
            raise ValueError("secrecy multipliers must be finite and >= 0")
        if self.lam is not None and not 0 <= self.lam < np.inf:
            raise ValueError("power multiplier must be finite and >= 0")


def _maybe_scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def _check_positive(name, value):
    if np.any(np.asarray(value) <= 0):
        raise ValueError(f"{name} must be > 0")


def _check_nonnegative(name, value):
    if np.any(np.asarray(value) < 0):
        raise ValueError(f"{name} must be >= 0")


def secrecy_rate(p, alpha, beta):
    """[ln(1 + p*alpha) - ln(1 + p*beta)]+ in nats."""
    _check_nonnegative("power", p)
    _check_positive("alpha", alpha)
    _check_positive("beta", beta)
    p, alpha, beta = np.asarray(p, float), np.asarray(alpha, float), np.asarray(beta, float)
    return _maybe_scalar(np.maximum(np.log1p(p * alpha) - np.log1p(p * beta), 0.0))


def info_rate(p, alpha):
    """ln(1 + p*alpha) in nats."""
    _check_nonnegative("power", p)
    _check_positive("alpha", alpha)
    return _maybe_scalar(np.log1p(np.asarray(p, float) * np.asarray(alpha, float)))


def _su_terms(alpha, beta):
    """The price-free terms of the SU closed form: a - b, d**2, -d, 1/a + 1/b.

    ``d = 1/a - 1/b``; a solver that prices the same columns at many
    prices computes these once.
    """
    inv_a = 1.0 / alpha
    inv_b = 1.0 / beta
    d = inv_a - inv_b
    return alpha - beta, d * d, inv_b - inv_a, inv_a + inv_b


def _su_power_core(alpha, beta, mu, lam, terms=None):
    gap, d2, neg_d, inv_sum = _su_terms(alpha, beta) if terms is None else terms
    # positivity threshold alpha - beta > lam/mu, written division-free so
    # mu == 0 is handled uniformly
    active = mu * gap > lam
    disc = d2 + (4.0 * mu / lam) * neg_d
    root = np.sqrt(np.where(active, disc, 1.0))
    p = 0.5 * (root - inv_sum)
    # the optimum is strictly positive on the active side; keep that true
    # even when the closed form underflows right at the boundary
    return np.where(active, np.maximum(p, np.finfo(float).tiny), 0.0)


def su_power(alpha, beta, mu_k, lam):
    """Optimal secure-user power for priced payoff mu_k*r_s - lam*p.

    Zero whenever ``alpha - beta <= lam / mu_k`` (in particular for
    ``alpha <= beta``), otherwise the closed-form stationary point of the
    concave priced secrecy payoff.
    """
    _check_positive("alpha", alpha)
    _check_positive("beta", beta)
    _check_nonnegative("mu_k", mu_k)
    _check_positive("lam", lam)
    out = _su_power_core(
        np.asarray(alpha, float), np.asarray(beta, float),
        np.asarray(mu_k, float), np.asarray(lam, float),
    )
    return _maybe_scalar(out)


def _nu_power_core(alpha, omega, lam):
    return np.maximum(omega / lam - 1.0 / alpha, 0.0)


def nu_power(alpha, omega_k, lam):
    """Water-filling power [omega_k/lam - 1/alpha]+ for a normal user."""
    _check_positive("alpha", alpha)
    _check_positive("omega_k", omega_k)
    _check_positive("lam", lam)
    out = _nu_power_core(
        np.asarray(alpha, float), np.asarray(omega_k, float), np.asarray(lam, float)
    )
    return _maybe_scalar(out)


def _h_su_core(alpha, beta, mu, lam, terms=None):
    p = _su_power_core(alpha, beta, mu, lam, terms)
    rs = np.where(p > 0, np.log1p(p * alpha) - np.log1p(p * beta), 0.0)
    return np.maximum(mu * rs - lam * p, 0.0), p, rs


def h_su(alpha, beta, mu_k, lam):
    """Maximized priced secrecy payoff max_p mu_k*r_s(p) - lam*p (>= 0)."""
    _check_positive("alpha", alpha)
    _check_positive("beta", beta)
    _check_nonnegative("mu_k", mu_k)
    _check_positive("lam", lam)
    h, _, _ = _h_su_core(
        np.asarray(alpha, float), np.asarray(beta, float),
        np.asarray(mu_k, float), np.asarray(lam, float),
    )
    return _maybe_scalar(h)


def _h_nu_core(alpha, omega, lam):
    gain = omega * np.maximum(np.log(omega * alpha / lam), 0.0)
    cost = np.maximum(omega - lam / alpha, 0.0)
    return np.maximum(gain - cost, 0.0)


def h_nu(alpha, omega_k, lam):
    """Maximized priced information payoff max_p omega_k*r(p) - lam*p.

    Equals omega_k*[ln(omega_k*alpha/lam)]+ - [omega_k - lam/alpha]+ and is
    non-decreasing in alpha.
    """
    _check_positive("alpha", alpha)
    _check_positive("omega_k", omega_k)
    _check_positive("lam", lam)
    out = _h_nu_core(
        np.asarray(alpha, float), np.asarray(omega_k, float), np.asarray(lam, float)
    )
    return _maybe_scalar(out)


class _NuCandidates:
    """The strongest NU of each distinct weight on every subcarrier.

    At a fixed weight the priced NU payoff is non-decreasing in the CNR,
    so only these candidates can win a column's NU auction.  ``index``
    (NU index), ``ln_wa`` (``ln(omega*alpha)``) and ``inv_alpha`` have
    shape (T, G, N), with G the number of distinct weights (1 for equal
    weights) and ``weights`` the (G,) sorted class weights.  CNR ties go
    to the lowest NU index.  This is the one priced NU auction: the dual
    solver, its primal refill and the two-phase NU phase all bid here.
    """

    def __init__(self, alpha_nu: np.ndarray, weights: np.ndarray):
        self.weights = np.unique(weights)
        if self.weights.size == 1:
            index = np.argmax(alpha_nu, axis=1)[:, None, :]
        else:
            members = [np.flatnonzero(weights == w) for w in self.weights]
            index = np.stack([
                m[np.argmax(alpha_nu[:, m, :], axis=1)] for m in members
            ], axis=1)
        alpha = np.take_along_axis(alpha_nu, index, axis=1)
        self.index = index
        self.ln_wa = np.log(self.weights[:, None] * alpha)
        self.inv_alpha = 1.0 / alpha

    def auction(self, ln_lam, lam, rows=slice(None)):
        """Winning candidate per column at power price ``lam``.

        ``ln_lam`` and ``lam`` are scalars or broadcast against
        (T', 1, 1) for the frames ``rows``.  Returns ``(h, g)``: the (T', N)
        winning payoff and the winner's class, or ``g = None`` when there
        is a single class.  Payoff ties between classes go to the lower
        class weight.
        """
        w = self.weights[:, None]
        h = np.maximum(
            w * np.maximum(self.ln_wa[rows] - ln_lam, 0.0)
            - np.maximum(w - lam * self.inv_alpha[rows], 0.0),
            0.0,
        )
        if self.weights.size == 1:
            return h[:, 0, :], None
        g = np.argmax(h, axis=1)
        return self.take(h, g), g

    def columns(self, t, n):
        """The bids on the columns ``(t[i], n[i])``, each as a frame of one.

        Its ``ln_wa`` and ``inv_alpha`` have shape (M, G, 1), so ``rows``
        picks columns; it keeps no ``index``, since it only prices.
        """
        out = object.__new__(_NuCandidates)
        out.weights, out.index = self.weights, None
        out.ln_wa, out.inv_alpha = (a[t, :, n][:, :, None]
                                    for a in (self.ln_wa, self.inv_alpha))
        return out

    def take(self, arr, g, rows=slice(None)):
        """The (T', N) slice of a (T, G, N) candidate array at classes ``g``."""
        if g is None:
            return arr[rows, 0, :]
        return np.take_along_axis(arr[rows], g[:, None, :], axis=1)[:, 0, :]

    def weight(self, g):
        """Weight of the chosen candidates: a scalar for a single class."""
        return self.weights[0] if g is None else self.weights[g]


__all__ = [
    "DualState",
    "secrecy_rate",
    "info_rate",
    "su_power",
    "nu_power",
    "h_su",
    "h_nu",
]
