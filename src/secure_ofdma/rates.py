"""Per-subcarrier rates, optimal power levels, and assignment payoffs.

Everything works in nats (natural log) on linear CNRs.  All functions
broadcast over numpy arrays and return scalars for scalar input.  The
``_core`` variants skip argument validation and are what the solvers call
on large arrays; the public functions validate and delegate.  The SU
``_core`` kernels compute in place, but only in buffers they allocate:
their inputs are solver caches and search terms priced again at other
prices, so they are never written.  One body serves 0-d and n-d inputs.

Conventions for a secure user on one subcarrier: ``alpha`` is its own
CNR, ``beta`` the largest CNR among all other users (the strongest
eavesdropper).  A secure user can be paid only when ``alpha - beta``
exceeds ``lam / mu_k``; the priced payoff ``h_su`` is the maximum of
``mu_k * secrecy_rate(p) - lam * p`` over p >= 0, and ``h_nu`` is the
analogous ``omega_k * info_rate(p) - lam * p`` maximum for a normal user.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    p = np.empty(np.broadcast_shapes(*map(np.shape, (gap, mu, lam))))
    # positivity threshold alpha - beta > lam/mu, written division-free so
    # mu == 0 is handled uniformly
    active = np.greater(np.multiply(mu, gap, out=p), lam)
    idle = None if active.all() else ~active
    # the discriminant d**2 + (4 mu / lam) * (-d)
    np.multiply(4.0, mu, out=p)
    p /= lam
    p *= neg_d
    p += d2
    if idle is not None:
        np.copyto(p, 1.0, where=idle)
    np.sqrt(p, out=p)
    p -= inv_sum
    p *= 0.5
    # the optimum is strictly positive on the active side; keep that true
    # even when the closed form underflows right at the boundary
    np.maximum(p, np.finfo(float).tiny, out=p)
    if idle is not None:
        np.copyto(p, 0.0, where=idle)
    return p


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
    rs, h = np.multiply(p, alpha, out=np.empty_like(p)), np.empty_like(p)
    np.log1p(rs, out=rs)
    # +0 where p is, as ln(1 + 0) - ln(1 + 0): no mask needed
    rs -= np.log1p(np.multiply(p, beta, out=h), out=h)
    np.subtract(np.multiply(mu, rs), np.multiply(lam, p, out=h), out=h)
    return np.maximum(h, 0.0, out=h), p, rs


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
    (NU index), ``alpha()`` (its CNR, gathered on each call), ``ln_wa``
    (``ln(omega*alpha)``, on first read) and ``inv_alpha`` have shape
    (T, G, N), with G the number of distinct weights (1 for equal
    weights) and ``weights`` the (G,) sorted class weights.  CNR ties go
    to the lowest NU index.  This is the one priced NU auction: the dual
    solver, whose peak refill reuses its classes, and the NU phase bid here.
    ``water`` gives the powers the candidates of chosen classes bid,
    pricing no auction, and ``best_payoff`` prices the winning payoff on
    a few gathered ``columns`` alone.

    No price changes which NU is strongest, so the index is found once
    per ensemble and (K1, weights) and kept by ``ensemble.memo``, as is
    ``order`` once it is first read.
    """

    def __init__(self, ensemble, k1: int, weights: np.ndarray):
        weights = np.asarray(weights, float)
        self.weights = np.unique(weights)
        self._ensemble, self._k1 = ensemble, k1
        self._key = (k1, weights.tobytes())
        index = ensemble.memo(("nu_index", *self._key), lambda: _strongest_nu(
            ensemble.alpha[:, k1:, :], weights, self.weights))
        # gathered as the platform's index width: owners are built from it
        self.index = index.astype(np.intp)
        self.inv_alpha = 1.0 / self.alpha()

    def alpha(self) -> np.ndarray:
        """The candidates' (T, G, N) CNRs, one flat gather at ``index``."""
        cnr = self._ensemble.alpha
        t_count, k, n = cnr.shape
        frame = np.arange(t_count)[:, None, None] * k + self._k1
        return np.take(cnr, (frame + self.index) * n + np.arange(n))

    @cached_property
    def ln_wa(self) -> np.ndarray:
        return np.log(self.weights[:, None] * self.alpha())

    @property
    def order(self) -> np.ndarray:
        """The flat (T, G, N) positions by ascending breakpoint ``inv_alpha / w``.

        Sorted on first read and kept with the index as int32 (the
        platform's index width past 2**31 entries).
        """
        def build():
            kink = (self.inv_alpha / self.weights[:, None]).ravel()
            return np.argsort(kink).astype(
                np.int32 if kink.size <= np.iinfo(np.int32).max else np.intp)
        return self._ensemble.memo(("nu_order", *self._key), build)

    def _payoff(self, ln_wa, inv_alpha, ln_lam, lam):
        """Each class's priced payoff from its price-free terms; the class
        axis is second to last."""
        w = self.weights[:, None]
        return np.maximum(
            w * np.maximum(ln_wa - ln_lam, 0.0) - np.maximum(w - lam * inv_alpha, 0.0),
            0.0,
        )

    def auction(self, ln_lam, lam, rows=slice(None)):
        """Winning candidate per column at power price ``lam``.

        ``ln_lam`` and ``lam`` are scalars or broadcast against
        (T', 1, 1) for the frames ``rows``.  Returns ``(h, g)``: the (T', N)
        winning payoff and the winner's class, or ``g = None`` when there
        is a single class.  Payoff ties between classes go to the lower
        class weight.
        """
        h = self._payoff(self.ln_wa[rows], self.inv_alpha[rows], ln_lam, lam)
        if self.weights.size == 1:
            return h[:, 0, :], None
        g = np.argmax(h, axis=1)
        return self.take(h, g), g

    def water(self, lam, g=None, rows=slice(None)):
        """The (T', N) water-filling power ``(w/lam - 1/alpha)+`` of the
        candidates of classes ``g`` (``None`` with one class), in the frames
        ``rows``; ``lam`` is a scalar or broadcasts against (T', N).  This
        is the NU rule: at the class a column's NU auction picks, the level
        is the NU's power there and the NU owns the column where it is
        positive (unless an SU wins it).  No auction is priced."""
        return np.maximum(self.weight(g) / lam - self.take(self.inv_alpha, g, rows), 0.0)

    def columns(self, flat):
        """``ln_wa`` and ``inv_alpha`` at the flat (t*N + n) columns ``flat``:
        the (2, G, M) price-free terms ``best_payoff`` prices."""
        _, classes, n = self.inv_alpha.shape
        at = flat + flat // n * ((classes - 1) * n) + (np.arange(classes) * n)[:, None]
        return np.stack([self.ln_wa.take(at), self.inv_alpha.take(at)])

    def best_payoff(self, terms, ln_lam, lam):
        """The winning payoff on the columns of ``terms`` (from ``columns``),
        bit for bit the auction's there; ``ln_lam`` and ``lam`` are scalars
        or one price per column."""
        return self._payoff(terms[0], terms[1], ln_lam, lam).max(axis=0)

    def take(self, arr, g, rows=slice(None)):
        """The (T', N) slice of a (T, G, N) candidate array at classes ``g``."""
        if g is None:
            return arr[rows, 0, :]
        return np.take_along_axis(arr[rows], g[:, None, :], axis=1)[:, 0, :]

    def weight(self, g):
        """Weight of the chosen candidates: a scalar for a single class."""
        return self.weights[0] if g is None else self.weights[g]


def _strongest_nu(alpha_nu, weights, classes):
    """The (T, G, N) index of the strongest NU of each of the weight
    ``classes``, in the smallest unsigned type that holds it."""
    members = [np.flatnonzero(weights == w) for w in classes]
    index = np.stack([
        m[np.argmax(alpha_nu[:, m, :], axis=1)] for m in members
    ], axis=1)
    return index.astype(np.min_scalar_type(weights.size - 1))


__all__ = [
    "DualState",
    "secrecy_rate",
    "info_rate",
    "su_power",
    "nu_power",
    "h_su",
    "h_nu",
]
