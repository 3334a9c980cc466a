"""Unbounded-power ceiling on the achievable average secrecy rate.

Under i.i.d. exponential fading every user is the strongest on a 1/K
share of the subcarriers, and with unlimited power the per-subcarrier
secrecy rate tends to the log-ratio of the two largest CNRs.  The bound
is therefore (N/K) * E[ln(nu1/nu2)] over the top two of K exponential
draws.  The log-ratio is scale invariant, so the bound does not depend
on the fading mean.

The expectation is integrated over the second-largest value after
substituting the (memoryless, unit-exponential) gap between the top two
draws; the inner gap integral reduces to the exponential integral E1.
``quad`` runs to its default absolute tolerance of 1.5e-8, once per
user count; the tests check the result against an independent sampler.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

_NEAR_MARGIN = 0.05    # relative distance below the bound flagged near-boundary


def expected_top_two_log_ratio(n_users: int, rho: float = 1.0) -> float:
    """E[ln(nu1/nu2)] for the two largest of K i.i.d. exponential draws."""
    if n_users < 2:
        raise ValueError("need at least 2 users")
    if not 0 < rho < np.inf:
        raise ValueError("rho must be finite and > 0")
    return _top_two_log_ratio(n_users)


@functools.cache
def _top_two_log_ratio(k) -> float:
    """The quadrature for ``k`` users, integrated once per ``k``: being
    scale invariant, it does not depend on ``rho``."""
    # second-largest density K(K-1)(1-e^-s)^(K-2) e^-2s; the gap above it is
    # unit exponential, and  int_0^inf ln(1+e/s) e^-e de = e^s E1(s)
    def integrand(s):
        return k * (k - 1) * (1 - np.exp(-s)) ** (k - 2) * np.exp(-s) * special.exp1(s)

    value, _ = integrate.quad(integrand, 0.0, np.inf, limit=200)
    return float(value)


def secrecy_rate_upper_bound(n_subcarriers: int, n_users: int,
                             rho: float = 1.0) -> float:
    """Ceiling on any SU's average secrecy rate, nat/OFDM symbol."""
    if n_subcarriers < 1:
        raise ValueError("need at least 1 subcarrier")
    ratio = expected_top_two_log_ratio(n_users, rho)
    return n_subcarriers / n_users * ratio


@dataclass
class FeasibilityCheck:
    bound: float
    verdicts: list = field(default_factory=list)  # per-SU strings
    feasible_hint: bool = True


def check_feasibility(config) -> FeasibilityCheck:
    """Screen secrecy targets against the unbounded-power bound.

    Targets at or above the bound can never be met; targets within
    ``_NEAR_MARGIN`` of it are flagged near-boundary.  This is a necessary
    condition only: finite power makes the true feasible region smaller.
    """
    bound = secrecy_rate_upper_bound(config.n_subcarriers, config.n_users, config.rho)
    verdicts = []
    ok = True
    for c in config.secrecy_targets:
        if c >= bound:
            verdicts.append("infeasible")
            ok = False
        elif c > bound * (1.0 - _NEAR_MARGIN):
            verdicts.append("near-boundary")
        else:
            verdicts.append("feasible")
    return FeasibilityCheck(bound=bound, verdicts=verdicts, feasible_hint=ok)
