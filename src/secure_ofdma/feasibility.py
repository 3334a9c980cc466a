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
A batched Monte Carlo estimator is available as an alternative method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

_MC_SEED = 20_240_901
_MC_BATCH = 1 << 19    # Monte Carlo draws per batch
_NEAR_MARGIN = 0.05    # relative distance below the bound flagged near-boundary


@dataclass
class QuadratureOptions:
    method: str = "quadrature"     # "quadrature" | "monte-carlo"
    mc_samples: int = 2_000_000

    def __post_init__(self):
        if self.method not in ("quadrature", "monte-carlo"):
            raise ValueError("method must be 'quadrature' or 'monte-carlo'")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")


def expected_top_two_log_ratio(n_users: int, rho: float = 1.0,
                               opts: QuadratureOptions | None = None) -> float:
    """E[ln(nu1/nu2)] for the two largest of K i.i.d. exponential draws."""
    if n_users < 2:
        raise ValueError("need at least 2 users")
    if rho <= 0:
        raise ValueError("rho must be > 0")
    opts = opts or QuadratureOptions()
    k = n_users
    if opts.method == "monte-carlo":
        rng = np.random.default_rng(_MC_SEED)
        remaining = opts.mc_samples
        total = 0.0
        while remaining > 0:
            batch = min(remaining, _MC_BATCH)
            x = rng.exponential(scale=rho, size=(batch, k))
            part = np.partition(x, k - 2, axis=1)[:, k - 2:]
            top2 = np.sort(part, axis=1)
            total += float(np.log(top2[:, 1] / top2[:, 0]).sum())
            remaining -= batch
        return total / opts.mc_samples

    # second-largest density K(K-1)(1-e^-s)^(K-2) e^-2s; the gap above it is
    # unit exponential, and  int_0^inf ln(1+e/s) e^-e de = e^s E1(s)
    def integrand(s):
        return k * (k - 1) * (1 - np.exp(-s)) ** (k - 2) * np.exp(-s) * special.exp1(s)

    value, _ = integrate.quad(integrand, 0.0, np.inf, limit=200)
    return float(value)


def secrecy_rate_upper_bound(n_subcarriers: int, n_users: int, rho: float = 1.0,
                             opts: QuadratureOptions | None = None) -> float:
    """Ceiling on any SU's average secrecy rate, nat/OFDM symbol."""
    if n_subcarriers < 1:
        raise ValueError("need at least 1 subcarrier")
    ratio = expected_top_two_log_ratio(n_users, rho, opts)
    return n_subcarriers / n_users * ratio


@dataclass
class FeasibilityCheck:
    bound: float
    verdicts: list = field(default_factory=list)  # per-SU strings
    feasible_hint: bool = True


def check_feasibility(config, opts: QuadratureOptions | None = None) -> FeasibilityCheck:
    """Screen secrecy targets against the unbounded-power bound.

    Targets at or above the bound can never be met; targets within
    ``_NEAR_MARGIN`` of it are flagged near-boundary.  This is a necessary
    condition only: finite power makes the true feasible region smaller.
    """
    bound = secrecy_rate_upper_bound(
        config.n_subcarriers, config.n_users, config.rho, opts
    )
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
