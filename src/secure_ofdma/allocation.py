"""Ensemble allocations, their per-frame views, and solver result containers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelEnsemble
from .config import ProblemConfig
from .rates import DualState

UNASSIGNED = -1


@dataclass(frozen=True)
class AllocationDecision:
    """Subcarrier ownership and powers for one channel realization.

    ``owner[n]`` is the user index holding subcarrier ``n`` or -1 when the
    subcarrier is left unpowered.  Exactly the owner's entry of each power
    column is positive.
    """

    owner: np.ndarray       # (N,) int
    power: np.ndarray       # (K, N) >= 0
    su_secrecy: np.ndarray  # (K1,) realized secrecy rate per SU
    nu_rate: np.ndarray     # (K-K1,) realized information rate per NU
    total_power: float


@dataclass(frozen=True)
class Allocation:
    """Subcarrier ownership, power and rate for every frame of an ensemble.

    Each subcarrier of a frame serves at most one user, so the whole
    allocation is three (T, N) arrays: ``owner`` (user index or -1),
    ``power`` (the owner's power, 0 where unassigned) and ``rate`` (the
    owner's secrecy rate for an SU, information rate for an NU).
    ``alloc[t]`` is frame ``t`` as an ``AllocationDecision``, built on
    demand.
    """

    owner: np.ndarray   # (T, N) int
    power: np.ndarray   # (T, N) >= 0
    rate: np.ndarray    # (T, N) >= 0
    n_users: int
    n_secure: int

    def __len__(self) -> int:
        return self.owner.shape[0]

    def __getitem__(self, t: int) -> AllocationDecision:
        k, k1 = self.n_users, self.n_secure
        own, p, r = self.owner[t], self.power[t], self.rate[t]
        cols = np.flatnonzero(own >= 0)
        power = np.zeros((k, own.size))
        power[own[cols], cols] = p[cols]
        su = (own >= 0) & (own < k1)
        nu = own >= k1
        return AllocationDecision(
            owner=own.copy(),
            power=power,
            su_secrecy=np.bincount(own[su], weights=r[su], minlength=k1),
            nu_rate=np.bincount(own[nu] - k1, weights=r[nu], minlength=k - k1),
            total_power=float(p.sum()),
        )

    def __iter__(self):
        return (self[t] for t in range(len(self)))


def decisions_from_arrays(
    owner: np.ndarray, power: np.ndarray, ensemble: ChannelEnsemble,
    config: ProblemConfig,
) -> Allocation:
    """Build the allocation from stacked (T, N) owner / power arrays.

    Every solver builds its allocation here, so the arrays are checked
    here: owners must be whole numbers in [-1, K), powers finite and >= 0.
    Power on unassigned subcarriers is dropped.  Rates are recomputed here
    from power and channel so stored rates are consistent with the rate
    formulas by construction, from the ensemble's cached order statistics.
    """
    shape = (ensemble.count, ensemble.n_subcarriers)
    if np.shape(owner) != shape or np.shape(power) != shape:
        raise ValueError("owner and power must be (realizations, subcarriers)")
    owner = np.asarray(owner)
    if not ((owner.dtype.kind in "iu" or np.array_equal(np.trunc(owner), owner))
            and owner.min() >= UNASSIGNED and owner.max() < config.n_users):
        raise ValueError(f"owners must be whole numbers in [-1, {config.n_users})")
    owner = owner.astype(np.int64)
    # a NaN propagates through both reductions and fails both
    if not (np.min(power) >= 0 and np.max(power) < np.inf):
        raise ValueError("power must be finite and >= 0")
    owned = owner >= 0
    power = np.where(owned, power, 0.0)
    nu1, nu2, kmax = ensemble.order_stats
    # each owner's CNR, by one flat gather; an unowned column reads user 0
    t_count, k, n = ensemble.alpha.shape
    flat = np.maximum(owner, 0)
    flat += np.arange(t_count)[:, None] * k
    flat *= n
    flat += np.arange(n)
    a = np.take(ensemble.alpha, flat)
    # an unowned column has power 0, so its rate is already 0
    rate = np.log1p(power * a)
    # an SU's secrecy rate, on its own columns alone: its eavesdropper is
    # the runner-up where it holds the maximum, else the maximum
    su = np.flatnonzero(owned & (owner < config.n_secure))
    su_owner, su_power = owner.ravel()[su], power.ravel()[su]
    beta = np.where(kmax.ravel()[su] == su_owner, nu2.ravel()[su], nu1.ravel()[su])
    rate.ravel()[su] = np.maximum(rate.ravel()[su] - np.log1p(su_power * beta), 0.0)
    return Allocation(
        owner=owner, power=power, rate=rate,
        n_users=config.n_users, n_secure=config.n_secure,
    )


def validate_exclusivity(decision: AllocationDecision, atol: float = 0.0) -> None:
    """Raise if any subcarrier powers a user other than its owner.

    Kept, with ``AllocationDecision``, for the per-frame output check of
    ``perfbench/checks.py``; an ``Allocation`` has one owner per column.
    """
    positive = decision.power > atol
    per_column = positive.sum(axis=0)
    if np.any(per_column > 1):
        raise ValueError("multiple users powered on one subcarrier")
    owned = decision.owner != UNASSIGNED
    cols = np.arange(owned.size)
    owner_on = owned & positive[np.where(owned, decision.owner, 0), cols]
    bad = np.flatnonzero((per_column > 0) & ~owner_on)
    if bad.size:
        n = bad[0]
        raise ValueError(f"subcarrier {n} powered by a non-owner" if owned[n]
                         else f"unassigned subcarrier {n} carries power")


@dataclass
class SolveResult:
    """Outcome of one solver run over an ensemble."""

    duals: DualState
    report: "EvaluationReport"
    decisions: Allocation
    iterations: int
    converged: bool
    infeasible: bool
    dual_value: float = np.nan
    dual_trace: list = field(default_factory=list)
    lambda_per_realization: np.ndarray | None = None
    message: str = ""

    def __post_init__(self):
        if self.converged and self.infeasible:
            raise ValueError("converged and infeasible are mutually exclusive")
