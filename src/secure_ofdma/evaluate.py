"""Ensemble-average evaluation of allocation policies, and the one verdict
every solver's result is judged by."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import Allocation, SolveResult, decisions_from_arrays
from .channel import ChannelEnsemble
from .config import ProblemConfig
from .rates import DualState


@dataclass
class EvaluationReport:
    """Training-set averages of the figures of merit.

    ``r_nu_total`` is the weighted aggregate NU information rate,
    ``r_su`` the per-SU average secrecy rate, both in nat/OFDM symbol.
    """

    r_nu_total: float
    r_su: np.ndarray          # (K1,)
    avg_power: float
    su_power: float           # mean power spent on SU-owned subcarriers
    su_subcarriers: float     # mean count of SU-owned subcarriers
    realizations_used: int

    def to_dict(self) -> dict:
        return {
            "r_nu_total": self.r_nu_total,
            "r_su": np.asarray(self.r_su).tolist(),
            "avg_power": self.avg_power,
            "su_power": self.su_power,
            "su_subcarriers": self.su_subcarriers,
            "realizations_used": self.realizations_used,
        }


def evaluate(
    allocation: Allocation,
    ensemble: ChannelEnsemble,
    config: ProblemConfig,
) -> EvaluationReport:
    """Ensemble averages of an allocation's rates and powers."""
    t_count = ensemble.count
    shape = (t_count, ensemble.n_subcarriers)
    if (allocation.owner.shape, allocation.power.shape, allocation.rate.shape,
            allocation.n_users, allocation.n_secure) != (
            shape, shape, shape, ensemble.n_users, config.n_secure):
        raise ValueError("allocation dimensions do not match the ensemble")
    k1 = config.n_secure
    owner, power, rate = allocation.owner, allocation.power, allocation.rate
    su = (owner >= 0) & (owner < k1)
    # one pass sums every user's rate, each bin in the owners' order; bin 0
    # holds the unowned columns, whose rate is 0
    rates = np.bincount((owner + 1).ravel(), weights=rate.ravel(),
                        minlength=config.n_users + 1)
    r_su, nu_rate = rates[1:k1 + 1], rates[k1 + 1:]
    return EvaluationReport(
        r_nu_total=float(config.weights @ nu_rate) / t_count,
        r_su=r_su / t_count,
        avg_power=float(power.sum()) / t_count,
        su_power=float(power[su].sum()) / t_count,
        su_subcarriers=np.count_nonzero(su) / t_count,
        realizations_used=t_count,
    )


def unmet(secrecy, power, config: ProblemConfig, eps: float) -> str:
    """The first constraint that ``secrecy`` and ``power`` break, or ``""``.

    SU k's average secrecy must lie within ``eps * max(C_k, 1)`` of its
    target and at or above ``C_k (1 - eps)``.  ``power`` holds the (T,)
    frame spends: their mean, in average mode, or each frame, in peak
    mode, must stay at or below ``P (1 + eps)``.  Each test fails on NaN.
    """
    targets = config.secrecy_targets
    missed = ~((np.abs(secrecy - targets) <= eps * np.maximum(targets, 1.0))
               & (secrecy >= targets * (1.0 - eps)))
    if missed.any():
        k = int(np.argmax(missed))
        return (f"SU {k} secrecy {secrecy[k]:.6g} is outside the eps={eps:g} "
                f"band around its target {targets[k]:.6g}")
    peak = config.mode == "peak"
    spend = np.asarray(power, float) if peak else np.array([np.mean(power)])
    over = ~(spend <= config.power * (1.0 + eps))
    if over.any():
        t = int(np.argmax(over))
        return (f"{f'frame {t}' if peak else 'the mean'} spends {spend[t]:.6g}, "
                f"over the budget {config.power:.6g}")
    return ""


def solve_result(owner, power, ensemble: ChannelEnsemble, config: ProblemConfig,
                 eps: float, mu, lam, *, infeasible: bool, message: str,
                 **fields) -> SolveResult:
    """The (T, N) allocation ``(owner, power)`` at prices ``(mu, lam)``, judged.

    It is converged when not ``infeasible`` and nothing is ``unmet``; else
    it keeps the solver's ``message``, or says what is unmet.  ``lam`` is a
    scalar, one price per frame, or ``None``.  ``fields`` go to ``SolveResult``.
    """
    allocation = decisions_from_arrays(owner, power, ensemble, config)
    report = evaluate(allocation, ensemble, config)
    verdict = unmet(report.r_su, allocation.power.sum(axis=1), config, eps)
    converged = not infeasible and verdict == ""
    per_frame = np.ndim(lam) == 1
    return SolveResult(
        duals=DualState(mu=mu, lam=None if per_frame or lam is None else float(lam)),
        report=report, decisions=allocation,
        lambda_per_realization=np.array(lam, float) if per_frame else None,
        converged=converged, infeasible=infeasible,
        message="" if converged else message or verdict, **fields,
    )
