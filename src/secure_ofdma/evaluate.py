"""Ensemble-average evaluation of allocation policies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import Allocation
from .channel import ChannelEnsemble
from .config import ProblemConfig


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
    nu = owner >= k1
    r_su = np.bincount(owner[su], weights=rate[su], minlength=k1)
    nu_rate = np.bincount(owner[nu] - k1, weights=rate[nu], minlength=config.n_normal)
    return EvaluationReport(
        r_nu_total=float(config.weights @ nu_rate) / t_count,
        r_su=r_su / t_count,
        avg_power=float(power.sum()) / t_count,
        su_power=float(power[su].sum()) / t_count,
        su_subcarriers=int(su.sum()) / t_count,
        realizations_used=t_count,
    )
