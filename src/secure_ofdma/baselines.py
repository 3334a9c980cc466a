"""Fixed-subcarrier-assignment benchmarks with adaptive power only.

FSA-1 splits the subcarriers evenly over all users; FSA-2 gives the
secure users priority, sharing three quarters of the band among the SUs
and one quarter among the NUs.  Blocks are contiguous in index order;
under i.i.d. fading any fixed partition is statistically equivalent.
Power on the fixed sets follows the same closed forms as the adaptive
solvers: per-SU gap-threshold search to the secrecy target (an SU still
needs the largest CNR in a column for nonzero secrecy), then an NU water
level that exhausts the residual budget.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelEnsemble
from .config import ProblemConfig, SolverOptions
from .suboptimal import _two_phase

SCHEMES = ("fsa1", "fsa2")


def fsa_partition(scheme: str, config: ProblemConfig) -> list[np.ndarray]:
    """Disjoint contiguous index blocks covering all subcarriers.

    Returns one array of subcarrier indices per user, SUs first.  Raises
    when the block sizes do not come out integral for the configuration.
    """
    scheme = scheme.lower()
    n = config.n_subcarriers
    k = config.n_users
    k1 = config.n_secure
    if scheme == "fsa1":
        if n % k != 0:
            raise ValueError(
                f"FSA-1 needs N divisible by K (got N={n}, K={k})"
            )
        per = n // k
        counts = [per] * k
    elif scheme == "fsa2":
        su_total, nu_total = 3 * n, n
        if su_total % (4 * k1) != 0 or nu_total % (4 * (k - k1)) != 0:
            raise ValueError(
                "FSA-2 needs 3N/4 divisible by K1 and N/4 divisible by K-K1 "
                f"(got N={n}, K1={k1}, K={k})"
            )
        counts = [su_total // (4 * k1)] * k1 + [nu_total // (4 * (k - k1))] * (k - k1)
    else:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    edges = np.cumsum([0] + counts)
    return [np.arange(edges[i], edges[i + 1]) for i in range(k)]


def solve_fsa(
    ensemble: ChannelEnsemble,
    config: ProblemConfig,
    scheme: str,
    opts: SolverOptions | None = None,
):
    """Adaptive power on the fixed partition, same tolerances as the solvers."""
    if config.mode != "average":
        raise ValueError("the fixed-assignment baselines support only mode='average'")
    sets = fsa_partition(scheme, config)
    k1 = config.n_secure
    return _two_phase(
        ensemble, config, opts or SolverOptions(),
        candidate_sets=sets[:k1], fixed_sets=sets[k1:], prefix=f"{scheme}: ",
    )
