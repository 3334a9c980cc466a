"""Low-complexity two-phase allocator.

Phase 1 serves the secure users in isolation, treating every other user
as a pure eavesdropper: SU k claims the subcarriers where its CNR beats
the best other CNR by more than a per-user gap threshold, and one
elementwise bisection tunes the K1 independent thresholds until each
average secrecy target is met.  Phase 2 distributes the leftover
subcarriers and power among the normal users by searching a single
water level with per-user levels proportional to the weights.  The two
phases decouple the multiplier updates, so the whole run needs
O((K1+1) log(1/eps)) bisection steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._search import bisect_monotone, bracket, search_threshold, threshold_stats
from .allocation import SolveResult, decisions_from_arrays
from .channel import ChannelEnsemble, check_dimensions, secrecy_limit
from .config import ProblemConfig, SolverOptions
from .evaluate import evaluate
from .rates import DualState, _NuCandidates


class SecrecyInfeasibleError(RuntimeError):
    """A secrecy target is unreachable even with a vanishing gap threshold."""

    def __init__(self, su_index: int, achievable: float, target: float):
        self.su_index = su_index
        self.achievable = achievable
        self.target = target
        super().__init__(
            f"SU {su_index}: target {target:.4g} exceeds the achievable "
            f"average secrecy rate {achievable:.4g} on this ensemble"
        )


@dataclass
class SuPhaseReport:
    secrecy: np.ndarray          # (K1,) achieved average secrecy rates
    power: np.ndarray            # (K1,) average power spent per SU
    iterations: np.ndarray       # (K1,) bisection steps per SU
    owner: np.ndarray            # (T, N) SU holding the subcarrier or -1
    p_win: np.ndarray            # (T, N) SU powers

    @property
    def occupied(self) -> np.ndarray:
        return self.owner >= 0


@dataclass
class NuPhaseReport:
    nu_rate: np.ndarray          # (K-K1,) average information rate per NU
    power: float                 # average NU power
    iterations: int
    budget_exhausted: bool
    owner_nu: np.ndarray         # (T, N) NU winner or -1
    power_nu: np.ndarray         # (T, N) NU powers


def _idle_nu(config, t_count, exhausted):
    """The NU phase that spends nothing."""
    shape = (t_count, config.n_subcarriers)
    return NuPhaseReport(
        nu_rate=np.zeros(config.n_normal), power=0.0, iterations=0,
        budget_exhausted=exhausted, owner_nu=np.full(shape, -1),
        power_nu=np.zeros(shape),
    )


def su_phase(
    ensemble: ChannelEnsemble,
    config: ProblemConfig,
    eps: float,
    candidate_sets: list[np.ndarray] | None = None,
):
    """Tune per-SU gap thresholds to the secrecy targets.

    ``candidate_sets`` restricts SU k to a fixed subcarrier set (used by
    the fixed-assignment baselines); by default every subcarrier where the
    SU has the largest CNR is a candidate.  Raises
    ``SecrecyInfeasibleError`` for the lowest-indexed SU whose target its
    unbounded-power limit cannot reach.  Returns
    ``(nu_thresholds, SuPhaseReport, total SU power)``.
    """
    k1, n, t_count = config.n_secure, config.n_subcarriers, ensemble.count
    cols, su, a, b = ensemble.su_columns(k1)
    if candidate_sets is not None:
        in_set = np.zeros((k1, n), dtype=bool)
        for k, subs in enumerate(candidate_sets):
            in_set[k, subs] = True
        keep = in_set[su, cols % n]
        cols, su, a, b = cols[keep], su[keep], a[keep], b[keep]
    targets = config.secrecy_targets

    limit = secrecy_limit(a, b, su, k1, t_count)
    short = np.flatnonzero((targets > 0) & (limit <= targets * (1 - eps)))
    if short.size:
        k = short[0]
        raise SecrecyInfeasibleError(int(k), float(limit[k]), float(targets[k]))

    thresholds, iterations = search_threshold(a, b, su, targets, eps, t_count)
    secrecy, power, on, p = threshold_stats(a, b, su, thresholds, t_count)
    owner, p_win = np.full((t_count, n), -1), np.zeros((t_count, n))
    owner.flat[cols[on]], p_win.flat[cols[on]] = su[on], p
    report = SuPhaseReport(
        secrecy=secrecy, power=power, iterations=iterations,
        owner=owner, p_win=p_win,
    )
    return thresholds, report, float(power.sum())


def nu_phase(
    ensemble: ChannelEnsemble,
    config: ProblemConfig,
    p_residual: float,
    occupied: np.ndarray,
    eps: float,
    fixed_sets: list[np.ndarray] | None = None,
):
    """Search the NU water level that spends the residual power.

    On each free subcarrier the NU with the largest priced payoff at power
    price ``1/level`` wins.  Only the strongest NU of each weight class
    bids: this is the dual solver's pruned auction (``_NuCandidates``).
    With ``fixed_sets`` the owner is predetermined instead.  Average NU
    power is non-decreasing in the water level, so bisection stops when
    the total spend matches the budget within ``eps * power``.  A
    non-positive residual short-circuits to an all-zero allocation with
    ``budget_exhausted`` set; so does a phase with no free subcarrier, at
    level 0 without the flag.  Returns ``(water_level, NuPhaseReport)``.
    """
    t_count = ensemble.count
    n = config.n_subcarriers
    k1 = config.n_secure
    omega = config.weights

    if p_residual <= 0:
        return 0.0, _idle_nu(config, t_count, True)

    alpha_nu = ensemble.alpha[:, k1:, :]
    if fixed_sets is not None:
        owner = np.full(n, -1)
        for j, subs in enumerate(fixed_sets):
            owner[subs] = j
        owner_nu = np.broadcast_to(owner, (t_count, n))
        free = owner_nu >= 0
        idx = np.where(free, owner_nu, 0)
        a_win = np.take_along_axis(alpha_nu, idx[:, None, :], axis=1)[:, 0, :]
        inv_a_win = 1.0 / a_win
        w_win = omega[idx]
        ln_wa_win = np.log(w_win * a_win)

        def assignment(level):
            return owner_nu, inv_a_win, ln_wa_win, w_win
    else:
        free = ~occupied
        nu = _NuCandidates(alpha_nu, omega)

        def assignment(level):
            _, g = nu.auction(-np.log(level), 1.0 / level)
            return (
                np.where(free, nu.take(nu.index, g), -1),
                nu.take(nu.inv_alpha, g),
                nu.take(nu.ln_wa, g),
                nu.weight(g),
            )

    if not free.any():
        # every subcarrier is taken, so no water level spends anything
        return 0.0, _idle_nu(config, t_count, False)

    def spend(level):
        _, inv_a, _, w = assignment(level)
        p = np.maximum(w * level - inv_a, 0.0)
        return float(np.where(free, p, 0.0).sum() / t_count)

    _, hi = bracket(lambda x: (spend(float(x)) < p_residual, False),
                    0.0, max(config.power, 1e-12), 2.0)
    out = bisect_monotone(
        spend, p_residual, 0.0, float(hi), eps * config.power, increasing=True,
    )
    level = out.value

    owner_nu, inv_a, ln_wa_win, w_win = assignment(level)
    p = np.where(free & (owner_nu >= 0), np.maximum(w_win * level - inv_a, 0.0), 0.0)
    rate = np.where(p > 0, np.maximum(ln_wa_win + np.log(level), 0.0), 0.0)
    nu_rate = np.zeros(config.n_normal)
    won = p > 0
    np.add.at(nu_rate, owner_nu[won], rate[won])
    nu_rate /= t_count

    report = NuPhaseReport(
        nu_rate=nu_rate,
        power=float(p.sum() / t_count),
        iterations=out.iterations,
        budget_exhausted=False,
        owner_nu=np.where(won, owner_nu, -1),
        power_nu=p,
    )
    return level, report


def _assemble_result(ensemble, config, thresholds, su_rep, nu_rep,
                     level, iterations, converged, infeasible, message):
    k1 = config.n_secure
    nu_cols = nu_rep.owner_nu >= 0
    owner = np.where(nu_cols, k1 + nu_rep.owner_nu, su_rep.owner)
    p_win = np.where(nu_cols, nu_rep.power_nu, su_rep.p_win)

    decisions = decisions_from_arrays(owner, p_win, ensemble, config)
    lam = 1.0 / level if level > 0 else None
    mu = np.zeros(k1)
    finite = np.isfinite(thresholds) & (thresholds > 0)
    mu[finite] = (lam if lam is not None else 1.0) / thresholds[finite]
    return SolveResult(
        duals=DualState(mu=mu, lam=lam),
        report=evaluate(decisions, ensemble, config),
        decisions=decisions,
        iterations=int(iterations),
        converged=converged,
        infeasible=infeasible,
        message=message,
    )


def _two_phase(ensemble, config, opts, candidate_sets=None, fixed_sets=None,
               prefix=""):
    """Both phases, optionally on fixed subcarrier sets, packaged as a result.

    ``candidate_sets`` and ``fixed_sets`` go to ``su_phase`` and
    ``nu_phase``; ``prefix`` leads every failure message.
    """
    check_dimensions(ensemble, config)
    eps = opts.epsilon
    try:
        thresholds, su_rep, p_su = su_phase(ensemble, config, eps, candidate_sets)
    except SecrecyInfeasibleError as err:
        k1, nu_rep = config.n_secure, _idle_nu(config, ensemble.count, False)
        # every column free: the idle NU phase's arrays serve the SUs too
        su_rep = SuPhaseReport(
            secrecy=np.zeros(k1), power=np.zeros(k1),
            iterations=np.zeros(k1, dtype=int),
            owner=nu_rep.owner_nu, p_win=nu_rep.power_nu,
        )
        return _assemble_result(
            ensemble, config, np.full(k1, np.inf), su_rep, nu_rep, 0.0, 0,
            converged=False, infeasible=True, message=f"{prefix}{err}",
        )

    residual = config.power - p_su
    level, nu_rep = nu_phase(
        ensemble, config, residual, su_rep.occupied, eps, fixed_sets
    )
    iterations = int(su_rep.iterations.sum()) + nu_rep.iterations

    if nu_rep.budget_exhausted:
        return _assemble_result(
            ensemble, config, thresholds, su_rep, nu_rep, 0.0,
            iterations, converged=False, infeasible=True,
            message=(
                f"{prefix}secrecy targets consume {p_su:.4g} of the "
                f"{config.power:.4g} power budget; nothing left for normal users"
            ),
        )

    targets = config.secrecy_targets
    secrecy_ok = np.all(
        (targets <= 0) | (np.abs(su_rep.secrecy - targets) <= eps * np.maximum(targets, 1e-300))
    )
    power_ok = abs(p_su + nu_rep.power - config.power) < eps * config.power
    return _assemble_result(
        ensemble, config, thresholds, su_rep, nu_rep, level,
        iterations, converged=bool(secrecy_ok and power_ok), infeasible=False,
        message="",
    )


def solve_suboptimal(
    ensemble: ChannelEnsemble,
    config: ProblemConfig,
    opts: SolverOptions | None = None,
) -> SolveResult:
    """Run both phases and package the allocation like the other solvers."""
    if config.mode != "average":
        raise ValueError("the two-phase allocator supports only mode='average'")
    return _two_phase(ensemble, config, opts or SolverOptions())
