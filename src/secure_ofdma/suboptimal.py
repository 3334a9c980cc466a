"""Low-complexity two-phase allocator.

Phase 1 serves the secure users in isolation, treating every other user
as a pure eavesdropper: SU k claims the subcarriers where its CNR beats
the best other CNR by more than a per-user gap threshold, and one
elementwise bisection tunes the K1 independent thresholds until each
average secrecy target is met.  Phase 2 distributes the leftover
subcarriers and power among the normal users at a single water level,
with per-user levels proportional to the weights.  The two phases
decouple the multiplier updates, so the whole run needs K1 threshold
bisections of O(log(1/eps)) steps each plus one exact water level
(``_search.sorted_level``), which unequal NU weights re-solve a few
times.  Nothing in either phase's price-free work is repeated: the
threshold search computes the closed form's price-free terms once, and
the NU phase reads the strongest NUs and their sorted breakpoints from
tables kept on the ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._search import search_threshold, sorted_level, water_level
from .allocation import SolveResult
from .channel import (ChannelEnsemble, SecrecyInfeasibleError, check_dimensions,
                      check_reachable, secrecy_limit)
from .config import ProblemConfig, SolverOptions
from .evaluate import solve_result
from .rates import _NuCandidates

# a backstop on the NU level solves: unequal weights' winners repeat in a few
_MAX_LEVEL_ROUNDS = 50


@dataclass
class SuPhaseReport:
    secrecy: np.ndarray          # (K1,) achieved average secrecy rates
    power: np.ndarray            # (K1,) average power spent per SU
    iterations: np.ndarray       # (K1,) threshold bisection steps per SU
    owner: np.ndarray            # (T, N) SU holding the subcarrier or -1
    p_win: np.ndarray            # (T, N) SU powers

    @property
    def occupied(self) -> np.ndarray:
        return self.owner >= 0


@dataclass
class NuPhaseReport:
    power: float                 # average NU power
    iterations: int              # exact water-level solves (1 unless G > 1)
    owner_nu: np.ndarray         # (T, N) NU winner or -1
    power_nu: np.ndarray         # (T, N) NU powers


def _column_owner(sets, users, n, name):
    """Which of the ``users`` index sets holds each of ``n`` columns, or -1;
    ``ValueError`` names ``name`` unless they hold disjoint integer indices
    in [0, n).  An empty list reads as an empty integer set."""
    if len(sets) != users:
        raise ValueError(f"{name} must hold {users} subcarrier sets, not {len(sets)}")
    owner = np.full(n, -1)
    for j, subs in enumerate(sets):
        subs = np.asarray(subs, dtype=np.intp if np.size(subs) == 0 else None)
        if subs.dtype.kind not in "iu" or ((subs < 0) | (subs >= n)).any() \
                or (owner[subs] >= 0).any():
            raise ValueError(f"{name}[{j}] must hold integer indices in [0, {n}) "
                             "that no other set holds")
        owner[subs] = j
    return owner


def su_phase(
    ensemble: ChannelEnsemble,
    config: ProblemConfig,
    eps: float,
    candidate_sets: list[np.ndarray] | None = None,
):
    """Tune per-SU gap thresholds to the secrecy targets.

    ``candidate_sets`` restricts SU k to a fixed subcarrier set (used by
    the fixed-assignment baselines): K1 disjoint sets of indices in
    [0, N), else ``ValueError``.  By default every subcarrier where the SU
    has the largest CNR is a candidate.  ``eps`` must lie in (0, 1), as
    ``SolverOptions.epsilon`` does.  ``channel.check_reachable`` raises
    ``SecrecyInfeasibleError`` for the lowest-indexed SU whose target is
    at or above its unbounded-power limit on its candidates.  Returns
    ``(nu_thresholds, SuPhaseReport, total SU power)``.
    """
    check_dimensions(ensemble, config)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    k1, n, t_count = config.n_secure, config.n_subcarriers, ensemble.count
    cols, su, a, b = ensemble.su_columns(k1)
    if candidate_sets is not None:
        keep = _column_owner(candidate_sets, k1, n, "candidate_sets")[cols % n] == su
        cols, su, a, b = cols[keep], su[keep], a[keep], b[keep]
    targets = config.secrecy_targets
    check_reachable(targets, secrecy_limit(a, b, su, k1, t_count))

    thresholds, iterations, (secrecy, power, on, p) = search_threshold(
        a, b, su, targets, eps, t_count)
    owner, p_win = np.full((t_count, n), -1), np.zeros((t_count, n))
    # fresh C-ordered arrays, so ravel() is a view
    owner.ravel()[cols[on]], p_win.ravel()[cols[on]] = su[on], p
    report = SuPhaseReport(
        secrecy=secrecy, power=power, iterations=iterations,
        owner=owner, p_win=p_win,
    )
    return thresholds, report, float(power.sum())


def _presorted_level(nu, free, g, budget):
    """The one water level of the free columns' bidders of the classes ``g``
    (``None`` for a single class), spending ``budget[0]``.

    The bidders are picked from the ensemble's breakpoint order
    ``nu.order``, so they arrive sorted and ``sorted_level`` solves the
    level without a sort.
    """
    order, classes = nu.order, nu.weights.size
    if g is None:
        picked = free.ravel()
    else:
        picked = ((g[:, None, :] == np.arange(classes)[:, None])
                  & free[:, None, :]).ravel()
    at = order[picked[order]]
    inv_a = nu.inv_alpha.ravel()[at]
    w = (np.full(at.size, nu.weights[0]) if g is None
         else nu.weights[at // free.shape[1] % classes])
    return sorted_level((inv_a / w)[None, :], w[None, :], inv_a[None, :], budget)


def nu_phase(
    ensemble: ChannelEnsemble,
    config: ProblemConfig,
    p_residual: float,
    occupied: np.ndarray,
    fixed_sets: list[np.ndarray] | None = None,
):
    """Pour the residual power onto the free subcarriers at one NU water level.

    On each free subcarrier the NU with the largest priced payoff at power
    price ``1/level`` wins and takes ``(w * level - 1/alpha)+``.  Only the
    strongest NU of each weight class bids: this is the dual solver's
    pruned auction (``_NuCandidates``).  With ``fixed_sets`` the owner is
    predetermined instead: one set per NU, checked as ``su_phase`` checks
    ``candidate_sets``; a set's free columns are those not ``occupied``.
    With the bidders fixed, the level is exact: one water level over the
    free columns of all frames, read in the ensemble's breakpoint order
    (``_presorted_level``), or, on fixed sets, sorted by
    ``water_level``.  With several weight classes the winners
    depend on the level, so it is re-solved at the previous level's
    winners until they repeat; if two winner sets alternate, the lower of
    their levels, which underspends, is kept.  A residual that is not
    finite and positive raises ``ValueError``; a phase with no free
    subcarrier spends nothing, at level 0.  Returns ``(water_level,
    NuPhaseReport)``.
    """
    check_dimensions(ensemble, config)
    t_count, n, k1 = ensemble.count, config.n_subcarriers, config.n_secure
    if getattr(occupied, "dtype", None) != bool or np.shape(occupied) != (t_count, n):
        raise ValueError(f"occupied must have shape {(t_count, n)} and be a bool array")
    if not 0 < p_residual < np.inf:
        raise ValueError("p_residual must be finite and positive")

    budget = np.array([p_residual * t_count])
    g = None    # the bidders' classes, while they depend on the level
    if fixed_sets is not None:
        owner = _column_owner(fixed_sets, config.n_normal, n, "fixed_sets")
        free = (owner >= 0) & ~occupied
        idx = np.maximum(owner, 0)
        fixed = (idx, 1.0 / ensemble.alpha[:, k1 + idx, np.arange(n)],
                 config.weights[idx])

        def bids(_):
            return fixed

        def level_at(_):
            w = np.broadcast_to(fixed[2], free.shape)[free]
            return water_level(True, w[None, :], fixed[1][free][None, :], budget)
    else:
        free = ~occupied
        nu = _NuCandidates(ensemble, k1, config.weights)

        def bids(g):
            """The bidders of the classes ``g``: NU index, 1/alpha and weight."""
            return nu.take(nu.index, g), nu.take(nu.inv_alpha, g), nu.weight(g)

        def level_at(g):
            return _presorted_level(nu, free, g, budget)

        if nu.weights.size > 1:
            # a high level starts it: there the heaviest class wins everywhere
            g = np.full(free.shape, nu.weights.size - 1)
    if not free.any():
        # every subcarrier is taken, so no water level spends anything
        return 0.0, NuPhaseReport(0.0, 0, np.full(free.shape, -1), np.zeros(free.shape))

    back = None
    for rounds in range(1, _MAX_LEVEL_ROUNDS + 1):
        level = float(level_at(g)[0])
        if g is None:
            break
        won = nu.auction(-np.log(level), 1.0 / level)[1]
        if not ((won != g) & free).any():
            break
        if back is not None and not ((won != back[1]) & free).any():
            # the budget sits on a jump of the spend: keep the side below it
            level, g = (level, won) if level < back[0] else (back[0], g)
            break
        back, g = (level, g), won

    index, inv_a, w = bids(g)
    p = np.where(free, np.maximum(w * level - inv_a, 0.0), 0.0)
    return level, NuPhaseReport(
        power=float(p.sum() / t_count), iterations=rounds,
        owner_nu=np.where(p > 0, index, -1), power_nu=p,
    )


def _assemble_result(ensemble, config, eps, thresholds, su_owner, su_p, nu_rep,
                     level, iterations, message):
    """The SU phase's (T, N) owners and powers merged with the NU phase's,
    judged; a ``message`` marks it infeasible."""
    k1 = config.n_secure
    nu_cols = nu_rep.owner_nu >= 0
    owner = np.where(nu_cols, k1 + nu_rep.owner_nu, su_owner)
    p_win = np.where(nu_cols, nu_rep.power_nu, su_p)
    lam = 1.0 / level if level > 0 else None
    mu = np.zeros(k1)
    finite = np.isfinite(thresholds) & (thresholds > 0)
    mu[finite] = (lam if lam is not None else 1.0) / thresholds[finite]
    return solve_result(owner, p_win, ensemble, config, eps, mu, lam,
                        infeasible=bool(message), message=message,
                        iterations=int(iterations))


def _two_phase(ensemble, config, opts, candidate_sets=None, fixed_sets=None,
               prefix=""):
    """Both phases, optionally on fixed subcarrier sets, packaged as a result.

    ``candidate_sets`` and ``fixed_sets`` go to ``su_phase`` and
    ``nu_phase``; ``prefix`` leads every failure message.  A target that
    ``su_phase`` finds out of reach, or an SU phase that spends the whole
    budget P, makes the result infeasible.  Both exits give the one
    infeasible result: the no-secrecy allocation, the NU phase pouring P
    onto every column (its fixed sets, with ``fixed_sets``), at mu = 0.
    """
    eps, shape = opts.epsilon, (ensemble.count, config.n_subcarriers)
    try:
        thresholds, su_rep, p_su = su_phase(ensemble, config, eps, candidate_sets)
        steps, su_owner, su_p = int(su_rep.iterations.sum()), su_rep.owner, su_rep.p_win
        message = "" if p_su < config.power else (
            f"{prefix}secrecy targets consume {p_su:.4g} of the {config.power:.4g} "
            "power budget; nothing left for normal users")
    except SecrecyInfeasibleError as err:
        steps, message = 0, f"{prefix}{err}"
    if message:
        thresholds, p_su = np.full(config.n_secure, np.inf), 0.0
        su_owner, su_p = np.full(shape, -1), np.zeros(shape)
    level, nu_rep = nu_phase(ensemble, config, config.power - p_su, su_owner >= 0,
                             fixed_sets)
    return _assemble_result(ensemble, config, eps, thresholds, su_owner, su_p, nu_rep,
                            level, steps + nu_rep.iterations, message)


def solve_suboptimal(
    ensemble: ChannelEnsemble,
    config: ProblemConfig,
    opts: SolverOptions | None = None,
) -> SolveResult:
    """Run both phases and package the allocation like the other solvers."""
    if config.mode != "average":
        raise ValueError("the two-phase allocator supports only mode='average'")
    return _two_phase(ensemble, config, opts or SolverOptions())
