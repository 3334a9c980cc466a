"""Output checks that judge each cell independently of ``converged``.

A cell fails when its solve raised or its report is non-finite.  A cell
expected to be feasible also fails when

- any SU's average secrecy is below ``target * (1 - eps)``: the same
  comparison ``dual_solver._converged_mu`` makes, so a cell sitting at
  exactly 0.990 of its target passes here as it does in the solver;
- average power exceeds ``P * (1 + eps)``, or, in peak mode, any frame's
  power does;
- ``validate_exclusivity`` rejects any kept per-frame decision (first
  repetition only: it loops over every frame in Python, and later
  repetitions must reproduce the first one's R_NU exactly);
- R_NU or an SU's secrecy rate lies outside ``REF_TOL * eps`` of the
  reference recorded for that cell (``reference.json``).

A cell expected to be infeasible passes only when it comes back with
``infeasible=True`` and a finite report.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from secure_ofdma.allocation import validate_exclusivity

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Reference tolerance in units of eps.  Warm and cold starts of the same
# solver already disagree by up to 1% (= eps) in R_NU, and the reference
# is a mean over seeds, so one more eps covers one ensemble's sampling
# offset from it (at most 1.03% over the recorded seeds: max_rel_offset).
REF_TOL = 2.0


def load_reference(workload: str, frames: int) -> dict | None:
    """Per-cell reference values for this workload and frame count, if any."""
    table = json.loads(REFERENCE_FILE.read_text())
    entry = table.get(workload)
    if entry is None or entry.get("frames") != frames:
        return None
    return entry["cells"]


def _finite_report(rep) -> bool:
    values = [rep.r_nu_total, rep.avg_power, rep.su_power, rep.su_subcarriers]
    return bool(np.all(np.isfinite(values)) and np.all(np.isfinite(rep.r_su)))


def check_cell(cell, eps: float, reference: dict | None,
               exclusivity: bool = True) -> list[str]:
    """Reasons the cell fails; empty when it passes."""
    if cell.error is not None:
        return [f"raised: {cell.error}"]
    res = cell.result
    if res is None:
        return ["no result captured"]
    rep = res.report
    if not _finite_report(rep):
        return ["non-finite report"]
    if cell.expect_infeasible:
        return [] if res.infeasible else ["expected infeasible, got a solution"]

    if res.infeasible:
        return [f"reported infeasible: {res.message}"]
    problems = []
    cfg = cell.config
    targets = cfg.secrecy_targets
    if cell.screen is not None and not cell.screen.feasible_hint:
        problems.append("screened infeasible by the quadrature bound")
    r_su = np.asarray(rep.r_su, float)
    if not np.all(r_su >= targets * (1.0 - eps)):
        k = int(np.argmin(r_su - targets * (1.0 - eps)))
        problems.append(
            f"SU {k} secrecy {r_su[k]:.6g} below {targets[k]:.6g}*(1-eps)"
        )
    if rep.avg_power > cfg.power * (1.0 + eps):
        problems.append(f"average power {rep.avg_power:.6g} over budget")
    decisions = res.decisions
    if decisions is None:
        problems.append("no decisions kept")
    else:
        if cfg.mode == "peak":
            frame_max = max(d.total_power for d in decisions)
            if frame_max > cfg.power * (1.0 + eps):
                problems.append(f"frame power {frame_max:.6g} over budget")
        for t, d in enumerate(decisions if exclusivity else ()):
            try:
                validate_exclusivity(d)
            except ValueError as err:
                problems.append(f"frame {t}: {err}")
                break
    ref = (reference or {}).get(cell.label)
    if ref is not None:
        tol_nu = REF_TOL * eps * abs(ref["r_nu"])
        if abs(rep.r_nu_total - ref["r_nu"]) > tol_nu:
            problems.append(
                f"R_NU {rep.r_nu_total:.6g} vs reference {ref['r_nu']:.6g}"
            )
        ref_su = np.asarray(ref["r_su"], float)
        tol_su = REF_TOL * eps * np.maximum(np.abs(ref_su), 1.0)
        if np.any(np.abs(r_su - ref_su) > tol_su):
            problems.append("SU secrecy off the reference")
    return problems


class CellChecker:
    """Checks every cell of every repetition and keeps the failures.

    Repetitions run on the same ensembles, so a cell whose R_NU differs
    from the first repetition's fails as well.
    """

    def __init__(self, eps: float, reference: dict | None):
        self.eps = eps
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self._first_r_nu = None

    def check(self, cells) -> list[float]:
        """Check one repetition; returns R_NU of its feasible cells."""
        r_nu = [c.result.report.r_nu_total if c.result else None for c in cells]
        first_rep = self._first_r_nu is None
        if first_rep:
            self._first_r_nu = r_nu
        for cell, value, first in zip(cells, r_nu, self._first_r_nu):
            self.attempted += 1
            problems = check_cell(cell, self.eps, self.reference, first_rep)
            if value != first:
                problems.append("R_NU differs between repetitions")
            if problems:
                self.failures.append(
                    f"ensemble {cell.ensemble_index} {cell.label}: "
                    + "; ".join(problems)
                )
        return [
            value for cell, value in zip(cells, r_nu)
            if value is not None and not cell.expect_infeasible
            and not cell.result.infeasible
        ]
