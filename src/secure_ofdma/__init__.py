"""Joint power and subcarrier allocation for OFDMA downlinks where
secrecy-constrained users share the band with best-effort users."""

__version__ = "0.1.0"

from .allocation import Allocation, AllocationDecision, SolveResult
from .baselines import fsa_partition, solve_fsa
from .channel import (
    ChannelEnsemble,
    ensemble_hash,
    generate_ensemble,
    load_ensemble,
    save_ensemble,
)
from .config import ProblemConfig, RunSpec, SolverOptions, snr_db_to_power
from .dual_solver import (
    apply_policy,
    dual_point,
    solve_average,
    solve_peak,
)
from .evaluate import EvaluationReport, evaluate
from .experiments import ExperimentSpec, run_experiment
from .feasibility import check_feasibility, secrecy_rate_upper_bound
from .rates import (
    DualState,
    h_nu,
    h_su,
    info_rate,
    nu_power,
    secrecy_rate,
    su_power,
)
from .suboptimal import (
    SecrecyInfeasibleError,
    nu_phase,
    solve_suboptimal,
    su_phase,
)

__all__ = [
    "Allocation",
    "AllocationDecision",
    "ChannelEnsemble",
    "DualState",
    "EvaluationReport",
    "ExperimentSpec",
    "ProblemConfig",
    "RunSpec",
    "SecrecyInfeasibleError",
    "SolveResult",
    "SolverOptions",
    "apply_policy",
    "check_feasibility",
    "dual_point",
    "ensemble_hash",
    "evaluate",
    "fsa_partition",
    "generate_ensemble",
    "h_nu",
    "h_su",
    "info_rate",
    "load_ensemble",
    "nu_phase",
    "nu_power",
    "run_experiment",
    "save_ensemble",
    "secrecy_rate",
    "secrecy_rate_upper_bound",
    "snr_db_to_power",
    "solve_average",
    "solve_fsa",
    "solve_peak",
    "solve_suboptimal",
    "su_phase",
    "su_power",
]
