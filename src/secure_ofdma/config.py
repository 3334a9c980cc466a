"""Problem and solver configuration containers.

All quantities are linear and noise-normalized: channel entries are CNRs,
rates are in nats per OFDM symbol, and the power budget is the total
transmit SNR in linear scale.  dB conversion happens only at the CLI /
file boundary.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

MODES = ("average", "peak")
CONFIG_KEYS = {"N", "K", "K1", "C", "omega", "snr_db", "mode", "rho"}
RUN_FIELD_KEYS = {"realizations", "seed", "epsilon"}
RUN_KEYS = CONFIG_KEYS | RUN_FIELD_KEYS


def snr_db_to_power(snr_db: float) -> float:
    """Total transmit SNR in dB -> linear power budget (unit noise).

    Raises ``ValueError`` unless the budget is finite and positive.
    """
    try:
        power = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        power = np.inf
    if not 0 < power < np.inf:
        raise ValueError(f"snr_db={snr_db} gives no finite positive power budget")
    return power


def power_to_snr_db(power: float) -> float:
    return float(10.0 * np.log10(power))


def whole_number(name: str, value, low: int = 0, high: int | None = None) -> int:
    """``value`` as an int, if it is a whole number >= ``low`` (and < ``high``);
    a bool, JSON's ``true`` or ``false``, is not one."""
    top = np.inf if high is None else high
    whole = (isinstance(value, numbers.Real) and not isinstance(value, bool)
             and value == value // 1)
    if not (whole and low <= value < top):
        span = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} must be a whole number {span}")
    return int(value)


def _per_user(name: str, value, count: int) -> np.ndarray:
    """A scalar broadcast to ``count`` users, or a list with one entry each."""
    v = np.asarray(value, dtype=float)
    if v.ndim == 0:
        return np.full(count, float(v))
    if v.shape != (count,):
        raise ValueError(f"{name} must be a scalar or have length {count}")
    return v


@dataclass
class ProblemConfig:
    """Static description of one allocation problem instance.

    Users 0..n_secure-1 are secure users (SUs) with average secrecy-rate
    targets; users n_secure..n_users-1 are best-effort normal users (NUs)
    with positive objective weights.
    """

    n_subcarriers: int
    n_users: int
    n_secure: int
    secrecy_targets: np.ndarray    # shape (n_secure,), nat/OFDM symbol
    weights: np.ndarray            # shape (n_users - n_secure,)
    power: float                   # total power budget, linear
    mode: str = "average"
    rho: float = 1.0               # mean CNR of the fading distribution

    def __post_init__(self):
        self.n_subcarriers = whole_number("n_subcarriers", self.n_subcarriers, 1)
        self.n_users = whole_number("n_users", self.n_users, 2)
        self.n_secure = whole_number("n_secure", self.n_secure, 1, self.n_users)
        self.secrecy_targets = _per_user("secrecy_targets", self.secrecy_targets,
                                         self.n_secure)
        self.weights = _per_user("weights", self.weights, self.n_normal)
        # each test is written to fail on NaN as well
        if not np.all((self.secrecy_targets >= 0) & (self.secrecy_targets < np.inf)):
            raise ValueError("secrecy targets must be finite and >= 0")
        if not np.all((self.weights > 0) & (self.weights < np.inf)):
            raise ValueError("NU weights must be finite and > 0")
        if not 0 < self.power < np.inf:
            raise ValueError("power budget must be finite and > 0")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0 < self.rho < np.inf:
            raise ValueError("rho must be finite and > 0")

    @property
    def n_normal(self) -> int:
        return self.n_users - self.n_secure

    @property
    def snr_db(self) -> float:
        return power_to_snr_db(self.power)

    def with_targets(self, targets) -> "ProblemConfig":
        """Copy of this config with new secrecy targets (scalar broadcasts)."""
        t = np.broadcast_to(np.asarray(targets, dtype=float), (self.n_secure,))
        return replace(self, secrecy_targets=t.copy())

    def with_power(self, power: float) -> "ProblemConfig":
        return replace(self, power=float(power))

    def to_dict(self) -> dict:
        return {
            "N": self.n_subcarriers,
            "K": self.n_users,
            "K1": self.n_secure,
            "C": self.secrecy_targets.tolist(),
            "omega": self.weights.tolist(),
            "snr_db": self.snr_db,
            "mode": self.mode,
            "rho": self.rho,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemConfig":
        """Build from the documented config-file fields.

        ``C`` and ``omega`` accept a scalar (broadcast to every SU / NU) or
        an explicit list.  Power is given as ``snr_db``.  A key outside
        ``CONFIG_KEYS`` is an error, so a misspelt field fails at load.
        """
        unknown = set(d) - CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            n_subcarriers=d["N"],
            n_users=d["K"],
            n_secure=d["K1"],
            secrecy_targets=d.get("C", 0.0),
            weights=d.get("omega", 1.0),
            power=snr_db_to_power(float(d["snr_db"])),
            mode=d.get("mode", "average"),
            rho=float(d.get("rho", 1.0)),
        )


@dataclass
class SolverOptions:
    """The one setting shared by the dual, suboptimal, and baseline solvers."""

    epsilon: float = 1e-2              # relative constraint tolerance

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must be in (0, 1)")


def run_fields(d: dict) -> dict:
    """``realizations``, ``seed`` and ``options`` of a run config or spec."""
    return {
        "realizations": whole_number("realizations", d.get("realizations", 2000), 1),
        "seed": whole_number("seed", d.get("seed", 0)),
        "options": SolverOptions(float(d.get("epsilon", SolverOptions.epsilon))),
    }


@dataclass
class RunSpec:
    """One CLI run: problem config plus simulation parameters."""

    config: ProblemConfig
    realizations: int = 2000
    seed: int = 0
    options: SolverOptions = field(default_factory=SolverOptions)

    @classmethod
    def from_dict(cls, d: dict) -> "RunSpec":
        unknown = set(d) - RUN_KEYS
        if unknown:
            raise ValueError(f"unknown run config keys: {sorted(unknown)}")
        block = {k: v for k, v in d.items() if k in CONFIG_KEYS}
        return cls(config=ProblemConfig.from_dict(block), **run_fields(d))

    @classmethod
    def from_file(cls, path) -> "RunSpec":
        with open(Path(path)) as fh:
            return cls.from_dict(json.load(fh))
